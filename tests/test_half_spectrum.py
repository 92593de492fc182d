"""The half-spectrum Field against the full-spectrum bodies it replaced.

A Field stores only its rfft half spectrum.  The oracle in
`full_spectrum` works on full complex spectra, as the Field API did
before: complex FFT in and out, the full-sum Sobolev norm, padding with
the +-N/2 Nyquist split and truncation with its fold.  Transforms and
norms agree to 1e-15 relative; padding and truncation are exact.  The
stacked norms and commutators, which now work in buffers they own,
keep the bytes of the expressions they replaced.
"""

import ast
import pathlib

import numpy as np
import pytest

import chslab
from chslab.fields import cosine_mode, gaussian_bump, random_field, sech2_bump
from chslab.spectral import (
    Field,
    Grid,
    _half_coefficients,
    _pad_half,
    commutator_half,
    commutator_inputs,
    half_bessel,
    half_dx,
    half_values,
    half_weights,
    pad_to,
    sobolev_norm,
    sobolev_norms,
)
from full_spectrum import (
    full_from_values,
    full_pad,
    full_sobolev_norm,
    full_truncate,
    full_values,
    truncate_to,
)

SIZES = [2**p for p in range(3, 13)]  # N = 8 .. 4096
LENGTHS = (2.0 * np.pi, 5.0, 64.0)


def sample_fields(grid):
    """Bumps, extreme single modes and random_field draws on one grid."""
    return [
        gaussian_bump(grid),
        sech2_bump(grid, 0.7),
        cosine_mode(grid, grid.n // 4),
        cosine_mode(grid, grid.n // 2),
        *(random_field(grid, s, seed=seed) for seed, s in enumerate((0.0, 2.0, 6.0))),
    ]


@pytest.mark.parametrize("n", SIZES)
def test_transforms_and_norms_match_the_full_spectrum(n):
    for length in LENGTHS:
        grid = Grid(n, length)
        for f in sample_fields(grid):
            want = full_from_values(grid, f.values)
            got = Field.from_values(grid, f.values).coefficients
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            vals = full_values(f.coefficients)
            assert np.abs(f.values - vals).max() <= 1e-15 * np.abs(vals).max()
            for s in (-2.0, 0.0, 1.5, 4.0, 6.0):
                norm = full_sobolev_norm(grid, f.coefficients, s)
                assert abs(sobolev_norm(f, s) - norm) <= 1e-15 * norm


@pytest.mark.parametrize("n", SIZES)
def test_unscaled_transforms_equal_the_explicit_scaling_bit_for_bit(n):
    # N is a power of two, so scaling by N or 1/N is exact wherever it is applied
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((5, n)) * np.logspace(-8, 8, 5)[:, None]
    half = rng.standard_normal((5, n // 2 + 1)) + 1j * rng.standard_normal((5, n // 2 + 1))
    half *= np.logspace(-8, 8, 5)[:, None]
    assert half_values(half).tobytes() == np.fft.irfft(half * n, n=n, axis=-1).tobytes()
    assert (_half_coefficients(vals).tobytes()
            == (np.fft.rfft(vals, axis=-1) / n).tobytes())
    assert half_values(half[2]).tobytes() == np.fft.irfft(half[2] * n, n=n).tobytes()
    # sobolev_norms squares and weights |c| in place
    grid = Grid(n, 5.0)
    for s in (-2.0, 0.0, 1.5):
        want = np.sqrt(grid.length * np.sum(half_weights(grid, s) * np.abs(half) ** 2, axis=-1))
        assert sobolev_norms(half, grid, s).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_commutators_keep_their_stacked_expressions_bit_for_bit(n):
    # the expressions before f and g were transformed one at a time and
    # the products formed in place
    rng = np.random.default_rng(n)
    re, im = rng.standard_normal((2, 2, 5, n // 2 + 1))
    f, g = re + 1j * im
    padded = _pad_half(np.stack([f, g]), 2 * n)
    fv, gv = half_values(padded)
    want_inputs = (fv, _half_coefficients(fv * gv), padded[1])
    got_inputs = commutator_inputs(f, g)
    for got, want in zip(got_inputs, want_inputs):
        assert got.tobytes() == want.tobytes()
    fine = Grid(2 * n, 3.0)
    for mult in (half_bessel(fine, 1.5), half_bessel(fine, 0.5) * half_dx(fine)):
        want = mult * want_inputs[1] - _half_coefficients(fv * half_values(mult * padded[1]))
        assert commutator_half(mult, *got_inputs).tobytes() == want.tobytes()
    for got, want in zip(got_inputs, want_inputs):  # shared by every commutator
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_pad_and_truncate_match_the_full_spectrum_exactly(n):
    for length in LENGTHS:
        grid = Grid(n, length)
        for f in sample_fields(grid):
            fine = Grid(4 * n, length)
            assert np.array_equal(pad_to(f, fine).coefficients,
                                  full_pad(f.coefficients, fine.n))
            coarse = Grid(max(8, n // 2), length)
            if coarse.n < n:
                assert np.array_equal(truncate_to(f, coarse).coefficients,
                                      full_truncate(f.coefficients, coarse.n))


@pytest.mark.parametrize("n", [8, 64, 4096])
def test_coefficients_are_the_hermitian_extension(n):
    f = random_field(Grid(n, 3.0), 1.0, seed=n)
    c = f.coefficients
    assert c.shape == (n,)
    assert np.array_equal(c[: n // 2 + 1], f.half)
    # random_field's Nyquist coefficient is real, so c_k = conj(c_{N-k}) for all k
    assert np.array_equal(c[1:], np.conj(c[-1:0:-1]))


def test_field_holds_only_the_half_spectrum():
    grid = Grid(64, 1.0)
    f = gaussian_bump(grid)
    assert f.half.shape == (33,)
    assert not f.half.flags.writeable
    assert Field.zero(grid).half.shape == (33,)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(64, dtype=complex))
    with pytest.raises(ValueError):
        Field(grid, np.zeros(32, dtype=complex))


def _fft_calls(tree):
    """(line, name) of every full complex transform a module reaches."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft")
                and "fft" in (getattr(node.value, "attr", None), getattr(node.value, "id", None))):
            yield node.lineno, f"fft.{node.attr}"
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
            for alias in node.names:
                if alias.name in ("fft", "ifft"):
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_package_uses_only_real_transforms():
    # the half spectrum is the one representation: rfft and irfft only
    found = []
    for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py")):
        found += [(path.name, *hit) for hit in _fft_calls(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_complex_transforms():
    src = ("import numpy as np\nnp.fft.fft(x)\nfrom numpy.fft import ifft\n"
           "from numpy import fft\nfft.ifft(x)\nnp.fft.rfft(x)\n")
    assert [name for _, name in sorted(_fft_calls(ast.parse(src)))] == [
        "fft.fft", "from numpy.fft import ifft", "fft.ifft"]
