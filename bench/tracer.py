"""Outside-in span tracer for one chslab CLI process.

`child.py` loads this module only for a traced invocation.  `install()`
replaces each traced public function with a timing wrapper in *every*
``chslab`` module that bound it: ``from .spectral import product`` gives
``solver`` its own reference, so patching ``spectral`` alone would miss
the solver's calls.  The ``numpy.fft`` entry points are wrapped too, so
the FFT count does not depend on which transform the code uses.

Spans live in memory as (name, start, end, parent, quantity) rows and are
written once, by `dump()`, after the command has returned.  ``quantity``
is a per-call number taken at the boundary: points transformed for an
FFT, computed trajectory bytes for `solve`, ensemble size for a probe.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# defining module -> traced public functions (span name "<module>.<fn>")
LAYERS = {
    "solver": ("rhs", "step_rk4", "solve"),
    "spectral": ("product", "dealias_truncate", "dx", "sobolev_norm",
                 "product_exact", "commutator_bessel", "commutator_bessel_dx",
                 "pad_to"),
    "mollifier": ("build_mollifier", "bump_transform_raw", "commutator_mollifier"),
    "inequalities": ("probe_algebra", "probe_kato_ponce",
                     "probe_mollifier_commutator", "probe_calderon",
                     "probe_product_low", "probe_product_negative",
                     "probe_interpolation", "product_negative_sweep",
                     "kernel_bound_scan", "kernel_integral"),
    "fields": ("random_field",),
    "holder": ("run_holder", "make_family"),
    "config": ("parse_config",),
    "cli": ("execute",),
}
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")


def _fft_points(args, kwargs, out):
    # rfft shrinks and irfft grows the last axis; the larger side is the
    # transform length either way
    a = args[0] if args else kwargs["a"]
    return max(np.size(a), np.size(out))


def _trajectory_bytes(args, kwargs, out):
    # stored states x (u, rho) x N complex128 coefficients
    if out is None:
        return 0
    return len(out.states) * 2 * out.states[0].u.grid.n * 16


def _ensemble(args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.ensemble


QUANTITIES = {
    "solver.solve": _trajectory_bytes,
    **{f"inequalities.{fn}": _ensemble for fn in LAYERS["inequalities"]
       if fn.startswith("probe_")},
    **{f"numpy.fft.{fn}": _fft_points for fn in FFT_ENTRY_POINTS},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter
        measure = QUANTITIES.get(name)

        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                qty = measure(args, kwargs, out) if measure else 0
                rows[idx] = (nid, start, end, parent, qty)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Patch every traced function in every loaded chslab namespace."""
        namespaces = [m for key, m in sys.modules.items()
                      if key == "chslab" or key.startswith("chslab.")]
        for module, fns in LAYERS.items():
            home = sys.modules[f"chslab.{module}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{module}.{fn_name}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapped)
        for fn_name in FFT_ENTRY_POINTS:
            setattr(np.fft, fn_name,
                    self.wrap(f"numpy.fft.{fn_name}", getattr(np.fft, fn_name)))

    def dump(self, path: str) -> None:
        """Write all spans at once: names as JSON, rows as packed arrays."""
        arr = np.array(self.rows, dtype=float).reshape(len(self.rows), 5)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=arr[:, 0].astype(np.int32), start=arr[:, 1], end=arr[:, 2],
                 parent=arr[:, 3].astype(np.int64), quantity=arr[:, 4])
