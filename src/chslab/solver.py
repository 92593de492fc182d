"""Time integration of the two-component system and of its difference form.

In local form (the two-component higher-order Camassa-Holm system of
arXiv 1805.06290), with m = (1 - d^2/dx^2)^2 u,

    m_t + u m_x + b u_x m + kappa rho rho_x = alpha u_x,
    rho_t + u rho_x + (b - 1) u_x rho = 0,        b != 1.

The evolution is the nonlocal formulation: the fourth-order inertia
operator is inverted, leaving a transport term plus the smoothing
multiplier d/dx (1 - d^2/dx^2)^{-2} applied to a quadratic bracket.
Everything runs on the periodic grid with 2/3-rule dealiasing, classical
RK4 in time, and a per-step norm ledger out of which the existence-time
and size-bound probes are built.

States step as stacks of rfft half spectra, shape (P, 2, N/2+1), one row
(u, rho) per state.  The right-hand side is one fused real-FFT kernel
over an operator table built once per (grid, params): one batched irfft
gives the values of (u, u_x, u_xx, u_xxx, rho, rho_x), the quadratic
terms are formed pointwise as a bilinear form B, and one batched rfft
brings three rows back.  `rhs` is B(U, U) and `diff_rhs` is B(w, U) +
B(V, w), plus the linear alpha term; one RK4 stage formula steps both.
`solve_stack` steps a stack and builds State objects only for the states
it keeps; `solve` is its one-row call.  `diff_solve` steps w = U - V.

Each run allocates one workspace, sized for its starting stack, and every
RK4 stage, transform and bilinear row of the run writes into it; rows
that abort leave the run on its leading slices.  The workspace belongs to
the run, never to the shared operator table, so concurrent runs on one
(grid, params) do not touch each other's buffers.  A stack is never
updated in place: each step returns a fresh one, so stored states and
what `observe` saw stay as they were.

Status/ledger conventions: a trajectory records (t, ||u||_{H^s},
||rho||_{H^{s-2}}, y = sum) every step.  Integration stops early either
when y explodes past a threshold (or values go non-finite), or when the
top third of the retained spectral band carries more than a set fraction
of the H^s energy, meaning the grid can no longer represent the
solution.  In a stack each row has its own ledger and status.  Ledger
entries are finite unless the run aborted.  Only a non-finite state
counts as a blow-up; any other error inside a step propagates.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import (Field, Grid, half_dealias_mask, half_dx, half_helmholtz_dx,
                       half_values, half_weights, sobolev_norms)

__all__ = [
    "SystemParams", "State", "Trajectory", "DifferenceTrajectory", "SizeBoundReport",
    "SeamWarning", "NonFiniteStateError", "COMPLETED", "BLOWUP", "RESOLUTION_EXHAUSTED",
    "rhs", "step_rk4", "cfl_dt", "solve", "solve_stack", "existence_time", "t0_lower_bound",
    "size_bound_check", "MIN_FITTED_CS", "fit_min_cs", "diff_solve",
    "y_norms", "snapshot_bytes", "load_snapshot", "DataError", "SeamError",
]

COMPLETED = "completed"
BLOWUP = "blow-up-detected"
RESOLUTION_EXHAUSTED = "resolution-exhausted"
# largest |value| initial data may keep within 10% of the domain edge
_SEAM_TOL = 1e-10
# steps between refreshes of the CFL step's sup|u|
_CFL_REFRESH_STEPS = 16


class SeamWarning(UserWarning):
    """Initial data does not decay at the periodic seam."""


class DataError(ValueError):
    """The initial data, not the code, is at fault."""


class SeamError(DataError):
    """Initial data does not decay at the periodic seam, under seam policy "error"."""


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of the system plus the energy-estimate constant c_s.

    b = 1 is excluded (the equation family is defined for b != 1); c_s
    is the unquantified constant of the existence-time bound, kept as an
    input with default 1 and refined empirically by fit_min_cs.
    """

    b: float = 2.0
    kappa: float = 1.0
    alpha: float = 0.0
    c_s: float = 1.0

    def __post_init__(self):
        if self.b == 1.0:
            raise ValueError("parameter b = 1 is excluded")
        if not self.c_s > 0.0:
            raise ValueError(f"c_s must be positive, got {self.c_s}")
        for name in ("b", "kappa", "alpha", "c_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")


@dataclass(frozen=True)
class State:
    u: Field
    rho: Field
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.rho.grid:
            raise ValueError("u and rho must share one grid")
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"time must be finite and nonnegative, got {self.t}")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class Trajectory:
    """Solver output: thinned states plus the per-step norm ledger."""

    states: tuple
    times: np.ndarray
    norm_u: np.ndarray
    norm_rho: np.ndarray
    y: np.ndarray
    status: str
    s: float

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def initial(self) -> State:
        return self.states[0]

    @property
    def final(self) -> State:
        return self.states[-1]

    def is_dense(self) -> bool:
        """True when a state was stored at every ledger time."""
        return len(self.states) == len(self.times)


@dataclass(frozen=True)
class DifferenceTrajectory:
    """`diff_solve`'s result: the largest H^r x H^{r-2} gap over the stored times."""

    defect: float


class NonFiniteStateError(DataError):
    """Input state holds a NaN or an infinity: a fault of the data.

    A `solve_stack` row that blows up on the way gets the status BLOWUP instead.
    """


class _Operators:
    """Half-spectrum operator tables of the system on one grid.

    The right-hand side works on the rfft half spectrum (modes
    0..N/2) of real fields.  A pair (u, rho) enters as its value stack:
    the rows (u, u_x, u_xx, u_xxx, rho, rho_x) of the 2/3-truncated
    fields, from one batched irfft.  The quadratic part of the system is
    a bilinear form on two such stacks giving three value rows (bracket,
    u-transport, rho tendency), which one batched rfft, one mask and the
    Helmholtz multiplier turn into the tendencies.
    """

    def __init__(self, grid: Grid, params: SystemParams):
        n = grid.n
        self.grid, self.params, self.half = grid, params, n // 2 + 1
        # the 2/3 mask also drops the Nyquist mode, which even-order half_dx keeps
        mask = half_dealias_mask(grid)
        deriv = [half_dx(grid, k) for k in range(4)]
        helm = half_helmholtz_dx(grid)  # d/dx (1 - d^2/dx^2)^{-2}
        one = np.ones_like(helm)
        # Field scaling: times N into values, over N back to coefficients
        self.analysis = (n * mask) * np.array(deriv + deriv[:2])
        self.synthesis = (mask / n) * np.array([-helm, -one, one])
        self.linear = params.alpha * helm
        for table in (self.analysis, self.synthesis, self.linear):
            table.flags.writeable = False

    def values(self, stack: np.ndarray, work: _Workspace) -> np.ndarray:
        """Value rows of a (P, 2, N/2+1) stack: work.vals[:P], shape (P, 6, N), one irfft."""
        p = len(stack)
        spec = work.spec[:p]
        np.multiply(self.analysis[:4], stack[:, :1], out=spec[:, :4])
        np.multiply(self.analysis[4:], stack[:, 1:], out=spec[:, 4:])
        return np.fft.irfft(spec, n=self.grid.n, axis=-1, out=work.vals[:p])

    def bilinear(self, a: np.ndarray, c: np.ndarray, out: np.ndarray, tmp: np.ndarray):
        """B(a, c) into out (P, 3, N): the rows (bracket, u-transport, rho tendency).

        B(U, U) is the quadratic part of the right-hand side at U, so
        B(U, U) - B(V, V) = B(U - V, U) + B(V, U - V) exactly.  Either
        argument may be one (6, N) value stack broadcast over the rows;
        tmp is a (P, N) scratch row.  The operations run in the order of
        the expression

            bracket = (b/2) u c0 + (3 - b) ux c1 - ((b + 5)/2) uxx c2
                      + (b - 5) ux c3 + (kappa/2) rho c4,
            transport = u c1,   rho tendency = -(u c5 + (b - 1) ux c4).
        """
        b, kap = self.params.b, self.params.kappa
        u, ux, uxx, _, rho, _ = a.swapaxes(0, -2)
        c = c.swapaxes(0, -2)
        bracket, transport, drho = out.swapaxes(0, -2)
        np.multiply(0.5 * b, u, out=bracket)
        bracket *= c[0]
        for coef, row, term, combine in ((3.0 - b, ux, c[1], np.add),
                                         (0.5 * (b + 5.0), uxx, c[2], np.subtract),
                                         (b - 5.0, ux, c[3], np.add),
                                         (0.5 * kap, rho, c[4], np.add)):
            np.multiply(coef, row, out=tmp)
            tmp *= term
            combine(bracket, tmp, out=bracket)
        np.multiply(u, c[1], out=transport)
        np.multiply(b - 1.0, ux, out=tmp)
        tmp *= c[4]
        np.multiply(u, c[5], out=drho)
        drho += tmp
        np.negative(drho, out=drho)

    def tendencies(self, rows: np.ndarray, stack: np.ndarray, work: _Workspace,
                   out: np.ndarray) -> np.ndarray:
        """(du, drho) rows into out from the bilinear rows plus the alpha term in u."""
        spec = np.fft.rfft(rows, axis=-1, out=work.tend[:len(stack)])
        spec *= self.synthesis
        # the alpha term waits in the rho row until du = (bracket + transport) + alpha term
        np.multiply(self.linear, stack[:, 0], out=out[:, 1])
        np.add(spec[:, 0], spec[:, 1], out=out[:, 0])
        out[:, 0] += out[:, 1]
        out[:, 1] = spec[:, 2]
        return out

    def rhs(self, stack: np.ndarray, work: _Workspace, out: np.ndarray) -> np.ndarray:
        """B(U, U) plus the alpha term for every row of a (P, 2, N/2+1) stack, into out."""
        p = len(stack)
        vals = self.values(stack, work)
        self.bilinear(vals, vals, work.prod[:p], work.tmp[:p])
        return self.tendencies(work.prod[:p], stack, work, out)

    def diff_rhs(self, stack: np.ndarray, us: np.ndarray, vs: np.ndarray,
                 work: _Workspace, out: np.ndarray) -> np.ndarray:
        """B(w, U) + B(V, w) plus the alpha term for rows w, from U's and V's values, into out."""
        p = len(stack)
        vals = self.values(stack, work)
        prod, more, tmp = work.prod[:p], work.more[:p], work.tmp[:p]
        self.bilinear(vals, us, prod, tmp)
        self.bilinear(vs, vals, more, tmp)
        prod += more
        return self.tendencies(prod, stack, work, out)


class _Workspace:
    """Every buffer of one run's RK4 steps, for stacks of up to `rows` rows.

    A run allocates one and passes it down; it is never shared between
    calls or threads.  A stack with fewer rows uses the leading slices.
    """

    def __init__(self, n: int, rows: int):
        half = n // 2 + 1
        self.spec = np.empty((rows, 6, half), dtype=complex)  # value spectra
        self.vals = np.empty((rows, 6, n))  # irfft value rows
        self.prod = np.empty((rows, 3, n))  # B(a, c) rows
        self.more = np.empty((rows, 3, n))  # B(V, w) rows, difference system only
        self.tmp = np.empty((rows, n))
        # the rfft of the B rows overlays the value spectra, which the irfft consumed
        self.tend = self.spec.reshape(-1)[:rows * 3 * half].reshape(rows, 3, half)
        self.k = np.empty((rows, 2, half), dtype=complex)  # RK4 stage slope
        self.x = np.empty((rows, 2, half), dtype=complex)  # RK4 stage state


@functools.lru_cache(maxsize=16)
def _operators(grid: Grid, params: SystemParams) -> _Operators:
    return _Operators(grid, params)


def _rk4(tendency, stack: np.ndarray, dt: float,
         work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of each row, and the mask of rows with a non-finite stage.

    `tendency(x, c, out)` writes the right-hand side at x, c = 0, 1/2 or 1
    dt into the step, to out.  The stages live in `work`; the new stack is
    a fresh array that first holds the slope sum, so states kept from
    earlier steps are never overwritten.
    """
    p = len(stack)
    k, x = work.k[:p], work.x[:p]
    new = np.empty_like(stack)
    finite = np.isfinite(stack).all(axis=(1, 2))
    tendency(stack, 0.0, new)
    # new sums k1 + 2 k2 + 2 k3 + k4 in that order, each k joining once its
    # successor's stage state is formed
    for i, (c, h) in enumerate(((0.5, 0.5 * dt), (0.5, 0.5 * dt), (1.0, dt))):
        np.multiply(h, k if i else new, out=x)
        x += stack
        finite &= np.isfinite(x).all(axis=(1, 2))
        if i:
            k *= 2.0
            new += k
        tendency(x, c, k)
    new += k
    new *= dt / 6.0
    new += stack
    return new, ~finite


def rhs(state: State, params: SystemParams) -> tuple[Field, Field]:
    """Right-hand side of the nonlocal form: B(U, U) plus the alpha term.

    Fields are real by construction (a Field is its half spectrum);
    products are dealiased by the 2/3 rule.
    """
    stack = np.array([[state.u.half, state.rho.half]])
    if not np.isfinite(stack).all():
        raise NonFiniteStateError("non-finite values in state fields")
    ops = _operators(state.grid, params)
    (du, drho), = ops.rhs(stack, _Workspace(state.grid.n, 1), np.empty_like(stack))
    return Field(state.grid, du), Field(state.grid, drho)


def step_rk4(grid: Grid, stack: np.ndarray, params: SystemParams, dt: float,
             work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One classical Runge-Kutta step of every row of a (P, 2, N/2+1) stack.

    Returns the new stack and the mask of rows with a non-finite stage.
    Without its run's `_Workspace` (`work`) the step allocates its own.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if work is None:
        work = _Workspace(grid.n, len(stack))
    ops = _operators(grid, params)
    return _rk4(lambda x, _, out: ops.rhs(x, work, out), stack, dt, work)


def cfl_dt(grid: Grid, u: np.ndarray, cfl: float) -> float:
    """The CFL step cfl * dx / max(1, sup|u|) over rows of u half spectra."""
    return cfl * grid.dx / max(1.0, float(np.abs(half_values(u)).max()))


def _seam_check(grid: Grid, stack: np.ndarray, policy: str):
    """Initial data must vanish near the periodic seam (x = 0 == L), in every row."""
    if policy == "ignore":
        return
    edge = grid.x < 0.1 * grid.length
    edge |= grid.x > 0.9 * grid.length
    worst = float(np.abs(half_values(stack)[..., edge]).max())
    if worst > _SEAM_TOL:
        msg = (f"initial data reaches {worst:.3e} within 10% of the domain "
               f"edge (tolerance {_SEAM_TOL:.1e}); periodic wrap-around will pollute the run")
        if policy == "error":
            raise SeamError(msg)
        warnings.warn(msg, SeamWarning)


def solve(initial: State, params: SystemParams, s: float, t_end: float,
          **options) -> Trajectory:
    """Integrate from initial.t to t_end recording the norm ledger.

    The one-row call of `solve_stack`, which documents the options.
    """
    stack = np.array([[initial.u.half, initial.rho.half]])
    return solve_stack(initial.grid, stack, params, s, t_end, initial.t, **options)[0]


def solve_stack(grid: Grid, rows: np.ndarray, params: SystemParams, s: float, t_end: float,
                t: float = 0.0, dt_policy="cfl", cfl: float = 0.3,
                blowup_threshold: float = 1e6, tail_limit: float = 0.01,
                store_stride: int = 1, seam_policy: str = "warn",
                observe=None) -> list[Trajectory]:
    """Integrate each (u, rho) row of a (P, 2, N/2+1) stack of half spectra from t to t_end.

    dt_policy is either "cfl" (dt = cfl * dx / max(1, sup|u|) over the
    running rows, refreshed every `_CFL_REFRESH_STEPS` steps) or a
    positive float requesting that fixed dt; either way the step is
    rounded down so t_end is hit exactly.  A stack of the wrong shape
    raises ValueError, a non-finite one NonFiniteStateError; the data is
    then dealiased once.  Each row keeps its own ledger, stored states
    and watchdog; a row that aborts leaves the stack.  Rows never mix, so
    under a fixed dt each steps bit for bit as it would alone.
    `observe(stack, rows)` sees the running rows and their indices in
    the input at each ledger time, before the watchdog acts.
    """
    if not 0.0 <= t < t_end:
        raise ValueError(f"need 0 <= t < t_end, got t = {t}, t_end = {t_end}")
    if seam_policy not in ("warn", "error", "ignore"):
        raise ValueError(f"unknown seam policy {seam_policy!r}")
    if isinstance(dt_policy, str):
        if dt_policy != "cfl":
            raise ValueError(f"unknown dt policy {dt_policy!r}")
        fixed_dt = None
    else:
        fixed_dt = float(dt_policy)
        if not (fixed_dt > 0.0 and math.isfinite(fixed_dt)):
            raise ValueError(f"fixed dt must be a positive real, got {dt_policy!r}")
    stack = np.asarray(rows, dtype=complex)
    if stack.shape[1:] != (2, grid.n // 2 + 1):
        raise ValueError(f"stack shape {stack.shape} is not (P, 2, {grid.n // 2 + 1})")
    if not np.isfinite(stack).all():
        raise NonFiniteStateError("non-finite values in state fields")
    _seam_check(grid, stack, seam_policy)

    stack = np.where(half_dealias_mask(grid), stack, 0.0)
    work = _Workspace(grid.n, len(stack))
    rows = np.arange(len(stack))
    status = np.full(len(rows), COMPLETED, dtype=object)
    ledger, stored, last = [[] for _ in rows], [[] for _ in rows], [None] * len(rows)
    w_u, w_rho = half_weights(grid, s), half_weights(grid, s - 2.0)
    # the resolution test watches the top third of the retained band
    # |k| <= N//3 (the 2/3 rule empties the grid's own), from mode `tail` on
    tail = math.ceil(2.0 * (grid.n // 3) / 3.0)

    def drop_aborted():
        nonlocal stack, rows
        running = status[rows] == COMPLETED
        if not running.all():
            stack, rows = stack[running], rows[running]

    def record(step):
        """Ledger rows, stored states and the watchdog at the current t."""
        energy = w_u * np.abs(stack[:, 0]) ** 2
        total = energy.sum(axis=-1)
        nu = np.sqrt(grid.length * total)
        nr = np.sqrt(grid.length * np.sum(w_rho * np.abs(stack[:, 1]) ** 2, axis=-1))
        keep = step == 0 or (store_stride > 0 and (step % store_stride == 0 or t >= t_end))
        for k, i in enumerate(rows):
            ledger[i].append((t, nu[k], nr[k]))
            last[i] = (t, stack[k])
            if keep:
                stored[i].append(last[i])
        if observe is not None:
            observe(stack, rows)
        y = nu + nr
        tail_fraction = energy[:, tail:].sum(axis=-1) / np.where(total != 0.0, total, np.inf)
        blown = ~(np.isfinite(y) & (y <= blowup_threshold))
        status[rows[blown]] = BLOWUP
        status[rows[~blown & (tail_fraction > tail_limit)]] = RESOLUTION_EXHAUSTED
        drop_aborted()

    step = start = nsteps = 0
    record(step)
    while len(rows) and t < t_end:
        if step - start >= min(_CFL_REFRESH_STEPS, nsteps):
            remaining = t_end - t
            raw = fixed_dt if fixed_dt is not None else cfl_dt(grid, stack[:, 0], cfl)
            nsteps = max(1, math.ceil(remaining / raw - 1e-12))
            dt, start = remaining / nsteps, step
        # land on t_end exactly rather than accumulating roundoff
        if nsteps - (step - start) == 1:
            dt = t_end - t
        stack, bad = step_rk4(grid, stack, params, dt, work)
        status[rows[bad]] = BLOWUP  # a non-finite stage never reaches the ledger
        drop_aborted()
        t += dt
        step += 1
        record(step)

    trajs = []
    for i, row in enumerate(ledger):
        if stored[i][-1] is not last[i]:
            stored[i].append(last[i])
        times, nus, nrs = np.array(row).T.copy()
        states = tuple(State(Field(grid, c[0]), Field(grid, c[1]), ts) for ts, c in stored[i])
        trajs.append(Trajectory(states, times, nus, nrs, nus + nrs, status[i], s))
    return trajs


def y_norms(stack: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """y = ||u||_{H^s} + ||rho||_{H^{s-2}} of each (u, rho) row of half spectra."""
    return (sobolev_norms(stack[..., 0, :], grid, s)
            + sobolev_norms(stack[..., 1, :], grid, s - 2.0))


def existence_time(y0: float, c: float) -> float:
    """The existence window (1/(2 c)) log(1 + 1/y0) of data of size y0 > 0."""
    return math.log1p(1.0 / y0) / (2.0 * c)


def t0_lower_bound(initial: State, s: float, params: SystemParams) -> float:
    """Guaranteed existence time `existence_time(y0, c_s)`.

    y0 = ||u0||_{H^s} + ||rho0||_{H^{s-2}}.  Zero data has no finite
    bound; math.inf is returned as the documented sentinel.
    """
    y0 = float(y_norms(np.array([initial.u.half, initial.rho.half]), initial.grid, s))
    if y0 == 0.0:
        return math.inf
    return existence_time(y0, params.c_s)


@dataclass(frozen=True)
class SizeBoundReport:
    passed: bool
    max_ratio: float
    bound: float
    t0: float
    first_violation: float | None


def size_bound_check(traj: Trajectory, params: SystemParams) -> SizeBoundReport:
    """Check y(t) <= 2 exp(c_s T0) y(0) on the ledger window [0, T0].

    y(0) is the ledger's first entry, in the trajectory's own norm index.
    Note exp(c_s T0) = sqrt(1 + 1/y0), so the bound value itself does
    not depend on c_s; only the length of the checked window does.  An
    aborted trajectory (status != COMPLETED) certifies nothing: it fails
    with the ratio over its whole ledger, t0 = nan and no first
    violation.
    """
    initial_y = float(traj.y[0])
    if initial_y == 0.0:
        # zero data: the bound degenerates to 0, pass iff y stayed 0
        ok = bool(np.all(traj.y <= 1e-14))
        return SizeBoundReport(ok, 0.0 if ok else math.inf, 0.0, math.inf,
                               None if ok else float(traj.times[np.argmax(traj.y > 1e-14)]))
    t0 = existence_time(initial_y, params.c_s)
    bound = 2.0 * math.exp(params.c_s * t0) * initial_y
    if traj.status != COMPLETED:
        return SizeBoundReport(False, float(traj.y.max()) / bound, bound, math.nan, None)
    horizon = traj.times[-1] - traj.times[0]
    if horizon < t0 * (1.0 - 1e-12):
        raise ValueError(f"trajectory covers {horizon:.6g} but T0 = {t0:.6g}")
    rel = traj.times - traj.times[0]
    mask = rel <= t0 * (1.0 + 1e-12)
    ratios = traj.y[mask] / bound
    max_ratio = float(ratios.max())
    passed = max_ratio <= 1.0 + 1e-12
    first = None
    if not passed:
        bad = np.nonzero(ratios > 1.0 + 1e-12)[0][0]
        first = float(traj.times[mask][bad])
    return SizeBoundReport(passed, max_ratio, bound, t0, first)


# fitted constants are floored here when they set a window, which diverges as c -> 0
MIN_FITTED_CS = 0.05


def fit_min_cs(traj: Trajectory) -> float:
    """Smallest c with dy/dt <= c (y^2 + y) along the ledger.

    dy/dt by centered differences at interior ledger points; points with
    y at roundoff level are skipped (the zero trajectory fits c = 0).
    """
    t, y = traj.times, traj.y
    if len(t) < 10:
        raise ValueError(f"ledger has {len(t)} entries; need at least 10")
    ydot = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    yc = y[1:-1]
    live = yc > 1e-30
    if not live.any():
        return 0.0
    best = float(np.max(ydot[live] / (yc[live] ** 2 + yc[live])))
    return max(best, 0.0)


def diff_solve(traj_u: Trajectory, traj_v: Trajectory, params: SystemParams,
               r: float | None = None) -> DifferenceTrajectory:
    """Integrate the difference system along two stored trajectories.

    w = (w, eta) steps as a one-row stack through the primal RK4 stages,
    driven at stage offsets 0, 1/2 and 1 by the stored states and their
    midpoints (linear interpolants: independent of the primal integrator
    at O(dt^2) cost).  The defect is the max over the stored times of
    ||w - (u - v)||_{H^r} + ||eta - (rho - theta)||_{H^{r-2}}.  A non-finite
    stage, difference or exact difference raises NonFiniteStateError.
    """
    if traj_u.grid != traj_v.grid:
        raise ValueError("trajectories live on different grids")
    if not (traj_u.is_dense() and traj_v.is_dense()):
        raise ValueError("diff_solve needs dense trajectories (store_stride = 1)")
    if len(traj_u.times) != len(traj_v.times) or np.max(
            np.abs(traj_u.times - traj_v.times)) > 1e-12:
        raise ValueError("trajectories must share their time grid")
    if r is None:
        r = traj_u.s - 1.0

    ops = _operators(traj_u.grid, params)
    uv = np.array([[[a.u.half, a.rho.half], [b.u.half, b.rho.half]]
                   for a, b in zip(traj_u.states, traj_v.states)])
    # the drivers' (U, V) pairs at the step's start, midpoint and end
    work, drive = _Workspace(ops.grid.n, 1), _Workspace(ops.grid.n, 6)
    pairs = drive.x.reshape(3, 2, 2, -1)
    w, defect = uv[:1, 0] - uv[:1, 1], 0.0
    for i, (a, b) in enumerate(itertools.pairwise(traj_u.states)):
        pairs[0], pairs[2] = uv[i], uv[i + 1]
        np.add(uv[i], uv[i + 1], out=pairs[1])
        pairs[1] *= 0.5
        drivers = ops.values(drive.x, drive).reshape(3, 2, 6, -1)
        w, bad = _rk4(lambda x, c, out: ops.diff_rhs(x, *drivers[int(2 * c)], work, out),
                      w, b.t - a.t, work)
        # a difference is non-finite when either side is: this sees w and u - v
        gap = w[0] - (uv[i + 1, 0] - uv[i + 1, 1])
        if bad[0] or not np.isfinite(gap).all():
            raise NonFiniteStateError(f"non-finite difference system at t = {b.t:g}")
        defect = max(defect, float(y_norms(gap, ops.grid, r)))
    return DifferenceTrajectory(defect)


# -- snapshot format -----------------------------------------------------

_MAGIC = b"CHS2"
_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")  # magic, version, N, L, t


def snapshot_bytes(state: State) -> bytes:
    """Flat binary state dump: header then u values then rho values."""
    grid = state.grid
    return (_HEADER.pack(_MAGIC, _VERSION, grid.n, grid.length, state.t)
            + np.ascontiguousarray(state.u.values, dtype="<f8").tobytes()
            + np.ascontiguousarray(state.rho.values, dtype="<f8").tobytes())


def load_snapshot(path) -> State:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, version, n, length, t = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        # the header's N is checked against the file before anything is read
        size, left = 2 * n * 8, os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            raise ValueError("truncated snapshot body" if left < size
                             else "trailing bytes after snapshot body")
        body = np.frombuffer(fh.read(size), dtype="<f8")
    if not np.isfinite(body).all():
        raise NonFiniteStateError("non-finite values in snapshot body")
    grid = Grid(n, length)
    return State(Field.from_values(grid, body[:n].copy()),
                 Field.from_values(grid, body[n:].copy()), t)
