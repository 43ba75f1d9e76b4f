"""Augmented-Lagrangian outer loop with a semismooth Newton inner solver.

The inequality constraints are relaxed into a piecewise-quadratic penalty;
each outer iteration minimizes

    phi(x) = 1/2 x'Qx + q'x
             + 1/2 || z - proj(z) ||^2_{Sigma_y},   z = Gx + Sigma_y^{-1} y
             + 1/2 || x - x_center ||^2_{Sigma_x^{-1}}

subject to Mx = b, by Newton steps on the generalized Hessian
Q + G' Sigma_y^J G + Sigma_x^{-1} (the proximal diagonal keeps it positive
definite even for semidefinite cost).  The first Newton step of each inner
solve is a unit step, which restores Mx = b exactly; later steps use an
exact line search over the piecewise-quadratic merit.  Outer iterations
update the inequality multipliers, grow penalties on rows whose violation
stalls, and move the proximal center.

Each iterate (x, lam) is evaluated once, by :func:`eval_grad_phi`: one
:class:`Evaluation` holds Gx, Qx, M'lam, Mx, the multiplier estimate
y+ = Sigma_y (z - proj(z)) with G'y+, and the residuals made of them.  The
inner loop evaluates at the top of each pass and ends on an evaluation; the
inner stopping test, the Newton step, the line search and the outer update
all read it.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import kkt, model
from .compact import NonPositivePivot
from .kkt import WorkerPool

SIGMA_MIN = 1e-9
SIGMA_MAX = 1e9

SOLVED = "solved"
MAX_ITER = "max_iter"
NUMERICAL_ERROR = "numerical_error"

PHASES = ("assembly", "stage_factor", "psi_factor", "substitution", "line_search")


class NonDescentDirection(Exception):
    """The directional derivative at step 0 is nonnegative."""


class _PivotEscalationFailed(Exception):
    pass


@dataclass
class SolverSettings:
    """Tolerances and algorithm knobs.

    ``variant`` picks the stage-factorization path: 'dense', 'diagonal', or
    'auto' (diagonal when the problem structure allows it).  ``worker_count``
    workers (an integer >= 1) share the stage-parallel phases; the
    OCPQP_WORKERS environment variable overrides it when set.
    ``lane_width`` is read by nothing: the benchmark still passes it, and it
    goes with the benchmark change of ROADMAP item 5.
    """

    eps_abs: float = 1e-8
    eps_rel: float = 0.0
    max_outer: int = 50
    max_inner: int = 100
    penalty_update_factor: float = 10.0
    penalty_trigger: float = 0.25
    initial_sigma: float | None = None
    proximal_weight: float = 1e-7
    worker_count: int = 1
    lane_width: int = 4
    variant: str = "auto"
    log_inner: bool = False
    max_pivot_escalations: int = 3

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not (0.0 <= self.eps_abs < np.inf and 0.0 <= self.eps_rel < np.inf):
            raise ValueError("eps_abs and eps_rel must be finite and nonnegative")
        if not (self.eps_abs > 0.0 or self.eps_rel > 0.0):
            raise ValueError("at least one of eps_abs, eps_rel must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("max_outer and max_inner must be at least 1")
        if self.max_pivot_escalations < 0:
            raise ValueError("max_pivot_escalations must be nonnegative")
        if not 1.0 < self.penalty_update_factor < np.inf:
            raise ValueError("penalty_update_factor must be finite and exceed 1")
        if not 0.0 < self.penalty_trigger < 1.0:
            raise ValueError("penalty_trigger must lie in (0, 1)")
        # both are clipped to [SIGMA_MIN, SIGMA_MAX] where they are used
        if self.initial_sigma is not None and not 0.0 <= self.initial_sigma < np.inf:
            raise ValueError("initial_sigma must be None or finite and nonnegative")
        if not 0.0 <= self.proximal_weight < np.inf:
            raise ValueError("proximal_weight must be finite and nonnegative")
        if not (isinstance(self.worker_count, numbers.Integral) and self.worker_count >= 1):
            raise ValueError("worker_count must be an integer >= 1")
        if self.lane_width not in (1, 2, 4, 8):
            raise ValueError("lane_width must be one of 1, 2, 4, 8")
        if self.variant not in ("dense", "diagonal", "auto"):
            raise ValueError("variant must be 'dense', 'diagonal' or 'auto'")


@dataclass
class AlmState:
    """Current iterates and weights of the outer loop.

    ``x`` is the running primal iterate; ``x_center`` snapshots it at the
    top of each outer iteration and serves as the proximal center.
    """

    x: object
    y: object
    lam: object
    sigma_y: object
    sigma_x_inv: object
    x_center: object
    outer_iter: int = 0
    inner_iter: int = 0


@dataclass
class InnerRecord:
    outer_iter: int
    inner_iter: int
    phi: float
    eq_norm: float
    step: float
    unit_step: bool


@dataclass
class SolveReport:
    status: str
    outer_iters: int
    inner_iters: int
    dual_res: float
    eq_res: float
    primal_res: float
    timings: dict
    solve_time: float
    inner_log: list = field(default_factory=list)
    blas_threads: int | None = None  # None: no bundled OpenBLAS was found
    # stage factorizations that refactored at least one stage, those of them
    # that refactored every stage, the stage slots refactored in all, and the
    # Psi block positions refactored in all (N + 1 for a full factorization)
    factorizations: int = 0
    full_factorizations: int = 0
    stages_factored: int = 0
    psi_blocks_factored: int = 0

    @property
    def solved(self):
        return self.status == SOLVED


@dataclass
class Evaluation:
    """Every product and residual the solver reads at one iterate (x, lam),
    formed once by :func:`eval_grad_phi`.

    ``gx`` is Gx, ``z`` the shifted value Gx + Sigma_y^{-1} y, ``proj`` the
    plain array proj(z) onto [bl, bu], ``y_plus`` the multiplier estimate
    Sigma_y (z - proj(z)) and ``gty`` G' y_plus.  ``qx`` is Qx, ``grad`` the
    inner-objective gradient, ``mtl`` M' lam and ``g`` = M' lam + grad the
    stationarity residual; ``mx`` is Mx and ``r`` = Mx - b.
    """

    gx: object
    z: object
    proj: object
    y_plus: object
    gty: object
    qx: object
    grad: object
    mtl: object
    g: object
    mx: object
    r: object


# The functions below work on the stage-major ``.data`` arrays.  Padded
# inequality rows (zero in G, infinite bounds, zero multiplier) and the
# terminal input slot (decoupled, zero gradient) hold exact zeros in z, G dx,
# dx, the gradient and x, so they add nothing to a sum over those arrays.


def eval_grad_phi(problem, state, b):
    """Evaluate the iterate (state.x, state.lam) against the equality
    right-hand side ``b``: the gradient of the inner objective

        grad = Qx + q + G' y_plus + Sigma_x^{-1} (x - x_center),
        y_plus = Sigma_y (z - proj(z)),

    and every other product and residual of :class:`Evaluation`.  The inner
    check, the Newton step, the line search and the outer update read it.
    """
    x = state.x
    gx = model.mul_G(problem, x)
    z = gx.copy()
    z.data += state.y.data / state.sigma_y.data
    proj = np.clip(z.data, problem.bl.data, problem.bu.data)
    y_plus = z.zeros_like()
    np.subtract(z.data, proj, out=y_plus.data)
    y_plus.data *= state.sigma_y.data
    gty = model.mul_GT(problem, y_plus)
    qx = model.mul_Q(problem, x)
    grad = gty.copy()
    grad.data += qx.data
    grad.data += problem.lin.data
    grad.data += state.sigma_x_inv.data * (x.data - state.x_center.data)
    mtl = model.mul_MT(problem, state.lam)
    g = mtl.copy()
    g.data += grad.data
    mx = model.mul_M(problem, x)
    r = mx.copy()
    r.data -= b.data
    return Evaluation(gx, z, proj, y_plus, gty, qx, grad, mtl, g, mx, r)


def eval_phi(problem, state, ev):
    """Inner objective value at state.x, read from its evaluation ``ev``."""
    dist = ev.z.data - ev.proj
    xd = state.x.data
    dc = xd - state.x_center.data
    return float(
        0.5 * (xd @ ev.qx.data) + xd @ problem.lin.data
        + 0.5 * (dist @ (state.sigma_y.data * dist))
        + 0.5 * (dc @ (state.sigma_x_inv.data * dc))
    )


def exact_line_search(problem, state, ev, dx):
    """Global minimizer of tau -> phi(x + tau dx) on a feasible direction,
    from the evaluation ``ev`` at x.

    The directional derivative is piecewise linear and nondecreasing; its
    breakpoints are the steps at which a shifted constraint value crosses
    one of its bounds.  Events are sorted once and scanned cumulatively.
    Raises NonDescentDirection when the slope at 0 is nonnegative.
    """
    dxd = dx.data
    c0 = float(dxd @ ev.grad.data)
    if c0 >= 0.0:
        raise NonDescentDirection(f"directional derivative {c0:.3e} at step 0")

    eta = float(dxd @ model.mul_Q(problem, dx).data + dxd @ (state.sigma_x_inv.data * dxd))
    delta = model.mul_G(problem, dx).data
    z0, blf, buf, sig = ev.z.data, problem.bl.data, problem.bu.data, state.sigma_y.data

    moving = delta != 0.0
    above = (z0 > buf) | ((z0 == buf) & (delta > 0.0))
    below = (z0 < blf) | ((z0 == blf) & (delta < 0.0))
    curv = sig * delta * delta
    s0 = eta + float(np.sum(curv[above | below]))

    taus, d_s, d_c = [], [], []

    def add_events(mask, bound, sign):
        idx = np.nonzero(mask)[0]
        if idx.size:
            taus.append((bound[idx] - z0[idx]) / delta[idx])
            d_s.append(sign * curv[idx])
            d_c.append(sign * sig[idx] * delta[idx] * (z0[idx] - bound[idx]))

    up, down = moving & (delta > 0.0), moving & (delta < 0.0)
    add_events(up & np.isfinite(buf) & (z0 < buf), buf, +1.0)   # enters above
    add_events(up & (z0 < blf), blf, -1.0)                      # leaves below
    add_events(down & np.isfinite(blf) & (z0 > blf), blf, +1.0) # enters below
    add_events(down & (z0 > buf), buf, -1.0)                    # leaves above

    if taus:
        taus = np.concatenate(taus)
        d_s = np.concatenate(d_s)
        d_c = np.concatenate(d_c)
        order = np.argsort(taus, kind="stable")
        taus, d_s, d_c = taus[order], d_s[order], d_c[order]
        s_pref = s0 + np.concatenate([[0.0], np.cumsum(d_s)[:-1]])
        c_pref = c0 + np.concatenate([[0.0], np.cumsum(d_c)[:-1]])
        vals = c_pref + s_pref * taus
        hit = np.nonzero(vals >= 0.0)[0]
        if hit.size:
            k = hit[0]
            return float(-c_pref[k] / s_pref[k])
        s_end = s0 + float(np.sum(d_s))
        c_end = c0 + float(np.sum(d_c))
        return float(-c_end / s_end)
    return float(-c0 / s0)


def initial_penalty(problem, x):
    """Scale-matched uniform initial penalty, clamped to [1e-4, 1e4]."""
    xd = x.data
    cost = abs(0.5 * float(xd @ model.mul_Q(problem, x).data) + float(xd @ problem.lin.data))
    gx = model.mul_G(problem, x).data
    gnorm = 0.5 * float(gx @ gx)
    return float(np.clip(20.0 * max(1.0, cost) / max(1.0, gnorm), 1e-4, 1e4))


# -- BLAS thread budget ------------------------------------------------------
#
# The stage kernels work on blocks far too small for a threaded BLAS to pay
# off; stage parallelism comes from the worker pool instead.  Every solve
# therefore pins the OpenBLAS builds bundled with numpy and scipy to one
# thread and restores the previous counts when the last running solve ends.

_blas_lock = threading.Lock()
_blas_libs = None  # [(get, set)] thread-count entry points, found on first use
_blas_depth = 0
_blas_saved = []


def _find_openblas():
    """Thread-count entry points of the OpenBLAS libraries bundled in the
    ``numpy.libs`` and ``scipy.libs`` wheel directories."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    found.append((get, put))
                    break
    return found


def _openblas():
    global _blas_libs
    if _blas_libs is None:
        _blas_libs = _find_openblas()
    return _blas_libs


def blas_thread_counts():
    """Current thread counts of the bundled OpenBLAS libraries (empty when
    none was found)."""
    with _blas_lock:
        return [get() for get, _ in _openblas()]


@contextmanager
def single_threaded_blas():
    """Pin the bundled OpenBLAS libraries to one thread for the block.

    Nested and concurrent blocks share one pin: the first to enter saves
    the counts, the last to leave restores them.  Yields the largest count
    in effect inside the block, or None when no library was found.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        libs = _openblas()
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in libs]
            for _, put in libs:
                put(1)
        _blas_depth += 1
    try:
        yield max(blas_thread_counts(), default=None)
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, put), count in zip(libs, _blas_saved):
                    put(count)


class Solver:
    """One problem, one set of workspaces, repeated solves.

    ``setup`` work (validation, workspace allocation) happens in the
    constructor; :meth:`solve` reuses everything.  ``update_bounds`` /
    ``update_gradient`` / ``update_initial_state`` support
    model-predictive-control loops where only vectors change between solves.
    The solver shares the caller's matrix stacks and keeps its own copies of
    the vectors these methods write, so the caller's problem never changes.
    """

    def __init__(self, problem, settings=None):
        self.settings = settings or SolverSettings()
        report = model.validate(problem)
        if not report.ok:
            raise ValueError("invalid problem: " + "; ".join(report.issues))
        problem = model.OcpProblem(
            problem.dims, problem.cost, problem.lin.copy(), problem.dyn,
            problem.affine, problem.con, problem.bl.copy(), problem.bu.copy(),
            problem.x_init,
        )
        self.problem = problem
        self.variant = self.settings.variant
        if self.variant == "auto":
            self.variant = "diagonal" if problem.is_diagonal() else "dense"
        env_workers = os.environ.get("OCPQP_WORKERS")
        self.worker_count = self.settings.worker_count
        if env_workers:
            try:
                self.worker_count = int(env_workers)
            except ValueError:
                self.worker_count = 0
            if self.worker_count < 1:
                raise ValueError(f"OCPQP_WORKERS must be an integer >= 1, got {env_workers!r}")
        # raises StructureMismatch for the diagonal variant of a non-diagonal problem
        self.work = kkt.StageFactorization.allocate(problem, self.variant)
        self.pool = WorkerPool(self.worker_count)
        self._b = problem.b_dualeq()

    def close(self):
        self.pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- data updates for repeated solves -----------------------------------

    def _staged(self, names, families):
        """Copies of the stacks ``names`` of the problem with ``families``
        (``from_stages`` names) written into them through the layout table
        ``model._views``; a terminal family given as None is left as it is."""
        p = self.problem
        stacks = {name: getattr(p, name).stack for name in model._stack_shapes(p.dims)}
        copies = [stacks[name].copy() for name in names]
        stacks.update(zip(names, copies))
        views = model._views(stacks, p.dims)
        for name, value in families.items():
            if value is not None or not name.endswith("_N"):
                np.copyto(views[name], np.asarray(value, dtype=np.float64))
        return copies

    def update_bounds(self, bl, bu, bl_N=None, bu_N=None):
        """Replace the stage bounds (naive (N, n_y) arrays, optionally the
        terminal pair); the constraint matrices are unchanged."""
        lo, hi = self._staged(("bl", "bu"), dict(bl=bl, bu=bu, bl_N=bl_N, bu_N=bu_N))
        # NaN fails lo <= hi; -inf below and +inf above are no bound
        if not (lo <= hi).all() or np.isposinf(lo).any() or np.isneginf(hi).any():
            raise ValueError("updated bounds NaN, crossing, +inf below or -inf above")
        np.copyto(self.problem.bl.stack, lo)
        np.copyto(self.problem.bu.stack, hi)

    def update_gradient(self, q, r, q_N=None):
        """Replace the linear cost vectors (naive (N, n_x), (N, n_u))."""
        (lin,) = self._staged(("lin",), dict(q=q, r=r, q_N=q_N))
        if not np.isfinite(lin).all():
            raise ValueError("non-finite entries in updated gradient")
        np.copyto(self.problem.lin.stack, lin)

    def update_initial_state(self, x_init):
        x_init = np.asarray(x_init, dtype=np.float64)
        if x_init.shape != (self.problem.dims.n_x,) or not np.isfinite(x_init).all():
            raise ValueError("x_init must be a finite vector of length n_x")
        self.problem.x_init[:] = x_init
        self._b = self.problem.b_dualeq()

    # -- solve ---------------------------------------------------------------

    def _init_state(self, warm_start):
        p = self.problem
        if warm_start is not None:
            x0, y0, lam0 = warm_start
            x = p.primal_from_flat(x0)
            y = p.dualineq_from_flat(y0)
            lam = p.dualeq_from_flat(lam0)
            for name, v in (("x", x), ("y", y), ("lam", lam)):
                if not np.isfinite(v.data).all():
                    raise ValueError(f"non-finite entries in warm start {name}")
        else:
            x, y, lam = p.primal_zeros(), p.dualineq_zeros(), p.dualeq_zeros()
        sigma0 = self.settings.initial_sigma
        if sigma0 is None:
            sigma0 = initial_penalty(p, x)
        sigma_y = p.dualineq_zeros()
        sigma_y.data[:] = float(np.clip(sigma0, SIGMA_MIN, SIGMA_MAX))
        sigma_x_inv = p.primal_zeros()
        sigma_x_inv.data[:] = float(
            np.clip(self.settings.proximal_weight, SIGMA_MIN, SIGMA_MAX)
        )
        center = x.copy()
        return AlmState(x, y, lam, sigma_y, sigma_x_inv, center)

    def _factor(self, state, weights, prox_scale, timings, counts):
        """Bring the factorization up to date with the current active set.

        Only the stages whose H_j changed since the last completed
        factorization are reassembled and refactored, and the band factor of
        Psi restarts at the last of them; when none did, the factorization
        is reused as it stands.  Pivot failures escalate the proximal
        diagonal (at most the configured count), and every stage is
        refactored after one.  ``counts`` tallies the work for the report."""
        w = self.work
        scale = prox_scale
        for attempt in range(self.settings.max_pivot_escalations + 1):
            stages = w.changed_stages(weights, scale)
            if not stages.size:
                return scale
            w.invalidate()
            counts["factorizations"] += 1
            counts["full_factorizations"] += stages.size == w.H.nstages
            counts["stages_factored"] += stages.size
            counts["psi_blocks_factored"] += kkt.psi_top(w, stages) + 1
            sx = state.sigma_x_inv
            if scale != 1.0:
                sx = sx.copy()
                sx.data *= scale
            t0 = time.perf_counter()
            self.pool.run(functools.partial(kkt.assemble_H, w, weights, sx), stages)
            t1 = time.perf_counter()
            timings["assembly"] += t1 - t0
            try:
                kkt.factor_stages(w, self.pool, stages)
                t2 = time.perf_counter()
                timings["stage_factor"] += t2 - t1
                kkt.factor_psi(w, stages)
                timings["psi_factor"] += time.perf_counter() - t2
                w.record(weights, scale)
                return scale
            except NonPositivePivot:
                timings["stage_factor"] += time.perf_counter() - t1
                scale = (scale if scale > 1.0 else 1.0) * 10.0
        raise _PivotEscalationFailed()

    def _inner_solve(self, state, inner_tol, timings, log, counts):
        """Newton iterations on the current inner problem; returns the
        evaluation (see :func:`eval_grad_phi`) of the final iterate.

        Each pass evaluates its iterate once and stops before stepping when
        the tolerance is met, the direction is not a descent direction, or
        ``max_inner`` steps have been taken.  The first step is a unit step;
        later steps use the exact line search.  Only the stages whose active
        penalties changed are refactored (see :meth:`_factor`).
        """
        p, settings = self.problem, self.settings
        prox_scale = 1.0
        for it in range(settings.max_inner + 1):
            eff_state = state
            if prox_scale != 1.0:
                sx_eff = state.sigma_x_inv.copy()
                sx_eff.data *= prox_scale
                eff_state = replace(state, sigma_x_inv=sx_eff)
            ev = eval_grad_phi(p, eff_state, self._b)
            eq_norm = float(np.max(np.abs(ev.r.data)))
            if log is not None and it:  # the step that led here
                phi = eval_phi(p, eff_state, ev)
                log.append(InnerRecord(state.outer_iter, it, phi, eq_norm, tau, it == 1))
            if it == settings.max_inner or (
                np.max(np.abs(ev.g.data)) <= inner_tol and eq_norm <= inner_tol
            ):
                return ev

            weights = kkt.weights_from_shifted(p, state.sigma_y, ev.z)
            prox_scale = self._factor(state, weights, prox_scale, timings, counts)

            t0 = time.perf_counter()
            dx, dlam = kkt.solve_newton(self.work, ev.g, ev.r)
            timings["substitution"] += time.perf_counter() - t0

            if it == 0:
                tau = 1.0
            else:
                t0 = time.perf_counter()
                try:
                    tau = exact_line_search(p, eff_state, ev, dx)
                except NonDescentDirection:
                    return ev
                finally:
                    timings["line_search"] += time.perf_counter() - t0
            state.x.data += tau * dx.data
            state.lam.data += dlam.data
            state.inner_iter += 1

    def solve(self, warm_start=None):
        """Run the outer loop; returns (x, y, lam, report) with flat arrays.

        BLAS runs single-threaded for the duration of the call (see
        :func:`single_threaded_blas`); ``report.blas_threads`` records it.
        """
        with single_threaded_blas() as threads:
            x, y, lam, report = self._solve(warm_start)
        report.blas_threads = threads
        return x, y, lam, report

    def _solve(self, warm_start):
        p, settings = self.problem, self.settings
        state = self._init_state(warm_start)
        timings = {k: 0.0 for k in PHASES}
        counts = dict.fromkeys(
            ("factorizations", "full_factorizations", "stages_factored", "psi_blocks_factored"), 0
        )
        self.work.invalidate()  # the first factorization of a solve is full
        log = [] if settings.log_inner else None
        inner_tol = 1.0
        status = MAX_ITER
        dual_res = eq_res = primal_res = float("inf")
        prev_viol = None
        t_start = time.perf_counter()
        for k in range(settings.max_outer):
            state.outer_iter = k + 1
            np.copyto(state.x_center.data, state.x.data)
            try:
                ev = self._inner_solve(state, inner_tol, timings, log, counts)
            except _PivotEscalationFailed:
                status = NUMERICAL_ERROR
                break

            qx, mtl, gty, gx, mx = (v.data for v in (ev.qx, ev.mtl, ev.gty, ev.gx, ev.mx))
            dual_vec = qx + p.lin.data
            dual_vec += mtl
            dual_vec += gty
            dual_res = float(np.max(np.abs(dual_vec)))
            eq_res = float(np.max(np.abs(ev.r.data)))
            viol = np.maximum(np.maximum(p.bl.data - gx, gx - p.bu.data), 0.0)
            primal_res = float(np.max(viol)) if viol.size else 0.0
            # termination drives |Gx - proj(z)| per row: on violated rows this
            # is the bound violation, on rows held by a positive multiplier it
            # is the complementarity slack (y_plus is supported on proj(z)'s
            # active faces, so passing this makes (x, y_plus) a KKT certificate)
            comp = np.abs(gx - ev.proj)
            primal_term = float(np.max(comp)) if comp.size else 0.0

            # eps_rel scales each test by the largest term it is made of
            if settings.eps_rel > 0.0:
                bl, bu = p.bl.data, p.bu.data
                dscale = max(
                    float(np.max(np.abs(v), initial=0.0)) for v in (qx, p.lin.data, mtl, gty)
                )
                pscale = float(np.max(np.abs(np.concatenate(
                    (gx, bl[np.isfinite(bl)], bu[np.isfinite(bu)])
                )), initial=0.0))
                escale = max(float(np.max(np.abs(mx))), float(np.max(np.abs(self._b.data))))
            else:
                dscale = pscale = escale = 0.0

            state.y = ev.y_plus
            if (
                dual_res <= settings.eps_abs + settings.eps_rel * dscale
                and primal_term <= settings.eps_abs + settings.eps_rel * pscale
                and eq_res <= settings.eps_abs + settings.eps_rel * escale
            ):
                status = SOLVED
                break

            if prev_viol is not None:
                grow = comp > settings.penalty_trigger * prev_viol
                if grow.any():
                    state.sigma_y.data[grow] = np.minimum(
                        state.sigma_y.data[grow] * settings.penalty_update_factor,
                        SIGMA_MAX,
                    )
            prev_viol = comp
            inner_tol = max(0.1 * inner_tol, 0.1 * settings.eps_abs)

        solve_time = time.perf_counter() - t_start
        report = SolveReport(
            status=status,
            outer_iters=state.outer_iter,
            inner_iters=state.inner_iter,
            dual_res=dual_res,
            eq_res=eq_res,
            primal_res=primal_res,
            timings=timings,
            solve_time=solve_time,
            inner_log=log or [],
            **counts,
        )
        return (
            p.primal_to_flat(state.x),
            p.dualineq_to_flat(state.y),
            p.dualeq_to_flat(state.lam),
            report,
        )


def solve(problem, settings=None, warm_start=None):
    """One-shot convenience wrapper around :class:`Solver`."""
    solver = Solver(problem, settings)
    try:
        return solver.solve(warm_start)
    finally:
        solver.close()
