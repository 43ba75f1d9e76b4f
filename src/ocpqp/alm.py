"""Augmented-Lagrangian outer loop with a semismooth Newton inner solver.

The inequality constraints are relaxed into a piecewise-quadratic penalty;
each outer iteration minimizes

    phi(x) = 1/2 x'Qx + q'x
             + 1/2 || z - proj(z) ||^2_{Sigma_y},   z = Gx + Sigma_y^{-1} y
             + 1/2 sigma_x_inv || x - x_center ||^2

subject to Mx = b, by Newton steps on the generalized Hessian
Q + G' Sigma_y^J G + sigma_x_inv I (one proximal weight, as in QPALM, keeps
it positive definite even for semidefinite cost).  The first Newton step of
each inner solve is a unit step, which restores Mx = b exactly; later steps
use an exact line search over the piecewise-quadratic merit.  Outer
iterations update the inequality multipliers, grow penalties on rows whose
violation stalls above the primal tolerance, and move the proximal center.

The products of the iterate are formed once per solve and carried along
the steps, as QPALM carries Ax and Qx through its line search.  One
:class:`Evaluation` holds them: Gx, Qx, M'lam and r = Mx - b, which
:func:`eval_products` forms from scratch and each step moves along
(gx += tau G dx, qx += tau Q dx, mtl += M'dlam, r += tau M dx, from the
products the step forms of itself).  What depends also on y, Sigma_y or the
proximal center (z, proj(z), the multiplier estimate y+ with G'y+, the
gradient and the stationarity residual) :func:`eval_grad_phi` completes from
the carried products at the top of each pass, with one G' product.  The
inner stopping test, the Newton step, the line search and the outer update
all read the evaluation.  Termination is decided on fresh products only:
when the outer test passes on carried values, the iterate is evaluated from
scratch and tested again, and the solve continues from that evaluation when
it fails.  The last outer iteration is evaluated from scratch as well, so a
``max_iter`` report and its y also come from fresh products.  The solver
owns the evaluation and the step's vectors, and every product and solve of
an iteration writes into them.
"""

from __future__ import annotations

import ctypes
import numbers
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import kkt, model
from .compact import NonPositivePivot
from .kkt import WorkerPool

SIGMA_MIN = 1e-9
SIGMA_MAX = 1e9
COLD_PENALTY = 20.0  # the initial penalty of a cold start (see initial_penalty)
# the outer loop's fixed numbers: after an outer iteration that does not
# end the solve, a row's penalty is multiplied by PENALTY_GROWTH when its
# |Gx - proj(z)| exceeds both PENALTY_TRIGGER times its value one outer
# iteration earlier and the primal tolerance of the stopping test
PENALTY_GROWTH = 10.0
PENALTY_TRIGGER = 0.25
# sigma_x_inv at the start of each inner solve; each pivot failure multiplies
# it by 10 for the rest of that solve and retries, MAX_PIVOT_ESCALATIONS times
# at most
PROXIMAL_WEIGHT = 1e-7
MAX_PIVOT_ESCALATIONS = 3

SOLVED = "solved"
MAX_ITER = "max_iter"
NUMERICAL_ERROR = "numerical_error"

PHASES = ("stage_factor", "psi_factor", "substitution", "line_search")


class NonDescentDirection(Exception):
    """The directional derivative at step 0 is nonnegative."""


class _PivotEscalationFailed(Exception):
    pass


@dataclass
class SolverSettings:
    """Tolerances, iteration limits and the parallel set-up.

    ``eps_abs`` and ``eps_rel`` are the tolerances of the stopping test.
    ``variant`` picks the stage-factorization path: 'dense', 'diagonal', or
    'auto' (diagonal when the problem structure allows it).  ``worker_count``
    workers (an integer >= 1) share the stage-parallel phases.  The
    iteration limits ``max_outer`` and ``max_inner`` (>= 1) are integers as
    well, and no count may be a bool.
    ``lane_width`` is read by nothing: the benchmark still passes it, and it
    goes with the benchmark change of ROADMAP item 5.
    ``initial_sigma`` is the starting penalty of every row; None takes
    ``COLD_PENALTY`` (20) on a cold start and :func:`initial_penalty`, the
    cost over the squared bound violation of the warm start, on a warm one.
    ``log_inner`` records one :class:`InnerRecord` per inner step.  The
    penalty growth, the proximal weight and the pivot escalations are the
    module constants ``PENALTY_GROWTH``, ``PENALTY_TRIGGER``,
    ``PROXIMAL_WEIGHT`` and ``MAX_PIVOT_ESCALATIONS``.
    """

    eps_abs: float = 1e-8
    eps_rel: float = 0.0
    max_outer: int = 50
    max_inner: int = 100
    initial_sigma: float | None = None
    worker_count: int = 1
    lane_width: int = 4
    variant: str = "auto"
    log_inner: bool = False

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not (0.0 <= self.eps_abs < np.inf and 0.0 <= self.eps_rel < np.inf):
            raise ValueError("eps_abs and eps_rel must be finite and nonnegative")
        if not (self.eps_abs > 0.0 or self.eps_rel > 0.0):
            raise ValueError("at least one of eps_abs, eps_rel must be positive")
        for name in ("max_outer", "max_inner", "worker_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # clipped to [SIGMA_MIN, SIGMA_MAX] by Solver
        if self.initial_sigma is not None and not 0.0 <= self.initial_sigma < np.inf:
            raise ValueError("initial_sigma must be None or finite and nonnegative")
        if self.lane_width not in (1, 2, 4, 8):
            raise ValueError("lane_width must be one of 1, 2, 4, 8")
        if self.variant not in ("dense", "diagonal", "auto"):
            raise ValueError("variant must be 'dense', 'diagonal' or 'auto'")


@dataclass
class AlmState:
    """Current iterates and weights of the outer loop.

    ``x`` is the running primal iterate; ``x_center`` snapshots it at the
    top of each outer iteration and serves as the proximal center, weighted
    by the float ``sigma_x_inv``.
    """

    x: object
    y: object
    lam: object
    sigma_y: object
    sigma_x_inv: float
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
    """Everything a solve reports, under the names ``ocpqp solve --report``
    writes.  ``Solver`` creates it when the solve starts and the loop writes
    into it; the defaults are those of a solve that has not yet stopped.
    ``timings`` holds the seconds spent in each phase of ``PHASES``, and
    ``inner_log`` one :class:`InnerRecord` per inner step when
    ``SolverSettings.log_inner`` is set."""

    status: str = MAX_ITER
    outer_iters: int = 0
    inner_iters: int = 0
    dual_res: float = float("inf")
    eq_res: float = float("inf")
    primal_res: float = float("inf")
    timings: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    solve_time: float = 0.0
    inner_log: list = field(default_factory=list)
    blas_threads: int | None = None  # None: no bundled OpenBLAS was found
    # stage factorizations that refactored at least one stage, those of them
    # that refactored every stage, the stage slots refactored in all, and the
    # Psi block positions refactored in all (N + 1 for a full factorization;
    # none for an attempt whose stage factorization failed)
    factorizations: int = 0
    full_factorizations: int = 0
    stages_factored: int = 0
    psi_blocks_factored: int = 0
    # the block order of the Psi band over the solve: "reversed" (stage N
    # first) or "natural" (stage 0 first), see kkt.StageFactorization.reorient
    psi_order: str = "reversed"
    # inner solves that stopped short of their tolerance: on a direction that
    # does not descend, or after max_inner steps; and the largest row penalty
    # when the solve stopped (0 for a problem with no inequality row)
    nondescent_breaks: int = 0
    max_inner_hits: int = 0
    max_penalty: float = 0.0

    @property
    def solved(self):
        return self.status == SOLVED


@dataclass
class Evaluation:
    """Every product and residual the solver reads at one iterate (x, lam).

    The products of the iterate, which :func:`eval_products` forms and the
    solver carries along its steps: ``gx`` is Gx, ``qx`` Qx, ``mtl`` M' lam
    and ``r`` = Mx - b.  The rest depends also on y, Sigma_y and the
    proximal center, and :func:`eval_grad_phi` completes it from the
    products: ``z`` is the shifted value Gx + Sigma_y^{-1} y, ``proj`` the
    plain array proj(z) onto [bl, bu], ``y_plus`` the multiplier estimate
    Sigma_y (z - proj(z)), ``gty`` G' y_plus, ``grad`` the inner-objective
    gradient and ``g`` = M' lam + grad the stationarity residual.
    """

    gx: object
    qx: object
    mtl: object
    r: object
    z: object
    proj: np.ndarray
    y_plus: object
    gty: object
    grad: object
    g: object

    @classmethod
    def zeros(cls, problem):
        p = problem
        return cls(
            gx=p.zeros("dualineq"), qx=p.zeros("primal"), mtl=p.zeros("primal"),
            r=p.zeros("dualeq"), z=p.zeros("dualineq"), proj=np.zeros_like(p.bl.data),
            y_plus=p.zeros("dualineq"), gty=p.zeros("primal"), grad=p.zeros("primal"),
            g=p.zeros("primal"),
        )


@dataclass
class Step:
    """The vectors of one Newton step: ``dx``, ``dlam`` and ``mtdl`` =
    M' dlam, which :func:`kkt.solve_newton` writes, and the step's products
    ``qdx`` = Q dx, ``gdx`` = G dx and ``mdx`` = M dx, which the line search
    reads and the carried products move along."""

    dx: object
    dlam: object
    mtdl: object
    qdx: object
    gdx: object
    mdx: object

    @classmethod
    def zeros(cls, problem):
        p = problem
        return cls(
            dx=p.zeros("primal"), dlam=p.zeros("dualeq"), mtdl=p.zeros("primal"),
            qdx=p.zeros("primal"), gdx=p.zeros("dualineq"), mdx=p.zeros("dualeq"),
        )


# The functions below work on the stage-major ``.data`` arrays.  Padded
# inequality rows (zero in G, infinite bounds, zero multiplier) and the
# terminal input slot (decoupled, zero gradient) hold exact zeros in z, G dx,
# dx, the gradient and x, so they add nothing to a sum over those arrays.


def eval_products(problem, state, b, ev):
    """Form the products of the iterate (state.x, state.lam) from scratch
    into the :class:`Evaluation` ``ev``: Gx, Qx, M' lam and r = Mx - b for
    the equality right-hand side ``b``.  Returns ``ev``, for
    :func:`eval_grad_phi` to complete."""
    x = state.x
    model.mul_G(problem, x, out=ev.gx)
    model.mul_Q(problem, x, out=ev.qx)
    model.mul_MT(problem, state.lam, out=ev.mtl)
    model.mul_M(problem, x, out=ev.r)
    ev.r.data -= b.data
    return ev


def eval_grad_phi(problem, state, ev):
    """Complete the evaluation ``ev`` of the iterate from the products it
    holds (formed by :func:`eval_products` or carried along the steps): the
    gradient of the inner objective

        grad = Qx + q + G' y_plus + sigma_x_inv (x - x_center),
        y_plus = Sigma_y (z - proj(z)),   z = Gx + Sigma_y^{-1} y,

    and the rest of :class:`Evaluation`, for the current y, Sigma_y and
    center of ``state``.  G' y_plus is the one product it forms.  The inner
    check, the Newton step, the line search and the outer update read it.
    Returns ``ev``.
    """
    z, proj, y_plus, grad, g = ev.z.data, ev.proj, ev.y_plus.data, ev.grad.data, ev.g.data
    np.divide(state.y.data, state.sigma_y.data, out=z)
    z += ev.gx.data
    np.minimum(np.maximum(z, problem.bl.data, out=proj), problem.bu.data, out=proj)
    np.subtract(z, proj, out=y_plus)
    y_plus *= state.sigma_y.data
    model.mul_GT(problem, ev.y_plus, out=ev.gty)
    np.add(ev.gty.data, ev.qx.data, out=grad)
    grad += problem.lin.data
    np.subtract(state.x.data, state.x_center.data, out=g)  # scratch until g is formed
    g *= state.sigma_x_inv
    grad += g
    np.add(ev.mtl.data, grad, out=g)
    return ev


def eval_phi(problem, state, ev):
    """Inner objective value at state.x, read from its evaluation ``ev``."""
    dist = ev.z.data - ev.proj
    xd = state.x.data
    dc = xd - state.x_center.data
    return float(
        0.5 * (xd @ ev.qx.data) + xd @ problem.lin.data
        + 0.5 * (dist @ (state.sigma_y.data * dist))
        + 0.5 * (dc @ (state.sigma_x_inv * dc))
    )


def exact_line_search(problem, state, ev, dx, qdx, gdx):
    """Global minimizer of tau -> phi(x + tau dx) on a feasible direction,
    from the evaluation ``ev`` at x and the step's products ``qdx`` = Q dx
    and ``gdx`` = G dx.

    The directional derivative phi'(tau) is continuous, piecewise linear and
    nondecreasing; its breakpoints are the steps at which a shifted
    constraint value crosses one of its bounds.  phi'(1), a sum over the
    breakpoints below 1, tells on which side of the unit step the minimizer
    lies.  When phi'(1) >= 0 only the breakpoints below 1 are kept;
    otherwise those below 1 are added into the starting slope and
    intercept, and only those at or above 1 are kept.  The kept breakpoints
    are sorted and scanned, unless the minimizer lies before the first of
    them.  Raises NonDescentDirection when the slope at 0 is nonnegative.
    """
    dxd = dx.data
    c0 = float(dxd @ ev.grad.data)
    if c0 >= 0.0:
        raise NonDescentDirection(f"directional derivative {c0:.3e} at step 0")

    eta = float(dxd @ qdx.data + dxd @ (state.sigma_x_inv * dxd))
    delta = gdx.data
    z0, blf, buf, sig = ev.z.data, problem.bl.data, problem.bu.data, state.sigma_y.data

    curv = sig * delta * delta
    above = (z0 > buf) | ((z0 == buf) & (delta > 0.0))
    below = (z0 < blf) | ((z0 == blf) & (delta < 0.0))
    s0 = eta + float(np.sum(curv[above | below]))

    # a row's breakpoint at a bound is the positive finite step at which z
    # reaches it: moving out of [bl, bu] the row's curvature d_s joins the
    # slope of phi', moving back in it leaves, and as phi' is continuous the
    # intercept changes by -d_s tau there
    with np.errstate(divide="ignore", invalid="ignore"):
        t_up = (buf - z0) / delta
        t_lo = (blf - z0) / delta
    at_up = (t_up > 0.0) & (t_up < np.inf)
    at_lo = (t_lo > 0.0) & (t_lo < np.inf)
    signed = np.copysign(curv, delta)
    taus = np.concatenate((t_up[at_up], t_lo[at_lo]))
    d_s = np.concatenate((signed[at_up], -signed[at_lo]))

    early = taus < 1.0
    s_early = float(np.sum(d_s[early]))
    c_early = -float(d_s[early] @ taus[early])
    if c0 + c_early + s0 + s_early >= 0.0:  # phi'(1) >= 0: the minimizer is at most 1
        keep = early
    else:
        keep = ~early
        c0, s0 = c0 + c_early, s0 + s_early
    taus, d_s = taus[keep], d_s[keep]
    if not taus.size or c0 + s0 * float(np.min(taus)) >= 0.0:  # before the first breakpoint
        return float(-c0 / s0)
    order = np.argsort(taus)  # ties add no change of slope at their step
    taus, d_s = taus[order], d_s[order]
    # slope and intercept of phi' on each piece: before each breakpoint, then after the last
    s_pref = s0 + np.concatenate(([0.0], np.cumsum(d_s)))
    c_pref = c0 - np.concatenate(([0.0], np.cumsum(d_s * taus)))
    hit = np.flatnonzero(c_pref[:-1] + s_pref[:-1] * taus >= 0.0)
    k = hit[0] if hit.size else taus.size
    return float(-c_pref[k] / s_pref[k])


def initial_penalty(problem, x, ev):
    """Uniform initial penalty of a warm start at x, as QPALM chooses it:

        20 max(1, |1/2 x'Qx + q'x|) / max(1, 1/2 ||Gx - proj(Gx)||^2),

    clamped to [1e-4, 1e4], from the products ``ev.qx`` = Qx and ``ev.gx``
    = Gx of x (see :func:`eval_products`); proj clips onto [bl, bu].  A warm
    start close to feasibility thus starts with a large penalty.  A cold
    start (x = 0) takes ``COLD_PENALTY``, the rule's numerator at x = 0:
    where 0 violates the bounds, the divisor would lower it and cost the
    cold solve outer iterations."""
    xd = x.data
    cost = abs(0.5 * float(xd @ ev.qx.data) + float(xd @ problem.lin.data))
    gx = ev.gx.data
    viol = gx - np.clip(gx, problem.bl.data, problem.bu.data)
    vnorm = 0.5 * float(viol @ viol)
    return float(np.clip(COLD_PENALTY * max(1.0, cost) / max(1.0, vnorm), 1e-4, 1e4))


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
        variant = self.settings.variant
        if variant == "auto":
            variant = "diagonal" if problem.is_diagonal() else "dense"
        # raises StructureMismatch for the diagonal variant of a non-diagonal problem
        self.work = kkt.StageFactorization.allocate(problem, variant)
        self.pool = WorkerPool(self.settings.worker_count)
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
                np.copyto(views[name], model._as_family(name, value, views[name].shape))
        return copies

    def update_bounds(self, bl, bu, bl_N=None, bu_N=None):
        """Replace the stage bounds (in the shapes ``from_stages`` takes, the
        terminal pair optional); the constraint matrices are unchanged."""
        lo, hi = self._staged(("bl", "bu"), dict(bl=bl, bu=bu, bl_N=bl_N, bu_N=bu_N))
        # NaN fails lo <= hi; -inf below and +inf above are no bound
        if not (lo <= hi).all() or np.isposinf(lo).any() or np.isneginf(hi).any():
            raise ValueError("updated bounds NaN, crossing, +inf below or -inf above")
        np.copyto(self.problem.bl.stack, lo)
        np.copyto(self.problem.bu.stack, hi)

    def update_gradient(self, q, r, q_N=None):
        """Replace the linear cost vectors (in the shapes ``from_stages`` takes)."""
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

    def _init_state(self, warm_start, ev):
        """The starting state, with the products of its iterate formed
        fresh into the evaluation ``ev``; the initial penalty reads them."""
        p = self.problem
        if warm_start is not None:
            x0, y0, lam0 = warm_start
            x = p.from_flat("primal", x0)
            y = p.from_flat("dualineq", y0)
            lam = p.from_flat("dualeq", lam0)
            for name, v in (("x", x), ("y", y), ("lam", lam)):
                if not np.isfinite(v.data).all():
                    raise ValueError(f"non-finite entries in warm start {name}")
        else:
            x, y, lam = p.zeros("primal"), p.zeros("dualineq"), p.zeros("dualeq")
        state = AlmState(x, y, lam, p.zeros("dualineq"), PROXIMAL_WEIGHT, x.copy())
        eval_products(p, state, self._b, ev)
        sigma0 = self.settings.initial_sigma
        if sigma0 is None:
            sigma0 = COLD_PENALTY if warm_start is None else initial_penalty(p, x, ev)
        state.sigma_y.data[:] = float(np.clip(sigma0, SIGMA_MIN, SIGMA_MAX))
        return state

    def _factor(self, state, weights, report):
        """Bring the factorization up to date with the current active set.

        Only the stages whose H_j changed since the last completed
        factorization are reassembled and refactored, and the band factor of
        Psi restarts at the last of them, or at the first in natural block
        order; when none did, the factorization is reused as it stands.
        Pivot failures multiply the proximal weight ``state.sigma_x_inv`` by
        10 (``MAX_PIVOT_ESCALATIONS`` retries at most), and every stage is
        refactored after one.  The work and its time are tallied in
        ``report``, and the Psi blocks each band order would refactor in
        the workspace (see :meth:`kkt.StageFactorization.tally`)."""
        w = self.work
        for attempt in range(MAX_PIVOT_ESCALATIONS + 1):
            stages = w.changed_stages(weights, state.sigma_x_inv)
            if not stages.size:
                return
            # a failed attempt rewrites stages, whatever the recorded weight
            w.invalidate()
            report.factorizations += 1
            report.full_factorizations += stages.size == len(w.p_lm)
            report.stages_factored += stages.size
            w.tally(stages)
            t0 = time.perf_counter()
            try:
                kkt.factor_stages(w, self.pool, weights, state.sigma_x_inv, stages)
                # blocks a failed stage factorization never reached are not counted
                report.psi_blocks_factored += len(w.p_lm) - kkt.psi_restart(w, stages)
                t1 = time.perf_counter()
                kkt.factor_psi(w, stages)
            except NonPositivePivot:
                # the whole failed attempt is stage work
                report.timings["stage_factor"] += time.perf_counter() - t0
                state.sigma_x_inv *= 10.0
                continue
            report.timings["stage_factor"] += t1 - t0
            report.timings["psi_factor"] += time.perf_counter() - t1
            w.record(weights, state.sigma_x_inv)
            return
        raise _PivotEscalationFailed()

    def _inner_solve(self, state, ev, step, inner_tol, report):
        """Newton iterations on the current inner problem, from the products
        of state's iterate that the evaluation ``ev`` carries, with the
        step's vectors in ``step``; ends with ``ev`` completed (see
        :func:`eval_grad_phi`) at the final iterate.

        Each pass completes the evaluation of its iterate and stops before
        stepping when the tolerance is met, the direction is not a descent
        direction, or ``max_inner`` steps have been taken.  Each step forms
        its products Q dx, G dx and M dx, and the iterate and its carried
        products move along it together.  The first step is a unit step;
        later steps use the exact line search.  Only the stages whose active
        penalties changed are refactored (see :meth:`_factor`).  Phase times,
        factorization counts and, with ``log_inner``, one record per step
        go into ``report``.
        """
        p, settings, timings = self.problem, self.settings, report.timings
        state.sigma_x_inv = PROXIMAL_WEIGHT  # until a pivot failure raises it
        for it in range(settings.max_inner + 1):
            eval_grad_phi(p, state, ev)
            eq_norm = float(np.max(np.abs(ev.r.data)))
            if settings.log_inner and it:  # the step that led here
                phi = eval_phi(p, state, ev)
                record = InnerRecord(state.outer_iter, it, phi, eq_norm, tau, it == 1)
                report.inner_log.append(record)
            if np.max(np.abs(ev.g.data)) <= inner_tol and eq_norm <= inner_tol:
                return
            if it == settings.max_inner:
                report.max_inner_hits += 1
                return

            weights = kkt.weights_from_shifted(p, state.sigma_y, ev.z)
            self._factor(state, weights, report)

            t0 = time.perf_counter()
            kkt.solve_newton(self.work, ev.g, ev.r, out=(step.dx, step.dlam, step.mtdl))
            t1 = time.perf_counter()
            timings["substitution"] += t1 - t0

            model.mul_Q(p, step.dx, out=step.qdx)
            model.mul_G(p, step.dx, out=step.gdx)
            model.mul_M(p, step.dx, out=step.mdx)
            try:
                tau = exact_line_search(p, state, ev, step.dx, step.qdx, step.gdx) if it else 1.0
            except NonDescentDirection:
                report.nondescent_breaks += 1
                return
            finally:
                timings["line_search"] += time.perf_counter() - t1
            if tau != 1.0:  # nothing reads the step again: scale it in place
                for v in (step.dx, step.qdx, step.gdx, step.mdx):
                    v.data *= tau
            state.x.data += step.dx.data
            state.lam.data += step.dlam.data
            ev.gx.data += step.gdx.data
            ev.qx.data += step.qdx.data
            ev.mtl.data += step.mtdl.data
            ev.r.data += step.mdx.data
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

    def _outer_test(self, ev):
        """The outer stopping test on the evaluation ``ev``: returns whether
        it passes, the dual, equality and primal residuals, the per-row
        |Gx - proj(z)| that drives it and the penalty update, and the
        tolerance that the largest of those must meet."""
        p, settings = self.problem, self.settings
        qx, mtl, gty, gx = (v.data for v in (ev.qx, ev.mtl, ev.gty, ev.gx))
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
            bl, bu, b = p.bl.data, p.bu.data, self._b.data
            dscale = max(
                float(np.max(np.abs(v), initial=0.0)) for v in (qx, p.lin.data, mtl, gty)
            )
            pscale = float(np.max(np.abs(np.concatenate(
                (gx, bl[np.isfinite(bl)], bu[np.isfinite(bu)])
            )), initial=0.0))
            escale = max(float(np.max(np.abs(ev.r.data + b))), float(np.max(np.abs(b))))
        else:
            dscale = pscale = escale = 0.0
        primal_tol = settings.eps_abs + settings.eps_rel * pscale
        passed = (
            dual_res <= settings.eps_abs + settings.eps_rel * dscale
            and primal_term <= primal_tol
            and eq_res <= settings.eps_abs + settings.eps_rel * escale
        )
        return passed, dual_res, eq_res, primal_res, comp, primal_tol

    def _solve(self, warm_start):
        p, settings = self.problem, self.settings
        # the vectors of every iteration, allocated once per solve; freed
        # between solves, they add nothing to a pool of idle solvers
        ev, step = Evaluation.zeros(p), Step.zeros(p)
        state = self._init_state(warm_start, ev)
        report = SolveReport()
        # the first factorization of a solve is full, so the band's block
        # order can change here: the one the last solve's changes favoured
        self.work.reorient()
        report.psi_order = "natural" if self.work.natural else "reversed"
        inner_tol = 1.0
        prev_viol = None
        t_start = time.perf_counter()
        for k in range(settings.max_outer):
            state.outer_iter = k + 1
            np.copyto(state.x_center.data, state.x.data)
            try:
                self._inner_solve(state, ev, step, inner_tol, report)
            except _PivotEscalationFailed:
                report.status = NUMERICAL_ERROR
                break

            passed, report.dual_res, report.eq_res, report.primal_res, comp, primal_tol = \
                self._outer_test(ev)
            if passed or k == settings.max_outer - 1:
                # carried products drift by rounding: only a fresh
                # evaluation of the iterate may end the solve or give the
                # residuals and y of a max_iter report, and the solve goes
                # on from it when it fails the test
                eval_grad_phi(p, state, eval_products(p, state, self._b, ev))
                passed, report.dual_res, report.eq_res, report.primal_res, comp, primal_tol = \
                    self._outer_test(ev)
            np.copyto(state.y.data, ev.y_plus.data)
            if passed:
                report.status = SOLVED
                break

            if prev_viol is not None:
                # a row within the primal tolerance needs no larger penalty,
                # however its violation compares with the last
                grow = (comp > PENALTY_TRIGGER * prev_viol) & (comp > primal_tol)
                if grow.any():
                    state.sigma_y.data[grow] = np.minimum(
                        state.sigma_y.data[grow] * PENALTY_GROWTH, SIGMA_MAX
                    )
            prev_viol = comp
            inner_tol = max(0.1 * inner_tol, 0.1 * settings.eps_abs)

        report.solve_time = time.perf_counter() - t_start
        report.outer_iters, report.inner_iters = state.outer_iter, state.inner_iter
        report.max_penalty = float(np.max(state.sigma_y.data, initial=0.0))
        return (
            p.to_flat("primal", state.x),
            p.to_flat("dualineq", state.y),
            p.to_flat("dualeq", state.lam),
            report,
        )


def solve(problem, settings=None, warm_start=None):
    """One-shot convenience wrapper around :class:`Solver`."""
    solver = Solver(problem, settings)
    try:
        return solver.solve(warm_start)
    finally:
        solver.close()
