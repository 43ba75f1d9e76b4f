"""Structured factorization and solve of the saddle-point Newton system.

The Newton system

    [ H   M^T ] [ dx   ]     [ g  ]
    [ M   0   ] [ dlam ] = - [ r  ]

with block-diagonal H and the dynamics stencil M is solved in three steps
that never leave the stage-wise representation:

    H v                    = g
    -(M H^{-1} M^T) dlam   = M v - r
    -H dx                  = g + M^T dlam

The Schur complement Psi = M H^{-1} M^T is block-tridiagonal, a band matrix
with a block-bidiagonal Cholesky factor.  Everything up to Psi is independent
across stages and runs as batched calls over the stage axis of the
stage-major stacks (see :mod:`ocpqp.compact`), split over a :class:`WorkerPool`
in disjoint parts of a stage index set (inline at one worker); the
sequential part is one banded LAPACK call that factors Psi and one per solve
with it.  The band holds Psi in one of two block orders, which the
workspace picks for each solve: reversed (stage N first, as a Riccati
recursion runs), so the factor of the blocks of the stages above the last
change stays valid, or natural (stage 0 first), so that of the stages
before the first change does.

Every step takes the workspace, a :class:`StageFactorization` ``f``, first
and works in place on it: ``factor_stages(f, pool, weights, sigma_x_inv,
stages)``, ``factor_psi(f, stages)``, ``solve_H(f, rhs, out)`` and
``solve_newton(f, g, r, out)``, where g = M^T lam + grad phi and r = Mx - b
are the residuals at the current iterate.  The solves write into the
caller's buffers ``out``, so a caller that keeps its step vectors allocates
none per step.  The active penalties ``weights`` are a one-column
CompactBatch, as :func:`weights_from_shifted` returns them, the proximal
weight ``sigma_x_inv`` is a float, and ``stages`` is a sorted stage index
array.

``factor_stages`` is one fork-join: each worker assembles the H_j of its
chunk of stages (:func:`assemble_H`) into the slots that then hold their
factors, so no H stack is kept, and factors and inverts each slot in place
with one LAPACK potrf and one trtri, so the stored stage factor is L^{-1}
(in place of L).  The panel J_j = [V_j; W_j] is L^{-1} [A B; I 0]^T, formed
from the problem's dynamics stack: one batched matmul L^{-1} [A B]^T, and
the first n_x columns of L^{-1}, which are L^{-1} [I; 0].  All three Psi
products (V V^T, W W^T, -V W^T) come out of a single J J^T, and every later
solve with H is two batched matmuls over all stages.  On the diagonal
variant no n_xu x n_xu block is formed: the diagonal of each H_j comes
elementwise from the problem's :class:`~ocpqp.model.DiagonalStructure`
(:func:`assemble_H_diagonal`), its inverse square root scales the rows of
[A B]^T and of [I; 0], and a solve with H is one elementwise division.

H_j depends on the iterate only through the active penalties of stage j
and the proximal weight, so only the stages whose penalties changed since
the last successful factorization are reassembled and refactored (every
stage when the weight changed); the others keep their factor bits.  The
band Cholesky of Psi restarts at the block of the last changed stage
(reversed order) or of the first (natural order), and reads its blocks
straight from the per-stage J J^T products: the leading band columns,
which hold the factor of the blocks the change does not reach, are kept,
and a full factorization is the restart at the first column.  When no
stage changed, the whole factorization is reused as it stands.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import model
from .compact import CompactBatch, NonPositivePivot

_trtri, _potrf, _pbtrf, _pbtrs = scipy.linalg.get_lapack_funcs(
    ("trtri", "potrf", "pbtrf", "pbtrs")
)


class StructureMismatch(ValueError):
    """The diagonal fast path was requested for a non-diagonal problem."""


class WorkerPool:
    """Runs a callable over disjoint parts of a sorted stage index array.

    With one worker everything is inline; otherwise a thread pool runs one
    part per worker.  ``run`` returns the parts' results in stage order once
    all parts finish (the barrier before the Psi factorization).
    """

    def __init__(self, workers=1):
        if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        self.workers = int(workers)
        self._executor = None

    def run(self, fn, stages):
        if self.workers == 1 or len(stages) <= 1:
            return [fn(stages)]
        chunks = np.array_split(stages, min(self.workers, len(stages)))
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        futures = [self._executor.submit(fn, ch) for ch in chunks]
        wait(futures)
        return [fut.result() for fut in futures]

    def shutdown(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _index(stages):
    """Index for a sorted stage array: a slice when the stages are one
    contiguous run (so stacks are read and written through views), the
    array itself otherwise (gathered copies, scattered back)."""
    if not len(stages):
        return slice(0, 0)
    lo, hi = int(stages[0]), int(stages[-1]) + 1
    return slice(lo, hi) if hi - lo == len(stages) else stages


def _slots(stack, s, fresh=np.empty):
    """Where results for the stages ``s`` are computed: the stack's view
    for a slice, ``fresh`` scratch for an index array (see :func:`_scatter`)."""
    return stack[s] if isinstance(s, slice) else fresh((len(s),) + stack.shape[1:])


def _scatter(stack, s, values):
    if not isinstance(s, slice):
        stack[s] = values


def weights_from_shifted(problem, sigma_y, z):
    """Active-set penalty weights at the shifted value z = Gx + Sigma_y^{-1} y
    (shared with the gradient evaluation, which needs the same z): entry i
    holds (Sigma_y)_ii when z_i is outside its interval, 0 inside."""
    inside = (z.data >= problem.bl.data) & (z.data <= problem.bu.data)
    return CompactBatch(z.rows, 1, z.nstages, np.where(inside, 0.0, sigma_y.data))


@dataclass
class StageFactorization:
    """Workspaces and results of one stage-structured factorization.

    ``linv_lm``, ``vwt_lm`` and ``p_lm`` are stage stacks (nstages, ...):
    the inverses L_j^{-1} of the per-stage Cholesky factors of H, the panels
    (V_j; W_j)^T = L_j^{-1} [A B; I 0]^T, formed from ``problem.dyn``, and
    the products J_j J_j^T that :func:`factor_psi` reads the Psi blocks
    from; no stack holds a copy of the problem's data.  The diagonal variant
    keeps the diagonal of each H_j in ``h_diag`` instead, and has no
    ``linv_lm``, ``scaled_lm`` or ``linv_rhs`` (None); the dense variant
    has no ``h_diag``.  ``linv_rhs`` is the one-column stage stack that
    :func:`solve_H` forms L^{-1} rhs in.
    ``psi_band`` holds the Cholesky factor L of P Psi P^T in LAPACK band
    storage, where P puts stage j at block position N - j when the block
    order is reversed (``natural`` False) and leaves it at j when it is
    natural.  ``band_diag[j]`` and ``band_sub[j]`` are views of its blocks,
    indexed by stage in either order: the diagonal block of stage j, and
    the block that couples stage j to stage j + 1, L(N - j, N - j - 1)
    reversed and L(j + 1, j) natural.  ``band_views`` holds those two views
    for each order (index ``natural``), built once.  ``psi_rhs`` is the
    one-column scratch that :func:`psi_solve` solves in, in the band's
    block order.

    ``factored_sigma`` and ``factored_prox`` record the active penalties
    (a copy of the weights' stack) and the proximal weight of the last
    factorization that completed through :func:`factor_psi`, or None when
    there is none; see :meth:`changed_stages`.  The cache assumes the cost
    and constraint matrices stay fixed between :meth:`invalidate` calls.
    ``psi_tally`` counts the Psi blocks that the factorizations since the
    last :meth:`reorient` would have refactored in each order (index
    ``natural``); see :meth:`tally`.
    """

    problem: object
    variant: str
    h_diag: CompactBatch | None
    linv_lm: np.ndarray | None
    vwt_lm: np.ndarray
    p_lm: np.ndarray
    scaled_lm: np.ndarray | None  # scratch for the weighted constraint panel
    linv_rhs: np.ndarray | None
    psi_band: np.ndarray
    band_diag: np.ndarray
    band_sub: np.ndarray
    band_views: tuple
    psi_rhs: np.ndarray
    factored_sigma: np.ndarray
    factored_prox: float | None = None
    natural: bool = False
    psi_tally: list = field(default_factory=lambda: [0, 0])

    @classmethod
    def allocate(cls, problem, variant="dense"):
        if variant == "diagonal" and not problem.is_diagonal():
            raise StructureMismatch(
                "diagonal variant requires diagonal Q and R, zero S, and box-like rows"
            )
        d = problem.dims
        ns, n_xu, n_x = d.N + 1, d.n_xu, d.n_x
        band = np.zeros((2 * n_x, ns * n_x), order="F")
        diag, sub = _band_blocks(band, 0, ns), _band_blocks(band, n_x, d.N)
        views = ((diag[::-1], sub[::-1]), (diag, sub))
        dense = variant != "diagonal"
        return cls(
            problem=problem,
            variant=variant,
            h_diag=None if dense else CompactBatch(n_xu, 1, ns),
            linv_lm=np.zeros((ns, n_xu, n_xu)) if dense else None,
            vwt_lm=np.zeros((ns, n_xu, 2 * n_x)),
            p_lm=np.zeros((ns, 2 * n_x, 2 * n_x)),
            scaled_lm=np.zeros((ns, d.n_y_pad, n_xu)) if dense else None,
            linv_rhs=np.zeros((ns, n_xu, 1)) if dense else None,
            psi_band=band,
            band_diag=views[0][0],
            band_sub=views[0][1],
            band_views=views,
            psi_rhs=np.zeros((ns * n_x, 1)),
            factored_sigma=np.zeros((ns, d.n_y_pad, 1)),
        )

    def changed_stages(self, weights, sigma_x_inv):
        """Sorted indices of the stages whose H_j differs from the last
        completed factorization: those whose active penalties changed, or
        every stage when there is no such factorization or the proximal
        weight ``sigma_x_inv`` differs from its."""
        if self.factored_prox is None or sigma_x_inv != self.factored_prox:
            return np.arange(len(self.p_lm))
        changed = self.factored_sigma != weights.stack
        return np.flatnonzero(np.any(changed, axis=(1, 2)))

    def invalidate(self):
        """Forget the last factorization: the next one refactors every stage."""
        self.factored_prox = None

    def record(self, weights, sigma_x_inv):
        """Mark the workspace as the complete factorization at ``weights``
        and proximal weight ``sigma_x_inv``."""
        np.copyto(self.factored_sigma, weights.stack)
        self.factored_prox = sigma_x_inv

    def orient(self, natural):
        """Forget the last factorization and keep the band in natural block
        order from the next one on, or in reversed order."""
        self.invalidate()
        self.natural = bool(natural)
        self.band_diag, self.band_sub = self.band_views[self.natural]

    def tally(self, stages):
        """Count the Psi blocks that a factorization over the sorted stage
        index array ``stages`` refactors in each block order."""
        for natural in (False, True):
            self.psi_tally[natural] += len(self.p_lm) - psi_restart(self, stages, natural)

    def reorient(self):
        """:meth:`orient` for the factorizations to come: natural order if
        it would have refactored strictly fewer Psi blocks than the reversed
        one over those tallied since the last call, reversed otherwise (and
        at the first call); the tallies start again from zero."""
        reversed_blocks, natural_blocks = self.psi_tally
        self.orient(natural_blocks < reversed_blocks)
        self.psi_tally = [0, 0]


def _band_blocks(band, row0, nblocks):
    """Strided view of ``nblocks`` n x n blocks of a matrix in Fortran-ordered
    LAPACK lower band storage with 2 n rows (entry (i, k), i >= k, at
    band[i - k, k]): entry (r, c) of block j is band[row0 + r - c, j n + c].
    row0 = 0 gives the diagonal blocks, whose strictly upper entries alias
    other slots, and row0 = n the sub-diagonal blocks."""
    ld, s = band.shape[0], band.itemsize
    n = ld // 2
    return np.lib.stride_tricks.as_strided(
        band[row0:], (nblocks, n, n), (ld * n * s, s, (ld - 1) * s)
    )


def assemble_H(f, weights, sigma_x_inv, stages, out):
    """Per-stage generalized Hessian blocks into ``out``, a
    (len(stages), n_xu, n_xu) buffer:

        H_j = [C_j D_j]^T Sigma_j [C_j D_j] + [[Q_j, S_j^T], [S_j, R_j]]
              + sigma_x_inv I

    with Sigma_j the active ``weights`` (see :func:`weights_from_shifted`)
    and the proximal weight ``sigma_x_inv`` a float, for the stages of the
    sorted index array ``stages``.  The proximal term keeps every block
    positive definite even when the cost block alone is only positive
    semidefinite.  Returns ``out``.
    """
    problem = f.problem
    s = _index(stages)
    scaled = _slots(f.scaled_lm, s)
    np.multiply(problem.con.stack[s], np.sqrt(weights.stack[s]), out=scaled)
    np.matmul(scaled.transpose(0, 2, 1), scaled, out=out)
    out += problem.cost.stack[s]
    idx = np.arange(problem.dims.n_xu)
    out[:, idx, idx] += sigma_x_inv
    return out


def assemble_H_diagonal(f, weights, sigma_x_inv, stages, out):
    """Diagonals of the H_j of :func:`assemble_H` for a diagonal problem,
    into ``out``, a (len(stages), n_xu) buffer, with no n_xu x n_xu block:
    each constraint row adds (coef sqrt(w))^2 to the entry of its variable,
    then come the cost diagonal and ``sigma_x_inv``, in the order in which
    :func:`assemble_H` adds them.  Returns ``out``."""
    diag, n_xu = f.problem.diagonal, f.problem.dims.n_xu
    s = _index(stages)
    sq = diag.coef[s] * np.sqrt(weights.stack[s, :, 0])
    sq *= sq
    # flat index of each row's variable in out: stage j's block moves to t
    local = diag.col[s] - ((stages - np.arange(len(stages))) * n_xu)[:, None]
    out[...] = np.bincount(local.ravel(), sq.ravel(), out.size).reshape(out.shape)
    out += diag.cost[s]
    out += sigma_x_inv
    return out


def factor_chunk_dense(f, weights, sigma_x_inv, stages):
    """Dense per-stage pipeline over a sorted stage index array: the H_j
    assembled into their ``linv_lm`` slots, one potrf and one trtri per
    slot, the (V; W)^T panels L^{-1} [A B]^T beside L^{-1} [I; 0], and one
    J J^T product holding every Psi contribution of those stages; no other
    stage is written.  A C-ordered slot's transpose is Fortran-ordered with
    the slot's lower triangle as its upper one, so LAPACK writes U^{-1} =
    L^{-T} there, which the slot reads as L^{-1} with a zero strict upper
    triangle.  Returns the (stage, row) of each stage's first non-positive
    pivot; a failing stage leaves its siblings' factors intact."""
    s = _index(stages)
    linv = assemble_H(f, weights, sigma_x_inv, stages, _slots(f.linv_lm, s))
    failures = []
    for t in range(linv.shape[0]):
        c, info = _potrf(linv[t].T, lower=0, overwrite_a=1, clean=1)
        if info > 0:
            failures.append((int(stages[t]), info - 1))
        _trtri(c, lower=0, overwrite_c=1)
    n_x = f.problem.dims.n_x
    vwt, p = _slots(f.vwt_lm, s), _slots(f.p_lm, s)
    np.matmul(linv, f.problem.dyn.stack[s].transpose(0, 2, 1), out=vwt[:, :, :n_x])
    np.copyto(vwt[:, :, n_x:], linv[:, :, :n_x])  # L^{-1} [I; 0]
    np.matmul(vwt.transpose(0, 2, 1), vwt, out=p)
    for stack, values in ((f.linv_lm, linv), (f.vwt_lm, vwt), (f.p_lm, p)):
        _scatter(stack, s, values)
    return failures


def factor_chunk_diagonal(f, weights, sigma_x_inv, stages):
    """Diagonal fast path: H_j is diagonal (:func:`assemble_H_diagonal`),
    so the Cholesky factor is a square root and the panel solve collapses
    to a row scaling of [A B; I 0]^T, whose zeros stay from allocation.
    Returns the (stage, row) of each stage's first non-positive entry, found
    before any square root is taken; a chunk with one writes nothing."""
    s = _index(stages)
    h_diag = f.h_diag.stack[:, :, 0]
    diag = assemble_H_diagonal(f, weights, sigma_x_inv, stages, _slots(h_diag, s))
    bad = ~(diag > 0.0)
    if bad.any():
        rows = bad.argmax(axis=1)
        return [(int(stages[t]), int(rows[t])) for t in np.flatnonzero(bad.any(axis=1))]
    _scatter(h_diag, s, diag)
    n_x = f.problem.dims.n_x
    vwt, p = _slots(f.vwt_lm, s, np.zeros), _slots(f.p_lm, s)
    scale = 1.0 / np.sqrt(diag)
    np.multiply(f.problem.dyn.stack[s].transpose(0, 2, 1), scale[:, :, None], out=vwt[:, :, :n_x])
    idx = np.arange(n_x)
    vwt[:, idx, n_x + idx] = scale[:, :n_x]
    np.matmul(vwt.transpose(0, 2, 1), vwt, out=p)
    _scatter(f.vwt_lm, s, vwt)
    _scatter(f.p_lm, s, p)
    return []


def factor_stages(f, pool, weights, sigma_x_inv, stages):
    """Assemble and factor the block-diagonal H at the active ``weights``
    and proximal weight ``sigma_x_inv`` (see :func:`assemble_H`) and form
    the per-stage J J^T products ``f.p_lm`` that Psi is read from, in one
    fork-join over the WorkerPool ``pool``: each worker runs the whole
    pipeline on its chunk of the stages.

    Only the stages of the sorted index array ``stages`` are refactored;
    the others keep the factors ``f`` holds.  The result is ready for
    :func:`factor_psi` over the same ``stages``.  One NonPositivePivot
    names the failing stages of every chunk, at any worker count.
    """
    chunk_fn = factor_chunk_diagonal if f.variant == "diagonal" else factor_chunk_dense
    results = pool.run(lambda ch: chunk_fn(f, weights, sigma_x_inv, ch), stages)
    failures = sorted(pair for chunk in results for pair in chunk)
    if failures:
        raise NonPositivePivot(failures)
    return f


def psi_restart(f, stages, natural=None):
    """First band block position that :func:`factor_psi` refactors after a
    change at the sorted, non-empty stage index array ``stages``, in the
    block order ``natural`` (the workspace's order by default).  A change
    at stage k reaches Psi_kk, Psi_{k+1,k+1} and Psi_{k+1,k}, so the
    restart is at the first changed stage in natural order and at the
    position N - j of the last stage j it reaches in reversed order; the
    positions from there to N are refactored."""
    if natural is None:
        natural = f.natural
    N = f.problem.dims.N
    return int(stages[0]) if natural else N - min(int(stages[-1]) + 1, N)


def factor_psi(f, stages):
    """Cholesky factor of P Psi P^T, block-bidiagonal, by one banded LAPACK
    call on the band positions that the sorted stage index array ``stages``
    reaches, in the workspace's block order (see :class:`StageFactorization`).

    The leading positions before the restart r (see :func:`psi_restart`)
    keep the factor of the last factorization in their columns.  The
    trailing ones, those of the stages lo..hi (r..N natural, 0..N - r
    reversed), are refilled straight from the J J^T products ``f.p_lm``
    (P_j):

        Psi_00 = P_0[n:, n:],  Psi_jj = P_j[n:, n:] + P_{j-1}[:n, :n],
        Psi_{j+1,j} = -P_j[:n, n:]

    with n = n_x; the diagonal blocks give their lower triangles (P_j is
    symmetric), and the coupling blocks enter as they are in natural order
    and transposed in reversed order.  For r > 0 the kept block L that
    couples position r to position r - 1 (``band_sub[lo - 1]`` natural,
    ``band_sub[hi]`` reversed) is subtracted as L L^T from diagonal block r,
    and dpbtrf factors the trailing band in place.  A full factorization is
    the restart at r = 0.  A failed leading minor names the stage whose
    block it falls in.  dpbtrf need not stop at a NaN pivot, but a NaN
    anywhere in the factor reaches the diagonal of its row, so the first
    non-finite diagonal entry names a stage the same way."""
    N, n_x = f.problem.dims.N, f.problem.dims.n_x
    restart = psi_restart(f, stages)
    trail = f.psi_band[:, restart * n_x:]  # F-contiguous, factored in place
    trail.fill(0.0)  # a NaN in Psi spreads into slots outside the blocks
    P, diag, sub = f.p_lm, f.band_diag, f.band_sub
    lo, hi = (restart, N) if f.natural else (0, N - restart)
    k = max(lo, 1)  # the first refilled block that has a stage before it
    tri = np.tri(n_x, dtype=bool)
    # one masked copy per block: a masked add into the strided band views
    # costs about twice as much as the contiguous sum
    if lo == 0:
        np.copyto(diag[0], P[0, n_x:, n_x:], where=tri)
    np.copyto(diag[k : hi + 1], P[k : hi + 1, n_x:, n_x:] + P[k - 1 : hi, :n_x, :n_x], where=tri)
    coupling = P[lo:hi, :n_x, n_x:]
    np.negative(coupling if f.natural else coupling.transpose(0, 2, 1), out=sub[lo:hi])
    if restart:
        j, L = (lo, sub[lo - 1]) if f.natural else (hi, sub[hi])
        np.subtract(diag[j], L @ L.T, out=diag[j], where=tri)

    def stage(col):  # the stage of the band column restart * n_x + col
        pos = restart + col // n_x
        return pos if f.natural else N - pos

    _, info = _pbtrf(trail, lower=1, overwrite_ab=1)
    if info > 0:
        raise NonPositivePivot([(stage(info - 1), -1)])
    bad = ~np.isfinite(trail[0])
    if bad.any():
        raise NonPositivePivot([(stage(int(np.argmax(bad))), -1)])
    return f


def solve_H(f, rhs, out):
    """Per-stage solve H_j z_j = rhs_j with the stored inverse factors:
    z = L^{-T} (L^{-1} rhs), two batched matmuls over every stage through
    the scratch ``f.linv_rhs`` (a division by ``h_diag`` on the diagonal
    path), into ``out``, which may be ``rhs`` itself.  Returns ``out``."""
    if f.variant == "diagonal":
        np.divide(rhs.data, f.h_diag.data, out=out.data)
    else:
        np.matmul(f.linv_lm, rhs.stack, out=f.linv_rhs)
        np.matmul(f.linv_lm.transpose(0, 2, 1), f.linv_rhs, out=out.stack)
    return out


def psi_solve(f, rhs_stack, out):
    """Solve Psi x = rhs for the (N + 1, n_x) stack with the banded factor:
    forward and back substitution in one dpbtrs call, in place on the
    scratch ``f.psi_rhs``, which holds the blocks in the band's block order
    (the stack's blocks reversed, or as they are in natural order).  The
    result goes into ``out``, which may be ``rhs_stack`` itself.  Returns
    ``out``."""
    src, dst = (rhs_stack, out) if f.natural else (rhs_stack[::-1], out[::-1])
    np.copyto(f.psi_rhs.reshape(rhs_stack.shape), src)
    x, _ = _pbtrs(f.psi_band, f.psi_rhs, lower=1, overwrite_b=1)
    np.copyto(dst, x.reshape(rhs_stack.shape))
    return out


def solve_newton(f, g, r, out):
    """Three-step structured solve of the Newton system for the residuals
    ``g`` (stationarity, M' lam + grad phi) and ``r`` (Mx - b): v = H^{-1} g,
    dlam from Psi dlam = r - M v, dx = -H^{-1} (g + M' dlam).  The step
    (dx, dlam) and M' dlam, which the last step forms, are written into the
    compact vectors ``out`` = (dx, dlam, mtdl), which it returns; v and M v
    are formed in the buffers of dx and dlam.
    """
    problem = f.problem
    dx, dlam, mtdl = out
    v = solve_H(f, g, out=dx)
    mv = model.mul_M(problem, v, out=dlam)
    np.subtract(r.data, mv.data, out=dlam.data)
    psi_solve(f, dlam.stack[:, :, 0], out=dlam.stack[:, :, 0])
    model.mul_MT(problem, dlam, out=mtdl)
    np.add(mtdl.data, g.data, out=dx.data)
    solve_H(f, dx, out=dx)
    dx.data *= -1.0
    return out
