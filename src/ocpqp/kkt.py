"""Structured factorization and solve of the saddle-point Newton system.

The Newton system

    [ H   M^T ] [ dx   ]     [ g  ]
    [ M   0   ] [ dlam ] = - [ r  ]

with block-diagonal H and the dynamics stencil M is solved in three steps
that never leave the stage-wise representation:

    H v                    = g
    -(M H^{-1} M^T) dlam   = M v - r
    -H dx                  = g + M^T dlam   (g refreshed with lam + dlam)

The Schur complement Psi = M H^{-1} M^T is block-tridiagonal, a band matrix
with a block-bidiagonal Cholesky factor.  Everything up to Psi is independent
across stages and runs as batched calls over the stage axis of the
stage-major stacks (see :mod:`ocpqp.compact`), optionally split over a
worker pool in disjoint parts of a stage index set; the sequential part is
one banded LAPACK call that factors Psi and one per solve with it.  The band
holds Psi in reversed block order (stage N first, as a Riccati recursion
runs), so the factor of the blocks of stages above a change stays valid.

Over a set of stages the pipeline runs one batched Cholesky of the H_j and
inverts each stage's factor once with LAPACK trtri, so the stored stage
factor is L^{-1} (in place of L).  The panel J_j = [V_j; W_j] is then one
batched matmul L^{-1} [A B; I 0]^T, all three Psi products (V V^T, W W^T,
-V W^T) come out of a single J J^T, and every later solve with H is two
batched matmuls over all stages.  The constant panel [A B; I 0]^T is built
once at workspace allocation.

H_j depends on the iterate only through the active penalties of stage j
(and the proximal scale), so only the stages whose penalties changed since
the last successful factorization are reassembled and refactored; the
others keep their factor bits.  Only the Psi blocks those stages touch are
re-sliced, and the band Cholesky restarts at the block of the last changed
stage: the leading band columns, which hold the factor of the later stages,
are kept, and a full factorization is the restart at the first column.  When
no stage changed, the whole factorization is reused as it stands.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import model
from .compact import CompactBatch, NonPositivePivot

_trtri, _pbtrf, _pbtrs = scipy.linalg.get_lapack_funcs(("trtri", "pbtrf", "pbtrs"))


class StructureMismatch(Exception):
    """The diagonal fast path was requested for a non-diagonal problem."""


class WorkerPool:
    """Runs a callable over disjoint parts of a sorted stage index array.

    With one worker everything is inline; otherwise a thread pool executes
    one part per worker and ``run`` returns only after all parts finish
    (the barrier between stage-parallel work and the Psi factorization),
    also when one of them raises; the first part's exception is re-raised.
    """

    def __init__(self, workers=1):
        self.workers = max(1, int(workers))
        self._executor = None

    def run(self, fn, stages):
        if self.workers == 1 or len(stages) <= 1:
            fn(stages)
            return
        chunks = np.array_split(stages, min(self.workers, len(stages)))
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        futures = [self._executor.submit(fn, ch) for ch in chunks]
        wait(futures)
        for fut in futures:
            fut.result()

    def shutdown(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _inline_run(fn, stages):
    fn(stages)


def _index(stages):
    """Index for a sorted stage array: a slice when the stages are one
    contiguous run (so stacks are read and written through views), the
    array itself otherwise (gathered copies, scattered back)."""
    if not len(stages):
        return slice(0, 0)
    lo, hi = int(stages[0]), int(stages[-1]) + 1
    return slice(lo, hi) if hi - lo == len(stages) else stages


def _slots(stack, s):
    """Where results for the stages ``s`` are computed: the stack's view
    for a slice, fresh scratch for an index array (see :func:`_scatter`)."""
    return stack[s] if isinstance(s, slice) else np.empty((len(s),) + stack.shape[1:])


def _scatter(stack, s, values):
    if not isinstance(s, slice):
        stack[s] = values


@dataclass
class ActiveWeights:
    """Active-set penalty weights: entry i holds (Sigma_y)_ii when the
    shifted constraint value is outside its interval, 0 inside."""

    sigma_active: CompactBatch


def weights_from_shifted(problem, sigma_y, z):
    """Active weights at the shifted value z = Gx + Sigma_y^{-1} y (shared
    with the gradient evaluation, which needs the same z)."""
    inside = (z.data >= problem.bl.data) & (z.data <= problem.bu.data)
    return ActiveWeights(CompactBatch(z.rows, 1, z.nstages, np.where(inside, 0.0, sigma_y.data)))


@dataclass
class StageFactorization:
    """Workspaces and results of one stage-structured factorization.

    ``linv_lm``, ``vwt_lm`` and ``p_lm`` are stage stacks (nstages, ...):
    the inverses L_j^{-1} of the per-stage Cholesky factors of H (dense
    variant only), the panels (V_j; W_j)^T = L_j^{-1} [A B; I 0]^T, and the
    products J_j J_j^T that the Psi blocks are sliced from.  ``psi_diag``
    and ``psi_sub`` hold the blocks Psi_jj and Psi_{j+1,j} of the unfactored
    Psi in stage order.  ``psi_band`` holds the Cholesky factor of P Psi P^T,
    where P reverses the block order (stage j at block position N - j), in
    LAPACK band storage; ``band_diag[j]`` and ``band_sub[j]`` are reversed
    views of its blocks, indexed by stage: the diagonal block of stage j and
    the block L(N - j, N - j - 1) that couples stage j to stage j + 1.

    ``factored_sigma`` and ``factored_scale`` record the active penalties
    (a copy of ``sigma_active.stack``) and the proximal scale of the last
    factorization that completed through :func:`factor_psi`, or None when
    there is none; see :meth:`changed_stages`.  The cache assumes the cost
    and constraint matrices and the proximal diagonal stay fixed between
    :meth:`invalidate` calls.
    """

    problem: object
    variant: str
    H: CompactBatch
    h_diag: CompactBatch | None
    linv_lm: np.ndarray
    vwt_lm: np.ndarray
    p_lm: np.ndarray
    ewt_lm: np.ndarray  # constant [A B; I 0]^T panels
    scaled_lm: np.ndarray  # scratch for the weighted constraint panel
    psi_diag: np.ndarray
    psi_sub: np.ndarray
    psi_band: np.ndarray
    band_diag: np.ndarray
    band_sub: np.ndarray
    factored_sigma: np.ndarray
    factored_scale: float | None = None

    @classmethod
    def allocate(cls, problem, variant="dense"):
        d = problem.dims
        ns, n_xu, n_x = d.N + 1, d.n_xu, d.n_x
        ew = np.zeros((ns, n_xu, 2 * n_x))
        ew[:, :, :n_x] = problem.dyn.stack.transpose(0, 2, 1)
        ew[:, :n_x, n_x:] = np.eye(n_x)
        band = np.zeros((2 * n_x, ns * n_x), order="F")
        return cls(
            problem=problem,
            variant=variant,
            H=CompactBatch(n_xu, n_xu, ns),
            h_diag=CompactBatch(n_xu, 1, ns) if variant == "diagonal" else None,
            linv_lm=np.zeros((ns, n_xu, n_xu)),
            vwt_lm=np.zeros((ns, n_xu, 2 * n_x)),
            p_lm=np.zeros((ns, 2 * n_x, 2 * n_x)),
            ewt_lm=ew,
            scaled_lm=np.zeros((ns, d.n_y_pad, n_xu)),
            psi_diag=np.zeros((ns, n_x, n_x)),
            psi_sub=np.zeros((d.N, n_x, n_x)),
            psi_band=band,
            band_diag=_band_blocks(band, 0, ns)[::-1],
            band_sub=_band_blocks(band, n_x, d.N)[::-1],
            factored_sigma=np.zeros((ns, d.n_y_pad, 1)),
        )

    def changed_stages(self, weights, scale):
        """Sorted indices of the stages whose H_j differs from the last
        completed factorization: those whose active penalties changed, or
        every stage when there is no such factorization or the proximal
        scale differs from its."""
        if self.factored_scale is None or scale != self.factored_scale:
            return np.arange(self.H.nstages)
        changed = self.factored_sigma != weights.sigma_active.stack
        return np.flatnonzero(np.any(changed, axis=(1, 2)))

    def invalidate(self):
        """Forget the last factorization: the next one refactors every stage."""
        self.factored_scale = None

    def record(self, weights, scale):
        """Mark the workspace as the complete factorization at ``weights``
        and proximal scale ``scale``."""
        np.copyto(self.factored_sigma, weights.sigma_active.stack)
        self.factored_scale = scale


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


def assemble_H(problem, weights, sigma_x_inv, out=None, stages=None, work=None):
    """Per-stage generalized Hessian blocks:

        H_j = [C_j D_j]^T Sigma_j [C_j D_j] + [[Q_j, S_j^T], [S_j, R_j]]
              + diag(sigma_x_inv)_j

    over the sorted stage index array ``stages`` (all stages when None);
    no other stage of ``out`` is written.  The proximal diagonal keeps every
    block positive definite even when the cost block alone is only positive
    semidefinite.  ``work`` supplies scratch for the weighted constraint
    panel.
    """
    d = problem.dims
    if out is None:
        out = CompactBatch(d.n_xu, d.n_xu, problem.cost.nstages)
    s = _index(np.arange(out.nstages) if stages is None else stages)
    H = _slots(out.stack, s)
    con = problem.con.stack[s]
    scaled = _slots(work.scaled_lm, s) if work is not None else np.empty_like(con)
    np.multiply(con, np.sqrt(weights.sigma_active.stack[s]), out=scaled)
    np.matmul(scaled.transpose(0, 2, 1), scaled, out=H)
    H += problem.cost.stack[s]
    idx = np.arange(d.n_xu)
    H[:, idx, idx] += sigma_x_inv.stack[s, :, 0]
    _scatter(out.stack, s, H)
    return out


def _masked_scalar_chol(mat):
    """Right-looking sweep of one matrix with non-positive pivots replaced;
    returns (first bad row, the partial factor)."""
    m = mat.shape[0]
    w = np.tril(mat)
    first_row = -1
    for k in range(m):
        if not w[k, k] > 0.0:
            if first_row < 0:
                first_row = k
            w[k, k] = 1.0
        rt = np.sqrt(w[k, k])
        w[k, k] = rt
        if k + 1 < m:
            w[k + 1 :, k] /= rt
            w[k + 1 :, k + 1 :] -= np.tril(
                np.outer(w[k + 1 :, k], w[k + 1 :, k])
            )
    return first_row, w


def factor_chunk_dense(f, stages):
    """Dense per-stage pipeline over a sorted stage index array: batched
    Cholesky of the H_j, one trtri per stage replacing L by L^{-1}, one
    batched matmul for the combined (V; W)^T panels, and one J J^T product
    holding every Psi contribution of those stages; no other stage is
    written.  When the batched Cholesky fails, each stage is factored on its
    own, so a failing stage is named by its index without touching its
    siblings' factors."""
    s = _index(stages)
    H, linv = f.H.stack[s], _slots(f.linv_lm, s)
    failures = []
    try:
        linv[:] = np.linalg.cholesky(H)  # reads the lower triangle
    except np.linalg.LinAlgError:
        for t in range(H.shape[0]):
            try:
                linv[t] = np.linalg.cholesky(H[t])
            except np.linalg.LinAlgError:
                row, linv[t] = _masked_scalar_chol(H[t])
                failures.append((int(stages[t]), row))
    for t in range(linv.shape[0]):
        linv[t] = _trtri(linv[t], lower=1)[0]
    vwt, p = _slots(f.vwt_lm, s), _slots(f.p_lm, s)
    np.matmul(linv, f.ewt_lm[s], out=vwt)
    np.matmul(vwt.transpose(0, 2, 1), vwt, out=p)
    for stack, values in ((f.linv_lm, linv), (f.vwt_lm, vwt), (f.p_lm, p)):
        _scatter(stack, s, values)
    if failures:
        raise NonPositivePivot(failures)


def factor_chunk_diagonal(f, stages):
    """Diagonal fast path: H_j is diagonal, so the Cholesky factor is a
    square root and the panel solve collapses to a row scaling of the
    constant [A B; I 0]^T panels."""
    s = _index(stages)
    diag = np.diagonal(f.H.stack, axis1=1, axis2=2)[s]  # (stages, n_xu)
    bad = ~(diag > 0.0)
    if bad.any():
        t, row = np.argwhere(bad)[0]
        raise NonPositivePivot([(int(stages[t]), int(row))])
    f.h_diag.stack[s, :, 0] = diag
    vwt, p = _slots(f.vwt_lm, s), _slots(f.p_lm, s)
    np.multiply(f.ewt_lm[s], 1.0 / np.sqrt(diag)[:, :, None], out=vwt)
    np.matmul(vwt.transpose(0, 2, 1), vwt, out=p)
    _scatter(f.vwt_lm, s, vwt)
    _scatter(f.p_lm, s, p)


def assemble_psi(f, stages=None):
    """Slice the per-stage J J^T products into the block-tridiagonal Psi:
    Psi_00 = W0 W0^T, Psi_{j+1,j+1} = Vj Vj^T + W_{j+1} W_{j+1}^T,
    Psi_{j+1,j} = -Vj Wj^T.  Only the blocks that the sorted stage index
    array ``stages`` (all stages when None) touch are rewritten: Psi_jj,
    Psi_{j+1,j+1} and Psi_{j+1,j} for each j in it."""
    dm = f.problem.dims
    N, n_x = dm.N, dm.n_x
    P = f.p_lm
    stages = np.arange(N + 1) if stages is None else np.asarray(stages)
    touched = np.zeros(N + 2, dtype=bool)
    touched[stages] = touched[stages + 1] = True
    rows = np.flatnonzero(touched[: N + 1])
    d = _index(rows)
    diag = _slots(f.psi_diag, d)
    diag[:] = P[d, n_x:, n_x:]
    first = 1 if rows[0] == 0 else 0
    diag[first:] += P[_index(rows[first:] - 1), :n_x, :n_x]
    diag += diag.transpose(0, 2, 1).copy()
    diag *= 0.5
    _scatter(f.psi_diag, d, diag)
    s = _index(stages[stages < N])
    f.psi_sub[s] = -P[s, :n_x, n_x:]
    return f


def factor_stages(H, problem, work=None, pool=None, variant="dense", stages=None):
    """Factor the block-diagonal H and form the Psi blocks, stage-parallel.

    ``H`` is the assembled CompactBatch (see :func:`assemble_H`).  Only the
    stages of the sorted index array ``stages`` (all when None) are
    refactored; the others keep the factors ``work`` holds.  The Psi blocks
    that those stages touch are then re-sliced, and the result is ready for
    :func:`factor_psi` over the same ``stages``.
    """
    if work is None:
        work = StageFactorization.allocate(problem, variant)
    if work.H is not H:
        np.copyto(work.H.data, H.data)
    if variant == "diagonal" and not problem.is_diagonal():
        raise StructureMismatch(
            "diagonal variant requires diagonal Q and R, zero S, and box-like rows"
        )
    chunk_fn = factor_chunk_diagonal if variant == "diagonal" else factor_chunk_dense
    run = pool.run if pool is not None else _inline_run
    run(lambda ch: chunk_fn(work, ch), np.arange(H.nstages) if stages is None else stages)
    assemble_psi(work, stages)
    return work


def psi_top(f, stages=None):
    """Last stage whose Psi blocks a change at the sorted, non-empty stage
    index array ``stages`` reaches (N when None): :func:`factor_psi`
    refactors the band positions N - top to N, top + 1 blocks."""
    N = f.problem.dims.N
    return N if stages is None else min(int(stages[-1]) + 1, N)


def factor_psi(f, stages=None):
    """Cholesky factor of P Psi P^T, block-bidiagonal, by one banded LAPACK
    call on the band positions that the sorted stage index array ``stages``
    (all stages when None) reaches.

    Position k holds stage N - k, so the stages above ``top`` (see
    :func:`psi_top`) fill the leading k0 = N - top positions, whose columns
    keep the factor of the last factorization.  The trailing columns are
    refilled from the lower triangles of ``psi_diag`` and the transposed
    ``psi_sub`` blocks; for k0 > 0 the kept block L(k0, k0 - 1), stored at
    ``band_sub[top]``, is subtracted as L L^T from diagonal block k0, and
    dpbtrf factors the trailing band in place.  A full factorization is the
    restart at k0 = 0.  A failed leading minor names the stage whose block
    it falls in.  dpbtrf need not stop at a NaN pivot, but a NaN anywhere in
    the factor reaches the diagonal of its row, so the first non-finite
    diagonal entry names a stage the same way."""
    N, n_x = f.problem.dims.N, f.problem.dims.n_x
    top = psi_top(f, stages)
    c0 = (N - top) * n_x
    trail = f.psi_band[:, c0:]  # F-contiguous, factored in place
    trail.fill(0.0)  # a NaN in Psi spreads into slots outside the blocks
    tri = np.tri(n_x, dtype=bool)
    np.copyto(f.band_diag[: top + 1], f.psi_diag[: top + 1], where=tri)
    np.copyto(f.band_sub[:top], f.psi_sub[:top].transpose(0, 2, 1))
    if top < N:
        L = f.band_sub[top]
        np.copyto(f.band_diag[top], f.psi_diag[top] - L @ L.T, where=tri)
    _, info = _pbtrf(trail, lower=1, overwrite_ab=1)
    if info > 0:
        raise NonPositivePivot([(top - (info - 1) // n_x, -1)])
    bad = ~np.isfinite(trail[0])
    if bad.any():
        raise NonPositivePivot([(top - int(np.argmax(bad)) // n_x, -1)])
    return f


def solve_H(f, rhs, out=None):
    """Per-stage solve H_j z_j = rhs_j with the stored inverse factors:
    z = L^{-T} (L^{-1} rhs), two batched matmuls over every stage (a row
    scaling on the diagonal path)."""
    if out is None:
        out = rhs.zeros_like()
    if f.variant == "diagonal":
        np.divide(rhs.data, f.h_diag.data, out=out.data)
        return out
    np.matmul(f.linv_lm.transpose(0, 2, 1), np.matmul(f.linv_lm, rhs.stack), out=out.stack)
    return out


def psi_solve(f, rhs_stack):
    """Solve Psi x = rhs for the (N + 1, n_x) stack with the banded factor:
    forward and back substitution in one dpbtrs call, on the blocks in the
    band's reversed order."""
    x, _ = _pbtrs(f.psi_band, rhs_stack[::-1].reshape(-1, 1), lower=1)
    return x.reshape(rhs_stack.shape)[::-1]


def solve_newton(f, grad_phi, lam, eq_residual):
    """Three-step structured solve of the Newton system.

    ``grad_phi`` is the inner-objective gradient at the current point,
    ``lam`` the running equality multipliers, ``eq_residual`` the current
    Mx - b.  Returns the step (dx, dlam) as compact vectors.
    """
    problem = f.problem
    g1 = model.mul_MT(problem, lam)
    g1.data += grad_phi.data
    v = solve_H(f, g1)

    mv = model.mul_M(problem, v)
    dlam = lam.zeros_like()
    dlam.stack[:, :, 0] = psi_solve(f, eq_residual.stack[:, :, 0] - mv.stack[:, :, 0])

    lam_new = lam.zeros_like()
    np.add(lam.data, dlam.data, out=lam_new.data)
    g3 = model.mul_MT(problem, lam_new)
    g3.data += grad_phi.data
    dx = solve_H(f, g3)
    dx.data *= -1.0
    return dx, dlam
