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
across stages and runs block by block on d-wide lane stacks, optionally
distributed over a worker pool in disjoint block ranges; the sequential part
is one banded LAPACK call that factors Psi and one per solve with it.

Per block the pipeline gathers the d lanes once into a contiguous lane
stack, runs a batched Cholesky on it and inverts each lane's factor once
with LAPACK trtri, so the stored stage factor is L^{-1} (in place of L).
The panel J_j = [V_j; W_j] is then one batched matmul L^{-1} [A B; I 0]^T,
all three Psi products (V V^T, W W^T, -V W^T) come out of a single J J^T,
and every later solve with H is two batched matmuls over all blocks.  The
constant operand panels ([A B; I 0]^T and [C D]) are mirrored into lane
stacks once at workspace allocation rather than gathered on every
factorization.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import model
from .compact import CompactBatch, NonPositivePivot, _masked_scalar_chol

_trtri, _pbtrf, _pbtrs = scipy.linalg.get_lapack_funcs(("trtri", "pbtrf", "pbtrs"))


class StructureMismatch(Exception):
    """The diagonal fast path was requested for a non-diagonal problem."""


class WorkerPool:
    """Runs a callable over disjoint contiguous block ranges.

    With one worker everything is inline; otherwise a thread pool executes
    one chunk per worker and ``run`` returns only after all chunks finish
    (the barrier between stage-parallel work and the Psi factorization).
    """

    def __init__(self, workers=1):
        self.workers = max(1, int(workers))
        self._executor = None

    def run(self, fn, nblocks):
        if self.workers == 1 or nblocks <= 1:
            fn(range(nblocks))
            return
        bounds = np.linspace(0, nblocks, min(self.workers, nblocks) + 1).astype(int)
        chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        futures = [self._executor.submit(fn, ch) for ch in chunks]
        for fut in futures:
            fut.result()

    def shutdown(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _inline_run(fn, nblocks):
    fn(range(nblocks))


@dataclass
class ActiveWeights:
    """Active-set penalty weights: entry i holds (Sigma_y)_ii when the
    shifted constraint value is outside its interval, 0 inside."""

    sigma_active: CompactBatch
    mask: np.ndarray  # boolean, aligned with sigma_active.data

    def same_active_set(self, other):
        return other is not None and np.array_equal(self.mask, other.mask)


def compute_active_weights(problem, sigma_y, y, x):
    """Evaluate the active weights at z = Gx + Sigma_y^{-1} y."""
    z = model.mul_G(problem, x)
    z.data += y.data / sigma_y.data
    return weights_from_shifted(problem, sigma_y, z)


def weights_from_shifted(problem, sigma_y, z):
    """Active weights from a precomputed shifted value z (shared with the
    gradient evaluation to avoid recomputing Gx)."""
    inside = (z.data >= problem.bl.data) & (z.data <= problem.bu.data)
    sig = CompactBatch(
        z.rows, 1, z.nblocks, z.d, np.where(inside, 0.0, sigma_y.data)
    )
    return ActiveWeights(sig, ~inside)


def _lane_stack(batch):
    """Constant mirror of a CompactBatch as a (nblocks, d, rows, cols) array."""
    return np.ascontiguousarray(
        batch.to_stack().reshape(batch.nblocks, batch.d, batch.rows, batch.cols)
    )


@dataclass
class StageFactorization:
    """Workspaces and results of one stage-structured factorization.

    ``linv_lm``, ``vwt_lm`` and ``p_lm`` are lane stacks (nblocks, d, ...):
    the inverses L_j^{-1} of the per-stage Cholesky factors of H (dense
    variant only), the panels (V_j; W_j)^T = L_j^{-1} [A B; I 0]^T, and the
    products J_j J_j^T that the Psi blocks are sliced from.  The
    CompactBatch views ``V`` and ``W`` are materialized on demand.
    ``psi_band`` holds Psi, then its Cholesky factor, in LAPACK band storage;
    ``band_diag`` and ``band_sub`` are views of its blocks.
    """

    problem: object
    variant: str
    H: CompactBatch
    h_diag: CompactBatch | None
    linv_lm: np.ndarray
    vwt_lm: np.ndarray
    p_lm: np.ndarray
    ewt_lm: np.ndarray  # constant [A B; I 0]^T lanes
    con_lm: np.ndarray  # constant [C D] lanes
    scaled_lm: np.ndarray  # scratch for the weighted constraint panel
    psi_diag: np.ndarray
    psi_sub: np.ndarray
    psi_band: np.ndarray
    band_diag: np.ndarray
    band_sub: np.ndarray

    @classmethod
    def allocate(cls, problem, variant="dense"):
        d = problem.dims
        nb, lw = problem.cost.nblocks, d.d
        n_xu, n_x = d.n_xu, d.n_x
        ew = np.zeros((nb, lw, n_xu, 2 * n_x))
        dyn = _lane_stack(problem.dyn)  # (nb, lw, n_x, n_xu)
        ew[:, :, :, :n_x] = dyn.transpose(0, 1, 3, 2)
        ew[:, :, :n_x, n_x:] = np.eye(n_x)
        band = np.zeros((2 * n_x, (d.N + 1) * n_x), order="F")
        return cls(
            problem=problem,
            variant=variant,
            H=CompactBatch(n_xu, n_xu, nb, lw),
            h_diag=CompactBatch(n_xu, 1, nb, lw) if variant == "diagonal" else None,
            linv_lm=np.zeros((nb, lw, n_xu, n_xu)),
            vwt_lm=np.zeros((nb, lw, n_xu, 2 * n_x)),
            p_lm=np.zeros((nb, lw, 2 * n_x, 2 * n_x)),
            ewt_lm=ew,
            con_lm=_lane_stack(problem.con),
            scaled_lm=np.zeros((nb, lw, d.n_y_pad, n_xu)),
            psi_diag=np.zeros((d.N + 1, n_x, n_x)),
            psi_sub=np.zeros((d.N, n_x, n_x)),
            psi_band=band,
            band_diag=_band_blocks(band, 0, d.N + 1),
            band_sub=_band_blocks(band, n_x, d.N),
        )

    # views of the factors, for inspection and tests

    def _vwt_slice(self, col0, col1):
        nb, lw, n_xu, _ = self.vwt_lm.shape
        stack = self.vwt_lm[:, :, :, col0:col1].transpose(0, 1, 3, 2)
        return CompactBatch.from_stack(
            np.ascontiguousarray(stack).reshape(nb * lw, col1 - col0, n_xu),
            self.problem.dims.d,
        )

    @property
    def V(self):
        return self._vwt_slice(0, self.problem.dims.n_x)

    @property
    def W(self):
        n_x = self.problem.dims.n_x
        return self._vwt_slice(n_x, 2 * n_x)

    @property
    def l_psi_diag(self):
        return np.tril(self.band_diag)

    @property
    def l_psi_sub(self):
        return self.band_sub.copy()


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


def assemble_H(problem, weights, sigma_x_inv, out=None, blocks=None, work=None):
    """Per-stage generalized Hessian blocks (lower triangle authoritative):

        H_j = [[Q_j, S_j^T], [S_j, R_j]] + [C_j D_j]^T Sigma_j [C_j D_j]
              + diag(sigma_x_inv)_j

    The proximal diagonal keeps every block positive definite even when the
    cost block alone is only positive semidefinite.  ``work`` supplies the
    constant [C_j D_j] lane mirror and scratch; without it they are gathered
    on the fly.
    """
    d = problem.dims
    if out is None:
        out = CompactBatch(d.n_xu, d.n_xu, problem.cost.nblocks, d.d)
    h4, qs4 = out.view4(), problem.cost.view4()
    sx4, w4 = sigma_x_inv.view4(), weights.sigma_active.view4()
    idx = np.arange(d.n_xu)
    ii, jj = np.tril_indices(d.n_xu)
    rng = range(out.nblocks) if blocks is None else blocks
    for bi in rng:
        np.copyto(h4[bi], qs4[bi])
        h4[bi][idx, idx, :] += sx4[bi, 0]
        if d.n_y_pad == 0:
            continue
        if work is not None:
            con = work.con_lm[bi]
            scaled = work.scaled_lm[bi]
        else:
            con = _gather_con(problem, bi)
            scaled = np.empty_like(con)
        root = np.sqrt(w4[bi, 0].T)[:, :, None]  # (d, n_y, 1)
        np.multiply(con, root, out=scaled)
        full = np.matmul(scaled.transpose(0, 2, 1), scaled)  # (d, n_xu, n_xu)
        oc = h4[bi].transpose(1, 0, 2)
        oc[ii, jj] += full[:, ii, jj].T
    return out


def _gather_con(problem, bi):
    c4 = problem.con.view4()
    return np.ascontiguousarray(c4[bi].transpose(2, 1, 0))


def factor_chunk_dense(f, chunk):
    """Dense per-stage pipeline over one block range: batched Cholesky of
    the H lanes, one trtri per lane replacing L by L^{-1}, one batched
    matmul for the combined (V; W)^T panel, and one J J^T product
    holding every Psi contribution of the block."""
    h4 = f.H.view4()
    d = f.H.d
    failures = []
    for bi in chunk:
        lanes = h4[bi].transpose(2, 1, 0)  # (d, m, m); lower triangle is read
        linv = f.linv_lm[bi]
        try:
            linv[:] = np.linalg.cholesky(lanes)
        except np.linalg.LinAlgError:
            for t in range(d):
                try:
                    linv[t] = np.linalg.cholesky(lanes[t])
                except np.linalg.LinAlgError:
                    row, lower = _masked_scalar_chol(lanes[t])
                    linv[t] = lower
                    failures.append((bi * d + t, row))
        for t in range(d):
            linv[t] = _trtri(linv[t], lower=1)[0]
        np.matmul(linv, f.ewt_lm[bi], out=f.vwt_lm[bi])
        np.matmul(
            f.vwt_lm[bi].transpose(0, 2, 1), f.vwt_lm[bi], out=f.p_lm[bi]
        )
    if failures:
        raise NonPositivePivot(sorted(failures))


def factor_chunk_diagonal(f, chunk):
    """Diagonal fast path: H_j is diagonal, so the Cholesky factor is a
    square root and the panel solve collapses to a row scaling of the
    constant [A B; I 0]^T lanes."""
    d = f.problem.dims
    h4 = f.H.view4()
    hd4 = f.h_diag.view4()
    idx = np.arange(d.n_xu)
    for bi in chunk:
        diag = h4[bi][idx, idx, :]  # (n_xu, lanes)
        bad = ~(diag > 0.0)
        if bad.any():
            ci, ct = np.argwhere(bad)[0]
            raise NonPositivePivot([(bi * f.H.d + int(ct), int(ci))])
        hd4[bi, 0] = diag
        inv = 1.0 / np.sqrt(diag.T)  # (lanes, n_xu)
        np.multiply(f.ewt_lm[bi], inv[:, :, None], out=f.vwt_lm[bi])
        np.matmul(
            f.vwt_lm[bi].transpose(0, 2, 1), f.vwt_lm[bi], out=f.p_lm[bi]
        )


def assemble_psi(f):
    """Slice the per-stage J J^T products into the block-tridiagonal Psi:
    Psi_00 = W0 W0^T, Psi_{j+1,j+1} = Vj Vj^T + W_{j+1} W_{j+1}^T,
    Psi_{j+1,j} = -Vj Wj^T."""
    dm = f.problem.dims
    N, n_x = dm.N, dm.n_x
    nb, lw = f.p_lm.shape[:2]
    P = f.p_lm.reshape(nb * lw, 2 * n_x, 2 * n_x)
    f.psi_diag[0] = P[0, n_x:, n_x:]
    f.psi_diag[1:] = P[:N, :n_x, :n_x] + P[1 : N + 1, n_x:, n_x:]
    f.psi_diag += f.psi_diag.transpose(0, 2, 1).copy()
    f.psi_diag *= 0.5
    f.psi_sub[:] = -P[:N, :n_x, n_x:]
    return f


def factor_stages(H, problem, work=None, pool=None, variant="dense"):
    """Factor the block-diagonal H and form the Psi blocks, stage-parallel.

    ``H`` is the assembled CompactBatch (see :func:`assemble_H`); the result
    carries the stage factors and the Psi blocks, ready for
    :func:`factor_psi`.
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
    run(lambda ch: chunk_fn(work, ch), H.nblocks)
    assemble_psi(work)
    return work


def factor_psi(f):
    """Cholesky factor of Psi, block-bidiagonal, by one banded LAPACK call:
    copy the lower triangles of ``psi_diag`` and the blocks ``psi_sub`` into
    ``psi_band`` and factor it in place with dpbtrf.  A failed leading minor
    names the stage whose block it falls in."""
    f.psi_band.fill(0.0)  # a NaN in Psi spreads into slots outside the blocks
    np.copyto(f.band_diag, f.psi_diag, where=np.tri(f.psi_diag.shape[1], dtype=bool))
    np.copyto(f.band_sub, f.psi_sub)
    _, info = _pbtrf(f.psi_band, lower=1, overwrite_ab=1)
    if info > 0:
        raise NonPositivePivot([((info - 1) // f.problem.dims.n_x, -1)])
    return f


def solve_H(f, rhs, out=None):
    """Per-stage solve H_j z_j = rhs_j with the stored inverse factors:
    z = L^{-T} (L^{-1} rhs), two batched matmuls over every lane of every
    block (a row scaling on the diagonal path)."""
    if out is None:
        out = rhs.zeros_like()
    if f.variant == "diagonal":
        np.divide(rhs.data, f.h_diag.data, out=out.data)
        return out
    b = rhs.view4()[:, 0].transpose(0, 2, 1)[..., None]  # (nblocks, d, m, 1)
    z = np.matmul(f.linv_lm.transpose(0, 1, 3, 2), np.matmul(f.linv_lm, b))
    out.view4()[:, 0] = z[..., 0].transpose(0, 2, 1)
    return out


def psi_solve(f, rhs_stack):
    """Solve Psi x = rhs for the (N + 1, n_x) stack with the banded factor:
    forward and back substitution in one dpbtrs call."""
    x, _ = _pbtrs(f.psi_band, rhs_stack.reshape(-1, 1), lower=1)
    return x.reshape(rhs_stack.shape)


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
    rhs = eq_residual.to_stack()[:, :, 0] - mv.to_stack()[:, :, 0]
    N = problem.dims.N
    full = np.zeros((problem.cost.nstages, problem.dims.n_x, 1))
    full[: N + 1, :, 0] = psi_solve(f, rhs[: N + 1])
    dlam = CompactBatch.from_stack(full, problem.dims.d, problem.cost.nstages)

    lam_new = lam.zeros_like()
    np.add(lam.data, dlam.data, out=lam_new.data)
    g3 = model.mul_MT(problem, lam_new)
    g3.data += grad_phi.data
    dx = solve_H(f, g3)
    dx.data *= -1.0
    return dx, dlam
