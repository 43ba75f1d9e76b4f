import numpy as np
import pytest

from ocpqp import kkt, model, oracles
from ocpqp.alm import SIGMA_MAX, Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_spring_mass
from ocpqp.compact import NonPositivePivot
from ocpqp.kkt import (
    StructureMismatch,
    WorkerPool,
    assemble_H,
    factor_psi,
    factor_stages,
    solve_H,
    solve_newton,
    weights_from_shifted,
)

from test_model import random_problem


def uniform_vec(problem, rows_kind, value):
    v = getattr(problem, f"{rows_kind}_zeros")()
    v.data[:] = value
    return v


def make_weights(problem, x_flat, sigma=1.0, y_flat=None):
    sy = uniform_vec(problem, "dualineq", sigma)
    y = problem.dualineq_zeros()
    if y_flat is not None:
        y = problem.dualineq_from_flat(y_flat)
    z = model.mul_G(problem, problem.primal_from_flat(x_flat))
    z.data += y.data / sy.data
    return weights_from_shifted(problem, sy, z)


def dense_H(problem, weights, delta):
    dq = oracles.assemble_dense(problem)
    sig = problem.dualineq_to_flat(weights)
    return dq.Q + dq.G.T @ np.diag(sig) @ dq.G + delta * np.eye(problem.dims.n), dq


def dense_psi(problem, Hd, dq):
    return dq.M @ np.linalg.solve(Hd, dq.M.T)


# one worker runs every stage inline and holds no threads
INLINE = WorkerPool(1)


def assembled(problem, weights, sxinv):
    """The H_j of every stage, assembled in a fresh workspace."""
    return assemble_H(kkt.StageFactorization.allocate(problem), weights, sxinv).H


def factor_all(problem, weights, delta, variant="dense", workers=1):
    sxinv = uniform_vec(problem, "primal", delta)
    work = kkt.StageFactorization.allocate(problem, variant)
    assemble_H(work, weights, sxinv)
    pool = WorkerPool(workers)
    try:
        factor_stages(work, pool)
    finally:
        pool.shutdown()
    return work


class TestActiveWeights:
    def test_all_infinite_bounds(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, N=3, infinite=True)
        w = make_weights(p, rng.standard_normal(p.dims.n))
        assert np.all(w.data == 0.0)

    def test_interior_point_zero_weights(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, N=3)
        w = make_weights(p, np.zeros(p.dims.n))  # z = 0, bounds straddle mid +- 1
        gx = np.zeros(p.dims.m)
        blf, buf = p.flat_bounds()
        inside = (gx >= blf) & (gx <= buf)
        sig = p.dualineq_to_flat(w)
        assert np.array_equal(sig == 0.0, inside)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, N=4, n_y=3, n_yN=2)
        x = rng.standard_normal(p.dims.n)
        y = rng.standard_normal(p.dims.m)
        sigma = 2.5
        w = make_weights(p, x, sigma=sigma, y_flat=y)
        dq = oracles.assemble_dense(p)
        z = dq.G @ x + y / sigma
        expect = np.where((z >= dq.bl) & (z <= dq.bu), 0.0, sigma)
        assert np.array_equal(p.dualineq_to_flat(w), expect)

    def test_boundary_counts_as_inactive(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, N=2, n_y=1, n_yN=1)
        dq = oracles.assemble_dense(p)
        # place z exactly on the upper bound of row 0 via y with x = 0
        y = np.zeros(p.dims.m)
        y[0] = dq.bu[0]
        w = make_weights(p, np.zeros(p.dims.n), sigma=1.0, y_flat=y)
        assert p.dualineq_to_flat(w)[0] == 0.0

    def test_idempotent_mask(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, N=3)
        x = rng.standard_normal(p.dims.n)
        w1 = make_weights(p, x, sigma=3.0)
        w2 = make_weights(p, x, sigma=3.0)
        assert np.array_equal(w1.data != 0.0, w2.data != 0.0)
        assert np.array_equal(w1.data, w2.data)


class TestAssembleH:
    def test_no_active_rows_gives_cost_plus_delta(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, N=3, infinite=True)
        w = make_weights(p, rng.standard_normal(p.dims.n))
        sxinv = uniform_vec(p, "primal", 0.125)
        H = assembled(p, w, sxinv)
        for j in range(p.dims.N + 1):
            want = p.cost.stack[j].copy() + 0.125 * np.eye(p.dims.n_xu)
            got = H.stack[j].copy()
            low = np.tril_indices(p.dims.n_xu)
            assert np.allclose(got[low], want[low], atol=1e-15)

    def test_matches_dense_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(2):
            p = random_problem(rng, N=4, n_x=3, n_u=2, n_y=3, n_yN=1)
            x = rng.standard_normal(p.dims.n)
            w = make_weights(p, x, sigma=1.7)
            delta = 1e-3
            Hd, dq = dense_H(p, w, delta)
            H = assembled(p, w, uniform_vec(p, "primal", delta))
            dm = p.dims
            low = np.tril_indices(dm.n_xu)
            for j in range(dm.N):
                c0 = j * dm.n_xu
                want = Hd[c0 : c0 + dm.n_xu, c0 : c0 + dm.n_xu]
                assert np.max(np.abs((H.stack[j].copy() - want)[low])) < 1e-13 * (1 + np.max(np.abs(want)))
            cN = dm.N * dm.n_xu
            wantN = Hd[cN : cN + dm.n_x, cN : cN + dm.n_x]
            gotN = H.stack[dm.N].copy()[: dm.n_x, : dm.n_x]
            lowN = np.tril_indices(dm.n_x)
            assert np.max(np.abs((gotN - wantN)[lowN])) < 1e-13 * (1 + np.max(np.abs(wantN)))

    @pytest.mark.parametrize("stages", ([2, 3, 4, 5], [0, 3, 4, 9]))
    def test_stage_set_touches_only_its_stages(self, stages):
        # assembling a stage set (one run, or scattered) writes exactly those
        # stages, with the bits a full assembly gives them
        rng = np.random.default_rng(12)
        p = random_problem(rng, N=9, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=2.0)
        sxinv = uniform_vec(p, "primal", 1e-2)
        full = assembled(p, w, sxinv)
        work = kkt.StageFactorization.allocate(p)
        part = work.H
        part.data[:] = np.nan
        assemble_H(work, w, sxinv, stages=np.array(stages))
        others = np.setdiff1d(np.arange(p.cost.nstages), stages)
        assert np.array_equal(part.stack[stages], full.stack[stages])
        assert np.all(np.isnan(part.stack[others]))

    def test_blocks_are_symmetric(self):
        # the full weighted product is added, so both triangles hold H_j
        rng = np.random.default_rng(13)
        p = random_problem(rng, N=5, n_x=4, n_u=2, n_y=3, n_yN=2)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1e3)
        H = assembled(p, w, uniform_vec(p, "primal", 1e-4))
        sym = H.stack.transpose(0, 2, 1)
        assert np.max(np.abs(H.stack - sym)) <= 1e-14 * np.max(np.abs(H.stack))


class TestFactorStages:
    def test_identity_algebra(self):
        # A = I, B = 0, H = I: V = W = [I 0], Psi diag 2I (I at stage 0), sub -I
        N, n_x, n_u = 4, 3, 2
        p = model.OcpProblem.from_stages(
            Q=np.eye(n_x), S=np.zeros((N, n_u, n_x)), R=np.eye(n_u),
            q=np.zeros((N, n_x)), r=np.zeros((N, n_u)), A=np.eye(n_x),
            B=np.zeros((N, n_x, n_u)), c=np.zeros((N, n_x)),
            C=np.zeros((N, 0, n_x)), D=np.zeros((N, 0, n_u)),
            bl=np.zeros((N, 0)), bu=np.zeros((N, 0)), Q_N=np.eye(n_x),
            q_N=np.zeros(n_x), C_N=np.zeros((0, n_x)), bl_N=np.zeros(0),
            bu_N=np.zeros(0), x_init=np.zeros(n_x),
        )
        w = make_weights(p, np.zeros(p.dims.n))
        work = factor_all(p, w, 0.0)
        # vwt_lm[j] holds the panels (V_j; W_j)^T side by side
        eye_pad = np.vstack([np.eye(n_x), np.zeros((n_u, n_x))])
        for j in range(N):
            assert np.allclose(work.vwt_lm[j, :, :n_x], eye_pad, atol=1e-14)
            assert np.allclose(work.vwt_lm[j, :, n_x:], eye_pad, atol=1e-14)
        assert np.allclose(work.psi_diag[0], np.eye(n_x), atol=1e-14)
        for j in range(1, N + 1):
            assert np.allclose(work.psi_diag[j], 2 * np.eye(n_x), atol=1e-14)
        assert np.allclose(work.psi_sub, -np.broadcast_to(np.eye(n_x), (N, n_x, n_x)), atol=1e-14)

    def test_single_stage_shapes(self):
        rng = np.random.default_rng(20)
        p = random_problem(rng, N=1, n_x=2, n_u=1)
        w = make_weights(p, np.zeros(p.dims.n))
        work = factor_all(p, w, 1e-3)
        assert work.psi_diag.shape == (2, 2, 2)
        assert work.psi_sub.shape == (1, 2, 2)

    @pytest.mark.parametrize("seed", (30, 31, 32))
    def test_psi_matches_dense_schur(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            p = random_problem(rng, N=int(rng.integers(1, 7)), n_x=int(rng.integers(1, 5)),
                               n_u=int(rng.integers(1, 3)), n_y=2, n_yN=1)
            x = rng.standard_normal(p.dims.n)
            w = make_weights(p, x, sigma=2.0)
            delta = 1e-2
            work = factor_all(p, w, delta)
            Hd, dq = dense_H(p, w, delta)
            psi_want = dense_psi(p, Hd, dq)
            dm = p.dims
            scale = np.max(np.abs(psi_want))
            for j in range(dm.N + 1):
                r0 = j * dm.n_x
                want = psi_want[r0 : r0 + dm.n_x, r0 : r0 + dm.n_x]
                assert np.max(np.abs(work.psi_diag[j] - want)) < 1e-11 * scale
                if j < dm.N:
                    r1 = (j + 1) * dm.n_x
                    wsub = psi_want[r1 : r1 + dm.n_x, r0 : r0 + dm.n_x]
                    assert np.max(np.abs(work.psi_sub[j] - wsub)) < 1e-11 * scale

    def test_worker_count_bit_identical(self):
        rng = np.random.default_rng(40)
        p = random_problem(rng, N=13, n_x=3, n_u=2, n_y=2, n_yN=1)
        x = rng.standard_normal(p.dims.n)
        w = make_weights(p, x, sigma=1.0)
        w1 = factor_all(p, w, 1e-3, workers=1)
        w4 = factor_all(p, w, 1e-3, workers=4)
        for name in ("linv_lm", "vwt_lm", "p_lm", "psi_diag", "psi_sub"):
            assert np.array_equal(getattr(w1, name), getattr(w4, name))

    @pytest.mark.parametrize("workers", (1, 2))
    def test_failed_stage_does_not_poison_siblings(self, workers):
        # one non-PD stage among ten: the batched Cholesky of the range
        # fails, the per-stage retry names exactly that stage, and
        # every sibling still holds its own inverse factor; with 2 workers
        # the failing stage lies in a range that does not start at stage 0
        rng = np.random.default_rng(41)
        p = random_problem(rng, N=9, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = kkt.StageFactorization.allocate(p)
        assemble_H(work, w, uniform_vec(p, "primal", 1e-3))
        bad = 5
        work.H.stack[bad] = -np.eye(p.dims.n_xu)
        pool = WorkerPool(workers)
        try:
            with pytest.raises(NonPositivePivot) as exc:
                factor_stages(work, pool)
        finally:
            pool.shutdown()
        assert exc.value.failures == [(bad, 0)]
        for j in range(work.H.nstages):
            if j == bad:
                continue
            want = np.linalg.inv(np.linalg.cholesky(work.H.stack[j].copy()))
            err = np.max(np.abs(work.linv_lm[j] - want)) / np.max(np.abs(want))
            assert err <= 1e-12

    @pytest.mark.parametrize("N", (1, 3, 6, 7))
    def test_inverse_factor_reconstruction(self, N):
        # every stage slot holds a lower-triangular L^{-1} with
        # L^{-1} H L^{-T} = I
        rng = np.random.default_rng(42 + N)
        p = random_problem(rng, N=N, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=10.0)
        work = factor_all(p, w, 1e-3)
        eye = np.eye(p.dims.n_xu)
        assert work.H.nstages == N + 1
        for j in range(work.H.nstages):
            linv = work.linv_lm[j]
            assert np.array_equal(linv, np.tril(linv))
            rec = linv @ work.H.stack[j].copy() @ linv.T
            assert np.max(np.abs(rec - eye)) < 1e-11

    def test_identity_and_scaled(self):
        # H_j = c_j I gives L^{-1} = I / sqrt(c_j) exactly for square c_j
        rng = np.random.default_rng(43)
        p = random_problem(rng, N=3, n_x=2, n_u=1)
        work = kkt.StageFactorization.allocate(p)
        scales = (1.0, 4.0, 0.25, 16.0)
        for j, c in enumerate(scales):
            work.H.stack[j] = c * np.eye(p.dims.n_xu)
        factor_stages(work, INLINE)
        for j, c in enumerate(scales):
            assert np.array_equal(work.linv_lm[j], np.eye(p.dims.n_xu) / np.sqrt(c))

    @pytest.mark.parametrize("row", (0, 2, 4))
    def test_failure_reports_stage_and_row(self, row):
        # H_j = I with pivot ``row`` negated: the first non-positive pivot
        # that LAPACK potrf meets is that row
        rng = np.random.default_rng(44)
        p = random_problem(rng, N=5, n_x=3, n_u=2)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = kkt.StageFactorization.allocate(p)
        assemble_H(work, w, uniform_vec(p, "primal", 1e-3))
        h = np.eye(p.dims.n_xu)
        h[row, row] = -1.0
        work.H.stack[3] = h
        with pytest.raises(NonPositivePivot) as exc:
            factor_stages(work, INLINE)
        assert (exc.value.stage, exc.value.row) == (3, row)
        assert exc.value.failures == [(3, row)]

    def test_diagonal_failure_reports_stage_and_row(self):
        rng = np.random.default_rng(45)
        p = diagonal_problem(rng, N=4, n_x=2, n_u=1)
        work = kkt.StageFactorization.allocate(p, "diagonal")
        for j in range(work.H.nstages):
            work.H.stack[j] = np.eye(p.dims.n_xu)
        work.H.stack[2] = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(NonPositivePivot) as exc:
            factor_stages(work, INLINE)
        assert exc.value.failures == [(2, 1)]


class TestSolveH:
    @pytest.mark.parametrize("seed", (50, 51, 52, 53))
    def test_against_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, N=5, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=5.0)
        work = factor_all(p, w, 1e-3)
        rhs = p.primal_from_flat(rng.standard_normal(p.dims.n))
        z = solve_H(work, rhs)
        for j in range(work.H.nstages):
            want = np.linalg.solve(work.H.stack[j].copy(), rhs.stack[j].copy())
            assert np.max(np.abs(z.stack[j].copy() - want)) <= 1e-12 * (1 + np.max(np.abs(want)))

    def test_backward_error_wide_penalties(self):
        # penalties log-uniform over 13 decades: the stage solves stay
        # backward stable, ||H z - b|| <= 1e-13 (||H|| ||z|| + ||b||)
        rng = np.random.default_rng(55)
        p = random_problem(rng, N=7, n_x=3, n_u=2, n_y=4, n_yN=2)
        sy = p.dualineq_zeros()
        sy.data[:] = 10.0 ** rng.uniform(-4.0, 9.0, sy.data.size)
        z = p.dualineq_zeros()
        z.data[:] = np.inf  # every row active
        w = weights_from_shifted(p, sy, z)
        work = factor_all(p, w, 1e-3)
        b = p.primal_from_flat(rng.standard_normal(p.dims.n))
        x = solve_H(work, b)
        for j in range(work.H.nstages):
            Hj, xj, bj = work.H.stack[j].copy(), x.stack[j].copy(), b.stack[j].copy()
            res = np.linalg.norm(Hj @ xj - bj)
            scale = np.linalg.norm(Hj, 2) * np.linalg.norm(xj) + np.linalg.norm(bj)
            assert res <= 1e-13 * scale

    def test_stage_independence(self):
        # changing one stage's right-hand side changes only that stage's
        # solution, bit for bit
        rng = np.random.default_rng(56)
        p = random_problem(rng, N=6, n_x=3, n_u=2)
        work = factor_all(p, make_weights(p, rng.standard_normal(p.dims.n)), 1e-3)
        rhs = p.primal_from_flat(rng.standard_normal(p.dims.n))
        z0 = solve_H(work, rhs)
        rhs.stack[3] += 1.0
        z1 = solve_H(work, rhs)
        changed = [j for j in range(z0.nstages) if not np.array_equal(z0.stack[j], z1.stack[j])]
        assert changed == [3]

    def test_deterministic_and_out_overwritten(self):
        rng = np.random.default_rng(57)
        p = random_problem(rng, N=5, n_x=3, n_u=2)
        work = factor_all(p, make_weights(p, rng.standard_normal(p.dims.n)), 1e-3)
        rhs = p.primal_from_flat(rng.standard_normal(p.dims.n))
        z0 = solve_H(work, rhs)
        out = rhs.zeros_like()
        out.data[:] = np.nan
        assert solve_H(work, rhs, out=out) is out
        assert np.array_equal(out.data, z0.data)


def dense_from_blocks(diag, sub):
    """The dense symmetric Psi from its diagonal and sub-diagonal blocks."""
    n_x = diag.shape[1]
    D = np.zeros((diag.shape[0] * n_x,) * 2)
    for j, blk in enumerate(diag):
        D[j * n_x : (j + 1) * n_x, j * n_x : (j + 1) * n_x] = blk
    for j, blk in enumerate(sub):
        D[(j + 1) * n_x : (j + 2) * n_x, j * n_x : (j + 1) * n_x] = blk
        D[j * n_x : (j + 1) * n_x, (j + 1) * n_x : (j + 2) * n_x] = blk.T
    return D


def reverse_blocks(D, n_x):
    """P D P^T, where P reverses the order of the n_x x n_x blocks."""
    nb = D.shape[0] // n_x
    perm = (np.arange(nb)[::-1, None] * n_x + np.arange(n_x)).ravel()
    return D[np.ix_(perm, perm)]


def band_factor(work):
    """The dense lower factor held in ``psi_band``, read straight from LAPACK
    lower band storage (entry (i, k) at band[i - k, k]), in band order."""
    band = work.psi_band
    n = band.shape[1]
    L = np.zeros((n, n))
    for t in range(band.shape[0]):
        k = np.arange(n - t)
        L[k + t, k] = band[t, : n - t]
    return L


class TestFactorPsi:
    def test_decoupled_blocks(self):
        rng = np.random.default_rng(50)
        p = random_problem(rng, N=1, n_x=2, n_u=1)
        work = kkt.StageFactorization.allocate(p)
        work.psi_diag[0] = 4 * np.eye(2)
        work.psi_diag[1] = 9 * np.eye(2)
        work.psi_sub[0] = 0.0
        factor_psi(work)
        assert np.allclose(np.tril(work.band_diag[0]), 2 * np.eye(2))
        assert np.allclose(np.tril(work.band_diag[1]), 3 * np.eye(2))
        assert np.allclose(work.band_sub[0], 0.0)

    def test_reconstruction_model_psi(self):
        rng = np.random.default_rng(51)
        p = random_problem(rng, N=5, n_x=3, n_u=2)
        work = kkt.StageFactorization.allocate(p)
        for j in range(6):
            work.psi_diag[j] = 2 * np.eye(3)
        work.psi_sub[:] = -np.eye(3)
        factor_psi(work)
        dense = reverse_blocks(dense_from_blocks(work.psi_diag, work.psi_sub), 3)
        Ld = band_factor(work)
        assert np.max(np.abs(Ld @ Ld.T - dense)) < 1e-13 * np.max(np.abs(dense))

    def test_matches_dense_cholesky(self):
        rng = np.random.default_rng(52)
        p = random_problem(rng, N=4, n_x=3, n_u=2, n_y=2, n_yN=1)
        x = rng.standard_normal(p.dims.n)
        w = make_weights(p, x, sigma=1.2)
        work = factor_all(p, w, 1e-2)
        factor_psi(work)
        Hd, dq = dense_H(p, w, 1e-2)
        psi = dense_psi(p, Hd, dq)
        dm = p.dims
        Ld = np.linalg.cholesky(reverse_blocks(psi, dm.n_x))
        scale = np.max(np.abs(Ld))
        got = band_factor(work)
        # stage j sits at block position N - j of the band
        for j in range(dm.N + 1):
            r = (dm.N - j) * dm.n_x
            blk = slice(r, r + dm.n_x)
            assert np.max(np.abs(np.tril(work.band_diag[j]) - Ld[blk, blk])) < 1e-11 * scale
            if j < dm.N:
                up = slice(r - dm.n_x, r)
                assert np.max(np.abs(work.band_sub[j] - Ld[blk, up])) < 1e-11 * scale
        assert np.max(np.abs(got - Ld)) < 1e-11 * scale

    def test_nonpd_raises(self):
        rng = np.random.default_rng(53)
        p = random_problem(rng, N=1, n_x=2, n_u=1)
        work = kkt.StageFactorization.allocate(p)
        work.psi_diag[0] = -np.eye(2)
        with pytest.raises(NonPositivePivot):
            factor_psi(work)


class TestBandedPsi:
    """factor_psi and psi_solve against dense factorizations of the same Psi."""

    def setup_workspace(self):
        rng = np.random.default_rng(55)
        p = random_problem(rng, N=5, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.2)
        return p, w, factor_all(p, w, 1e-2)

    def assert_refactors_clean(self, work, p, w):
        # the same workspace, factored again, holds what a fresh one holds
        factor_psi(work)
        fresh = factor_psi(factor_all(p, w, 1e-2))
        assert np.array_equal(work.psi_band, fresh.psi_band)
        psi = dense_from_blocks(work.psi_diag, work.psi_sub)
        Ld = np.linalg.cholesky(reverse_blocks(psi, p.dims.n_x))
        assert np.max(np.abs(band_factor(work) - Ld)) <= 1e-11 * np.max(np.abs(Ld))

    @pytest.mark.parametrize("stage", ("2", "N", "0"))
    def test_pivot_failure_names_stage(self, stage):
        # stage N is the first block of the band, stage 0 the last
        p, w, work = self.setup_workspace()
        k = p.dims.N if stage == "N" else int(stage)
        good = work.psi_diag[k].copy()
        # the negative pivot is the block's last row, where an off-by-one
        # in the row-to-stage mapping would name stage k - 1
        work.psi_diag[k] = np.diag([1.0, 1.0, -1.0]) * np.max(np.abs(good))
        with pytest.raises(NonPositivePivot) as exc:
            factor_psi(work)
        assert exc.value.stage == k
        work.psi_diag[k] = good
        self.assert_refactors_clean(work, p, w)

    def test_nan_leaves_nothing_stale(self):
        # a NaN in Psi spreads into band slots outside the block profile
        p, w, work = self.setup_workspace()
        good = work.psi_sub[2].copy()
        work.psi_sub[2][1, 0] = np.nan
        try:
            factor_psi(work)
        except NonPositivePivot:
            pass
        assert np.isnan(work.psi_band).any()
        work.psi_sub[2] = good
        self.assert_refactors_clean(work, p, w)

    @pytest.mark.parametrize("block,stage", (("sub", 3), ("diag", 4)))
    def test_nan_names_stage(self, block, stage):
        # a NaN in Psi is a failed pivot of the block row it sits in, in the
        # band's reversed order: Psi_{4,3} = psi_sub[3] enters the band
        # transposed, in the block row of stage 3, and psi_diag[4] in that of
        # stage 4
        p, w, work = self.setup_workspace()
        if block == "sub":
            work.psi_sub[3][1, 0] = np.nan
        else:
            work.psi_diag[4][0, 0] = np.nan
        with pytest.raises(NonPositivePivot) as exc:
            factor_psi(work)
        assert exc.value.failures == [(stage, -1)]

    def problems(self):
        rng = np.random.default_rng(56)
        yield random_problem(rng, N=1, n_x=1, n_u=1, n_y=1, n_yN=1), "dense"
        yield random_problem(rng, N=9, n_x=4, n_u=2, n_y=2, n_yN=1), "dense"
        sm = gen_spring_mass(SpringMassConfig(masses=70, horizon=15, seed=4))
        yield sm, "diagonal"

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(57)
        for p, variant in self.problems():
            w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.5)
            work = factor_psi(factor_all(p, w, 1e-3, variant=variant))
            dm = p.dims
            rhs = rng.standard_normal((dm.N + 1, dm.n_x))
            want = np.linalg.solve(
                dense_from_blocks(work.psi_diag, work.psi_sub), rhs.ravel()
            )
            got = kkt.psi_solve(work, rhs)
            assert got.shape == rhs.shape
            assert np.max(np.abs(got.ravel() - want)) <= 1e-11 * np.max(np.abs(want))


class TestSolveNewton:
    def test_zero_rhs_gives_zero_step(self):
        rng = np.random.default_rng(60)
        p = random_problem(rng, N=3, n_x=2, n_u=1)
        w = make_weights(p, np.zeros(p.dims.n))
        work = factor_all(p, w, 1e-3)
        factor_psi(work)
        dx, dlam = solve_newton(work, p.primal_zeros(), p.dualeq_zeros())
        assert np.all(dx.data == 0.0)
        assert np.all(dlam.data == 0.0)

    def test_hand_sized_against_dense(self):
        rng = np.random.default_rng(61)
        p = random_problem(rng, N=1, n_x=1, n_u=1, n_y=1, n_yN=1)
        x = rng.standard_normal(p.dims.n)
        w = make_weights(p, x, sigma=2.0)
        delta = 1e-2
        work = factor_all(p, w, delta)
        factor_psi(work)
        Hd, dq = dense_H(p, w, delta)
        assert Hd.shape == (3, 3) and dq.M.shape == (2, 3)  # 5x5 saddle system
        g = rng.standard_normal(3)
        r = rng.standard_normal(2)
        dx_d, dl_d = oracles.dense_newton_solve(Hd, dq.M, g, r)
        dx, dlam = solve_newton(work, p.primal_from_flat(g), p.dualeq_from_flat(r))
        assert np.allclose(p.primal_to_flat(dx), dx_d, atol=1e-12)
        assert np.allclose(p.dualeq_to_flat(dlam), dl_d, atol=1e-12)

    @pytest.mark.parametrize("seed", (70, 71))
    def test_kkt_residual_random(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            p = random_problem(rng, N=int(rng.integers(1, 7)), n_x=int(rng.integers(1, 5)),
                               n_u=int(rng.integers(1, 3)), n_y=2, n_yN=1)
            x = rng.standard_normal(p.dims.n)
            w = make_weights(p, x, sigma=1.5)
            delta = 1e-3
            work = factor_all(p, w, delta)
            factor_psi(work)
            Hd, dq = dense_H(p, w, delta)
            g = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            r = rng.standard_normal(p.dims.p)
            dx, dlam = solve_newton(
                work, p.primal_from_flat(g + dq.M.T @ lam), p.dualeq_from_flat(r)
            )
            dxf, dlf = p.primal_to_flat(dx), p.dualeq_to_flat(dlam)
            res1 = Hd @ dxf + dq.M.T @ dlf + (g + dq.M.T @ lam)
            res2 = dq.M @ dxf + r
            rhs_norm = max(np.max(np.abs(g + dq.M.T @ lam)), np.max(np.abs(r)))
            tol = 1e-10 * (1 + rhs_norm)
            assert np.max(np.abs(res1)) < tol
            assert np.max(np.abs(res2)) < tol


class TestExplicitInverse:
    """The stored L^{-1} against a dense solve of the same Newton system,
    at the penalty spread the outer loop can reach."""

    def problems(self, rng):
        sm = gen_spring_mass(SpringMassConfig(masses=5, horizon=11, seed=3))
        yield sm
        for _ in range(3):
            yield random_problem(rng, N=int(rng.integers(3, 10)), n_x=4, n_u=2,
                                 n_y=3, n_yN=2)

    def test_newton_step_backward_error(self):
        # normwise: ||res|| / max(||K|| ||step||, ||rhs||, 1); componentwise
        # (Oettli-Prager): max_i |res_i| / (|K| |step| + |rhs|)_i, which the
        # 1e9 rows cannot dominate.  The recursion itself reaches about 1e-11
        # componentwise with stage factors L or L^{-1} alike.
        rng = np.random.default_rng(90)
        worst = worst_comp = 0.0
        for p in self.problems(rng):
            m = p.dims.m
            active = rng.random(m) < 0.5
            sig = np.where(active, 10.0 ** rng.uniform(-4, np.log10(SIGMA_MAX), m), 0.0)
            weights = p.dualineq_from_flat(sig)
            delta = 1e-7
            work = factor_all(p, weights, delta, variant="dense")
            factor_psi(work)
            dq = oracles.assemble_dense(p)
            Hd = dq.Q + dq.G.T @ np.diag(sig) @ dq.G + delta * np.eye(p.dims.n)
            g = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            r = rng.standard_normal(p.dims.p)
            dx, dlam = solve_newton(
                work, p.primal_from_flat(g + dq.M.T @ lam), p.dualeq_from_flat(r)
            )
            step = np.concatenate([p.primal_to_flat(dx), p.dualeq_to_flat(dlam)])
            K = np.block([[Hd, dq.M.T], [dq.M, np.zeros((p.dims.p, p.dims.p))]])
            rhs = -np.concatenate([g + dq.M.T @ lam, r])
            res = K @ step - rhs
            scale = max(
                np.linalg.norm(K, np.inf) * np.max(np.abs(step)), np.max(np.abs(rhs)), 1.0
            )
            worst = max(worst, np.max(np.abs(res)) / scale)
            bound = np.abs(K) @ np.abs(step) + np.abs(rhs)
            worst_comp = max(worst_comp, np.max(np.abs(res) / bound))
        assert worst <= 1e-12
        assert worst_comp <= 1e-10


def diagonal_problem(rng, N=4, n_x=3, n_u=2):
    qd = rng.uniform(0.5, 2.0, (N, n_x))
    rd = rng.uniform(0.5, 2.0, (N, n_u))
    Q = np.stack([np.diag(v) for v in qd])
    R = np.stack([np.diag(v) for v in rd])
    n_y = n_x + n_u
    C = np.zeros((N, n_y, n_x))
    D = np.zeros((N, n_y, n_u))
    C[:, :n_x, :] = np.eye(n_x)
    D[:, n_x:, :] = np.eye(n_u)
    return model.OcpProblem.from_stages(
        Q=Q, S=np.zeros((N, n_u, n_x)), R=R, q=rng.standard_normal((N, n_x)),
        r=rng.standard_normal((N, n_u)), A=0.5 * rng.standard_normal((N, n_x, n_x)),
        B=rng.standard_normal((N, n_x, n_u)), c=0.1 * rng.standard_normal((N, n_x)),
        C=C, D=D, bl=np.full((N, n_y), -1.5), bu=np.full((N, n_y), 1.5),
        Q_N=np.diag(rng.uniform(0.5, 2.0, n_x)), q_N=rng.standard_normal(n_x),
        C_N=np.eye(n_x), bl_N=np.full(n_x, -1.5), bu_N=np.full(n_x, 1.5),
        x_init=0.2 * rng.standard_normal(n_x),
    )


class TestDiagonalVariant:
    def test_sqrt_factor(self):
        rng = np.random.default_rng(80)
        p = diagonal_problem(rng, N=2, n_x=1, n_u=1)
        work = kkt.StageFactorization.allocate(p, "diagonal")
        work.H.stack[0] = np.diag([4.0, 9.0])
        for j in range(1, p.cost.nstages):
            work.H.stack[j] = np.eye(2)
        factor_stages(work, INLINE)
        assert np.allclose(np.sqrt(work.h_diag.stack[0].copy()[:, 0]), [2.0, 3.0])

    def test_agrees_with_dense_path(self):
        rng = np.random.default_rng(81)
        p = diagonal_problem(rng)
        assert p.is_diagonal()
        x = rng.standard_normal(p.dims.n)
        w = make_weights(p, x, sigma=1.3)
        delta = 1e-4
        wd = factor_all(p, w, delta, variant="dense")
        wdg = factor_all(p, w, delta, variant="diagonal")
        factor_psi(wd)
        factor_psi(wdg)
        g = rng.standard_normal(p.dims.n)
        r = rng.standard_normal(p.dims.p)
        dx1, dl1 = solve_newton(wd, p.primal_from_flat(g), p.dualeq_from_flat(r))
        dx2, dl2 = solve_newton(wdg, p.primal_from_flat(g), p.dualeq_from_flat(r))
        f1, f2 = p.primal_to_flat(dx1), p.primal_to_flat(dx2)
        assert np.max(np.abs(f1 - f2)) < 1e-12 * (1 + np.max(np.abs(f1)))
        l1, l2 = p.dualeq_to_flat(dl1), p.dualeq_to_flat(dl2)
        assert np.max(np.abs(l1 - l2)) < 1e-12 * (1 + np.max(np.abs(l1)))

    def test_structure_mismatch(self):
        # the one check: no diagonal workspace exists for a non-diagonal
        # problem, so no later step can take the diagonal path with it
        rng = np.random.default_rng(82)
        p = random_problem(rng, N=3)  # dense S, C, D
        with pytest.raises(StructureMismatch):
            kkt.StageFactorization.allocate(p, "diagonal")
        with pytest.raises(StructureMismatch):
            Solver(p, SolverSettings(variant="diagonal"))

    def test_solve_H_matches(self):
        rng = np.random.default_rng(83)
        p = diagonal_problem(rng, N=3, n_x=2, n_u=1)
        x = rng.standard_normal(p.dims.n)
        w = make_weights(p, x)
        wd = factor_all(p, w, 1e-3, variant="dense")
        wdg = factor_all(p, w, 1e-3, variant="diagonal")
        rhs = p.primal_from_flat(rng.standard_normal(p.dims.n))
        z1 = solve_H(wd, rhs)
        z2 = solve_H(wdg, rhs)
        assert np.max(np.abs(z1.data - z2.data)) < 1e-12 * (1 + np.max(np.abs(z1.data)))
