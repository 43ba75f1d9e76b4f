"""Partial refactorization: only the stages whose active penalties changed
are refactored, and the result must be the full factorization, bit for bit.
The band factor of Psi restarts at the last changed stage; it sums the same
updates in another order, so it is checked by its untouched leading columns
and by reconstruction instead."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpqp import kkt
from ocpqp.alm import Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from ocpqp.compact import NonPositivePivot
from ocpqp.model import OcpDims

from test_kkt import (
    INLINE,
    band_factor,
    dense_from_blocks,
    diagonal_problem,
    make_weights,
    reverse_blocks,
    uniform_vec,
)
from test_model import random_problem

FIELDS = ("H", "h_diag", "linv_lm", "vwt_lm", "p_lm", "psi_diag", "psi_sub")


def field(work, name):
    value = getattr(work, name)
    return getattr(value, "stack", value)  # CompactBatch or array


def fresh_factorization(solver, state, weights, scale):
    """Every stage assembled and factored from scratch in a new workspace."""
    p = solver.problem
    sx = state.sigma_x_inv
    if scale != 1.0:
        sx = sx.copy()
        sx.data *= scale
    return factored(p, weights, sx, solver.variant)


def factored(problem, weights, sxinv, variant="dense"):
    work = kkt.StageFactorization.allocate(problem, variant)
    kkt.assemble_H(work, weights, sxinv)
    kkt.factor_stages(work, INLINE)
    return kkt.factor_psi(work)


def band_residual(work):
    """max |L L^T - P Psi P^T| / max |Psi| over the blocks of the band factor
    L, where P reverses the block order: ``band_diag[j]`` is the diagonal
    block of stage j and ``band_sub[j]`` the block that couples it to stage
    j + 1, so the reconstruction is blockwise."""
    D = np.tril(work.band_diag)
    S = work.band_sub
    diag = D @ D.transpose(0, 2, 1)
    diag[:-1] += S @ S.transpose(0, 2, 1)
    off = S @ D[1:].transpose(0, 2, 1)
    err = max(
        np.max(np.abs(diag - work.psi_diag)),
        np.max(np.abs(off - work.psi_sub.transpose(0, 2, 1))),
    )
    return err / max(np.max(np.abs(work.psi_diag)), np.max(np.abs(work.psi_sub)))


def restart_column(work, stages):
    """First band column that factor_psi(work, stages) rewrites."""
    return (work.problem.dims.N - kkt.psi_top(work, stages)) * work.problem.dims.n_x


def check_every_iteration(problem, variant, workers):
    """Solve with a hook after every inner iteration's factorization step
    that compares the workspace with a fresh full factorization: bit for
    bit up to the Psi blocks, and for the band factor of Psi, untouched
    columns before the restart and a reconstruction of P Psi P^T."""
    settings = SolverSettings(variant=variant, worker_count=workers)
    original = kkt.factor_psi
    restarts = []

    def checked_factor_psi(f, stages=None):
        before = f.psi_band.copy()
        original(f, stages)
        c0 = restart_column(f, stages)
        assert np.array_equal(f.psi_band[:, :c0], before[:, :c0])
        restarts.append(c0)
        return f

    with Solver(problem, settings) as solver, mock.patch.object(
        kkt, "factor_psi", checked_factor_psi
    ):
        factor = solver._factor
        checked = []

        def hooked(state, weights, prox_scale, timings, counts):
            scale = factor(state, weights, prox_scale, timings, counts)
            fresh = fresh_factorization(solver, state, weights, scale)
            for name in FIELDS:
                if getattr(fresh, name) is not None:
                    assert np.array_equal(field(solver.work, name), field(fresh, name)), name
            assert band_residual(solver.work) <= 1e-14
            checked.append(scale)
            return scale

        solver._factor = hooked
        _, _, _, report = solver.solve()
    assert report.solved
    assert len(checked) >= report.inner_iters
    # some factorization restarted past the first block
    assert max(restarts) > 0
    return report


class TestWorkspaceMatchesFullFactorization:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_dense_spring_mass(self, workers):
        p = gen_spring_mass(SpringMassConfig(masses=30, horizon=30, seed=5))
        rep = check_every_iteration(p, "dense", workers)
        # the partial path was taken: fewer stage slots than full refactors
        assert rep.full_factorizations < rep.factorizations
        assert rep.stages_factored < rep.factorizations * (p.dims.N + 1)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_diagonal_spring_mass(self, workers):
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=40, seed=2))
        rep = check_every_iteration(p, "diagonal", workers)
        assert rep.full_factorizations < rep.factorizations

    @pytest.mark.parametrize("workers", (1, 2))
    def test_random_family(self, workers):
        p = gen_random_ocp(OcpDims(20, 6, 3, 6, 3), seed=3, feasibility_margin=0.5)
        rep = check_every_iteration(p, "dense", workers)
        assert rep.full_factorizations < rep.factorizations


class TestPivotFailureInPartialSet:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_kkt_names_stage(self, workers):
        # a planted negative pivot inside a scattered stage set is named by
        # its absolute stage index; stages outside the set are not touched
        rng = np.random.default_rng(7)
        p = random_problem(rng, N=11, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = kkt.StageFactorization.allocate(p)
        kkt.assemble_H(work, w, uniform_vec(p, "primal", 1e-3))
        kkt.factor_stages(work, INLINE)
        before = work.linv_lm.copy()
        stages = np.array([1, 5, 6, 10])
        bad = 6
        h = np.eye(p.dims.n_xu)
        h[2, 2] = -1.0
        work.H.set_stage(bad, h)
        pool = kkt.WorkerPool(workers)
        try:
            with pytest.raises(NonPositivePivot) as exc:
                kkt.factor_stages(work, pool, stages)
        finally:
            pool.shutdown()
        assert exc.value.failures == [(bad, 2)]
        others = np.setdiff1d(np.arange(work.H.nstages), stages)
        assert np.array_equal(work.linv_lm[others], before[others])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_solver_escalates_to_full(self, workers, monkeypatch):
        # the first partial factorization of a solve meets a negative pivot
        # at one of its stages: the failure names that stage and the next
        # factorization refactors every stage
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=30, seed=5))
        original = kkt.factor_stages
        calls, failures = [], []

        def planted(f, pool, stages=None):
            calls.append(stages.copy())
            if not failures and len(stages) < f.H.nstages:
                k = int(stages[len(stages) // 2])
                f.H.set_stage(k, -np.eye(f.H.rows))
                with pytest.raises(NonPositivePivot) as exc:
                    original(f, pool, stages)
                failures.append((k, exc.value.failures))
                raise exc.value
            return original(f, pool, stages)

        monkeypatch.setattr(kkt, "factor_stages", planted)
        with Solver(p, SolverSettings(variant="dense", worker_count=workers)) as solver:
            _, _, _, report = solver.solve()
            nstages = solver.work.H.nstages
        assert report.solved
        (k, named), = failures
        assert named == [(k, 0)]
        failed_at = next(i for i, s in enumerate(calls) if len(s) < nstages)
        assert len(calls[failed_at + 1]) == nstages


class TestStagesOutsideTheSet:
    @pytest.mark.parametrize("variant", ("dense", "diagonal"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_nan_sentinel_untouched(self, variant, workers):
        rng = np.random.default_rng(8)
        p = diagonal_problem(rng, N=9, n_x=3, n_u=2)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=2.0)
        work = kkt.StageFactorization.allocate(p, variant)
        stacks = [work.H.stack, work.linv_lm, work.vwt_lm, work.p_lm]
        if variant == "diagonal":
            stacks.append(work.h_diag.stack)
        for stack in stacks:
            stack[:] = np.nan
        stages = np.array([0, 3, 4, 8])
        pool = kkt.WorkerPool(workers)
        try:
            kkt.assemble_H(work, w, uniform_vec(p, "primal", 1e-3), stages)
            kkt.factor_stages(work, pool, stages)
        finally:
            pool.shutdown()
        others = np.setdiff1d(np.arange(work.H.nstages), stages)
        written = stacks if variant == "dense" else stacks[:1] + stacks[2:]
        for stack in written:
            assert np.all(np.isnan(stack[others]))
            assert np.all(np.isfinite(stack[stages]))
        if variant == "diagonal":
            assert np.all(np.isnan(work.linv_lm))  # the diagonal path keeps no L^-1


class TestChangedStages:
    def test_compare_and_invalidate(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, N=7, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = kkt.StageFactorization.allocate(p)
        everything = np.arange(work.H.nstages)
        assert np.array_equal(work.changed_stages(w, 1.0), everything)
        work.record(w, 1.0)
        assert work.changed_stages(w, 1.0).size == 0
        assert np.array_equal(work.changed_stages(w, 10.0), everything)
        w2 = w.copy()
        w2.stack[2, 0, 0] += 1.0
        w2.stack[5, 1, 0] = np.nan
        assert np.array_equal(work.changed_stages(w2, 1.0), [2, 5])
        work.invalidate()
        assert np.array_equal(work.changed_stages(w, 1.0), everything)


class TestPsiRestart:
    """factor_psi(f, stages) after a full factorization, over random shapes
    (N = 1, n_y = 0 and n_yN = 0 included) and random changed sets."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partial_after_full(self, data):
        N = data.draw(st.integers(1, 8), "N")
        n_x = data.draw(st.integers(1, 4), "n_x")
        n_u = data.draw(st.integers(1, 3), "n_u")
        n_y = data.draw(st.integers(0, 3), "n_y")
        n_yN = data.draw(st.integers(0, 2), "n_yN")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        stages = np.array(sorted(data.draw(
            st.sets(st.integers(0, N), min_size=1, max_size=N + 1), "stages"
        )))
        rng = np.random.default_rng(seed)
        p = random_problem(rng, N=N, n_x=n_x, n_u=n_u, n_y=n_y, n_yN=n_yN)
        w1 = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.5)
        sx1 = uniform_vec(p, "primal", 1e-2)
        work = factored(p, w1, sx1)

        # new penalties and proximal diagonal on the changed stages only
        w2 = make_weights(p, rng.standard_normal(p.dims.n), sigma=4.0)
        others = np.setdiff1d(np.arange(N + 1), stages)
        w2.stack[others] = w1.stack[others]
        sx2 = sx1.copy()
        sx2.stack[stages] *= 3.0
        before = work.psi_band.copy()
        kkt.assemble_H(work, w2, sx2, stages)
        kkt.factor_stages(work, INLINE, stages)
        kkt.factor_psi(work, stages)

        fresh = factored(p, w2, sx2)
        for name in ("p_lm", "psi_diag", "psi_sub"):
            assert np.array_equal(getattr(work, name), getattr(fresh, name)), name
        c0 = restart_column(work, stages)
        assert c0 == (N - min(stages[-1] + 1, N)) * n_x
        assert np.array_equal(work.psi_band[:, :c0], before[:, :c0])
        psi = dense_from_blocks(work.psi_diag, work.psi_sub)
        L = band_factor(work)
        assert np.max(np.abs(L @ L.T - reverse_blocks(psi, n_x))) <= 1e-14 * np.max(np.abs(psi))

        rhs = rng.standard_normal((N + 1, n_x))
        want = np.linalg.solve(psi, rhs.ravel())
        got = kkt.psi_solve(work, rhs)
        assert got.shape == rhs.shape
        err = np.max(np.abs(got.ravel() - want)) / np.max(np.abs(want))
        assert err <= 1e-14 * np.linalg.cond(psi)

        # a negative pivot planted in a block the restart reaches names its
        # stage; its leading rows stay positive definite, so the failure is
        # the block's last row
        bad = data.draw(st.integers(0, kkt.psi_top(work, stages)), "bad")
        m = np.trace(work.psi_diag[bad])
        work.psi_diag[bad] = np.diag(np.r_[np.full(n_x - 1, m), -m])
        with pytest.raises(NonPositivePivot) as exc:
            kkt.factor_psi(work, stages)
        assert exc.value.failures == [(bad, -1)]
        assert np.array_equal(work.psi_band[:, :c0], before[:, :c0])
