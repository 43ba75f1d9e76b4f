"""Partial refactorization: only the stages whose active penalties changed
are refactored, and the result must be the full factorization, bit for bit."""

import numpy as np
import pytest

from ocpqp import kkt
from ocpqp.alm import Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from ocpqp.compact import NonPositivePivot
from ocpqp.model import OcpDims

from test_kkt import diagonal_problem, make_weights, uniform_vec
from test_model import random_problem

FIELDS = ("H", "h_diag", "linv_lm", "vwt_lm", "p_lm", "psi_band")


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
    fresh = kkt.StageFactorization.allocate(p, solver.variant)
    kkt.assemble_H(p, weights, sx, out=fresh.H, work=fresh)
    kkt.factor_stages(fresh.H, p, work=fresh, variant=solver.variant)
    return kkt.factor_psi(fresh)


def check_every_iteration(problem, variant, workers):
    """Solve with a hook after every inner iteration's factorization step
    that compares the workspace with a fresh full factorization."""
    settings = SolverSettings(variant=variant, worker_count=workers)
    with Solver(problem, settings) as solver:
        factor = solver._factor
        checked = []

        def hooked(state, weights, prox_scale, timings, counts):
            scale = factor(state, weights, prox_scale, timings, counts)
            fresh = fresh_factorization(solver, state, weights, scale)
            for name in FIELDS:
                if getattr(fresh, name) is not None:
                    assert np.array_equal(field(solver.work, name), field(fresh, name)), name
            checked.append(scale)
            return scale

        solver._factor = hooked
        _, _, _, report = solver.solve()
    assert report.solved
    assert len(checked) >= report.inner_iters
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
        kkt.assemble_H(p, w, uniform_vec(p, "primal", 1e-3), out=work.H, work=work)
        kkt.factor_stages(work.H, p, work=work)
        before = work.linv_lm.copy()
        stages = np.array([1, 5, 6, 10])
        bad = 6
        h = np.eye(p.dims.n_xu)
        h[2, 2] = -1.0
        work.H.set_stage(bad, h)
        pool = kkt.WorkerPool(workers) if workers > 1 else None
        try:
            with pytest.raises(NonPositivePivot) as exc:
                kkt.factor_stages(work.H, p, work=work, pool=pool, stages=stages)
        finally:
            if pool is not None:
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

        def planted(H, problem, work=None, pool=None, variant="dense", stages=None):
            calls.append(stages.copy())
            if not failures and len(stages) < H.nstages:
                k = int(stages[len(stages) // 2])
                H.set_stage(k, -np.eye(H.rows))
                with pytest.raises(NonPositivePivot) as exc:
                    original(H, problem, work=work, pool=pool, variant=variant, stages=stages)
                failures.append((k, exc.value.failures))
                raise exc.value
            return original(H, problem, work=work, pool=pool, variant=variant, stages=stages)

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
        pool = kkt.WorkerPool(workers) if workers > 1 else None
        try:
            kkt.assemble_H(p, w, uniform_vec(p, "primal", 1e-3), out=work.H, stages=stages)
            kkt.factor_stages(work.H, p, work=work, pool=pool, variant=variant, stages=stages)
        finally:
            if pool is not None:
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
        w2 = kkt.ActiveWeights(w.sigma_active.copy())
        w2.sigma_active.stack[2, 0, 0] += 1.0
        w2.sigma_active.stack[5, 1, 0] = np.nan
        assert np.array_equal(work.changed_stages(w2, 1.0), [2, 5])
        work.invalidate()
        assert np.array_equal(work.changed_stages(w, 1.0), everything)
