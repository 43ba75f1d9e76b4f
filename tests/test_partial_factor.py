"""Partial refactorization: only the stages whose active penalties changed
are refactored, and the result must be the full factorization, bit for bit.
The band factor of Psi restarts at the last changed stage (reversed block
order) or at the first (natural order); it sums the same updates in another
order, so it is checked by its untouched leading columns and by
reconstruction instead."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpqp import kkt
from ocpqp.alm import PROXIMAL_WEIGHT, Solver, SolverSettings
from ocpqp.bench import (
    SpringMassConfig,
    discretize_exact,
    gen_random_ocp,
    gen_spring_mass,
    spring_mass_continuous,
)
from ocpqp.compact import NonPositivePivot
from ocpqp.model import OcpDims

from test_kkt import (
    INLINE,
    band_factor,
    band_order,
    dense_from_blocks,
    diagonal_problem,
    every_stage,
    make_weights,
    plant_H,
    psi_blocks,
    write_psi,
)
from test_model import random_problem

FIELDS = ("h_diag", "linv_lm", "vwt_lm", "p_lm")


def field(work, name):
    value = getattr(work, name)
    return getattr(value, "stack", value)  # CompactBatch or array


def fresh_factorization(solver, state, weights):
    """Every stage assembled and factored from scratch in a new workspace,
    at the state's proximal weight."""
    return factored(solver.problem, weights, state.sigma_x_inv, solver.work.variant)


def factored(problem, weights, sxinv, variant="dense", natural=False):
    work = kkt.StageFactorization.allocate(problem, variant)
    work.orient(natural)
    every = every_stage(work)
    kkt.factor_stages(work, INLINE, weights, sxinv, every)
    return kkt.factor_psi(work, every)


def band_residual(work):
    """max |L L^T - P Psi P^T| / max |Psi| over the blocks of the band factor
    L, in the workspace's block order: ``band_diag[j]`` is the diagonal
    block D_j of stage j and ``band_sub[j]`` the block S_j that couples it
    to stage j + 1, so the reconstruction is blockwise.  Reversed, Psi_jj =
    D_j D_j^T + S_j S_j^T (the last term for j < N) and Psi_{j,j+1} =
    S_j D_{j+1}^T; natural, Psi_jj = D_j D_j^T + S_{j-1} S_{j-1}^T (for
    j > 0) and Psi_{j+1,j} = S_j D_j^T."""
    D = np.tril(work.band_diag)
    S = work.band_sub
    diag = D @ D.transpose(0, 2, 1)
    psi_diag, psi_sub = psi_blocks(work)
    if work.natural:
        diag[1:] += S @ S.transpose(0, 2, 1)
        off = S @ D[:-1].transpose(0, 2, 1)
    else:
        diag[:-1] += S @ S.transpose(0, 2, 1)
        off = (S @ D[1:].transpose(0, 2, 1)).transpose(0, 2, 1)
    err = max(np.max(np.abs(diag - psi_diag)), np.max(np.abs(off - psi_sub)))
    return err / max(np.max(np.abs(psi_diag)), np.max(np.abs(psi_sub)))


def restart_column(work, stages):
    """First band column that factor_psi(work, stages) rewrites."""
    return kkt.psi_restart(work, stages) * work.problem.dims.n_x


def check_every_iteration(problem, variant, workers, drive=lambda solver: [solver.solve()[3]]):
    """Run the solves of ``drive(solver)``, which returns their reports (one
    cold solve by default), with a hook after every inner iteration's
    factorization step that compares the workspace with a fresh full
    factorization: bit for bit up to the Psi blocks, and for the band factor
    of Psi, untouched columns before the restart and a reconstruction of
    P Psi P^T.  Returns the reports and the (natural, restart column) of
    every Psi factorization."""
    settings = SolverSettings(variant=variant, worker_count=workers)
    original = kkt.factor_psi
    restarts = []

    def checked_factor_psi(f, stages):
        before = f.psi_band.copy()
        original(f, stages)
        c0 = restart_column(f, stages)
        assert np.array_equal(f.psi_band[:, :c0], before[:, :c0])
        restarts.append((f.natural, c0))
        return f

    with Solver(problem, settings) as solver, mock.patch.object(
        kkt, "factor_psi", checked_factor_psi
    ):
        factor = solver._factor
        checked = []

        def hooked(state, weights, report):
            factor(state, weights, report)
            fresh = fresh_factorization(solver, state, weights)
            for name in FIELDS:
                if getattr(fresh, name) is not None:
                    assert np.array_equal(field(solver.work, name), field(fresh, name)), name
            assert band_residual(solver.work) <= 1e-14
            checked.append(state.sigma_x_inv)

        solver._factor = hooked
        reports = drive(solver)
    assert all(report.solved for report in reports)
    assert len(checked) >= sum(report.inner_iters for report in reports)
    # some factorization restarted past the first block
    assert max(c0 for _, c0 in restarts) > 0
    return reports, restarts


def shifted(problem, x, y, lam):
    """A spring-mass solution shifted one stage forward, the last stage
    repeated (one constraint row per variable)."""
    d = problem.dims
    N, n_x, n_xu = d.N, d.n_x, d.n_xu
    xu, x_N = x[: N * n_xu].reshape(N, n_xu), x[N * n_xu :]
    ys, lams = y[: N * n_xu].reshape(N, n_xu), lam.reshape(N + 1, n_x)
    return (
        np.concatenate([xu[1:].ravel(), x_N, xu[-1, n_x:], x_N]),
        np.concatenate([ys[1:].ravel(), ys[-1], y[N * n_xu :]]),
        np.concatenate([lams[1:].ravel(), lams[-1]]),
    )


def closed_loop(config, steps):
    """A drive for :func:`check_every_iteration`: ``steps`` steps of a
    closed model-predictive-control loop on the spring-mass chain of
    ``config``.  Each step tracks a position reference that moves with
    time (through ``update_gradient``; Q is the identity), starts from the
    state that the last step's first input led to, and is warm-started
    from the last solution shifted one stage forward."""
    A, B = discretize_exact(*spring_mass_continuous(config), config.ts)
    M, N = config.masses, config.horizon
    amplitude, omega = np.linspace(2.0, 4.0, M), np.linspace(0.7, 1.3, M)

    def drive(solver):
        p = solver.problem
        n_x, n_u = p.dims.n_x, p.dims.n_u
        state, warm, reports = np.zeros(n_x), None, []
        for step in range(steps):
            t = (step + np.arange(N + 1)) * config.ts
            ref = np.zeros((N + 1, n_x))
            ref[:, :M] = amplitude * np.sin(omega * t[:, None])
            solver.update_initial_state(state)
            solver.update_gradient(-ref[:N], np.zeros((N, n_u)), -ref[N])
            x, y, lam, report = solver.solve(warm_start=warm)
            reports.append(report)
            warm = shifted(p, x, y, lam)
            state = A @ state + B @ x[n_x : n_x + n_u]
        return reports

    return drive


class TestWorkspaceMatchesFullFactorization:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_dense_spring_mass(self, workers):
        p = gen_spring_mass(SpringMassConfig(masses=30, horizon=30, seed=5))
        (rep,), _ = check_every_iteration(p, "dense", workers)
        # the partial path was taken: fewer stage slots than full refactors
        assert rep.full_factorizations < rep.factorizations
        assert rep.stages_factored < rep.factorizations * (p.dims.N + 1)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_diagonal_spring_mass(self, workers):
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=40, seed=2))
        (rep,), _ = check_every_iteration(p, "diagonal", workers)
        assert rep.full_factorizations < rep.factorizations

    @pytest.mark.parametrize("workers", (1, 2))
    def test_random_family(self, workers):
        p = gen_random_ocp(OcpDims(20, 6, 3, 6, 3), seed=3, feasibility_margin=0.5)
        (rep,), _ = check_every_iteration(p, "dense", workers)
        assert rep.full_factorizations < rep.factorizations

    @pytest.mark.parametrize("workers", (1, 2))
    def test_warm_closed_loop(self, workers):
        # warm steps change stages up to the end of the horizon, so after
        # the first solve (reversed, as every new solver starts) the band
        # takes natural order and restarts at the first changed stage
        config = SpringMassConfig(masses=5, horizon=30, seed=1)
        reports, restarts = check_every_iteration(
            gen_spring_mass(config), "dense", workers, closed_loop(config, 4)
        )
        assert reports[0].psi_order == "reversed"
        assert any(report.psi_order == "natural" for report in reports[1:])
        assert any(natural and c0 > 0 for natural, c0 in restarts)


class TestWarmReplay:
    @pytest.mark.parametrize("variant", ("dense", "diagonal"))
    def test_replay_keeps_reversed_order(self, variant, monkeypatch):
        # warm replays with a perturbed initial state and a fixed gradient
        # change stages near the start of the horizon: every solve keeps
        # the reversed order, bit for bit as a solver held to it does
        p = gen_spring_mass(SpringMassConfig(masses=5, horizon=30, seed=3))
        x_inits = p.x_init + 0.05 * np.random.default_rng(0).standard_normal((5, p.dims.n_x))

        def replay():
            with Solver(p, SolverSettings(variant=variant)) as solver:
                *warm, report = solver.solve()
                runs = [(warm, report)]
                for x_init in x_inits:
                    solver.update_initial_state(x_init)
                    *warm, report = solver.solve(warm_start=warm)
                    runs.append((warm, report))
            return runs

        runs = replay()
        monkeypatch.setattr(kkt.StageFactorization, "reorient", lambda f: f.orient(False))
        held = replay()
        for (sol, report), (want, held_report) in zip(runs, held):
            assert report.solved and report.psi_order == "reversed"
            assert all(np.array_equal(a, b) for a, b in zip(sol, want))
            assert report.psi_blocks_factored == held_report.psi_blocks_factored


class TestPivotFailureInPartialSet:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_kkt_names_stage(self, workers, monkeypatch):
        # a planted negative pivot inside a scattered stage set is named by
        # its absolute stage index; stages outside the set are not touched
        rng = np.random.default_rng(7)
        p = random_problem(rng, N=11, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = factored(p, w, 1e-3)
        before = {name: getattr(work, name).copy() for name in ("linv_lm", "p_lm")}
        stages = np.array([1, 5, 6, 10])
        bad = 6
        h = np.eye(p.dims.n_xu)
        h[2, 2] = -1.0
        plant_H(monkeypatch, {bad: h})
        pool = kkt.WorkerPool(workers)
        try:
            with pytest.raises(NonPositivePivot) as exc:
                kkt.factor_stages(work, pool, w, 1e-3, stages)
        finally:
            pool.shutdown()
        assert exc.value.failures == [(bad, 2)]
        others = np.setdiff1d(every_stage(work), stages)
        for name, stack in before.items():
            assert np.array_equal(getattr(work, name)[others], stack[others]), name

    @pytest.mark.parametrize("workers", (1, 2))
    def test_solver_escalates_to_full(self, workers, monkeypatch):
        # the first partial factorization of a solve meets a negative pivot
        # at one of its stages: the failure names that stage and the next
        # factorization refactors every stage
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=30, seed=5))
        nstages = p.dims.N + 1
        original = kkt.factor_stages
        calls, failures = [], []

        def planted(f, pool, weights, sigma_x_inv, stages):
            calls.append(stages.copy())
            if not failures and len(stages) < nstages:
                k = int(stages[len(stages) // 2])
                with monkeypatch.context() as m, pytest.raises(NonPositivePivot) as exc:
                    plant_H(m, {k: -np.eye(p.dims.n_xu)})
                    original(f, pool, weights, sigma_x_inv, stages)
                failures.append((k, exc.value.failures))
                raise exc.value
            return original(f, pool, weights, sigma_x_inv, stages)

        monkeypatch.setattr(kkt, "factor_stages", planted)
        with Solver(p, SolverSettings(variant="dense", worker_count=workers)) as solver:
            _, _, _, report = solver.solve()
        assert report.solved
        (k, named), = failures
        assert named == [(k, 0)]
        failed_at = next(i for i, s in enumerate(calls) if len(s) < nstages)
        assert len(calls[failed_at + 1]) == nstages


class TestOneForkJoinPerAttempt:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_pool_run_per_attempt(self, workers, monkeypatch):
        # every factorization attempt assembles and factors its stages in
        # exactly one WorkerPool.run, also the attempt a planted pivot
        # failure ends and the full refactorization that escalates after it
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=30, seed=5))
        nstages = p.dims.N + 1
        runs, attempts, failed = [], [], []
        original_run = kkt.WorkerPool.run

        def counting_run(pool, fn, stages):
            runs.append(len(stages))
            return original_run(pool, fn, stages)

        original = kkt.factor_stages

        def planted(f, pool, weights, sigma_x_inv, stages):
            attempts.append(len(stages))
            if not failed and len(stages) < nstages:
                failed.append(len(attempts))
                with monkeypatch.context() as m:
                    plant_H(m, {int(stages[0]): -np.eye(p.dims.n_xu)})
                    return original(f, pool, weights, sigma_x_inv, stages)
            return original(f, pool, weights, sigma_x_inv, stages)

        monkeypatch.setattr(kkt.WorkerPool, "run", counting_run)
        monkeypatch.setattr(kkt, "factor_stages", planted)
        with Solver(p, SolverSettings(variant="dense", worker_count=workers)) as solver:
            _, _, _, report = solver.solve()
        assert report.solved
        assert failed and attempts[failed[0]] == nstages
        assert runs == attempts
        assert report.factorizations == len(attempts)


class TestEscalationAfterFailedAttempt:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_retry_refactors_every_stage(self, workers, monkeypatch):
        # a pivot failure planted after factor_psi whenever a factorization
        # runs at the base proximal weight: each inner solve starts there,
        # rewrites every stage, fails and retries at ten times the weight,
        # the weight the last inner solve's factorization was recorded at;
        # the retry must not take that record for the workspace it overwrote
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=30, seed=5))
        original = kkt.factor_psi
        live, failures, started, checked = [], [], {}, []

        def planted(f, stages):
            original(f, stages)
            if live and live[-1].sigma_x_inv == PROXIMAL_WEIGHT:
                failures.append(live[-1].outer_iter)
                raise NonPositivePivot([(int(stages[-1]), -1)])
            return f

        monkeypatch.setattr(kkt, "factor_psi", planted)
        with Solver(p, SolverSettings(variant="dense", worker_count=workers)) as solver:
            factor = solver._factor

            def hooked(state, weights, report):
                started.setdefault(state.outer_iter, state.sigma_x_inv)
                live.append(state)
                try:
                    factor(state, weights, report)
                finally:
                    live.pop()
                fresh = fresh_factorization(solver, state, weights)
                for name in ("linv_lm", "vwt_lm", "p_lm"):
                    assert np.array_equal(getattr(solver.work, name), getattr(fresh, name)), name
                assert band_residual(solver.work) <= 1e-14
                checked.append(state.sigma_x_inv)

            solver._factor = hooked
            _, _, _, report = solver.solve()
        assert report.solved
        # every inner solve that factors starts at the base weight and
        # escalates once
        assert len(started) > 1
        assert all(weight == PROXIMAL_WEIGHT for weight in started.values())
        assert failures == sorted(started)
        assert checked and all(weight == 10.0 * PROXIMAL_WEIGHT for weight in checked)


class TestStagesOutsideTheSet:
    @pytest.mark.parametrize("variant", ("dense", "diagonal"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_nan_sentinel_untouched(self, variant, workers):
        rng = np.random.default_rng(8)
        p = diagonal_problem(rng, N=9, n_x=3, n_u=2)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=2.0)
        work = kkt.StageFactorization.allocate(p, variant)
        stacks = {"vwt_lm": work.vwt_lm, "p_lm": work.p_lm}
        # the factor of H_j: L_j^{-1}, or the diagonal of H_j
        if variant == "dense":
            stacks["linv_lm"] = work.linv_lm
        else:
            stacks["h_diag"] = work.h_diag.stack
        for stack in stacks.values():
            stack[:] = np.nan
        stages = np.array([0, 3, 4, 8])
        pool = kkt.WorkerPool(workers)
        try:
            kkt.factor_stages(work, pool, w, 1e-3, stages)
        finally:
            pool.shutdown()
        others = np.setdiff1d(every_stage(work), stages)
        for name, stack in stacks.items():
            assert np.all(np.isnan(stack[others])), name
            assert np.all(np.isfinite(stack[stages])), name


class TestChangedStages:
    def test_compare_and_invalidate(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, N=7, n_x=3, n_u=2, n_y=2, n_yN=1)
        w = make_weights(p, rng.standard_normal(p.dims.n), sigma=1.0)
        work = kkt.StageFactorization.allocate(p)
        everything = every_stage(work)
        assert np.array_equal(work.changed_stages(w, 1e-7), everything)
        work.record(w, 1e-7)
        assert work.changed_stages(w, 1e-7).size == 0
        assert np.array_equal(work.changed_stages(w, 1e-6), everything)
        w2 = w.copy()
        w2.stack[2, 0, 0] += 1.0
        w2.stack[5, 1, 0] = np.nan
        assert np.array_equal(work.changed_stages(w2, 1e-7), [2, 5])
        work.invalidate()
        assert np.array_equal(work.changed_stages(w, 1e-7), everything)

    def test_reorient_reads_the_tallies(self):
        # N = 7: a change at stages 5 and 6 refactors 8 blocks reversed and
        # 3 natural, one at stage 1 refactors 3 reversed and 7 natural
        rng = np.random.default_rng(9)
        p = random_problem(rng, N=7, n_x=3, n_u=2, n_y=2, n_yN=1)
        work = kkt.StageFactorization.allocate(p)
        work.reorient()
        assert not work.natural  # a new workspace starts reversed
        for tallied, natural in (
            ([[5, 6]], True),
            ([[5, 6], [1], [1]], False),
            ([[5, 6], [1]], True),
            ([every_stage(work)], False),  # a tie keeps reversed order
            ([], False),
        ):
            for stages in tallied:
                work.tally(np.array(stages))
            w = make_weights(p, rng.standard_normal(p.dims.n))
            work.record(w, 1e-7)
            work.reorient()
            assert work.natural == natural
            assert work.psi_tally == [0, 0]
            # the next factorization is a full one, in the new block order
            assert np.array_equal(work.changed_stages(w, 1e-7), every_stage(work))
            views = work.band_views[natural]
            assert work.band_diag is views[0] and work.band_sub is views[1]


class TestPsiRestart:
    """factor_psi(f, stages) after a full factorization, over random shapes
    (N = 1, n_y = 0 and n_yN = 0 included) and random changed sets."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partial_after_full(self, data):
        natural = data.draw(st.booleans(), "natural")
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
        work = factored(p, w1, 1e-2, natural=natural)

        # new penalties on every row of the changed stages, and on no other
        w2 = make_weights(p, rng.standard_normal(p.dims.n), sigma=4.0)
        w2.stack[stages] += 1.0
        others = np.setdiff1d(np.arange(N + 1), stages)
        w2.stack[others] = w1.stack[others]
        before = work.psi_band.copy()
        kkt.factor_stages(work, INLINE, w2, 1e-2, stages)
        kkt.factor_psi(work, stages)

        fresh = factored(p, w2, 1e-2)
        assert np.array_equal(work.p_lm, fresh.p_lm)
        c0 = restart_column(work, stages)
        # the first changed stage, or the last block a change reaches
        assert c0 == (stages[0] if natural else N - min(stages[-1] + 1, N)) * n_x
        assert np.array_equal(work.psi_band[:, :c0], before[:, :c0])
        psi = dense_from_blocks(*psi_blocks(work))
        L = band_factor(work)
        assert np.max(np.abs(L @ L.T - band_order(work, psi))) <= 1e-14 * np.max(np.abs(psi))

        rhs = rng.standard_normal((N + 1, n_x))
        want = np.linalg.solve(psi, rhs.ravel())
        got = kkt.psi_solve(work, rhs, out=np.empty_like(rhs))
        err = np.max(np.abs(got.ravel() - want)) / np.max(np.abs(want))
        assert err <= 1e-14 * np.linalg.cond(psi)

        # a negative pivot planted in a block the restart reaches names its
        # stage; its leading rows stay positive definite, so the failure is
        # the block's last row
        reached = (c0 // n_x, N) if natural else (0, N - c0 // n_x)
        bad = data.draw(st.integers(*reached), "bad")
        diag, sub = psi_blocks(work)
        m = np.trace(diag[bad])
        diag[bad] = np.diag(np.r_[np.full(n_x - 1, m), -m])
        write_psi(work, diag, sub)
        with pytest.raises(NonPositivePivot) as exc:
            kkt.factor_psi(work, stages)
        assert exc.value.failures == [(bad, -1)]
        assert np.array_equal(work.psi_band[:, :c0], before[:, :c0])
