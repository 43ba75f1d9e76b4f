import collections
from dataclasses import replace

import numpy as np
import pytest

from ocpqp import alm, kkt, model, oracles
from ocpqp.alm import (
    NonDescentDirection,
    SolverSettings,
    Solver,
    eval_grad_phi,
    eval_phi,
    exact_line_search,
    solve,
)
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from ocpqp.model import OcpDims, OcpProblem

from test_model import random_problem


# (n_y, n_yN) pairs that pad inequality rows in every stage: the stages
# before N when n_yN > n_y, and with n_y = 0 they hold padded rows only
PADDED_EVERY_STAGE = ((2, 5), (0, 3))


def make_state(problem, x_flat=None, y_flat=None, sigma=1.0, prox=0.0):
    """State at flat iterates; as in the solver, every inequality slot,
    padded rows included, holds the penalty ``sigma``."""
    p = problem
    x = p.primal_from_flat(x_flat) if x_flat is not None else p.primal_zeros()
    y = p.dualineq_from_flat(y_flat) if y_flat is not None else p.dualineq_zeros()
    sigma_y = p.dualineq_zeros()
    sigma_y.data[:] = sigma
    sigma_x_inv = p.primal_zeros()
    sigma_x_inv.data[:] = prox
    return alm.AlmState(x, y, p.dualeq_zeros(), sigma_y, sigma_x_inv, x.copy())


def evaluate(problem, state, x=None):
    """The solver's evaluation at ``x`` (state.x when None) for the weights
    and center in ``state``."""
    if x is not None:
        state = replace(state, x=x)
    return eval_grad_phi(problem, state, problem.b_dualeq())


def scalar_instance():
    """One free input with quadratic cost 1/2 u^2 and the constraint u <= 0."""
    N, n_x, n_u = 1, 1, 1
    return OcpProblem.from_stages(
        Q=np.zeros((N, 1, 1)), S=np.zeros((N, 1, 1)), R=np.ones((N, 1, 1)),
        q=np.zeros((N, 1)), r=np.zeros((N, 1)), A=np.zeros((N, 1, 1)),
        B=np.zeros((N, 1, 1)), c=np.zeros((N, 1)),
        C=np.zeros((N, 1, 1)), D=np.ones((N, 1, 1)),
        bl=np.full((N, 1), -np.inf), bu=np.zeros((N, 1)),
        Q_N=np.zeros((1, 1)), q_N=np.zeros(1), C_N=np.zeros((0, 1)),
        bl_N=np.zeros(0), bu_N=np.zeros(0), x_init=np.zeros(1),
    )


def dense_phi(problem, state, x_flat):
    dq = oracles.assemble_dense(problem)
    sig = problem.dualineq_to_flat(state.sigma_y)
    y = problem.dualineq_to_flat(state.y)
    z = dq.G @ x_flat + y / sig
    dist = z - np.clip(z, dq.bl, dq.bu)
    xc = problem.primal_to_flat(state.x_center)
    sx = problem.primal_to_flat(state.sigma_x_inv)
    return (
        0.5 * x_flat @ dq.Q @ x_flat
        + dq.q @ x_flat
        + 0.5 * dist @ (sig * dist)
        + 0.5 * (x_flat - xc) @ (sx * (x_flat - xc))
    )


class TestEvalPhi:
    def test_reduces_to_plain_quadratic(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, N=3, infinite=True)
        xf = rng.standard_normal(p.dims.n)
        state = make_state(p, x_flat=xf, prox=0.5)  # x_center == x
        dq = oracles.assemble_dense(p)
        want = 0.5 * xf @ dq.Q @ xf + dq.q @ xf
        assert np.isclose(eval_phi(p, state, evaluate(p, state)), want, rtol=1e-13)

    def test_hand_value(self):
        p = scalar_instance()
        xf = np.array([0.0, 2.0, 0.0])  # x0 = 0, u0 = 2, x1 = 0
        state = make_state(p, x_flat=xf, sigma=1.0, prox=0.0)
        assert np.isclose(eval_phi(p, state, evaluate(p, state)), 4.0, atol=1e-14)

    @pytest.mark.parametrize("n_y,n_yN", ((3, 2),) + PADDED_EVERY_STAGE)
    def test_matches_dense_oracle(self, n_y, n_yN):
        rng = np.random.default_rng(1)
        p = random_problem(rng, N=4, n_y=n_y, n_yN=n_yN)
        xf = rng.standard_normal(p.dims.n)
        state = make_state(
            p, x_flat=rng.standard_normal(p.dims.n),
            y_flat=rng.standard_normal(p.dims.m), sigma=2.2, prox=1e-3,
        )
        state.x = p.primal_from_flat(xf)
        want = dense_phi(p, state, xf)
        assert np.isclose(eval_phi(p, state, evaluate(p, state)), want, rtol=1e-12)


class TestEvalGradPhi:
    def test_interior_at_center(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, N=3, infinite=True)
        xf = rng.standard_normal(p.dims.n)
        state = make_state(p, x_flat=xf, prox=0.25)
        g = p.primal_to_flat(evaluate(p, state).grad)
        dq = oracles.assemble_dense(p)
        assert np.allclose(g, dq.Q @ xf + dq.q, atol=1e-13)

    def test_hand_value(self):
        p = scalar_instance()
        state = make_state(p, x_flat=np.array([0.0, 2.0, 0.0]))
        g = p.primal_to_flat(evaluate(p, state).grad)
        assert np.isclose(g[1], 4.0, atol=1e-14)

    @pytest.mark.parametrize("n_y,n_yN", ((2, 1),) + PADDED_EVERY_STAGE)
    def test_finite_differences(self, n_y, n_yN):
        rng = np.random.default_rng(3)
        p = random_problem(rng, N=3, n_x=2, n_u=1, n_y=n_y, n_yN=n_yN)
        xf = rng.standard_normal(p.dims.n)
        state = make_state(
            p, x_flat=rng.standard_normal(p.dims.n),
            y_flat=rng.standard_normal(p.dims.m), sigma=1.5, prox=1e-2,
        )
        g = p.primal_to_flat(evaluate(p, state, p.primal_from_flat(xf)).grad)
        h = 1e-6 * max(1.0, np.max(np.abs(xf)))
        fd = np.empty_like(g)
        for i in range(p.dims.n):
            e = np.zeros(p.dims.n)
            e[i] = h
            fd[i] = (
                dense_phi(p, state, xf + e) - dense_phi(p, state, xf - e)
            ) / (2 * h)
        scale = max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(g - fd)) <= 1e-6 * scale


class TestExactLineSearch:
    def test_hand_piecewise_case(self):
        # phi(tau) = 1/2 (2 - 2 tau)^2 + 1/2 max(2 - 2 tau, 0)^2: minimum at 1
        p = scalar_instance()
        state = make_state(p, x_flat=np.array([0.0, 2.0, 0.0]))
        dx = p.primal_from_flat(np.array([0.0, -2.0, 0.0]))
        tau = exact_line_search(p, state, evaluate(p, state), dx)
        assert tau == pytest.approx(1.0, abs=1e-14)

    def test_newton_step_on_smooth_quadratic(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, N=3, n_x=2, n_u=2, infinite=True)
        state = make_state(p, x_flat=rng.standard_normal(p.dims.n), prox=1e-6)
        # interior: phi is a smooth quadratic, whose Newton step is exact
        dq = oracles.assemble_dense(p)
        sx = p.primal_to_flat(state.sigma_x_inv)
        H = dq.Q + np.diag(sx)
        xf = p.primal_to_flat(state.x)
        g = p.primal_to_flat(evaluate(p, state).grad)
        dxf, _ = oracles.dense_newton_solve(H, dq.M, g, np.zeros(p.dims.p))
        tau = exact_line_search(p, state, evaluate(p, state), p.primal_from_flat(dxf))
        assert tau == pytest.approx(1.0, rel=1e-10)

    def test_nondescent_raises(self):
        p = scalar_instance()
        state = make_state(p, x_flat=np.array([0.0, 2.0, 0.0]))
        dx = p.primal_from_flat(np.array([0.0, +2.0, 0.0]))  # uphill
        with pytest.raises(NonDescentDirection):
            exact_line_search(p, state, evaluate(p, state), dx)

    @pytest.mark.parametrize("n_y,n_yN", ((2, 1),) + PADDED_EVERY_STAGE)
    def test_sign_change_at_minimizer(self, n_y, n_yN):
        rng = np.random.default_rng(5)
        for trial in range(20):
            p = random_problem(rng, N=3, n_x=2, n_u=2, n_y=n_y, n_yN=n_yN)
            state = make_state(
                p, x_flat=rng.standard_normal(p.dims.n),
                y_flat=rng.standard_normal(p.dims.m), sigma=2.0, prox=1e-4,
            )
            # feasible direction: zero state update, free input directions
            dxf = rng.standard_normal(p.dims.n)
            dq = oracles.assemble_dense(p)
            # project onto null(M) so the direction is equality-feasible
            ns = np.linalg.svd(dq.M)[2][p.dims.p :]
            dxf = ns.T @ (ns @ dxf)
            dx = p.primal_from_flat(dxf)
            g0 = p.primal_to_flat(evaluate(p, state).grad)
            if g0 @ dxf >= 0:
                dxf = -dxf
                dx = p.primal_from_flat(dxf)
            tau = exact_line_search(p, state, evaluate(p, state), dx)
            xf = p.primal_to_flat(state.x)

            def dphi(t):
                pt = p.primal_from_flat(xf + t * dxf)
                return p.primal_to_flat(evaluate(p, state, pt).grad) @ dxf

            scale = abs(dphi(0.0)) + 1.0
            assert dphi(max(tau - 1e-9 * (1 + tau), 0.0)) <= 1e-7 * scale
            assert dphi(tau + 1e-9 * (1 + tau)) >= -1e-7 * scale


class TestInnerLoop:
    def test_equality_only_single_newton_step(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, N=4, n_x=2, n_u=1, infinite=True)
        x, y, lam, report = solve(p, SolverSettings(eps_abs=1e-9))
        assert report.solved
        # smooth quadratic: every inner solve needs at most one Newton step
        assert report.inner_iters <= report.outer_iters

    def test_monotone_phi_and_feasibility(self):
        cfg = SpringMassConfig(masses=4, horizon=10, seed=7)
        p = gen_spring_mass(cfg)
        settings = SolverSettings(log_inner=True)
        x, y, lam, report = solve(p, settings)
        assert report.solved
        assert report.inner_log
        b = np.concatenate([p.x_init, np.zeros(p.dims.p - p.dims.n_x)])
        bnorm = 1.0 + np.max(np.abs(b))
        by_outer = {}
        for rec in report.inner_log:
            by_outer.setdefault(rec.outer_iter, []).append(rec)
        for recs in by_outer.values():
            for prev, cur in zip(recs, recs[1:]):
                assert not cur.unit_step
                assert cur.phi <= prev.phi + 1e-9 * (1.0 + abs(prev.phi))
                assert cur.eq_norm <= 1e-11 * bnorm
            if len(recs) >= 1 and not recs[0].unit_step:
                # records always start with the unit step of that outer round
                assert recs[0].inner_iter > 1

    def test_products_per_iterate(self, monkeypatch):
        # each pass of the inner loop evaluates its iterate once (G' y+, M' lam
        # and Mx among the products), an inner solve of k steps makes k + 1
        # passes, and each Newton step adds one M and one M' product
        calls = collections.Counter()
        for name in ("mul_GT", "mul_MT", "mul_M"):
            def counted(*args, _fn=getattr(model, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        p = gen_spring_mass(SpringMassConfig(masses=4, horizon=10, seed=0))
        with Solver(p, SolverSettings()) as solver:
            warm = None
            for _ in range(2):  # cold, then warm-started from the cold result
                calls.clear()
                *warm, report = solver.solve(warm_start=warm)
                assert report.solved and report.inner_iters > 0
                passes = report.inner_iters + report.outer_iters
                assert calls["mul_GT"] == passes
                assert calls["mul_MT"] == calls["mul_M"] == passes + report.inner_iters


class TestSolve:
    def test_unconstrained_matches_riccati(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            p = gen_random_ocp(OcpDims(4, 3, 2, 0, 0), seed=seed, feasibility_margin=np.inf)
            x, y, lam, report = solve(p, SolverSettings())
            assert report.solved
            x_ref, lam_ref = oracles.riccati_solve(p)
            assert np.max(np.abs(x - x_ref)) < 1e-7
            assert np.max(np.abs(lam - lam_ref)) < 1e-6 * (1 + np.max(np.abs(lam_ref)))

    def test_random_feasible_matches_enumeration(self):
        for seed in range(8):
            p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=100 + seed, feasibility_margin=0.4)
            x, y, lam, report = solve(p, SolverSettings())
            assert report.solved, f"seed {seed}: {report.status}"
            x_ref, y_ref, lam_ref, _ = oracles.enumerate_active_sets(p)
            assert np.max(np.abs(x - x_ref)) < 1e-6

    def test_warm_start_single_outer(self):
        rng = np.random.default_rng(9)
        p = gen_random_ocp(OcpDims(3, 2, 1, 2, 1), seed=42, feasibility_margin=0.8)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved
        x2, y2, lam2, report2 = solve(p, SolverSettings(), warm_start=(x, y, lam))
        assert report2.solved
        assert report2.outer_iters == 1

    def test_solved_report_invariants(self):
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=8, seed=3))
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved
        eps = 1e-8
        assert max(report.dual_res, report.eq_res, report.primal_res) <= eps
        dual, eq, primal, comp = oracles.kkt_residuals(p, x, y, lam)
        assert max(dual, eq, primal, comp) <= eps

    def test_numerical_error_on_indefinite_cost(self):
        # a negative cost curvature the proximal escalation cannot fix
        N, n_x, n_u = 2, 1, 1
        p = OcpProblem.from_stages(
            Q=np.full((N, 1, 1), -0.5), S=np.zeros((N, 1, 1)), R=np.ones((N, 1, 1)),
            q=np.zeros((N, 1)), r=np.zeros((N, 1)), A=np.ones((N, 1, 1)),
            B=np.ones((N, 1, 1)), c=np.zeros((N, 1)),
            C=np.zeros((N, 0, 1)), D=np.zeros((N, 0, 1)),
            bl=np.zeros((N, 0)), bu=np.zeros((N, 0)),
            Q_N=np.zeros((1, 1)), q_N=np.zeros(1), C_N=np.zeros((0, 1)),
            bl_N=np.zeros(0), bu_N=np.zeros(0), x_init=np.ones(1),
        )
        x, y, lam, report = solve(p, SolverSettings(max_outer=3))
        assert report.status == alm.NUMERICAL_ERROR

    def test_nan_in_psi_ends_as_numerical_error(self, monkeypatch):
        # a Psi that holds a NaN is a failed pivot: the solve escalates,
        # gives up with numerical_error and returns no NaN iterate
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=8, seed=3))
        original = kkt.assemble_psi

        def poisoned(f, stages=None):
            original(f, stages)
            f.psi_sub[2][1, 0] = np.nan

        monkeypatch.setattr(kkt, "assemble_psi", poisoned)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.status == alm.NUMERICAL_ERROR
        assert all(np.isfinite(v).all() for v in (x, y, lam))

    def test_factorization_counts(self):
        # later factorizations refactor only the stages that changed, so the
        # stage slots refactored fall short of a full refactor each time
        p = gen_spring_mass(SpringMassConfig(masses=30, horizon=30, seed=5))
        with Solver(p, SolverSettings(variant="dense")) as solver:
            _, _, _, report = solver.solve()
            nstages = solver.work.H.nstages
        assert report.solved
        assert 1 <= report.full_factorizations < report.factorizations
        assert report.factorizations <= report.inner_iters
        assert report.stages_factored < report.factorizations * nstages
        # the band factor of Psi restarts at the last changed stage
        assert report.full_factorizations * nstages < report.psi_blocks_factored
        assert report.psi_blocks_factored < report.factorizations * nstages

    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_lane_width_equivalence(self, d):
        # the solver holds one slot per stage whatever lane_width says, and
        # the setting changes no bit of the solution
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=9, seed=11))
        want = solve(p, SolverSettings(variant="dense"))
        assert want[3].solved
        with Solver(p, SolverSettings(lane_width=d, variant="dense")) as solver:
            assert solver.work.H.nstages == p.dims.N + 1
            got = solver.solve()
        for a, b in zip(want[:3], got[:3]):
            assert np.array_equal(a, b)

    def test_solver_does_not_rebuild_the_problem(self, monkeypatch):
        def rebuild(*args, **kwargs):
            raise AssertionError("the problem was rebuilt")

        monkeypatch.setattr(model, "pad_horizon", rebuild)
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=9, seed=11))
        with Solver(p, SolverSettings()) as solver:
            assert solver.solve()[3].solved
        assert solve(p, SolverSettings())[3].solved

    def test_flat_vectors_only_at_the_boundary(self, monkeypatch):
        # inside solve() every vector stays stage-major: a cold solve only
        # returns its three results as flat arrays, and a warm-started one
        # also reads the three warm-start arrays
        calls = []
        for kind in ("primal", "dualeq", "dualineq"):
            for way in ("to_flat", "from_flat"):
                name = f"{kind}_{way}"

                def counted(self, v, _name=name, _original=getattr(OcpProblem, name)):
                    calls.append(_name)
                    return _original(self, v)

                monkeypatch.setattr(OcpProblem, name, counted)
        returned = ["dualeq_to_flat", "dualineq_to_flat", "primal_to_flat"]
        read = ["dualeq_from_flat", "dualineq_from_flat", "primal_from_flat"]
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=9, seed=11))
        assert p.dims.n_y != p.dims.n_yN  # padded inequality rows
        with Solver(p, SolverSettings(log_inner=True)) as solver:
            calls.clear()
            x, y, lam, report = solver.solve()
            assert report.solved and report.inner_log
            assert sorted(calls) == returned
            calls.clear()
            assert solver.solve(warm_start=(x, y, lam))[3].solved
            assert sorted(calls) == sorted(read + returned)

    def test_eps_rel_only_termination(self):
        # with eps_abs = 0 every test, Mx = b included, must be relative:
        # roundoff leaves ||Mx - b|| near 1e-15, which never meets 0
        p = gen_spring_mass(SpringMassConfig(masses=6, horizon=15, seed=0))
        x, y, lam, report = solve(p, SolverSettings(eps_abs=0.0, eps_rel=1e-8))
        assert report.solved
        # the bound residuals are relative to the bounds themselves
        scale = max(float(np.max(np.abs(b[np.isfinite(b)]))) for b in p.flat_bounds())
        assert max(oracles.kkt_residuals(p, x, y, lam)) <= 1e-8 * scale

    def test_worker_equivalence(self):
        p = gen_spring_mass(SpringMassConfig(masses=4, horizon=11, seed=12))
        res = {}
        for workers in (1, 4):
            x, y, lam, report = solve(
                p, SolverSettings(worker_count=workers)
            )
            assert report.solved
            res[workers] = x
        assert np.max(np.abs(res[1] - res[4])) <= 1e-9 * (1 + np.max(np.abs(res[1])))

    def test_diagonal_variant_full_solve(self):
        p = gen_spring_mass(SpringMassConfig(masses=4, horizon=10, seed=13))
        xd, yd, ld, rd = solve(p, SolverSettings(variant="dense"))
        xg, yg, lg, rg = solve(p, SolverSettings(variant="diagonal"))
        assert rd.solved and rg.solved
        assert np.max(np.abs(xd - xg)) <= 1e-6

    def test_env_worker_override(self, monkeypatch):
        monkeypatch.setenv("OCPQP_WORKERS", "3")
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=5, seed=1))
        with Solver(p, SolverSettings(worker_count=1)) as solver:
            assert solver.worker_count == 3


class TestUpdates:
    def test_update_gradient_matches_fresh_solver(self):
        rng = np.random.default_rng(14)
        p = gen_random_ocp(OcpDims(3, 2, 1, 2, 1), seed=77, feasibility_margin=1.0)
        q_new = rng.standard_normal((3, 2))
        r_new = rng.standard_normal((3, 1))
        with Solver(p, SolverSettings()) as solver:
            solver.solve()
            solver.update_gradient(q_new, r_new)
            x_upd, _, _, rep = solver.solve()
        assert rep.solved

        p2 = gen_random_ocp(OcpDims(3, 2, 1, 2, 1), seed=77, feasibility_margin=1.0)
        st = p2.lin.to_stack()
        st[:3, :2, 0] = q_new
        st[:3, 2:, 0] = r_new
        p2.lin.data[:] = model.CompactBatch.from_stack(st).data
        x_ref, _, _, rep2 = solve(p2, SolverSettings())
        assert rep2.solved
        assert np.max(np.abs(x_upd - x_ref)) <= 1e-6

    @pytest.mark.parametrize("lanes", (1, 2, 4, 8))
    def test_updates_leave_the_callers_problem_unchanged(self, lanes):
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=6, seed=2))
        d = p.dims
        names = ("cost", "lin", "dyn", "affine", "con", "bl", "bu")
        before = {name: getattr(p, name).stack.copy() for name in names}
        x_init = p.x_init.copy()
        with Solver(p, SolverSettings(lane_width=lanes)) as solver:
            solver.update_bounds(
                np.full((d.N, d.n_y), -3.0), np.full((d.N, d.n_y), 3.0),
                bl_N=np.full(d.n_yN, -3.0), bu_N=np.full(d.n_yN, 3.0),
            )
            solver.update_gradient(np.full((d.N, d.n_x), 0.1), np.full((d.N, d.n_u), -0.1),
                                   q_N=np.full(d.n_x, 0.1))
            solver.update_initial_state(0.5 * np.ones(d.n_x))
            assert solver.solve()[3].solved
        for name in names:
            assert np.array_equal(getattr(p, name).stack, before[name])
        assert np.array_equal(p.x_init, x_init)
        assert np.array_equal(p.b_dualeq().stack[0, :, 0], x_init)

    def test_update_bounds_and_initial_state(self):
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=6, seed=2))
        d = p.dims
        with Solver(p, SolverSettings()) as solver:
            _, _, _, rep0 = solver.solve()
            assert rep0.solved
            solver.update_bounds(
                np.full((d.N, d.n_y), -3.0), np.full((d.N, d.n_y), 3.0),
                bl_N=np.full(d.n_yN, -3.0), bu_N=np.full(d.n_yN, 3.0),
            )
            solver.update_initial_state(0.5 * np.ones(d.n_x))
            x, y, lam, rep = solver.solve()
        assert rep.solved
        cfg = SpringMassConfig(masses=3, horizon=6, seed=2)
        p2 = gen_spring_mass(cfg)
        p2.x_init[:] = 0.5
        st_lo = p2.bl.to_stack()
        st_hi = p2.bu.to_stack()
        st_lo[: d.N + 1, :, 0] = np.where(np.isneginf(st_lo[: d.N + 1, :, 0]), -np.inf, -3.0)
        st_hi[: d.N + 1, :, 0] = np.where(np.isposinf(st_hi[: d.N + 1, :, 0]), np.inf, 3.0)
        p2.bl.data[:] = model.CompactBatch.from_stack(st_lo).data
        p2.bu.data[:] = model.CompactBatch.from_stack(st_hi).data
        x_ref, _, _, rep_ref = solve(p2, SolverSettings())
        assert rep_ref.solved
        assert np.max(np.abs(x - x_ref)) <= 1e-6


NON_FINITE_UPDATES = [
    ("update_bounds", "bl", np.nan),
    ("update_bounds", "bu", np.nan),
    ("update_bounds", "bl", np.inf),
    ("update_bounds", "bu", -np.inf),
    ("update_bounds", "bl_N", np.nan),
    ("update_bounds", "bu_N", np.nan),
    ("update_bounds", "bl_N", np.inf),
    ("update_bounds", "bu_N", -np.inf),
    ("update_gradient", "q", np.nan),
    ("update_gradient", "q", np.inf),
    ("update_gradient", "r", np.nan),
    ("update_gradient", "r", -np.inf),
    ("update_gradient", "q_N", np.nan),
    ("update_gradient", "q_N", np.inf),
    ("update_initial_state", "x_init", np.nan),
    ("update_initial_state", "x_init", -np.inf),
]


@pytest.mark.parametrize("kwargs", [
    dict(proximal_weight=np.nan),
    dict(proximal_weight=np.inf),
    dict(proximal_weight=-1.0),
    dict(initial_sigma=np.nan),
    dict(initial_sigma=-1.0),
    dict(max_outer=0),
    dict(max_inner=0),
    dict(max_pivot_escalations=-1),
    dict(eps_abs=-1.0, eps_rel=1e-8),
    dict(eps_abs=1e-8, eps_rel=np.nan),
    dict(eps_abs=np.inf),
    dict(penalty_update_factor=np.inf),
    dict(penalty_update_factor=np.nan),
    dict(penalty_trigger=np.nan),
    dict(worker_count=0),
    dict(worker_count=-2),
    dict(worker_count=2.5),
    dict(worker_count=np.nan),
    dict(OCPQP_WORKERS="0"),
    dict(OCPQP_WORKERS="-1"),
    dict(OCPQP_WORKERS="two"),
    dict(OCPQP_WORKERS="1.5"),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_settings_reject_non_finite_or_out_of_range(kwargs, monkeypatch):
    if "OCPQP_WORKERS" in kwargs:
        # the environment variable overrides worker_count when Solver() starts
        monkeypatch.setenv("OCPQP_WORKERS", kwargs["OCPQP_WORKERS"])
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=5, seed=1))
        with pytest.raises(ValueError, match="OCPQP_WORKERS"):
            Solver(p, SolverSettings())
    else:
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)


def test_settings_accept_edge_values():
    # zero weights are clipped to SIGMA_MIN where they are used
    SolverSettings(proximal_weight=0.0, initial_sigma=0.0, max_outer=1, max_inner=1,
                   max_pivot_escalations=0, eps_abs=0.0, eps_rel=1e-8)


class TestUpdatesRejectNonFinite:
    """Every update_* argument is checked before anything is written: a bad
    value raises and the next solve is bit-identical to one before it.
    Bounds may be infinite only on their own side (-inf below, +inf above)."""

    @staticmethod
    def valid_args(d, method):
        return {
            "update_bounds": dict(
                bl=np.full((d.N, d.n_y), -3.0), bu=np.full((d.N, d.n_y), 3.0),
                bl_N=np.full(d.n_yN, -3.0), bu_N=np.full(d.n_yN, 3.0),
            ),
            "update_gradient": dict(
                q=np.full((d.N, d.n_x), 0.1), r=np.full((d.N, d.n_u), -0.1),
                q_N=np.full(d.n_x, 0.1),
            ),
            "update_initial_state": dict(x_init=np.full(d.n_x, 0.05)),
        }[method]

    @pytest.mark.parametrize("method,arg,value", NON_FINITE_UPDATES)
    def test_raises_and_leaves_solve_unchanged(self, method, arg, value):
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=6, seed=2))
        d = p.dims
        assert d.n_yN > 0
        with Solver(p, SolverSettings()) as solver:
            before = solver.solve()
            args = self.valid_args(d, method)
            args[arg].flat[-1] = value
            with pytest.raises(ValueError):
                getattr(solver, method)(**args)
            after = solver.solve()
            args[arg].flat[-1] = 0.0
            getattr(solver, method)(**args)  # the same call with finite data
        assert before[3].solved and after[3].solved
        for a, b in zip(before[:3], after[:3]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("vector", ("x", "y", "lam"))
def test_warm_start_rejects_non_finite(vector, value):
    # the check runs before the solve changes anything: the next solve is
    # bit-identical to the one before the rejected call
    p = gen_spring_mass(SpringMassConfig(masses=4, horizon=10, seed=0))
    with Solver(p, SolverSettings()) as solver:
        warm = solver.solve()[:3]
        before = solver.solve(warm_start=warm)
        bad = [v.copy() for v in warm]
        bad[("x", "y", "lam").index(vector)][-1] = value
        with pytest.raises(ValueError, match=f"warm start {vector}$"):
            solver.solve(warm_start=bad)
        after = solver.solve(warm_start=warm)
    assert before[3].solved and after[3].solved
    for a, b in zip(before[:3], after[:3]):
        assert np.array_equal(a, b)
