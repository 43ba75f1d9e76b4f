import collections
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpqp import alm, kkt, model, oracles
from ocpqp.alm import (
    NonDescentDirection,
    SolverSettings,
    Solver,
    eval_grad_phi,
    eval_phi,
    eval_products,
    exact_line_search,
    solve,
)
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from ocpqp.model import OcpDims, OcpProblem

from test_kkt import diagonal_problem
from test_model import MISSHAPEN, random_problem


# (n_y, n_yN) pairs that pad inequality rows in every stage: the stages
# before N when n_yN > n_y, and with n_y = 0 they hold padded rows only
PADDED_EVERY_STAGE = ((2, 5), (0, 3))


def make_state(problem, x_flat=None, y_flat=None, sigma=1.0, prox=0.0):
    """State at flat iterates; as in the solver, every inequality slot,
    padded rows included, holds the penalty ``sigma``, and the proximal
    weight is the float ``prox``."""
    p = problem
    x = p.from_flat("primal", x_flat) if x_flat is not None else p.zeros("primal")
    y = p.from_flat("dualineq", y_flat) if y_flat is not None else p.zeros("dualineq")
    sigma_y = p.zeros("dualineq")
    sigma_y.data[:] = sigma
    return alm.AlmState(x, y, p.zeros("dualeq"), sigma_y, prox, x.copy())


def evaluate(problem, state, x=None):
    """The solver's evaluation at ``x`` (state.x when None) for the weights
    and center in ``state``, from fresh products."""
    if x is not None:
        state = replace(state, x=x)
    ev = alm.Evaluation.zeros(problem)
    return eval_grad_phi(problem, state, eval_products(problem, state, problem.b_dualeq(), ev))


def line_search(problem, state, dx):
    """The exact line search along ``dx`` from a fresh evaluation at
    state.x, with the step's products formed here."""
    return exact_line_search(
        problem, state, evaluate(problem, state), dx,
        model.mul_Q(problem, dx, out=problem.zeros("primal")),
        model.mul_G(problem, dx, out=problem.zeros("dualineq")),
    )


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
    sig = problem.to_flat("dualineq", state.sigma_y)
    y = problem.to_flat("dualineq", state.y)
    z = dq.G @ x_flat + y / sig
    dist = z - np.clip(z, dq.bl, dq.bu)
    xc = problem.to_flat("primal", state.x_center)
    return (
        0.5 * x_flat @ dq.Q @ x_flat
        + dq.q @ x_flat
        + 0.5 * dist @ (sig * dist)
        + 0.5 * state.sigma_x_inv * (x_flat - xc) @ (x_flat - xc)
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
        state.x = p.from_flat("primal", xf)
        want = dense_phi(p, state, xf)
        assert np.isclose(eval_phi(p, state, evaluate(p, state)), want, rtol=1e-12)


class TestEvalGradPhi:
    def test_interior_at_center(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, N=3, infinite=True)
        xf = rng.standard_normal(p.dims.n)
        state = make_state(p, x_flat=xf, prox=0.25)
        g = p.to_flat("primal", evaluate(p, state).grad)
        dq = oracles.assemble_dense(p)
        assert np.allclose(g, dq.Q @ xf + dq.q, atol=1e-13)

    def test_hand_value(self):
        p = scalar_instance()
        state = make_state(p, x_flat=np.array([0.0, 2.0, 0.0]))
        g = p.to_flat("primal", evaluate(p, state).grad)
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
        g = p.to_flat("primal", evaluate(p, state, p.from_flat("primal", xf)).grad)
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
        dx = p.from_flat("primal", np.array([0.0, -2.0, 0.0]))
        tau = line_search(p, state, dx)
        assert tau == pytest.approx(1.0, abs=1e-14)

    def test_newton_step_on_smooth_quadratic(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, N=3, n_x=2, n_u=2, infinite=True)
        state = make_state(p, x_flat=rng.standard_normal(p.dims.n), prox=1e-6)
        # interior: phi is a smooth quadratic, whose Newton step is exact
        dq = oracles.assemble_dense(p)
        H = dq.Q + state.sigma_x_inv * np.eye(p.dims.n)
        xf = p.to_flat("primal", state.x)
        g = p.to_flat("primal", evaluate(p, state).grad)
        dxf, _ = oracles.dense_newton_solve(H, dq.M, g, np.zeros(p.dims.p))
        tau = line_search(p, state, p.from_flat("primal", dxf))
        assert tau == pytest.approx(1.0, rel=1e-10)

    def test_nondescent_raises(self):
        p = scalar_instance()
        state = make_state(p, x_flat=np.array([0.0, 2.0, 0.0]))
        dx = p.from_flat("primal", np.array([0.0, +2.0, 0.0]))  # uphill
        with pytest.raises(NonDescentDirection):
            line_search(p, state, dx)

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
            dx = p.from_flat("primal", dxf)
            g0 = p.to_flat("primal", evaluate(p, state).grad)
            if g0 @ dxf >= 0:
                dxf = -dxf
                dx = p.from_flat("primal", dxf)
            tau = line_search(p, state, dx)
            xf = p.to_flat("primal", state.x)

            def dphi(t):
                pt = p.from_flat("primal", xf + t * dxf)
                return p.to_flat("primal", evaluate(p, state, pt).grad) @ dxf

            scale = abs(dphi(0.0)) + 1.0
            assert dphi(max(tau - 1e-9 * (1 + tau), 0.0)) <= 1e-7 * scale
            assert dphi(tau + 1e-9 * (1 + tau)) >= -1e-7 * scale


    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from(((6, 3), (3, 6), (0, 3), (5, 0))),
        unbounded=st.sampled_from((False, False, False, True)),
        target=st.floats(0.02, 50.0),
    )
    def test_pruned_matches_full_sort(self, seed, rows, unbounded, target):
        # the direction is scaled so that the minimizer lies at about
        # ``target``: below the unit step, above it, or (all bounds
        # infinite) with no breakpoint at all
        rng = np.random.default_rng(seed)
        p = random_problem(rng, N=6, n_x=2, n_u=2, n_y=rows[0], n_yN=rows[1],
                           infinite=unbounded)
        state = make_state(
            p, x_flat=3.0 * rng.standard_normal(p.dims.n),
            y_flat=rng.standard_normal(p.dims.m), sigma=float(rng.uniform(0.5, 5.0)),
            prox=1e-4,
        )
        state.x_center = p.from_flat("primal", rng.standard_normal(p.dims.n))
        ev = evaluate(p, state)
        dx = p.from_flat("primal", rng.standard_normal(p.dims.n))
        if dx.data @ ev.grad.data >= 0.0:
            dx.data *= -1.0
        dx.data *= full_sort_line_search(p, state, ev, dx) / target
        want = full_sort_line_search(p, state, ev, dx)
        got = line_search(p, state, dx)
        assert abs(got - want) <= 1e-12 * abs(want)


def full_sort_line_search(problem, state, ev, dx):
    """The line search as it was before the breakpoints were pruned: every
    breakpoint sorted and scanned, the reference of the pruned search."""
    dxd = dx.data
    c0 = float(dxd @ ev.grad.data)
    qdx = model.mul_Q(problem, dx, out=problem.zeros("primal")).data
    eta = float(dxd @ qdx + dxd @ (state.sigma_x_inv * dxd))
    delta = model.mul_G(problem, dx, out=problem.zeros("dualineq")).data
    z0, blf, buf, sig = ev.z.data, problem.bl.data, problem.bu.data, state.sigma_y.data
    above = (z0 > buf) | ((z0 == buf) & (delta > 0.0))
    below = (z0 < blf) | ((z0 == blf) & (delta < 0.0))
    curv = sig * delta * delta
    s0 = eta + float(np.sum(curv[above | below]))
    taus, d_s, d_c = [], [], []
    for i in range(delta.size):
        if delta[i] > 0.0:
            events = [(buf[i], +1.0)] if np.isfinite(buf[i]) and z0[i] < buf[i] else []
            events += [(blf[i], -1.0)] if z0[i] < blf[i] else []
        elif delta[i] < 0.0:
            events = [(blf[i], +1.0)] if np.isfinite(blf[i]) and z0[i] > blf[i] else []
            events += [(buf[i], -1.0)] if z0[i] > buf[i] else []
        else:
            events = []
        for bound, sign in events:
            taus.append((bound - z0[i]) / delta[i])
            d_s.append(sign * curv[i])
            d_c.append(sign * sig[i] * delta[i] * (z0[i] - bound))
    c, s = c0, s0
    for k in np.argsort(taus, kind="stable"):
        if c + s * taus[k] >= 0.0:
            break
        c, s = c + d_c[k], s + d_s[k]
    return -c / s


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
        # the products of the iterate (Q, G, M' lam, M) are formed from
        # scratch twice per solve: at the start, where the initial penalty
        # reads Qx and Gx, and where the outer test passes on carried
        # values.  Each pass of the inner loop forms G' y+ (an inner solve of
        # k steps makes k + 1 passes, and the fresh evaluation one more);
        # each Newton step forms M v and M' dlam in the solve and its own
        # Q dx, G dx and M dx
        names = ("mul_Q", "mul_G", "mul_GT", "mul_MT", "mul_M")
        calls = collections.Counter()
        for name in names:
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
                steps, passes = report.inner_iters, report.inner_iters + report.outer_iters
                assert calls["mul_GT"] == passes + 1
                assert calls["mul_Q"] == calls["mul_G"] == calls["mul_MT"] == 2 + steps
                assert calls["mul_M"] == 2 + 2 * steps
                assert sum(calls[n] for n in names) == 9 + 5 * steps + passes

class TestCarriedProducts:
    PROBLEMS = (
        dict(masses=4, horizon=10, seed=0),
        dict(masses=10, horizon=60, seed=3),
        dict(masses=6, horizon=15, seed=1),
    )

    @staticmethod
    def compare_with_fresh(monkeypatch, b):
        """Make every evaluation from scratch after the first of a solve
        check the carried Gx, Qx, M' lam and r = Mx - b against the fresh
        products first; returns the list that gathers the inner iteration
        count and the largest penalty at each check."""
        original = alm.eval_products
        compared = []

        def checked(problem, state, rhs, ev):
            if state.inner_iter == 0:  # the solve's first evaluation
                return original(problem, state, rhs, ev)
            carried = [v.data.copy() for v in (ev.gx, ev.qx, ev.mtl, ev.r)]
            original(problem, state, rhs, ev)
            for name, old, new in zip(("gx", "qx", "mtl", "r"), carried,
                                      (ev.gx, ev.qx, ev.mtl, ev.r)):
                scale = 1.0 + np.max(np.abs(b.data if name == "r" else new.data))
                err = float(np.max(np.abs(old - new.data), initial=0.0))
                assert err <= 1e-12 * scale, (name, err, scale)
            compared.append((state.inner_iter, float(np.max(state.sigma_y.data))))
            return ev

        monkeypatch.setattr(alm, "eval_products", checked)
        return compared

    @pytest.mark.parametrize("cfg", PROBLEMS)
    def test_carried_products_match_fresh(self, cfg, monkeypatch):
        # where the outer test passes on carried values the iterate is
        # evaluated from scratch: there the carried Gx, Qx, M' lam and
        # r = Mx - b, moved along every step of the solve, agree with the
        # fresh products
        p = gen_spring_mass(SpringMassConfig(**cfg))
        compared = self.compare_with_fresh(monkeypatch, p.b_dualeq())
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved and report.inner_iters >= 5
        assert compared and compared[-1][0] == report.inner_iters

    def test_carried_products_at_large_penalties(self, monkeypatch):
        # warm-started at initial_sigma=1e6 after its initial state moved,
        # this random problem takes a dozen inner iterations at penalties of
        # 1e6 and beyond (ROADMAP item 8), where y+ = Sigma_y (z - proj z)
        # magnifies any drift of Gx: the carried products still agree with
        # fresh ones, and the report, whatever its status, is that of a
        # fresh evaluation at the returned (x, y, lam)
        p = gen_random_ocp(OcpDims(12, 5, 3, 4, 4), seed=17, feasibility_margin=0.3)
        x, y, lam, report = solve(p)
        assert report.solved
        moved = p.x_init + 0.1 * np.random.default_rng(17).standard_normal(p.dims.n_x)
        with Solver(p, SolverSettings(initial_sigma=1e6)) as solver:
            solver.update_initial_state(moved)
            q = solver.problem
            compared = self.compare_with_fresh(monkeypatch, q.b_dualeq())
            x, y, lam, report = solver.solve(warm_start=(x, y, lam))
        assert report.inner_iters >= 5
        assert max(sigma for _, sigma in compared) >= 1e6
        assert compared[-1][0] == report.inner_iters
        assert (report.dual_res, report.eq_res, report.primal_res) == \
            from_scratch_residuals(q, x, y, lam)

    @pytest.mark.parametrize("cfg", PROBLEMS)
    def test_report_residuals_from_scratch(self, cfg):
        # the reported residuals are those of a fresh evaluation at the
        # returned (x, y, lam), formed in the same order, bit for bit
        p = gen_spring_mass(SpringMassConfig(**cfg))
        with Solver(p, SolverSettings()) as solver:
            for warm in (None, "warm"):
                x, y, lam, report = solver.solve(warm_start=warm and (x, y, lam))
                assert report.solved
                assert (report.dual_res, report.eq_res, report.primal_res) == \
                    from_scratch_residuals(p, x, y, lam)

    def test_carried_pass_alone_never_ends_a_solve(self, monkeypatch):
        # an outer test that passes every carried evaluation: each outer
        # iteration then evaluates from scratch, and only the fresh test
        # decides, so the solve ends solved and inside the tolerance
        p = gen_spring_mass(SpringMassConfig(masses=6, horizon=15, seed=1))
        original = Solver._outer_test
        calls = []

        def lenient(self, ev):
            calls.append(len(calls))
            result = original(self, ev)
            return (True,) + result[1:] if len(calls) % 2 else result

        monkeypatch.setattr(Solver, "_outer_test", lenient)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved and len(calls) == 2 * report.outer_iters
        assert max(report.dual_res, report.eq_res, report.primal_res) <= 1e-8
        assert max(oracles.kkt_residuals(p, x, y, lam)) <= 1e-8

    def test_initial_penalty_reads_the_first_evaluation(self):
        # a warm start's penalty, bit for bit, from products formed for it:
        # the cost over the squared bound violation of Gx, for an x inside
        # the bounds (divisor 1) and one far outside them
        rng = np.random.default_rng(14)
        p = gen_spring_mass(SpringMassConfig(masses=5, horizon=12, seed=2))
        for scale, violated in ((0.1, False), (10.0, True)):
            state = make_state(p, x_flat=scale * rng.standard_normal(p.dims.n))
            x = state.x
            qx = model.mul_Q(p, x, out=p.zeros("primal")).data
            cost = abs(0.5 * float(x.data @ qx) + float(x.data @ p.lin.data))
            gx = model.mul_G(p, x, out=p.zeros("dualineq")).data
            viol = gx - np.clip(gx, p.bl.data, p.bu.data)
            assert (0.5 * float(viol @ viol) > 1.0) == violated
            want = float(np.clip(20.0 * max(1.0, cost) / max(1.0, 0.5 * float(viol @ viol)),
                                 1e-4, 1e4))
            ev = eval_products(p, state, p.b_dualeq(), alm.Evaluation.zeros(p))
            assert alm.initial_penalty(p, x, ev) == want


class TestPenaltyGrowth:
    """Penalties grow only on rows whose violation stalls above the primal
    tolerance, and warm starts take the violation-scaled initial penalty."""

    def test_cold_start_takes_twenty(self, monkeypatch):
        # 0 violates this problem's bounds, so the warm-start rule would
        # give less than 20 at x = 0; a cold start takes 20 on every row
        # and does not call the rule
        p = gen_random_ocp(OcpDims(20, 6, 3, 6, 6), seed=0, feasibility_margin=0.3)
        zero = make_state(p)
        ev = eval_products(p, zero, p.b_dualeq(), alm.Evaluation.zeros(p))
        assert alm.initial_penalty(p, zero.x, ev) < alm.COLD_PENALTY == 20.0
        with Solver(p) as solver:
            x, y, lam, _ = solver.solve()
            warm = solver._init_state((x, y, lam), alm.Evaluation.zeros(p))
            monkeypatch.setattr(alm, "initial_penalty", None)
            cold = solver._init_state(None, alm.Evaluation.zeros(p))
        assert np.all(cold.sigma_y.data == 20.0)
        assert np.all(warm.sigma_y.data > 20.0)

    def test_row_within_tolerance_keeps_its_penalty(self, monkeypatch):
        # warm-started at its own solution with initial_sigma=1e3, this
        # problem's outer loop goes on for several iterations on its dual
        # residual alone, while rows already within the primal tolerance
        # "stall" (each above the trigger times its last value): none of
        # them may grow; grown without bound, they ended the solve max_iter
        p = gen_random_ocp(OcpDims(12, 5, 3, 4, 4), seed=17, feasibility_margin=0.3)
        x, y, lam, report = solve(p, SolverSettings(initial_sigma=1e3))
        assert report.solved
        outer_test, inner_solve = Solver._outer_test, Solver._inner_solve
        iters = []  # per outer iteration: its penalties, then its last test

        def record_inner(self, state, *args):
            iters.append({"sigma": state.sigma_y.data.copy()})
            return inner_solve(self, state, *args)

        def record_test(self, ev):
            result = outer_test(self, ev)
            iters[-1]["comp"] = result[4].copy()
            return result

        monkeypatch.setattr(Solver, "_inner_solve", record_inner)
        monkeypatch.setattr(Solver, "_outer_test", record_test)
        settings = SolverSettings(initial_sigma=1e3)  # eps_rel = 0: the primal tolerance is eps_abs
        x, y, lam, report = solve(p, settings, warm_start=(x, y, lam))
        assert report.outer_iters == len(iters) >= 3
        stalled_within = 0
        for prev, cur, nxt in zip(iters, iters[1:], iters[2:]):
            within = cur["comp"] <= settings.eps_abs
            assert np.array_equal(nxt["sigma"][within], cur["sigma"][within])
            stalled_within += np.count_nonzero(
                within & (cur["comp"] > alm.PENALTY_TRIGGER * prev["comp"]))
        assert stalled_within > 0
        assert report.solved

    def test_drifting_initial_state(self):
        # an MPC-like sequence: the initial state takes a random step before
        # each solve, which is warm-started from the last solution; with the
        # violation-scaled penalty (about 7e3 here) but penalties growing on
        # rows within tolerance, steps 0-3 of this seed ended max_iter
        p = gen_random_ocp(OcpDims(60, 12, 6, 12, 6), seed=6)
        rng = np.random.default_rng(6)
        with Solver(p) as solver:
            x, y, lam, report = solver.solve()
            assert report.solved
            for step in range(4):
                solver.update_initial_state(
                    solver.problem.x_init + 0.03 * rng.standard_normal(p.dims.n_x))
                x, y, lam, report = solver.solve(warm_start=(x, y, lam))
                assert report.solved, (step, report.status)
                assert report.outer_iters <= 10

    @pytest.mark.parametrize("dims, seed", (
        ((12, 5, 3, 4, 4), 9), ((20, 6, 3, 6, 6), 8), ((8, 4, 2, 3, 2), 31),
        ((8, 4, 2, 3, 2), 68),
    ))
    def test_warm_start_at_own_solution(self, dims, seed):
        # warm starts at the solver's own solution with initial_sigma=1e3
        # that ended max_iter while rows within tolerance kept growing
        p = gen_random_ocp(OcpDims(*dims), seed=seed, feasibility_margin=0.3)
        with Solver(p, SolverSettings(initial_sigma=1e3)) as solver:
            x, y, lam, report = solver.solve()
            assert report.solved
            x, y, lam, report = solver.solve(warm_start=(x, y, lam))
        assert report.solved
        assert max(oracles.kkt_residuals(p, x, y, lam)) <= 1e-8

    def test_stall_counters(self, monkeypatch):
        # at initial_sigma=1e8 the inner solves stall at the rounding floor
        # of ROADMAP item 8; with max_inner=3 some end on a direction that
        # does not descend and some on the step limit, and the report
        # counts each kind and the largest penalty
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=6))
        original = alm.exact_line_search
        raised = []

        def counted(*args):
            try:
                return original(*args)
            except NonDescentDirection:
                raised.append(1)
                raise

        monkeypatch.setattr(alm, "exact_line_search", counted)
        settings = SolverSettings(initial_sigma=1e8, max_inner=3)
        x, y, lam, report = solve(p, settings)
        assert report.status == alm.MAX_ITER
        assert report.nondescent_breaks == len(raised) > 0
        assert report.max_inner_hits > 0
        assert report.nondescent_breaks + report.max_inner_hits <= report.outer_iters
        assert report.inner_iters <= settings.max_inner * report.outer_iters
        assert report.max_penalty == alm.SIGMA_MAX


def structure_off(monkeypatch):
    """Route every product with Q, G and G' through dense per-stage matmuls
    over the stage blocks, and the diagonal variant's H_j diagonals through
    the dense assembly of whole blocks, so that a solve reads no
    DiagonalStructure."""

    def mul_Q(problem, x, out):
        np.matmul(problem.cost.stack, x.stack, out=out.stack)
        return out

    def mul_G(problem, x, out):
        np.matmul(problem.con.stack, x.stack, out=out.stack)
        return out

    def mul_GT(problem, z, out):
        np.matmul(problem.con.stack.transpose(0, 2, 1), z.stack, out=out.stack)
        return out

    def assemble_H_diagonal(f, weights, sigma_x_inv, stages, out):
        work = kkt.StageFactorization.allocate(f.problem)  # a dense one
        H = np.empty((len(stages),) + work.linv_lm.shape[1:])
        kkt.assemble_H(work, weights, sigma_x_inv, stages, H)
        out[...] = np.diagonal(H, axis1=1, axis2=2)
        return out

    for fn in (mul_Q, mul_G, mul_GT):
        monkeypatch.setattr(model, fn.__name__, fn)
    monkeypatch.setattr(kkt, "assemble_H_diagonal", assemble_H_diagonal)


class TestDiagonalStructure:
    """The elementwise products and H diagonals of a diagonal problem leave
    every solve bit for bit as the dense stage blocks give it."""

    REPORTED = ("status", "outer_iters", "inner_iters", "factorizations",
                "full_factorizations", "stages_factored", "psi_blocks_factored")

    def solves(self, problem, variant):
        """A cold solve, then one warm-started from it."""
        with Solver(problem, SolverSettings(variant=variant)) as solver:
            cold = solver.solve()
            return cold, solver.solve(warm_start=cold[:3])

    @pytest.mark.parametrize("variant", ("auto", "dense"))
    @pytest.mark.parametrize("case", ("spring_mass", "random_diagonal"))
    def test_solves_bit_identical_without_structure(self, case, variant, monkeypatch):
        if case == "spring_mass":
            p = gen_spring_mass(SpringMassConfig(masses=6, horizon=15, seed=4))
        else:
            p = diagonal_problem(np.random.default_rng(90), N=12, n_x=4, n_u=2)
        assert p.is_diagonal()
        with_structure = self.solves(p, variant)
        with monkeypatch.context() as m:
            structure_off(m)
            without = self.solves(p, variant)
        for got, want in zip(with_structure, without):
            assert got[3].solved
            for a, b in zip(got[:3], want[:3]):
                assert a.tobytes() == b.tobytes()
            assert [getattr(got[3], k) for k in self.REPORTED] == [
                getattr(want[3], k) for k in self.REPORTED
            ]


def from_scratch_residuals(problem, x, y, lam):
    """Dual, equality and primal residuals at flat (x, y, lam) from fresh
    products, summed in the order the solver sums them."""
    p = problem
    xs, ys, ls = p.from_flat("primal", x), p.from_flat("dualineq", y), p.from_flat("dualeq", lam)
    dual = model.mul_Q(p, xs, out=p.zeros("primal")).data + p.lin.data
    dual += model.mul_MT(p, ls, out=p.zeros("primal")).data
    dual += model.mul_GT(p, ys, out=p.zeros("primal")).data
    eq = model.mul_M(p, xs, out=p.zeros("dualeq")).data - p.b_dualeq().data
    gx = model.mul_G(p, xs, out=p.zeros("dualineq")).data
    viol = np.maximum(np.maximum(p.bl.data - gx, gx - p.bu.data), 0.0)
    return float(np.max(np.abs(dual))), float(np.max(np.abs(eq))), float(np.max(viol))


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

    @pytest.mark.parametrize("flaw, message", (
        ("lower_plus_inf", "lower bound +inf at stage 1"),
        ("upper_minus_inf", "upper bound -inf at stage 3"),
        ("x_init", "non-finite x_init"),
    ))
    def test_solver_refuses_an_invalid_problem(self, flaw, message):
        p = random_problem(np.random.default_rng(12), N=3)
        if flaw == "lower_plus_inf":
            p.bl.stack[1, 0, 0] = np.inf
        elif flaw == "upper_minus_inf":
            p.bu.stack[3, 0, 0] = -np.inf  # a terminal row
        else:
            p.x_init[1] = np.nan
        with pytest.raises(ValueError, match="^invalid problem: .*" + re.escape(message)):
            Solver(p, SolverSettings())

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

    def test_failed_stage_factorization_counts_no_psi_block(self, monkeypatch):
        # the problem above, N = 2 with Q = -0.5: every attempt fails in
        # factor_stages, so factor_psi never runs and no Psi block is
        # counted, while every attempted stage is
        p = OcpProblem.from_stages(
            Q=-0.5 * np.ones((1, 1)), S=np.zeros((1, 1)), R=np.ones((1, 1)),
            q=np.zeros((2, 1)), r=np.zeros(1), A=np.ones((1, 1)), B=np.ones((1, 1)),
            c=np.zeros(1), C=np.zeros((0, 1)), D=np.zeros((0, 1)), bl=np.zeros(0),
            bu=np.zeros(0), Q_N=np.zeros((1, 1)), q_N=np.zeros(1), C_N=np.zeros((0, 1)),
            bl_N=np.zeros(0), bu_N=np.zeros(0), x_init=np.ones(1),
        )
        psi_calls = []
        original = kkt.factor_psi
        monkeypatch.setattr(
            kkt, "factor_psi", lambda *args: psi_calls.append(1) or original(*args)
        )
        x, y, lam, report = solve(p, SolverSettings(max_outer=3))
        assert report.status == alm.NUMERICAL_ERROR
        assert psi_calls == []
        assert report.psi_blocks_factored == 0
        assert report.factorizations == alm.MAX_PIVOT_ESCALATIONS + 1
        assert report.stages_factored == report.factorizations * 3

    def test_nan_in_psi_ends_as_numerical_error(self, monkeypatch):
        # a Psi that holds a NaN is a failed pivot: the solve escalates,
        # gives up with numerical_error and returns no NaN iterate
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=8, seed=3))
        original = kkt.factor_stages

        def poisoned(f, *args):
            original(f, *args)
            f.p_lm[2, 1, f.problem.dims.n_x] = np.nan  # Psi_{3,2}[1, 0]

        monkeypatch.setattr(kkt, "factor_stages", poisoned)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.status == alm.NUMERICAL_ERROR
        assert all(np.isfinite(v).all() for v in (x, y, lam))

    def test_factorization_counts(self):
        # later factorizations refactor only the stages that changed, so the
        # stage slots refactored fall short of a full refactor each time
        p = gen_spring_mass(SpringMassConfig(masses=30, horizon=30, seed=5))
        with Solver(p, SolverSettings(variant="dense")) as solver:
            _, _, _, report = solver.solve()
            nstages = len(solver.work.p_lm)
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
            assert len(solver.work.p_lm) == p.dims.N + 1
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
        for way in ("to_flat", "from_flat"):

            def counted(self, kind, v, _way=way, _original=getattr(OcpProblem, way)):
                calls.append(f"{kind}_{_way}")
                return _original(self, kind, v)

            monkeypatch.setattr(OcpProblem, way, counted)
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


class TestUpdatesRejectShapes:
    """update_bounds and update_gradient take the shapes from_stages takes
    and raise ValueError naming the family on any other, before anything is
    written."""

    @pytest.mark.parametrize("name,value", MISSHAPEN, ids=lambda v: str(getattr(v, "shape", v)))
    def test_raises_naming_the_family(self, name, value):
        p = gen_random_ocp(OcpDims(4, 2, 1, 3, 2), seed=0)
        d = p.dims
        args = {
            "update_bounds": dict(
                bl=np.full((d.N, d.n_y), -3.0), bu=np.full((d.N, d.n_y), 3.0),
                bl_N=np.full(d.n_yN, -3.0), bu_N=np.full(d.n_yN, 3.0),
            ),
            "update_gradient": dict(
                q=np.zeros((d.N, d.n_x)), r=np.zeros((d.N, d.n_u)), q_N=np.zeros(d.n_x),
            ),
        }
        method = next(m for m, kwargs in args.items() if name in kwargs)
        kwargs = args[method]
        kwargs[name] = value
        with Solver(p, SolverSettings()) as solver:
            before = {k: getattr(solver.problem, k).stack.copy() for k in ("lin", "bl", "bu")}
            with pytest.raises(ValueError, match=f"^{name}: expected shape"):
                getattr(solver, method)(**kwargs)
            for k, stack in before.items():
                assert np.array_equal(getattr(solver.problem, k).stack, stack)


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
    dict(initial_sigma=np.nan),
    dict(initial_sigma=-1.0),
    dict(max_outer=0),
    dict(max_inner=0),
    dict(max_outer=np.nan),
    dict(max_outer=3.0),
    dict(max_inner=2.5),
    dict(max_inner=np.inf),
    dict(eps_abs=-1.0, eps_rel=1e-8),
    dict(eps_abs=1e-8, eps_rel=np.nan),
    dict(eps_abs=np.inf),
    dict(worker_count=0),
    dict(worker_count=-2),
    dict(worker_count=2.5),
    dict(worker_count=np.nan),
    # bool is an Integral, and True would pass for 1
    dict(worker_count=True),
    dict(max_outer=True),
    dict(max_inner=True),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_settings_reject_non_finite_or_out_of_range(kwargs):
    with pytest.raises(ValueError):
        SolverSettings(**kwargs)


def test_settings_accept_edge_values():
    # a zero penalty is clipped to SIGMA_MIN where it is used
    SolverSettings(initial_sigma=0.0, max_outer=1, max_inner=1, eps_abs=0.0, eps_rel=1e-8)


def test_settings_hold_only_the_named_fields():
    # a value that only one setting is ever given is a module constant
    # (PENALTY_GROWTH, PENALTY_TRIGGER, PROXIMAL_WEIGHT, MAX_PIVOT_ESCALATIONS),
    # not a field
    assert [f.name for f in fields(SolverSettings)] == [
        "eps_abs", "eps_rel", "max_outer", "max_inner", "initial_sigma",
        "worker_count", "lane_width", "variant", "log_inner",
    ]


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
