import numpy as np
import pytest

from ocpqp import oracles
from ocpqp.alm import SolverSettings, solve
from ocpqp.bench import (
    BenchCase,
    SpringMassConfig,
    discretize_exact,
    gen_random_ocp,
    gen_spring_mass,
    loglog_slope,
    run_benchmark,
    spring_mass_continuous,
    write_csv,
)
from ocpqp.model import OcpDims, validate


class TestSpringMass:
    def test_largest_paper_size(self):
        cfg = SpringMassConfig(masses=70, horizon=15)
        p = gen_spring_mass(cfg)
        assert p.dims.n_x == 140
        assert p.dims.n_u == 69
        assert p.dims.n == 3275

    def test_single_mass_rejected(self):
        with pytest.raises(ValueError):
            SpringMassConfig(masses=1, horizon=15)

    def test_double_integrator_limit(self):
        # no springs, no damping: two decoupled double integrators
        cfg = SpringMassConfig(masses=2, horizon=3, spring_k=1e-30, damping=0.0, ts=0.5)
        Ac, Bc = spring_mass_continuous(cfg)
        Ad, Bd = discretize_exact(np.where(np.abs(Ac) < 1e-20, 0.0, Ac), Bc, cfg.ts)
        ts = cfg.ts
        want_A = np.eye(4)
        want_A[0, 2] = want_A[1, 3] = ts
        F = np.array([[1.0], [-1.0]])
        want_B = np.vstack([F * ts**2 / 2.0, F * ts])
        assert np.allclose(Ad, want_A, atol=1e-12)
        assert np.allclose(Bd, want_B, atol=1e-12)

    def test_structure_is_diagonal(self):
        p = gen_spring_mass(SpringMassConfig(masses=3, horizon=5, seed=1))
        assert p.is_diagonal()
        assert validate(p).ok

    def test_seeded_determinism(self):
        a = gen_spring_mass(SpringMassConfig(masses=3, horizon=5, seed=9))
        b = gen_spring_mass(SpringMassConfig(masses=3, horizon=5, seed=9))
        assert np.array_equal(a.x_init, b.x_init)
        assert np.array_equal(a.cost.data, b.cost.data)


class TestRandomOcp:
    def test_deterministic(self):
        dims = OcpDims(3, 2, 1, 2, 1)
        a = gen_random_ocp(dims, seed=5)
        b = gen_random_ocp(dims, seed=5)
        for name in ("cost", "lin", "dyn", "affine", "con", "bl", "bu"):
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data)

    def test_infinite_margin_unconstrained(self):
        p = gen_random_ocp(OcpDims(3, 2, 1, 2, 1), seed=1, feasibility_margin=np.inf)
        lo, hi = p.flat_bounds()
        assert np.all(np.isneginf(lo)) and np.all(np.isposinf(hi))

    def test_feasible_with_bounded_optimum(self):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=3, feasibility_margin=0.6)
        assert validate(p).ok
        x_ref, y_ref, lam_ref, obj = oracles.enumerate_active_sets(p)
        assert np.isfinite(obj)
        dual, eq, primal, comp = oracles.kkt_residuals(p, x_ref, y_ref, lam_ref)
        assert max(dual, eq, primal, comp) < 1e-8


class TestVerify:
    def test_riccati_path(self):
        p = gen_random_ocp(OcpDims(3, 2, 1, 0, 0), seed=2, feasibility_margin=np.inf)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved
        ver = oracles.verify_against_oracle(p, (x, y, lam), oracle="riccati")
        assert ver.ok

    def test_enumeration_counts_candidates(self):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 2), seed=4, feasibility_margin=0.8)
        assert p.dims.m == 4
        x, y, lam, report = solve(p, SolverSettings())
        ver = oracles.verify_against_oracle(p, (x, y, lam), oracle="enumerate")
        assert ver.ok

    def test_perturbed_solution_fails(self):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=6, feasibility_margin=0.7)
        x, y, lam, report = solve(p, SolverSettings())
        assert report.solved
        x_bad = x + 1e-3
        ver = oracles.verify_against_oracle(p, (x_bad, y, lam), oracle="residual")
        assert not ver.ok

    def test_feasible_non_optimal_point_fails_complementarity(self):
        # the zero-input rollout is feasible, and since every variable has its
        # own constraint row, least-squares multipliers make it stationary:
        # only the complementarity residual tells it from the optimum
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=0))
        d = p.dims
        parts, xs = [], p.x_init
        for j in range(d.N):
            parts += [xs, np.zeros(d.n_u)]
            xs = p.A(j) @ xs + p.c(j)
        x = np.concatenate(parts + [xs])
        dq = oracles.assemble_dense(p)
        mult = np.linalg.lstsq(np.hstack([dq.M.T, dq.G.T]), -(dq.Q @ x + dq.q), rcond=None)[0]
        lam, y = mult[: d.p], mult[d.p :]
        dual, eq, primal, comp = oracles.kkt_residuals(p, x, y, lam)
        assert max(dual, eq, primal) < 1e-12
        assert comp == pytest.approx(1.50, abs=0.01)
        assert not oracles.verify_against_oracle(p, (x, y, lam), oracle="residual").ok

    def test_intractable_enumeration(self):
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=0))
        with pytest.raises(oracles.OracleIntractable):
            oracles.enumerate_active_sets(p, max_candidates=1000)


class TestHarness:
    def test_single_config_csv(self, tmp_path):
        case = BenchCase(
            family="spring-mass",
            params={"masses": 3, "horizon": 6},
            seeds=[0, 1, 2],
            variant="dense",
            workers=1,
        )
        results = run_benchmark([case])
        res = results[0]
        assert len(res.times) == 3
        assert not res.failures
        assert res.gmean > 0 and res.tmin <= res.gmean <= res.tmax
        assert res.max_residual <= 1e-8
        out = tmp_path / "bench.csv"
        write_csv(results, out)
        text = out.read_text().splitlines()
        assert text[0].startswith("family,")
        assert len(text) == 2
        assert "spring-mass" in text[1]

    def test_random_family_and_determinism(self):
        case = BenchCase(
            family="random",
            params={"dims": OcpDims(3, 2, 1, 2, 1), "margin": 1.0},
            seeds=[0, 1],
        )
        r1 = run_benchmark([case])[0]
        r2 = run_benchmark([case])[0]
        assert r1.outer_iters == r2.outer_iters
        assert r1.inner_iters == r2.inner_iters

    def test_loglog_slope(self):
        ns = np.array([10, 20, 40, 80])
        assert loglog_slope(ns, 3.0 * ns) == pytest.approx(1.0, abs=1e-12)
        assert loglog_slope(ns, 0.5 * ns**2) == pytest.approx(2.0, abs=1e-12)
