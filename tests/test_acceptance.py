"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6 and the speed half of 7 are hardware-dependent trends:
they print WARN instead of failing.
"""

import os
import time

import numpy as np
import pytest

from ocpqp import kkt, model, oracles
from ocpqp.alm import Solver, SolverSettings, solve
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass, loglog_slope
from ocpqp.compact import CompactBatch
from ocpqp.model import OcpDims

EPS = 1e-8


# one worker runs every stage inline and holds no threads
INLINE = kkt.WorkerPool(1)


def _active_weights(problem, sigma_y, y, x):
    """Active weights at z = Gx + y / sigma_y, as the inner loop forms them."""
    z = model.mul_G(problem, x)
    z.data += y.data / sigma_y.data
    return kkt.weights_from_shifted(problem, sigma_y, z)


def _line(num, ok, detail, soft=False):
    tag = "PASS" if ok else ("WARN" if soft else "FAIL")
    print(f"ACCEPTANCE {num}: {tag} - {detail}")
    return ok


@pytest.fixture(scope="module")
def spring_mass_runs():
    """The 100 seeded criterion-1 solves, shared with criterion 8.  The
    independent residual is the largest of the dual, equality, bound and
    complementarity residuals."""
    runs = []
    settings = SolverSettings(eps_abs=EPS, log_inner=True)
    for seed in range(100):
        problem = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=seed))
        with Solver(problem, settings) as solver:
            x, y, lam, report = solver.solve()
        resid = max(oracles.kkt_residuals(problem, x, y, lam))
        runs.append((seed, problem, report, resid))
    return runs


class TestCriterion1:
    def test_spring_mass_paper_tolerance(self, spring_mass_runs):
        bad = [
            (seed, rep.status, res)
            for seed, _, rep, res in spring_mass_runs
            if rep.status != "solved" or res > EPS
        ]
        worst = max(res for _, _, _, res in spring_mass_runs)
        ok = not bad
        assert _line(
            1, ok,
            f"100/100 spring-mass (M=10, N=15) solved, max independent KKT residual "
            f"(complementarity included) {worst:.2e} <= {EPS:.0e}" if ok else f"failures: {bad[:5]}",
        )


class TestCriterion2:
    def test_enumeration_oracle_match(self):
        rng = np.random.default_rng(2024)
        errs = []
        count = 0
        seed = 0
        while count < 50:
            N = int(rng.integers(1, 5))
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 3))
            n_y = int(rng.integers(0, 3))
            n_yN = int(rng.integers(0, 3))
            if N * n_y + n_yN > 8 or N * n_y + n_yN == 0:
                n_y, n_yN = 1, 1
            problem = gen_random_ocp(
                OcpDims(N, n_x, n_u, n_y, n_yN), seed=seed, feasibility_margin=0.5
            )
            seed += 1
            try:
                x_ref, _, _, _ = oracles.enumerate_active_sets(problem)
            except oracles.OracleIntractable:
                continue
            x, y, lam, report = solve(problem, SolverSettings(eps_abs=EPS))
            assert report.solved, f"instance {seed}: {report.status}"
            errs.append(float(np.max(np.abs(x - x_ref))))
            count += 1
        ok = max(errs) <= 1e-6
        assert _line(
            2, ok,
            f"50 constrained instances vs active-set enumeration: max |x - x*| = "
            f"{max(errs):.2e} <= 1e-6",
        )

    def test_riccati_oracle_match(self):
        errs = []
        for seed in range(20):
            problem = gen_random_ocp(
                OcpDims(4, 3, 2, 0, 0), seed=seed, feasibility_margin=np.inf
            )
            x, y, lam, report = solve(problem, SolverSettings(eps_abs=EPS))
            assert report.solved
            x_ref, _ = oracles.riccati_solve(problem)
            errs.append(float(np.max(np.abs(x - x_ref))))
        ok = max(errs) <= 1e-7
        assert _line(
            2, ok,
            f"20 unconstrained instances vs Riccati recursion: max |x - x*| = "
            f"{max(errs):.2e} <= 1e-7",
        )


class TestCriterion3:
    def test_structured_vs_dense_linear_algebra(self):
        rng = np.random.default_rng(3)
        worst_kkt, worst_psi = 0.0, 0.0
        for trial in range(100):
            N = int(rng.integers(1, 7))
            n_x = int(rng.integers(1, 5))
            n_u = int(rng.integers(1, 3))
            problem = gen_random_ocp(
                OcpDims(N, n_x, n_u, 2, 1), seed=300 + trial, feasibility_margin=1.0
            )
            x = rng.standard_normal(problem.dims.n)
            sy = problem.dualineq_zeros()
            sy.data[:] = 1.7
            weights = _active_weights(
                problem, sy, problem.dualineq_zeros(), problem.primal_from_flat(x)
            )
            delta = 1e-3
            sxinv = problem.primal_zeros()
            sxinv.data[:] = delta
            work = kkt.StageFactorization.allocate(problem)
            kkt.assemble_H(work, weights, sxinv)
            kkt.factor_stages(work, INLINE)
            kkt.factor_psi(work)

            dq = oracles.assemble_dense(problem)
            sig = problem.dualineq_to_flat(weights)
            Hd = dq.Q + dq.G.T @ np.diag(sig) @ dq.G + delta * np.eye(problem.dims.n)
            psi_dense = dq.M @ np.linalg.solve(Hd, dq.M.T)
            scale = np.max(np.abs(psi_dense))
            for j in range(problem.dims.N + 1):
                r = j * n_x
                err = np.max(np.abs(work.psi_diag[j] - psi_dense[r : r + n_x, r : r + n_x]))
                worst_psi = max(worst_psi, err / scale)
                if j < problem.dims.N:
                    err = np.max(np.abs(
                        work.psi_sub[j] - psi_dense[r + n_x : r + 2 * n_x, r : r + n_x]
                    ))
                    worst_psi = max(worst_psi, err / scale)

            g = rng.standard_normal(problem.dims.n)
            lam = rng.standard_normal(problem.dims.p)
            r_eq = rng.standard_normal(problem.dims.p)
            dx, dlam = kkt.solve_newton(
                work,
                problem.primal_from_flat(g + dq.M.T @ lam),
                problem.dualeq_from_flat(r_eq),
            )
            dxf = problem.primal_to_flat(dx)
            dlf = problem.dualeq_to_flat(dlam)
            res1 = Hd @ dxf + dq.M.T @ dlf + (g + dq.M.T @ lam)
            res2 = dq.M @ dxf + r_eq
            rhs_norm = max(np.max(np.abs(g + dq.M.T @ lam)), np.max(np.abs(r_eq)), 1.0)
            worst_kkt = max(worst_kkt, max(np.max(np.abs(res1)), np.max(np.abs(res2))) / rhs_norm)
        ok = worst_kkt <= 1e-10 and worst_psi <= 1e-11
        assert _line(
            3, ok,
            f"100 Newton systems: relative KKT residual {worst_kkt:.2e} <= 1e-10, "
            f"Psi vs dense Schur {worst_psi:.2e} <= 1e-11",
        )


def _product_err(got, A, v):
    """Forward error of a product against the dense oracle, relative to the
    magnitude max(|A| |v|) that roundoff propagates from."""
    if got.size == 0:
        return 0.0
    want = A @ v
    scale = max(float(np.max(np.abs(A) @ np.abs(v))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


class TestCriterion4:
    """The stage kernels the solver calls, against the independent dense
    assembly: storage round trip, the five structured products, and the
    stage-wise Hessian assemble + factor + solve."""

    def test_kernel_reference_sweep(self):
        rng = np.random.default_rng(4)
        cases = 0
        edges = {"n_y=0": 0, "n_yN=0": 0, "N=1": 0}
        worst_roundtrip = worst_product = worst_backward = 0.0
        roundtrip_exact = True
        while cases < 1000:
            N = int(rng.integers(1, 7))
            n_x, n_u = (int(v) for v in rng.integers(1, 5, 2))
            n_y, n_yN = (int(v) for v in rng.integers(0, 4, 2))
            edges["n_y=0"] += n_y == 0
            edges["n_yN=0"] += n_yN == 0
            edges["N=1"] += N == 1
            p = gen_random_ocp(OcpDims(N, n_x, n_u, n_y, n_yN), seed=4000 + cases)
            dm = p.dims

            # storage round trip
            rows, cols = (int(v) for v in rng.integers(0, 6, 2))
            count = int(rng.integers(1, 10))
            stack = rng.standard_normal((count, rows, cols))
            batch = CompactBatch.from_stack(stack)
            roundtrip_exact &= batch.nstages == count and np.array_equal(batch.to_stack(), stack)

            # structured products against the dense matrices
            dq = oracles.assemble_dense(p)
            x = rng.standard_normal(dm.n)
            lam = rng.standard_normal(dm.p)
            z = rng.standard_normal(dm.m)
            xb, lb, zb = p.primal_from_flat(x), p.dualeq_from_flat(lam), p.dualineq_from_flat(z)
            for got, A, v in (
                (p.primal_to_flat(model.mul_Q(p, xb)), dq.Q, x),
                (p.dualeq_to_flat(model.mul_M(p, xb)), dq.M, x),
                (p.primal_to_flat(model.mul_MT(p, lb)), dq.M.T, lam),
                (p.dualineq_to_flat(model.mul_G(p, xb)), dq.G, x),
                (p.primal_to_flat(model.mul_GT(p, zb)), dq.G.T, z),
            ):
                worst_product = max(worst_product, _product_err(got, A, v))

            # assemble_H + factor_stages + solve_H: normwise backward error
            # with penalties log-uniform in [1e-4, 1e9] on about half the rows
            sig = np.where(
                rng.random(dm.m) < 0.5, 10.0 ** rng.uniform(-4, 9, dm.m), 0.0
            )
            weights = p.dualineq_from_flat(sig)
            delta = 1e-7
            sxinv = p.primal_zeros()
            sxinv.data[:] = delta
            work = kkt.StageFactorization.allocate(p)
            kkt.assemble_H(work, weights, sxinv)
            kkt.factor_stages(work, INLINE)
            b = rng.standard_normal(dm.n)
            zf = p.primal_to_flat(kkt.solve_H(work, p.primal_from_flat(b)))
            Hd = dq.Q + dq.G.T @ np.diag(sig) @ dq.G + delta * np.eye(dm.n)
            res = np.max(np.abs(Hd @ zf - b))
            scale = np.linalg.norm(Hd, np.inf) * np.max(np.abs(zf)) + np.max(np.abs(b))
            worst_backward = max(worst_backward, res / scale)
            cases += 1

        ok = (
            roundtrip_exact
            and worst_product <= 1e-13
            and worst_backward <= 1e-13
            and min(edges.values()) > 0
        )
        assert _line(
            4, ok,
            f"{cases} cases per kernel (edge shapes "
            f"{', '.join(f'{k}: {v}' for k, v in edges.items())}): from_stack/to_stack "
            f"round trip bit-exact: {roundtrip_exact}; mul_Q/M/MT/G/GT vs dense "
            f"{worst_product:.2e} <= 1e-13; assemble_H + factor_stages + solve_H "
            f"backward error {worst_backward:.2e} <= 1e-13",
        )


class TestCriterion5:
    def test_configuration_invariance(self):
        problem = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=5))
        # thread count is an invariance axis: 4 is meaningful on any host
        max_workers = max(4, min(8, os.cpu_count() or 1))
        worker_counts = (1, 2, max_workers)
        resids, solutions = {}, {}
        for workers in worker_counts:
            with Solver(problem, SolverSettings(
                eps_abs=EPS, worker_count=workers, variant="dense"
            )) as solver:
                x, y, lam, report = solver.solve()
            assert report.solved
            resids[workers] = max(oracles.kkt_residuals(problem, x, y, lam))
            solutions[workers] = (x, y, lam)
        ok = all(v <= EPS for v in resids.values())

        # bit-identical factorization across worker counts, for a full
        # factorization and then a partial one over the stages whose
        # penalties changed (the Psi factor is sequential, so its band must
        # match too)
        p = problem
        sy = p.dualineq_zeros()
        sy.data[:] = 2.0
        weights = _active_weights(p, sy, p.dualineq_zeros(), p.primal_zeros())
        changed = weights.copy()
        changed.stack[[1, 6, 7, 12], 0, 0] = 5.0
        sxinv = p.primal_zeros()
        sxinv.data[:] = 1e-7
        outs = []
        for workers in worker_counts:
            pool = kkt.WorkerPool(workers)
            work = kkt.StageFactorization.allocate(p)
            kkt.assemble_H(work, weights, sxinv)
            kkt.factor_stages(work, pool)
            kkt.factor_psi(work)
            work.record(weights, 1.0)
            stages = work.changed_stages(changed, 1.0)
            assert np.array_equal(stages, [1, 6, 7, 12])
            kkt.assemble_H(work, changed, sxinv, stages)
            kkt.factor_stages(work, pool, stages)
            kkt.factor_psi(work, stages)
            pool.shutdown()
            outs.append(work)
        bit_identical = all(
            np.array_equal(getattr(outs[0], name), getattr(other, name))
            for other in outs[1:]
            for name in ("linv_lm", "vwt_lm", "p_lm", "psi_diag", "psi_sub", "psi_band")
        ) and all(
            np.array_equal(a, b)
            for workers in worker_counts[1:]
            for a, b in zip(solutions[1], solutions[workers])
        )
        ok = ok and bit_identical
        assert _line(
            5, ok,
            f"{', '.join(f'{w}w' for w in worker_counts)} all meet 1e-8 "
            f"(KKT residuals with complementarity {', '.join(f'{v:.1e}' for v in resids.values())}); "
            f"factorization (full, then partial) and solution bit-identical across "
            f"worker counts: {bit_identical}",
        )


def _timed_solve(problem, **kw):
    with Solver(problem, SolverSettings(variant=kw.pop("variant", "dense"), **kw)) as s:
        s.solve()
        t0 = time.perf_counter()
        _, _, _, report = s.solve()
        return time.perf_counter() - t0, report


def _alternating_medians(problem, worker_counts, repeats=5):
    """Median solve times of one solver per worker count, after a warm-up
    solve each: the solvers take turns, so that a drift in host speed
    reaches every side alike."""
    solvers = {
        w: Solver(problem, SolverSettings(variant="dense", worker_count=w))
        for w in worker_counts
    }
    times = {w: [] for w in worker_counts}
    try:
        for s in solvers.values():
            s.solve()
        for _ in range(repeats):
            for w, s in solvers.items():
                t0 = time.perf_counter()
                s.solve()
                times[w].append(time.perf_counter() - t0)
    finally:
        for s in solvers.values():
            s.close()
    return {w: float(np.median(t)) for w, t in times.items()}


def _stage_factor_times(problem, repeats=7):
    """Median times of the dense factorization of every stage: one batched
    ``factor_stages`` call over the stage axis, and a per-stage Python loop
    of the same cholesky, trtri and matmul calls.  Also returns the largest
    difference between the two results, relative to the largest entry."""
    sy = problem.dualineq_zeros()
    sy.data[:] = 2.0
    weights = _active_weights(problem, sy, problem.dualineq_zeros(), problem.primal_zeros())
    sxinv = problem.primal_zeros()
    sxinv.data[:] = 1e-7
    work = kkt.StageFactorization.allocate(problem)
    kkt.assemble_H(work, weights, sxinv)
    H = work.H.stack

    def batched():
        kkt.factor_stages(work, INLINE)

    def looped():
        for j in range(H.shape[0]):
            linv = kkt._trtri(np.linalg.cholesky(H[j]), lower=1)[0]
            vwt = linv @ work.ewt_lm[j]
            work.linv_lm[j], work.vwt_lm[j], work.p_lm[j] = linv, vwt, vwt.T @ vwt
        kkt.assemble_psi(work)

    times = {batched: [], looped: []}
    results = {}
    for _ in range(repeats):
        for fn in times:
            t0 = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t0)
            results[fn] = work.p_lm.copy()
    diff = np.max(np.abs(results[batched] - results[looped])) / np.max(np.abs(results[batched]))
    return float(np.median(times[batched])), float(np.median(times[looped])), float(diff)


class TestCriterion6:
    def test_performance_trends_soft(self):
        # (a) vectorization over stages at M=30, N=60: one batched call
        # against a per-stage loop of the same kernels
        p60 = gen_spring_mass(SpringMassConfig(masses=30, horizon=60, seed=0))
        t_batched, t_looped, diff = _stage_factor_times(p60)
        speedup = t_looped / t_batched
        _line(6, speedup >= 1.3 and diff <= 1e-12,
              f"(a) batched factor_stages vs per-stage loop at M=30, N=60: "
              f"{speedup:.2f}x ({t_batched * 1e3:.1f}ms vs {t_looped * 1e3:.1f}ms, "
              f"results differ by {diff:.1e}; target >= 1.3x)",
              soft=True)

        # (b) multi-worker overhead at N = 120, medians of 5 alternating
        # solves per side
        p120 = gen_spring_mass(SpringMassConfig(masses=30, horizon=120, seed=0))
        workers = max(4, min(8, os.cpu_count() or 1))
        medians = _alternating_medians(p120, (1, workers))
        ratio = medians[workers] / medians[1]
        _line(6, ratio <= 1.10,
              f"(b) {workers} workers vs 1 at N=120, medians of 5 alternating solves: "
              f"ratio {ratio:.2f} ({medians[workers] * 1e3:.0f}ms vs "
              f"{medians[1] * 1e3:.0f}ms; target <= 1.10)",
              soft=True)

        # (c) subquadratic growth in N
        horizons = [15, 30, 60, 120]
        times = []
        for N in horizons:
            p = gen_spring_mass(SpringMassConfig(masses=30, horizon=N, seed=0))
            t, _ = _timed_solve(p)
            times.append(t)
        slope = loglog_slope(horizons, times)
        _line(6, slope <= 1.5,
              f"(c) wall-time growth over N={horizons}: log-log slope {slope:.2f} "
              f"(target <= 1.5)", soft=True)


class TestCriterion7:
    def test_diagonal_variant(self):
        p = gen_spring_mass(SpringMassConfig(masses=10, horizon=15, seed=7))
        sy = p.dualineq_zeros()
        sy.data[:] = 3.0
        rng = np.random.default_rng(7)
        x = p.primal_from_flat(0.5 * rng.standard_normal(p.dims.n))
        weights = _active_weights(p, sy, p.dualineq_zeros(), x)
        sxinv = p.primal_zeros()
        sxinv.data[:] = 1e-7
        works = {}
        for variant in ("dense", "diagonal"):
            w = kkt.StageFactorization.allocate(p, variant)
            kkt.assemble_H(w, weights, sxinv)
            kkt.factor_stages(w, INLINE)
            kkt.factor_psi(w)
            works[variant] = w
        g = p.primal_from_flat(rng.standard_normal(p.dims.n))
        r = p.dualeq_from_flat(rng.standard_normal(p.dims.p))
        dxs = {}
        for variant, w in works.items():
            dx, dlam = kkt.solve_newton(w, g, r)
            dxs[variant] = np.concatenate(
                [p.primal_to_flat(dx), p.dualeq_to_flat(dlam)]
            )
        scale = 1.0 + np.max(np.abs(dxs["dense"]))
        err = float(np.max(np.abs(dxs["dense"] - dxs["diagonal"]))) / scale
        ok = err <= 1e-12
        assert _line(
            7, ok,
            f"diagonal vs dense Newton direction on spring-mass: relative "
            f"difference {err:.2e} <= 1e-12",
        )

        p30 = gen_spring_mass(SpringMassConfig(masses=30, horizon=30, seed=7))
        t_dense, _ = _timed_solve(p30, variant="dense")
        t_diag, _ = _timed_solve(p30, variant="diagonal")
        _line(7, t_diag < t_dense,
              f"diagonal path speed at M=30: {t_dense / t_diag:.2f}x faster "
              f"({t_diag * 1e3:.0f}ms vs {t_dense * 1e3:.0f}ms)", soft=True)


class TestCriterion8:
    def test_inner_loop_properties(self, spring_mass_runs):
        checked = 0
        mono_bad, feas_bad = 0, 0
        for seed, problem, report, _ in spring_mass_runs:
            b = np.concatenate([problem.x_init, np.zeros(problem.dims.p - problem.dims.n_x)])
            gate = 1e-11 * (1.0 + float(np.max(np.abs(b))))
            by_outer = {}
            for rec in report.inner_log:
                by_outer.setdefault(rec.outer_iter, []).append(rec)
            for recs in by_outer.values():
                for prev, cur in zip(recs, recs[1:]):
                    checked += 1
                    if cur.phi > prev.phi + 1e-9 * (1.0 + abs(prev.phi)):
                        mono_bad += 1
                    if cur.eq_norm > gate:
                        feas_bad += 1
                # every iterate after the unit step is equality-feasible
                for rec in recs:
                    if not rec.unit_step and rec.eq_norm > gate:
                        feas_bad += 1
        ok = mono_bad == 0 and feas_bad == 0
        assert _line(
            8, ok,
            f"{checked} logged inner steps across the criterion-1 runs: monotone "
            f"phi decrease and post-step ||Mx-b|| <= 1e-11(1+||b||) "
            f"({mono_bad} monotonicity, {feas_bad} feasibility violations)",
        )
