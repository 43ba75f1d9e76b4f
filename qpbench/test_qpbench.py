"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest qpbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certificate  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def objective(prob, x):
    """Cost of a flat interleaved primal (x^0, u^0, ..., x^N)."""
    N, n_x, n_u = prob.N, prob.n_x, prob.n_u
    xu = x[: N * (n_x + n_u)].reshape(N, n_x + n_u)
    xs, us = xu[:, :n_x], xu[:, n_x:]
    xN = x[N * (n_x + n_u) :]
    val = 0.5 * np.einsum("ji,jik,jk->", xs, prob.Q, xs)
    val += np.einsum("ji,jik,jk->", us, prob.S, xs)
    val += 0.5 * np.einsum("ji,jik,jk->", us, prob.R, us)
    val += np.sum(prob.q * xs) + np.sum(prob.r * us)
    return float(val + 0.5 * xN @ prob.Q_N @ xN + prob.q_N @ xN)


def zero_input_rollout(prob):
    """The flat primal of the trajectory that applies no input at all."""
    parts, x = [], prob.x_init
    for j in range(prob.N):
        parts += [x, np.zeros(prob.n_u)]
        x = prob.A[j] @ x + prob.c[j]
    parts.append(x)
    return np.concatenate(parts)


def least_squares_multipliers(prob, x):
    """(y, lam) minimizing ||Qx + q + M'lam + G'y||, from dense matrices."""
    N, n_x, n_u = prob.N, prob.n_x, prob.n_u
    n_xu, n_y, n_yN = n_x + n_u, prob.C.shape[1], prob.C_N.shape[0]
    n = N * n_xu + n_x
    Q, q = np.zeros((n, n)), np.zeros(n)
    M = np.zeros(((N + 1) * n_x, n))
    G = np.zeros((N * n_y + n_yN, n))
    M[:n_x, :n_x] = np.eye(n_x)
    for j in range(N):
        c0 = j * n_xu
        Q[c0 : c0 + n_x, c0 : c0 + n_x] = prob.Q[j]
        Q[c0 + n_x : c0 + n_xu, c0 : c0 + n_x] = prob.S[j]
        Q[c0 : c0 + n_x, c0 + n_x : c0 + n_xu] = prob.S[j].T
        Q[c0 + n_x : c0 + n_xu, c0 + n_x : c0 + n_xu] = prob.R[j]
        q[c0 : c0 + n_x], q[c0 + n_x : c0 + n_xu] = prob.q[j], prob.r[j]
        rows = slice((j + 1) * n_x, (j + 2) * n_x)
        M[rows, c0 : c0 + n_x] = -prob.A[j]
        M[rows, c0 + n_x : c0 + n_xu] = -prob.B[j]
        M[rows, c0 + n_xu : c0 + n_xu + n_x] = np.eye(n_x)
        G[j * n_y : (j + 1) * n_y, c0 : c0 + n_x] = prob.C[j]
        G[j * n_y : (j + 1) * n_y, c0 + n_x : c0 + n_xu] = prob.D[j]
    Q[N * n_xu :, N * n_xu :] = prob.Q_N
    q[N * n_xu :] = prob.q_N
    G[N * n_y :, N * n_xu :] = prob.C_N
    sol = np.linalg.lstsq(np.hstack([M.T, G.T]), -(Q @ x + q), rcond=None)[0]
    return sol[M.shape[0] :], sol[: M.shape[0]]


def test_certificate_rejects_feasible_non_optimal_point():
    # spring-mass M=10, N=15 with the seed-0 initial state: the rollout with
    # zero input is feasible, and because every variable has its own
    # constraint row, least-squares multipliers make it stationary
    prob = problems.spring_mass(10, 15, np.random.default_rng(0).uniform(-1.0, 1.0, 20))
    x = zero_input_rollout(prob)
    y, lam = least_squares_multipliers(prob, x)
    res = certificate.residuals(prob, x, y, lam)
    assert res["stationarity"] < 1e-9
    assert res["equality"] < 1e-12
    assert res["violation"] == 0.0
    assert res["complementarity"] > 0.1
    assert not certificate.certify(prob, x, y, lam)[0]

    pkg = run.load_package()
    problem = pkg.OcpProblem.from_stages(**prob.kwargs())
    with pkg.Solver(problem, pkg.SolverSettings(lane_width=4, worker_count=1)) as solver:
        x_opt, y_opt, lam_opt, report = solver.solve()
    assert report.solved
    assert certificate.certify(prob, x_opt, y_opt, lam_opt)[0]
    assert objective(prob, x) == pytest.approx(61.8, abs=0.05)
    assert objective(prob, x_opt) == pytest.approx(18.1, abs=0.05)


def test_certificate_rejects_wrong_multiplier_sign():
    prob = problems.spring_mass(3, 4, np.array([2.0, -2.0, 2.0, 0.0, 0.0, 0.0]))
    pkg = run.load_package()
    problem = pkg.OcpProblem.from_stages(**prob.kwargs())
    with pkg.Solver(problem, pkg.SolverSettings(lane_width=4, worker_count=1)) as solver:
        x, y, lam, report = solver.solve()
    assert certificate.certify(prob, x, y, lam)[0]
    active = np.nonzero(np.abs(y) > 1e-3)[0]
    assert active.size
    flipped = y.copy()
    flipped[active[0]] *= -1.0
    assert not certificate.certify(prob, x, flipped, lam)[0]
    nan_x = x.copy()
    nan_x[0] = np.nan
    assert not certificate.certify(prob, nan_x, y, lam)[0]


def bench(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "qpbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_prints_declared_metrics(workload, trace):
    code, out = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        cwd=HERE.parent,
    )
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(v for k, v in values.items() if k.startswith("alm.phase."))
        accounted += values["alm.unattributed_s"]
        assert accounted == pytest.approx(values["alm.solve_time_s"], rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qpbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = bench(
        "--workload", "sm-mpc", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert code != 0
    assert out == ""
