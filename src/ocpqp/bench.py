"""Benchmark problems, timed solver runs, and verification plumbing.

Two problem families are generated here: a chain of spring-coupled masses
with box constraints (diagonal costs, so both factorization variants apply),
and random stage-wise problems that are feasible by construction.  The
harness times configured solver variants, refuses to report any timing whose
solution does not pass an independent KKT check, and writes CSV summaries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import oracles
from .alm import Solver, SolverSettings
from .model import OcpDims, OcpProblem


@dataclass
class SpringMassConfig:
    """Chain of ``masses`` bodies coupled to neighbors and walls by springs.

    States are positions then velocities (n_x = 2 masses); the actuators
    apply equal and opposite forces between consecutive bodies
    (n_u = masses - 1).  Physical defaults are declared values, not tuned.
    ``init_fraction`` scales the initial-state box relative to x_max; at
    0.5 a few percent of draws are infeasible (initial velocities carry
    weakly controllable modes past the state bounds within the horizon),
    so the default is 0.25, where draws stay feasible.
    """

    masses: int
    horizon: int
    spring_k: float = 1.0
    damping: float = 0.0
    mass: float = 1.0
    ts: float = 0.5
    u_max: float = 0.5
    x_max: float = 4.0
    init_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.masses < 2:
            raise ValueError("need at least 2 masses (one actuator)")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if min(self.spring_k, self.mass, self.ts) <= 0 or self.damping < 0:
            raise ValueError("physical parameters must be positive")
        if not 0.0 < self.init_fraction <= 1.0:
            raise ValueError("init_fraction must lie in (0, 1]")

    @property
    def n_x(self):
        return 2 * self.masses

    @property
    def n_u(self):
        return self.masses - 1


def spring_mass_continuous(config):
    """Continuous-time (A, B) of the chain."""
    M = config.masses
    k, mu, beta = config.spring_k, config.mass, config.damping
    T = -2.0 * np.eye(M)
    T += np.diag(np.ones(M - 1), 1) + np.diag(np.ones(M - 1), -1)
    F = np.zeros((M, M - 1))
    for i in range(M - 1):
        F[i, i] = 1.0
        F[i + 1, i] = -1.0
    A = np.zeros((2 * M, 2 * M))
    A[:M, M:] = np.eye(M)
    A[M:, :M] = (k / mu) * T
    A[M:, M:] = -(beta / mu) * np.eye(M)
    B = np.zeros((2 * M, M - 1))
    B[M:, :] = F / mu
    return A, B


def discretize_exact(A, B, ts):
    """Zero-order-hold discretization through the augmented matrix exponential."""
    n_x, n_u = B.shape
    aug = np.zeros((n_x + n_u, n_x + n_u))
    aug[:n_x, :n_x] = A
    aug[:n_x, n_x:] = B
    phi = scipy.linalg.expm(aug * ts)
    return phi[:n_x, :n_x], phi[:n_x, n_x:]


def gen_spring_mass(config):
    """Build the OCP for a spring-mass configuration.

    Diagonal unit costs, box constraints |x| <= x_max and |u| <= u_max
    encoded row-per-variable (the diagonal solver variant applies), initial
    state drawn uniformly from [-x_max/2, x_max/2] under the config seed.
    """
    Ac, Bc = spring_mass_continuous(config)
    Ad, Bd = discretize_exact(Ac, Bc, config.ts)
    n_x, n_u, N = config.n_x, config.n_u, config.horizon
    n_y = n_x + n_u
    C = np.zeros((n_y, n_x))
    C[:n_x] = np.eye(n_x)
    D = np.zeros((n_y, n_u))
    D[n_x:] = np.eye(n_u)
    bound = np.concatenate([np.full(n_x, config.x_max), np.full(n_u, config.u_max)])
    rng = np.random.default_rng(config.seed)
    box = config.init_fraction * config.x_max
    x_init = rng.uniform(-box, box, n_x)
    return OcpProblem.from_stages(
        Q=np.eye(n_x), S=np.zeros((n_u, n_x)), R=np.eye(n_u),
        q=np.zeros((N, n_x)), r=np.zeros((N, n_u)),
        A=np.broadcast_to(Ad, (N, n_x, n_x)), B=np.broadcast_to(Bd, (N, n_x, n_u)),
        c=np.zeros((N, n_x)), C=np.broadcast_to(C, (N, n_y, n_x)),
        D=np.broadcast_to(D, (N, n_y, n_u)),
        bl=np.broadcast_to(-bound, (N, n_y)), bu=np.broadcast_to(bound, (N, n_y)),
        Q_N=np.eye(n_x), q_N=np.zeros(n_x), C_N=np.eye(n_x),
        bl_N=np.full(n_x, -config.x_max), bu_N=np.full(n_x, config.x_max),
        x_init=x_init,
    )


def gen_random_ocp(dims, seed=0, feasibility_margin=1.0):
    """Random stage-wise problem, feasible by construction.

    The dynamics are stable (spectral radius capped at 0.95), the cost
    blocks are positive semidefinite with positive definite input blocks,
    and the bounds are placed around a random rollout with the given margin
    (an infinite margin produces an unconstrained instance).  Identical
    seeds reproduce identical problems bit for bit.
    """
    if not isinstance(dims, OcpDims):
        dims = OcpDims(*dims)
    rng = np.random.default_rng(seed)
    N, n_x, n_u, n_y, n_yN = dims.N, dims.n_x, dims.n_u, dims.n_y, dims.n_yN
    n_xu = n_x + n_u

    A = rng.standard_normal((N, n_x, n_x)) / math.sqrt(n_x)
    for j in range(N):
        rho = float(np.max(np.abs(np.linalg.eigvals(A[j]))))
        if rho > 0.95:
            A[j] *= 0.95 / rho
    B = rng.standard_normal((N, n_x, n_u))
    c = 0.1 * rng.standard_normal((N, n_x))

    Q = np.empty((N, n_x, n_x))
    S = np.empty((N, n_u, n_x))
    R = np.empty((N, n_u, n_u))
    for j in range(N):
        V = rng.standard_normal((n_xu, n_xu))
        blk = V.T @ V / n_xu + np.diag(np.concatenate([np.full(n_x, 0.1), np.ones(n_u)]))
        Q[j] = blk[:n_x, :n_x]
        S[j] = blk[n_x:, :n_x]
        R[j] = blk[n_x:, n_x:]
    VN = rng.standard_normal((n_x, n_x))
    Q_N = VN.T @ VN / n_x + 0.1 * np.eye(n_x)
    q = 0.3 * rng.standard_normal((N, n_x))
    r = 0.3 * rng.standard_normal((N, n_u))

    C = rng.standard_normal((N, n_y, n_x))
    D = rng.standard_normal((N, n_y, n_u))
    C_N = rng.standard_normal((n_yN, n_x))

    x_init = 0.3 * rng.standard_normal(n_x)
    if np.isinf(feasibility_margin):
        bl = np.full((N, n_y), -np.inf)
        bu = np.full((N, n_y), np.inf)
        bl_N = np.full(n_yN, -np.inf)
        bu_N = np.full(n_yN, np.inf)
    else:
        x = x_init
        bl = np.empty((N, n_y))
        bu = np.empty((N, n_y))
        for j in range(N):
            u = 0.2 * rng.standard_normal(n_u)
            z = C[j] @ x + D[j] @ u
            width = feasibility_margin * (0.5 + rng.uniform(0.0, 1.0, n_y))
            bl[j] = z - width
            bu[j] = z + width
            drop = rng.uniform(size=n_y) < 0.25
            bl[j][drop] = -np.inf
            drop = rng.uniform(size=n_y) < 0.25
            bu[j][drop] = np.inf
            x = A[j] @ x + B[j] @ u + c[j]
        zN = C_N @ x
        widthN = feasibility_margin * (0.5 + rng.uniform(0.0, 1.0, n_yN))
        bl_N, bu_N = zN - widthN, zN + widthN

    return OcpProblem.from_stages(
        Q=Q, S=S, R=R, q=q, r=r, A=A, B=B, c=c, C=C, D=D, bl=bl, bu=bu,
        Q_N=Q_N, q_N=0.3 * rng.standard_normal(n_x), C_N=C_N,
        bl_N=bl_N, bu_N=bu_N, x_init=x_init,
    )


# ---------------------------------------------------------------------------
# timed benchmark runs


@dataclass
class BenchCase:
    """One solver configuration over a set of seeded instances."""

    family: str  # 'spring-mass' or 'random'
    params: dict
    seeds: list
    variant: str = "dense"
    workers: int = 1
    eps_abs: float = 1e-8
    label: str = ""

    def describe(self):
        if self.family == "spring-mass":
            size = f"M={self.params['masses']},N={self.params['horizon']}"
        else:
            dims = self.params["dims"]
            size = f"N={dims.N},n_x={dims.n_x},n_u={dims.n_u}"
        return size


@dataclass
class BenchResult:
    case: BenchCase
    times: list = field(default_factory=list)
    phase_means: dict = field(default_factory=dict)
    outer_iters: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    max_residual: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def gmean(self):
        return float(np.exp(np.mean(np.log(self.times)))) if self.times else float("nan")

    @property
    def tmin(self):
        return min(self.times) if self.times else float("nan")

    @property
    def tmax(self):
        return max(self.times) if self.times else float("nan")


def _make_problem(case, seed):
    if case.family == "spring-mass":
        cfg_kwargs = dict(case.params)
        cfg_kwargs["seed"] = seed
        return gen_spring_mass(SpringMassConfig(**cfg_kwargs))
    if case.family == "random":
        return gen_random_ocp(
            case.params["dims"], seed=seed,
            feasibility_margin=case.params.get("margin", 1.0),
        )
    raise ValueError(f"unknown benchmark family {case.family!r}")


def run_case(case):
    """Solve every seeded instance of one configuration.

    Each timed solve is verified with independently recomputed KKT
    residuals; runs that fail to solve or verify are excluded from the
    aggregates and listed in ``failures``.
    """
    settings = SolverSettings(
        eps_abs=case.eps_abs,
        worker_count=case.workers,
        variant=case.variant,
    )
    result = BenchResult(case=case)
    phase_sums = {}
    warmed = False
    for seed in case.seeds:
        problem = _make_problem(case, seed)
        with Solver(problem, settings) as solver:
            if not warmed:
                solver.solve()  # warm-up run, discarded
                warmed = True
            x, y, lam, report = solver.solve()
        resid = max(oracles.kkt_residuals(problem, x, y, lam))
        if not report.solved or resid > case.eps_abs:
            result.failures.append((seed, report.status, resid))
            continue
        result.times.append(report.solve_time)
        result.outer_iters.append(report.outer_iters)
        result.inner_iters.append(report.inner_iters)
        result.max_residual = max(result.max_residual, resid)
        for phase, val in report.timings.items():
            phase_sums[phase] = phase_sums.get(phase, 0.0) + val
    n_ok = max(1, len(result.times))
    result.phase_means = {k: v / n_ok for k, v in phase_sums.items()}
    return result


def run_benchmark(cases):
    """Run the configurations sequentially (timings stay uncontaminated)."""
    return [run_case(case) for case in cases]


CSV_COLUMNS = (
    "family", "label", "size", "variant", "workers", "seeds",
    "solved", "failed", "gmean_us", "min_us", "max_us",
    "assembly_us", "stage_factor_us", "psi_factor_us",
    "substitution_us", "line_search_us",
    "outer_iters_mean", "inner_iters_mean", "max_kkt_residual",
)


def write_csv(results, path):
    """One row per configuration; all times in microseconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for res in results:
            case = res.case
            us = 1e6
            writer.writerow([
                case.family, case.label, case.describe(), case.variant,
                case.workers, len(case.seeds),
                len(res.times), len(res.failures),
                f"{res.gmean * us:.1f}", f"{res.tmin * us:.1f}", f"{res.tmax * us:.1f}",
                *(f"{res.phase_means.get(k, 0.0) * us:.1f}" for k in (
                    "assembly", "stage_factor", "psi_factor", "substitution", "line_search")),
                f"{np.mean(res.outer_iters):.2f}" if res.outer_iters else "nan",
                f"{np.mean(res.inner_iters):.2f}" if res.inner_iters else "nan",
                f"{res.max_residual:.3e}",
            ])


def write_gnuplot_script(csv_path, out_path):
    """A minimal companion script: geometric-mean time per configuration."""
    with open(out_path, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set logscale y\n"
            "set ylabel 'geometric mean solve time [us]'\n"
            f"plot '{csv_path}' using 0:{CSV_COLUMNS.index('gmean_us') + 1} "
            "with linespoints title 'gmean'\n"
        )


def loglog_slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)),
                            np.log(np.asarray(times, float)), 1)[0])
