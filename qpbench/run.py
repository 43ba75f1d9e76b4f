"""Benchmark of the ocpqp solver on spring-mass optimal control problems.

Usage, from the root of a checkout of the repository:

    python3 qpbench/run.py --workload sm-dense --seed 1 --seconds 30 --trace 0

The solver is imported from the checkout's ``src/`` directory.  The run
builds its own naive per-stage arrays, enters the solver only through
``OcpProblem.from_stages``, ``Solver(...)``, ``Solver.update_*`` and
``Solver.solve``, measures for ``--seconds`` seconds, checks every solution
against an independent KKT certificate outside the timed region, and prints
one JSON object as the last line of its standard output.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it wraps the public
functions of the solver's modules and reports per-layer metrics instead.
Run records and span files are written to ``qpbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import certificate
import problems
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

POOL_SEED = 20260311  # fixed generator of the cold initial-state pools
SETUP_SAMPLES = 24  # timed set-ups, evenly spread over a run; setup_s is their median
MPC_WARMUP_STEPS = 10  # closed-loop steps run before timing starts
REF_AMPLITUDE = (2.0, 4.0)  # position reference amplitude of the first and last mass
REF_OMEGA = (0.7, 1.3)  # reference angular frequency [rad/s] of the first and last mass
DISTURBANCE = 0.01  # std of the velocity disturbance per step
# the phases of SolveReport.timings, named here so that the printed metric
# names stay fixed; time in a phase the solver adds later counts in
# alm.unattributed_s until it is listed here
PHASES = ("assembly", "stage_factor", "psi_factor", "substitution", "line_search")


@dataclass(frozen=True)
class Cold:
    """Cold solves of a fixed pool of initial states, cycled round-robin."""

    masses: int
    horizon: int
    variant: str
    pool: int


@dataclass(frozen=True)
class Mpc:
    """One solver serving a closed model-predictive-control loop."""

    masses: int
    horizon: int
    variant: str


WORKLOADS = {
    "sm-dense": Cold(masses=30, horizon=30, variant="dense", pool=4),
    "sm-diag-long": Cold(masses=10, horizon=120, variant="diagonal", pool=16),
    "sm-mpc": Mpc(masses=10, horizon=60, variant="auto"),
}

# per-layer metrics: layers traced per set-up rather than per operation
SETUP_LAYERS = (
    "model.OcpProblem.from_stages",
    "model.validate",
    "model.pad_horizon",
    "kkt.StageFactorization.allocate",
)
# layers whose call counts are reported beside their self time
COUNTED_LAYERS = (
    "model.mul_Q",
    "model.mul_M",
    "model.mul_MT",
    "model.mul_G",
    "model.mul_GT",
    "compact.CompactBatch.to_stack",
    "compact.CompactBatch.from_stack",
    "kkt.factor_stages",
    "kkt.solve_newton",
)


def load_package():
    """Import ocpqp from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "ocpqp" / "__init__.py").is_file():
        raise SystemExit(f"error: no ocpqp package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import ocpqp

    if Path(ocpqp.__file__).resolve().parent != (src / "ocpqp").resolve():
        raise SystemExit(f"error: imported ocpqp from {ocpqp.__file__}, not from {src}")
    return ocpqp


class Run:
    """Timings, statuses and checks of one benchmark run."""

    def __init__(self, pkg, settings, tracer, seconds):
        self.pkg = pkg
        self.settings = settings
        self.tracer = tracer
        self._setup_interval = seconds / SETUP_SAMPLES
        self._next_setup = None
        self.setup_times = []
        self.op_times = []  # wall time of each verified operation
        self.reports = []  # SolveReport of each verified operation
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # operations that solved but failed the certificate
        self.active_rows = []  # rows with a nonzero multiplier, per verified operation
        self.saturated = []  # inputs at their bound, per closed-loop step
        self.worst = dict.fromkeys(certificate.KEYS, 0.0)

    def _group(self, group, name):
        if self.tracer is not None:
            self.tracer.open_group(group, name)

    def _end_group(self):
        if self.tracer is not None:
            self.tracer.close_group()

    def build(self, arrays):
        """From naive arrays to a ready solver: the set-up."""
        problem = self.pkg.OcpProblem.from_stages(**arrays.kwargs())
        return self.pkg.Solver(problem, self.settings)

    def sample_setup(self, arrays):
        """Time one set-up, discarded at once, when the next of the evenly
        spaced sampling times has come.  Spread over the run, the set-up
        times see the same drifts in host speed as the operations."""
        now = time.perf_counter()
        if self._next_setup is not None and now < self._next_setup:
            return
        self._next_setup = now + self._setup_interval
        gc.collect()
        self._group(-1 - len(self.setup_times), "bench.setup")
        t0 = time.perf_counter()
        solver = self.build(arrays)
        self.setup_times.append(time.perf_counter() - t0)
        self._end_group()
        solver.close()

    def operation(self, body):
        """Time ``body()`` as one operation; returns its result, or None
        when it raised or ended with a status other than solved."""
        gc.collect()
        self._group(self.attempted, "bench.operation")
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = body()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - t0
        self._end_group()
        if result is None or not result[3].solved:
            self.failed += 1
            return None
        self.op_times.append(elapsed)
        self.reports.append(result[3])
        return result

    def check(self, arrays, x, y, lam):
        ok, res = certificate.certify(arrays, x, y, lam)
        self.active_rows.append(int(np.count_nonzero(y)))
        for key, val in res.items():
            self.worst[key] = float(np.maximum(self.worst[key], val))
        if not ok:
            self.wrong.append(res)


def cold_pool(spec, seed):
    """Naive arrays of the pool and the order of one round.

    The pool's states are fixed; the seed chooses the sign of each (the
    problem is symmetric under x -> -x, so either sign needs the same
    iterations) and where the round-robin starts.
    """
    base = np.random.default_rng(POOL_SEED).uniform(
        -problems.INIT_BOX, problems.INIT_BOX, (spec.pool, 2 * spec.masses)
    )
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], spec.pool)
    start = int(rng.integers(spec.pool))
    pool = [problems.spring_mass(spec.masses, spec.horizon, s * b) for s, b in zip(signs, base)]
    return pool, [(start + k) % spec.pool for k in range(spec.pool)]


def run_cold(run, spec, seed, seconds):
    pool, order = cold_pool(spec, seed)
    solvers = {i: run.build(pool[i]) for i in order}
    solvers[order[0]].solve()  # warm-up, unrecorded

    # whole rounds only, so every run has the same mix of instances
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        for i in order:
            run.sample_setup(pool[i])
            result = run.operation(solvers[i].solve)
            if result is not None:
                run.check(pool[i], *result[:3])
        now = time.perf_counter()
        if now - began + 0.5 * (now - round_began) >= seconds:
            break
    for solver in solvers.values():
        solver.close()


def shifted(spec, x, y, lam):
    """A solution shifted one stage forward, the last stage repeated."""
    N, n_x, n_u = spec.horizon, 2 * spec.masses, spec.masses - 1
    n_xu = n_y = n_x + n_u  # one constraint row per variable
    xu = x[: N * n_xu].reshape(N, n_xu)
    x_N = x[N * n_xu :]
    last = np.concatenate([x_N, xu[-1, n_x:]])
    ys = y[: N * n_y].reshape(N, n_y)
    lams = lam.reshape(N + 1, n_x)
    return (
        np.concatenate([xu[1:].ravel(), last, x_N]),
        np.concatenate([ys[1:].ravel(), ys[-1], y[N * n_y :]]),
        np.concatenate([lams[1:].ravel(), lams[-1]]),
    )


def run_mpc(run, spec, seed, seconds):
    M, N = spec.masses, spec.horizon
    n_x, n_u = 2 * M, M - 1
    # the reference's amplitudes and frequencies are fixed, so that its
    # difficulty is the same in every run; the seed sets the phases and the
    # disturbance sequence
    amplitude = np.linspace(*REF_AMPLITUDE, M)
    omega = np.linspace(*REF_OMEGA, M)
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi, M)
    A, B = problems.chain_dynamics(M)
    arrays = problems.spring_mass(M, N, np.zeros(n_x))

    solver = run.build(arrays)
    state = np.zeros(n_x)
    warm = None
    step = 0
    began = None
    while began is None or time.perf_counter() - began < seconds:
        if step == MPC_WARMUP_STEPS:
            began = time.perf_counter()
        t = (step + np.arange(N + 1)) * problems.TS
        ref = np.zeros((N + 1, n_x))
        ref[:, :M] = amplitude * np.sin(omega * t[:, None] + phase)
        arrays.q[:] = -np.einsum("jik,jk->ji", arrays.Q, ref[:N])
        arrays.q_N[:] = -arrays.Q_N @ ref[N]
        arrays.x_init[:] = state

        def control_step():
            solver.update_initial_state(arrays.x_init)
            solver.update_gradient(arrays.q, arrays.r, arrays.q_N)
            return solver.solve(warm_start=warm)

        if began is None:
            result = control_step()
            if not result[3].solved:
                raise RuntimeError(f"warm-up step {step} ended with {result[3].status}")
        else:
            run.sample_setup(arrays)
            result = run.operation(control_step)
        u0 = np.zeros(n_u)
        warm = None
        if result is not None:
            x, y, lam = result[:3]
            u0 = x[n_x : n_x + n_u]
            if began is not None:
                magnitude = np.abs(u0)
                run.saturated.append(int(np.sum(magnitude >= problems.U_MAX - certificate.TOLERANCE)))
                if not np.all(magnitude <= problems.U_MAX + certificate.TOLERANCE):
                    run.wrong.append({"applied_input": float(np.max(magnitude))})
                run.check(arrays, x, y, lam)
            warm = shifted(spec, x, y, lam)
        state = A @ state + B @ u0
        state[M:] += DISTURBANCE * rng.standard_normal(M)
        step += 1
    solver.close()


def end_to_end(run):
    times = run.op_times
    return {
        "solve_s.p50": (statistics.median(times) if times else None, "s"),
        "solves_per_s": (len(times) / sum(times) if times else None, "1/s"),
        "setup_s": (statistics.median(run.setup_times), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, tracer):
    """Per-operation self times and counts from the spans; the set-up
    layers are per set-up instead.  Iterations and phases come from the
    SolveReports of the verified operations."""
    n_ops = max(1, run.attempted)
    n_setups = max(1, len(run.setup_times))
    ops = tracer.layer_totals(lambda g: g >= 0)
    setups = tracer.layer_totals(lambda g: g < 0)
    out = {}
    for module, name in spans.TRACED:
        full = f"{module}.{name}"
        if full in SETUP_LAYERS:
            out[f"{full}.self_s"] = (setups[full][0] / n_setups, "s")
        else:
            out[f"{full}.self_s"] = (ops[full][0] / n_ops, "s")
        if full in COUNTED_LAYERS:
            out[f"{full}.calls"] = (ops[full][1] / n_ops, "count")
    reports = run.reports
    n_reports = max(1, len(reports))
    escalations = sum(n for g, n in tracer.escalations.items() if g >= 0)
    out["alm.outer_iters"] = (sum(r.outer_iters for r in reports) / n_reports, "count")
    out["alm.inner_iters"] = (sum(r.inner_iters for r in reports) / n_reports, "count")
    out["kkt.pivot_escalations"] = (escalations / n_ops, "count")
    for phase in PHASES:
        out[f"alm.phase.{phase}_s"] = (
            sum(r.timings.get(phase, 0.0) for r in reports) / n_reports, "s"
        )
    out["alm.unattributed_s"] = (
        sum(r.solve_time - sum(r.timings.get(p, 0.0) for p in PHASES) for r in reports)
        / n_reports,
        "s",
    )
    out["alm.solve_time_s"] = (sum(r.solve_time for r in reports) / n_reports, "s")
    return out


def blas_libraries():
    """The OpenBLAS builds bundled with numpy and scipy, and their threads."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            entry = {"package": pkg.__name__, "library": path.name}
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
                    break
            found.append(entry)
    return found


def host_info():
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OCPQP_WORKERS")
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pkg = load_package()
    spec = WORKLOADS[args.workload]
    settings = pkg.SolverSettings(variant=spec.variant, lane_width=4, worker_count=1)
    tracer = spans.Tracer(pkg) if args.trace else None
    run = Run(pkg, settings, tracer, args.seconds)
    runner = run_cold if isinstance(spec, Cold) else run_mpc
    gc.disable()
    try:
        if tracer is not None:
            with tracer:
                runner(run, spec, args.seed, args.seconds)
        else:
            runner(run, spec, args.seed, args.seconds)
    finally:
        gc.enable()

    e2e = end_to_end(run)
    metrics = per_layer(run, tracer) if tracer is not None else e2e
    correct = not run.wrong and bool(run.op_times)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    record = {
        "args": vars(args),
        "host": host_info(),
        "result": result,
        "solve_s.p50": e2e["solve_s.p50"][0],
        "worst_residuals": run.worst,
        "tolerance": certificate.TOLERANCE,
        "rejected": run.wrong,
        "op_times": run.op_times,
        "setup_times": run.setup_times,
        "inner_iters": [r.inner_iters for r in run.reports],
        "active_rows": run.active_rows,
        "saturated_inputs": run.saturated,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(
        f"{args.workload} seed {args.seed}: {len(run.op_times)} verified of "
        f"{run.attempted}, p50 {e2e['solve_s.p50'][0]}, worst residuals {run.worst}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
