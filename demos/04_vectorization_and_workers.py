"""Effect of the worker count on solve time.

Runs the dense solver on one spring-mass instance (30 masses, horizon 60)
with one, two and four workers, then shows the per-phase split.  All stage
data lives in one stage-major layout with one slot per stage.  A
factorization is one fork-join: the worker pool splits the stages to
refactor, and each worker assembles and factors its own chunk of them in
batched numpy calls.  After the first factorization of a solve, a Newton
step usually refactors only a few stages, so there is little to split.  A
solve runs BLAS single-threaded, and workers overlap only the native kernels
that release the interpreter lock.  The Schur complement is factored as one
band matrix by a single LAPACK call whatever the worker count.
"""

import time

from ocpqp.alm import PHASES, Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_spring_mass

problem = gen_spring_mass(SpringMassConfig(masses=30, horizon=60, seed=0))
print(f"{problem.dims.n} variables over horizon {problem.dims.N}\n")

results = {}
for workers in (1, 2, 4):
    settings = SolverSettings(worker_count=workers, variant="dense")
    with Solver(problem, settings) as solver:
        solver.solve()  # warm-up
        t0 = time.perf_counter()
        _, _, _, report = solver.solve()
        elapsed = time.perf_counter() - t0
    results[workers] = (elapsed, report)
    print(f"workers={workers}: {elapsed * 1e3:7.1f} ms "
          f"({report.inner_iters} Newton iterations, {report.factorizations} "
          f"factorizations refactoring {report.stages_factored} stages)")

base = results[1][0]
print("\nspeedups over a single worker:")
for workers, (elapsed, _) in results.items():
    print(f"  workers={workers}: {base / elapsed:5.2f}x")

print("\nper-phase split (1 vs 4 workers):")
for phase in PHASES:
    t1 = results[1][1].timings[phase]
    t4 = results[4][1].timings[phase]
    print(f"  {phase:>14}: {t1 * 1e3:7.1f} ms -> {t4 * 1e3:7.1f} ms")
