"""Effect of lane width and worker count on solve time.

Runs the dense solver on one spring-mass instance (30 masses, horizon 60)
for lane widths 1, 4 and 8 and for one and four workers, then shows the
per-phase split.  All stage data lives in one stage-major layout, and every
stage-parallel phase is one batched numpy call over a range of stages, so
the lane width does not change the work per stage: it only pads the horizon
to a multiple of d.  Expect d=4 and d=8 to run about as fast as d=1, or
slightly slower from the padding stages.  The worker pool splits the set of
stages that a Newton step refactors, which after the first factorization
of a solve is usually a few stages.  A solve runs BLAS single-threaded, and
workers overlap only the native kernels that release the interpreter lock.
The Schur complement is factored as one band matrix by a single LAPACK
call whatever the lane width.
"""

import time

from ocpqp.alm import Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_spring_mass

problem = gen_spring_mass(SpringMassConfig(masses=30, horizon=60, seed=0))
print(f"{problem.dims.n} variables over horizon {problem.dims.N}\n")

results = {}
for lanes, workers in ((1, 1), (4, 1), (8, 1), (4, 4)):
    settings = SolverSettings(lane_width=lanes, worker_count=workers, variant="dense")
    with Solver(problem, settings) as solver:
        solver.solve()  # warm-up
        t0 = time.perf_counter()
        _, _, _, report = solver.solve()
        elapsed = time.perf_counter() - t0
    results[(lanes, workers)] = (elapsed, report)
    print(f"d={lanes} workers={workers}: {elapsed * 1e3:7.1f} ms "
          f"({report.inner_iters} Newton iterations, {report.factorizations} "
          f"factorizations refactoring {report.stages_factored} stages)")

base = results[(1, 1)][0]
print("\nspeedups over scalar single-worker:")
for key, (elapsed, _) in results.items():
    print(f"  d={key[0]} workers={key[1]}: {base / elapsed:5.2f}x")

print("\nper-phase split (d=1 vs d=4, single worker):")
for phase in ("assembly", "stage_factor", "psi_factor", "substitution", "line_search"):
    t1 = results[(1, 1)][1].timings[phase]
    t4 = results[(4, 1)][1].timings[phase]
    print(f"  {phase:>14}: {t1 * 1e3:7.1f} ms -> {t4 * 1e3:7.1f} ms")
