"""Solve one spring-mass MPC problem and inspect the result.

A chain of 10 masses coupled by springs to neighbors and walls, 9 internal
actuators, box constraints on every state and input, horizon 15.  The solver
runs the augmented-Lagrangian loop with the vectorized stage kernels and
reports per-phase timings.
"""

import numpy as np

from ocpqp import oracles
from ocpqp.alm import Solver, SolverSettings
from ocpqp.bench import SpringMassConfig, gen_spring_mass

config = SpringMassConfig(masses=10, horizon=15, seed=42)
problem = gen_spring_mass(config)
print(f"problem: {problem.dims.n} variables, {problem.dims.p} equalities, "
      f"{problem.dims.m} inequalities")

settings = SolverSettings(eps_abs=1e-8)
with Solver(problem, settings) as solver:
    x, y, lam, report = solver.solve()

print(f"status: {report.status} after {report.outer_iters} outer / "
      f"{report.inner_iters} inner iterations ({report.solve_time * 1e3:.1f} ms)")
print(f"residuals: dual {report.dual_res:.2e}, eq {report.eq_res:.2e}, "
      f"primal {report.primal_res:.2e}")
for phase, seconds in report.timings.items():
    print(f"  {phase:>14}: {seconds * 1e3:7.2f} ms")

# independent check, recomputed through the structured products
dual, eq, primal, comp = oracles.kkt_residuals(problem, x, y, lam)
print(f"independent KKT residuals: {max(dual, eq, primal, comp):.2e}")

# how hard does the controller work? count saturated input bounds
n_x, n_u, N = problem.dims.n_x, problem.dims.n_u, problem.dims.N
u = x[: N * (n_x + n_u)].reshape(N, n_x + n_u)[:, n_x:]
saturated = np.sum(np.isclose(np.abs(u), config.u_max, atol=1e-6))
print(f"saturated input bounds along the horizon: {saturated}/{u.size}")
