"""Problem files and independent verification oracles.

Writes a problem to the binary container and the JSON variant, reads both
back, solves, and verifies the solutions three ways: KKT residuals through
the structured products, the Riccati recursion for an unconstrained
instance, and brute-force active-set enumeration for a tiny constrained one.
"""

import tempfile
from pathlib import Path

import numpy as np

from ocpqp import oracles
from ocpqp.alm import SolverSettings, solve
from ocpqp.bench import gen_random_ocp
from ocpqp.model import OcpDims, load_problem, save_problem

tmp = Path(tempfile.mkdtemp())

# binary round trip
problem = gen_random_ocp(OcpDims(3, 2, 1, 2, 1), seed=11, feasibility_margin=0.8)
binary = tmp / "small.ocpq"
save_problem(problem, binary)
again = load_problem(binary)
print(f"binary container: {binary.stat().st_size} bytes, "
      f"dims preserved: {again.dims == problem.dims}")

# JSON variant for hand-written tests
jsonfile = tmp / "small.json"
save_problem(problem, jsonfile, fmt="json")
print(f"json variant: {jsonfile.stat().st_size} bytes, loads:",
      load_problem(jsonfile).dims.n == problem.dims.n)

x, y, lam, report = solve(again, SolverSettings())
print(f"\nsolve: {report.status}, dual residual {report.dual_res:.2e}")

ver = oracles.verify_against_oracle(again, (x, y, lam), oracle="enumerate")
print(f"active-set enumeration oracle: {'PASS' if ver.ok else 'FAIL'} "
      f"(|x - x*| = {ver.details['x_err']:.2e})")

# unconstrained instance against the Riccati recursion
lqr = gen_random_ocp(OcpDims(4, 3, 2, 0, 0), seed=1, feasibility_margin=np.inf)
x, y, lam, report = solve(lqr, SolverSettings())
x_ref, lam_ref = oracles.riccati_solve(lqr)
print(f"\nunconstrained vs Riccati: |x - x*| = {np.max(np.abs(x - x_ref)):.2e}, "
      f"|lam - lam*| = {np.max(np.abs(lam - lam_ref)):.2e}")
