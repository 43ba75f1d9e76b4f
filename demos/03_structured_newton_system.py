"""The structured Newton solve against an explicit dense factorization.

Builds a random stage-wise problem, assembles the generalized Hessian at a
random point, factors it stage by stage, forms the block-tridiagonal Schur
complement with its block-bidiagonal Cholesky factor, and compares the
three-step solution with a dense solve of the full saddle-point system.
"""

import numpy as np

from ocpqp import kkt, model, oracles
from ocpqp.bench import gen_random_ocp
from ocpqp.model import OcpDims

rng = np.random.default_rng(7)
problem = gen_random_ocp(OcpDims(5, 3, 2, 2, 1), seed=7)
dims = problem.dims
print(f"problem: N={dims.N}, n_x={dims.n_x}, n_u={dims.n_u} "
      f"({dims.n} variables in {problem.cost.nstages} stage slots)")

# active weights at a random point, then assemble and factor
sigma_y = problem.dualineq_zeros()
sigma_y.data[:] = 2.0
x = problem.primal_from_flat(rng.standard_normal(dims.n))
z = model.mul_G(problem, x)  # z = Gx + y / sigma_y with y = 0
weights = kkt.weights_from_shifted(problem, sigma_y, z)
sigma_x_inv = problem.primal_zeros()
sigma_x_inv.data[:] = 1e-6

# every step works in place on one workspace; one worker runs inline
work = kkt.StageFactorization.allocate(problem)
kkt.assemble_H(work, weights, sigma_x_inv)
kkt.factor_stages(work, kkt.WorkerPool(1))
kkt.factor_psi(work)

# dense mirror of the same quantities (weights is a one-column CompactBatch)
dense = oracles.assemble_dense(problem)
sig = problem.dualineq_to_flat(weights)
H_dense = dense.Q + dense.G.T @ np.diag(sig) @ dense.G + 1e-6 * np.eye(dims.n)
psi_dense = dense.M @ np.linalg.solve(H_dense, dense.M.T)

err = 0.0
for j in range(dims.N + 1):
    r = j * dims.n_x
    err = max(err, np.max(np.abs(
        work.psi_diag[j] - psi_dense[r : r + dims.n_x, r : r + dims.n_x]
    )))
print(f"block-tridiagonal Psi vs dense M H^-1 M^T: max error {err:.2e}")

g = rng.standard_normal(dims.n)
r_eq = rng.standard_normal(dims.p)
dx, dlam = kkt.solve_newton(
    work, problem.primal_from_flat(g), problem.dualeq_from_flat(r_eq)
)
dx_dense, dlam_dense = oracles.dense_newton_solve(H_dense, dense.M, g, r_eq)
print(f"three-step vs dense saddle solve: "
      f"|dx diff| {np.max(np.abs(problem.primal_to_flat(dx) - dx_dense)):.2e}, "
      f"|dlam diff| {np.max(np.abs(problem.dualeq_to_flat(dlam) - dlam_dense)):.2e}")
