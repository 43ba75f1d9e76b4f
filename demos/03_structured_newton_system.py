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

# vectors are stage-major batches of one kind ("primal", "dualeq" or
# "dualineq"); from_flat and to_flat convert flat arrays at the boundary.
# Active weights at a random point, then assemble and factor
sigma_y = problem.zeros("dualineq")
sigma_y.data[:] = 2.0
x = problem.from_flat("primal", rng.standard_normal(dims.n))
z = model.mul_G(problem, x, out=problem.zeros("dualineq"))  # z = Gx + y / sigma_y with y = 0
weights = kkt.weights_from_shifted(problem, sigma_y, z)
sigma_x_inv = 1e-6  # the proximal term is sigma_x_inv times the identity

# every step works in place on one workspace over a set of stages, here all
# N + 1 of them: factor_stages assembles and factors each H_j and forms its
# Psi contributions in one pass (one worker runs it inline), then
# factor_psi factors Psi
work = kkt.StageFactorization.allocate(problem)
stages = np.arange(dims.N + 1)
kkt.factor_stages(work, kkt.WorkerPool(1), weights, sigma_x_inv, stages)
kkt.factor_psi(work, stages)

# dense mirror of the same quantities (weights is a one-column CompactBatch)
dense = oracles.assemble_dense(problem)
sig = problem.to_flat("dualineq", weights)
H_dense = dense.Q + dense.G.T @ np.diag(sig) @ dense.G + sigma_x_inv * np.eye(dims.n)
psi_dense = dense.M @ np.linalg.solve(H_dense, dense.M.T)

# Psi from its band factor, read blockwise in stage order: band_diag[j] is
# the diagonal block D_j of stage j and band_sub[j] the block S_j that
# couples it to stage j + 1.  A new workspace keeps the band in reversed
# block order (stage N first), so Psi_jj = D_j D_j^T + S_j S_j^T (the last
# term for j < N) and Psi_{j,j+1} = S_j D_{j+1}^T
D, S = np.tril(work.band_diag), work.band_sub
psi_diag = D @ D.transpose(0, 2, 1)
psi_diag[:-1] += S @ S.transpose(0, 2, 1)
psi_up = S @ D[1:].transpose(0, 2, 1)
n_x = dims.n_x
err = 0.0
for j in range(dims.N + 1):
    r = slice(j * n_x, (j + 1) * n_x)
    err = max(err, np.max(np.abs(psi_diag[j] - psi_dense[r, r])))
    if j < dims.N:
        c = slice((j + 1) * n_x, (j + 2) * n_x)
        err = max(err, np.max(np.abs(psi_up[j] - psi_dense[r, c])))
psi_err = err / np.max(np.abs(psi_dense))
print(f"band factor L L^T vs dense M H^-1 M^T: max relative error {psi_err:.2e}")

g = rng.standard_normal(dims.n)
r_eq = rng.standard_normal(dims.p)
dx, dlam, _ = kkt.solve_newton(
    work, problem.from_flat("primal", g), problem.from_flat("dualeq", r_eq),
    out=(problem.zeros("primal"), problem.zeros("dualeq"), problem.zeros("primal")),
)
dx_dense, dlam_dense = oracles.dense_newton_solve(H_dense, dense.M, g, r_eq)
dx_err = np.max(np.abs(problem.to_flat("primal", dx) - dx_dense)) / np.max(np.abs(dx_dense))
dlam_err = np.max(np.abs(problem.to_flat("dualeq", dlam) - dlam_dense)) / np.max(np.abs(dlam_dense))
print(f"three-step vs dense saddle solve: relative |dx diff| {dx_err:.2e}, "
      f"|dlam diff| {dlam_err:.2e}")
assert psi_err <= 1e-12 and dx_err <= 1e-10 and dlam_err <= 1e-10
