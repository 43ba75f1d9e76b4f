"""Independent KKT certificate for a candidate solution.

Computed stage by stage from the benchmark's own naive arrays with plain
numpy, so that it neither shares code with the solver nor assembles any
matrix larger than one stage.  For the convex QP

    minimize 1/2 x'Qx + q'x   s.t.   Mx = b,   bl <= Gx <= bu

a point (x, lam, y) is optimal exactly when all four residuals vanish:

    stationarity    ||Qx + q + M'lam + G'y||_inf
    equality        ||Mx - b||_inf
    bound violation ||max(bl - Gx, Gx - bu, 0)||_inf
    complementarity ||Gx - proj_[bl,bu](Gx + y)||_inf

The last is the natural residual of the complementarity conditions: it is
zero only when y_i >= 0 on rows at their upper bound, y_i <= 0 on rows at
their lower bound and y_i = 0 on rows strictly inside.  Stationarity and
feasibility alone certify any feasible point on problems whose rows span
every variable, as box-constrained ones do.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-6  # on each residual, absolute; the solver runs at eps_abs = 1e-8
KEYS = ("stationarity", "equality", "violation", "complementarity")


def residuals(prob, x, y, lam):
    """The four residuals of flat (x, y, lam) as a dict of max-norms."""
    N, n_x, n_u = prob.N, prob.n_x, prob.n_u
    n_y = prob.C.shape[1]
    n_xu = n_x + n_u
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if (x.size, y.size, lam.size) != (N * n_xu + n_x, N * n_y + prob.C_N.shape[0], (N + 1) * n_x):
        return dict.fromkeys(KEYS, float("inf"))
    lam = lam.reshape(N + 1, n_x)
    worst = dict.fromkeys(KEYS, 0.0)

    def record(key, vec):
        if vec.size:  # np.maximum propagates NaN, which fails the certificate
            worst[key] = float(np.maximum(worst[key], np.max(np.abs(vec))))

    def rows(g, yj, lo, hi):
        record("violation", np.maximum(np.maximum(lo - g, g - hi), 0.0))
        record("complementarity", g - np.clip(g + yj, lo, hi))

    record("equality", x[:n_x] - prob.x_init)
    for j in range(N):
        xj = x[j * n_xu : j * n_xu + n_x]
        uj = x[j * n_xu + n_x : (j + 1) * n_xu]
        x_next = x[(j + 1) * n_xu : (j + 1) * n_xu + n_x]
        yj = y[j * n_y : (j + 1) * n_y]
        A, B, C, D = prob.A[j], prob.B[j], prob.C[j], prob.D[j]
        record(
            "stationarity",
            prob.Q[j] @ xj + prob.S[j].T @ uj + prob.q[j]
            + lam[j] - A.T @ lam[j + 1] + C.T @ yj,
        )
        record(
            "stationarity",
            prob.S[j] @ xj + prob.R[j] @ uj + prob.r[j] - B.T @ lam[j + 1] + D.T @ yj,
        )
        record("equality", x_next - A @ xj - B @ uj - prob.c[j])
        rows(C @ xj + D @ uj, yj, prob.bl[j], prob.bu[j])
    xN = x[N * n_xu :]
    yN = y[N * n_y :]
    record("stationarity", prob.Q_N @ xN + prob.q_N + lam[N] + prob.C_N.T @ yN)
    rows(prob.C_N @ xN, yN, prob.bl_N, prob.bu_N)
    return worst


def certify(prob, x, y, lam, tol=TOLERANCE):
    """(ok, residuals): ok when every residual is at most ``tol``."""
    res = residuals(prob, x, y, lam)
    return all(v <= tol for v in res.values()), res
