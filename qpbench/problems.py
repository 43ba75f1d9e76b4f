"""Spring-mass chain problems as naive per-stage arrays.

Built here, with plain numpy and scipy, so that the benchmark's inputs do not
depend on the problem generators of the package under test.  The chain has
``masses`` unit bodies coupled to their neighbours and to two walls by unit
springs; actuator i pushes bodies i and i+1 apart.  States are the positions
followed by the velocities (n_x = 2 masses), inputs the actuator forces
(n_u = masses - 1).  The continuous dynamics are discretised by a
zero-order hold through the augmented matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

TS = 0.5  # sampling time [s]
X_MAX = 4.0  # bound on every position and velocity
U_MAX = 0.5  # bound on every actuator force
INIT_BOX = 1.0  # cold initial states lie in [-INIT_BOX, INIT_BOX]


def chain_dynamics(masses, ts=TS):
    """Discrete (A, B) of the chain under a zero-order hold."""
    T = -2.0 * np.eye(masses) + np.eye(masses, k=1) + np.eye(masses, k=-1)
    F = np.eye(masses, masses - 1) - np.eye(masses, masses - 1, k=-1)
    n_x, n_u = 2 * masses, masses - 1
    aug = np.zeros((n_x + n_u, n_x + n_u))
    aug[:masses, masses:n_x] = np.eye(masses)
    aug[masses:n_x, :masses] = T
    aug[masses:n_x, n_x:] = F
    phi = scipy.linalg.expm(aug * ts)
    return phi[:n_x, :n_x], phi[:n_x, n_x:]


@dataclass
class StageArrays:
    """One problem as stacked per-stage arrays, in the argument order of
    ``OcpProblem.from_stages``.  Every family is a full (N, ...) stack."""

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    q: np.ndarray
    r: np.ndarray
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    C: np.ndarray
    D: np.ndarray
    bl: np.ndarray
    bu: np.ndarray
    Q_N: np.ndarray
    q_N: np.ndarray
    C_N: np.ndarray
    bl_N: np.ndarray
    bu_N: np.ndarray
    x_init: np.ndarray

    @property
    def N(self):
        return self.A.shape[0]

    @property
    def n_x(self):
        return self.A.shape[1]

    @property
    def n_u(self):
        return self.B.shape[2]

    def kwargs(self):
        return dict(vars(self))


def spring_mass(masses, horizon, x_init):
    """Regulation to the origin with unit diagonal costs and box bounds on
    every state and input, one constraint row per variable."""
    Ad, Bd = chain_dynamics(masses)
    n_x, n_u, N = 2 * masses, masses - 1, horizon
    n_y = n_x + n_u
    bound = np.concatenate([np.full(n_x, X_MAX), np.full(n_u, U_MAX)])

    def stack(mat):
        return np.repeat(mat[None], N, axis=0)

    return StageArrays(
        Q=stack(np.eye(n_x)),
        S=np.zeros((N, n_u, n_x)),
        R=stack(np.eye(n_u)),
        q=np.zeros((N, n_x)),
        r=np.zeros((N, n_u)),
        A=stack(Ad),
        B=stack(Bd),
        c=np.zeros((N, n_x)),
        C=stack(np.eye(n_y, n_x)),
        D=stack(np.eye(n_y, n_u, k=-n_x)),
        bl=stack(-bound),
        bu=stack(bound),
        Q_N=np.eye(n_x),
        q_N=np.zeros(n_x),
        C_N=np.eye(n_x),
        bl_N=np.full(n_x, -X_MAX),
        bu_N=np.full(n_x, X_MAX),
        x_init=np.asarray(x_init, dtype=np.float64).copy(),
    )
