"""Independent verification paths for solver output.

Everything here deliberately avoids the structured solve code: dense
assembly of the standard-form matrices, a Riccati recursion for the
unconstrained case, and a brute-force enumeration of active sets for tiny
constrained problems.  These are the oracles the tests and the benchmark
harness check against.

The stage data is read through ``OcpProblem.families()``, the same table
that ``from_stages`` writes through; ``tests/test_model.py::TestLayout``
checks that table against stack offsets written out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np



class OracleIntractable(Exception):
    """The requested oracle would enumerate too many candidates."""


def _norm_inf(v):
    return float(np.max(np.abs(v))) if v.size else 0.0


@dataclass
class DenseQp:
    """Explicit standard-form data: 1/2 x'Qx + q'x, Mx = b, bl <= Gx <= bu."""

    Q: np.ndarray
    q: np.ndarray
    M: np.ndarray
    b: np.ndarray
    G: np.ndarray
    bl: np.ndarray
    bu: np.ndarray


@dataclass
class VerificationReport:
    ok: bool
    method: str
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def assemble_dense(problem):
    """Assemble the dense standard-form matrices of a problem."""
    d = problem.dims
    n, p, m = d.n, d.p, d.m
    Q = np.zeros((n, n))
    q = np.zeros(n)
    M = np.zeros((p, n))
    b = np.zeros(p)
    G = np.zeros((m, n))
    bl = np.full(m, -np.inf)
    bu = np.full(m, np.inf)

    f = problem.families()

    def col(j):
        return j * d.n_xu

    for j in range(d.N):
        c0 = col(j)
        blk = np.zeros((d.n_xu, d.n_xu))
        blk[: d.n_x, : d.n_x] = f["Q"][j]
        blk[: d.n_x, d.n_x :] = f["S"][j].T
        blk[d.n_x :, : d.n_x] = f["S"][j]
        blk[d.n_x :, d.n_x :] = f["R"][j]
        Q[c0 : c0 + d.n_xu, c0 : c0 + d.n_xu] = blk
        q[c0 : c0 + d.n_x] = f["q"][j]
        q[c0 + d.n_x : c0 + d.n_xu] = f["r"][j]
    cN = col(d.N)
    Q[cN : cN + d.n_x, cN : cN + d.n_x] = f["Q_N"]
    q[cN : cN + d.n_x] = f["q_N"]

    M[: d.n_x, : d.n_x] = np.eye(d.n_x)
    b[: d.n_x] = problem.x_init
    for j in range(d.N):
        r0 = (j + 1) * d.n_x
        c0 = col(j)
        M[r0 : r0 + d.n_x, c0 : c0 + d.n_x] = -f["A"][j]
        M[r0 : r0 + d.n_x, c0 + d.n_x : c0 + d.n_xu] = -f["B"][j]
        M[r0 : r0 + d.n_x, col(j + 1) : col(j + 1) + d.n_x] = np.eye(d.n_x)
        b[r0 : r0 + d.n_x] = f["c"][j]

    for j in range(d.N):
        r0 = j * d.n_y
        c0 = col(j)
        G[r0 : r0 + d.n_y, c0 : c0 + d.n_x] = f["C"][j]
        G[r0 : r0 + d.n_y, c0 + d.n_x : c0 + d.n_xu] = f["D"][j]
        bl[r0 : r0 + d.n_y], bu[r0 : r0 + d.n_y] = f["bl"][j], f["bu"][j]
    if d.n_yN:
        r0 = d.N * d.n_y
        G[r0:, cN : cN + d.n_x] = f["C_N"]
        bl[r0:], bu[r0:] = f["bl_N"], f["bu_N"]

    return DenseQp(Q, q, M, b, G, bl, bu)


def kkt_residuals(problem, x, y, lam):
    """Residuals of a candidate solution, recomputed from the stage families.

    Returns (dual, eq, primal, comp) max-norms for flat (x, y, lam):
    dual   = ||Qx + q + M'lam + G'y||_inf
    eq     = ||Mx - b||_inf
    primal = ||dist(Gx, [bl, bu])||_inf
    comp   = ||Gx - proj_[bl, bu](Gx + y)||_inf

    ``comp`` is the natural complementarity residual: it vanishes exactly
    when Gx is feasible and y lies in the normal cone of the box at Gx
    (y >= 0 only on rows at their upper bound, y <= 0 only at the lower,
    y = 0 in the interior), so the four together certify optimality.

    The products are per-stage ``einsum`` over the families, the way
    :func:`assemble_dense` reads them, and not the structured products of
    :mod:`ocpqp.model`, which this checks.
    """
    d = problem.dims
    N, n_x, n_y = d.N, d.n_x, d.n_y
    f = problem.families()
    x, y, lam = (np.asarray(v, dtype=np.float64).ravel() for v in (x, y, lam))
    if (x.size, y.size, lam.size) != (d.n, d.m, d.p):
        raise ValueError(
            f"(x, y, lam) must have lengths ({d.n}, {d.m}, {d.p}), "
            f"got ({x.size}, {y.size}, {lam.size})"
        )
    xu = x[: N * d.n_xu].reshape(N, d.n_xu)
    xs, us, x_N = xu[:, :n_x], xu[:, n_x:], x[N * d.n_xu :]
    ys, y_N = y[: N * n_y].reshape(N, n_y), y[N * n_y :]
    lams = lam.reshape(N + 1, n_x)

    def mul(blocks, v):  # blocks[j] @ v[j]
        return np.einsum("jab,jb->ja", blocks, v)

    def mul_t(blocks, v):  # blocks[j]^T @ v[j]
        return np.einsum("jba,jb->ja", blocks, v)

    # Qx + q + M'lam + G'y, stage by stage: the x^j rows, the u^j rows, x^N
    dual_x = (
        mul(f["Q"], xs) + mul_t(f["S"], us) + f["q"]
        + lams[:N] - mul_t(f["A"], lams[1:]) + mul_t(f["C"], ys)
    )
    dual_u = mul(f["S"], xs) + mul(f["R"], us) + f["r"] - mul_t(f["B"], lams[1:]) + mul_t(f["D"], ys)
    dual_N = f["Q_N"] @ x_N + f["q_N"] + lams[N] + f["C_N"].T @ y_N
    dual_vec = np.concatenate([np.hstack([dual_x, dual_u]).ravel(), dual_N])
    # Mx - b: x^0 - x_init, then x^{j+1} - A_j x^j - B_j u^j - c_j
    x_next = np.vstack([xs[1:], x_N[None]])
    eq_vec = np.concatenate(
        [x[:n_x] - f["x_init"], (x_next - mul(f["A"], xs) - mul(f["B"], us) - f["c"]).ravel()]
    )
    gx = np.concatenate([(mul(f["C"], xs) + mul(f["D"], us)).ravel(), f["C_N"] @ x_N])
    blf = np.concatenate([f["bl"].ravel(), f["bl_N"]])
    buf = np.concatenate([f["bu"].ravel(), f["bu_N"]])
    viol = np.maximum(np.maximum(blf - gx, gx - buf), 0.0)
    comp = gx - np.clip(gx + y, blf, buf)
    return _norm_inf(dual_vec), _norm_inf(eq_vec), _norm_inf(viol), _norm_inf(comp)


def riccati_solve(problem):
    """Exact solution of the unconstrained problem by backward recursion.

    Returns flat (x, lam).  Only valid when every inequality bound is
    infinite (raises ValueError otherwise).
    """
    d = problem.dims
    blf, buf = problem.flat_bounds()
    if np.any(np.isfinite(blf)) or np.any(np.isfinite(buf)):
        raise ValueError("Riccati recursion only applies to unconstrained problems")
    N = d.N
    Ps = [None] * (N + 1)
    ps = [None] * (N + 1)
    Ks = [None] * N
    ks = [None] * N
    f = problem.families()
    Ps[N], ps[N] = f["Q_N"], f["q_N"]
    for j in range(N - 1, -1, -1):
        Aj, Bj, cj = f["A"][j], f["B"][j], f["c"][j]
        P1, p1 = Ps[j + 1], ps[j + 1]
        F = f["Q"][j] + Aj.T @ P1 @ Aj
        Hm = f["S"][j] + Bj.T @ P1 @ Aj
        Gm = f["R"][j] + Bj.T @ P1 @ Bj
        gv = f["r"][j] + Bj.T @ (p1 + P1 @ cj)
        Ks[j] = -np.linalg.solve(Gm, Hm)
        ks[j] = -np.linalg.solve(Gm, gv)
        Pj = F + Hm.T @ Ks[j]
        Ps[j] = 0.5 * (Pj + Pj.T)
        ps[j] = f["q"][j] + Aj.T @ (p1 + P1 @ cj) + Hm.T @ ks[j]

    x = problem.x_init
    flat, lams = [], []
    for j in range(N):
        u = Ks[j] @ x + ks[j]
        lams.append(-(Ps[j] @ x + ps[j]))
        flat.extend([x, u])
        x = f["A"][j] @ x + f["B"][j] @ u + f["c"][j]
    lams.append(-(Ps[N] @ x + ps[N]))
    flat.append(x)
    return np.concatenate(flat), np.concatenate(lams)


def _solve_equality_qp(dense, active_rows, sides):
    """Solve the QP with the listed inequality rows pinned at their bounds.

    Returns (x, lam, y_active) or None when the KKT system is singular.
    """
    n = dense.Q.shape[0]
    p = dense.M.shape[0]
    Ga = dense.G[active_rows]
    targets = np.where(np.array(sides) > 0, dense.bu[active_rows], dense.bl[active_rows])
    na = len(active_rows)
    kkt = np.zeros((n + p + na, n + p + na))
    kkt[:n, :n] = dense.Q
    kkt[:n, n : n + p] = dense.M.T
    kkt[n : n + p, :n] = dense.M
    if na:
        kkt[:n, n + p :] = Ga.T
        kkt[n + p :, :n] = Ga
    rhs = np.concatenate([-dense.q, dense.b, targets])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    resid = kkt @ sol - rhs
    if np.max(np.abs(resid)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        return None
    return sol[:n], sol[n : n + p], sol[n + p :]


def enumerate_active_sets(problem, max_candidates=200_000, tol=1e-9):
    """Globally solve a tiny problem by enumerating active sets.

    Every inequality row is tried inactive, at its lower bound, or at its
    upper bound (infinite bounds prune the respective choice); candidates
    with more active rows than remaining degrees of freedom are skipped.
    Raises OracleIntractable when the candidate count exceeds the cap.
    """
    dense = assemble_dense(problem)
    m = dense.G.shape[0]
    dof = dense.Q.shape[0] - dense.M.shape[0]
    options = []
    for i in range(m):
        opts = [(0, 0.0)]
        if np.isfinite(dense.bl[i]):
            opts.append((-1, dense.bl[i]))
        if np.isfinite(dense.bu[i]):
            opts.append((+1, dense.bu[i]))
        options.append(opts)
    total = 1
    for opts in options:
        total *= len(opts)
        if total > max_candidates:
            raise OracleIntractable(
                f"active-set enumeration needs more than {max_candidates} candidates"
            )

    best = None
    for combo in product(*options):
        rows = [i for i, (s, _) in enumerate(combo) if s != 0]
        if len(rows) > dof:
            continue
        sides = [combo[i][0] for i in rows]
        sol = _solve_equality_qp(dense, rows, sides)
        if sol is None:
            continue
        x, lam, ya = sol
        gx = dense.G @ x
        scale = 1.0 + max(
            np.max(np.abs(gx)) if m else 0.0,
            np.max(np.abs(dense.bl[np.isfinite(dense.bl)])) if np.any(np.isfinite(dense.bl)) else 0.0,
            np.max(np.abs(dense.bu[np.isfinite(dense.bu)])) if np.any(np.isfinite(dense.bu)) else 0.0,
        )
        if np.any(gx < dense.bl - tol * scale) or np.any(gx > dense.bu + tol * scale):
            continue
        ok = True
        for ridx, side, yv in zip(rows, sides, ya):
            if side > 0 and yv < -tol * scale:
                ok = False
            if side < 0 and yv > tol * scale:
                ok = False
        if not ok:
            continue
        y = np.zeros(m)
        y[rows] = ya
        obj = 0.5 * x @ dense.Q @ x + dense.q @ x
        if best is None or obj < best[0] - 1e-12 * (1.0 + abs(obj)):
            best = (obj, x, y, lam)
    if best is None:
        raise OracleIntractable("no KKT-consistent active set found (infeasible problem?)")
    obj, x, y, lam = best
    return x, y, lam, obj


def dense_newton_solve(H, M, rhs_dual, rhs_eq):
    """Dense factorization of the full saddle-point system.

    Solves [[H, M'], [M, 0]] [dx; dlam] = -[rhs_dual; rhs_eq].
    """
    n, p = H.shape[0], M.shape[0]
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = H
    kkt[:n, n:] = M.T
    kkt[n:, :n] = M
    sol = np.linalg.solve(kkt, -np.concatenate([rhs_dual, rhs_eq]))
    return sol[:n], sol[n:]


def verify_against_oracle(problem, solution, oracle="auto", eps=1e-8, max_candidates=200_000):
    """Check a candidate (x, y, lam) triple against an oracle.

    ``oracle`` is 'residual', 'riccati', 'enumerate' or 'auto' (which picks
    the strongest applicable one).  Residual checks use ``eps`` as the
    KKT tolerance; solution-matching oracles use looser, documented gates.
    """
    x, y, lam = solution
    d = problem.dims
    blf, buf = problem.flat_bounds()
    has_finite = bool(np.any(np.isfinite(blf)) or np.any(np.isfinite(buf)))
    if oracle == "auto":
        if not has_finite:
            oracle = "riccati"
        elif d.n <= 60 and d.m <= 14:
            oracle = "enumerate"
        else:
            oracle = "residual"

    dual, eq, primal, comp = kkt_residuals(problem, x, y, lam)
    details = {"dual": dual, "eq": eq, "primal": primal, "comp": comp, "oracle": oracle}
    residual_ok = max(dual, eq, primal, comp) <= eps

    if oracle == "residual":
        return VerificationReport(residual_ok, "residual", details)
    if oracle == "riccati":
        x_ref, _ = riccati_solve(problem)
        err = float(np.max(np.abs(x - x_ref)))
        details["x_err"] = err
        return VerificationReport(residual_ok and err <= 1e-7, "riccati", details)
    if oracle == "enumerate":
        x_ref, _, _, obj = enumerate_active_sets(problem, max_candidates=max_candidates)
        err = float(np.max(np.abs(x - x_ref)))
        details["x_err"] = err
        details["objective"] = obj
        return VerificationReport(residual_ok and err <= 1e-6, "enumerate", details)
    raise ValueError(f"unknown oracle {oracle!r}")
