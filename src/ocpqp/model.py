"""Linear-quadratic optimal control problem data and structured products.

A problem over horizon N couples states x^j (n_x) and inputs u^j (n_u)
through affine dynamics, with a convex quadratic stage cost and two-sided
affine inequality constraints per stage.  Interleaving states and inputs
gives the standard-form quadratic program

    minimize  1/2 x^T Q x + q^T x
    s.t.      M x = b,   b_l <= G x <= b_u

whose matrices Q (block-diagonal cost), M (dynamics stencil) and G
(block-diagonal constraints) are never assembled here: every product is one
batched matmul over the stage-major stacks of the data and of the vector.

At load the terminal stage is embedded as a regular stage padded with
S = 0, R = I, D = 0, and extra all-neutral filler stages round the stage
count up to a multiple of the lane width, so every stage operation is
uniform.  The logical dimensions (n variables, p equalities, m
inequalities) are not affected by padding.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .compact import CompactBatch, _ceil_div

_MAGIC = b"OCPQ1"

# Vectors are CompactBatch values with a single column:
#   PrimalVector   - stage rows n_x + n_u (terminal u slot is a zero dummy)
#   DualEqVector   - stage rows n_x, one block row per stage 0..N
#   DualIneqVector - stage rows n_y_pad = max(n_y, n_yN)
PrimalVector = CompactBatch
DualEqVector = CompactBatch
DualIneqVector = CompactBatch


@dataclass(frozen=True)
class OcpDims:
    """Problem dimensions.

    N is the number of non-terminal stages; n_y counts inequality rows per
    stage and n_yN the terminal ones; d is the lane width of the compact
    storage.
    """

    N: int
    n_x: int
    n_u: int
    n_y: int = 0
    n_yN: int = 0
    d: int = 1

    def __post_init__(self):
        if self.N < 1 or self.n_x < 1 or self.n_u < 1:
            raise ValueError("N, n_x and n_u must all be at least 1")
        if self.n_y < 0 or self.n_yN < 0:
            raise ValueError("inequality counts cannot be negative")
        if self.d not in (1, 2, 4, 8):
            raise ValueError(f"lane width must be one of 1, 2, 4, 8, got {self.d}")

    @property
    def n(self):
        """Primal variables: N (n_x + n_u) + n_x."""
        return self.N * (self.n_x + self.n_u) + self.n_x

    @property
    def p(self):
        """Equality constraints: (N + 1) n_x."""
        return (self.N + 1) * self.n_x

    @property
    def m(self):
        """Inequality constraints: N n_y + n_yN."""
        return self.N * self.n_y + self.n_yN

    @property
    def n_xu(self):
        return self.n_x + self.n_u

    @property
    def n_y_pad(self):
        """Uniform per-stage inequality rows (terminal rows folded in)."""
        return max(self.n_y, self.n_yN)

    @property
    def n_stages_padded(self):
        """Stage slots after terminal embedding and filler padding."""
        return _ceil_div(self.N + 1, self.d) * self.d

    @property
    def nblocks(self):
        return self.n_stages_padded // self.d

    def with_lane_width(self, d):
        return OcpDims(self.N, self.n_x, self.n_u, self.n_y, self.n_yN, d)


@dataclass
class ValidationReport:
    ok: bool
    issues: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _per_stage(arr, count, shape, name):
    """Normalize per-stage input: (count, *shape) or a single (*shape) array."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape == shape:
        arr = np.broadcast_to(arr, (count, *shape)).copy()
    if arr.shape != (count, *shape):
        raise ValueError(f"{name}: expected shape {(count, *shape)} or {shape}, got {arr.shape}")
    return arr


class OcpProblem:
    """All stage data of one problem, held in stage-major batches.

    Build instances with :meth:`from_stages` (naive per-stage arrays are
    copied exactly once).  The combined per-stage matrices are stored:

    - ``cost``   : (n_xu x n_xu) blocks [[Q_j, S_j^T], [S_j, R_j]]
    - ``lin``    : (n_xu x 1) stacked [q_j; r_j]
    - ``dyn``    : (n_x x n_xu) blocks [A_j  B_j]
    - ``affine`` : (n_x x 1) offsets c_j
    - ``con``    : (n_y_pad x n_xu) blocks [C_j  D_j]
    - ``bl, bu`` : (n_y_pad x 1) bounds, +-inf on padded rows

    Stage N holds the terminal data padded with S = 0, R = I, D = 0; filler
    stages beyond it are all-neutral.
    """

    def __init__(self, dims, cost, lin, dyn, affine, con, bl, bu, x_init):
        self.dims = dims
        self.cost = cost
        self.lin = lin
        self.dyn = dyn
        self.affine = affine
        self.con = con
        self.bl = bl
        self.bu = bu
        self.x_init = np.asarray(x_init, dtype=np.float64).copy()
        if self.x_init.shape != (dims.n_x,):
            raise ValueError(f"x_init must have shape ({dims.n_x},)")
        self._b = None
        self._diag_flag = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_stages(
        cls,
        Q,
        S,
        R,
        q,
        r,
        A,
        B,
        c,
        C,
        D,
        bl,
        bu,
        Q_N,
        q_N,
        C_N,
        bl_N,
        bu_N,
        x_init,
        d=1,
        extra_blocks=0,
    ):
        """Build a problem from naive per-stage arrays.

        Each stage family accepts a stacked (N, rows, cols) array or a single
        matrix reused for all stages.  Q and Q_N are symmetrized.  ``d`` is
        the lane width of the compact storage; ``extra_blocks`` appends
        additional all-filler blocks (the result is mathematically identical).
        """
        x_init = np.asarray(x_init, dtype=np.float64)
        n_x = x_init.shape[0]
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if A.ndim == 3:
            N = A.shape[0]
        elif q.ndim == 2:
            N = q.shape[0]
        else:
            raise ValueError("cannot infer N: pass at least one stacked (N, ...) family")
        n_u = B.shape[-1]
        C = np.asarray(C, dtype=np.float64)
        n_y = C.shape[-2] if C.ndim >= 2 else 0
        C_N = np.asarray(C_N, dtype=np.float64).reshape(-1, n_x)
        n_yN = C_N.shape[0]
        dims = OcpDims(N, n_x, n_u, n_y, n_yN, d)

        Q = _per_stage(Q, N, (n_x, n_x), "Q")
        S = _per_stage(S, N, (n_u, n_x), "S")
        R = _per_stage(R, N, (n_u, n_u), "R")
        q = _per_stage(q, N, (n_x,), "q")
        r = _per_stage(r, N, (n_u,), "r")
        A = _per_stage(A, N, (n_x, n_x), "A")
        B = _per_stage(B, N, (n_x, n_u), "B")
        c = _per_stage(c, N, (n_x,), "c")
        C = _per_stage(C, N, (n_y, n_x), "C")
        D = _per_stage(D, N, (n_y, n_u), "D")
        bl = _per_stage(bl, N, (n_y,), "bl")
        bu = _per_stage(bu, N, (n_y,), "bu")
        Q_N = np.asarray(Q_N, dtype=np.float64).reshape(n_x, n_x)
        q_N = np.asarray(q_N, dtype=np.float64).reshape(n_x)
        bl_N = np.asarray(bl_N, dtype=np.float64).reshape(n_yN)
        bu_N = np.asarray(bu_N, dtype=np.float64).reshape(n_yN)

        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        Q_N = 0.5 * (Q_N + Q_N.T)

        n_xu, n_y_pad = dims.n_xu, dims.n_y_pad
        S_cnt = dims.n_stages_padded + extra_blocks * d

        cost_stack = np.zeros((S_cnt, n_xu, n_xu))
        lin_stack = np.zeros((S_cnt, n_xu, 1))
        dyn_stack = np.zeros((S_cnt, n_x, n_xu))
        aff_stack = np.zeros((S_cnt, n_x, 1))
        con_stack = np.zeros((S_cnt, n_y_pad, n_xu))
        bl_stack = np.full((S_cnt, n_y_pad, 1), -np.inf)
        bu_stack = np.full((S_cnt, n_y_pad, 1), np.inf)

        cost_stack[:N, :n_x, :n_x] = Q
        cost_stack[:N, :n_x, n_x:] = S.transpose(0, 2, 1)
        cost_stack[:N, n_x:, :n_x] = S
        cost_stack[:N, n_x:, n_x:] = R
        lin_stack[:N, :n_x, 0] = q
        lin_stack[:N, n_x:, 0] = r
        dyn_stack[:N, :, :n_x] = A
        dyn_stack[:N, :, n_x:] = B
        aff_stack[:N, :, 0] = c
        if n_y:
            con_stack[:N, :n_y, :n_x] = C
            con_stack[:N, :n_y, n_x:] = D
            bl_stack[:N, :n_y, 0] = bl
            bu_stack[:N, :n_y, 0] = bu

        # terminal stage embedded with S = 0, R = I, D = 0
        cost_stack[N, :n_x, :n_x] = Q_N
        cost_stack[N, n_x:, n_x:] = np.eye(n_u)
        lin_stack[N, :n_x, 0] = q_N
        if n_yN:
            con_stack[N, :n_yN, :n_x] = C_N
            bl_stack[N, :n_yN, 0] = bl_N
            bu_stack[N, :n_yN, 0] = bu_N

        # filler stages: neutral cost, no dynamics, no constraints
        cost_stack[N + 1 :, n_x:, n_x:] = np.eye(n_u)

        def _wrap(stack):
            return CompactBatch(*stack.shape[1:], S_cnt // d, d, stack)

        return cls(
            dims,
            _wrap(cost_stack),
            _wrap(lin_stack),
            _wrap(dyn_stack),
            _wrap(aff_stack),
            _wrap(con_stack),
            _wrap(bl_stack),
            _wrap(bu_stack),
            x_init,
        )

    # -- per-stage accessors (naive copies, mostly for tests and I/O) ------

    def Q(self, j):
        n_x = self.dims.n_x
        return self.cost.stage(j)[:n_x, :n_x]

    def S(self, j):
        n_x = self.dims.n_x
        return self.cost.stage(j)[n_x:, :n_x]

    def R(self, j):
        n_x = self.dims.n_x
        return self.cost.stage(j)[n_x:, n_x:]

    def q(self, j):
        return self.lin.stage(j)[: self.dims.n_x, 0]

    def r(self, j):
        return self.lin.stage(j)[self.dims.n_x :, 0]

    def A(self, j):
        return self.dyn.stage(j)[:, : self.dims.n_x]

    def B(self, j):
        return self.dyn.stage(j)[:, self.dims.n_x :]

    def c(self, j):
        return self.affine.stage(j)[:, 0]

    def C(self, j):
        rows = self.dims.n_yN if j == self.dims.N else self.dims.n_y
        return self.con.stage(j)[:rows, : self.dims.n_x]

    def D(self, j):
        rows = self.dims.n_yN if j == self.dims.N else self.dims.n_y
        return self.con.stage(j)[:rows, self.dims.n_x :]

    def bounds(self, j):
        rows = self.dims.n_yN if j == self.dims.N else self.dims.n_y
        return self.bl.stage(j)[:rows, 0], self.bu.stage(j)[:rows, 0]

    # -- vectors -----------------------------------------------------------

    def _vec(self, rows):
        return CompactBatch(rows, 1, self.cost.nblocks, self.dims.d)

    def primal_zeros(self):
        return self._vec(self.dims.n_xu)

    def dualeq_zeros(self):
        return self._vec(self.dims.n_x)

    def dualineq_zeros(self):
        return self._vec(self.dims.n_y_pad)

    def primal_to_flat(self, v):
        """Interleaved (x^0, u^0, ..., x^N) of logical length n."""
        d = self.dims
        st = v.stack[:, :, 0]
        return np.concatenate([st[: d.N].ravel(), st[d.N, : d.n_x]])

    def primal_from_flat(self, flat):
        d = self.dims
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != d.n:
            raise ValueError(f"primal vector must have length {d.n}, got {flat.size}")
        v = self.primal_zeros()
        v.stack[: d.N, :, 0] = flat[: d.N * d.n_xu].reshape(d.N, d.n_xu)
        v.stack[d.N, : d.n_x, 0] = flat[d.N * d.n_xu :]
        return v

    def dualeq_to_flat(self, v):
        d = self.dims
        return v.stack[: d.N + 1, :, 0].ravel()

    def dualeq_from_flat(self, flat):
        d = self.dims
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != d.p:
            raise ValueError(f"equality dual must have length {d.p}, got {flat.size}")
        v = self.dualeq_zeros()
        v.stack[: d.N + 1, :, 0] = flat.reshape(d.N + 1, d.n_x)
        return v

    def dualineq_to_flat(self, v):
        d = self.dims
        st = v.stack[:, :, 0]
        return np.concatenate([st[: d.N, : d.n_y].ravel(), st[d.N, : d.n_yN]])

    def dualineq_from_flat(self, flat):
        d = self.dims
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != d.m:
            raise ValueError(f"inequality dual must have length {d.m}, got {flat.size}")
        v = self.dualineq_zeros()
        v.stack[: d.N, : d.n_y, 0] = flat[: d.N * d.n_y].reshape(d.N, d.n_y)
        v.stack[d.N, : d.n_yN, 0] = flat[d.N * d.n_y :]
        return v

    def b_dualeq(self):
        """Equality right-hand side (x_init; c^0; ...; c^{N-1}) as a vector batch."""
        if self._b is None:
            d = self.dims
            self._b = self.dualeq_zeros()
            self._b.stack[0, :, 0] = self.x_init
            self._b.stack[1 : d.N + 1] = self.affine.stack[: d.N]
        return self._b.copy()

    def flat_lin(self):
        """Flat linear cost vector (q^0, r^0, ..., q^N) of length n."""
        return self.primal_to_flat(self.lin)

    def flat_bounds(self):
        """Flat (bl, bu) of logical length m."""
        return self.dualineq_to_flat(self.bl), self.dualineq_to_flat(self.bu)

    # -- structure flags ----------------------------------------------------

    def is_diagonal(self):
        """True when every stage has diagonal Q and R, S = 0, and each
        constraint row touches at most one variable (box-like rows)."""
        if self._diag_flag is None:
            d = self.dims
            cost = self.cost.stack[: d.N + 1]
            off_diag = ~np.eye(d.n_xu, dtype=bool)
            con = self.con.stack[: d.N + 1]
            self._diag_flag = not (
                np.any(cost[:, off_diag]) or np.any(np.count_nonzero(con, axis=2) > 1)
            )
        return self._diag_flag


def validate(problem):
    """Check the problem invariants; returns a report, never raises.

    The checks run over whole stacks: one symmetry test and one batched
    Cholesky of the R_j, array tests on the bounds.  Only when the batched
    Cholesky fails are the R_j factored one by one, to name every stage
    that fails.  Issues come in stage order.
    """
    d = problem.dims
    N = d.N
    found = []  # (stage, check, message)
    R = problem.cost.stack[:N, d.n_x :, d.n_x :]
    Rt = R.transpose(0, 2, 1)
    for j in np.flatnonzero(np.any(R != Rt, axis=(1, 2))):
        found.append((j, 0, f"R_{j} not symmetric"))
    sym = 0.5 * (R + Rt)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        for j in range(N):
            try:
                np.linalg.cholesky(sym[j])
            except np.linalg.LinAlgError:
                found.append((j, 1, f"R_{j} not positive definite"))
    # logical rows only: n_y per stage, n_yN at stage N
    rows = np.arange(d.n_y_pad) < np.where(np.arange(N + 1) < N, d.n_y, d.n_yN)[:, None]
    lo, hi = problem.bl.stack[: N + 1, :, 0], problem.bu.stack[: N + 1, :, 0]
    for j in np.flatnonzero(np.any(np.isposinf(lo) & rows, axis=1)):
        found.append((j, 2, f"lower bound +inf at stage {j}"))
    for j in np.flatnonzero(np.any(np.isneginf(hi) & rows, axis=1)):
        found.append((j, 3, f"upper bound -inf at stage {j}"))
    crossing = (lo > hi) & rows
    for j in np.flatnonzero(np.any(crossing, axis=1)):
        found.append((j, 4, f"bound crossing at stage {j}, row {int(np.argmax(crossing[j]))}"))
    issues = [message for _, _, message in sorted(found)]
    for name in ("cost", "lin", "dyn", "affine", "con"):
        if not np.all(np.isfinite(getattr(problem, name).data)):
            issues.append(f"non-finite entries in {name} data")
    if not np.all(np.isfinite(problem.x_init)):
        issues.append("non-finite x_init")
    return ValidationReport(not issues, issues)


def pad_horizon(problem, d, extra_blocks=0):
    """Repack a problem at lane width ``d``.

    The logical problem is unchanged; only the stage padding (terminal
    embedding, filler stages, block count) differs.
    """
    return OcpProblem.from_stages(**_gather_families(problem), d=d, extra_blocks=extra_blocks)


# ---------------------------------------------------------------------------
# structured matrix-vector products (no assembled sparse matrices anywhere)


def _result(problem, out, rows):
    return problem._vec(rows) if out is None else out


def mul_Q(problem, x, out=None):
    """Structured product with the block-diagonal cost matrix."""
    _check_vec(problem, x, problem.dims.n_xu)
    out = _result(problem, out, problem.dims.n_xu)
    np.matmul(problem.cost.stack, x.stack, out=out.stack)
    return out


def mul_M(problem, x, out=None):
    """Structured product with the dynamics stencil M.

    Block 0 is x^0; block j+1 is x^{j+1} - A_j x^j - B_j u^j.
    """
    d = problem.dims
    _check_vec(problem, x, d.n_xu)
    out = _result(problem, out, d.n_x)
    nxt = out.stack[1 : d.N + 1]
    np.matmul(problem.dyn.stack[: d.N], x.stack[: d.N], out=nxt)  # E_j (x_j; u_j)
    np.subtract(x.stack[1 : d.N + 1, : d.n_x], nxt, out=nxt)
    out.stack[0] = x.stack[0, : d.n_x]
    out.stack[d.N + 1 :] = 0.0
    return out


def mul_MT(problem, lam, out=None):
    """Structured product with M^T (adjoint of the dynamics stencil)."""
    d = problem.dims
    _check_vec(problem, lam, d.n_x)
    out = _result(problem, out, d.n_xu)
    head = out.stack[: d.N]
    np.matmul(problem.dyn.stack[: d.N].transpose(0, 2, 1), lam.stack[1 : d.N + 1], out=head)
    np.negative(head, out=head)  # -E_j^T lam_{j+1}
    out.stack[d.N :] = 0.0
    out.stack[: d.N + 1, : d.n_x] += lam.stack[: d.N + 1]
    return out


def mul_G(problem, x, out=None):
    """Structured product with the block-diagonal constraint matrix G."""
    d = problem.dims
    _check_vec(problem, x, d.n_xu)
    out = _result(problem, out, d.n_y_pad)
    np.matmul(problem.con.stack, x.stack, out=out.stack)
    return out


def mul_GT(problem, z, out=None):
    """Structured product with G^T."""
    d = problem.dims
    _check_vec(problem, z, d.n_y_pad)
    out = _result(problem, out, d.n_xu)
    np.matmul(problem.con.stack.transpose(0, 2, 1), z.stack, out=out.stack)
    return out


def _check_vec(problem, v, rows):
    if v.rows != rows or v.cols != 1:
        raise ValueError(f"vector batch must be {rows}x1 per stage, got {v.rows}x{v.cols}")
    if v.nblocks != problem.cost.nblocks or v.d != problem.dims.d:
        raise ValueError("vector batch does not match the problem layout")


# ---------------------------------------------------------------------------
# problem files: binary container and JSON variant

_FAMILIES = ("Q", "S", "R", "q", "r", "A", "B", "c", "C", "D", "bl", "bu")
_TERMINAL = ("Q_N", "q_N", "C_N", "bl_N", "bu_N")


def _family_shapes(N, n_x, n_u, n_y, n_yN):
    per_stage = {
        "Q": (n_x, n_x),
        "S": (n_u, n_x),
        "R": (n_u, n_u),
        "q": (n_x,),
        "r": (n_u,),
        "A": (n_x, n_x),
        "B": (n_x, n_u),
        "c": (n_x,),
        "C": (n_y, n_x),
        "D": (n_y, n_u),
        "bl": (n_y,),
        "bu": (n_y,),
    }
    terminal = {
        "Q_N": (n_x, n_x),
        "q_N": (n_x,),
        "C_N": (n_yN, n_x),
        "bl_N": (n_yN,),
        "bu_N": (n_yN,),
    }
    return per_stage, terminal


def _gather_families(problem):
    """The per-stage families and terminal data of a problem, in the argument
    names of :meth:`OcpProblem.from_stages`, as slices of its stage stacks."""
    d = problem.dims
    N, n_x, n_y, n_yN = d.N, d.n_x, d.n_y, d.n_yN
    cost, lin, dyn = problem.cost.stack, problem.lin.stack, problem.dyn.stack
    con, bl, bu = problem.con.stack, problem.bl.stack, problem.bu.stack
    return {
        "Q": cost[:N, :n_x, :n_x],
        "S": cost[:N, n_x:, :n_x],
        "R": cost[:N, n_x:, n_x:],
        "q": lin[:N, :n_x, 0],
        "r": lin[:N, n_x:, 0],
        "A": dyn[:N, :, :n_x],
        "B": dyn[:N, :, n_x:],
        "c": problem.affine.stack[:N, :, 0],
        "C": con[:N, :n_y, :n_x],
        "D": con[:N, :n_y, n_x:],
        "bl": bl[:N, :n_y, 0],
        "bu": bu[:N, :n_y, 0],
        "Q_N": cost[N, :n_x, :n_x],
        "q_N": lin[N, :n_x, 0],
        "C_N": con[N, :n_yN, :n_x],
        "bl_N": bl[N, :n_yN, 0],
        "bu_N": bu[N, :n_yN, 0],
        "x_init": problem.x_init,
    }


def save_problem(problem, path, fmt="binary"):
    """Write a problem file; ``fmt`` is 'binary' or 'json'."""
    data = _gather_families(problem)
    d = problem.dims
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<5Q", d.N, d.n_x, d.n_u, d.n_y, d.n_yN))
            for name in _FAMILIES:
                arr = data[name]
                for j in range(d.N):
                    fh.write(np.asfortranarray(arr[j]).tobytes(order="F"))
            for name in _TERMINAL:
                fh.write(np.asfortranarray(data[name]).tobytes(order="F"))
            fh.write(data["x_init"].tobytes())
    elif fmt == "json":
        doc = {"N": d.N, "n_x": d.n_x, "n_u": d.n_u, "n_y": d.n_y, "n_yN": d.n_yN}
        for name in (*_FAMILIES, *_TERMINAL, "x_init"):
            doc[name] = data[name].tolist()
        with open(path, "w") as fh:
            json.dump(doc, fh)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_problem(path, d=1):
    """Read a problem file (binary or JSON, detected by the magic bytes)."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        body = fh.read()
    if head == _MAGIC:
        N, n_x, n_u, n_y, n_yN = (int(v) for v in struct.unpack("<5Q", body[:40]))
        per_stage, terminal = _family_shapes(N, n_x, n_u, n_y, n_yN)
        raw = body[40:]
        offset = 0

        def take(shape):
            nonlocal offset
            count = int(np.prod(shape))
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset * 8)
            offset += count
            return arr.reshape(shape, order="F")

        data = {}
        for name in _FAMILIES:
            data[name] = np.stack([take(per_stage[name]) for _ in range(N)])
        for name in _TERMINAL:
            data[name] = take(terminal[name])
        data["x_init"] = take((n_x,))
    else:
        doc = json.loads((head + body).decode("utf-8"))
        N, n_x, n_u = doc["N"], doc["n_x"], doc["n_u"]
        n_y, n_yN = doc["n_y"], doc["n_yN"]
        per_stage, terminal = _family_shapes(N, n_x, n_u, n_y, n_yN)
        data = {}
        for name in _FAMILIES:
            data[name] = np.array(doc[name], dtype=np.float64).reshape((N, *per_stage[name]))
        for name in _TERMINAL:
            data[name] = np.array(doc[name], dtype=np.float64).reshape(terminal[name])
        data["x_init"] = np.array(doc["x_init"], dtype=np.float64).reshape(n_x)
    return OcpProblem.from_stages(
        Q=data["Q"], S=data["S"], R=data["R"], q=data["q"], r=data["r"],
        A=data["A"], B=data["B"], c=data["c"], C=data["C"], D=data["D"],
        bl=data["bl"], bu=data["bu"], Q_N=data["Q_N"], q_N=data["q_N"],
        C_N=data["C_N"], bl_N=data["bl_N"], bu_N=data["bu_N"],
        x_init=data["x_init"], d=d,
    )
