"""Linear-quadratic optimal control problem data and structured products.

A problem over horizon N couples states x^j (n_x) and inputs u^j (n_u)
through affine dynamics, with a convex quadratic stage cost and two-sided
affine inequality constraints per stage.  Interleaving states and inputs
gives the standard-form quadratic program

    minimize  1/2 x^T Q x + q^T x
    s.t.      M x = b,   b_l <= G x <= b_u

whose matrices Q (block-diagonal cost), M (dynamics stencil) and G
(block-diagonal constraints) are never assembled here.  A product with M or
M^T is one batched matmul over the stage-major stacks of the data and of the
vector, and so is one with Q, G or G^T, except on a diagonal problem
(diagonal cost blocks, box-like constraint rows; see
:meth:`OcpProblem.is_diagonal`): there the :class:`DiagonalStructure`,
derived once from the data, makes it one elementwise operation over the flat
vectors, with no dense block read.

At load the terminal stage is embedded as a regular stage padded with
S = 0, R = I, D = 0, so every stage operation is uniform over exactly N + 1
stage slots.  The logical dimensions (n variables, p equalities, m
inequalities) are not affected by the embedding.

One table, ``_views``, places each family of :meth:`OcpProblem.from_stages`
in the stage stacks.  ``from_stages`` writes through it; ``families()``,
``validate``, the problem files and the oracles read through it.  A second
table, ``OcpProblem._layout``, places each kind of vector ('primal',
'dualeq', 'dualineq') in its stage slots; ``zeros``, ``to_flat``,
``from_flat`` and the products' shape checks read it.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .compact import CompactBatch

_MAGIC = b"OCPQ1"
_DIMS = ("N", "n_x", "n_u", "n_y", "n_yN")


@dataclass(frozen=True)
class OcpDims:
    """Problem dimensions.

    N is the number of non-terminal stages; n_y counts inequality rows per
    stage and n_yN the terminal ones; each is an integer, and not a bool.
    """

    N: int
    n_x: int
    n_u: int
    n_y: int = 0
    n_yN: int = 0

    def __post_init__(self):
        for name in _DIMS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.N < 1 or self.n_x < 1 or self.n_u < 1:
            raise ValueError("N, n_x and n_u must all be at least 1")
        if self.n_y < 0 or self.n_yN < 0:
            raise ValueError("inequality counts cannot be negative")

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


@dataclass
class ValidationReport:
    ok: bool
    issues: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _stack_shapes(dims):
    """Shapes of the seven stage stacks, keyed by their OcpProblem field."""
    ns, n_x, n_xu, n_y_pad = dims.N + 1, dims.n_x, dims.n_xu, dims.n_y_pad
    return {
        "cost": (ns, n_xu, n_xu),
        "lin": (ns, n_xu, 1),
        "dyn": (ns, n_x, n_xu),
        "affine": (ns, n_x, 1),
        "con": (ns, n_y_pad, n_xu),
        "bl": (ns, n_y_pad, 1),
        "bu": (ns, n_y_pad, 1),
    }


def _zero_stacks(dims):
    """Fresh stage stacks: zeros, and -inf / +inf in ``bl`` / ``bu`` so that
    padded rows bound nothing."""
    stacks = {name: np.zeros(shape) for name, shape in _stack_shapes(dims).items()}
    stacks["bl"].fill(-np.inf)
    stacks["bu"].fill(np.inf)
    return stacks


def _views(stacks, dims):
    """Each :meth:`OcpProblem.from_stages` family as a view of ``stacks``.

    This table is the one place that says where a family lives.  The
    per-stage families come first, then the terminal ones, in the order of
    the binary problem file.  The two blocks no argument names are the S^T
    block of ``cost`` and the terminal R = I, which ``from_stages`` writes.
    """
    N, n_x, n_y, n_yN = dims.N, dims.n_x, dims.n_y, dims.n_yN
    cost, lin, dyn, con = stacks["cost"], stacks["lin"], stacks["dyn"], stacks["con"]
    bl, bu = stacks["bl"], stacks["bu"]
    return {
        "Q": cost[:N, :n_x, :n_x],
        "S": cost[:N, n_x:, :n_x],
        "R": cost[:N, n_x:, n_x:],
        "q": lin[:N, :n_x, 0],
        "r": lin[:N, n_x:, 0],
        "A": dyn[:N, :, :n_x],
        "B": dyn[:N, :, n_x:],
        "c": stacks["affine"][:N, :, 0],
        "C": con[:N, :n_y, :n_x],
        "D": con[:N, :n_y, n_x:],
        "bl": bl[:N, :n_y, 0],
        "bu": bu[:N, :n_y, 0],
        "Q_N": cost[N, :n_x, :n_x],
        "q_N": lin[N, :n_x, 0],
        "C_N": con[N, :n_yN, :n_x],
        "bl_N": bl[N, :n_yN, 0],
        "bu_N": bu[N, :n_yN, 0],
    }


def _as_family(name, value, shape):
    """``value`` as a float array for the family ``name``, whose view in the
    stage stacks has ``shape``; a per-stage family also takes one stage's
    matrix for every stage.  Any other shape raises ValueError naming the
    family: nothing else is broadcast."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == shape or (not name.endswith("_N") and arr.shape == shape[1:]):
        return arr
    expected = shape if name.endswith("_N") else f"{shape} or {shape[1:]}"
    raise ValueError(f"{name}: expected shape {expected}, got {arr.shape}")


@dataclass(frozen=True)
class DiagonalStructure:
    """The cost and constraint data of a diagonal problem, in the flat
    stage-major order of the vectors.

    ``cost`` (nstages, n_xu) holds the diagonal of each cost block.  Each
    constraint row touches at most one variable: ``col`` (nstages, n_y_pad)
    holds that variable's flat index in a primal vector's ``data`` and
    ``coef`` its coefficient; a row that touches nothing (a padded row, say)
    has coefficient 0 and points at the first variable of its stage.
    """

    cost: np.ndarray
    col: np.ndarray
    coef: np.ndarray

    @classmethod
    def derive(cls, problem):
        """The structure of ``problem``, or None when it is not diagonal."""
        cost, con = problem.cost.stack, problem.con.stack
        diag = np.diagonal(cost, axis1=1, axis2=2).copy()
        if np.count_nonzero(cost != 0.0) != np.count_nonzero(diag):
            return None
        nonzero = con != 0.0
        col = np.argmax(nonzero, axis=2)  # a row's first nonzero, 0 when it has none
        coef = np.take_along_axis(con, col[:, :, None], axis=2)[:, :, 0]
        # each row's first nonzero is all of its nonzeros
        if np.count_nonzero(nonzero) != np.count_nonzero(coef):
            return None
        col += np.arange(len(con))[:, None] * problem.dims.n_xu
        return cls(diag, col, coef)


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

    Stage N holds the terminal data padded with S = 0, R = I, D = 0.

    Vectors are single-column CompactBatch values over the same N + 1 stage
    slots, of three kinds: 'primal' vectors have n_x + n_u rows per stage
    (the terminal u slot is a zero dummy), 'dualeq' (equality duals) n_x,
    one block row per stage 0..N, and 'dualineq' (inequality duals)
    n_y_pad = max(n_y, n_yN), of which n_y are kept at stages 0..N-1 and
    n_yN at stage N.  :meth:`zeros`, :meth:`to_flat` and :meth:`from_flat`
    take the kind; flat vectors meet the solver only through the last two.

    ``diagonal`` is derived from ``cost`` and ``con`` at its first use, so
    these two must not change afterwards.
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
    ):
        """Build a problem from naive per-stage arrays.

        Each stage family accepts a stacked (N, rows, cols) array or a single
        matrix reused for all stages; a terminal family takes its one shape
        (see :func:`_as_family`).  Q and Q_N are symmetrized.
        """
        given = dict(locals())  # the arguments by name, before any rebinding
        x_init = np.asarray(x_init, dtype=np.float64)
        n_x, n_u = x_init.shape[0], np.shape(B)[-1]
        if np.ndim(A) == 3:
            N = np.shape(A)[0]
        elif np.ndim(q) == 2:
            N = np.shape(q)[0]
        else:
            raise ValueError("cannot infer N: pass at least one stacked (N, ...) family")
        n_y = np.shape(C)[-2] if np.ndim(C) >= 2 else 0
        dims = OcpDims(N, n_x, n_u, n_y, np.shape(C_N)[0] if np.ndim(C_N) else 0)

        stacks = _zero_stacks(dims)
        cost = stacks["cost"]
        for name, view in _views(stacks, dims).items():
            arr = _as_family(name, given[name], view.shape)
            if name in ("Q", "Q_N"):  # one temporary, written straight into the stack
                np.multiply(arr + np.swapaxes(arr, -1, -2), 0.5, out=view)
            else:
                view[...] = arr
            if name == "S":  # S^T while these rows of cost are still in cache
                cost[:N, :n_x, n_x:] = np.swapaxes(arr, -1, -2)
        cost[N, n_x:, n_x:] = np.eye(n_u)
        return cls(
            dims,
            x_init=x_init,
            **{name: CompactBatch(*s.shape[1:], N + 1, s) for name, s in stacks.items()},
        )

    def families(self):
        """Every :meth:`from_stages` argument as a read-only view of this
        problem's data, so that ``from_stages(**p.families())`` rebuilds it."""
        stacks = {name: getattr(self, name).stack for name in _stack_shapes(self.dims)}
        views = _views(stacks, self.dims)
        views["x_init"] = self.x_init.view()
        for view in views.values():
            view.flags.writeable = False
        return views

    # -- vectors -----------------------------------------------------------

    @functools.cached_property
    def _layout(self):
        """The vector layout, built once: for each kind, the rows of a stage
        slot, the rows kept for stages 0..N-1 and for stage N, the flat
        length and the vector's name in errors."""
        d = self.dims
        return {
            "primal": (d.n_xu, d.n_xu, d.n_x, d.n, "primal vector"),
            "dualeq": (d.n_x, d.n_x, d.n_x, d.p, "equality dual"),
            "dualineq": (d.n_y_pad, d.n_y, d.n_yN, d.m, "inequality dual"),
        }

    def zeros(self, kind):
        """A zero vector of ``kind`` ('primal', 'dualeq' or 'dualineq')."""
        return CompactBatch(self._layout[kind][0], 1, self.cost.nstages)

    def to_flat(self, kind, v):
        """A new flat array of the kept rows of ``v``, stage by stage; a
        primal one is the interleaved (x^0, u^0, ..., x^N) of length n."""
        _, rows, rows_N, _, _ = self._layout[kind]
        N = self.dims.N
        st = v.stack[:, :, 0]
        return np.concatenate([st[:N, :rows].ravel(), st[N, :rows_N]])

    def from_flat(self, kind, flat):
        """The vector of ``kind`` whose :meth:`to_flat` is ``flat``; padded
        rows and the terminal input slot are 0."""
        _, rows, rows_N, length, name = self._layout[kind]
        N = self.dims.N
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != length:
            raise ValueError(f"{name} must have length {length}, got {flat.size}")
        v = self.zeros(kind)
        v.stack[:N, :rows, 0] = flat[: N * rows].reshape(N, rows)
        v.stack[N, :rows_N, 0] = flat[N * rows :]
        return v

    def b_dualeq(self):
        """Equality right-hand side (x_init; c^0; ...; c^{N-1}) as a vector batch."""
        b = self.zeros("dualeq")
        b.stack[0, :, 0] = self.x_init
        b.stack[1:] = self.affine.stack[:-1]
        return b

    def flat_bounds(self):
        """Flat (bl, bu) of logical length m."""
        return self.to_flat("dualineq", self.bl), self.to_flat("dualineq", self.bu)

    # -- structure flags ----------------------------------------------------

    @functools.cached_property
    def diagonal(self):
        """The problem's :class:`DiagonalStructure`, or None when it is not
        diagonal; derived once."""
        return DiagonalStructure.derive(self)

    def is_diagonal(self):
        """True when every stage has diagonal Q and R, S = 0, and each
        constraint row touches at most one variable (box-like rows)."""
        return self.diagonal is not None


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
    f = problem.families()
    R = f["R"]
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
    # stages 0..N-1, then the terminal pair as stage N
    for first, lo, hi in ((0, f["bl"], f["bu"]), (N, f["bl_N"][None], f["bu_N"][None])):
        for j in first + np.flatnonzero(np.any(np.isposinf(lo), axis=1)):
            found.append((j, 2, f"lower bound +inf at stage {j}"))
        for j in first + np.flatnonzero(np.any(np.isneginf(hi), axis=1)):
            found.append((j, 3, f"upper bound -inf at stage {j}"))
        crossing = lo > hi
        for j in np.flatnonzero(np.any(crossing, axis=1)):
            row = int(np.argmax(crossing[j]))
            found.append((first + j, 4, f"bound crossing at stage {first + j}, row {row}"))
    issues = [message for _, _, message in sorted(found)]
    for name in ("cost", "lin", "dyn", "affine", "con"):
        if not np.all(np.isfinite(getattr(problem, name).data)):
            issues.append(f"non-finite entries in {name} data")
    if not np.all(np.isfinite(problem.x_init)):
        issues.append("non-finite x_init")
    return ValidationReport(not issues, issues)


def pad_horizon(problem):
    """A copy of ``problem`` rebuilt from its stage families.  Nothing in the
    package calls it: it stays only because the benchmark traces this name,
    and goes with the benchmark change of ROADMAP item 5."""
    return OcpProblem.from_stages(**problem.families())


# ---------------------------------------------------------------------------
# structured matrix-vector products (no assembled sparse matrices anywhere)


def mul_Q(problem, x, out):
    """Structured product with the block-diagonal cost matrix."""
    _check_vec(problem, x, "primal")
    _check_vec(problem, out, "primal")
    diag = problem.diagonal
    if diag is None:
        np.matmul(problem.cost.stack, x.stack, out=out.stack)
    else:
        np.multiply(diag.cost.ravel(), x.data, out=out.data)
        out.data += 0.0  # -0 to +0, the zero the matmul gives
    return out


def mul_M(problem, x, out):
    """Structured product with the dynamics stencil M.

    Block 0 is x^0; block j+1 is x^{j+1} - A_j x^j - B_j u^j.
    """
    d = problem.dims
    _check_vec(problem, x, "primal")
    _check_vec(problem, out, "dualeq")
    nxt = out.stack[1:]
    np.matmul(problem.dyn.stack[: d.N], x.stack[: d.N], out=nxt)  # E_j (x_j; u_j)
    np.subtract(x.stack[1:, : d.n_x], nxt, out=nxt)
    out.stack[0] = x.stack[0, : d.n_x]
    return out


def mul_MT(problem, lam, out):
    """Structured product with M^T (adjoint of the dynamics stencil)."""
    d = problem.dims
    _check_vec(problem, lam, "dualeq")
    _check_vec(problem, out, "primal")
    head = out.stack[: d.N]
    np.matmul(problem.dyn.stack[: d.N].transpose(0, 2, 1), lam.stack[1:], out=head)
    np.negative(head, out=head)  # -E_j^T lam_{j+1}
    out.stack[d.N] = 0.0
    out.stack[:, : d.n_x] += lam.stack
    return out


def mul_G(problem, x, out):
    """Structured product with the block-diagonal constraint matrix G."""
    _check_vec(problem, x, "primal")
    _check_vec(problem, out, "dualineq")
    diag = problem.diagonal
    if diag is None:
        np.matmul(problem.con.stack, x.stack, out=out.stack)
    else:
        # every index is in range; mode "clip" writes into out unbuffered
        np.take(x.data, diag.col.ravel(), out=out.data, mode="clip")
        out.data *= diag.coef.ravel()
        out.data += 0.0  # -0 to +0, the zero the matmul gives
    return out


def mul_GT(problem, z, out):
    """Structured product with G^T; on a diagonal problem a scatter-add, as
    several rows may touch one variable."""
    _check_vec(problem, z, "dualineq")
    _check_vec(problem, out, "primal")
    diag = problem.diagonal
    if diag is None:
        np.matmul(problem.con.stack.transpose(0, 2, 1), z.stack, out=out.stack)
    else:
        out.data.fill(0.0)
        np.add.at(out.data, diag.col.ravel(), diag.coef.ravel() * z.data)
    return out


def _check_vec(problem, v, kind):
    rows = problem._layout[kind][0]
    if v.rows != rows or v.cols != 1:
        raise ValueError(f"vector batch must be {rows}x1 per stage, got {v.rows}x{v.cols}")
    if v.nstages != problem.cost.nstages:
        raise ValueError("vector batch does not match the problem's stage count")


# ---------------------------------------------------------------------------
# problem files: binary container and JSON variant
#
# The binary file is the magic bytes, the little-endian u64 header N, n_x,
# n_u, n_y, n_yN, then every family in the order of ``_views`` and x_init:
# stage by stage, each stage matrix in column-major order.


def _file_order(arr, name):
    """``arr`` with the axes of each stage matrix reversed, so that C order
    walks it as the binary file stores it."""
    lead = 0 if name.endswith("_N") else 1
    return arr.transpose(*range(lead), *reversed(range(lead, arr.ndim)))


def save_problem(problem, path, fmt="binary"):
    """Write a problem file; ``fmt`` is 'binary' or 'json'."""
    data = problem.families()
    d = problem.dims
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<5Q", *(getattr(d, k) for k in _DIMS)))
            for name, arr in data.items():
                fh.write(_file_order(arr, name).tobytes())
    elif fmt == "json":
        doc = {k: getattr(d, k) for k in _DIMS}
        doc.update((name, arr.tolist()) for name, arr in data.items())
        with open(path, "w") as fh:
            json.dump(doc, fh)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_problem(path):
    """Read a problem file (binary or JSON, detected by the magic bytes).

    A binary file whose length differs from the one its header implies, and
    a JSON file with a missing, non-integer dimension or misshapen family,
    raise ValueError naming the file (and the field).
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        body = fh.read()
    binary = head == _MAGIC
    if binary:
        if len(body) < 40:
            raise ValueError(f"{path}: header has {len(body)} of 40 bytes")
        dims = OcpDims(*(int(v) for v in struct.unpack("<5Q", body[:40])))
    else:
        doc = json.loads((head + body).decode("utf-8"))

        def field(name):
            if name not in doc:
                raise ValueError(f"{path}: no field {name!r}")
            return doc[name]

        counts = [field(k) for k in _DIMS]
        try:
            dims = OcpDims(*counts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    # shapes from views of zero-stride stacks: nothing is allocated before
    # the length check, whatever dims the header claims
    blank = {name: np.broadcast_to(0.0, shape) for name, shape in _stack_shapes(dims).items()}
    shapes = {name: view.shape for name, view in _views(blank, dims).items()}
    shapes["x_init"] = (dims.n_x,)
    data = {}
    if binary:
        size = 40 + 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(body) != size:
            raise ValueError(f"{path}: body has {len(body)} bytes, its header implies {size}")
        offset = 40
        for name, shape in shapes.items():
            arr = np.empty(shape)
            dst = _file_order(arr, name)
            dst[...] = np.frombuffer(body, "<f8", dst.size, offset).reshape(dst.shape)
            offset += 8 * dst.size
            data[name] = arr
    else:
        for name, shape in shapes.items():
            value = field(name)
            try:
                arr = np.array(value, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"{path}: field {name!r} is not an array of numbers") from None
            # nested empty lists lose the trailing axes of an empty family
            if arr.shape != shape and not arr.size == 0 == math.prod(shape):
                raise ValueError(f"{path}: field {name!r} has shape {arr.shape}, not {shape}")
            data[name] = arr.reshape(shape)
    return OcpProblem.from_stages(**data)
