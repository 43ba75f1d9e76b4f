import json

import numpy as np
import pytest

from ocpqp import model, oracles
from ocpqp.alm import Solver, SolverSettings
from ocpqp.compact import CompactBatch
from ocpqp.model import OcpDims, OcpProblem, load_problem, pad_horizon, save_problem, validate


def random_problem(rng, N=4, n_x=3, n_u=2, n_y=2, n_yN=1, infinite=False):
    def spd(n, scale=1.0):
        a = rng.standard_normal((n, n))
        return a @ a.T / n + scale * np.eye(n)

    Q = np.stack([spd(n_x, 0.5) for _ in range(N)])
    R = np.stack([spd(n_u, 1.0) for _ in range(N)])
    S = 0.2 * rng.standard_normal((N, n_u, n_x))
    # R >= I, so Q >= (0.5 + |S|^2) I keeps the Schur complement
    # Q - S'R^{-1}S >= 0.5 I: every stage cost is positive definite
    Q += np.linalg.norm(S, 2, axis=(1, 2))[:, None, None] ** 2 * np.eye(n_x)
    A = rng.standard_normal((N, n_x, n_x)) * 0.4
    B = rng.standard_normal((N, n_x, n_u))
    c = 0.3 * rng.standard_normal((N, n_x))
    q = rng.standard_normal((N, n_x))
    r = rng.standard_normal((N, n_u))
    C = rng.standard_normal((N, n_y, n_x))
    D = rng.standard_normal((N, n_y, n_u))
    if infinite:
        bl = np.full((N, n_y), -np.inf)
        bu = np.full((N, n_y), np.inf)
        bl_N = np.full(n_yN, -np.inf)
        bu_N = np.full(n_yN, np.inf)
    else:
        mid = rng.standard_normal((N, n_y))
        bl = mid - 1.0
        bu = mid + 1.0
        midN = rng.standard_normal(n_yN)
        bl_N, bu_N = midN - 1.0, midN + 1.0
    return OcpProblem.from_stages(
        Q=Q, S=S, R=R, q=q, r=r, A=A, B=B, c=c, C=C, D=D, bl=bl, bu=bu,
        Q_N=spd(n_x, 0.5), q_N=rng.standard_normal(n_x),
        C_N=rng.standard_normal((n_yN, n_x)), bl_N=bl_N, bu_N=bu_N,
        x_init=rng.standard_normal(n_x),
    )


class TestDims:
    def test_counts(self):
        d = OcpDims(N=15, n_x=140, n_u=69, n_y=209, n_yN=140)
        assert d.n == 15 * (140 + 69) + 140 == 3275
        assert d.p == 16 * 140
        assert d.m == 15 * 209 + 140

    def test_invalid(self):
        with pytest.raises(ValueError):
            OcpDims(N=0, n_x=1, n_u=1)
        with pytest.raises(ValueError):
            OcpDims(N=1, n_x=1, n_u=0)

    @pytest.mark.parametrize("counts", [(2.5, 2, 1), (2, "2", 1), (True, 2, 1), (2, 2, 1, 1.0)])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="must be an integer"):
            OcpDims(*counts)

    def test_one_slot_per_stage(self):
        # every stage family and every vector holds exactly N + 1 stages
        rng = np.random.default_rng(8)
        for N in (1, 4, 6):
            p = random_problem(rng, N=N)
            for name in ("cost", "lin", "dyn", "affine", "con", "bl", "bu"):
                assert getattr(p, name).stack.shape[0] == N + 1
            for vec in (p.zeros("primal"), p.zeros("dualeq"), p.zeros("dualineq")):
                assert vec.nstages == N + 1


class TestValidate:
    def test_well_formed_passes(self):
        rng = np.random.default_rng(0)
        assert validate(random_problem(rng)).ok

    def test_singular_r_fails(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, N=2, n_u=2)
        blk = p.cost.stack[0].copy()
        blk[p.dims.n_x :, p.dims.n_x :] = 0.0
        p.cost.stack[0] = blk
        rep = validate(p)
        assert not rep.ok
        assert any("R_0 not positive definite" in s for s in rep.issues)

    def test_two_bad_stages_both_reported(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, N=5, n_u=2)
        for j in (1, 3):
            blk = p.cost.stack[j].copy()
            blk[p.dims.n_x :, p.dims.n_x :] = -np.eye(2)
            p.cost.stack[j] = blk
        rep = validate(p)
        assert rep.issues == ["R_1 not positive definite", "R_3 not positive definite"]

    def test_bound_crossing_fails(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, N=3)
        lo = p.bl.stack[2].copy()
        lo[0, 0] = 1.0
        p.bl.stack[2] = lo
        hi = p.bu.stack[2].copy()
        hi[0, 0] = 0.0
        p.bu.stack[2] = hi
        rep = validate(p)
        assert not rep.ok
        assert any("bound crossing at stage 2, row 0" in s for s in rep.issues)


    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("name", ("cost", "lin", "dyn", "affine", "con"))
    def test_non_finite_entry_reported(self, name, value):
        rng = np.random.default_rng(9)
        p = random_problem(rng, N=3)
        stack = getattr(p, name).stack
        stack[1, -1, -1] = value
        rep = validate(p)
        assert f"non-finite entries in {name} data" in rep.issues

    def test_huge_finite_entries_pass(self):
        # their squares overflow, which alone reports nothing
        rng = np.random.default_rng(11)
        p = random_problem(rng, N=3)
        p.lin.stack[1, 0, 0] = 1e200
        p.con.stack[1, 0, 0] = -1e300
        assert validate(p).ok

    def test_no_inequality_rows_pass(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, N=3, n_y=0, n_yN=0)
        assert p.con.data.size == 0
        assert validate(p).ok


class TestAccessorsAndPadding:
    def test_terminal_padding_layout(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, N=4)
        dm = p.dims
        # terminal embedded with S = 0, R = I, D = 0
        blk = p.cost.stack[dm.N].copy()
        assert np.array_equal(blk[dm.n_x :, : dm.n_x], np.zeros((dm.n_u, dm.n_x)))
        assert np.array_equal(blk[dm.n_x :, dm.n_x :], np.eye(dm.n_u))
        assert np.array_equal(p.dyn.stack[dm.N].copy(), np.zeros((dm.n_x, dm.n_xu)))

    def test_symmetrization(self):
        rng = np.random.default_rng(4)
        n_x, n_u, N = 3, 2, 2
        Q = rng.standard_normal((N, n_x, n_x))  # deliberately asymmetric
        p = OcpProblem.from_stages(
            Q=Q, S=np.zeros((N, n_u, n_x)), R=np.eye(n_u), q=np.zeros((N, n_x)),
            r=np.zeros((N, n_u)), A=np.eye(n_x), B=np.zeros((N, n_x, n_u)),
            c=np.zeros((N, n_x)), C=np.zeros((N, 0, n_x)), D=np.zeros((N, 0, n_u)),
            bl=np.zeros((N, 0)), bu=np.zeros((N, 0)), Q_N=np.eye(n_x),
            q_N=np.zeros(n_x), C_N=np.zeros((0, n_x)), bl_N=np.zeros(0),
            bu_N=np.zeros(0), x_init=np.zeros(n_x),
        )
        for j in range(N):
            assert np.allclose(p.families()["Q"][j], 0.5 * (Q[j] + Q[j].T))

    def test_pad_horizon_roundtrip(self):
        # a rebuild from the stage families is a bit-identical, detached copy
        rng = np.random.default_rng(5)
        p1 = random_problem(rng, N=4)
        p2 = pad_horizon(p1)
        assert p2.dims == p1.dims
        for name in ("cost", "lin", "dyn", "affine", "con", "bl", "bu"):
            a, b = getattr(p1, name), getattr(p2, name)
            assert np.array_equal(a.stack, b.stack)
            assert not np.shares_memory(a.stack, b.stack)
        assert np.array_equal(p1.x_init, p2.x_init)


# (family, value) pairs of the wrong shape for a problem with
# OcpDims(4, 2, 1, 3, 2); numpy would broadcast the first four into the
# family's place in the stage stacks
MISSHAPEN = [
    ("bl", np.full((4, 1), -5.0)),
    ("bl", -5.0),
    ("q", np.zeros((4, 1))),
    ("bl_N", -5.0),
    ("bu_N", np.full(3, 5.0)),
    ("q_N", np.zeros((1, 2))),
]


class TestFamilyShapes:
    @pytest.mark.parametrize("name,value", MISSHAPEN, ids=lambda v: str(getattr(v, "shape", v)))
    def test_from_stages_names_the_family(self, name, value):
        from ocpqp.bench import gen_random_ocp

        families = {k: v.copy() for k, v in gen_random_ocp(OcpDims(4, 2, 1, 3, 2)).families().items()}
        families[name] = value
        with pytest.raises(ValueError, match=f"^{name}: expected shape"):
            OcpProblem.from_stages(**families)

    def test_one_stage_reused(self):
        # a per-stage family also takes one stage's matrix for every stage
        from ocpqp.bench import gen_random_ocp

        families = {k: v.copy() for k, v in gen_random_ocp(OcpDims(4, 2, 1, 3, 2)).families().items()}
        families["bl"] = np.full(3, -5.0)
        p = OcpProblem.from_stages(**families)
        assert np.array_equal(p.families()["bl"], np.full((4, 3), -5.0))


class TestLayout:
    """Where each family sits in the stage stacks, written out here by hand.

    ``from_stages``, ``families()``, the problem files and the oracles all go
    through the one table in ``model._views``; this test does not, so a
    wrong entry there cannot pass unseen through both a build and its check.
    """

    NAMES = ("Q", "S", "R", "q", "r", "A", "B", "c", "C", "D", "bl", "bu",
             "Q_N", "q_N", "C_N", "bl_N", "bu_N")

    @pytest.mark.parametrize("n_y, n_yN", ((2, 3), (3, 1)), ids=("terminal_wider", "stage_wider"))
    def test_every_entry_at_its_offset(self, n_y, n_yN):
        N, n_x, n_u = 3, 3, 2
        n_xu, n_y_pad = n_x + n_u, max(n_y, n_yN)
        # (rows, cols) of one stage; cols == 1 marks a vector (n_x, n_u > 1)
        shapes = {
            "Q": (n_x, n_x), "S": (n_u, n_x), "R": (n_u, n_u), "q": (n_x, 1), "r": (n_u, 1),
            "A": (n_x, n_x), "B": (n_x, n_u), "c": (n_x, 1), "C": (n_y, n_x), "D": (n_y, n_u),
            "bl": (n_y, 1), "bu": (n_y, 1), "Q_N": (n_x, n_x), "q_N": (n_x, 1),
            "C_N": (n_yN, n_x), "bl_N": (n_yN, 1), "bu_N": (n_yN, 1),
        }

        def block(name, j):
            # 1000 family + 100 stage + 10 row + col, mirrored for Q and Q_N
            i, col = np.indices(shapes[name])
            if name in ("Q", "Q_N"):
                i, col = np.minimum(i, col), np.maximum(i, col)
            return 1000.0 * self.NAMES.index(name) + 100 * j + 10 * i + col

        def given(name):
            if name.endswith("_N"):
                arr = block(name, N)
            else:
                arr = np.stack([block(name, j) for j in range(N)])
            return arr[..., 0] if shapes[name][1] == 1 else arr

        args = {name: given(name) for name in self.NAMES}
        p = OcpProblem.from_stages(**args, x_init=np.arange(n_x, dtype=float))
        for batch, rows, cols in ((p.cost, n_xu, n_xu), (p.lin, n_xu, 1), (p.dyn, n_x, n_xu),
                                  (p.affine, n_x, 1), (p.con, n_y_pad, n_xu),
                                  (p.bl, n_y_pad, 1), (p.bu, n_y_pad, 1)):
            assert (batch.nstages, batch.rows, batch.cols) == (N + 1, rows, cols)

        def at(batch, j, r0, c0, want):
            # element (i, l) of stage j sits at (j * rows + i) * cols + l of data
            for i, l in np.ndindex(want.shape):
                off = (j * batch.rows + r0 + i) * batch.cols + c0 + l
                assert batch.data[off] == want[i, l], (j, r0 + i, c0 + l)

        for j in range(N):
            at(p.cost, j, 0, 0, block("Q", j))
            at(p.cost, j, 0, n_x, block("S", j).T)
            at(p.cost, j, n_x, 0, block("S", j))
            at(p.cost, j, n_x, n_x, block("R", j))
            at(p.lin, j, 0, 0, block("q", j))
            at(p.lin, j, n_x, 0, block("r", j))
            at(p.dyn, j, 0, 0, block("A", j))
            at(p.dyn, j, 0, n_x, block("B", j))
            at(p.affine, j, 0, 0, block("c", j))
            at(p.con, j, 0, 0, block("C", j))
            at(p.con, j, 0, n_x, block("D", j))
            at(p.con, j, n_y, 0, np.zeros((n_y_pad - n_y, n_xu)))
            at(p.bl, j, 0, 0, block("bl", j))
            at(p.bu, j, 0, 0, block("bu", j))
            at(p.bl, j, n_y, 0, np.full((n_y_pad - n_y, 1), -np.inf))
            at(p.bu, j, n_y, 0, np.full((n_y_pad - n_y, 1), np.inf))
        # terminal stage: S = 0, R = I, D = 0, no dynamics
        at(p.cost, N, 0, 0, block("Q_N", N))
        at(p.cost, N, 0, n_x, np.zeros((n_x, n_u)))
        at(p.cost, N, n_x, 0, np.zeros((n_u, n_x)))
        at(p.cost, N, n_x, n_x, np.eye(n_u))
        at(p.lin, N, 0, 0, block("q_N", N))
        at(p.lin, N, n_x, 0, np.zeros((n_u, 1)))
        at(p.dyn, N, 0, 0, np.zeros((n_x, n_xu)))
        at(p.affine, N, 0, 0, np.zeros((n_x, 1)))
        at(p.con, N, 0, 0, block("C_N", N))
        at(p.con, N, 0, n_x, np.zeros((n_yN, n_u)))
        at(p.con, N, n_yN, 0, np.zeros((n_y_pad - n_yN, n_xu)))
        at(p.bl, N, 0, 0, block("bl_N", N))
        at(p.bu, N, 0, 0, block("bu_N", N))
        at(p.bl, N, n_yN, 0, np.full((n_y_pad - n_yN, 1), -np.inf))
        at(p.bu, N, n_yN, 0, np.full((n_y_pad - n_yN, 1), np.inf))
        # and the read side gives back exactly what went in
        fam = p.families()
        for name in self.NAMES:
            assert np.array_equal(fam[name], args[name]), name

    def test_families_are_read_only_views(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, N=3)
        fam = p.families()
        assert all(not view.flags.writeable for view in fam.values())
        with pytest.raises(ValueError):
            fam["A"][0, 0, 0] = 1.0
        # views, not copies: a write to the problem shows through
        p.dyn.stack[0, 0, 0] = 7.0
        p.x_init[0] = 8.0
        assert fam["A"][0, 0, 0] == 7.0 and fam["x_init"][0] == 8.0
        assert p.x_init.flags.writeable


EDGE_SHAPES = pytest.mark.parametrize(
    "N, n_y, n_yN",
    ((4, 0, 2), (4, 2, 0), (1, 2, 1), (4, 3, 1), (4, 1, 3)),
    ids=("no_stage_rows", "no_terminal_rows", "single_stage", "stage_wider", "terminal_wider"),
)


class TestVectorLayout:
    """The flat vectors against their stage slots, with the kept rows of
    stages 0..N-1 and of stage N written out here by hand, so a wrong entry
    in the layout table cannot pass unseen through both conversions."""

    @staticmethod
    def layouts(d):
        # kind: (rows kept for stages 0..N-1, for stage N, flat length, name)
        return {
            "primal": (d.n_x + d.n_u, d.n_x, d.n, "primal vector"),
            "dualeq": (d.n_x, d.n_x, d.p, "equality dual"),
            "dualineq": (d.n_y, d.n_yN, d.m, "inequality dual"),
        }

    @EDGE_SHAPES
    def test_round_trip_keeps_padding_zero(self, N, n_y, n_yN):
        rng = np.random.default_rng(N + 10 * n_y + 100 * n_yN)
        p = random_problem(rng, N=N, n_y=n_y, n_yN=n_yN)
        for kind, (rows, rows_N, length, _) in self.layouts(p.dims).items():
            flat = rng.uniform(1.0, 2.0, length)  # no zero among the values
            v = p.from_flat(kind, flat)
            st = v.stack[:, :, 0]
            assert np.array_equal(st[:N, :rows].ravel(), flat[: N * rows])
            assert np.array_equal(st[N, :rows_N], flat[N * rows :])
            # padded rows and the terminal input slot hold exact zeros
            assert not st[:N, rows:].any() and not st[N, rows_N:].any()
            back = p.to_flat(kind, v)
            assert np.array_equal(back, flat)
            assert not np.shares_memory(back, v.data)  # a new array for every kind
            assert p.zeros(kind).rows == v.rows and not p.zeros(kind).data.any()

    @EDGE_SHAPES
    def test_wrong_length_names_the_vector(self, N, n_y, n_yN):
        rng = np.random.default_rng(3)
        p = random_problem(rng, N=N, n_y=n_y, n_yN=n_yN)
        for kind, (_, _, length, name) in self.layouts(p.dims).items():
            for size in (length - 1, length + 1):
                with pytest.raises(ValueError, match=f"^{name} must have length {length}, got"):
                    p.from_flat(kind, np.zeros(size))

    @EDGE_SHAPES
    def test_wrong_warm_start_length_names_the_vector(self, N, n_y, n_yN):
        rng = np.random.default_rng(4)
        p = random_problem(rng, N=N, n_y=n_y, n_yN=n_yN)
        d = p.dims
        right = [np.zeros(d.n), np.zeros(d.m), np.zeros(d.p)]  # (x, y, lam)
        names = ("primal vector", "inequality dual", "equality dual")
        with Solver(p, SolverSettings()) as solver:
            for i, (name, length) in enumerate(zip(names, (d.n, d.m, d.p))):
                warm = list(right)
                warm[i] = np.zeros(length + 1)
                with pytest.raises(ValueError, match=f"^{name} must have length {length}, got"):
                    solver.solve(warm_start=tuple(warm))


class TestProducts:
    def test_rollout_satisfies_dynamics(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, N=5, n_x=3, n_u=2)
        dm = p.dims
        f = p.families()
        x = p.x_init
        flat = []
        for j in range(dm.N):
            u = rng.standard_normal(dm.n_u)
            flat.extend([x, u])
            x = f["A"][j] @ x + f["B"][j] @ u + f["c"][j]
        flat.append(x)
        xb = p.from_flat("primal", np.concatenate(flat))
        mx = p.to_flat("dualeq", model.mul_M(p, xb, out=p.zeros("dualeq")))
        b = p.to_flat("dualeq", p.b_dualeq())
        assert np.max(np.abs(mx - b)) < 1e-13 * (1 + np.max(np.abs(b)))

    def test_identity_dynamics_ones(self):
        rng = np.random.default_rng(7)
        N, n_x, n_u = 4, 3, 2
        p = OcpProblem.from_stages(
            Q=np.eye(n_x), S=np.zeros((N, n_u, n_x)), R=np.eye(n_u),
            q=np.zeros((N, n_x)), r=np.zeros((N, n_u)), A=np.eye(n_x),
            B=np.zeros((N, n_x, n_u)), c=np.zeros((N, n_x)),
            C=np.zeros((N, 0, n_x)), D=np.zeros((N, 0, n_u)),
            bl=np.zeros((N, 0)), bu=np.zeros((N, 0)), Q_N=np.eye(n_x),
            q_N=np.zeros(n_x), C_N=np.zeros((0, n_x)), bl_N=np.zeros(0),
            bu_N=np.zeros(0), x_init=np.ones(n_x),
        )
        xb = p.from_flat("primal", np.ones(p.dims.n))
        mx = p.to_flat("dualeq", model.mul_M(p, xb, out=p.zeros("dualeq"))).reshape(N + 1, n_x)
        assert np.array_equal(mx[0], np.ones(n_x))
        assert np.array_equal(mx[1:], np.zeros((N, n_x)))

    @pytest.mark.parametrize("seed", (20, 21, 22))
    def test_dense_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(5):
            p = random_problem(rng, N=int(rng.integers(1, 8)), n_x=int(rng.integers(1, 6)),
                               n_u=int(rng.integers(1, 4)), n_y=int(rng.integers(0, 4)),
                               n_yN=int(rng.integers(0, 3)))
            dq = oracles.assemble_dense(p)
            x = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            z = rng.standard_normal(p.dims.m)
            xb = p.from_flat("primal", x)
            lb = p.from_flat("dualeq", lam)
            zb = p.from_flat("dualineq", z)

            def close(a, b):
                if b.size == 0:
                    return a.size == 0
                return np.max(np.abs(a - b)) <= 1e-13 * (1 + np.max(np.abs(b)))

            assert close(p.to_flat("primal", model.mul_Q(p, xb, out=p.zeros("primal"))), dq.Q @ x)
            assert close(p.to_flat("dualeq", model.mul_M(p, xb, out=p.zeros("dualeq"))), dq.M @ x)
            assert close(
                p.to_flat("primal", model.mul_MT(p, lb, out=p.zeros("primal"))), dq.M.T @ lam
            )
            assert close(
                p.to_flat("dualineq", model.mul_G(p, xb, out=p.zeros("dualineq"))), dq.G @ x
            )
            assert close(
                p.to_flat("primal", model.mul_GT(p, zb, out=p.zeros("primal"))), dq.G.T @ z
            )

    @pytest.mark.parametrize(
        "N, n_y, n_yN",
        ((5, 0, 2), (5, 2, 0), (1, 2, 1), (3, 0, 0), (40, 2, 1)),
        ids=("no_stage_rows", "no_terminal_rows", "single_stage", "no_rows", "long_horizon"),
    )
    def test_edge_dims_against_dense(self, N, n_y, n_yN):
        rng = np.random.default_rng(40 + N + 3 * n_y)
        p = random_problem(rng, N=N, n_x=3, n_u=2, n_y=n_y, n_yN=n_yN)
        assert p.cost.nstages == N + 1
        dq = oracles.assemble_dense(p)
        x = rng.standard_normal(p.dims.n)
        lam = rng.standard_normal(p.dims.p)
        z = rng.standard_normal(p.dims.m)
        xb, lb = p.from_flat("primal", x), p.from_flat("dualeq", lam)
        zb = p.from_flat("dualineq", z)
        for got, want in (
            (p.to_flat("primal", model.mul_Q(p, xb, out=p.zeros("primal"))), dq.Q @ x),
            (p.to_flat("dualeq", model.mul_M(p, xb, out=p.zeros("dualeq"))), dq.M @ x),
            (p.to_flat("primal", model.mul_MT(p, lb, out=p.zeros("primal"))), dq.M.T @ lam),
            (p.to_flat("dualineq", model.mul_G(p, xb, out=p.zeros("dualineq"))), dq.G @ x),
            (p.to_flat("primal", model.mul_GT(p, zb, out=p.zeros("primal"))), dq.G.T @ z),
        ):
            assert got.shape == want.shape
            if want.size:
                assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))

    def test_adjoint_identities(self):
        rng = np.random.default_rng(30)
        p = random_problem(rng, N=6, n_x=4, n_u=2, n_y=3, n_yN=2)
        for _ in range(10):
            x = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            z = rng.standard_normal(p.dims.m)
            xb = p.from_flat("primal", x)
            mx = p.to_flat("dualeq", model.mul_M(p, xb, out=p.zeros("dualeq")))
            lb = p.from_flat("dualeq", lam)
            mtl = p.to_flat("primal", model.mul_MT(p, lb, out=p.zeros("primal")))
            lhs, rhs = mx @ lam, x @ mtl
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))
            gx = p.to_flat("dualineq", model.mul_G(p, xb, out=p.zeros("dualineq")))
            zb = p.from_flat("dualineq", z)
            gtz = p.to_flat("primal", model.mul_GT(p, zb, out=p.zeros("primal")))
            lhs, rhs = gx @ z, x @ gtz
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))

    def test_zero_dual_maps_to_zero(self):
        rng = np.random.default_rng(31)
        p = random_problem(rng, N=3)
        z = p.zeros("dualineq")
        out = model.mul_GT(p, z, out=p.zeros("primal"))
        assert np.all(out.data == 0.0)

    def test_out_argument_is_overwritten(self):
        # a reused output batch holding garbage gives the same product as a
        # fresh one
        rng = np.random.default_rng(34)
        p = random_problem(rng, N=5, n_x=3, n_u=2, n_y=2, n_yN=1)
        xb = p.from_flat("primal", rng.standard_normal(p.dims.n))
        lb = p.from_flat("dualeq", rng.standard_normal(p.dims.p))
        zb = p.from_flat("dualineq", rng.standard_normal(p.dims.m))
        for fn, arg, kind in (
            (model.mul_Q, xb, "primal"), (model.mul_M, xb, "dualeq"),
            (model.mul_MT, lb, "primal"), (model.mul_G, xb, "dualineq"),
            (model.mul_GT, zb, "primal"),
        ):
            fresh = fn(p, arg, out=p.zeros(kind))
            out = p.zeros(kind)
            out.data[:] = np.nan
            assert fn(p, arg, out=out) is out
            assert np.array_equal(out.data, fresh.data)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(33)
        p = random_problem(rng, N=3)
        bad = p.zeros("dualeq")
        with pytest.raises(ValueError):
            model.mul_Q(p, bad, out=p.zeros("primal"))


def box_problem(rng, N, n_x, n_u, rows, rows_N):
    """A diagonal problem: random diagonal Q, R and Q_N, S = 0, and a box
    row with a random nonzero coefficient on the variable of each entry of
    ``rows`` (stage variables) and ``rows_N`` (terminal states); a variable
    may appear in several rows."""
    n_xu = n_x + n_u
    G = np.zeros((len(rows), n_xu))
    G[np.arange(len(rows)), rows] = rng.uniform(0.5, 2.0, len(rows)) * rng.choice([-1.0, 1.0], len(rows))
    C_N = np.zeros((len(rows_N), n_x))
    C_N[np.arange(len(rows_N)), rows_N] = rng.uniform(0.5, 2.0, len(rows_N))
    return OcpProblem.from_stages(
        Q=np.stack([np.diag(v) for v in rng.uniform(0.5, 2.0, (N, n_x))]),
        S=np.zeros((N, n_u, n_x)),
        R=np.stack([np.diag(v) for v in rng.uniform(0.5, 2.0, (N, n_u))]),
        q=rng.standard_normal((N, n_x)), r=rng.standard_normal((N, n_u)),
        A=rng.standard_normal((N, n_x, n_x)), B=rng.standard_normal((N, n_x, n_u)),
        c=rng.standard_normal((N, n_x)), C=G[:, :n_x], D=G[:, n_x:],
        bl=np.full((N, len(rows)), -1.0), bu=np.full((N, len(rows)), 1.0),
        Q_N=np.diag(rng.uniform(0.5, 2.0, n_x)), q_N=rng.standard_normal(n_x), C_N=C_N,
        bl_N=np.full(len(rows_N), -1.0), bu_N=np.full(len(rows_N), 1.0),
        x_init=rng.standard_normal(n_x),
    )


def matmul_products(p, xb, zb):
    """Q x, G x and G' z as dense per-stage matmuls over the stage blocks."""
    return (
        np.matmul(p.cost.stack, xb.stack),
        np.matmul(p.con.stack, xb.stack),
        np.matmul(p.con.stack.transpose(0, 2, 1), zb.stack),
    )


def structured_products(p, xb, zb):
    return (
        model.mul_Q(p, xb, out=p.zeros("primal")).stack,
        model.mul_G(p, xb, out=p.zeros("dualineq")).stack,
        model.mul_GT(p, zb, out=p.zeros("primal")).stack,
    )


def random_vectors(rng, p):
    """Random x and z, some entries -0 and +0."""
    xb, zb = p.zeros("primal"), p.zeros("dualineq")
    for v in (xb, zb):
        v.data[:] = rng.standard_normal(v.data.size)
        v.data[::5] = -0.0
        v.data[1::7] = 0.0
    return xb, zb


class TestDiagonalProducts:
    """On a diagonal problem mul_Q, mul_G and mul_GT are elementwise over
    the problem's DiagonalStructure; they must give the dense per-stage
    matmul over the stage blocks."""

    # (N, stage rows, terminal rows) on n_x = 3, n_u = 2: one row per
    # variable, no stage rows, n_yN above and below n_y, a single stage
    ONE_ROW_PER_VARIABLE = {
        "every_variable": (6, [0, 1, 2, 3, 4], [0, 1, 2]),
        "no_stage_rows": (4, [], [2, 0]),
        "no_rows": (3, [], []),
        "terminal_rows_above": (5, [4, 1], [0, 1, 2]),
        "terminal_rows_below": (5, [3, 0, 2, 4], [1]),
        "single_stage": (1, [2, 3, 0], [1, 2]),
    }

    @pytest.mark.parametrize("case", sorted(ONE_ROW_PER_VARIABLE))
    def test_one_row_per_variable_bit_identical(self, case):
        N, rows, rows_N = self.ONE_ROW_PER_VARIABLE[case]
        rng = np.random.default_rng(60 + N + len(rows))
        p = box_problem(rng, N, 3, 2, rows, rows_N)
        assert p.is_diagonal() and p.dims.n_y_pad == max(len(rows), len(rows_N))
        for _ in range(3):
            xb, zb = random_vectors(rng, p)
            for got, want in zip(structured_products(p, xb, zb), matmul_products(p, xb, zb)):
                assert got.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("N", (1, 5))
    def test_two_rows_on_one_variable(self, N):
        # G' z sums two rows into variables 1 and 4: equal up to the order
        # of the sum
        rng = np.random.default_rng(70 + N)
        p = box_problem(rng, N, 3, 2, [1, 4, 1, 0, 4], [2, 2, 0])
        assert p.is_diagonal()
        for _ in range(3):
            xb, zb = random_vectors(rng, p)
            got, want = structured_products(p, xb, zb), matmul_products(p, xb, zb)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert np.max(np.abs(got[2] - want[2])) <= 1e-15 * np.max(np.abs(want[2]))

    def test_structure(self):
        rng = np.random.default_rng(75)
        p = box_problem(rng, 2, 2, 1, [2, 0], [1])
        diag = p.diagonal
        assert p.diagonal is diag  # derived once
        assert np.array_equal(diag.cost, np.diagonal(p.cost.stack, axis1=1, axis2=2))
        # flat primal index of each row's variable; the padded terminal row
        # points at the first variable of its stage with coefficient 0
        assert np.array_equal(diag.col, [[2, 0], [5, 3], [7, 6]])
        want = [[p.con.stack[0, 0, 2], p.con.stack[0, 1, 0]],
                [p.con.stack[1, 0, 2], p.con.stack[1, 1, 0]],
                [p.con.stack[2, 0, 1], 0.0]]
        assert np.array_equal(diag.coef, want) and np.all(diag.coef[:, 0] != 0.0)

    def test_non_diagonal_keeps_matmul(self):
        # dense S, C and D; one row on two variables; an off-diagonal Q entry
        rng = np.random.default_rng(76)
        two_vars = {k: np.array(v) for k, v in box_problem(rng, 3, 3, 2, [0, 1], [0]).families().items()}
        two_vars["D"][1, 0, 1] = 0.5
        coupled = {k: np.array(v) for k, v in box_problem(rng, 3, 3, 2, [0, 1], [0]).families().items()}
        coupled["Q"][1, 0, 2] = coupled["Q"][1, 2, 0] = 0.1
        for p in (
            random_problem(rng, N=4),
            OcpProblem.from_stages(**two_vars),
            OcpProblem.from_stages(**coupled),
        ):
            assert not p.is_diagonal() and p.diagonal is None
            xb, zb = random_vectors(rng, p)
            for got, want in zip(structured_products(p, xb, zb), matmul_products(p, xb, zb)):
                assert got.tobytes() == want.tobytes()


def doubled_rows_spring_mass():
    """Spring-mass M=3, N=5 with every constraint row stated twice: a
    diagonal problem with n_xu = 8 and n_y_pad = 16, so that a dual
    inequality batch has twice the rows of a primal one."""
    from ocpqp.bench import SpringMassConfig, gen_spring_mass

    fam = gen_spring_mass(SpringMassConfig(masses=3, horizon=5)).families()
    fam = {k: np.array(v) for k, v in fam.items()}
    for name in ("C", "D", "bl", "bu"):
        fam[name] = np.concatenate([fam[name], fam[name]], axis=1)
    for name in ("C_N", "bl_N", "bu_N"):
        fam[name] = np.concatenate([fam[name], fam[name]], axis=0)
    return OcpProblem.from_stages(**fam)


class TestProductBuffers:
    # the operand, a right ``out`` and an ``out`` of the wrong row count,
    # by the kind of vector that each is
    PRODUCTS = {
        "mul_Q": ("primal", "primal", "dualineq"),
        "mul_M": ("primal", "dualeq", "primal"),
        "mul_MT": ("dualeq", "primal", "dualineq"),
        "mul_G": ("primal", "dualineq", "primal"),
        "mul_GT": ("dualineq", "primal", "dualineq"),
    }

    @pytest.mark.parametrize("diagonal", (True, False), ids=("diagonal", "dense"))
    @pytest.mark.parametrize("flaw", ("rows", "stages"))
    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_bad_out_raises(self, name, flaw, diagonal):
        p = doubled_rows_spring_mass()
        assert (p.dims.n_xu, p.dims.n_y_pad) == (8, 16)
        if not diagonal:
            fam = {k: np.array(v) for k, v in p.families().items()}
            fam["S"][:, 0, 0] = 0.1
            p = OcpProblem.from_stages(**fam)
        assert p.is_diagonal() == diagonal
        operand, right, wrong = (p.zeros(k) for k in self.PRODUCTS[name])
        if flaw == "stages":
            wrong = CompactBatch(right.rows, 1, right.nstages + 1)
        product = getattr(model, name)
        with pytest.raises(ValueError, match="vector batch"):
            product(p, operand, out=wrong)
        assert product(p, operand, out=right) is right


class TestFiles:
    @pytest.mark.parametrize("fmt", ("binary", "json"))
    def test_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(40)
        p = random_problem(rng, N=3, n_x=2, n_u=1, n_y=2, n_yN=1)
        path = tmp_path / f"prob.{fmt}"
        save_problem(p, path, fmt=fmt)
        q = load_problem(path)
        assert q.dims == p.dims
        fp, fq = p.families(), q.families()
        for j in range(p.dims.N + 1):
            assert np.array_equal(q.cost.stack[j].copy(), p.cost.stack[j].copy())
        for lo, hi in (("bl", "bu"), ("bl_N", "bu_N")):
            assert np.array_equal(fp[lo], fq[lo]) and np.array_equal(fp[hi], fq[hi])
        assert np.array_equal(p.x_init, q.x_init)

    def test_unknown_format_raises(self, tmp_path):
        p = random_problem(np.random.default_rng(43), N=2)
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            save_problem(p, tmp_path / "prob.xml", fmt="xml")

    def test_infinite_bounds_survive(self, tmp_path):
        rng = np.random.default_rng(41)
        p = random_problem(rng, N=2, infinite=True)
        for fmt in ("binary", "json"):
            path = tmp_path / f"inf.{fmt}"
            save_problem(p, path, fmt=fmt)
            q = load_problem(path)
            lo, hi = q.families()["bl"][0], q.families()["bu"][0]
            assert np.all(np.isneginf(lo)) and np.all(np.isposinf(hi))

    @pytest.mark.parametrize("cut", ("header", "body", "extra"))
    def test_malformed_binary_raises(self, tmp_path, cut):
        # the body length must match the one the header implies
        rng = np.random.default_rng(42)
        p = random_problem(rng, N=3)
        path = tmp_path / "prob.ocpq"
        save_problem(p, path)
        raw = path.read_bytes()
        path.write_bytes({"header": raw[:25], "body": raw[:-8], "extra": raw + bytes(8)}[cut])
        with pytest.raises(ValueError):
            load_problem(path)

    @pytest.mark.parametrize("name,value,message", [
        pytest.param("n_yN", None, "no field 'n_yN'", id="n_yN"),
        pytest.param("bu_N", None, "no field 'bu_N'", id="bu_N"),
        pytest.param("N", 2.5, "N must be an integer, got 2.5", id="N-float"),
        pytest.param("n_x", "2", "n_x must be an integer, got '2'", id="n_x-string"),
        pytest.param("N", True, "N must be an integer, got True", id="N-bool"),
        pytest.param("bu_N", "longer", r"field 'bu_N' has shape \(2,\)", id="bu_N-long"),
        pytest.param("q", [[1.0, "a"]], "field 'q' is not an array of numbers", id="q-string"),
    ])
    def test_malformed_json_raises(self, tmp_path, name, value, message):
        # a missing, non-integer or misshapen field is named with the file
        rng = np.random.default_rng(43)
        path = tmp_path / "prob.json"
        save_problem(random_problem(rng, N=3), path, fmt="json")
        doc = json.loads(path.read_text())
        if value is None:
            del doc[name]
        elif value == "longer":
            doc[name].append(1.0)
        else:
            doc[name] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"prob.json: {message}"):
            load_problem(path)
