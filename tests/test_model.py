import numpy as np
import pytest

from ocpqp import model, oracles
from ocpqp.model import OcpDims, OcpProblem, load_problem, pad_horizon, save_problem, validate


def random_problem(rng, N=4, n_x=3, n_u=2, n_y=2, n_yN=1, d=1, extra_blocks=0, infinite=False):
    def spd(n, scale=1.0):
        a = rng.standard_normal((n, n))
        return a @ a.T / n + scale * np.eye(n)

    Q = np.stack([spd(n_x, 0.5) for _ in range(N)])
    R = np.stack([spd(n_u, 1.0) for _ in range(N)])
    S = 0.2 * rng.standard_normal((N, n_u, n_x))
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
        x_init=rng.standard_normal(n_x), d=d, extra_blocks=extra_blocks,
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
            OcpDims(N=1, n_x=1, n_u=1, d=3)

    def test_padding_counts(self):
        d = OcpDims(N=4, n_x=2, n_u=1, d=4)
        assert d.n_stages_padded == 8
        assert d.nblocks == 2
        d1 = OcpDims(N=4, n_x=2, n_u=1, d=1)
        assert d1.n_stages_padded == 5
        assert d1.nblocks == 5


class TestValidate:
    def test_well_formed_passes(self):
        rng = np.random.default_rng(0)
        assert validate(random_problem(rng)).ok

    def test_singular_r_fails(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, N=2, n_u=2)
        blk = p.cost.stage(0)
        blk[p.dims.n_x :, p.dims.n_x :] = 0.0
        p.cost.set_stage(0, blk)
        rep = validate(p)
        assert not rep.ok
        assert any("R_0 not positive definite" in s for s in rep.issues)

    def test_two_bad_stages_both_reported(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, N=5, n_u=2)
        for j in (1, 3):
            blk = p.cost.stage(j)
            blk[p.dims.n_x :, p.dims.n_x :] = -np.eye(2)
            p.cost.set_stage(j, blk)
        rep = validate(p)
        assert rep.issues == ["R_1 not positive definite", "R_3 not positive definite"]

    def test_bound_crossing_fails(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, N=3)
        lo = p.bl.stage(2)
        lo[0, 0] = 1.0
        p.bl.set_stage(2, lo)
        hi = p.bu.stage(2)
        hi[0, 0] = 0.0
        p.bu.set_stage(2, hi)
        rep = validate(p)
        assert not rep.ok
        assert any("bound crossing at stage 2, row 0" in s for s in rep.issues)


class TestAccessorsAndPadding:
    def test_terminal_padding_layout(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, N=4, d=4)
        dm = p.dims
        # terminal embedded with S = 0, R = I, D = 0
        blk = p.cost.stage(dm.N)
        assert np.array_equal(blk[dm.n_x :, : dm.n_x], np.zeros((dm.n_u, dm.n_x)))
        assert np.array_equal(blk[dm.n_x :, dm.n_x :], np.eye(dm.n_u))
        assert np.array_equal(p.dyn.stage(dm.N), np.zeros((dm.n_x, dm.n_xu)))
        # filler stages neutral
        for s in range(dm.N + 1, dm.n_stages_padded):
            blk = p.cost.stage(s)
            assert np.array_equal(blk[: dm.n_x, : dm.n_x], np.zeros((dm.n_x, dm.n_x)))
            assert np.array_equal(blk[dm.n_x :, dm.n_x :], np.eye(dm.n_u))
            assert np.all(np.isneginf(p.bl.stage(s)))
            assert np.all(np.isposinf(p.bu.stage(s)))

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
            assert np.allclose(p.Q(j), 0.5 * (Q[j] + Q[j].T))

    def test_pad_horizon_roundtrip(self):
        rng = np.random.default_rng(5)
        p1 = random_problem(rng, N=4, d=1)
        p4 = pad_horizon(p1, 4)
        assert p4.dims.nblocks == 2
        assert p4.cost.nstages == 8
        for j in range(p1.dims.N + 1):
            assert np.array_equal(p1.cost.stage(j), p4.cost.stage(j))
            assert np.array_equal(p1.con.stage(j), p4.con.stage(j))


class TestProducts:
    def test_rollout_satisfies_dynamics(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, N=5, n_x=3, n_u=2)
        dm = p.dims
        x = p.x_init
        flat = []
        for j in range(dm.N):
            u = rng.standard_normal(dm.n_u)
            flat.extend([x, u])
            x = p.A(j) @ x + p.B(j) @ u + p.c(j)
        flat.append(x)
        xb = p.primal_from_flat(np.concatenate(flat))
        mx = p.dualeq_to_flat(model.mul_M(p, xb))
        b = p.dualeq_to_flat(p.b_dualeq())
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
            bu_N=np.zeros(0), x_init=np.ones(n_x), d=2,
        )
        xb = p.primal_from_flat(np.ones(p.dims.n))
        mx = p.dualeq_to_flat(model.mul_M(p, xb)).reshape(N + 1, n_x)
        assert np.array_equal(mx[0], np.ones(n_x))
        assert np.array_equal(mx[1:], np.zeros((N, n_x)))

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_dense_equivalence(self, d):
        rng = np.random.default_rng(20 + d)
        for trial in range(5):
            p = random_problem(rng, N=int(rng.integers(1, 8)), n_x=int(rng.integers(1, 6)),
                               n_u=int(rng.integers(1, 4)), n_y=int(rng.integers(0, 4)),
                               n_yN=int(rng.integers(0, 3)), d=d)
            dq = oracles.assemble_dense(p)
            x = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            z = rng.standard_normal(p.dims.m)
            xb = p.primal_from_flat(x)
            lb = p.dualeq_from_flat(lam)
            zb = p.dualineq_from_flat(z)

            def close(a, b):
                if b.size == 0:
                    return a.size == 0
                return np.max(np.abs(a - b)) <= 1e-13 * (1 + np.max(np.abs(b)))

            assert close(p.primal_to_flat(model.mul_Q(p, xb)), dq.Q @ x)
            assert close(p.dualeq_to_flat(model.mul_M(p, xb)), dq.M @ x)
            assert close(p.primal_to_flat(model.mul_MT(p, lb)), dq.M.T @ lam)
            assert close(p.dualineq_to_flat(model.mul_G(p, xb)), dq.G @ x)
            assert close(p.primal_to_flat(model.mul_GT(p, zb)), dq.G.T @ z)

    @pytest.mark.parametrize(
        "N, n_y, n_yN, d",
        ((5, 0, 2, 2), (5, 2, 0, 4), (1, 2, 1, 1), (2, 3, 1, 8)),
        ids=("no_stage_rows", "no_terminal_rows", "single_stage", "horizon_below_lane"),
    )
    def test_edge_dims_against_dense(self, N, n_y, n_yN, d):
        rng = np.random.default_rng(40 + N + 3 * n_y + 7 * d)
        p = random_problem(rng, N=N, n_x=3, n_u=2, n_y=n_y, n_yN=n_yN, d=d)
        assert p.cost.nstages % d == 0 and p.cost.nstages >= N + 1
        dq = oracles.assemble_dense(p)
        x = rng.standard_normal(p.dims.n)
        lam = rng.standard_normal(p.dims.p)
        z = rng.standard_normal(p.dims.m)
        xb = p.primal_from_flat(x)
        for got, want in (
            (p.primal_to_flat(model.mul_Q(p, xb)), dq.Q @ x),
            (p.dualeq_to_flat(model.mul_M(p, xb)), dq.M @ x),
            (p.primal_to_flat(model.mul_MT(p, p.dualeq_from_flat(lam))), dq.M.T @ lam),
            (p.dualineq_to_flat(model.mul_G(p, xb)), dq.G @ x),
            (p.primal_to_flat(model.mul_GT(p, p.dualineq_from_flat(z))), dq.G.T @ z),
        ):
            assert got.shape == want.shape
            if want.size:
                assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))

    def test_adjoint_identities(self):
        rng = np.random.default_rng(30)
        p = random_problem(rng, N=6, n_x=4, n_u=2, n_y=3, n_yN=2, d=4)
        for _ in range(10):
            x = rng.standard_normal(p.dims.n)
            lam = rng.standard_normal(p.dims.p)
            z = rng.standard_normal(p.dims.m)
            xb = p.primal_from_flat(x)
            mx = p.dualeq_to_flat(model.mul_M(p, xb))
            mtl = p.primal_to_flat(model.mul_MT(p, p.dualeq_from_flat(lam)))
            lhs, rhs = mx @ lam, x @ mtl
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))
            gx = p.dualineq_to_flat(model.mul_G(p, xb))
            gtz = p.primal_to_flat(model.mul_GT(p, p.dualineq_from_flat(z)))
            lhs, rhs = gx @ z, x @ gtz
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))

    def test_zero_dual_maps_to_zero(self):
        rng = np.random.default_rng(31)
        p = random_problem(rng, N=3, d=2)
        z = p.dualineq_zeros()
        out = model.mul_GT(p, z)
        assert np.all(out.data == 0.0)

    def test_padding_neutrality_bitwise(self):
        rng = np.random.default_rng(32)
        p0 = random_problem(rng, N=5, n_x=3, n_u=2, n_y=2, n_yN=1, d=4)
        p2 = pad_horizon(p0, 4, extra_blocks=2)
        x = rng.standard_normal(p0.dims.n)
        lam = rng.standard_normal(p0.dims.p)
        for fn, arg, conv in (
            (model.mul_Q, p0.primal_from_flat(x), "primal_to_flat"),
            (model.mul_M, p0.primal_from_flat(x), "dualeq_to_flat"),
            (model.mul_MT, p0.dualeq_from_flat(lam), "primal_to_flat"),
        ):
            a = getattr(p0, conv)(fn(p0, arg))
            arg2 = (p2.primal_from_flat(x) if arg.rows == p0.dims.n_xu
                    else p2.dualeq_from_flat(lam))
            b = getattr(p2, conv)(fn(p2, arg2))
            assert np.array_equal(a, b)

    def test_out_argument_is_overwritten(self):
        # a reused output batch holding garbage, padded stages included,
        # gives the same product as a fresh one
        rng = np.random.default_rng(34)
        p = random_problem(rng, N=5, n_x=3, n_u=2, n_y=2, n_yN=1, d=4)
        xb = p.primal_from_flat(rng.standard_normal(p.dims.n))
        lb = p.dualeq_from_flat(rng.standard_normal(p.dims.p))
        zb = p.dualineq_from_flat(rng.standard_normal(p.dims.m))
        for fn, arg in (
            (model.mul_Q, xb), (model.mul_M, xb), (model.mul_MT, lb),
            (model.mul_G, xb), (model.mul_GT, zb),
        ):
            fresh = fn(p, arg)
            out = fresh.zeros_like()
            out.data[:] = np.nan
            assert fn(p, arg, out=out) is out
            assert np.array_equal(out.data, fresh.data)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(33)
        p = random_problem(rng, N=3)
        bad = p.dualeq_zeros()
        with pytest.raises(ValueError):
            model.mul_Q(p, bad)


class TestFiles:
    @pytest.mark.parametrize("fmt", ("binary", "json"))
    def test_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(40)
        p = random_problem(rng, N=3, n_x=2, n_u=1, n_y=2, n_yN=1)
        path = tmp_path / f"prob.{fmt}"
        save_problem(p, path, fmt=fmt)
        q = load_problem(path, d=2)
        assert q.dims.N == p.dims.N and q.dims.m == p.dims.m
        for j in range(p.dims.N + 1):
            assert np.allclose(q.cost.stage(j), pad_horizon(p, 2).cost.stage(j), atol=0)
            lo_p, hi_p = p.bounds(j)
            lo_q, hi_q = q.bounds(j)
            assert np.array_equal(lo_p, lo_q) and np.array_equal(hi_p, hi_q)
        assert np.array_equal(p.x_init, q.x_init)

    def test_infinite_bounds_survive(self, tmp_path):
        rng = np.random.default_rng(41)
        p = random_problem(rng, N=2, infinite=True)
        for fmt in ("binary", "json"):
            path = tmp_path / f"inf.{fmt}"
            save_problem(p, path, fmt=fmt)
            q = load_problem(path)
            lo, hi = q.bounds(0)
            assert np.all(np.isneginf(lo)) and np.all(np.isposinf(hi))
