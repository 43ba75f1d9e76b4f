import numpy as np
import pytest

from ocpqp.compact import CompactBatch, pack, unpack


def random_batch(rng, rows, cols, nstages, d, total=None):
    mats = [rng.standard_normal((rows, cols)) for _ in range(nstages)]
    return pack(mats, d, total_stages=total), mats


class TestLayout:
    def test_flat_index_formula(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 4):
            rows, cols, nstages = 3, 2, 5
            batch, mats = random_batch(rng, rows, cols, nstages, d)
            for j in range(nstages):
                for i in range(rows):
                    for l in range(cols):
                        flat = (j * rows + i) * cols + l
                        assert batch.data[flat] == mats[j][i, l]

    def test_reference_interleaving(self):
        # N = 4 stages of 4x4 matrices at lane width 2: each stage is one
        # contiguous row-major 16-element run, stage 1 follows stage 0, and
        # the lane width does not change the order.
        rng = np.random.default_rng(1)
        batch, mats = random_batch(rng, 4, 4, 4, 2)
        assert batch.data[0] == mats[0][0, 0]
        assert batch.data[1] == mats[0][0, 1]
        assert batch.data[4] == mats[0][1, 0]
        assert batch.data[16] == mats[1][0, 0]
        assert batch.data[2 * 16] == mats[2][0, 0]
        assert np.shares_memory(batch.stack, batch.data)
        assert batch.stack.flags.c_contiguous

    def test_d1_is_naive_order(self):
        rng = np.random.default_rng(2)
        batch, mats = random_batch(rng, 3, 3, 4, 1)
        expected = np.concatenate([m.ravel() for m in mats])
        assert np.array_equal(batch.data, expected)

    def test_roundtrip_bit_exact_with_zero_tail(self):
        rng = np.random.default_rng(3)
        batch, mats = random_batch(rng, 3, 2, 5, 4)
        out = unpack(batch, 5)
        for got, want in zip(out, mats):
            assert np.array_equal(got, want)
        # slots 5..7 of block 1 hold exact zeros
        assert batch.stack.shape == (8, 3, 2)
        assert np.all(batch.stack[5:] == 0.0)

    def test_pack_shape_mismatch(self):
        with pytest.raises(ValueError):
            pack([np.zeros((2, 2)), np.zeros((3, 2))], 2)

    def test_stack_roundtrip(self):
        rng = np.random.default_rng(4)
        batch, _ = random_batch(rng, 4, 3, 7, 4)
        again = CompactBatch.from_stack(batch.to_stack(), 4)
        assert np.array_equal(batch.data, again.data)

    def test_to_stack_copies_even_for_scalar_lanes(self):
        # the stack (and therefore unpack results) must be detached from the
        # buffer
        batch = pack([np.array([[float(j)]]) for j in range(4)], 2)
        st = batch.to_stack()
        mats = unpack(batch, 4)
        batch.data[:] = -1.0
        assert np.array_equal(st[:, 0, 0], [0.0, 1.0, 2.0, 3.0])
        assert all(mats[j][0, 0] == j for j in range(4))

    def test_stage_accessors(self):
        rng = np.random.default_rng(5)
        batch, mats = random_batch(rng, 3, 4, 6, 2)
        for j, m in enumerate(mats):
            assert np.array_equal(batch.stage(j), m)
        batch.set_stage(2, np.ones((3, 4)))
        assert np.array_equal(batch.stage(2), np.ones((3, 4)))

    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_ragged_tail_is_zero_for_every_lane_width(self, d):
        # 3 stages: fewer than one block for d = 4 and d = 8
        rng = np.random.default_rng(10 + d)
        batch, mats = random_batch(rng, 2, 3, 3, d)
        assert batch.nstages == max(d, 3 + (-3) % d)
        assert batch.nstages % d == 0
        assert batch.stack.shape == (batch.nstages, 2, 3)
        for j, m in enumerate(mats):
            assert np.array_equal(batch.stack[j], m)
        assert np.all(batch.stack[3:] == 0.0)
        again = CompactBatch.from_stack(batch.to_stack(), d)
        assert np.array_equal(again.data, batch.data)

    def test_zero_row_batch(self):
        # an empty constraint family (n_y = 0) still covers its stage slots
        batch = CompactBatch(0, 5, 3, 2)
        assert batch.stack.shape == (6, 0, 5)
        assert batch.data.size == 0
        assert CompactBatch.from_stack(batch.to_stack(), 2).nstages == 6

    def test_invalid_lane_width(self):
        with pytest.raises(ValueError):
            CompactBatch(2, 2, 1, 3)

    def test_buffer_size_mismatch(self):
        with pytest.raises(ValueError):
            CompactBatch(2, 2, 1, 2, np.zeros(7))

    def test_storage_is_float64(self):
        # buffers of another dtype are converted, never stored as given
        batch = CompactBatch(2, 1, 1, 2, np.arange(4, dtype=np.float32))
        assert batch.stack.dtype == np.float64
        assert np.array_equal(batch.data, [0.0, 1.0, 2.0, 3.0])
        assert pack([np.ones((1, 1), dtype=np.int64)], 1).data.dtype == np.float64

    def test_total_stages_below_count_raises(self):
        with pytest.raises(ValueError):
            CompactBatch.from_stack(np.zeros((5, 2, 2)), 2, total_stages=4)

    def test_copy_is_detached(self):
        rng = np.random.default_rng(6)
        batch, mats = random_batch(rng, 2, 2, 4, 2)
        dup = batch.copy()
        dup.stack[1] = 7.0
        assert np.array_equal(batch.stack[1], mats[1])
        assert not np.shares_memory(dup.data, batch.data)
        assert np.all(batch.zeros_like().data == 0.0)
