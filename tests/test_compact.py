import numpy as np
import pytest

from ocpqp.compact import CompactBatch


def random_batch(rng, rows, cols, nstages):
    mats = [rng.standard_normal((rows, cols)) for _ in range(nstages)]
    return CompactBatch.from_stack(np.stack(mats)), mats


class TestLayout:
    def test_flat_index_formula(self):
        rng = np.random.default_rng(0)
        rows, cols, nstages = 3, 2, 5
        batch, mats = random_batch(rng, rows, cols, nstages)
        for j in range(nstages):
            for i in range(rows):
                for l in range(cols):
                    flat = (j * rows + i) * cols + l
                    assert batch.data[flat] == mats[j][i, l]

    def test_reference_interleaving(self):
        # N = 4 stages of 4x4 matrices: each stage is one contiguous
        # row-major 16-element run, and stage 1 follows stage 0
        rng = np.random.default_rng(1)
        batch, mats = random_batch(rng, 4, 4, 4)
        assert batch.data[0] == mats[0][0, 0]
        assert batch.data[1] == mats[0][0, 1]
        assert batch.data[4] == mats[0][1, 0]
        assert batch.data[16] == mats[1][0, 0]
        assert batch.data[2 * 16] == mats[2][0, 0]
        assert np.shares_memory(batch.stack, batch.data)
        assert batch.stack.flags.c_contiguous

    def test_naive_stage_order(self):
        rng = np.random.default_rng(2)
        batch, mats = random_batch(rng, 3, 3, 4)
        expected = np.concatenate([m.ravel() for m in mats])
        assert np.array_equal(batch.data, expected)

    def test_from_stack_shape_mismatch(self):
        with pytest.raises(ValueError):
            CompactBatch.from_stack([np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(ValueError):
            CompactBatch.from_stack(np.zeros((2, 2)))

    def test_stack_roundtrip(self):
        rng = np.random.default_rng(4)
        batch, _ = random_batch(rng, 4, 3, 7)
        again = CompactBatch.from_stack(batch.to_stack())
        assert again.nstages == 7
        assert np.array_equal(batch.data, again.data)

    def test_to_stack_copies(self):
        # the stack must be detached from the buffer, and from_stack must
        # not keep the array it was given
        source = np.arange(4.0).reshape(4, 1, 1)
        batch = CompactBatch.from_stack(source)
        st = batch.to_stack()
        batch.data[:] = -1.0
        assert np.array_equal(st[:, 0, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(source[:, 0, 0], [0.0, 1.0, 2.0, 3.0])

    def test_zero_row_batch(self):
        # an empty constraint family (n_y = 0) still covers its stage slots
        batch = CompactBatch(0, 5, 3)
        assert batch.stack.shape == (3, 0, 5)
        assert batch.data.size == 0
        assert CompactBatch.from_stack(batch.to_stack()).nstages == 3

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            CompactBatch(2, 2, 0)
        with pytest.raises(ValueError):
            CompactBatch(-1, 2, 1)

    def test_buffer_size_mismatch(self):
        with pytest.raises(ValueError):
            CompactBatch(2, 2, 2, np.zeros(7))

    def test_storage_is_float64(self):
        # buffers of another dtype are converted, never stored as given
        batch = CompactBatch(2, 1, 2, np.arange(4, dtype=np.float32))
        assert batch.stack.dtype == np.float64
        assert np.array_equal(batch.data, [0.0, 1.0, 2.0, 3.0])
        assert CompactBatch.from_stack(np.ones((1, 1, 1), dtype=np.int64)).data.dtype == np.float64

    def test_copy_is_detached(self):
        rng = np.random.default_rng(6)
        batch, mats = random_batch(rng, 2, 2, 4)
        dup = batch.copy()
        dup.stack[1] = 7.0
        assert np.array_equal(batch.stack[1], mats[1])
        assert not np.shares_memory(dup.data, batch.data)
