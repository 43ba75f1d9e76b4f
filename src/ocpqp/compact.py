"""Stage-major batch storage for stage matrices.

A horizon of per-stage matrices of a common shape is stored as one
C-contiguous ``(nstages, rows, cols)`` array, ``batch.stack``: stage j's
matrix is ``batch.stack[j]``.  numpy's batched gufuncs (``matmul``,
``linalg.cholesky``) loop over that leading stage axis inside one call, so
stage-wise linear algebra is one call over a range of stages.

Element (i, l) of stage j lives at flat offset ``(j * rows + i) * cols + l``
of ``batch.data``, a flat view of the same buffer.

The stage count is a multiple of the lane width ``d``: stages are grouped
into ``nblocks`` blocks of d consecutive stages, the unit in which a worker
pool splits stage-parallel work.  Stage slots beyond the data are zero.
"""

from __future__ import annotations

import numpy as np


class NonPositivePivot(Exception):
    """A Cholesky pivot was not strictly positive.

    Attributes ``stage`` and ``row`` identify the first offending stage; the
    full list of (stage, row) pairs is in ``failures``.  Stages that fail do
    not corrupt their siblings: all other stages hold their correct factors
    when this is raised.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        self.stage, self.row = self.failures[0]
        super().__init__(
            f"matrix not positive definite at stage {self.stage}, row {self.row}"
            + (f" ({len(self.failures)} stages failed)" if len(self.failures) > 1 else "")
        )


def _ceil_div(a, b):
    return -(-a // b)


class CompactBatch:
    """A batch of equally-shaped float64 matrices in stage-major storage.

    Parameters
    ----------
    rows, cols : int
        Per-stage matrix shape.
    nblocks : int
        Number of d-wide stage blocks; the batch covers ``nblocks * d`` stage
        slots (trailing slots may be unused and are kept zero).
    d : int
        Lane width, one of {1, 2, 4, 8}.
    data : ndarray, optional
        Buffer of ``rows * cols * nblocks * d`` elements in stage-major
        order; zeros are allocated when omitted.

    ``stack`` is the ``(nstages, rows, cols)`` array and ``data`` a flat view
    of it; writes through either are seen by both.
    """

    __slots__ = ("rows", "cols", "nblocks", "d", "stack", "data")

    def __init__(self, rows, cols, nblocks, d, data=None):
        if d not in (1, 2, 4, 8):
            raise ValueError(f"lane width must be one of 1, 2, 4, 8, got {d}")
        if rows < 0 or cols < 0 or nblocks < 1:
            raise ValueError("invalid batch shape")
        self.rows = int(rows)
        self.cols = int(cols)
        self.nblocks = int(nblocks)
        self.d = int(d)
        shape = (self.nblocks * self.d, self.rows, self.cols)
        if data is None:
            self.stack = np.zeros(shape)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            size = shape[0] * self.rows * self.cols
            if data.size != size:
                raise ValueError(f"buffer has {data.size} elements, expected {size}")
            self.stack = data.reshape(shape)
        self.data = self.stack.reshape(-1)

    @property
    def nstages(self):
        """Total stage slots covered by the batch (including unused ones)."""
        return self.nblocks * self.d

    def stage(self, j):
        """Matrix of stage j as a fresh (rows, cols) array."""
        if not 0 <= j < self.nstages:
            raise IndexError(f"stage {j} out of range")
        return self.stack[j].copy()

    def set_stage(self, j, mat):
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape != (self.rows, self.cols):
            raise ValueError(f"stage matrix shape {mat.shape} != {(self.rows, self.cols)}")
        self.stack[j] = mat

    def to_stack(self):
        """All stage slots as a (nstages, rows, cols) array (copy)."""
        return self.stack.copy()

    @classmethod
    def from_stack(cls, stack, d, total_stages=None):
        """Copy a (nstages, rows, cols) array into a batch; inverse of
        ``to_stack``.  Slots up to ``total_stages`` rounded up to a multiple
        of ``d`` are zero."""
        stack = np.asarray(stack, dtype=np.float64)
        if stack.ndim != 3:
            raise ValueError("expected a (nstages, rows, cols) array")
        count, rows, cols = stack.shape
        total = count if total_stages is None else int(total_stages)
        if total < count:
            raise ValueError("total_stages smaller than the number of matrices")
        out = cls(rows, cols, max(1, _ceil_div(total, d)), d)
        out.stack[:count] = stack
        return out

    def copy(self):
        return CompactBatch(self.rows, self.cols, self.nblocks, self.d, self.data.copy())

    def zeros_like(self):
        return CompactBatch(self.rows, self.cols, self.nblocks, self.d)

    def __repr__(self):
        return (
            f"CompactBatch(rows={self.rows}, cols={self.cols}, "
            f"nblocks={self.nblocks}, d={self.d})"
        )


def pack(matrices, d, total_stages=None):
    """Stack a sequence of equally-shaped matrices into a CompactBatch.

    Unfilled slots (when the sequence is shorter than ``nblocks * d``) are
    zero.  ``total_stages`` forces extra trailing slots beyond the sequence.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise ValueError("empty matrix sequence")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("all matrices in a batch must share one shape")
    if len(shape) != 2:
        raise ValueError("expected 2-D matrices")
    return CompactBatch.from_stack(np.stack(mats), d, total_stages)


def unpack(batch, count=None):
    """Recover the per-stage matrices of a batch (inverse of ``pack``)."""
    count = batch.nstages if count is None else int(count)
    stack = batch.to_stack()
    return [stack[j] for j in range(count)]
