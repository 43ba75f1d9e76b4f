"""Stage-major batch storage for stage matrices.

A horizon of per-stage matrices of a common shape is stored as one
C-contiguous ``(nstages, rows, cols)`` array, ``batch.stack``: stage j's
matrix is ``batch.stack[j]``.  numpy's batched ``matmul`` loops over that
leading stage axis inside one call, so a stage-wise product is one call over
a range of stages (the stage factorizations loop over LAPACK calls).

Element (i, l) of stage j lives at flat offset ``(j * rows + i) * cols + l``
of ``batch.data``, a flat view of the same buffer.  A problem's batches hold
exactly one slot per stage, N + 1 in all.
"""

from __future__ import annotations

import numpy as np


class NonPositivePivot(Exception):
    """A Cholesky pivot was not strictly positive.

    Attributes ``stage`` and ``row`` identify the first offending stage; the
    full list of (stage, row) pairs, in stage order, is in ``failures``.  A
    dense stage that fails does not corrupt its siblings: they hold their
    correct factors when this is raised.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        self.stage, self.row = self.failures[0]
        super().__init__(
            f"matrix not positive definite at stage {self.stage}, row {self.row}"
            + (f" ({len(self.failures)} stages failed)" if len(self.failures) > 1 else "")
        )


class CompactBatch:
    """A batch of equally-shaped float64 matrices in stage-major storage.

    Parameters
    ----------
    rows, cols : int
        Per-stage matrix shape.
    nstages : int
        Number of stage slots.
    data : ndarray, optional
        Buffer of ``nstages * rows * cols`` elements in stage-major order;
        zeros are allocated when omitted.

    ``stack`` is the ``(nstages, rows, cols)`` array and ``data`` a flat view
    of it; writes through either are seen by both.
    """

    __slots__ = ("rows", "cols", "nstages", "stack", "data")

    def __init__(self, rows, cols, nstages, data=None):
        if rows < 0 or cols < 0 or nstages < 1:
            raise ValueError("invalid batch shape")
        self.rows = int(rows)
        self.cols = int(cols)
        self.nstages = int(nstages)
        shape = (self.nstages, self.rows, self.cols)
        if data is None:
            self.stack = np.zeros(shape)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            size = shape[0] * self.rows * self.cols
            if data.size != size:
                raise ValueError(f"buffer has {data.size} elements, expected {size}")
            self.stack = data.reshape(shape)
        self.data = self.stack.reshape(-1)

    def to_stack(self):
        """All stage slots as a (nstages, rows, cols) array (copy)."""
        return self.stack.copy()

    @classmethod
    def from_stack(cls, stack):
        """Copy a (nstages, rows, cols) array into a batch; inverse of
        ``to_stack``."""
        stack = np.array(stack, dtype=np.float64, order="C")
        if stack.ndim != 3:
            raise ValueError("expected a (nstages, rows, cols) array")
        return cls(*stack.shape[1:], stack.shape[0], stack)

    def copy(self):
        return CompactBatch(self.rows, self.cols, self.nstages, self.data.copy())

    def __repr__(self):
        return f"CompactBatch(rows={self.rows}, cols={self.cols}, nstages={self.nstages})"

