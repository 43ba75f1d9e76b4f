"""The stage-major storage format, element by element.

Five 3x4 stage matrices: the batch holds one C-contiguous
(nstages, rows, cols) array with one slot per stage, so stage j's matrix is
``batch.stack[j]`` and element (i, l) of stage j sits at flat offset
(j * rows + i) * cols + l.  Every stage-wise operation is one batched numpy
call over the stage axis.
"""

import numpy as np

from ocpqp.compact import CompactBatch

rng = np.random.default_rng(0)
rows, cols = 3, 4
mats = rng.integers(10, 100, (5, rows, cols)).astype(float)
batch = CompactBatch.from_stack(mats)

print(f"{len(mats)} stages: stack shape {batch.stack.shape}")
print("stage j is batch.stack[j]:",
      all(np.array_equal(batch.stack[j], mats[j]) for j in range(len(mats))))

print("\nflat offset (j*rows + i)*cols + l:")
for i, l, j in ((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (2, 3, 4)):
    k = (j * rows + i) * cols + l
    print(f"  element ({i},{l}) of stage {j} -> offset {k:2d}: "
          f"{batch.data[k]} == {mats[j][i, l]}")

# one batched call advances every stage: here M_j^T M_j for all stages
gram = np.matmul(batch.stack.transpose(0, 2, 1), batch.stack)
print("\none batched matmul, M_j^T M_j for all stages, matches per-stage products:",
      all(np.array_equal(gram[j], mats[j].T @ mats[j]) for j in range(len(mats))))

# the round trip through a plain stack is exact
print("round trip bit-exact:", np.array_equal(batch.to_stack(), mats))
