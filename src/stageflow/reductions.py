"""Sums with numpy's bytes in a few array passes, where ``.sum`` would run
its reduce loop once per row.

``column_sums`` is ``x.sum(axis=0)`` and ``row_sums`` is ``x.sum(axis=-1)``,
byte for byte and sign bit for sign bit, in both float dtypes: each output
element goes through the same IEEE adds, in the same order, as numpy's.
Only which of two NaNs an add keeps follows the compiled operand order, so a
NaN in a result is summed again by ``.sum``. Below ``COLUMN_SUM_ROWS`` rows,
and for any shape or layout whose order they do not reproduce, both call
``.sum`` itself. ``tests/test_trainer.py::TestExactReductions`` holds them
to ``.sum`` (``trainer`` docstring, Reductions).
"""

from __future__ import annotations

import numpy as np

# rows from which the array passes beat numpy's reduce loop; at fewer, as in
# desk-width rollouts and updates, one ``.sum`` costs about as much
# (``BENCH_27.json`` ``probes.crossover``)
COLUMN_SUM_ROWS = 512


def column_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of 2-D ``x``. numpy adds a C-contiguous array of two
    or more columns one row at a time, in row order, from 0.0, and
    ``np.einsum("ij->j", x)`` makes the same adds in one pass. A single
    column, which numpy sums pairwise, and any other layout take
    ``x.sum``."""
    if len(x) >= COLUMN_SUM_ROWS and x.shape[1] > 1 and x.flags.c_contiguous:
        total = np.einsum("ij->j", x)
        if not np.isnan(total).any():
            return total
    return x.sum(axis=0)


def row_sums(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(x, axis=-1, out=out)`` by column adds, for a last axis of at
    most 8 elements that is the innermost axis and interleaves no other.
    numpy starts each row at 0.0 and adds the axis's pairwise sum, which
    adds fewer than 8 elements in order, ``((0.0 + c0) + c1) + ...``, and
    exactly 8 as ``((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))``.
    Any other shape or layout takes ``np.sum``."""
    k, step = x.shape[-1], x.strides[-1]
    if not (0 < k <= 8 and x.size >= k * COLUMN_SUM_ROWS and step > 0
            and all(s >= k * step for n, s in zip(x.shape[:-1], x.strides[:-1]) if n > 1)):
        return np.sum(x, axis=-1, out=out)
    c = [x[..., j] for j in range(k)]
    if k < 8:
        total = np.add(c[0], 0.0, out=out)
        for col in c[1:]:
            total += col
    else:
        total = np.add(c[0], c[1], out=out)
        total += c[2] + c[3]
        half = c[4] + c[5]
        half += c[6] + c[7]
        total += half
        total += 0.0  # numpy's 0.0 start: a -0.0 sum is 0.0
    if np.isnan(total).any():
        return np.sum(x, axis=-1, out=out)
    return total
