"""Permutation kernels used by the market generator.

``market`` calls these through the module (``_kernels.decode_insertions``),
not through names imported into its own namespace, so that a tracer can
wrap them by replacing the module attribute.  ``BACKEND`` names the
implementation and is recorded next to benchmark results.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

__all__ = ["BACKEND", "SHORT_ITEMS", "count_inversions", "decode_insertions"]

BACKEND = "python"

# Rows of up to this many items decode into 2-byte items; longer rows
# need 4-byte items.
SHORT_ITEMS = 65_536


def decode_insertions(displacements) -> np.ndarray:
    """Materialise a permutation from per-item displacement counts.

    Items ``0..n-1`` are processed in order; item ``i`` is inserted into
    the partial sequence at position ``i - displacements[i]``, i.e. it
    jumps ahead of ``displacements[i]`` previously placed items.  The
    number of pairwise inversions of the result equals
    ``sum(displacements)``.

    The row is checked with numpy first: anything but one row of
    integers raises ``ValueError``, and so does an entry outside
    ``0..i``, naming the first bad index.
    The inserts then run in C (``map`` over ``array.insert``, drained by
    a ``deque``; the positions are read through a ``memoryview``, so no
    list of n ints is built) into an ``array`` of 2-byte items, or 4-byte items when
    the row is longer than ``SHORT_ITEMS`` (65,536), so each insert
    shifts the items after it with one ``memmove``.  The result is an
    integer ndarray viewing that array.
    """
    v = np.asarray(displacements)
    if v.ndim != 1 or (v.size and not np.issubdtype(v.dtype, np.integer)):
        raise ValueError(
            f"displacements must be one row of integers, not a {v.ndim}-d {v.dtype} array"
        )
    n = len(v)
    index = np.arange(n)
    bad = np.flatnonzero((v < 0) | (v > index))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"displacement {v[i].item()} out of range at index {i}")
    positions = memoryview(index - v.astype(np.int64, copy=False))
    out = array("H" if n <= SHORT_ITEMS else "I")
    deque(map(out.insert, positions, range(n)), maxlen=0)
    return np.frombuffer(out, dtype=out.typecode)


def count_inversions(seq) -> int:
    """Number of pairs (i, j) with i < j and seq[i] > seq[j].

    Iterative bottom-up merge count, O(n log n).
    """
    a = list(seq)
    n = len(a)
    buf = a[:]
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n - width, 2 * width):
            mid = lo + width
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[i] <= a[j]:
                    buf[k] = a[i]
                    i += 1
                else:
                    buf[k] = a[j]
                    j += 1
                    inversions += mid - i
                k += 1
            buf[k:hi] = a[i:mid] if i < mid else a[j:hi]
            a[lo:hi] = buf[lo:hi]
        width *= 2
    return inversions
