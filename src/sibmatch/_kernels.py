"""Permutation kernels used by the market generator.

``market`` calls these through the module (``_kernels.decode_insertions``),
not through names imported into its own namespace, so that a tracer can
wrap them by replacing the module attribute.  ``BACKEND`` names the
implementation and is recorded next to benchmark results.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
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

    Each item is inserted into the sorted list of the items before it:
    ``bisect_right`` finds its place, so equal items are not counted, and
    the ``k - place`` earlier items above it are its inversions.  That is
    O(n log n) comparisons and O(n²) bytes moved by ``list.insert``'s
    ``memmove``: faster than a merge count up to about 15,000 items,
    slower beyond.  The orderings compared here have a few thousand.
    """
    seen: list = []
    inversions = 0
    for k, item in enumerate(seq):
        place = bisect_right(seen, item)
        inversions += k - place
        seen.insert(place, item)
    return inversions
