"""Permutation kernels used by the market generator.

``market`` calls these through the module (``_kernels.decode_insertions``),
not through names imported into its own namespace, so that a tracer can
wrap them by replacing the module attribute.  ``BACKEND`` names the
implementation and is recorded next to benchmark results.

The decode keeps every row in 4-byte unsigned items (``array('I')``),
whatever its length.  In CPython 3.11 a store into an ``array('H')``, or
into a signed ``array('i')``, parses its value through ``PyArg_Parse``,
and one into ``array('I')`` through the cheaper
``PyLong_AsUnsignedLong``; that saving outweighs the larger ``memmove``
of each insert.  Measured per insert, median of 15 runs on real
65,536-item blocks (CPython 3.11.7, a shared 2-vCPU x86-64 host):
rows of 3,000 items took 137 ns ('H'), 136 ns ('i') and 90 ns ('I') at
phi 0.5, and 154, 163 and 117 ns at phi 1.0; rows of 500 items went
138 → 93 ns and 144 → 98 ns from 'H' to 'I'.  8-byte 'L' items were as
fast as 'I' except on rows of 3,000 at phi 1.0 (141 ns), where the
``memmove`` is longest.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque

import numpy as np

__all__ = ["BACKEND", "count_inversions", "decode_insertions"]

BACKEND = "python"


def decode_insertions(displacements) -> np.ndarray:
    """Materialise a permutation from per-item displacement counts.

    Items ``0..n-1`` are processed in order; item ``i`` is inserted into
    the partial sequence at position ``i - displacements[i]``, i.e. it
    jumps ahead of ``displacements[i]`` previously placed items.  The
    number of pairwise inversions of the result equals
    ``sum(displacements)``.

    Anything but one row of integers raises ``ValueError``, and so does
    an entry outside ``0..i``, naming the first bad index.  The positions
    ``i - v_i`` are built in one int64 array, and the range check is two
    reductions: v_i lies in ``0..i`` exactly when ``v_i >= 0`` and
    ``i - v_i >= 0``.  The inserts then run in C (``map`` over
    ``array.insert``, drained by a ``deque``; the positions are read
    through a ``memoryview``, so no list of n ints is built) into an
    ``array('I')`` (see the module docstring), so each insert shifts the
    items after it with one ``memmove``.  The result is a uint32 ndarray
    viewing that array.
    """
    row = np.asarray(displacements)
    if row.ndim != 1 or (row.size and not np.issubdtype(row.dtype, np.integer)):
        raise ValueError(
            f"displacements must be one row of integers, not a {row.ndim}-d {row.dtype} array"
        )
    v = row.astype(np.int64, copy=False)
    positions = np.arange(len(v), dtype=np.int64)
    positions -= v
    if len(v) and (v.min() < 0 or positions.min() < 0):
        i = int(np.flatnonzero((v < 0) | (positions < 0))[0])
        raise ValueError(f"displacement {row[i].item()} out of range at index {i}")
    out = array("I")
    deque(map(out.insert, memoryview(positions), range(len(v))), maxlen=0)
    return np.frombuffer(out, dtype=np.uint32)


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
