"""Permutation kernels used by the market generator.

``market`` calls these through the module (``_kernels.decode_insertions``),
not through names imported into its own namespace, so that a tracer can
wrap them by replacing the module attribute.  ``BACKEND`` names the
implementation and is recorded next to benchmark results.
"""

from __future__ import annotations

__all__ = ["BACKEND", "count_inversions", "decode_insertions"]

BACKEND = "python"


def decode_insertions(displacements) -> list[int]:
    """Materialise a permutation from per-item displacement counts.

    Items ``0..n-1`` are processed in order; item ``i`` is inserted into
    the partial list at position ``i - displacements[i]``, i.e. it jumps
    ahead of ``displacements[i]`` previously placed items.  The number of
    pairwise inversions of the result equals ``sum(displacements)``.

    ``list.insert`` is a C-level memmove, which keeps this acceptably
    fast up to a few thousand items.
    """
    out: list[int] = []
    for i, v in enumerate(displacements):
        if v < 0 or v > i:
            raise ValueError(f"displacement {v} out of range at index {i}")
        out.insert(i - v, i)
    return out


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
