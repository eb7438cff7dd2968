import random

import numpy as np
import pytest

from sibmatch import _kernels


def brute_inversions(seq):
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])


def brute_decode(displacements):
    out = []
    for i, v in enumerate(displacements):
        out.insert(i - v, i)
    return out


def test_backend_identifier():
    assert _kernels.BACKEND == "python"


def long_rows(rng):
    """Rows with large and small shifts, and rows of 65,536 items and more.

    Uniform displacements shift about n/4 items per insert; displacements
    of at most 3 shift about 1.5.  Every row decodes into 4-byte items,
    so the rows at and just past 2**16 items check that no 2-byte limit
    is left in the decode.
    """
    for n in (1000, 1777, 2500):
        yield [rng.randrange(0, i + 1) for i in range(n)]
        yield [rng.randrange(0, min(i, 3) + 1) for i in range(n)]
    for n in (65_536, 65_537, 70_000):
        yield [rng.randrange(0, min(i, 3) + 1) for i in range(n)]


def test_decode_matches_fallback_and_brute():
    rng = random.Random(1)
    rows = [[rng.randrange(0, i + 1) for i in range(rng.randrange(0, 60))] for _ in range(300)]
    rows += long_rows(rng)
    assert max(map(len, rows)) > 65536
    for v in rows:
        expect = brute_decode(v)
        assert _kernels.decode_insertions(v).tolist() == expect


def test_decode_identity_and_reverse():
    n = 9
    assert _kernels.decode_insertions([0] * n).tolist() == list(range(n))
    # full displacement every step reverses the reference
    assert _kernels.decode_insertions(list(range(n))).tolist() == list(range(n - 1, -1, -1))


def test_decode_rejects_bad_displacement():
    with pytest.raises(ValueError):
        _kernels.decode_insertions([1])
    with pytest.raises(ValueError):
        _kernels.decode_insertions([0, 2])
    with pytest.raises(ValueError):
        _kernels.decode_insertions([-1])
    with pytest.raises(ValueError):
        _kernels.decode_insertions([0, 0.5])
    # the same bad entry in a full reversal and in a row of zeros
    n = 1000
    for bad in (n, -1):
        messages = []
        for v in (list(range(n)), [0] * n):
            v[700] = bad
            with pytest.raises(ValueError) as err:
                _kernels.decode_insertions(v)
            messages.append(str(err.value))
        assert messages == [f"displacement {bad} out of range at index 700"] * 2


def test_count_inversions_matches():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(0, 50)
        seq = [rng.randrange(-10, 100) for _ in range(n)]
        expect = brute_inversions(seq)
        assert _kernels.count_inversions(seq) == expect


def test_count_inversions_extremes():
    assert _kernels.count_inversions([]) == 0
    assert _kernels.count_inversions([5]) == 0
    n = 100
    assert _kernels.count_inversions(list(range(n, 0, -1))) == n * (n - 1) // 2


def test_inversions_of_decode_equals_displacement_sum():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(0, 40)
        v = [rng.randrange(0, i + 1) for i in range(n)]
        perm = _kernels.decode_insertions(v).tolist()
        # item value = reference rank, so inversions of the permutation
        # equal the total displacement
        assert brute_inversions(perm) == sum(v)


def test_count_inversions_of_long_decoded_permutations():
    # a decoded permutation has sum(v) inversions, so long rows need no brute count
    rng = random.Random(4)
    for n in (12, 500, 3000, 20_000):
        for width in (n, 3):
            v = [rng.randrange(0, min(i, width) + 1) for i in range(n)]
            perm = _kernels.decode_insertions(v).tolist()
            assert _kernels.count_inversions(perm) == sum(v)


def test_count_inversions_does_not_count_equal_items():
    rng = np.random.default_rng(5)
    seq = rng.integers(0, 40, size=2000)
    expect = int(np.triu(seq[:, None] > seq[None, :], 1).sum())
    assert _kernels.count_inversions(seq.tolist()) == expect
    assert _kernels.count_inversions([3, 3, 3, 1, 1]) == 6
