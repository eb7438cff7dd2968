import random

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


def test_decode_matches_fallback_and_brute():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(0, 60)
        v = [rng.randrange(0, i + 1) for i in range(n)]
        expect = brute_decode(v)
        assert _kernels.decode_insertions(v) == expect


def test_decode_identity_and_reverse():
    n = 9
    assert _kernels.decode_insertions([0] * n) == list(range(n))
    # full displacement every step reverses the reference
    assert _kernels.decode_insertions(list(range(n))) == list(range(n - 1, -1, -1))


def test_decode_rejects_bad_displacement():
    with pytest.raises(ValueError):
        _kernels.decode_insertions([1])
    with pytest.raises(ValueError):
        _kernels.decode_insertions([0, 2])
    with pytest.raises(ValueError):
        _kernels.decode_insertions([-1])


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
        perm = _kernels.decode_insertions(v)
        # item value = reference rank, so inversions of the permutation
        # equal the total displacement
        assert brute_inversions(perm) == sum(v)
