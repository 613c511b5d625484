"""The exact integer kernel against a brute-force determinant oracle."""

import random
from itertools import permutations

import pytest

from toricfano import kernel


def permutation_det(rows):
    """Independent oracle: signed permutation expansion."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def random_matrix(rng, n, bound):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
    )


def test_det_matches_permutation_oracle():
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matrix(rng, n, 9)
            assert kernel.det(m) == permutation_det(m)


def test_det_known_values():
    assert kernel.det(((1, 0), (0, 1))) == 1
    assert kernel.det(((1, 0), (1, 2))) == 2
    assert kernel.det(((1, 1, 1), (1, 0, 0), (0, 1, 0))) == 1
    assert kernel.det(((2, 0), (0, 2))) == 4
    assert kernel.det(((1, 2), (2, 4))) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        kernel.det(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        kernel.det(())


def assert_adjugate(m, adj, d):
    n = len(m)
    assert d == permutation_det(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * adj[k][j] for k in range(n)) == d * (i == j)


def test_inverse_is_the_adjugate():
    rng = random.Random(202)
    for n in range(1, 7):
        done = 0
        while done < 12:
            m = random_matrix(rng, n, 7)
            if n > 1 and done % 3 == 0:
                # a zero leading entry forces a row swap
                m = ((0,) + m[0][1:],) + m[1:]
            if permutation_det(m) == 0:
                continue
            assert_adjugate(m, *kernel.inverse(m))
            done += 1


def test_inverse_singular():
    singular = (((1, 2), (2, 4)), ((0, 0), (0, 1)), ((1, 2, 3), (4, 5, 6), (5, 7, 9)))
    for m in singular:
        with pytest.raises(ValueError, match="singular"):
            kernel.inverse(m)
    with pytest.raises(ValueError):
        kernel.inverse(((1, 2, 3), (4, 5, 6)))


def test_wrappers_fall_back_on_huge_entries():
    big = 10 ** 30
    m = ((big, 1), (1, big))
    expected = permutation_det(m)
    assert kernel.det(m) == expected
    adj, d = kernel.inverse(m)
    assert adj == ((big, -1), (-1, big)) and d == expected
    assert_adjugate(m, adj, d)

