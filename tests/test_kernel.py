"""The exact integer kernel against a brute-force determinant oracle."""

import random

import pytest
from conftest import permutation_det

from toricfano import kernel


def random_matrix(rng, n, bound):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
    )


def test_det_matches_permutation_oracle():
    # inverse's determinant, on random matrices; the singular ones raise
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matrix(rng, n, 9)
            expected = permutation_det(m)
            if expected == 0:
                with pytest.raises(ValueError, match="singular"):
                    kernel.inverse(m)
            else:
                assert kernel.inverse(m)[1] == expected


def test_det_known_values():
    assert kernel.inverse(((1, 0), (0, 1)))[1] == 1
    assert kernel.inverse(((1, 0), (1, 2)))[1] == 2
    assert kernel.inverse(((1, 1, 1), (1, 0, 0), (0, 1, 0)))[1] == 1
    assert kernel.inverse(((2, 0), (0, 2)))[1] == 4
    with pytest.raises(ValueError, match="singular"):
        kernel.inverse(((1, 2), (2, 4)))


def test_det_rejects_non_square():
    for m in (((1, 2, 3), (4, 5, 6)), ()):
        with pytest.raises(ValueError, match="square"):
            kernel.inverse(m)


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
    adj, d = kernel.inverse(m)
    assert adj == ((big, -1), (-1, big)) and d == permutation_det(m)
    assert_adjugate(m, adj, d)



def test_memoised_inverse_matches_the_computation(differential_fans):
    """On every cone of the differential fans, the memoised kernel returns
    what the computation itself returns, as one object per row tuple."""
    for fan in differential_fans:
        for cone in fan.max_cones:
            rows = tuple(fan.rays[i] for i in cone)
            result = kernel.inverse(rows)
            assert result == kernel.inverse.__wrapped__(rows)
            assert kernel.inverse(rows) is result


def test_singular_matrix_raises_on_every_call():
    """An exception is not cached: each repeat recomputes and raises again."""
    m = ((1, 2, 3), (4, 5, 6), (5, 7, 9))
    before = kernel.inverse.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="singular"):
            kernel.inverse(m)
    after = kernel.inverse.cache_info()
    assert after.misses - before.misses == 3
    assert after.currsize == before.currsize


def test_rows_must_be_hashable():
    with pytest.raises(TypeError):
        kernel.inverse([[1, 0], [0, 1]])
