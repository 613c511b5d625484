"""The exact integer kernel against a brute-force determinant oracle and
against the plain Bareiss elimination, read in the stored form: the
columns of |det| A^-1, and det A."""

import random

import pytest
from conftest import as_stored, bareiss_inverse, permutation_det

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


def assert_adjugate(m, cols, d):
    """d is det m, and A times column j of the stored form is |d| e_j."""
    n = len(m)
    assert d == permutation_det(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * cols[j][k] for k in range(n)) == abs(d) * (i == j)


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
    cols, d = kernel.inverse(m)
    assert cols == ((big, -1), (-1, big)) and d == permutation_det(m)
    assert_adjugate(m, cols, d)


def outcome(rows):
    """(kernel result, oracle result in the stored form), each a
    ValueError's message when it raises."""
    results = []
    for fn in (kernel.inverse, lambda m: as_stored(*bareiss_inverse(m))):
        try:
            results.append(fn(rows))
        except ValueError as err:
            results.append(str(err))
    return tuple(results)


def test_matches_the_bareiss_oracle_on_random_matrices(monkeypatch):
    """Small and huge entries, n up to 7; a step whose mu_k is not +-1, or
    that starts from |det| > 1, takes the exchange's dividing path."""
    exchange, dividing = kernel.exchange, []

    def recording_exchange(cols, det, k, mu, to):
        dividing.append(mu[k] * det not in (1, -1))
        return exchange(cols, det, k, mu, to)

    monkeypatch.setattr(kernel, "exchange", recording_exchange)
    rng = random.Random(1414)
    singular = 0
    for n in range(1, 8):
        for _ in range(250):
            m = random_matrix(rng, n, rng.choice((1, 1, 2, 5, 10**20)))
            got, expected = outcome(m)
            assert got == expected, m
            singular += expected == "singular matrix"
    assert singular > 50
    assert sum(dividing) > 1_000 and dividing.count(False) > 1_000


@pytest.mark.parametrize(
    "m",
    [
        # a -1 pivot, at the diagonal and below it
        ((-1, 2), (3, 4)),
        ((2, 3, 1), (-1, 0, 4), (5, 1, 1)),
        ((0, -1, 0), (0, 0, -1), (-1, 0, 0)),
        # a zero leading entry
        ((0, 1), (1, 0)),
        ((0, 2, 1), (3, 0, 1), (1, 1, 0)),
        # unimodular, with a column holding no unit entry: the exchange's
        # dividing path
        ((2, 3), (3, 5)),
        ((5, 2), (7, 3)),
        ((2, 3, 0), (3, 5, 0), (4, 6, 1)),
        ((1, 0, 0), (0, 2, 3), (0, 3, 5)),
        # no unit entry at all, and not unimodular
        ((2, 0), (0, 2)),
        ((3, 2, 2), (2, 3, 2), (2, 2, 3)),
        # huge entries; the second is unimodular with no unit entry
        ((10**30, 1), (1, 10**30)),
        ((10**30, 10**30 + 1), (10**30 - 1, 10**30)),
        ((10**30, 0, 1), (-1, 10**30, 0), (0, 1, -(10**30))),
        # singular, at the first column and at a later one
        ((0, 1), (0, 2)),
        ((2, 4), (3, 6)),
        ((1, 2, 3), (4, 5, 6), (5, 7, 9)),
    ],
)
def test_matches_the_bareiss_oracle_on_chosen_matrices(m):
    got, expected = outcome(m)
    assert got == expected
    if expected != "singular matrix":
        assert_adjugate(m, *got)


def test_matches_the_bareiss_oracle_on_every_cone(differential_fans):
    for fan in differential_fans:
        for cone in fan.max_cones:
            rows = tuple(fan.rays[i] for i in cone)
            assert kernel.inverse(rows) == as_stored(*bareiss_inverse(rows)), rows


def test_singular_matrix_raises_on_every_call():
    """The kernel keeps no state between calls: a repeat of a singular
    matrix raises again, each time."""
    m = ((1, 2, 3), (4, 5, 6), (5, 7, 9))
    for _ in range(3):
        with pytest.raises(ValueError, match="singular"):
            kernel.inverse(m)
    assert not hasattr(kernel.inverse, "cache_info")
