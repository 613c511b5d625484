import random
from fractions import Fraction

import pytest
from conftest import fraction_in_nonneg_span

from toricfano._simplex import _phase_one, in_nonneg_span


def test_basic_membership():
    cols = [(1, 0), (0, 1)]
    assert in_nonneg_span(cols, (2, 3))
    assert in_nonneg_span(cols, (0, 0))
    assert not in_nonneg_span(cols, (-1, 0))
    assert not in_nonneg_span(cols, (1, -2))


def test_single_column():
    assert in_nonneg_span([(1, 1)], (2, 2))
    assert not in_nonneg_span([(1, 1)], (1, 2))
    assert not in_nonneg_span([(1, 1)], (-1, -1))


def test_no_columns():
    assert in_nonneg_span([], (0, 0, 0))
    assert not in_nonneg_span([], (1, 0, 0))


def test_negative_coordinates_in_columns():
    # (1,1,0) + (0,-1,1) = (1,0,1)
    cols = [(1, 1, 0), (0, -1, 1)]
    assert in_nonneg_span(cols, (1, 0, 1))
    assert not in_nonneg_span(cols, (0, 0, -1))


def test_redundant_columns_and_ties():
    cols = [(1, 0), (1, 0), (2, 0), (0, 1)]
    assert in_nonneg_span(cols, (5, 0))
    assert not in_nonneg_span(cols, (-5, 0))


def test_length_mismatch():
    with pytest.raises(ValueError):
        in_nonneg_span([(1, 0, 0)], (1, 0))


def test_against_random_certificates():
    # feasible instances built forward from random nonnegative combinations;
    # infeasible ones certified by a random functional separating the target;
    # the Fraction oracle must give the same answers
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randint(2, 4)
        m = rng.randint(1, 6)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(m)
        ]
        lam = [rng.randint(0, 3) for _ in range(m)]
        target = tuple(
            sum(lam[j] * cols[j][i] for j in range(m)) for i in range(r)
        )
        assert in_nonneg_span(cols, target)
        assert fraction_in_nonneg_span(cols, target)
    for _ in range(60):
        r = rng.randint(2, 4)
        m = rng.randint(1, 6)
        phi = [rng.randint(-3, 3) for _ in range(r)]
        if not any(phi):
            continue
        cols = []
        while len(cols) < m:
            v = tuple(rng.randint(-4, 4) for _ in range(r))
            if sum(p * x for p, x in zip(phi, v)) >= 0:
                cols.append(v)
        target = None
        for _ in range(50):
            t = tuple(rng.randint(-4, 4) for _ in range(r))
            if sum(p * x for p, x in zip(phi, t)) < 0:
                target = t
                break
        if target is None:
            continue
        # phi >= 0 on every column but phi(target) < 0: unreachable
        assert not in_nonneg_span(cols, target)
        assert not fraction_in_nonneg_span(cols, target)


def test_rational_not_integral_solutions_count():
    # (1,0) needs lam = 1/2 on (2,0): rational feasibility, not integral
    assert in_nonneg_span([(2, 0), (0, 1)], (1, 0))
    assert in_nonneg_span([(3, 3)], (2, 2))
    assert Fraction(2, 3) * 3 == 2


@pytest.mark.parametrize("bound", [1, 4, 10**6])
def test_matches_fraction_oracle(bound):
    # unstructured instances, degenerate ones (zero targets, repeated and
    # zero columns) included; large entries exercise the exact divisions
    rng = random.Random(bound)
    answers = set()
    for _ in range(300):
        r = rng.randint(1, 6)
        m = rng.randint(0, 8)
        cols = [
            tuple(rng.randint(-bound, bound) for _ in range(r)) for _ in range(m)
        ]
        if cols and rng.random() < 0.3:
            cols.append(rng.choice(cols))
        if rng.random() < 0.5:
            lam = [rng.randint(0, 2) for _ in range(len(cols))]
            target = tuple(
                sum(x * col[i] for x, col in zip(lam, cols)) for i in range(r)
            )
        else:
            target = tuple(rng.randint(-bound, bound) for _ in range(r))
        answer = in_nonneg_span(cols, target)
        assert answer == fraction_in_nonneg_span(cols, target)
        answers.add(answer)
    assert answers == {True, False}


def test_pivot_count():
    # two structural columns enter, one per artificial row
    assert _phase_one([(1, 0), (0, 1)], (2, 3)) == (True, 2)
    assert _phase_one([(1, 0), (0, 1)], (0, 0)) == (True, 0)
    # the second column enters on the zero row, then nothing can
    assert _phase_one([(2, 0), (0, 1)], (-1, 0)) == (False, 1)
