"""Both kernel backends against a brute-force determinant oracle."""

import random
from itertools import permutations

import pytest

from toricfano import kernel
from toricfano import _kernel_pure


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


BACKENDS = kernel.available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    kernel.set_backend(request.param)
    yield request.param
    kernel.set_backend(kernel.available_backends()[-1])


def random_matrix(rng, n, bound):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
    )


def test_det_matches_permutation_oracle(backend):
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matrix(rng, n, 9)
            assert kernel.det(m) == permutation_det(m)


def test_det_known_values(backend):
    assert kernel.det(((1, 0), (0, 1))) == 1
    assert kernel.det(((1, 0), (1, 2))) == 2
    assert kernel.det(((1, 1, 1), (1, 0, 0), (0, 1, 0))) == 1
    assert kernel.det(((2, 0), (0, 2))) == 4
    assert kernel.det(((1, 2), (2, 4))) == 0


def test_det_rejects_non_square(backend):
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
    expected = _kernel_pure.det(m)
    assert kernel.det(m) == expected
    adj, d = kernel.inverse(m)
    assert adj == ((big, -1), (-1, big)) and d == expected
    assert_adjugate(m, adj, d)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="fast kernel not built")
def test_backends_agree_on_random_inputs():
    rng = random.Random(303)
    from toricfano import _kernel_fast

    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, 50)
        assert _kernel_fast.det(m) == _kernel_pure.det(m)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="fast kernel not built")
def test_fast_kernel_raises_overflow_not_garbage():
    from toricfano import _kernel_fast

    with pytest.raises(OverflowError):
        _kernel_fast.det(((2 ** 63, 0), (0, 1)))
    with pytest.raises(OverflowError):
        _kernel_fast.det(((2 ** 62 + 1, 0), (0, 1)))
    # 13x13 exceeds the stack bound and must defer, not crash
    n = 13
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    with pytest.raises(OverflowError):
        _kernel_fast.det(eye)
    assert kernel.det(eye) == 1
