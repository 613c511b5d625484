import pytest
from hypothesis import given, strategies as st

from toricfano import lattice

vectors = st.lists(st.integers(-50, 50), min_size=2, max_size=5).map(tuple)
nonzero_vectors = vectors.filter(any)


def test_primitivize_examples():
    assert lattice.primitivize((2, 4)) == (1, 2)
    assert lattice.primitivize((0, 0, 5)) == (0, 0, 1)
    assert lattice.primitivize((3, 5)) == (3, 5)
    assert lattice.primitivize((-2, -4)) == (-1, -2)


def test_primitivize_zero_vector():
    with pytest.raises(ValueError, match="zero vector has no primitive direction"):
        lattice.primitivize((0, 0))


@given(nonzero_vectors)
def test_primitivize_idempotent(v):
    p = lattice.primitivize(v)
    assert lattice.primitivize(p) == p
    # p is a positive multiple of v: cross products vanish, signs agree
    assert all(p[i] * v[j] == p[j] * v[i] for i in range(len(v)) for j in range(len(v)))
    assert all(a * b >= 0 for a, b in zip(p, v))


def test_quotient_project_coordinate_drop():
    assert lattice.quotient_project((0, 0, 1), (1, 0, 0)) == (1, 0)
    assert lattice.quotient_project((0, 0, 1), (0, 1, 0)) == (0, 1)
    assert lattice.quotient_project((0, 0, 1), (0, 0, 1)) == (0, 0)


def test_quotient_project_images_of_basis_sum_to_zero():
    v = (-1, -1, -1)
    images = [
        lattice.quotient_project(v, (1, 0, 0)),
        lattice.quotient_project(v, (0, 1, 0)),
        lattice.quotient_project(v, (0, 0, 1)),
    ]
    total = tuple(sum(img[k] for img in images) for k in range(2))
    assert total == (0, 0)


def test_quotient_project_rejects_non_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        lattice.quotient_project((2, 4), (1, 0))


@given(nonzero_vectors, st.data())
def test_quotient_project_additive(v, data):
    v = lattice.primitivize(v)
    n = len(v)
    w1 = tuple(data.draw(st.integers(-20, 20)) for _ in range(n))
    w2 = tuple(data.draw(st.integers(-20, 20)) for _ in range(n))
    s = tuple(a + b for a, b in zip(w1, w2))
    p1 = lattice.quotient_project(v, w1)
    p2 = lattice.quotient_project(v, w2)
    assert lattice.quotient_project(v, s) == tuple(a + b for a, b in zip(p1, p2))


@pytest.mark.parametrize(
    "v", [(0, 0, 1), (-1, -1, -1), (2, 3), (2, 3, 5), (6, 10, 15), (1, -2, 2)]
)
def test_quotient_kernel_is_exactly_the_ray(v):
    v = lattice.primitivize(v)
    n = len(v)
    # multiples of v map to zero
    for k in range(-3, 4):
        w = tuple(k * c for c in v)
        assert lattice.quotient_project(v, w) == (0,) * (n - 1)
    # on a small grid, only multiples of v map to zero
    from itertools import product

    for w in product(range(-3, 4), repeat=n):
        if lattice.quotient_project(v, w) == (0,) * (n - 1):
            assert any(
                w == tuple(k * c for c in v) for k in range(-6, 7)
            ), f"{w} is in the kernel but not a multiple of {v}"

