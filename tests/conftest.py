from functools import lru_cache
from itertools import permutations

import pytest

from toricfano import Fan, catalog, projective_space_fan, random_corpus, star_subdivide


@pytest.fixture
def p3():
    return projective_space_fan(3)


@pytest.fixture
def p1xp2():
    # u+- = +-(1,0,0), b1 = (0,1,0), b2 = (0,0,1), b0 = (0,-1,-1)
    return Fan(
        3,
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        ((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    )


@pytest.fixture
def blowup_p3_point(p3):
    """P^3 blown up at the fixed point of <e1,e2,e3>; adds the ray (1,1,1)."""
    return star_subdivide(p3, (0, 1, 2))


@pytest.fixture
def blowup_p3_line(p3):
    """P^3 blown up along the invariant line <e1,e2>; adds the ray (1,1,0)."""
    return star_subdivide(p3, (0, 1))


def wall_by_rays(fan_walls, rays):
    matches = [w for w in fan_walls if w.wall_rays == tuple(sorted(rays))]
    assert len(matches) == 1
    return matches[0]


@pytest.fixture
def get_wall():
    return wall_by_rays


@pytest.fixture(scope="session")
def differential_fans():
    """Fans on which fast paths are compared with the slow ones they replace:
    two corpora and every catalog fan of dimensions 3 to 6."""
    fans = random_corpus(3, 200, 3, 42) + random_corpus(4, 50, 4, 7)
    return fans + tuple(entry.fan for n in range(3, 7) for entry in catalog(n))


@lru_cache(maxsize=None)
def signed_permutations(n):
    """Every permutation of range(n) with its sign, by counting inversions."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def permutation_det(rows):
    """Independent oracle: signed permutation expansion."""
    total = 0
    for perm, sign in signed_permutations(len(rows)):
        prod = sign
        for row, j in zip(rows, perm):
            prod *= row[j]
        total += prod
    return total
