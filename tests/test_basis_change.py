"""Every verdict is invariant under a unimodular change of basis.

A fan and its image under a matrix of GL(n, Z), with its rays and cones
listed in another order, define the same toric variety, so every verdict
the package gives must agree on the two.  The matrices here are products
of 8 shears with multipliers up to 3, 50 or 10^6, so the largest copies
carry entries of a dozen digits or more; ``conftest.relabel_fan`` applies signed permutations
only, whose copies keep the original entries.
"""

import random
from collections import Counter

import pytest
from conftest import change_basis, witness_is_valid

from toricfano import (
    analyze_divisor,
    catalog,
    fans_isomorphic,
    is_complete,
    is_extremal,
    is_fano,
    is_smooth,
    point_blowups_are_fano,
    random_corpus,
    walls,
)

GROUPS = {
    "catalog-3": lambda: [entry.fan for entry in catalog(3)],
    "catalog-4": lambda: [entry.fan for entry in catalog(4)],
    "catalog-5": lambda: [entry.fan for entry in catalog(5)],
    "corpus-3": lambda: random_corpus(3, 6, 3, 42),
    "corpus-4": lambda: random_corpus(4, 4, 4, 7),
}


def verdicts(fan):
    """Every basis-free verdict on ``fan``: its point blow-up verdicts by
    cone (as a ray set) and its divisor analyses by ray, in the fan's own
    labels, and the rest as counts."""
    analyses = [analyze_divisor(fan, i) for i in range(len(fan.rays))]
    return {
        "smooth": is_smooth(fan),
        "complete": is_complete(fan),
        "fano": is_fano(fan),
        "point blow-ups": dict(
            zip(map(frozenset, fan.max_cones), point_blowups_are_fano(fan))
        ),
        "divisors": [(a.is_proj_space, a.d) for a in analyses],
        "extremal walls": Counter(is_extremal(fan, w) for w in walls(fan)),
    }


@pytest.mark.parametrize("bound", [3, 50, 10**6])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_verdicts_survive_a_large_unimodular_change_of_basis(group, bound):
    rng = random.Random(f"{group} {bound}")
    largest = 0
    for fan in GROUPS[group]() * 4:
        copy, new_index = change_basis(fan, rng, bound)
        largest = max(largest, *(abs(x) for ray in copy.rays for x in ray))
        witness = fans_isomorphic(fan, copy)
        assert witness is not None and witness_is_valid(witness, fan, copy)
        expected, got = verdicts(fan), verdicts(copy)
        # the original's labels, carried to the copy's
        expected["point blow-ups"] = {
            frozenset(new_index[i] for i in cone): verdict
            for cone, verdict in expected["point blow-ups"].items()
        }
        expected["divisors"] = [
            expected["divisors"][new_index.index(k)] for k in range(len(fan.rays))
        ]
        assert got == expected, fan
    assert largest > bound
