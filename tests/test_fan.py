import gc
import io
import pickle
import random
import re
import sys
import weakref
from contextlib import redirect_stdout
from functools import cmp_to_key
from itertools import combinations
from enum import IntEnum
from math import gcd
from operator import mul

import pytest
from conftest import (
    as_stored,
    bareiss_inverse,
    brute_fans_isomorphic,
    clear_caches,
    count_kernel_calls,
    permutation_det,
    per_entry_analysis,
    relabel_fan,
    wall_relation_holds,
    witness_is_valid,
)

from toricfano import (
    Fan,
    InvalidFanError,
    UnsupportedDimension,
    analyze_divisor,
    anticanonical_divisor,
    blow_down,
    catalog,
    classify_fano_with_divisor,
    fans_isomorphic,
    find_transverse_extremal,
    is_complete,
    is_extremal,
    is_fano,
    is_smooth,
    point_blowup_is_fano,
    point_blowups_are_fano,
    positivity,
    projective_space_fan,
    random_corpus,
    simplify_pair,
    star_subdivide,
    theorem1_check,
    validate,
    walls,
)
from toricfano.classify import p1_bundle_fan
from toricfano.fan import (
    Wall,
    _analyze,
    _child,
    _cone_ms,
    _facet_map,
    _overlaps,
)
from toricfano.intersect import _blowup_verdicts
from toricfano.kernel import coordinates, exchange


P2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


class TestValidate:
    def test_p2_is_valid(self):
        assert validate(P2).valid

    def test_non_primitive_ray(self):
        fan = Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
        report = validate(fan)
        assert not report.valid
        assert any("ray 0 not primitive" in p for p in report.problems)

    def test_duplicate_ray(self):
        fan = Fan(2, ((1, 0), (1, 0), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
        assert any("equal" in p for p in validate(fan).problems)

    def test_wrong_cone_size(self):
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1), (0, 1, 2)))
        assert any(
            "cone 0 has size 2, expected 3" in p for p in validate(fan).problems
        )

    def test_overlapping_interiors_detected(self):
        # (1,1) lies inside the first quadrant: the two cones overlap
        fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2)))
        report = validate(fan)
        assert not report.valid
        assert any("overlapping interiors" in p for p in report.problems)

    def test_non_simplicial_cone(self):
        fan = Fan(2, ((1, 0), (-1, 0)), ((0, 1),))
        assert any("not simplicial" in p for p in validate(fan).problems)

    def test_unused_ray(self):
        fan = Fan(2, ((1, 0), (0, 1), (-1, -1), (0, -1)), ((0, 1), (1, 2), (0, 2)))
        assert any("not used" in p for p in validate(fan).problems)


class TestSmooth:
    def test_p3(self, p3):
        assert is_smooth(p3)

    def test_singular_cone(self):
        fan = Fan(2, ((1, 0), (-1, -2)), ((0, 1),))
        assert not is_smooth(fan)

    def test_p1xp1(self):
        fan = Fan(
            2,
            ((1, 0), (0, 1), (-1, 0), (0, -1)),
            ((0, 1), (1, 2), (2, 3), (0, 3)),
        )
        assert is_smooth(fan)
        assert is_complete(fan)

    def test_invalid_fan_raises(self):
        fan = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
        with pytest.raises(InvalidFanError):
            is_smooth(fan)


class TestComplete:
    def test_p3(self, p3):
        assert is_complete(p3)

    def test_single_cone(self):
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
        assert not is_complete(fan)

    def test_p3_with_cone_deleted(self, p3):
        fan = Fan(3, p3.rays, p3.max_cones[:-1])
        assert not is_complete(fan)


P3_CONES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# every entry point that needs a smooth complete fan, on each way to lack one
NEEDS_SMOOTH_COMPLETE = {
    "walls": walls,
    "is_fano": is_fano,
    "positivity": lambda f: positivity(f, anticanonical_divisor(f)),
    "is_extremal": lambda f: is_extremal(f, Wall((0, 1), 2, 3, (0, 0))),
    "fans_isomorphic": lambda f: fans_isomorphic(f, projective_space_fan(3)),
    "theorem1_check": theorem1_check,
    "analyze_divisor": lambda f: analyze_divisor(f, 0),
    "point_blowup_is_fano": lambda f: point_blowup_is_fano(f, (0, 1, 2)),
    "point_blowups_are_fano": point_blowups_are_fano,
}


@pytest.mark.parametrize("call", sorted(NEEDS_SMOOTH_COMPLETE))
@pytest.mark.parametrize(
    "fan, message",
    [
        (Fan(3, ((2, 0, 0),) + E3[1:] + ((-1, -1, -1),), P3_CONES), "ray 0 not primitive"),
        (Fan(3, E3 + ((-1, -1, -2),), P3_CONES), "fan must be smooth"),
        (Fan(3, E3, ((0, 1, 2),)), "fan must be complete"),
    ],
    ids=["not-primitive", "not-smooth", "one-cone"],
)
def test_validity_errors_are_typed_and_exact(fan, message, call):
    with pytest.raises(InvalidFanError) as err:
        NEEDS_SMOOTH_COMPLETE[call](fan)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "fan, message",
    [
        (Fan(3, ((2, 0, 0),) + E3[1:] + ((-1, -1, -1),), P3_CONES), "ray 0 not primitive"),
        (Fan(3, E3 + ((-1, -1, -2),), P3_CONES), "fan must be smooth"),
    ],
    ids=["not-primitive", "not-smooth"],
)
def test_blow_down_needs_a_valid_smooth_fan(fan, message):
    with pytest.raises(InvalidFanError) as err:
        blow_down(fan, 3, (0, 1, 2))
    assert str(err.value) == message


def test_blow_down_needs_no_complete_fan():
    """The surgeries need a smooth fan, not a complete one: on the one-cone
    fan every center blows up and back down to the fan itself."""
    fan = Fan(3, E3, ((0, 1, 2),))
    assert is_smooth(fan) and not is_complete(fan)
    for center in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        back = blow_down(star_subdivide(fan, center), 3, center)
        assert back == fan and back.max_cones == fan.max_cones
        assert not is_complete(back)
        assert _analyze(back) == _analyze(fan)


@pytest.mark.parametrize(
    "fan, ray, error, message",
    [
        (
            projective_space_fan(2),
            0,
            UnsupportedDimension,
            "divisor fans need ambient dimension at least 3",
        ),
        (projective_space_fan(3), 4, ValueError, "ray index out of range"),
        (projective_space_fan(3), -1, ValueError, "ray index out of range"),
    ],
    ids=["dim-2", "ray-past-end", "ray-negative"],
)
def test_divisor_argument_errors_are_exact(fan, ray, error, message):
    with pytest.raises(ValueError) as err:
        analyze_divisor(fan, ray)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("ray", [2.5, 1.0, True, "1"], ids=repr)
def test_divisor_ray_index_must_be_an_int(p3, ray):
    """Each call raises, also after the int with the same value was asked:
    the cache is typed, so no entry of 1 answers for 1.0 or True."""
    assert analyze_divisor(p3, 1).ray_index == 1
    for _ in range(2):
        with pytest.raises(TypeError, match="ray index must be an integer"):
            analyze_divisor(p3, ray)
    # and through every caller that takes a ray index
    for call in (find_transverse_extremal, simplify_pair, classify_fano_with_divisor):
        with pytest.raises(TypeError, match="ray index must be an integer"):
            call(p3, ray)


P2_CONES = ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize(
    "dim, rays, cones, message",
    [
        (2, ((1.9, 0), (0, 1), (-1, -1)), P2_CONES, "ray 0 coordinate must be an integer, got 1.9"),
        (2, ((1, 0), (0, True), (-1, -1)), P2_CONES, "ray 1 coordinate must be an integer, got True"),
        (2, ((1, 0), (0, 1), (-1, "-1")), P2_CONES, "ray 2 coordinate must be an integer, got '-1'"),
        (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2.0), (1, 2)), "cone 1 entry must be an integer, got 2.0"),
        (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (True, 2)), "cone 2 entry must be an integer, got True"),
        (2.0, ((1, 0), (0, 1), (-1, -1)), P2_CONES, "dim must be an integer, got 2.0"),
        (2, ((1, 0), (0, 1), (-1, -1.0)), P2_CONES, "ray 2 coordinate must be an integer, got -1.0"),
        (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, True)), "cone 2 entry must be an integer, got True"),
    ],
    ids=[
        "float-ray",
        "bool-ray",
        "str-ray",
        "float-cone",
        "bool-cone",
        "float-dim",
        "float-last-ray-entry",
        "bool-last-cone-entry",
    ],
)
def test_non_integers_are_rejected_not_truncated(dim, rays, cones, message):
    with pytest.raises(TypeError) as err:
        Fan(dim, rays, cones)
    assert str(err.value) == message


def test_int_subclasses_are_accepted():
    # an int subclass is an integer: the fan keeps it, as require_int does
    index = IntEnum("Index", [("ZERO", 0), ("ONE", 1), ("TWO", 2)])
    fan = Fan(2, ((1, 0), (0, index.ONE), (-1, -1)), ((index.ZERO, 1), (0, 2), (1, 2)))
    assert fan == Fan(2, ((1, 0), (0, 1), (-1, -1)), P2_CONES)
    assert fan.rays[1][1] is index.ONE and fan.max_cones[0][0] is index.ZERO
    assert validate(fan).valid


def test_integer_sequences_become_tuples():
    fan = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [0, 2], [2, 1]])
    assert fan == Fan(2, ((1, 0), (0, 1), (-1, -1)), P2_CONES)


@pytest.mark.parametrize(
    "center, message",
    [
        ((0.9, 1.7), "center entry 0 must be an integer, got 0.9"),
        ((0, True), "center entry 1 must be an integer, got True"),
        ((0, 1, "2"), "center entry 2 must be an integer, got '2'"),
    ],
    ids=["float", "bool", "str"],
)
def test_star_subdivide_rejects_non_integer_centers(center, message):
    # int() would have blown up (0, 1) from (0.9, 1.7) and read True as 1
    with pytest.raises(TypeError) as err:
        star_subdivide(projective_space_fan(3), center)
    assert str(err.value) == message


def test_star_subdivide_accepts_any_integer_sequence():
    p3 = projective_space_fan(3)
    assert star_subdivide(p3, [1, 0, 1]) == star_subdivide(p3, (0, 1))


def reference_check(fan):
    """(problems, complete) with the overlap LP run on every cone pair.

    complete is the earlier definition: every facet in exactly two cones
    and a connected wall-adjacency graph; None when the fan is invalid.
    """
    problems = [p for p in validate(fan).problems if "overlapping" not in p]
    if not problems:
        problems = _overlaps(fan)
    if problems:
        return problems, None
    facets = {}
    for ci, cone in enumerate(fan.max_cones):
        for drop in cone:
            facets.setdefault(tuple(i for i in cone if i != drop), []).append(ci)
    if any(len(cones) != 2 for cones in facets.values()):
        return problems, False
    reached, frontier = {0}, [0]
    while frontier:
        ci = frontier.pop()
        for cones in facets.values():
            if ci in cones:
                (other,) = set(cones) - {ci}
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    return problems, len(reached) == len(fan.max_cones)


def mutations(fan, rng):
    """The fan, one cone dropped, a ray negated, a cone duplicated, and one
    cone ray replaced by another ray."""
    ci = rng.randrange(len(fan.max_cones))
    ri = rng.randrange(len(fan.rays))
    cone = fan.max_cones[ci]
    swap = rng.choice([i for i in range(len(fan.rays)) if i not in cone])
    replaced = tuple(swap if i == cone[0] else i for i in cone)
    negated = tuple(
        tuple(-x for x in r) if i == ri else r for i, r in enumerate(fan.rays)
    )
    before, after = fan.max_cones[:ci], fan.max_cones[ci + 1 :]
    return (
        fan,
        Fan(fan.dim, fan.rays, before + after),
        Fan(fan.dim, negated, fan.max_cones),
        Fan(fan.dim, fan.rays, fan.max_cones + (cone,)),
        Fan(fan.dim, fan.rays, before + (replaced,) + after),
    )


# every facet pairs with apexes on opposite sides, yet the eight cones
# wind twice around the origin
DOUBLE_COVER = Fan(
    2,
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)),
)
# every facet lies in two cones, and the ray sum of cone 0 in no other
# cone, but the cones through (0, 1) fold back onto the first quadrant
FOLDED = Fan(
    2,
    ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)),
    ((3, 4), (0, 1), (1, 2), (2, 3), (0, 4)),
)


class TestCertificateAgainstOverlapLP:
    def assert_agrees(self, fan):
        problems, complete = reference_check(fan)
        assert list(validate(fan).problems) == problems, fan
        if complete is None:
            with pytest.raises(InvalidFanError):
                is_complete(fan)
        else:
            assert is_complete(fan) == complete, fan

    def test_corpora_catalog_and_mutations(self):
        fans = list(random_corpus(3, 60, 3, 2024))
        fans += random_corpus(4, 20, 4, 7)
        fans += [entry.fan for n in (3, 4, 5) for entry in catalog(n)]
        rng = random.Random(2000)
        outcomes = set()
        for fan in fans:
            for mutated in mutations(fan, rng):
                self.assert_agrees(mutated)
                report = validate(mutated)
                outcomes.add(
                    (report.valid, any("overlapping" in p for p in report.problems))
                )
        # valid fans, overlapping ones, and ones with other problems all occur
        assert outcomes >= {(True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("fan, count", [(DOUBLE_COVER, 8), (FOLDED, 3)])
    def test_multiple_covers_report_their_overlaps(self, fan, count):
        self.assert_agrees(fan)
        overlaps = [p for p in validate(fan).problems if "overlapping" in p]
        assert len(overlaps) == count

    def test_valid_fans_skip_the_overlap_lp(self, monkeypatch):
        import toricfano.fan

        def no_lp(columns, target):
            raise AssertionError("the overlap LP ran on a valid fan")

        monkeypatch.setattr(toricfano.fan, "in_nonneg_span", no_lp)
        # negating every ray gives valid fans no other test has validated
        for fan in random_corpus(4, 10, 4, 7):
            flipped = Fan(fan.dim, [[-x for x in r] for r in fan.rays], fan.max_cones)
            assert validate(flipped).valid and is_complete(flipped)


def corrupt(fan, rng):
    """A copy of ``fan`` with one seeded entry fault, and its kind."""
    rays, cones = list(fan.rays), [list(c) for c in fan.max_cones]
    n, dim = len(rays), fan.dim
    ri = rng.randrange(n)
    # a cone an earlier fault left whole, so that its entries can be read
    cone = rng.choice(
        [c for c in cones if len(c) == dim and all(0 <= i < n for i in c)]
    )
    k = rng.randrange(dim)
    kind = rng.choice(
        (
            "repeated index",
            "out-of-range index",
            "negative index",
            "duplicate cone",
            "short cone",
            "equal rays",
            "wrong dimension",
            "zero ray",
            "non-primitive ray",
            "unused ray",
            "singular cone",
            "walked singular cone",
        )
    )
    if kind == "repeated index":
        cone[k] = cone[(k + 1) % dim]
    elif kind == "out-of-range index":
        cone[k] = n + rng.randrange(3)
    elif kind == "negative index":
        cone[k] = -1 - rng.randrange(3)
    elif kind == "duplicate cone":
        cones.insert(rng.randrange(len(cones) + 1), list(cone))
    elif kind == "short cone":
        del cone[k]
    elif kind == "equal rays":
        rays[ri] = rays[rng.randrange(n)]
    elif kind == "wrong dimension":
        rays[ri] = rays[ri][:-1] if rng.random() < 0.5 else rays[ri] + (1,)
    elif kind == "zero ray":
        rays[ri] = (0,) * dim
    elif kind == "non-primitive ray":
        rays[ri] = tuple(rng.choice((2, 3, -2)) * x for x in rays[ri])
    elif kind == "unused ray":
        at = rng.randrange(n + 1)
        rays.insert(at, tuple(rng.randint(-5, 5) for _ in range(dim)))
        cones = [[i + (i >= at) for i in c] for c in cones]
    elif kind == "singular cone":
        # the cone's first ray becomes the sum of its next two
        rays[cone[0]] = tuple(a + b for a, b in zip(rays[cone[1]], rays[cone[2]]))
    else:
        # a new ray, the sum of the next two, takes the first one's place in
        # a cone other than cone 0: only the walk from the root meets it
        cone = rng.choice(
            [c for c in cones[1:] if len(c) == dim and all(0 <= i < n for i in c)]
        )
        cone[0] = len(rays)
        rays.append(tuple(a + b for a, b in zip(rays[cone[1]], rays[cone[2]])))
    return Fan(dim, rays, cones), kind


class TestBulkEntryChecks:
    def test_match_per_entry_checks_on_corrupted_fans(self, differential_fans):
        """Bulk entry checks name the same problems, in the same order, as
        the per-entry loops; smoothness and completeness agree too."""
        rng = random.Random(1414)
        kinds, messages = set(), set()
        for fan in differential_fans[::3]:
            for _ in range(3):
                bad = fan
                for _ in range(rng.choice((1, 1, 2))):
                    bad, kind = corrupt(bad, rng)
                    kinds.add(kind)
                problems, smooth, complete = per_entry_analysis(bad)
                messages.update(re.sub(r"\d+", "#", p) for p in problems)
                assert validate(bad).problems == problems, bad
                assert _analyze(bad)[1:3] == (smooth, complete), bad
                if problems:
                    with pytest.raises(InvalidFanError):
                        is_smooth(bad)
                    with pytest.raises(InvalidFanError):
                        is_complete(bad)
                else:
                    assert (is_smooth(bad), is_complete(bad)) == (smooth, complete)
        assert len(kinds) == 12
        # every entry problem is named at least once, and overlaps too
        assert len(messages) == 10, messages

    @pytest.mark.parametrize(
        "cones, expected",
        [
            # two cones of the wrong size whose ray sets are equal
            (
                ((0, 0), (0,), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
                (
                    "cone 0 has size 2, expected 3",
                    "cone 1 has size 1, expected 3",
                    "cones 0 and 1 have the same rays",
                ),
            ),
            # two cones with repeated indices whose ray sets are equal
            (
                ((0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
                (
                    "cone 0 has repeated or out-of-range ray indices",
                    "cone 1 has repeated or out-of-range ray indices",
                    "cones 0 and 1 have the same rays",
                ),
            ),
            # a negative index and an index one past the last ray
            (
                ((-1, 0, 1), (0, 1, 4), (0, 2, 3), (1, 2, 3)),
                (
                    "cone 0 has repeated or out-of-range ray indices",
                    "cone 1 has repeated or out-of-range ray indices",
                ),
            ),
        ],
    )
    def test_match_per_entry_checks_on_chosen_cones(self, p3, cones, expected):
        fan = Fan(3, p3.rays, cones)
        assert per_entry_analysis(fan) == (expected, False, False)
        assert validate(fan).problems == expected
        assert _analyze(fan)[1:3] == (False, False)

    def test_match_per_entry_checks_on_valid_fans(self, differential_fans):
        for fan in differential_fans:
            assert per_entry_analysis(fan) == (validate(fan).problems, True, True)


def cramer_walls(fan):
    """Reference walls: each apex_b written in the basis of apex_a's cone
    by Cramer's rule, one permutation-expansion determinant per coordinate
    (the rays are rows; a determinant equals its transpose's)."""
    facets = {}
    for cone in fan.max_cones:
        for apex in cone:
            facets.setdefault(tuple(i for i in cone if i != apex), []).append(apex)
    out = []
    for facet in sorted(facets):
        apex_a, apex_b = sorted(facets[facet])
        basis = tuple(sorted(facet + (apex_a,)))
        rows = [fan.rays[i] for i in basis]
        den = permutation_det(rows)
        coords = {}
        for k, ray in enumerate(basis):
            num = permutation_det(rows[:k] + [fan.rays[apex_b]] + rows[k + 1 :])
            assert num % den == 0
            coords[ray] = num // den
        assert coords[apex_a] == -1
        out.append(Wall(facet, apex_a, apex_b, tuple(-coords[i] for i in facet)))
    return tuple(out)


class TestWalls:
    def test_match_cramer_reference(self, differential_fans):
        for fan in differential_fans:
            assert walls(fan) == cramer_walls(fan), fan

    def test_relations_match_the_bareiss_oracle(self, differential_fans):
        """On every fan of the two corpora and of ``catalog(3..6)``: C n / 2
        walls, one per facet, each relation exact, and its coefficients
        those of apex_b written in the basis of the cone holding apex_a,
        read from the Bareiss oracle's inverse of that cone."""
        checked = 0
        for fan in differential_fans:
            ws = walls(fan)
            assert 2 * len(ws) == len(fan.max_cones) * fan.dim, fan
            facets = {c[:k] + c[k + 1 :] for c in fan.max_cones for k in range(fan.dim)}
            assert [w.wall_rays for w in ws] == sorted(facets), fan
            cones = set(fan.max_cones)
            for w in ws:
                assert wall_relation_holds(fan, w), (fan, w)
                cone = tuple(sorted(w.wall_rays + (w.apex_a,)))
                assert cone in cones, (fan, w)
                cols, det = as_stored(*bareiss_inverse([fan.rays[i] for i in cone]))
                assert det in (1, -1), (fan, cone)
                u = fan.rays[w.apex_b]
                coords = {i: sum(map(mul, u, col)) for i, col in zip(cone, cols)}
                assert coords.pop(w.apex_a) == -1, (fan, w)
                assert w.coeffs == tuple(-coords[i] for i in w.wall_rays), (fan, w)
                checked += 1
        assert checked == 4_848

    def test_p3_walls(self, p3, get_wall):
        ws = walls(p3)
        assert len(ws) == 6
        w = get_wall(ws, (0, 1))  # {e1, e2}
        assert (w.apex_a, w.apex_b) == (2, 3)
        assert w.coeffs == (1, 1)
        assert all(wall_relation_holds(p3, w) for w in ws)

    def test_point_blowup_walls(self, blowup_p3_point, get_wall):
        ws = walls(blowup_p3_point)
        assert len(ws) == 9
        w = get_wall(ws, (0, 4))  # {e1, w}
        assert (w.apex_a, w.apex_b) == (1, 2)
        # relation e2 + e3 - w + e1 = 0
        assert dict(zip(w.wall_rays, w.coeffs)) == {0: 1, 4: -1}

    def test_fiber_wall_of_product(self, p1xp2, get_wall):
        ws = walls(p1xp2)
        w = get_wall(ws, (2, 3))  # {b1, b2}
        assert (w.apex_a, w.apex_b) == (0, 1)
        assert w.coeffs == (0, 0)

    def test_wall_incidence_count(self, p3, blowup_p3_point, p1xp2):
        for fan in (p3, blowup_p3_point, p1xp2):
            assert sum(fan.dim for _ in fan.max_cones) == 2 * len(walls(fan))

    def test_walls_require_completeness(self):
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
        with pytest.raises(InvalidFanError):
            walls(fan)


class TestStarSubdivide:
    def test_point_center(self, p3, blowup_p3_point):
        assert len(blowup_p3_point.rays) == 5
        assert len(blowup_p3_point.max_cones) == 6
        assert blowup_p3_point.rays[4] == (1, 1, 1)
        assert is_smooth(blowup_p3_point)
        assert is_complete(blowup_p3_point)

    def test_curve_center(self, blowup_p3_line):
        assert len(blowup_p3_line.rays) == 5
        assert len(blowup_p3_line.max_cones) == 6
        assert blowup_p3_line.rays[4] == (1, 1, 0)

    def test_product_center(self, p1xp2):
        result = star_subdivide(p1xp2, (0, 2))
        assert result.rays[5] == (1, 1, 0)
        # the two cones through {u+, b1} split in two each
        assert len(result.max_cones) == 8

    def test_rejects_small_center(self, p3):
        with pytest.raises(ValueError, match="at least 2"):
            star_subdivide(p3, (0,))

    def test_rejects_non_face(self, p1xp2):
        # {u+, u-} is not contained in any cone
        with pytest.raises(ValueError, match="not a face"):
            star_subdivide(p1xp2, (0, 1))

    def test_preserves_smooth_complete(self, p3):
        rng = random.Random(5)
        fan = p3
        for _ in range(4):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            size = rng.randint(2, 3)
            fan = star_subdivide(fan, tuple(rng.sample(cone, size)))
            assert is_smooth(fan)
            assert is_complete(fan)


def check_record(child, parent_inverses):
    """What a surgery recorded stays lean: the parent's inverse tuple
    itself, not a copy, the parent's per-cone m-vectors, each the sum of
    its cone's stored columns, and a plan of one entry per cone, each a
    parent cone index or the exchange ``(ci, k, mu, to)``, the
    ``kernel.exchange`` arguments that follow a parent cone's ``(cols,
    det)``, with mu a tuple of n ints; no Fan and no callable anywhere."""
    complete, inverses, ms, plan = child._origin
    assert inverses is parent_inverses
    assert type(ms) is tuple
    assert ms == tuple(tuple(map(sum, zip(*cols))) for cols, _ in inverses)
    assert type(plan) is tuple and len(plan) == len(child.max_cones)
    for p in plan:
        assert type(p) is int or (type(p) is tuple and len(p) == 4), p
        if type(p) is tuple:
            mu = p[2]
            assert type(mu) is tuple and len(mu) == child.dim, p
            assert all(type(x) is int for x in mu), p
    moved = [x for p in plan if type(p) is tuple for x in p]
    for x in (complete, inverses, ms, plan, *plan, *moved):
        assert not isinstance(x, Fan) and not callable(x), x


def verdicts_from_ms(fan, ms):
    """The slow statement of the point blow-up verdicts, from the m-vectors
    ``ms`` of ``fan``'s cones: with t the largest <m, v_j> over the rays
    outside a cone, the fan is Fano when every t < 1, and a cone's point
    blow-up is Fano when the fan is and its t < 2 - n."""
    tops = [
        max(sum(map(mul, m, ray)) for j, ray in enumerate(fan.rays) if j not in cone)
        for cone, m in zip(fan.max_cones, ms)
    ]
    fano = max(tops) < 1
    return fano, tuple(fano and top < 2 - fan.dim for top in tops)


def check_planned_verdicts(child, own_inverses):
    """Differential test of the verdicts a surgery's output reads through
    its plan, its m-vectors read off its parent's, against those of its
    parentless rebuild, each cone's m the sum of the columns of its own
    inverse, from ``own_inverses``.  They are equal, the fast path asks for
    no validity pass, and its Fano verdict is ``is_fano``'s.  An incomplete
    output has no verdict."""
    calls = _analyze.cache_info()
    if not child._origin[0]:
        with pytest.raises(InvalidFanError, match="fan must be complete"):
            _blowup_verdicts.__wrapped__(child)
        return
    verdicts = _blowup_verdicts.__wrapped__(child)
    after = _analyze.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses), child
    ms = [tuple(map(sum, zip(*cols))) for cols, _ in own_inverses]
    # uncached: an equal fan met earlier would answer from the cache
    assert list(_cone_ms.__wrapped__(child)) == ms, child
    assert verdicts == verdicts_from_ms(child, ms), child
    assert verdicts[0] == is_fano(child), child


def check_trusted_child(child):
    """A surgery's child, built without ``Fan``'s entry checks, against its
    checked copy: equal, with the same hash, every cone sorted, every entry
    a plain int, and a pickle round trip, which runs the checks, equal."""
    checked = Fan(child.dim, child.rays, child.max_cones)
    assert child == checked and hash(child) == hash(checked), child
    assert all(list(cone) == sorted(cone) for cone in child.max_cones), child
    assert type(child.rays) is tuple and type(child.max_cones) is tuple
    for entries in child.rays + child.max_cones:
        assert type(entries) is tuple
        assert all(type(x) is int for x in entries), child
    assert pickle.loads(pickle.dumps(child)) == child


def check_inherited_inverses(child, parent_inverses):
    """A star subdivision's validity pass, which reads its inverses off its
    parent's, against the kernel's pass on the parentless rebuild, and each
    derived inverse, that of a cone through the new ray, against the
    Bareiss oracle.  ``parent_inverses`` is the parent's cached
    ``_analyze(parent)[3]`` when the surgery ran."""
    rebuild = Fan(child.dim, child.rays, child.max_cones)
    assert rebuild._origin is None
    check_trusted_child(child)
    check_record(child, parent_inverses)
    assert rebuild == child
    assert hash(rebuild) == hash(child)
    assert repr(rebuild) == repr(child)
    full = _analyze.__wrapped__(rebuild)
    check_planned_verdicts(child, full[3])
    result = _analyze(child)
    assert result == full, child
    new_index = len(child.rays) - 1
    for cone, inverse in zip(child.max_cones, result[3]):
        if cone[-1] == new_index:
            rows = tuple(child.rays[i] for i in cone)
            assert inverse == as_stored(*bareiss_inverse(rows)), (child, cone)


def faces(fan):
    """Every face of size at least 2 of a maximal cone, each once."""
    return sorted(
        {
            face
            for cone in fan.max_cones
            for size in range(2, fan.dim + 1)
            for face in combinations(cone, size)
        }
    )


class TestInheritedInverses:
    def test_every_center_of_every_fan(self, differential_fans):
        """Every face of size at least 2 is a center, on each fan, and the
        blow-down along it undoes the blow-up: the same fan, cone order
        included, whose pass, read off the child's, is the parent's, and
        whose blow-up verdicts, read through its plan, are those of the
        parent's inverses too.  Every blow-down moves a cone by the
        exchange whose new row, the highest center ray, is the removed ray
        at k less the s - 1 center rays the cone holds."""
        subdivided = 0
        for fan in differential_fans:
            parent = _analyze(fan)
            for center in faces(fan):
                child = star_subdivide(fan, center)
                check_inherited_inverses(child, parent[3])
                back = blow_down(child, len(fan.rays), center)
                check_trusted_child(back)
                assert back == fan and back.max_cones == fan.max_cones
                moved = [p for p in back._origin[3] if type(p) is tuple]
                assert moved
                for _, k, mu, _ in moved:
                    assert mu[k] == 1 and mu.count(-1) == len(center) - 1, mu
                    assert mu.count(0) == fan.dim - len(center), mu
                check_planned_verdicts(back, parent[3])
                assert _analyze(back) == parent, (fan, center)
                subdivided += 1
            clear_caches()
        assert subdivided == 11_235

    def test_non_complete_fan(self, p3):
        # P^3 without the cone (1, 2, 3): smooth, every ray used, not complete
        fan = Fan(3, p3.rays, p3.max_cones[:-1])
        assert is_smooth(fan) and not is_complete(fan)
        for center in faces(fan):
            child = star_subdivide(fan, center)
            assert not is_complete(child)
            check_inherited_inverses(child, _analyze(fan)[3])

    def test_depth_three_chains_analysed_cold(self, differential_fans):
        """Caches are emptied between building a chain and analysing it, so
        each fan's pass reads only what its surgery recorded, with no
        ancestor analysed again."""
        rng = random.Random(1515)
        for fan in differential_fans[::5]:
            chain = [fan]
            for _ in range(3):
                cone = rng.choice(chain[-1].max_cones)
                center = rng.sample(cone, rng.randint(2, fan.dim))
                chain.append(star_subdivide(chain[-1], center))
            parents = [_analyze(f)[3] for f in chain[:-1]]
            clear_caches()
            check_inherited_inverses(chain[-1], parents[-1])
            for child, inverses in zip(chain[1:-1], parents):
                check_inherited_inverses(child, inverses)

    def test_long_chain_analysed_cold_does_not_recurse(self, p3):
        """A cold pass needs no ancestor, so a chain of 60 blow-ups analysed
        cold stays well within 100 frames of the test."""
        rng = random.Random(1516)
        fan = p3
        for _ in range(60):
            center = rng.sample(rng.choice(fan.max_cones), 3)
            parent, fan = fan, star_subdivide(fan, center)
        inverses = _analyze(parent)[3]
        clear_caches()
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert is_smooth(fan) and is_complete(fan)
        finally:
            sys.setrecursionlimit(limit)
        check_inherited_inverses(fan, inverses)


def check_walked_inverses(fan, calls):
    """The full pass of ``fan`` rebuilt with no parent, uncached: a valid
    complete fan, one kernel call, and every cone's inverse the Bareiss
    oracle's."""
    before = len(calls)
    report, smooth, complete, inverses = _analyze.__wrapped__(
        Fan(fan.dim, fan.rays, fan.max_cones)
    )
    assert report.valid and complete, fan
    assert len(calls) == before + 1, fan
    expected = [
        as_stored(*bareiss_inverse([fan.rays[i] for i in cone]))
        for cone in fan.max_cones
    ]
    assert list(inverses) == expected, fan
    assert smooth == all(det in (1, -1) for _, det in expected)


def by_angle(a, b):
    """Order of two nonzero plane vectors by angle in [0, 2 pi), exactly."""
    half_a, half_b = a[1] < 0 or (a[1] == 0 and a[0] < 0), b[1] < 0 or (
        b[1] == 0 and b[0] < 0
    )
    if half_a != half_b:
        return 1 if half_a else -1
    return b[0] * a[1] - a[0] * b[1]


def angle_fan(rng, count):
    """A complete 2-dimensional fan, usually not smooth: ``count`` distinct
    primitive rays sorted by angle, each consecutive pair a cone, every
    turn between them less than pi, and the cones shuffled."""
    while True:
        rays = set()
        while len(rays) < count:
            ray = (rng.randint(-5, 5), rng.randint(-5, 5))
            if gcd(*ray) == 1:
                rays.add(ray)
        rays = sorted(rays, key=cmp_to_key(by_angle))
        turns = zip(rays, rays[1:] + rays[:1])
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in turns):
            cones = [(i, (i + 1) % count) for i in range(count)]
            rng.shuffle(cones)
            return Fan(2, tuple(rays), tuple(cones))


def weighted_projective_fan(weights):
    """The fan of weighted projective space: e_1 .. e_n and minus
    ``weights``, which have gcd 1; the cone missing e_i has det +-w_i."""
    n = len(weights)
    rays = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    rays.append(tuple(-w for w in weights))
    return Fan(n, tuple(rays), tuple(combinations(range(n + 1), n)))


class TestWalkedInverses:
    """The full pass asks the kernel for one cone of a complete fan and
    reads every other cone's inverse off a neighbour's, across their shared
    facet; each is compared with the Bareiss oracle."""

    def test_every_rebuilt_fan(self, differential_fans, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        for fan in differential_fans:
            check_walked_inverses(fan, calls)
        assert len(calls) == len(differential_fans)
        assert sum(len(fan.max_cones) for fan in differential_fans) == 2_721

    def test_relabelled_copies(self, differential_fans, monkeypatch):
        """Shuffled cones put another cone at the root and walk other trees."""
        calls = count_kernel_calls(monkeypatch)
        rng = random.Random(2222)
        for fan in differential_fans:
            check_walked_inverses(relabel_fan(fan, rng), calls)

    def test_non_smooth_fans_divide_exactly(self, monkeypatch):
        """Walk steps from a cone of |det| > 1 divide by it, exactly.  The
        kernel's own exchanges, inverting a root, are not recorded."""
        import toricfano.kernel

        calls = count_kernel_calls(monkeypatch)
        inverse, dets, rooting = toricfano.kernel.inverse, [], []

        def recording_exchange(cols, det, *args):
            if not rooting:
                dets.append(det)
            return exchange(cols, det, *args)

        def rooting_inverse(rows):
            rooting.append(rows)
            try:
                return inverse(rows)
            finally:
                rooting.pop()

        monkeypatch.setattr(toricfano.kernel, "exchange", recording_exchange)
        monkeypatch.setattr(toricfano.kernel, "inverse", rooting_inverse)
        rng = random.Random(2323)
        fans = [angle_fan(rng, rng.randint(3, 12)) for _ in range(200)]
        for weights in ((1, 1, 2), (1, 2, 3), (2, 3, 5), (1, 1, 1, 3), (1, 2, 3, 5)):
            fan = weighted_projective_fan(weights)
            fans += [fan] + [relabel_fan(fan, rng) for _ in range(6)]
        for fan in fans:
            check_walked_inverses(fan, calls)
        assert not all(is_smooth(fan) for fan in fans)
        assert any(det not in (1, -1) for det in dets)
        assert sum(abs(det) > 1 for det in dets) > 100

    def test_a_singular_cone_is_left_to_the_kernel(self, p3, monkeypatch):
        """A cone the walk finds singular (mu_k = 0) is not reached; the
        kernel, asked for it as the next root, names it."""
        calls = count_kernel_calls(monkeypatch)
        # ray 4, the sum of rays 1 and 3, takes ray 0's place in cone 1
        fan = Fan(3, p3.rays + ((-1, 0, -1),), ((0, 1, 2), (1, 3, 4), (0, 2, 3), (1, 2, 3)))
        assert validate(fan).problems == ("cone 1 is not simplicial",)
        assert [sorted(map(fan.rays.index, rows)) for rows in calls] == [[0, 1, 2], [1, 3, 4]]

    def test_exchange_matches_the_oracle_and_the_m_rule(self):
        """The exchange of row k for a new row, then moved to ``to``,
        matches the Bareiss oracle on the exchanged, moved matrix, in the
        stored form: for a surgery's row operation, row k plus c times the
        other rows in ``rows``, which is mu = |det| (e_k + c sum_rows e_j),
        and for an arbitrary new row u.  When |det| = 1 and mu_k = +-1 the
        sum of the new columns, the new cone's m-vector, is the rule
        ``_cone_ms`` applies, m - ((sum mu - 1) / mu_k) C_k.  Half the
        matrices are unimodular by construction, so both branches of the
        exchange run often."""
        rng = random.Random(2424)
        checked = unimodular = flipped = 0
        while checked < 2_000 or unimodular < 3_000:
            n = rng.randint(2, 5)
            if rng.random() < 0.5:
                a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            else:
                # row additions on a signed identity: det = +-1
                a = [[int(i == j) for j in range(n)] for i in range(n)]
                a[0][0] = rng.choice((1, -1))
                for _ in range(2 * n):
                    i, j = rng.sample(range(n), 2)
                    c = rng.choice((1, -1, 2, -2))
                    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
                rng.shuffle(a)
            try:
                cols, det = as_stored(*bareiss_inverse(a))
            except ValueError:
                continue
            k, to, c = rng.randrange(n), rng.randrange(n), rng.choice((1, -1, 2, -3))
            rows = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            lam = [int(j == k) + c * (j in rows and j != k) for j in range(n)]
            operated = [sum(x * row[i] for x, row in zip(lam, a)) for i in range(n)]
            # an arbitrary new row: the general exchange
            u = [rng.randint(-4, 4) for _ in range(n)]
            cases = [([abs(det) * x for x in lam], operated)]
            cases.append(([sum(map(mul, u, col)) for col in cols], u))
            for mu, new in cases:
                if not mu[k]:
                    continue
                exchanged = a[:k] + a[k + 1 :]
                exchanged.insert(to, new)
                got = exchange(cols, det, k, mu, to)
                assert got == as_stored(*bareiss_inverse(exchanged))
                if abs(det) == 1 and mu[k] in (1, -1):
                    m = tuple(map(sum, zip(*cols)))
                    times = (sum(mu) - 1) // mu[k]
                    rule = tuple(x - times * y for x, y in zip(m, cols[k]))
                    assert tuple(map(sum, zip(*got[0]))) == rule, (a, mu, k)
                    unimodular += 1
                    flipped += mu[k] == -1
            checked += abs(det) > 1
        assert flipped > 100

    def test_a_plan_of_wall_crossings_reads_each_cone_back(self, differential_fans):
        """The plan reader and the m-rule of ``_cone_ms`` hold for any
        exchange on a unimodular cone, not only a surgery's, whose mu has
        mu_k = 1 and entries in {-1, 0, 1}: a child recording each fan's
        own cones, each read off the cone across its facet opposite
        position ci mod n, with mu the far apex's coordinates there, has
        the fan's own inverses and m-vectors.  Across a wall of a smooth
        complete fan mu_k = -1."""
        crossed = 0
        for fan in differential_fans[::3]:
            inverses = _analyze(fan)[3]
            facets, plan = _facet_map(fan), []
            for cb, cone in enumerate(fan.max_cones):
                kb = cb % fan.dim
                pair = facets[cone[:kb] + cone[kb + 1 :]]
                ca, ka = pair[0] if pair[1][0] == cb else pair[1]
                mu = tuple(coordinates(fan.rays[cone[kb]], inverses[ca][0]))
                assert mu[ka] == -1, (fan, cone)
                plan.append((ca, ka, mu, kb))
                crossed += 1
            child = _child(fan, fan.rays, fan.max_cones, plan)
            assert _cone_ms.__wrapped__(child) == tuple(
                tuple(map(sum, zip(*cols))) for cols, _ in inverses
            ), fan
            assert _analyze.__wrapped__(child)[3] == inverses, fan
        assert crossed == 915

    def test_an_inexact_exchange_raises(self):
        # not |det| A^-1 for a det of 2: the exchange leaves a remainder
        with pytest.raises(ArithmeticError, match="not exact"):
            exchange(((1, 0), (0, 1)), 2, 0, (1, 1), 0)


def blow_downs(fan):
    """(wall, result, removed ray) for every wall of the blow-down shape,
    one -1 and the rest 0, whose star pairs up, so that ``blow_down``
    accepts the -1 ray with the wall's apexes as the center."""
    out = []
    for wall in walls(fan):
        if sorted(wall.coeffs) != [-1] + [0] * (len(wall.coeffs) - 1):
            continue
        removed = wall.wall_rays[wall.coeffs.index(-1)]
        try:
            result = blow_down(fan, removed, (wall.apex_a, wall.apex_b))
        except ValueError as err:
            assert str(err) == "fan is not a star subdivision along this center"
            continue
        out.append((wall, result, removed))
    return out


def check_contracted_inverses(parent, parent_inverses, wall, result, removed):
    """A blow-down's validity pass, which inherits its parent's verdict and
    reads its inverses off the parent's, against the kernel's pass on the
    parentless rebuild, and each merged cone's inverse against the Bareiss
    oracle.  ``parent_inverses`` is the parent's cached
    ``_analyze(parent)[3]`` when the surgery ran."""
    rebuild = Fan(result.dim, result.rays, result.max_cones)
    assert rebuild._origin is None
    check_trusted_child(result)
    check_record(result, parent_inverses)
    assert rebuild == result
    assert hash(rebuild) == hash(result)
    assert repr(rebuild) == repr(result)
    full = _analyze.__wrapped__(rebuild)
    check_planned_verdicts(result, full[3])
    got = _analyze(result)
    assert got == full, result
    a, b = (i if i < removed else i - 1 for i in (wall.apex_a, wall.apex_b))
    merged = 0
    for cone, inverse in zip(result.max_cones, got[3]):
        if a in cone and b in cone:
            rows = tuple(result.rays[i] for i in cone)
            assert inverse == as_stored(*bareiss_inverse(rows)), (result, cone)
            merged += 1
    # each merge drops one cone of the parent
    assert merged == len(parent.max_cones) - len(result.max_cones) > 0


class TestContractedInverses:
    def test_every_blow_down_of_every_catalog_fan(self):
        contracted = 0
        for n in range(3, 7):
            for entry in catalog(n):
                inverses = _analyze(entry.fan)[3]
                for found in blow_downs(entry.fan):
                    check_contracted_inverses(entry.fan, inverses, *found)
                    contracted += 1
        assert contracted == 122

    def test_every_blow_down_of_every_fan(self, differential_fans):
        contracted = 0
        for fan in differential_fans:
            inverses = _analyze(fan)[3]
            for found in blow_downs(fan):
                check_contracted_inverses(fan, inverses, *found)
                contracted += 1
            clear_caches()
        assert contracted == 663

    def test_blow_downs_of_blow_ups_analysed_cold(self, differential_fans):
        """Each fan is blown up at a random face and blown down along each
        blow-down wall; caches are emptied before the results are
        analysed, so each pass reads only what its blow-down recorded, with
        no ancestor analysed again."""
        rng = random.Random(1616)
        contracted = 0
        for fan in differential_fans[::5]:
            blown = star_subdivide(fan, rng.choice(faces(fan)))
            results = blow_downs(blown)
            inverses = _analyze(blown)[3]
            clear_caches()
            for found in results:
                check_contracted_inverses(blown, inverses, *found)
                contracted += 1
        assert contracted > 0

    def test_long_chain_of_both_surgeries_analysed_cold(self, p3):
        """A cold pass needs no ancestor, so a chain of 40 alternating
        blow-ups and blow-downs analysed cold stays well within 100 frames
        of the test."""
        rng = random.Random(1617)
        fan = p3
        for _ in range(20):
            fan = star_subdivide(fan, rng.sample(rng.choice(fan.max_cones), 2))
            _, fan, _ = rng.choice(blow_downs(fan))
        clear_caches()
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert is_smooth(fan) and is_complete(fan)
        finally:
            sys.setrecursionlimit(limit)
        assert _analyze(fan) == _analyze.__wrapped__(Fan(fan.dim, fan.rays, fan.max_cones))


class TestParentReleased:
    """A surgery's output records its parent's inverses and a plan, not the
    parent or its cones, so once the caches drop the parent nothing keeps
    it alive, and the output's pass still equals the full pass on its
    rebuild."""

    @staticmethod
    def check_released(make_parent, surgery):
        parent = make_parent()
        child = surgery(parent)
        gone = weakref.ref(parent)
        del parent
        clear_caches()
        gc.collect()
        assert gone() is None
        rebuild = Fan(child.dim, child.rays, child.max_cones)
        assert _analyze(child) == _analyze.__wrapped__(rebuild)

    def test_star_subdivision(self, p3):
        self.check_released(
            lambda: Fan(p3.dim, p3.rays, p3.max_cones),
            lambda parent: star_subdivide(parent, (0, 1, 2)),
        )

    def test_blow_down(self, blowup_p3_line):
        blown = blowup_p3_line
        self.check_released(
            lambda: Fan(blown.dim, blown.rays, blown.max_cones),
            lambda parent: blow_downs(parent)[0][1],
        )


class TestPickle:
    def test_pickled_corpus_is_the_rebuilds_size(self):
        """A pickled fan carries its fields, not what its surgery recorded."""
        corpus = random_corpus(4, 50, 4, 7)
        rebuilds = tuple(Fan(f.dim, f.rays, f.max_cones) for f in corpus)
        assert all(f._origin is not None for f in corpus)
        assert len(pickle.dumps(corpus)) == len(pickle.dumps(rebuilds))

    def test_round_trip(self, differential_fans):
        for fan in differential_fans[::7] + (Fan(3, ((1, 0, 0),), ()),):
            loaded = pickle.loads(pickle.dumps(fan))
            assert loaded == fan and loaded._origin is None
            assert hash(loaded) == hash(fan)
            assert repr(loaded) == repr(fan)
            # the loaded fan has no origin, so this is a full pass
            assert _analyze.__wrapped__(loaded) == _analyze(fan)


class TestContract:
    """``blow_down`` round trips on named fans, and what it rejects."""

    def test_round_trip_p1xp2(self, p1xp2, get_wall):
        blown = star_subdivide(p1xp2, (0, 2))
        w = get_wall(walls(blown), (3, 5))  # {b2, w}: relation u+ + b1 - w = 0
        assert dict(zip(w.wall_rays, w.coeffs)) == {3: 0, 5: -1}
        assert (w.apex_a, w.apex_b) == (0, 2)
        assert blow_down(blown, 5, (0, 2)) == p1xp2

    def test_round_trip_p3_line(self, p3, blowup_p3_line):
        result = blow_down(blowup_p3_line, 4, (1, 0))
        assert result == p3
        assert star_subdivide(result, (0, 1)) == blowup_p3_line

    def test_contract_interior_ray_index(self, p1xp2):
        # move the exceptional ray to the middle of the ray list; indices
        # above it must shift down and the round trip close up to reorder
        blown = star_subdivide(p1xp2, (0, 2))
        order = [0, 1, 5, 2, 3, 4]
        relabel = {old: new for new, old in enumerate(order)}
        fan = Fan(
            3,
            tuple(blown.rays[i] for i in order),
            tuple(tuple(relabel[i] for i in c) for c in blown.max_cones),
        )
        result = blow_down(fan, 2, (0, 3))
        assert result == p1xp2
        again = star_subdivide(result, (0, 2))
        assert again == blown
        assert fans_isomorphic(again, fan) is not None

    def test_rejects_wrong_pattern(self, p3, blowup_p3_line):
        # the ray is not the sum of the center's rays
        for fan, ray, center in ((p3, 3, (0, 1)), (blowup_p3_line, 4, (0, 2))):
            with pytest.raises(ValueError, match="^ray is not the ray sum of the center$"):
                blow_down(fan, ray, center)

    def test_rejects_foreign_wall(self, p3):
        # indices that name no ray of the fan
        with pytest.raises(ValueError, match="^ray index out of range$"):
            blow_down(p3, 4, (0, 1))
        with pytest.raises(ValueError, match="^ray index out of range$"):
            blow_down(p3, -1, (0, 1))
        with pytest.raises(ValueError, match="^center has out-of-range ray indices$"):
            blow_down(p3, 3, (0, 5))
        with pytest.raises(ValueError, match="^center must have dimension at least 2$"):
            blow_down(p3, 0, (0,))

    def test_rejects_broken_pairing(self, blowup_p3_line):
        # blow up a point inside the exceptional structure: ray 4 = e1 + e2
        # is still the ray sum of the center, but the star of ray 4 no
        # longer pairs up across it
        fan = star_subdivide(blowup_p3_line, (0, 2, 4))  # cone <e1, e3, w>
        with pytest.raises(ValueError, match="^fan is not a star subdivision along this center$"):
            blow_down(fan, 4, (0, 1))

    def test_rejects_a_cone_missing_two_center_rays(self, blowup_p3_line):
        # ray 5 = (1, 1, 1) is the ray sum of {e1, e2, e3} and of {e3, w};
        # the cone <e1, w, ray 5> misses two of e1, e2, e3
        fan = star_subdivide(blowup_p3_line, (2, 4))
        assert (0, 4, 5) in fan.max_cones
        with pytest.raises(ValueError, match="^fan is not a star subdivision along this center$"):
            blow_down(fan, 5, (0, 1, 2))
        assert blow_down(fan, 5, (2, 4)) == blowup_p3_line
        # two cones through r = e1 + e2 + e3 + e4 that meet in <k, r>, each
        # missing two center rays: together they miss each center ray once,
        # but their merged cone would have five rays
        rays = tuple(tuple(int(i == j) for i in range(4)) for j in range(4))
        fan = Fan(4, rays + ((1, 1, 1, 1), (1, 0, 1, 0)), ((2, 3, 4, 5), (0, 1, 4, 5)))
        assert is_smooth(fan)
        with pytest.raises(ValueError, match="^fan is not a star subdivision along this center$"):
            blow_down(fan, 4, (0, 1, 2, 3))

    @pytest.mark.parametrize(
        "ray, center, message",
        [
            (4.0, (0, 1), "ray index must be an integer"),
            (True, (0, 1), "ray index must be an integer"),
            (4, (0, 1.0), "center entry 1 must be an integer"),
            (4, (True, 1), "center entry 0 must be an integer"),
        ],
        ids=["float-ray", "bool-ray", "float-center", "bool-center"],
    )
    def test_rejects_non_integer_indices(self, blowup_p3_line, ray, center, message):
        with pytest.raises(TypeError, match=message):
            blow_down(blowup_p3_line, ray, center)

    def test_a_ray_can_be_the_sum_of_two_centers(self, p3):
        """Ray 4 = (-1, 0, -1) of corpus fan 42 is the ray sum of {1, 3} and
        of {0, 6}; each is a blow-down, and the two are not isomorphic, so
        a blow-down is named by its ray and its center."""
        fan = random_corpus(3, 200, 3, 42)[42]
        assert fan.rays[4] == (-1, 0, -1)
        down = [blow_down(fan, 4, center) for center in ((1, 3), (0, 6))]
        for result in down:
            assert is_smooth(result) and is_complete(result)
            assert _analyze(result) == _analyze.__wrapped__(
                Fan(result.dim, result.rays, result.max_cones)
            )
        assert fans_isomorphic(*down) is None
        # each blows back up to fan 42, its ray 4 now last
        for result, center in zip(down, ((1, 3), (0, 5))):
            assert fans_isomorphic(star_subdivide(result, center), fan) is not None

    def test_builds_no_walls(self):
        """From cold caches, blowing B(P^4, P^2) down to P^4 builds no
        walls: the premises are read off rays and cones."""
        fan = catalog(4)[1].fan
        clear_caches()
        assert blow_down(fan, 5, (0, 1)) == projective_space_fan(4)
        assert walls.cache_info().misses == 0


class TestIsomorphism:
    def test_permuted_p3(self, p3):
        order = [3, 1, 0, 2]
        relabel = {old: new for new, old in enumerate(order)}
        permuted = Fan(
            3,
            tuple(p3.rays[i] for i in order),
            tuple(tuple(relabel[i] for i in c) for c in p3.max_cones),
        )
        m = fans_isomorphic(p3, permuted)
        assert m is not None
        assert witness_is_valid(m, p3, permuted)

    def test_distinct_ray_counts(self, p3, blowup_p3_point):
        assert fans_isomorphic(p3, blowup_p3_point) is None

    def test_reflexive_and_symmetric(self, blowup_p3_line, p1xp2):
        assert fans_isomorphic(blowup_p3_line, blowup_p3_line) is not None
        m = fans_isomorphic(blowup_p3_line, blowup_p3_line)
        assert witness_is_valid(m, blowup_p3_line, blowup_p3_line)
        blown = star_subdivide(p1xp2, (0, 2))
        other = star_subdivide(p1xp2, (1, 3))
        forward = fans_isomorphic(blown, other)
        backward = fans_isomorphic(other, blown)
        assert forward is not None and backward is not None
        assert witness_is_valid(forward, blown, other)
        assert witness_is_valid(backward, other, blown)

    def test_same_counts_different_fans(self, blowup_p3_line):
        from toricfano import p1_bundle_fan

        # both have 5 rays and 6 maximal cones
        assert fans_isomorphic(blowup_p3_line, p1_bundle_fan(3, 1)) is None

    def test_two_blowup_constructions_coincide(self, p1xp2):
        # blowing up the product along a curve in a fiber gives the same
        # fan as the catalog's blow-up of the nu=1 bundle
        from toricfano import catalog

        blown = star_subdivide(p1xp2, (0, 2))
        entry = next(
            e for e in catalog(3) if (e.case_tag, e.nu) == ("iv", 0)
        )
        m = fans_isomorphic(blown, entry.fan)
        assert m is not None
        assert witness_is_valid(m, blown, entry.fan)

    def test_witness_check_rejects_a_flop(self):
        # a wall with coefficients (-1, -1): v_a + v_b = v_i + v_j, so the
        # cones <i, j, a> and <i, j, b> can be swapped for <a, b, i> and
        # <a, b, j>; the rays stay, the cones change
        for fan in random_corpus(3, 200, 3, 42):
            w = next((w for w in walls(fan) if w.coeffs == (-1, -1)), None)
            if w is not None:
                break
        i, j = w.wall_rays
        a, b = w.apex_a, w.apex_b
        swapped = {tuple(sorted((i, j, a))), tuple(sorted((i, j, b)))}
        flopped = Fan(
            3,
            fan.rays,
            tuple(c for c in fan.max_cones if c not in swapped)
            + ((a, b, i), (a, b, j)),
        )
        assert is_smooth(flopped) and is_complete(flopped)
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert witness_is_valid(identity, fan, fan)
        assert not witness_is_valid(identity, fan, flopped)
        assert fans_isomorphic(fan, flopped) == brute_fans_isomorphic(fan, flopped)

    def test_matches_brute_force_on_relabelled_copies(self, differential_fans):
        rng = random.Random(8)
        for fan in differential_fans:
            copy = relabel_fan(fan, rng)
            witness = fans_isomorphic(fan, copy)
            assert witness == brute_fans_isomorphic(fan, copy)
            assert witness_is_valid(witness, fan, copy)

    def test_matches_brute_force_on_itself(self, differential_fans):
        for fan in differential_fans:
            identity = tuple(
                tuple(int(i == j) for j in range(fan.dim)) for i in range(fan.dim)
            )
            assert fans_isomorphic(fan, fan) == brute_fans_isomorphic(fan, fan)
            assert fans_isomorphic(fan, fan) == identity

    def test_matches_brute_force_on_equal_shapes(self, differential_fans):
        groups = {}
        for fan in differential_fans:
            key = (fan.dim, len(fan.rays), len(fan.max_cones))
            groups.setdefault(key, []).append(fan)
        seen = {True: 0, False: 0}
        for group in groups.values():
            for f in group[:12]:
                for g in group[:12]:
                    witness = fans_isomorphic(f, g)
                    assert witness == brute_fans_isomorphic(f, g)
                    if f != g:
                        seen[witness is not None] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_itself_shares_one_identity_per_dimension(self, p3, blowup_p3_line):
        assert fans_isomorphic(p3, p3) is fans_isomorphic(blowup_p3_line, blowup_p3_line)
        assert fans_isomorphic(p3, p3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize(
        "command, walks",
        [
            ([["verify-theorem2", "--dim", str(n), "--json"] for n in range(3, 7)], 14),
            ([["verify-theorem1", "--corpus", "4,50,4,7", "--json"]], 3),
        ],
        ids=["theorem2", "theorem1-dim4"],
    )
    def test_builds_a_walk_only_for_a_search(self, monkeypatch, command, walks):
        """Operation budget from cold caches: the walk of f is built only
        when f and g have the same invariant multiset and differ, once per
        such call.  Built with every fan's invariants, the walks were 50
        and 4."""
        import toricfano.cli
        import toricfano.fan

        clear_caches()
        walk, built = toricfano.fan._walk, []

        def counting_walk(fan, by_facet):
            built.append(fan)
            return walk(fan, by_facet)

        monkeypatch.setattr(toricfano.fan, "_walk", counting_walk)
        for args in command:
            with redirect_stdout(io.StringIO()):
                assert toricfano.cli.run(args) == 0
        assert len(built) == walks

    def test_skips_target_cones_with_other_invariants(self, monkeypatch):
        """Operation budget at n = 10: B(P^n, P^(n-2)), written as the point
        blow-down of catalog entry iv (nu = 0) and rebuilt with no parent,
        against the catalog's star subdivision of P^n.  Only the target cones
        whose invariant multiset is the anchor's are searched, so ``_orders``
        is called 11 times, recursive calls included.  A cone whose
        invariants differ only at a late position took ``_orders`` through
        factorially many prefixes: 1,972,847 calls on this pair."""
        import toricfano.fan

        n = 10
        entry = star_subdivide(p1_bundle_fan(n, 1), (1, 2))
        down = blow_down(entry, 0, tuple(range(2, n + 2)))
        source = Fan(n, down.rays, down.max_cones)
        target = star_subdivide(projective_space_fan(n), (0, 1))
        orders, calls = toricfano.fan._orders, []

        def counting_orders(*args):
            calls.append(args)
            return orders(*args)

        monkeypatch.setattr(toricfano.fan, "_orders", counting_orders)
        witness = fans_isomorphic(source, target)
        assert len(calls) == 11
        # rays onto rays and cones onto cones; a smooth cone's generators go
        # to a smooth cone's, so the witness has determinant +-1 as well
        index = {ray: i for i, ray in enumerate(target.rays)}
        image = [
            index[tuple(sum(map(mul, row, ray)) for row in witness)]
            for ray in source.rays
        ]
        assert sorted(image) == list(range(len(target.rays)))
        mapped = {tuple(sorted(image[i] for i in cone)) for cone in source.max_cones}
        assert mapped == set(target.max_cones)

    def test_builds_a_witness_only_for_a_passing_candidate(self, monkeypatch):
        """Operation budget of the theorem-1 sweep over the dim-4 corpus from
        cold caches: at most 18 candidates survive the invariant pruning, and
        each one propagates, so one witness matrix is built per success.  The
        brute force built 1,241 matrices there."""
        import toricfano.fan

        clear_caches()
        outcomes = []
        propagates = toricfano.fan._propagates

        def recording_propagates(*args):
            outcomes.append(propagates(*args))
            return outcomes[-1]

        monkeypatch.setattr(toricfano.fan, "_propagates", recording_propagates)
        for fan in random_corpus(4, 50, 4, 7):
            theorem1_check(fan)
        assert 0 < len(outcomes) <= 18
        assert all(outcomes)


def test_random_corpus_contract():
    fans = random_corpus(3, 10, 2, seed=1)
    assert len(fans) == 10
    assert all(len(f.rays) <= 6 for f in fans)
    assert random_corpus(3, 10, 2, seed=1) == fans
    assert random_corpus(3, 1, 0, seed=99) == (projective_space_fan(3),)
