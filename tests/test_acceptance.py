"""Acceptance suite: the classification claims verified end to end.

One test per criterion, each printing a single pass/fail line.  All
assertions are exact integer comparisons (no tolerances): the verified
statements are classifications, not numerics.  Desk scale: n <= 5,
fans of at most a few dozen rays.
"""

import random
from contextlib import contextmanager

import pytest
from conftest import wall_relation_holds, witness_is_valid

from toricfano import (
    TDivisor,
    analyze_divisor,
    anticanonical_degree,
    blow_down,
    catalog,
    classify_fano_with_divisor,
    curve_class,
    divisor_dot_curve,
    fans_isomorphic,
    find_transverse_extremal,
    is_complete,
    is_fano,
    is_smooth,
    p1_bundle_fan,
    projective_space_fan,
    random_corpus,
    simplify_pair,
    star_subdivide,
    theorem1_check,
    walls,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}")
        raise
    print(f"criterion {number} PASS: {label}")


def test_criterion_1_catalog_correctness():
    with criterion(1, "catalog has 2n+1 Fano entries with the stated divisors"):
        for n in (3, 4, 5):
            entries = catalog(n)
            assert len(entries) == 2 * n + 1
            for entry in entries:
                assert is_smooth(entry.fan)
                assert is_complete(entry.fan)
                assert is_fano(entry.fan)
                degrees = sorted(d for _, d in entry.divisor_rays)
                if entry.case_tag == "i":
                    assert degrees == [1] * (n + 1)
                elif entry.case_tag == "ii":
                    assert degrees == [0, 0]
                elif entry.case_tag == "iii":
                    assert degrees == sorted([-entry.nu, entry.nu])
                else:
                    assert degrees == sorted([entry.nu, -entry.nu - 1])
                for ray, expected in entry.divisor_rays:
                    analysis = analyze_divisor(entry.fan, ray)
                    assert analysis.is_proj_space
                    assert analysis.d == expected
            for a in range(len(entries)):
                for b in range(a + 1, len(entries)):
                    assert fans_isomorphic(entries[a].fan, entries[b].fan) is None


def test_criterion_2_fano_boundary():
    with criterion(2, "bundle construction is Fano exactly up to nu = n-1"):
        for n in (3, 4):
            assert is_fano(p1_bundle_fan(n, n - 1))
            beyond = p1_bundle_fan(n, n)
            assert not is_fano(beyond)
            degrees = [anticanonical_degree(beyond, w) for w in walls(beyond)]
            failing = [d for d in degrees if d <= 0]
            assert failing and set(failing) == {0}


def test_criterion_3_blowup_positive_direction():
    with criterion(3, "Fano blow-ups appear exactly where the classification says"):
        for n in (3, 4, 5):
            pn = projective_space_fan(n)
            report = theorem1_check(pn)
            assert not report.violations
            assert report.blowup_fano == (True,) * len(pn.max_cones)
            assert all(p.conclusion == "projective-space" for p in report.fano_probes)

            blown = star_subdivide(pn, (0, 1))
            exceptional = len(blown.rays) - 1
            report = theorem1_check(blown)
            assert not report.violations
            assert report.blowup_fano == tuple(
                exceptional not in cone for cone in blown.max_cones
            )
            for probe in report.fano_probes:
                assert probe.conclusion == "blown-projective-space"
            if n == 3:
                assert len(theorem1_check(pn).fano_cone_indices) == 4
                assert len(pn.max_cones) == 4
                assert len(report.fano_cone_indices) == 2
                assert len(blown.max_cones) == 6


def _criterion_4_fans():
    return random_corpus(3, 200, 3, seed=42) + tuple(e.fan for e in catalog(3))


def test_criterion_4_blowup_classification_direction():
    with criterion(4, "every Fano point blow-up over the corpus identifies correctly"):
        p3 = projective_space_fan(3)
        blown_entry = next(e for e in catalog(3) if e.case_tag == "ii")
        for fan in _criterion_4_fans():
            report = theorem1_check(fan)
            assert not report.violations
            for probe in report.fano_probes:
                assert probe.conclusion in (
                    "projective-space",
                    "blown-projective-space",
                )
                target = (
                    p3
                    if probe.conclusion == "projective-space"
                    else blown_entry.fan
                )
                assert probe.witness is not None
                assert witness_is_valid(probe.witness, fan, target)


def _criterion_5_pairs():
    pairs = []
    for n in (3, 4, 5):
        for entry in catalog(n):
            for ray, _ in entry.divisor_rays:
                pairs.append((entry.fan, ray))
    # the Fano point blow-ups probed by criteria 3 and 4
    host_fans = list(_criterion_4_fans())
    for n in (4, 5):
        pn = projective_space_fan(n)
        host_fans.extend([pn, star_subdivide(pn, (0, 1))])
    for fan in host_fans:
        for cone in fan.max_cones:
            blown = star_subdivide(fan, cone)
            if is_fano(blown):
                pairs.append((blown, len(blown.rays) - 1))
    return pairs


def test_criterion_5_simplification_mechanics():
    with criterion(
        5, "transverse walls are all-zero or single -1; one simplification at most"
    ):
        for fan, ray in _criterion_5_pairs():
            wall = find_transverse_extremal(fan, ray)
            if wall is None:
                continue
            pattern = sorted(wall.coeffs)
            assert pattern in (
                [0] * len(wall.coeffs),
                [-1] + [0] * (len(wall.coeffs) - 1),
            )
            step = simplify_pair(fan, ray)  # must not raise a violation
            if step is None:
                continue
            before = analyze_divisor(fan, ray)
            after = analyze_divisor(step.result_fan, step.result_divisor_ray)
            assert after.d == before.d + 1
            assert is_fano(step.result_fan)
            again = find_transverse_extremal(
                step.result_fan, step.result_divisor_ray
            )
            assert again is None or not any(again.coeffs)
            assert simplify_pair(step.result_fan, step.result_divisor_ray) is None


def test_criterion_6_blowdown_fano_formula():
    with criterion(6, "downstream Fano iff n-1+a+b > 0 on the blow-up centers"):
        for n in (3, 4):
            for nu in range(n - 1):
                down = p1_bundle_fan(n, nu + 1)
                plus_side = next(
                    i for i in (0, 1) if analyze_divisor(down, i).d == nu + 1
                )
                center = tuple(sorted((plus_side, 2)))
                up = star_subdivide(down, center)
                assert is_fano(up)
                center_walls = [
                    w
                    for w in walls(down)
                    if set(center) <= set(w.wall_rays)
                ]
                assert center_walls
                wall = center_walls[0]
                # the prime divisors V(plus_side) and V(2)
                rays = range(len(down.rays))
                a = divisor_dot_curve(down, TDivisor(tuple(int(i == plus_side) for i in rays)), wall)
                b = divisor_dot_curve(down, TDivisor(tuple(int(i == 2) for i in rays)), wall)
                assert a == analyze_divisor(down, plus_side).d
                assert b == 1
                assert (n - 1 + a + b > 0) == is_fano(down)
            # boundary cross-check: the nu = n construction is not Fano, and
            # since n-1+a+b stays positive its center blow-up cannot be Fano
            bad = p1_bundle_fan(n, n)
            plus_side = next(
                i
                for i in (0, 1)
                if any(
                    w.coeffs[w.wall_rays.index(i)] == n
                    for w in walls(bad)
                    if i in w.wall_rays
                )
            )
            up_bad = star_subdivide(bad, tuple(sorted((plus_side, 2))))
            assert not is_fano(bad)
            assert not is_fano(up_bad)


def test_criterion_7_kernel_invariants():
    with criterion(7, "round trips, exact relations, trivial principal pairings"):
        rng = random.Random(7)
        base_fans = random_corpus(3, 50, 2, seed=7)
        for fan in base_fans:
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            center = tuple(sorted(rng.sample(cone, 2)))
            blown = star_subdivide(fan, center)
            result = blow_down(blown, len(fan.rays), center)
            assert result == fan
            assert star_subdivide(result, center) == blown

            for w in walls(blown):
                assert wall_relation_holds(blown, w)
                dots = curve_class(blown, w)
                combo = tuple(
                    sum(dots[i] * blown.rays[i][k] for i in range(len(blown.rays)))
                    for k in range(blown.dim)
                )
                assert combo == (0,) * blown.dim

        for n in range(2, 6):
            fan = projective_space_fan(n)
            assert all(anticanonical_degree(fan, w) == n + 1 for w in walls(fan))


def test_criterion_8_adjunction_bound():
    # the bound presumes an ample anticanonical class: on non-Fano fans a
    # projective-space divisor may be arbitrarily negative (the depth-3
    # corpus contains a d = -3 example in dimension 3)
    with criterion(8, "on Fano fans every projective-space divisor has d >= 1-n"):
        fans = []
        for n in (3, 4, 5):
            fans.extend(e.fan for e in catalog(n))
        fans.extend(random_corpus(3, 200, 3, seed=42))
        for fan in _criterion_4_fans():
            for cone in fan.max_cones:
                fans.append(star_subdivide(fan, cone))
        checked = 0
        for fan in fans:
            if not is_fano(fan):
                continue
            for i in range(len(fan.rays)):
                analysis = analyze_divisor(fan, i)
                if analysis.is_proj_space:
                    assert analysis.d >= 1 - fan.dim
                    checked += 1
        assert checked > 100
