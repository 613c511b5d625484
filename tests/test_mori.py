import io
from contextlib import redirect_stdout

import pytest
from conftest import (
    clear_caches,
    fraction_in_nonneg_span,
    is_positive_multiple,
    pair,
)

import toricfano._simplex
import toricfano.cli
import toricfano.mori
from toricfano import (
    TDivisor,
    catalog,
    contraction_info,
    curve_class,
    anticanonical_degree,
    is_extremal,
    is_mori_extremal,
    p1_bundle_fan,
    projective_space_fan,
    walls,
)
from toricfano._simplex import in_nonneg_span


def test_curve_class_examples(p3, blowup_p3_point, get_wall):
    assert curve_class(p3, get_wall(walls(p3), (0, 1))) == (1, 1, 1, 1)
    b = blowup_p3_point
    assert curve_class(b, get_wall(walls(b), (0, 1))) == (0, 0, 0, 1, 1)
    assert curve_class(b, get_wall(walls(b), (0, 4))) == (1, 1, 1, 0, -1)


def test_classes_annihilate_lattice_relations(p3, blowup_p3_point, p1xp2):
    # sum of dots * ray must vanish for every wall class
    for fan in (p3, blowup_p3_point, p1xp2):
        for w in walls(fan):
            dots = curve_class(fan, w)
            combo = tuple(
                sum(dots[i] * fan.rays[i][k] for i in range(len(fan.rays)))
                for k in range(fan.dim)
            )
            assert combo == (0,) * fan.dim


def test_anticanonical_pairing(p3, blowup_p3_point):
    for fan in (p3, blowup_p3_point):
        ones = TDivisor((1,) * len(fan.rays))
        for w in walls(fan):
            assert pair(ones, curve_class(fan, w)) == anticanonical_degree(fan, w)


def test_extremal_examples(p3, blowup_p3_point, get_wall):
    for w in walls(p3):
        assert is_extremal(p3, w)
    b = blowup_p3_point
    # class (1,1,1,1,0) = (0,0,0,1,1) + (1,1,1,0,-1): not extremal
    assert not is_extremal(b, get_wall(walls(b), (0, 3)))
    assert is_extremal(b, get_wall(walls(b), (0, 4)))


def test_picard_rank_one_classes(p3):
    for n in (3, 4):
        fan = projective_space_fan(n)
        ws = walls(fan)
        classes = [curve_class(fan, w) for w in ws]
        for c in classes:
            assert is_positive_multiple(classes[0], c)
        assert all(is_extremal(fan, w) for w in ws)


def test_mori_extremal_examples(p3, blowup_p3_point, get_wall):
    assert all(is_mori_extremal(p3, w) for w in walls(p3))
    fan = p1_bundle_fan(3, 3)
    w = get_wall(walls(fan), (0, 2))
    assert anticanonical_degree(fan, w) == 0
    assert not is_mori_extremal(fan, w)
    assert is_mori_extremal(blowup_p3_point, get_wall(walls(blowup_p3_point), (0, 4)))


def test_every_catalog_fan_has_mori_extremal_wall():
    for entry in catalog(3):
        assert any(is_mori_extremal(entry.fan, w) for w in walls(entry.fan))


def test_lp_scaling_invariance():
    columns = [(0, 0, 0, 1, 1), (1, 1, 1, 0, -1)]
    target = (1, 1, 1, 1, 0)
    assert in_nonneg_span(columns, target)
    assert in_nonneg_span(columns, tuple(2 * x for x in target))
    assert not in_nonneg_span(columns, (0, 0, 0, 0, 1))
    assert not in_nonneg_span(
        columns, tuple(2 * x for x in (0, 0, 0, 0, 1))
    )


def test_contraction_info_examples(blowup_p3_point, blowup_p3_line, get_wall):
    b = blowup_p3_point
    info = contraction_info(b, get_wall(walls(b), (0, 1)))
    assert (info.alpha, info.beta, info.kind) == (0, 2, "fibration")
    info = contraction_info(b, get_wall(walls(b), (0, 4)))
    assert (info.alpha, info.beta, info.kind) == (1, 1, "divisorial")
    # codim-2 blow-down wall of the line blow-up: relation e1 + e2 - w = 0
    line = blowup_p3_line
    w = next(
        w
        for w in walls(line)
        if 4 in w.wall_rays and dict(zip(w.wall_rays, w.coeffs))[4] == -1
    )
    info = contraction_info(line, w)
    assert (info.alpha, info.beta, info.kind) == (1, 2, "divisorial")


def test_contraction_info_requires_mori_extremal(get_wall):
    fan = p1_bundle_fan(3, 3)
    w = get_wall(walls(fan), (0, 2))
    with pytest.raises(ValueError, match="not Mori extremal"):
        contraction_info(fan, w)


def full_classes(fan, wall):
    """The wall's full intersection vector, and those of the other walls
    with duplicates and positive multiples of it removed."""
    target = curve_class(fan, wall)
    seen = set()
    candidates = []
    for w in walls(fan):
        dots = curve_class(fan, w)
        if dots in seen or is_positive_multiple(target, dots):
            continue
        seen.add(dots)
        candidates.append(dots)
    return target, candidates


def extremal_by_full_fraction_lp(fan, wall):
    """The slow path: the Fraction LP on unprojected classes, one row per ray."""
    target, candidates = full_classes(fan, wall)
    return not fraction_in_nonneg_span(candidates, target)


def extremal_by_dual_certificate(fan, wall):
    """Independent oracle: a supporting functional phi with phi(c) = 0 and
    phi(v) >= 1 on every wall class v not proportional to c exists iff the
    class of ``wall`` spans an extremal ray (faces of polyhedral cones are
    exposed).  Encoded as standard-form feasibility with phi = p - q and
    surplus variables, on full intersection vectors, and decided by the
    Fraction oracle LP, not by the integer simplex it checks."""
    target, candidates = full_classes(fan, wall)
    r = len(target)
    m = len(candidates)
    # rows: one equality per candidate (phi . v_j - s_j = 1), one for phi . c = 0
    columns = []
    for i in range(r):  # p_i
        columns.append(tuple(v[i] for v in candidates) + (target[i],))
    for i in range(r):  # q_i
        columns.append(tuple(-v[i] for v in candidates) + (-target[i],))
    for j in range(m):  # surplus s_j
        columns.append(tuple(-int(k == j) for k in range(m)) + (0,))
    rhs = (1,) * m + (0,)
    return fraction_in_nonneg_span(columns, rhs)


def test_extremality_against_dual_oracle():
    from toricfano import catalog, random_corpus, star_subdivide

    fans = [e.fan for e in catalog(3)]
    fans.extend(random_corpus(3, 12, 2, seed=3))
    fans.append(star_subdivide(fans[0], (0, 1)))
    checked = 0
    for fan in fans:
        for w in walls(fan):
            assert is_extremal(fan, w) == extremal_by_dual_certificate(fan, w)
            checked += 1
    assert checked > 150


def test_picard_lp_matches_full_fraction_lp(differential_fans):
    """The fast path (Picard coordinates, integer pivots) against the slow
    one it replaces (full coordinates, Fraction pivots), on every wall."""
    answers = []
    for fan in differential_fans:
        for w in walls(fan):
            answer = is_extremal(fan, w)
            assert answer == extremal_by_full_fraction_lp(fan, w)
            answers.append(answer)
    assert len(answers) == 4848
    assert 0 < sum(answers) < len(answers)


def test_extremality_lp_budget(monkeypatch):
    """Operation budget of verify-theorem2 for dimensions 3 to 6 from cold
    caches: one class table per fan asked about, holding one class per
    wall, and one LP per distinct class asked about, each with one row per
    ray outside cone 0 (the Picard rank) and a pinned number of pivots.
    Cached per wall, as before the class table, the LPs were 126, with 296
    rows and 262 pivots."""
    clear_caches()
    lps = []
    asked = {"fans": set()}
    classes = toricfano.mori._picard_classes

    def recording_classes(fan):
        asked["fan"] = fan
        asked["fans"].add(fan)
        return classes(fan)

    def recording_lp(columns, target):
        feasible, pivots = toricfano._simplex._phase_one(columns, target)
        fan = asked["fan"]
        lps.append((len(target), len(fan.rays) - fan.dim, pivots))
        return feasible

    monkeypatch.setattr(toricfano.mori, "_picard_classes", recording_classes)
    monkeypatch.setattr(toricfano.mori, "in_nonneg_span", recording_lp)
    for n in range(3, 7):
        with redirect_stdout(io.StringIO()):
            assert toricfano.cli.run(["verify-theorem2", "--dim", str(n), "--json"]) == 0
    assert [rows for rows, _, _ in lps] == [rho for _, rho, _ in lps]
    assert len(lps) == toricfano.mori._class_is_extremal.cache_info().misses == 110
    assert sum(rows for rows, _, _ in lps) == 272
    assert sum(pivots for _, _, pivots in lps) == 254
    assert classes.cache_info().misses == len(asked["fans"]) == 54
    for fan in asked["fans"]:
        table = classes(fan)[0]
        assert list(table) == [w.wall_rays for w in walls(fan)]


def test_class_table_matches_curve_class(differential_fans):
    """The class table against the slow path it replaces: each class is the
    full ``curve_class`` read on the rays outside cone 0, the distinct
    classes are listed in wall order, and two classes are equal exactly
    when ``is_positive_multiple`` holds on the full classes, for every pair
    of walls (a wall class has 1 on its apexes, so it is primitive)."""
    seen = {True: 0, False: 0}
    for fan in differential_fans:
        table, distinct = toricfano.mori._picard_classes(fan)
        outside = [i for i in range(len(fan.rays)) if i not in fan.max_cones[0]]
        full = {}
        for w in walls(fan):
            wall, dots = table[w.wall_rays]
            assert wall == w
            full[w] = curve_class(fan, w)
            assert dots == tuple(full[w][i] for i in outside)
        assert distinct == tuple(dict.fromkeys(dots for _, dots in table.values()))
        for a in walls(fan):
            for b in walls(fan):
                same = table[a.wall_rays][1] == table[b.wall_rays][1]
                assert same == is_positive_multiple(full[a], full[b]), (fan, a, b)
                seen[same] += a != b
    assert seen[True] > 0 and seen[False] > 0


def test_extremality_rejects_a_foreign_wall(p3, p1xp2, get_wall):
    bundle = p1_bundle_fan(3, 3)
    degree_zero = get_wall(walls(bundle), (0, 2))
    assert anticanonical_degree(bundle, degree_zero) == 0
    # whatever its degree, a wall of another fan is an error, not an answer
    for wall in (get_wall(walls(p1xp2), (2, 3)), degree_zero):
        for decide in (is_extremal, is_mori_extremal, contraction_info):
            with pytest.raises(ValueError, match="^wall does not belong to the fan$"):
                decide(p3, wall)
