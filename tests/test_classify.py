import io
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from conftest import blowup_route_probe, clear_caches, divisor_star_fan

from toricfano import (
    ClassificationViolation,
    OutsideStatement,
    UnsupportedDimension,
    analyze_divisor,
    catalog,
    classify_fano_with_divisor,
    fans_isomorphic,
    find_transverse_extremal,
    is_complete,
    is_fano,
    is_smooth,
    p1_bundle_fan,
    point_blowup_is_fano,
    point_blowups_are_fano,
    projective_space_fan,
    random_corpus,
    simplify_pair,
    star_subdivide,
    theorem1_check,
    walls,
)
from toricfano import lattice
from toricfano.fan import validate


def entry_for(n, tag, nu=None):
    return next(e for e in catalog(n) if (e.case_tag, e.nu) == (tag, nu))


class TestDivisorStarFan:
    def test_p3_hyperplane(self, p3):
        star = divisor_star_fan(p3, 3)
        assert star.dim == 2 and len(star.rays) == 3
        assert validate(star).valid and is_smooth(star) and is_complete(star)
        total = tuple(sum(r[k] for r in star.rays) for k in range(2))
        assert total == (0, 0)
        assert fans_isomorphic(star, projective_space_fan(2)) is not None

    def test_exceptional_divisor(self, blowup_p3_point):
        star = divisor_star_fan(blowup_p3_point, 4)
        assert fans_isomorphic(star, projective_space_fan(2)) is not None

    def test_product_fiber(self, p1xp2):
        star = divisor_star_fan(p1xp2, 0)
        assert fans_isomorphic(star, projective_space_fan(2)) is not None


class TestDivisorStarFanValidity:
    def test_star_fans_fully_validate(self):
        # run every check on a copy rebuilt from the bare data, including
        # the exact covering certificate
        from toricfano import Fan

        fans = list(random_corpus(3, 15, 3, seed=23))
        fans.extend(random_corpus(4, 5, 2, seed=23))
        recognized = 0
        for fan in fans:
            for i in range(len(fan.rays)):
                star = divisor_star_fan(fan, i)
                rebuilt = Fan(star.dim, star.rays, star.max_cones)
                assert validate(rebuilt).valid, (fan, i)
                assert is_smooth(rebuilt)
                assert is_complete(rebuilt)
                # cross-check the rank-one recognition shortcut
                if len(star.rays) == fan.dim:
                    target = projective_space_fan(fan.dim - 1)
                    assert fans_isomorphic(star, target) is not None
                    recognized += 1
        assert recognized > 10


def test_neighbour_count_matches_star_fan(differential_fans):
    """Differential test: the count of maximal cones through the ray
    recognises V(ray) as a projective space exactly when the quotient star
    fan has n rays, and the line wall is the first wall through the ray."""
    for fan in differential_fans:
        for i in range(len(fan.rays)):
            analysis = analyze_divisor(fan, i)
            assert analysis.is_proj_space == (
                len(divisor_star_fan(fan, i).rays) == fan.dim
            ), (fan, i)
            if analysis.is_proj_space:
                first = next(w for w in walls(fan) if i in w.wall_rays)
                assert analysis.line_wall == first


def test_cone_count_matches_neighbour_set(differential_fans):
    """Differential test: V(ray) is recognised by the ray lying in exactly n
    maximal cones, the test that replaced counting its n neighbours (the
    rays sharing a maximal cone with it), and the two agree on every ray."""
    seen = {True: 0, False: 0}
    for fan in differential_fans:
        for i in range(len(fan.rays)):
            neighbours = {j for cone in fan.max_cones if i in cone for j in cone}
            answer = analyze_divisor(fan, i).is_proj_space
            assert answer == (len(neighbours) == fan.dim + 1), (fan, i)
            seen[answer] += 1
    assert seen[True] > 0 and seen[False] > 0


class TestAnalyzeDivisor:
    def test_p3_hyperplane(self, p3):
        analysis = analyze_divisor(p3, 3)
        assert analysis.is_proj_space and analysis.d == 1

    def test_exceptional(self, blowup_p3_point):
        analysis = analyze_divisor(blowup_p3_point, 4)
        assert analysis.is_proj_space and analysis.d == -1

    def test_bundle_sides(self):
        for n in (3, 4):
            for nu in range(n):
                fan = p1_bundle_fan(n, nu)
                assert analyze_divisor(fan, 0).d == -nu
                assert analyze_divisor(fan, 1).d == nu

    def test_non_divisor(self, blowup_p3_point):
        # the star of e3 in the point blow-up has 4 rays: not projective space
        analysis = analyze_divisor(blowup_p3_point, 2)
        assert not analysis.is_proj_space
        assert analysis.d is None

    def test_line_wall_structure(self):
        # in the line wall of a projective-space divisor, the non-apex
        # coefficients are n-2 ones plus the degree itself
        for n in (3, 4):
            for entry in catalog(n):
                for ray, d in entry.divisor_rays:
                    for w in walls(entry.fan):
                        if ray not in w.wall_rays:
                            continue
                        coeffs = dict(zip(w.wall_rays, w.coeffs))
                        assert coeffs[ray] == d
                        others = [c for i, c in coeffs.items() if i != ray]
                        assert others == [1] * (n - 2)


class TestFindTransverse:
    def test_blowup_of_product(self, p1xp2):
        blown = star_subdivide(p1xp2, (0, 2))
        w = find_transverse_extremal(blown, 0)
        assert w.wall_rays == (3, 5)
        assert {w.apex_a, w.apex_b} == {0, 2}

    def test_bundle_gives_fiber_wall(self):
        fan = p1_bundle_fan(3, 2)
        w = find_transverse_extremal(fan, 0)
        assert w.coeffs == (0, 0)
        assert {w.apex_a, w.apex_b} == {0, 1}

    def test_projective_space_has_none(self, p3):
        assert find_transverse_extremal(p3, 3) is None


class TestSimplify:
    def test_blowup_of_product(self, p1xp2):
        blown = star_subdivide(p1xp2, (0, 2))
        assert analyze_divisor(blown, 0).d == -1
        step = simplify_pair(blown, 0)
        assert step.removed_ray == 5
        assert step.result_fan == p1xp2
        assert step.result_divisor_ray == 0
        assert analyze_divisor(p1xp2, 0).d == 0
        assert step.center_cone == (0, 2)

    def test_projective_space_absent(self, p3):
        assert simplify_pair(p3, 3) is None

    def test_case_iv_divisor(self):
        # the degree -2 divisor of the nu=1 blow-up entry simplifies once,
        # landing on the nu=1 bundle with degree -1
        entry = entry_for(3, "iv", 1)
        ray = next(i for i, d in entry.divisor_rays if d == -2)
        step = simplify_pair(entry.fan, ray)
        assert step is not None
        after = analyze_divisor(step.result_fan, step.result_divisor_ray)
        assert after.d == -1
        assert is_fano(step.result_fan)
        match = fans_isomorphic(step.result_fan, p1_bundle_fan(3, 1))
        assert match is not None
        # and a second attempt does not contract again
        second = simplify_pair(step.result_fan, step.result_divisor_ray)
        assert second is None


class TestCatalog:
    @pytest.mark.parametrize("n", [3, 4])
    def test_counts(self, n):
        assert len(catalog(n)) == 2 * n + 1

    def test_range(self):
        with pytest.raises(ValueError):
            catalog(2)
        with pytest.raises(ValueError):
            catalog(7)

    def test_boundary_fano(self):
        assert is_fano(p1_bundle_fan(3, 2))
        assert not is_fano(p1_bundle_fan(3, 3))

    def test_entry_rejects_wrong_divisor_map(self, p3):
        from toricfano.classify import _entry

        with pytest.raises(ClassificationViolation, match="divisors"):
            _entry("i", None, p3, {0: 1}, "P^3")


class TestClassify:
    def test_p3(self, p3):
        result = classify_fano_with_divisor(p3, 3)
        assert (result.case_tag, result.nu) == ("i", None)
        assert result.route == "point-contraction"

    def test_point_blowup(self, blowup_p3_point):
        result = classify_fano_with_divisor(blowup_p3_point, 4)
        assert (result.case_tag, result.nu) == ("iii", 1)

    def test_blowup_of_product(self, p1xp2):
        blown = star_subdivide(p1xp2, (0, 2))
        result = classify_fano_with_divisor(blown, 0)
        assert (result.case_tag, result.nu) == ("iv", 0)
        assert result.route == "simplified"
        assert len(result.steps) == 1

    def test_witness_maps_rays(self, blowup_p3_point):
        result = classify_fano_with_divisor(blowup_p3_point, 4)
        target = entry_for(3, "iii", 1).fan
        image = {
            lattice.matrix_apply(result.witness, r) for r in blowup_p3_point.rays
        }
        assert image == set(target.rays)

    def test_rejects_non_fano(self):
        fan = p1_bundle_fan(3, 3)
        with pytest.raises(ValueError, match="Fano"):
            classify_fano_with_divisor(fan, 0)

    def test_input_outside_the_statement_is_typed(self, blowup_p3_line):
        """A divisor that is not P^(n-1), or a fan that is not Fano, is
        outside the statement: OutsideStatement, as an unsupported dimension
        is, and not the ClassificationViolation of a failed check."""
        not_fano = p1_bundle_fan(3, 3)  # V(ray 1) is a P^2, but nu > n - 1
        not_pn = "divisor is not a projective space"
        cases = [
            (classify_fano_with_divisor, not_fano, 1, "classification needs a Fano fan"),
            (simplify_pair, not_fano, 1, "simplification is defined on Fano fans"),
            # V(ray 2) of the blown-up P^3 is a P^1-bundle over P^1
            (classify_fano_with_divisor, blowup_p3_line, 2, not_pn),
            (simplify_pair, blowup_p3_line, 2, not_pn),
            (find_transverse_extremal, blowup_p3_line, 2, not_pn),
        ]
        for function, fan, ray, message in cases:
            with pytest.raises(OutsideStatement) as err:
                function(fan, ray)
            assert type(err.value) is OutsideStatement
            assert str(err.value) == message
        assert issubclass(UnsupportedDimension, OutsideStatement)
        assert issubclass(OutsideStatement, ValueError)
        assert not issubclass(ClassificationViolation, ValueError)

    def test_unsupported_dimension_runs_no_lp(self, monkeypatch):
        """Above the catalog's range the classifier stops before any work:
        no Mori extremality LP is solved."""
        import toricfano.mori

        calls = []

        def counting(*args):
            calls.append(args)
            return in_nonneg_span(*args)

        in_nonneg_span = toricfano.mori.in_nonneg_span
        monkeypatch.setattr(toricfano.mori, "in_nonneg_span", counting)
        clear_caches()
        with pytest.raises(UnsupportedDimension) as err:
            classify_fano_with_divisor(projective_space_fan(7), 0)
        assert str(err.value) == "catalog is built for dimensions 3 through 6"
        assert calls == []

    def test_every_fano_corpus_divisor_classifies(self):
        matched = 0
        for fan in random_corpus(3, 80, 2, seed=31):
            if not is_fano(fan):
                continue
            for i in range(len(fan.rays)):
                if analyze_divisor(fan, i).is_proj_space:
                    result = classify_fano_with_divisor(fan, i)
                    assert result.witness is not None
                    matched += 1
        assert matched > 20

    def test_every_catalog_divisor_classifies_home(self):
        for n in (3, 4):
            for entry in catalog(n):
                for ray, _ in entry.divisor_rays:
                    result = classify_fano_with_divisor(entry.fan, ray)
                    assert (result.case_tag, result.nu) == (
                        entry.case_tag,
                        entry.nu,
                    ), entry.name


class TestTheorem1:
    def test_p3_all_points(self, p3):
        report = theorem1_check(p3)
        assert len(report.fano_cone_indices) == 4
        assert not report.violations
        assert all(
            p.conclusion == "projective-space" and p.witness is not None
            for p in report.probes
        )

    def test_blown_line(self, blowup_p3_line):
        report = theorem1_check(blowup_p3_line)
        fano = [p for p in report.probes if p.blowup_fano]
        assert len(fano) == 2
        assert not report.violations
        for p in fano:
            assert 4 not in p.cone  # off the exceptional ray
            assert p.conclusion == "blown-projective-space"

    def test_bundle_has_no_fano_blowup(self):
        report = theorem1_check(p1_bundle_fan(3, 2))
        assert not any(p.blowup_fano for p in report.probes)
        assert not report.violations


def test_the_bound_n_at_least_3_is_sharp():
    """In dimension 2 the blow-up criterion admits more than P^2 and its
    point blow-up F_1: P^1 x P^1 and Bl_2 P^2 have Fano point blow-ups too.

    Up to three point blow-ups of P^2, P^1 x P^1 and F_1..F_3 give 48
    surfaces up to isomorphism, of which exactly the five smooth toric del
    Pezzo surfaces are Fano.
    """
    p2 = projective_space_fan(2)
    found = []
    generation = [p2] + [p1_bundle_fan(2, a) for a in range(4)]
    for depth in range(4):
        fresh = []
        for fan in generation:
            if all(fans_isomorphic(fan, seen) is None for seen in found):
                found.append(fan)
                fresh.append(fan)
        if depth < 3:
            generation = [star_subdivide(f, c) for f in fresh for c in f.max_cones]
    assert len(found) == 48
    bl1 = star_subdivide(p2, (0, 1))
    bl2 = star_subdivide(bl1, (0, 2))
    bl3 = star_subdivide(bl2, (1, 2))
    del_pezzo = [p2, p1_bundle_fan(2, 0), p1_bundle_fan(2, 1), bl2, bl3]
    fano = [f for f in found if is_fano(f)]
    assert len(fano) == 5
    assert all(
        sum(fans_isomorphic(f, g) is not None for g in del_pezzo) == 1 for f in fano
    )
    counts = [
        (sum(point_blowup_is_fano(f, c) for c in f.max_cones), len(f.max_cones))
        for f in del_pezzo
    ]
    assert counts == [(3, 3), (4, 4), (2, 4), (1, 5), (0, 6)]
    with pytest.raises(UnsupportedDimension):
        theorem1_check(p2)


def test_dim4_corpus_sweep():
    # the blow-up criterion holds with zero contradictions in dimension 4
    fano_probes = 0
    for fan in random_corpus(4, 25, 2, seed=17):
        report = theorem1_check(fan)
        assert not report.violations
        fano_probes += len(report.fano_cone_indices)
    assert fano_probes > 0


def test_random_corpus_determinism_and_validity():
    fans = random_corpus(3, 25, 3, seed=7)
    assert fans == random_corpus(3, 25, 3, seed=7)
    assert fans != random_corpus(3, 25, 3, seed=8)
    for fan in fans:
        assert is_smooth(fan) and is_complete(fan)


def test_adjunction_bound_on_catalog():
    for n in (3, 4):
        for entry in catalog(n):
            for i in range(len(entry.fan.rays)):
                analysis = analyze_divisor(entry.fan, i)
                if analysis.is_proj_space:
                    assert analysis.d >= 1 - n


def test_local_fano_test_is_double_checked(monkeypatch):
    # a wrong "Fano" from the local test must still be recorded on its probe:
    # a fan that is neither target fails the identification, and on the
    # blown-up space a fixed point on the exceptional divisor is flagged
    import toricfano.classify

    monkeypatch.setattr(
        toricfano.classify,
        "point_blowups_are_fano",
        lambda f: (True,) * len(f.max_cones),
    )
    report = theorem1_check(p1_bundle_fan(3, 2))
    assert all(p.blowup_fano for p in report.probes)
    assert all(
        p.violation == "a point blow-up is Fano, but the fan is neither P^3"
        " nor B(P^3, linear P^1)"
        for p in report.probes
    )
    assert not report.global_violations
    report = theorem1_check(p1_bundle_fan(3, 3))  # not Fano
    assert report.global_violations == (
        "some point blow-up is Fano but the fan itself is not",
    )
    blown = star_subdivide(projective_space_fan(3), (0, 1))
    report = theorem1_check(blown)
    assert all(p.blowup_fano for p in report.probes)
    flagged = [p.cone_index for p in report.probes if p.violation]
    assert flagged == [ci for ci, cone in enumerate(blown.max_cones) if 4 in cone]
    assert flagged
    assert all(
        p.violation
        == "fixed point lies on the exceptional divisor yet its blow-up is Fano"
        for p in report.probes
        if p.violation
    )


def test_theorem1_matches_the_blowup_route():
    """Differential test: on every Fano probe, identifying the fan once gives
    the probe that building, checking and classifying its blow-up gives."""
    fans = list(random_corpus(3, 200, 3, 42))
    fans.extend(entry.fan for entry in catalog(3))
    for n in range(3, 7):
        pn = projective_space_fan(n)
        fans.extend((pn, star_subdivide(pn, (0, 1))))
    conclusions = []
    for fan in fans:
        for probe in theorem1_check(fan).probes:
            if probe.blowup_fano:
                assert probe == blowup_route_probe(fan, probe.cone_index, probe.cone)
                conclusions.append(probe.conclusion)
    assert conclusions.count("projective-space") >= 4 + 5 + 6 + 7
    assert conclusions.count("blown-projective-space") >= 2 + 3 + 4 + 5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theorem1_targets_are_catalog_entries_i_and_ii(n, monkeypatch):
    import toricfano.classify

    targets = []

    def recording(f, g):
        targets.append(g)
        return fans_isomorphic(f, g)

    monkeypatch.setattr(toricfano.classify, "fans_isomorphic", recording)
    pn = projective_space_fan(n)
    for fan in (pn, star_subdivide(pn, (0, 1))):
        assert not theorem1_check(fan).violations
    assert targets == [entry_for(n, "i").fan, entry_for(n, "ii").fan]


def test_theorem1_identifies_each_fan_once(monkeypatch):
    """Operation budget: the sweep builds no blow-up, runs no classifier,
    LP or catalog, and calls fans_isomorphic once for each fan with a Fano
    probe and never for another."""
    import toricfano.classify
    import toricfano.mori

    clear_caches()
    corpus = random_corpus(3, 60, 3, 2024)
    calls = {"fans_isomorphic": 0}
    subdivided = []

    def counting_isomorphic(f, g):
        calls["fans_isomorphic"] += 1
        return fans_isomorphic(f, g)

    def recording_subdivide(fan, center):
        subdivided.append(fan)
        return star_subdivide(fan, center)

    def refuse(*args):
        raise AssertionError("theorem1_check must not classify or run an LP")

    monkeypatch.setattr(toricfano.classify, "fans_isomorphic", counting_isomorphic)
    monkeypatch.setattr(toricfano.classify, "star_subdivide", recording_subdivide)
    for name in ("classify_fano_with_divisor", "analyze_divisor", "catalog"):
        monkeypatch.setattr(toricfano.classify, name, refuse)
    monkeypatch.setattr(toricfano.mori, "in_nonneg_span", refuse)
    before = walls.cache_info().misses
    identified = 0
    for fan in corpus:
        start = calls["fans_isomorphic"]
        report = theorem1_check(fan)
        assert calls["fans_isomorphic"] - start == bool(report.fano_cone_indices)
        identified += bool(report.fano_cone_indices)
    assert identified == calls["fans_isomorphic"] == 11
    # the only star subdivision is the blown-up target, built from P^3
    assert subdivided and set(subdivided) == {projective_space_fan(3)}
    assert walls.cache_info().misses - before <= len(corpus) + 2


def test_analyze_divisor_builds_no_fan(monkeypatch):
    """Operation budget: recognising every divisor of the catalog reads the
    fan's cones and walls and constructs no quotient fan, neither through
    ``Fan(...)`` nor as a surgery's child, which skips ``__post_init__``."""
    import toricfano.fan

    entries = [entry for n in range(3, 7) for entry in catalog(n)]
    clear_caches()
    built = {"fans": 0}
    post_init, child = toricfano.fan.Fan.__post_init__, toricfano.fan._child

    def counting_post_init(fan):
        built["fans"] += 1
        post_init(fan)

    def counting_child(*args):
        built["fans"] += 1
        return child(*args)

    monkeypatch.setattr(toricfano.fan.Fan, "__post_init__", counting_post_init)
    monkeypatch.setattr(toricfano.fan, "_child", counting_child)
    recognized = sum(
        analyze_divisor(entry.fan, i).is_proj_space
        for entry in entries
        for i in range(len(entry.fan.rays))
    )
    assert built["fans"] == 0
    assert recognized == sum(len(entry.divisor_rays) for entry in entries)


def test_theorem1_inverts_each_cone_once(monkeypatch):
    """Operation budget: each cone's inverse is found once, and only for a
    fan whose inverses are read.  The kernel is asked once per fan with no
    parent, here P^n, the root of the corpus: the validity pass inverts its
    cone 0 and reads every other cone's inverse off a neighbour's across
    their shared facet.  A star subdivision reads its verdict and its
    m-vectors off what it recorded of its parent, so only a surgery's
    parent, whose inverses its children record, and a fan that
    ``fans_isomorphic`` compares, whose walls are built, are analysed: 35
    and 57 validity passes (73 and 96 when every child built its
    inverses).  Those derive theirs from their parent's, keeping the
    parent's ``(cols, det)`` for a cone outside the star and deriving one
    for each new cone by the walk's exchange step: 117 and 326 (253 and
    574).  ``kernel.exchange`` is the one step behind every inverse: the
    kernel's n steps from the identity for P^n's cone 0, P^n's n walk
    steps and those, 3 + 3 + 117 = 123 and 4 + 4 + 326 = 334.  The kernel
    keeps no memo, so each call counted through its wrapper is one root
    inverted.  The m-vectors are read once per distinct fan, 73 and 96
    (174 and 173 reads when only P^n's were cached).  Both sweeps run cold."""
    import toricfano.classify
    import toricfano.fan
    import toricfano.kernel

    inverse = toricfano.kernel.inverse
    exchanged = toricfano.kernel.exchange
    analyze = toricfano.fan._analyze.__wrapped__
    child = toricfano.fan._child
    budgets = (((3, 60, 3, 2024), 117, 35, 73), ((4, 50, 4, 7), 326, 57, 96))
    for corpus, derived, passes, ms_read in budgets:
        clear_caches()
        missed, parents, compared = [], set(), set()
        calls = {"asked": 0, "exchanged": 0}

        def recording_child(parent, *args):
            parents.add(parent)
            return child(parent, *args)

        def recording_isomorphic(f, g):
            compared.update((f, g))
            return fans_isomorphic(f, g)

        def counting_analyze(fan):
            missed.append(fan)
            return analyze(fan)

        def counting_inverse(rows):
            calls["asked"] += 1
            return inverse(rows)

        def counting_exchanged(*args):
            calls["exchanged"] += 1
            return exchanged(*args)

        monkeypatch.setattr(
            toricfano.fan, "_analyze", lru_cache(maxsize=None)(counting_analyze)
        )
        monkeypatch.setattr(toricfano.kernel, "inverse", counting_inverse)
        monkeypatch.setattr(toricfano.kernel, "exchange", counting_exchanged)
        monkeypatch.setattr(toricfano.fan, "_child", recording_child)
        monkeypatch.setattr(toricfano.classify, "fans_isomorphic", recording_isomorphic)
        for fan in random_corpus(*corpus):
            theorem1_check(fan)
        roots = [fan for fan in missed if fan._origin is None]
        # the kernel is asked once per parentless fan, for its cone 0, and
        # the other cones of that fan are read off their neighbours'
        assert [fan.dim for fan in roots] == [corpus[0]]
        assert calls["asked"] == len(roots) == 1, corpus
        # P^n's n + 1 cones: one from the kernel's n steps, n walk steps
        walked = sum(len(fan.max_cones) - 1 for fan in roots)
        assert walked == corpus[0], corpus
        assert calls["exchanged"] == 2 * walked + derived, corpus
        assert len(missed) == passes, corpus
        assert toricfano.fan._cone_ms.cache_info().misses == ms_read, corpus
        assert compared and set(missed) <= parents | compared, corpus


def count_full_passes(monkeypatch, run):
    """(full validity passes, kernel calls, facet maps built) by ``run()``
    from cold caches.  A full pass is an ``_analyze`` miss on a fan with no
    parent; a surgery's output inherits its parent's verdict instead."""
    import toricfano.fan
    import toricfano.kernel

    analyze = toricfano.fan._analyze.__wrapped__
    facet_map = toricfano.fan._facet_map
    inverse = toricfano.kernel.inverse
    clear_caches()
    counts = {"passes": 0, "kernel calls": 0, "facet maps": 0}

    def counting_analyze(fan):
        counts["passes"] += fan._origin is None
        return analyze(fan)

    def counting_facet_map(fan):
        counts["facet maps"] += 1
        return facet_map(fan)

    def counting_inverse(rows):
        counts["kernel calls"] += 1
        return inverse(rows)

    monkeypatch.setattr(
        toricfano.fan, "_analyze", lru_cache(maxsize=None)(counting_analyze)
    )
    monkeypatch.setattr(toricfano.fan, "_facet_map", counting_facet_map)
    monkeypatch.setattr(toricfano.kernel, "inverse", counting_inverse)
    run()
    return counts["passes"], counts["kernel calls"], counts["facet maps"]


@pytest.mark.parametrize(
    "corpus, facet_maps",
    [((3, 60, 3, 2024), 6), ((4, 50, 4, 7), 5)],
    ids=["dim3", "dim4"],
)
def test_theorem1_runs_one_full_validity_pass(monkeypatch, corpus, facet_maps):
    """Operation budget: building the corpus and sweeping it runs the full
    validity pass once, on P^n, the root every corpus fan descends from.
    Besides that pass, facet maps are built only by ``walls``, once per fan
    the sweep identifies or identifies against (5 and 4): 1 + 5 and 1 + 4.
    Every Fano verdict is read from the cones' m-vectors, with no facet
    map (1 + 48 + 5 and 1 + 48 + 4 when a table of the least facet degree
    per cone paired each corpus fan's facets)."""

    def sweep():
        for fan in random_corpus(*corpus):
            theorem1_check(fan)

    assert count_full_passes(monkeypatch, sweep) == (1, 1, facet_maps)


def test_theorem2_runs_one_full_validity_pass_per_parentless_fan(monkeypatch):
    """Operation budget: verify-theorem2 for dimensions 3 to 6 runs the full
    validity pass once on each distinct catalog fan with no parent, P^n and
    the n P^1-bundles, 22 in all, and each pass asks the kernel once; the
    blow-ups and every blow-down that classification performs inherit
    their parents' verdicts.  Facet maps are built once by each full pass
    and by ``walls`` once per distinct fan whose walls are read: 22 + 54."""
    import toricfano.cli

    def verify():
        for n in range(3, 7):
            with redirect_stdout(io.StringIO()):
                assert toricfano.cli.run(["verify-theorem2", "--dim", str(n), "--json"]) == 0

    assert sum(1 + n for n in range(3, 7)) == 22
    assert count_full_passes(monkeypatch, verify) == (22, 22, 76)


@pytest.mark.parametrize(
    "corpus, built",
    [((3, 60, 3, 2024), 5), ((4, 50, 4, 7), 4)],
    ids=["dim3", "dim4"],
)
def test_theorem1_builds_walls_only_for_the_fans_it_identifies(monkeypatch, corpus, built):
    """Operation budget: the cold sweep reads every Fano verdict it needs
    from the cones' m-vectors, so it asks no wall for a degree, and builds
    walls only for the fans that ``fans_isomorphic`` compares: a
    fan with a Fano probe and the target it is identified against."""
    import toricfano.classify
    import toricfano.fan
    import toricfano.intersect

    fans = random_corpus(*corpus)
    clear_caches()
    degree = toricfano.intersect.anticanonical_degree
    calls = {"degree": 0}
    compared = set()

    def counting_degree(fan, wall):
        calls["degree"] += 1
        return degree(fan, wall)

    def recording_isomorphic(f, g):
        compared.update((f, g))
        return fans_isomorphic(f, g)

    monkeypatch.setattr(toricfano.intersect, "anticanonical_degree", counting_degree)
    monkeypatch.setattr(toricfano.classify, "fans_isomorphic", recording_isomorphic)
    identified = {fan for fan in fans if theorem1_check(fan).fano_cone_indices}
    assert calls["degree"] == 0
    assert toricfano.fan.walls.cache_info().misses == len(compared) == built
    # no corpus fan has n + 1 rays, so the one target is P^n blown up
    target = star_subdivide(projective_space_fan(corpus[0]), (0, 1))
    assert identified and identified <= compared <= identified | {target}


@pytest.mark.parametrize(
    "corpus", [(3, 200, 3, 42), (4, 50, 4, 7)], ids=["dim3", "dim4"]
)
def test_theorem1_probes_match_the_per_cone_test(corpus):
    """Differential test: the sweep's one verdict read per fan gives every
    fixed point the verdict ``point_blowup_is_fano`` gives its cone alone,
    and both verdicts occur."""
    verdicts = set()
    for fan in random_corpus(*corpus):
        probes = theorem1_check(fan).probes
        assert [p.cone for p in probes] == list(fan.max_cones)
        expected = [point_blowup_is_fano(fan, cone) for cone in fan.max_cones]
        assert [p.blowup_fano for p in probes] == expected, fan
        assert point_blowups_are_fano(fan) == tuple(expected)
        verdicts.update(expected)
    assert verdicts == {False, True}


def test_theorem1_sweep_checks_entries_only_on_fans_with_no_parent(monkeypatch):
    """Operation budget: from cold caches, ``verify-theorem1 --corpus
    4,50,4,7`` runs ``Fan``'s entry checks twice, on P^4, built for the
    corpus and once for the two targets fans are identified against.  The
    125 star subdivisions, 124 for the corpus and one target, skip them
    (4 checks and 127 subdivisions when the targets were built for each
    of the 3 identified fans).  Its 683 fixed points are decided by one
    ``point_blowups_are_fano`` read per fan and no ``point_blowup_is_fano``
    call."""
    import sys

    import toricfano.cli
    import toricfano.fan

    clear_caches()
    counts = dict.fromkeys(
        ("checks", "children", "point_blowup_is_fano", "point_blowups_are_fano"), 0
    )
    post_init, child = toricfano.fan.Fan.__post_init__, toricfano.fan._child

    def counting_post_init(fan):
        counts["checks"] += 1
        post_init(fan)

    def counting_child(*args):
        counts["children"] += 1
        return child(*args)

    monkeypatch.setattr(toricfano.fan.Fan, "__post_init__", counting_post_init)
    monkeypatch.setattr(toricfano.fan, "_child", counting_child)
    # every binding of the two Fano tests in the package, wherever imported
    for module_name, module in list(sys.modules.items()):
        for name in ("point_blowup_is_fano", "point_blowups_are_fano"):
            real = vars(module).get(name)
            if module_name.partition(".")[0] == "toricfano" and real:

                def counting(*args, real=real, name=name):
                    counts[name] += 1
                    return real(*args)

                monkeypatch.setattr(module, name, counting)
    with redirect_stdout(io.StringIO()) as out:
        assert toricfano.cli.run(["verify-theorem1", "--corpus", "4,50,4,7", "--json"]) == 0
    assert counts == {
        "checks": 2,
        "children": 125,
        "point_blowup_is_fano": 0,
        "point_blowups_are_fano": 50,
    }
    assert out.getvalue().count('"cone_index"') == 683
