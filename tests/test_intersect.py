from operator import mul

import pytest
from conftest import bareiss_inverse

from toricfano import (
    Fan,
    InvalidFanError,
    TDivisor,
    anticanonical_degree,
    divisor_dot_curve,
    is_fano,
    p1_bundle_fan,
    point_blowups_are_fano,
    positivity,
    projective_space_fan,
    random_corpus,
    star_subdivide,
    walls,
)
from toricfano.intersect import _blowup_verdicts


def test_dot_examples(p3, blowup_p3_point, get_wall):
    # P^3: V(e0) against the wall {e0, e1} (relation e2 + e3 + e0 + e1 = 0)
    w = get_wall(walls(p3), (0, 3))
    assert divisor_dot_curve(p3, TDivisor((0, 0, 0, 1)), w) == 1
    # point blow-up: V(w) against the wall {w, e1} (relation e2 + e3 - w + e1 = 0)
    w = get_wall(walls(blowup_p3_point), (0, 4))
    assert divisor_dot_curve(blowup_p3_point, TDivisor((0, 0, 0, 0, 1)), w) == -1
    # zero divisor pairs to zero with everything
    zero = TDivisor((0,) * 5)
    assert all(
        divisor_dot_curve(blowup_p3_point, zero, w) == 0
        for w in walls(blowup_p3_point)
    )


def test_dot_additive(p3, get_wall):
    a = TDivisor((1, 0, 0, 0))
    b = TDivisor((0, 0, 3, 0))
    total = TDivisor(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    for w in walls(p3):
        assert divisor_dot_curve(p3, total, w) == divisor_dot_curve(
            p3, a, w
        ) + divisor_dot_curve(p3, b, w)


def test_dot_size_mismatch(p3, get_wall):
    w = get_wall(walls(p3), (0, 1))
    with pytest.raises(ValueError, match="coefficients"):
        divisor_dot_curve(p3, TDivisor((1, 1)), w)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TDivisor((0.5, 1, 1)), "divisor coefficient 0 must be an integer, got 0.5"),
        (lambda: TDivisor((1, True, 1)), "divisor coefficient 1 must be an integer, got True"),
        (lambda: TDivisor((1, 1, "1")), "divisor coefficient 2 must be an integer, got '1'"),
    ],
    ids=["float", "bool", "str"],
)
def test_divisor_rejects_non_integers(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == message


def test_anticanonical_degree_examples(p3, blowup_p3_point, get_wall):
    assert anticanonical_degree(p3, get_wall(walls(p3), (0, 1))) == 4
    # P(O+O(3)) over P^2: degree 0 wall
    fan = p1_bundle_fan(3, 3)
    w = get_wall(walls(fan), (0, 2))  # {f+, b1}
    assert anticanonical_degree(fan, w) == 0
    # point blow-up of P^3, wall {e1, e2} has apexes w, e0 and coefficients 0
    w = get_wall(walls(blowup_p3_point), (0, 1))
    assert (w.apex_a, w.apex_b) == (3, 4)
    assert anticanonical_degree(blowup_p3_point, w) == 2


def test_anticanonical_degree_equals_all_ones_dot(p3, blowup_p3_point):
    for fan in (p3, blowup_p3_point):
        ones = TDivisor((1,) * len(fan.rays))
        for w in walls(fan):
            assert anticanonical_degree(fan, w) == divisor_dot_curve(fan, ones, w)


def test_is_ample_examples(p3, p1xp2):
    assert positivity(p3, TDivisor((1, 1, 1, 1))).ample
    assert positivity(p3, TDivisor((0, 0, 0, 1))).ample
    assert not positivity(p1xp2, TDivisor((1, 0, 0, 0, 0))).ample
    assert positivity(p1xp2, TDivisor((1, 0, 0, 0, 0))).nef


def test_positivity_scan(p1xp2):
    scan = positivity(p1xp2, TDivisor((1, 0, 0, 0, 0)))
    assert not scan.ample and scan.nef and scan.min_degree == 0


def test_is_fano_examples(p3, blowup_p3_point):
    for n in (3, 4, 5):
        assert is_fano(projective_space_fan(n))
    for n in (3, 4):
        for nu in range(n):
            assert is_fano(p1_bundle_fan(n, nu))
        assert not is_fano(p1_bundle_fan(n, n))
    assert is_fano(blowup_p3_point)


def test_principal_divisors_numerically_trivial(p3, p1xp2, blowup_p3_point):
    for fan in (p3, p1xp2, blowup_p3_point):
        for k in range(fan.dim):
            m = tuple(int(i == k) for i in range(fan.dim))
            # div(chi^m): the pairing <m, ray> on each ray
            div = TDivisor(
                tuple(sum(a * b for a, b in zip(m, ray)) for ray in fan.rays)
            )
            assert all(divisor_dot_curve(fan, div, w) == 0 for w in walls(fan))


def test_pn_wall_degrees():
    for n in range(2, 6):
        fan = projective_space_fan(n)
        assert all(anticanonical_degree(fan, w) == n + 1 for w in walls(fan))


def test_point_blowup_is_fano_matches_the_built_blowup(differential_fans):
    """Differential test: each fixed point's verdict in the one read of
    ``point_blowups_are_fano`` is the wall scan of the built blow-up."""
    fano = 0
    for fan in differential_fans:
        expected = tuple(is_fano(star_subdivide(fan, cone)) for cone in fan.max_cones)
        assert point_blowups_are_fano(fan) == expected, fan
        fano += sum(expected)
    # both answers occur; the Fano ones are the rare side
    assert 0 < fano < sum(len(f.max_cones) for f in differential_fans)


def test_blowup_verdicts_match_the_walls(differential_fans):
    """Differential test of the verdicts read from the cones' m-vectors
    against the wall scan: the fan is Fano exactly when ``is_fano`` says
    so, and a cone's point blow-up exactly when the fan is Fano and each
    facet wall of the cone has anticanonical degree > n - 1."""
    fans = differential_fans + random_corpus(3, 60, 3, 2024)
    fano = blowups = 0
    for fan in fans:
        by_facet = {w.wall_rays: w for w in walls(fan)}
        expected = tuple(
            is_fano(fan)
            and all(
                anticanonical_degree(fan, by_facet[cone[:k] + cone[k + 1 :]])
                > fan.dim - 1
                for k in range(fan.dim)
            )
            for cone in fan.max_cones
        )
        assert _blowup_verdicts(fan) == (is_fano(fan), expected), fan
        fano += is_fano(fan)
        blowups += any(expected)
    # both verdicts occur, on the fan and on its blow-ups
    assert 0 < blowups < fano < len(fans)


def test_a_ray_beyond_the_bound_forbids_the_blowup(differential_fans):
    """The lemma behind the per-cone verdict: if some ray v_j outside a cone
    has <m, v_j> >= 2 - n, m = A^-1 (1, ..., 1) from the Bareiss oracle,
    then blowing up the cone's fixed point gives no Fano fan.  Both sides
    of the lemma occur on Fano fans."""
    seen = set()
    for fan in differential_fans:
        for cone in fan.max_cones:
            adj, det = bareiss_inverse(tuple(fan.rays[i] for i in cone))
            m = [sum(row) * det for row in adj]
            assert abs(det) == 1 and all(
                sum(map(mul, m, fan.rays[i])) == 1 for i in cone
            ), (fan, cone)
            beyond = any(
                sum(map(mul, m, ray)) >= 2 - fan.dim
                for j, ray in enumerate(fan.rays)
                if j not in cone
            )
            if beyond:
                assert not is_fano(star_subdivide(fan, cone)), (fan, cone)
            if is_fano(fan):
                seen.add(beyond)
    assert seen == {False, True}


def test_point_blowup_is_fano_examples(p3, blowup_p3_line):
    assert point_blowups_are_fano(p3) == (True,) * 4
    # only the two fixed points off the exceptional ray blow up to a Fano
    cones = blowup_p3_line.max_cones
    assert point_blowups_are_fano(blowup_p3_line) == tuple(4 not in c for c in cones)
    single = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    with pytest.raises(InvalidFanError):
        point_blowups_are_fano(single)
