from operator import mul

import pytest
from conftest import bareiss_inverse

from toricfano import (
    Fan,
    InvalidFanError,
    TDivisor,
    anticanonical_degree,
    anticanonical_divisor,
    divisor_dot_curve,
    is_fano,
    p1_bundle_fan,
    point_blowup_is_fano,
    positivity,
    prime_divisor,
    projective_space_fan,
    random_corpus,
    star_subdivide,
    walls,
)
from toricfano.intersect import _blowup_verdicts


def test_dot_examples(p3, blowup_p3_point, get_wall):
    # P^3: V(e0) against the wall {e0, e1} (relation e2 + e3 + e0 + e1 = 0)
    w = get_wall(walls(p3), (0, 3))
    assert divisor_dot_curve(p3, prime_divisor(p3, 3), w) == 1
    # point blow-up: V(w) against the wall {w, e1} (relation e2 + e3 - w + e1 = 0)
    w = get_wall(walls(blowup_p3_point), (0, 4))
    assert divisor_dot_curve(blowup_p3_point, prime_divisor(blowup_p3_point, 4), w) == -1
    # zero divisor pairs to zero with everything
    zero = TDivisor((0,) * 5)
    assert all(
        divisor_dot_curve(blowup_p3_point, zero, w) == 0
        for w in walls(blowup_p3_point)
    )


def test_dot_additive(p3, get_wall):
    a = prime_divisor(p3, 0)
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
        ones = anticanonical_divisor(fan)
        for w in walls(fan):
            assert anticanonical_degree(fan, w) == divisor_dot_curve(fan, ones, w)


@pytest.mark.parametrize(
    "ray_index, error",
    [
        (7, ValueError),
        (-1, ValueError),
        (4, ValueError),
        (1.0, TypeError),
        (True, TypeError),
        ("1", TypeError),
    ],
    ids=["seven", "negative", "one-past-the-end", "float", "bool", "str"],
)
def test_prime_divisor_rejects_what_names_no_ray(p3, ray_index, error):
    with pytest.raises(error, match="ray index"):
        prime_divisor(p3, ray_index)


def test_prime_divisor_examples(p3):
    assert [prime_divisor(p3, i).coeffs for i in range(4)] == [
        tuple(int(i == j) for j in range(4)) for i in range(4)
    ]


def test_is_ample_examples(p3, p1xp2):
    assert positivity(p3, anticanonical_divisor(p3)).ample
    assert positivity(p3, prime_divisor(p3, 3)).ample
    assert not positivity(p1xp2, prime_divisor(p1xp2, 0)).ample
    assert positivity(p1xp2, prime_divisor(p1xp2, 0)).nef


def test_positivity_scan(p1xp2):
    scan = positivity(p1xp2, prime_divisor(p1xp2, 0))
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
    fano = 0
    for fan in differential_fans:
        for cone in fan.max_cones:
            expected = is_fano(star_subdivide(fan, cone))
            assert point_blowup_is_fano(fan, cone) == expected, (fan, cone)
            fano += expected
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


@pytest.mark.parametrize(
    "cone, message",
    [
        ((0.0, 1, 2), "cone entry 0 must be an integer, got 0.0"),
        ((True, 0, 2), "cone entry 0 must be an integer, got True"),
        ((0, 1, "2"), "cone entry 2 must be an integer, got '2'"),
    ],
    ids=["float", "bool", "str"],
)
def test_point_blowup_is_fano_rejects_non_integer_entries(p3, cone, message):
    # the same entries as a center are rejected by star_subdivide too
    with pytest.raises(TypeError, match="must be an integer"):
        star_subdivide(p3, cone)
    with pytest.raises(TypeError) as err:
        point_blowup_is_fano(p3, cone)
    assert str(err.value) == message


def test_point_blowup_is_fano_rejects_what_is_not_a_maximal_cone(p3, p1xp2):
    assert point_blowup_is_fano(p3, (2, 0, 1))  # any order of a cone's rays
    # a repeated index names the rays of a cone, but is not one
    for cone in ((0, 1, 2, 2), (0, 1, 1), (3, 3, 3), ()):
        with pytest.raises(ValueError, match="^cone is not a maximal cone of the fan$"):
            point_blowup_is_fano(p3, cone)
    # every facet of (2, 3, 4) is a wall, but (2, 3) joins the cones through
    # rays 0 and 1, not through 4
    with pytest.raises(ValueError, match="not a maximal cone"):
        point_blowup_is_fano(p1xp2, (2, 3, 4))


def test_point_blowup_is_fano_examples(p3, blowup_p3_line):
    assert all(point_blowup_is_fano(p3, cone) for cone in p3.max_cones)
    # only the two fixed points off the exceptional ray blow up to a Fano
    cones = blowup_p3_line.max_cones
    fano = [c for c in cones if point_blowup_is_fano(blowup_p3_line, c)]
    assert fano == [c for c in cones if 4 not in c]
    with pytest.raises(ValueError, match="not a maximal cone"):
        point_blowup_is_fano(p3, (0, 1))
    single = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    with pytest.raises(InvalidFanError):
        point_blowup_is_fano(single, (0, 1, 2))
