"""Intersection numbers of invariant divisors with invariant curves.

On a smooth complete toric variety an invariant Cartier divisor is ample
exactly when it meets every invariant curve strictly positively, so both
the ample and the Fano test are one exact scan over the walls.  Whether a
point blow-up is Fano needs only the anticanonical degree of each wall,
which ``fan._least_facet_degrees`` reads per maximal cone without building
the walls, so one read of that table decides every fixed point of a fan;
:func:`is_fano`, the wall scan, is its oracle in the tests.
"""

from functools import lru_cache

from ._record import record
from .fan import _least_facet_degrees, require_int, walls


@record
class TDivisor:
    """Invariant divisor sum(coeffs[i] * V(ray_i)), one integer per ray."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            tuple(
                require_int(c, f"divisor coefficient {i}")
                for i, c in enumerate(self.coeffs)
            ),
        )


def prime_divisor(fan, ray_index):
    """The divisor V(ray_index); the index must be an int naming a ray."""
    require_int(ray_index, "ray index")
    if not 0 <= ray_index < len(fan.rays):
        raise ValueError(
            f"ray index {ray_index} is out of range for {len(fan.rays)} rays"
        )
    return TDivisor(tuple(int(i == ray_index) for i in range(len(fan.rays))))


def anticanonical_divisor(fan):
    """The anticanonical divisor: coefficient 1 on every ray."""
    return TDivisor((1,) * len(fan.rays))


def divisor_dot_curve(fan, divisor, wall):
    """D . C for the invariant curve of ``wall``, via the wall relation.

    Reads only the wall and trusts that it is one of ``walls(fan)``.
    """
    c = divisor.coeffs
    if len(c) != len(fan.rays):
        raise ValueError(
            f"divisor has {len(c)} coefficients, fan has {len(fan.rays)} rays"
        )
    return (
        c[wall.apex_a]
        + c[wall.apex_b]
        + sum(a * c[i] for i, a in zip(wall.wall_rays, wall.coeffs))
    )


def anticanonical_degree(fan, wall):
    """-K . C = 2 + sum of the wall coefficients.

    Reads only the wall and trusts that it is one of ``walls(fan)``.
    """
    return 2 + sum(wall.coeffs)


@record
class DivisorPositivity:
    """One-pass wall scan: ampleness, nefness, and the minimising wall."""

    ample: bool
    nef: bool
    min_degree: int
    min_wall: object


def positivity(fan, divisor):
    best = None
    best_wall = None
    for w in walls(fan):
        value = divisor_dot_curve(fan, divisor, w)
        if best is None or value < best:
            best, best_wall = value, w
    return DivisorPositivity(best > 0, best >= 0, best, best_wall)


@lru_cache(maxsize=None)
def is_fano(fan):
    """True when the anticanonical degree of every wall is positive."""
    return all(anticanonical_degree(fan, w) > 0 for w in walls(fan))


def point_blowups_are_fano(fan):
    """Per maximal cone, in order, whether blowing up its fixed point gives
    a Fano fan.

    Decided from the parent, without building the blow-up.  Let cone =
    {v_1..v_n} and w = v_1 + ... + v_n the new ray.

    - A wall that is not a facet of the cone lies in two cones that the
      subdivision keeps, so it keeps its relation and its degree.
    - The facet opposite v_k, with relation b + v_k + sum c_i v_i = 0,
      becomes a wall between {w} + facet and the cone across it.  Putting
      v_k = w - sum_{i != k} v_i gives b + w + sum (c_i - 1) v_i = 0, so
      its anticanonical degree 2 + sum c_i drops by n - 1.
    - The new walls inside the cone, where {w} + cone - {v_i} meets
      {w} + cone - {v_j}, have relation v_i + v_j - w + sum of the other
      n - 2 rays = 0 and degree n - 1 > 0.

    So the blow-up is Fano exactly when the fan is Fano and each of the
    cone's n facet walls has degree > n - 1.  Both come from one read of
    the cached table ``fan._least_facet_degrees``, one least facet degree per
    maximal cone: its least entry is positive exactly when the fan is
    Fano, and the cone's entry must exceed n - 1.  No wall is built.
    Raises InvalidFanError unless the fan is smooth and complete.
    """
    table = _least_facet_degrees(fan)
    if min(table) <= 0:
        return (False,) * len(table)
    bound = fan.dim - 1
    return tuple(degree > bound for degree in table)


def point_blowup_is_fano(fan, cone):
    """True when blowing up the fixed point of ``cone`` gives a Fano fan:
    the entry of :func:`point_blowups_are_fano` at the cone's index.

    Each entry of ``cone`` must be an int (else TypeError, as for a center
    of ``star_subdivide``), and the sorted entries must be a maximal cone of
    the fan (else ValueError; a repeated index never is).  A sweep over
    every fixed point reads :func:`point_blowups_are_fano` once instead.
    """
    cone = tuple(cone)
    # one type pass; only on failure does require_int name the entry (or
    # accept it: an int subclass passes)
    if set(map(type, cone)) != {int}:
        for k, i in enumerate(cone):
            require_int(i, f"cone entry {k}")
    fano = point_blowups_are_fano(fan)  # raises unless smooth and complete
    try:
        ci = fan.max_cones.index(tuple(sorted(cone)))
    except ValueError:
        raise ValueError("center is not a maximal cone of the fan") from None
    return fano[ci]
