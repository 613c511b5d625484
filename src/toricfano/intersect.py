"""Intersection numbers of invariant divisors with invariant curves.

On a smooth complete toric variety an invariant Cartier divisor is ample
exactly when it meets every invariant curve strictly positively, so both
the ample and the Fano test reduce to one exact scan over the walls.
"""

from bisect import bisect_left
from functools import lru_cache
from operator import attrgetter

from ._record import record
from .fan import require_int, walls

_wall_rays = attrgetter("wall_rays")


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
    """The divisor V(ray_index)."""
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


def point_blowup_is_fano(fan, cone):
    """True when blowing up the fixed point of ``cone`` gives a Fano fan.

    Decided from the parent's walls, without building the blow-up.  Let
    cone = {v_1..v_n} and w = v_1 + ... + v_n the new ray.

    - A wall that is not a facet of the cone lies in two cones that the
      subdivision keeps, so it keeps its relation and its degree.
    - The facet opposite v_k, with relation b + v_k + sum c_i v_i = 0,
      becomes a wall between {w} + facet and the cone across it.  Putting
      v_k = w - sum_{i != k} v_i gives b + w + sum (c_i - 1) v_i = 0, so
      its anticanonical degree 2 + sum c_i drops by n - 1.
    - The new walls inside the cone, where {w} + cone - {v_i} meets
      {w} + cone - {v_j}, have relation v_i + v_j - w + sum of the other
      n - 2 rays = 0 and degree n - 1 > 0.

    So the blow-up is Fano exactly when the fan is Fano (the cached
    :func:`is_fano`) and each of the cone's n facet walls has degree
    > n - 1.  Each facet wall is found by bisection in ``walls(fan)``,
    which is sorted by wall rays, so a call reads n walls, not all of them,
    and a sweep over every fixed point is linear in the cones.  ``cone``
    is a maximal cone exactly when each facet left by dropping one of its
    n entries is a wall with the dropped entry as an apex; a repeated
    index never is, so it raises ValueError.
    """
    fan_walls = walls(fan)  # raises unless the fan is smooth and complete
    cone = tuple(sorted(cone))
    if len(cone) != fan.dim:
        raise ValueError("center is not a maximal cone of the fan")
    facet_walls = []
    for k, apex in enumerate(cone):
        facet = cone[:k] + cone[k + 1 :]
        at = bisect_left(fan_walls, facet, key=_wall_rays)
        w = fan_walls[at] if at < len(fan_walls) else None
        if w is None or w.wall_rays != facet or apex not in (w.apex_a, w.apex_b):
            raise ValueError("center is not a maximal cone of the fan")
        facet_walls.append(w)
    drop = fan.dim - 1
    return is_fano(fan) and all(
        anticanonical_degree(fan, w) > drop for w in facet_walls
    )
