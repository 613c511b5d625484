"""Numerical curve classes, extremality in the cone of curves, contractions.

The cone of effective curves of a smooth projective toric variety is
spanned by the wall classes, so extremality of a wall class is an exact
feasibility question against the other wall classes, decided by the
integer simplex in Picard coordinates.  One class table per fan, keyed by
facet, holds each wall's class read straight from its relation on the
rays outside cone 0 (rho = #rays - dim numbers), and the fan's distinct
classes in wall order.  A wall class is primitive, so the only wall class
that is a positive multiple of it is itself; the verdict is cached per
class, so walls with equal classes share one LP.  Contraction types
follow the count of negative and nonpositive wall coefficients.
"""

from functools import lru_cache

from ._record import record
from ._simplex import in_nonneg_span
from .fan import walls
from .intersect import anticanonical_degree


def curve_class(fan, wall):
    """Class of the wall curve: its intersection numbers with every prime
    divisor, in ray order; 1 on the apexes, the coefficients on the wall.

    Reads only the wall and trusts that it is one of ``walls(fan)``.
    """
    dots = [0] * len(fan.rays)
    dots[wall.apex_a] = 1
    dots[wall.apex_b] = 1
    for i, a in zip(wall.wall_rays, wall.coeffs):
        dots[i] = a
    return tuple(dots)


@lru_cache(maxsize=None)
def _picard_classes(fan):
    """The fan's class table: (facet -> (Wall, class), the distinct classes
    in wall order).

    A class is read on the rays outside cone 0, straight from the wall
    relation: 1 on an apex, the coefficient on a wall ray, 0 elsewhere.
    """
    fan_walls = walls(fan)  # raises unless the fan is smooth and complete
    anchor = set(fan.max_cones[0])
    outside = [i for i in range(len(fan.rays)) if i not in anchor]
    slot = {i: k for k, i in enumerate(outside)}
    table = {}
    for w in fan_walls:
        dots = [0] * len(slot)
        for i, a in zip(w.wall_rays, w.coeffs):
            if i in slot:
                dots[slot[i]] = a
        for i in (w.apex_a, w.apex_b):
            if i in slot:
                dots[slot[i]] = 1
        table[w.wall_rays] = (w, tuple(dots))
    return table, tuple(dict.fromkeys(dots for _, dots in table.values()))


def is_extremal(fan, wall):
    """Is the wall class on a one-dimensional face of the cone of curves?

    Decided exactly: the class is extremal iff it is not a nonnegative
    rational combination of the wall classes that are not positive
    multiples of it.  A wall class meets each of its two apex divisors
    once, so it is primitive in N_1 and no other wall class is a positive
    multiple of it: those are the fan's other distinct classes.

    Every class is first projected onto the rays outside cone 0 (Picard
    coordinates).  A class C satisfies sum_i (D_i . C) v_i = 0, and the
    rays of cone 0 are a basis of N, so its numbers on them are fixed by
    the others: the projection is injective on N_1.  Equal classes and
    nonnegative-span membership are therefore the same after it; only the
    LP shrinks to #rays - dim rows.  The projected classes are tabled once
    per fan, and the answer is cached per class, so walls with equal
    classes share one LP.  Raises ValueError when the wall is not a wall
    of the fan.
    """
    entry = _picard_classes(fan)[0].get(wall.wall_rays)
    if entry is None or entry[0] != wall:
        raise ValueError("wall does not belong to the fan")
    return _class_is_extremal(fan, entry[1])


@lru_cache(maxsize=None)
def _class_is_extremal(fan, target):
    """is_extremal for a class of the fan's table: one LP against the
    fan's other distinct classes."""
    candidates = [dots for dots in _picard_classes(fan)[1] if dots != target]
    return not in_nonneg_span(candidates, target)


def is_mori_extremal(fan, wall):
    """Extremal with strictly positive anticanonical degree.

    Extremality is asked first, so a wall of another fan raises ValueError
    whatever its degree.
    """
    return is_extremal(fan, wall) and anticanonical_degree(fan, wall) > 0


@record
class ContractionInfo:
    """Type data of the extremal contraction of a wall class.

    alpha counts negative wall coefficients, beta the nonpositive ones.
    alpha = 0 is a projective-space fibration (nothing is contracted
    birationally); alpha = 1 contracts a divisor; alpha >= 2 is small.
    """

    alpha: int
    beta: int
    kind: str


def contraction_info(fan, wall):
    if not is_mori_extremal(fan, wall):
        raise ValueError("wall class is not Mori extremal")
    alpha = sum(1 for a in wall.coeffs if a < 0)
    beta = sum(1 for a in wall.coeffs if a <= 0)
    kind = "fibration" if alpha == 0 else "divisorial" if alpha == 1 else "small"
    return ContractionInfo(alpha, beta, kind)
