"""Numerical curve classes, extremality in the cone of curves, contractions.

The cone of effective curves of a smooth projective toric variety is
spanned by the wall classes, so extremality of a wall class is an exact
feasibility question against the other wall classes, decided by the
integer simplex in Picard coordinates: each class is read only on the
rays outside cone 0, rho = #rays - dim numbers, once per fan.
Contraction types follow the count of negative and nonpositive wall
coefficients.
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


def is_positive_multiple(base, other):
    """True when other = q * base for some rational q > 0 (exact, integral)."""
    n = len(base)
    for i in range(n):
        for j in range(i + 1, n):
            if base[i] * other[j] != base[j] * other[i]:
                return False
    for x, y in zip(base, other):
        if x != 0:
            return x * y > 0
    return False


@lru_cache(maxsize=None)
def _picard_classes(fan):
    """Wall -> its class read on the rays outside cone 0, in wall order."""
    fan_walls = walls(fan)  # raises unless the fan is smooth and complete
    anchor = set(fan.max_cones[0])
    outside = [i for i in range(len(fan.rays)) if i not in anchor]
    classes = {}
    for w in fan_walls:
        dots = curve_class(fan, w)
        classes[w] = tuple(dots[i] for i in outside)
    return classes


@lru_cache(maxsize=None)
def is_extremal(fan, wall):
    """Is the wall class on a one-dimensional face of the cone of curves?

    Decided exactly: the class is extremal iff it is not a nonnegative
    rational combination of the wall classes that are not positive
    multiples of it.

    Every class is first projected onto the rays outside cone 0 (Picard
    coordinates).  A class C satisfies sum_i (D_i . C) v_i = 0, and the
    rays of cone 0 are a basis of N, so its numbers on them are fixed by
    the others: the projection is injective on N_1.  Equal classes,
    positive multiples and nonnegative-span membership are therefore the
    same after it; only the LP shrinks to #rays - dim rows.  The projected
    classes are computed once per fan.  Raises ValueError when the wall is
    not a wall of the fan.
    """
    classes = _picard_classes(fan)
    target = classes.get(wall)
    if target is None:
        raise ValueError("wall does not belong to the fan")
    candidates = []
    seen = set()
    for dots in classes.values():
        if dots in seen or is_positive_multiple(target, dots):
            continue
        seen.add(dots)
        candidates.append(dots)
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
