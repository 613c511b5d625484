"""Intersection numbers of invariant divisors with invariant curves.

On a smooth complete toric variety an invariant Cartier divisor is ample
exactly when it meets every invariant curve strictly positively, so both
the ample and the Fano test are one exact scan over the walls.  Whether
the fan is Fano, and whether each point blow-up is, is also read without
building any wall, from each maximal cone's m = A^-1 (1, ..., 1) and the
rays outside the cone (``_blowup_verdicts``, proved at
:func:`point_blowups_are_fano`), so one read decides every fixed point of
a fan; :func:`is_fano`, the wall scan, is its oracle in the tests.
:func:`point_blowups_are_fano` is the one entry point for point blow-ups:
a single fixed point's verdict is its entry at the cone's index in
``fan.max_cones``.  A divisor is ``TDivisor(coeffs)``, one integer per
ray in ray order: the anticanonical divisor has every coefficient 1, and
the prime divisor V(ray i) has 1 at i and 0 elsewhere.
"""

from functools import lru_cache
from operator import mul

from ._record import record
from .fan import _cone_ms, ensure_smooth_complete, require_int, walls


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


@lru_cache(maxsize=None)
def _blowup_verdicts(fan):
    """(whether the fan is Fano, per maximal cone in order whether blowing
    up its fixed point gives a Fano fan), read from each cone's m-vector
    (``fan._cone_ms``) and the rays outside the cone alone: the fan is
    Fano when <m, v_j> < 1 for every cone and ray v_j outside it, and a
    cone's point blow-up when, besides, <m, v_j> < 2 - n for every ray v_j
    outside that cone (see :func:`point_blowups_are_fano`).  The first ray with <m, v_j> >= 1
    certifies that the fan is not Fano, and ends the scan.  Raises
    InvalidFanError unless the fan is smooth and complete.
    """
    ensure_smooth_complete(fan)
    verdicts, rays, bound = [], fan.rays, 2 - fan.dim
    for cone, m in zip(fan.max_cones, _cone_ms(fan)):
        blowup_fano = True
        for j, ray in enumerate(rays):
            if j not in cone:
                value = sum(map(mul, m, ray))
                if value >= bound:
                    if value >= 1:
                        return False, (False,) * len(fan.max_cones)
                    blowup_fano = False
        verdicts.append(blowup_fano)
    return True, tuple(verdicts)


def point_blowups_are_fano(fan):
    """Per maximal cone, in order, whether blowing up its fixed point gives
    a Fano fan.

    Decided from the parent, without building the blow-up or any wall.
    Let cone = {v_1..v_n}, A the matrix with these rows, m = A^-1 (1, ...,
    1) the point with <m, v_i> = 1 on the cone's rays, and w = v_1 + ... +
    v_n the new ray.

    - Fano: -K is ample exactly when its support function, <m, .> on each
      cone, is strictly convex, that is when <m, v_j> < 1 for every cone
      and every ray v_j outside it (Fulton, Introduction to Toric
      Varieties, 3.4).  The wall test is a special case: a wall with the
      relation b + v_k + sum c_i v_i = 0, b the apex across the facet
      opposite v_k, has <m, b> = -1 - sum c_i, so its degree -K.C = 2 +
      sum c_i = 1 - <m, b> is positive exactly when <m, b> < 1.
    - The blow-up is Fano if the fan is Fano and each of the cone's n
      facet walls has degree > n - 1, that is <m, b> < 2 - n at each far
      apex b.  A wall that is not a facet of the cone lies in two cones
      that the subdivision keeps, so it keeps its relation and its degree.
      The facet opposite v_k becomes a wall between {w} + facet and the
      cone across it; putting v_k = w - sum_{i != k} v_i gives b + w +
      sum (c_i - 1) v_i = 0, so its degree drops by n - 1.  The new walls
      inside the cone, where {w} + cone - {v_i} meets {w} + cone - {v_j},
      have relation v_i + v_j - w + sum of the other n - 2 rays = 0 and
      degree n - 1 > 0.  So <m, v_j> < 2 - n for every ray v_j outside
      the cone, far apexes included, is enough.
    - Conversely, let the blow-up be Fano.  Then so is the fan, by the
      facet argument above.  The new cone that swaps v_k for w has m_k =
      m - (n - 1) C_k, C_k the dual vector of v_k (column k of A^-1),
      since <m_k, w> = 1 forces <m_k, v_k> = 2 - n.  A ray v_j outside the
      cone has an integral coordinate lambda_k = <C_k, v_j> <= -1 in the
      cone's basis, being outside it, and then 1 > <m_k, v_j> = <m, v_j>
      - (n - 1) lambda_k >= <m, v_j> + n - 1, so <m, v_j> < 2 - n.

    Both verdicts come from one cached read of the cones' m-vectors,
    which a surgery's output reads off its parent's through the plan.
    Raises InvalidFanError unless the fan is smooth and complete.
    """
    return _blowup_verdicts(fan)[1]

