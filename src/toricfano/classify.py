"""Divisor recognition and the two classification verifiers.

Subject matter: which smooth toric Fano n-folds (n >= 3) contain an
invariant divisor isomorphic to projective (n-1)-space, and which smooth
complete toric n-folds become Fano after blowing up a torus-fixed point.
The verified answers: the divisor case is one of a fixed list of 2n+1
varieties (see :func:`catalog`), and the blow-up case forces the variety
to be projective space or the blow-up of projective space along a linear
codimension-two subspace, with the point off the exceptional divisor.

Everything is decided on fans with exact integer arithmetic; whenever a
fan is identified with a catalog member, an explicit unimodular matrix
witness is produced.  An invariant divisor is recognised as projective
(n-1)-space by counting the maximal cones through its ray, and its
degree and line are read off the walls through the ray; no quotient
fan is built.  The blow-up verifier builds no blow-up either: each fixed
point is decided from its cone's m-vector and the rays outside the cone,
with no wall built, and the fan is identified once, against projective
space or its blow-up along a linear codimension-two subspace.  Input
outside a statement's hypotheses (a divisor that is not projective
space, a fan that is not Fano, a dimension below 3) raises
:class:`OutsideStatement`, never a failed check.
"""

import random
from functools import lru_cache
from itertools import combinations

from . import kernel
from ._record import record
from .fan import (
    Fan,
    _iso_record,
    blow_down,
    ensure_smooth_complete,
    fans_isomorphic,
    is_complete,
    is_smooth,
    require_int,
    star_subdivide,
    walls,
)
from .intersect import _blowup_verdicts, is_fano
from .mori import (
    _picard_classes,
    contraction_info,
    curve_class,
    is_extremal,
    is_mori_extremal,
)


class OutsideStatement(ValueError):
    """The input does not meet the hypotheses of the statement asked for.

    Classifying a divisor that is not projective (n-1)-space, or a fan that
    is not Fano, checks nothing that could fail: the input is outside the
    statement, as malformed input is, and the CLI reports it the same way.
    """


class UnsupportedDimension(OutsideStatement):
    """The statement or construction asked for is not made in this dimension.

    Divisors, the catalog, the classification and the blow-up criterion
    are stated for n >= 3, and made in every such dimension.
    """


class ClassificationViolation(RuntimeError):
    """A verified statement failed on concrete input.

    These conditions cannot occur on valid smooth complete (Fano) fans; a
    raise here means either the input violated a precondition upstream or
    there is a genuine bug.
    """


@record
class DivisorAnalysis:
    """Outcome of testing V(ray) for being a projective space.

    ``d`` is the self-intersection degree of the divisor along any of its
    lines (the twist of its normal bundle); ``line_class`` is the curve
    class of one such line, its intersection numbers with the prime
    divisors in ray order, and ``line_wall`` the first wall through the
    ray, whose curve is that line.  All three are present exactly when
    ``is_proj_space`` holds.
    """

    ray_index: int
    is_proj_space: bool
    d: int | None = None
    line_class: object = None
    line_wall: object = None

    def __init__(
        self, ray_index, is_proj_space, d=None, line_class=None, line_wall=None
    ):
        object.__setattr__(self, "ray_index", ray_index)
        object.__setattr__(self, "is_proj_space", is_proj_space)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "line_class", line_class)
        object.__setattr__(self, "line_wall", line_wall)


@record
class CatalogEntry:
    case_tag: str  # "i" | "ii" | "iii" | "iv"
    nu: int | None
    fan: Fan
    divisor_rays: tuple  # ((ray_index, degree), ...) for every P^(n-1) divisor
    name: str


@record
class SimplificationStep:
    """One executed blow-down replacing (X, D, d) by (X', D', d+1).

    ``center_cone`` is the pair of result-fan rays whose cone is the
    blow-up center, an invariant P^(n-2) contained in the image divisor.
    """

    wall: object
    removed_ray: int
    result_fan: Fan
    result_divisor_ray: int
    center_cone: tuple


@record
class ClassificationResult:
    case_tag: str
    nu: int | None
    witness: tuple
    route: str  # point-contraction | line-fibration | bundle-fibration | simplified
    steps: tuple = ()


@lru_cache(maxsize=None, typed=True)
def analyze_divisor(fan, ray_index):
    """Decide whether V(ray) is a projective space and read its degree.

    Recognition: on a smooth complete fan the fan of V(ray) is the ray's
    star in N / Z*ray, a smooth complete (n-1)-fan with one maximal cone
    per maximal cone through the ray.  A complete simplicial (n-1)-fan has
    at least n maximal cones, and exactly n only when it has n rays, and a
    smooth complete fan of Picard rank one is projective space, so V(ray)
    is projective (n-1)-space exactly when the ray lies in exactly n
    maximal cones.  The degree is the coefficient of the ray in any wall
    relation through it; every such wall must agree, since all lines in the
    divisor are equivalent, so the ray's sorted coefficients, read off the
    fan's per-ray wall table (``fan._iso_record``), must have equal first
    and last entries.  The first wall through the ray is kept as the line
    wall.
    The index must be an int; the cache is typed, so 1.0 or True is never
    answered from the entry of 1.
    """
    ensure_smooth_complete(fan)
    if fan.dim < 3:
        raise UnsupportedDimension("divisor fans need ambient dimension at least 3")
    if not 0 <= require_int(ray_index, "ray index") < len(fan.rays):
        raise ValueError("ray index out of range")
    if sum(ray_index in cone for cone in fan.max_cones) != fan.dim:
        return DivisorAnalysis(ray_index, False)
    coeffs = _iso_record(fan)[0][ray_index][1]
    if coeffs[0] != coeffs[-1]:
        raise ClassificationViolation("line class not well-defined")
    first = next(w for w in walls(fan) if ray_index in w.wall_rays)
    return DivisorAnalysis(ray_index, True, coeffs[0], curve_class(fan, first), first)


def find_transverse_extremal(fan, ray_index):
    """Smallest Mori extremal wall meeting V(ray) transversally in one point.

    Candidates carry the ray as an apex and not among the wall rays, which
    makes the divisor-curve intersection exactly 1; the class must not be
    a positive multiple of the divisor's line class.  Wall classes are
    primitive, so that is a class in the fan's class table unequal to the
    line's.  Returns None when no such wall exists.  Walls are scanned in
    lexicographic ray-index order, the table's, so the choice is
    deterministic.
    """
    analysis = analyze_divisor(fan, ray_index)
    if not analysis.is_proj_space:
        raise OutsideStatement("divisor is not a projective space")
    table = _picard_classes(fan)[0]
    line = table[analysis.line_wall.wall_rays][1]
    for w, dots in table.values():
        if ray_index in w.wall_rays or ray_index not in (w.apex_a, w.apex_b):
            continue
        if dots == line:
            continue
        if is_mori_extremal(fan, w):
            return w
    return None


def simplify_pair(fan, ray_index):
    """One blow-down step turning (X, D, d) into (X', D', d+1) when possible.

    Returns None when no transverse Mori extremal wall exists, or when the
    transverse wall has the all-zero coefficient pattern (the fan is then a
    P^1-bundle over the divisor and nothing contracts).  Any other pattern
    than all-zero / single -1 is impossible on Fano input and raises.
    """
    if not is_fano(fan):
        raise OutsideStatement("simplification is defined on Fano fans")
    w = find_transverse_extremal(fan, ray_index)  # raises unless V(ray) is P^(n-1)
    if w is None:
        return None
    if not any(w.coeffs):
        return None  # fibration case
    if sorted(w.coeffs) != [-1] + [0] * (len(w.coeffs) - 1):
        raise ClassificationViolation(
            f"transverse extremal wall has coefficients {w.coeffs}; "
            "only all-zero or a single -1 can occur on a Fano fan"
        )
    removed = w.wall_rays[w.coeffs.index(-1)]
    result = blow_down(fan, removed, (w.apex_a, w.apex_b))
    new_ray = ray_index if ray_index < removed else ray_index - 1
    if not is_fano(result):
        raise ClassificationViolation(
            "blow-down along a transverse extremal wall left the Fano locus"
        )
    after = analyze_divisor(result, new_ray)
    if not after.is_proj_space or after.d != analyze_divisor(fan, ray_index).d + 1:
        raise ClassificationViolation(
            "blow-down must raise the divisor degree by exactly one"
        )

    def shift(i):
        return i if i < removed else i - 1

    center = tuple(sorted((shift(w.apex_a), shift(w.apex_b))))
    return SimplificationStep(w, removed, result, new_ray, center)


def projective_space_fan(n):
    """Fan of n-dimensional projective space: e_1..e_n and their negated sum."""
    rays = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    rays.append((-1,) * n)
    cones = tuple(tuple(c) for c in combinations(range(n + 1), n))
    return Fan(n, tuple(rays), cones)


def p1_bundle_fan(n, nu):
    """Fan of the P^1-bundle P(O + O(nu)) over P^(n-1).

    Rays: the fiber pair +-e_n (indices 0 and 1), the base rays e_1 ..
    e_{n-1} (indices 2 .. n), and (-1, .., -1, nu) (index n+1).  V(ray 1)
    has normal degree nu and V(ray 0) has -nu.
    """
    f_plus = tuple(int(k == n - 1) for k in range(n))
    f_minus = tuple(-x for x in f_plus)
    base = [tuple(int(i == k) for i in range(n)) for k in range(n - 1)]
    b0 = tuple([-1] * (n - 1) + [nu])
    rays = (f_plus, f_minus, *base, b0)
    cones = []
    for fiber in (0, 1):
        for skip in range(2, n + 2):
            cones.append(
                tuple(sorted([fiber] + [i for i in range(2, n + 2) if i != skip]))
            )
    return Fan(n, rays, tuple(cones))


def _entry(case_tag, nu, fan, expected, name):
    """Build a catalog entry, verifying the fan and its divisor inventory."""
    if not (is_smooth(fan) and is_complete(fan) and is_fano(fan)):
        raise ClassificationViolation(f"{name} is not a smooth complete Fano fan")
    found = {}
    for i in range(len(fan.rays)):
        analysis = analyze_divisor(fan, i)
        if analysis.is_proj_space:
            found[i] = analysis.d
    if found != expected:
        raise ClassificationViolation(f"{name}: divisors {found} != {expected}")
    return CatalogEntry(
        case_tag, nu, fan, tuple(sorted(found.items())), name
    )


@lru_cache(maxsize=None)
def catalog(n):
    """The 2n+1 smooth toric Fano n-folds carrying a P^(n-1) divisor.

    (i) projective space; (ii) the blow-up of projective space along a
    linear codimension-two subspace, a P^(n-1)-bundle over the line whose
    fibers are the divisors; (iii) the P^1-bundles P(O + O(nu)) over
    P^(n-1) for 0 <= nu <= n-1; (iv) for 0 <= nu <= n-2 the blow-up of
    P(O + O(nu+1)) along a linear P^(n-2) inside the degree nu+1 divisor.
    Every entry records all its projective-space divisors with degrees.
    """
    if n < 3:
        raise UnsupportedDimension("the catalog is stated for dimension at least 3")
    entries = []
    pn, blown = _blowup_targets(n)
    entries.append(
        _entry("i", None, pn, {i: 1 for i in range(n + 1)}, f"P^{n}")
    )
    entries.append(
        _entry(
            "ii",
            None,
            blown,
            {0: 0, 1: 0},
            f"B(P^{n}, linear P^{n - 2})",
        )
    )
    bundles = [p1_bundle_fan(n, nu) for nu in range(n)]
    for nu, bundle in enumerate(bundles):
        entries.append(
            _entry(
                "iii",
                nu,
                bundle,
                {0: -nu, 1: nu},
                f"P(O+O({nu})) over P^{n - 1}",
            )
        )
    for nu in range(n - 1):
        # blow up a linear P^(n-2) inside V(ray 1), the divisor of degree
        # nu+1, of entry iii's own fan
        fan4 = star_subdivide(bundles[nu + 1], (1, 2))
        entries.append(
            _entry(
                "iv",
                nu,
                fan4,
                {1: nu, 0: -nu - 1},
                f"B(P(O+O({nu + 1})) over P^{n - 1}, linear P^{n - 2})",
            )
        )
    return tuple(entries)


def _match(fan, expect, route, steps):
    """Identify the fan with an expected catalog entry, with witness."""
    for entry in catalog(fan.dim):
        if (entry.case_tag, entry.nu) not in expect:
            continue
        witness = fans_isomorphic(fan, entry.fan)
        if witness is not None:
            return ClassificationResult(
                entry.case_tag, entry.nu, witness, route, steps
            )
    raise ClassificationViolation(
        f"no catalog match among {sorted(expect)}; classification is broken"
    )


def classify_fano_with_divisor(fan, ray_index):
    """Identify (fan, V(ray)) inside the catalog and return a witness.

    Route: if d >= 0 and the line class spans an extremal ray, the line
    contraction identifies the fan directly (degree 1 contracts everything
    to a point, forcing projective space; degree 0 fibers over a line).
    Otherwise a transverse Mori extremal wall exists; its all-zero pattern
    identifies a P^1-bundle, and the single -1 pattern is blown down once,
    after which the smaller pair must identify without contracting again.
    """
    if fan.dim < 3:
        raise UnsupportedDimension("classification is stated for dimension at least 3")
    if not is_fano(fan):
        raise OutsideStatement("classification needs a Fano fan")
    return _classify(fan, ray_index, allow_simplify=True)


def _classify(fan, ray_index, allow_simplify):
    analysis = analyze_divisor(fan, ray_index)
    if not analysis.is_proj_space:
        raise OutsideStatement("divisor is not a projective space")
    d = analysis.d
    line_wall = analysis.line_wall
    if d >= 0 and is_extremal(fan, line_wall):
        if d == 0:
            return _match(
                fan, {("ii", None), ("iii", 0)}, "line-fibration", ()
            )
        info = contraction_info(fan, line_wall)
        if d != 1 or info.alpha != 0 or info.beta != 0:
            raise ClassificationViolation(
                f"extremal line class with degree {d} must contract the"
                " fan to a point with degree exactly 1"
            )
        return _match(fan, {("i", None)}, "point-contraction", ())
    w = find_transverse_extremal(fan, ray_index)
    if w is None:
        raise ClassificationViolation(
            "no transverse extremal wall for an effective divisor"
        )
    if not any(w.coeffs):
        nu = abs(d)
        if nu > fan.dim - 1:
            raise ClassificationViolation(
                f"bundle parameter {nu} violates the Fano bound {fan.dim - 1}"
            )
        return _match(fan, {("iii", nu)}, "bundle-fibration", ())
    if not allow_simplify:
        raise ClassificationViolation("pair would blow down twice in a row")
    step = simplify_pair(fan, ray_index)  # finds w again, so it is not None
    inner = _classify(step.result_fan, step.result_divisor_ray, allow_simplify=False)
    if inner.case_tag == "i":
        expect = {("ii", None)}
    elif inner.case_tag == "iii":
        expect = {("iv", d if d >= 0 else -d - 1)}
    else:
        raise ClassificationViolation(
            f"blow-down landed on case {inner.case_tag}, which would admit"
            " a second blow-down"
        )
    return _match(fan, expect, "simplified", (step,))


@record
class FixedPointProbe:
    """A fixed point (maximal cone ``fan.max_cones[cone_index]``) whose
    blow-up is Fano, and what that says of the fan."""

    cone_index: int
    conclusion: str | None  # projective-space | blown-projective-space
    witness: tuple | None
    violation: str | None


@record
class Theorem1Report:
    """What :func:`theorem1_check` found on one fan.

    ``blowup_fano`` is the verdict tuple of
    :func:`point_blowups_are_fano`, one per maximal cone in order, and
    ``fano_probes`` holds a probe for each cone whose verdict is true, in
    cone order; a cone whose blow-up is not Fano has no probe.
    """

    dim: int
    input_fano: bool
    blowup_fano: tuple
    fano_probes: tuple
    global_violations: tuple = ()

    @property
    def violations(self):
        probe_level = tuple(
            f"cone {p.cone_index}: {p.violation}"
            for p in self.fano_probes
            if p.violation
        )
        return probe_level + self.global_violations

    @property
    def fano_cone_indices(self):
        return tuple(p.cone_index for p in self.fano_probes)


@lru_cache(maxsize=None)
def _blowup_targets(n):
    """P^n and B(P^n, linear P^(n-2)), the fans of catalog entries i and
    ii, built once per dimension: :func:`catalog` reads its entries i and
    ii from here, and every fan identified against them reads the same
    two fans."""
    pn = projective_space_fan(n)
    # codimension-two center: the cone of two rays cuts out a linear P^(n-2)
    return pn, star_subdivide(pn, (0, 1))


def _identify_blowup_base(fan):
    """X as P^n or B(P^n, linear P^(n-2)): (conclusion, witness, exceptional ray).

    The targets are the fans of catalog entries i and ii
    (:func:`_blowup_targets`).  Projective space has no exceptional ray;
    the blown-up space's is the preimage of the ray that the target's star
    subdivision appends.  All three are None when the fan is neither.
    """
    n = fan.dim
    pn, blown = _blowup_targets(n)
    if len(fan.rays) == n + 1:
        witness = fans_isomorphic(fan, pn)
        if witness is not None:
            return "projective-space", witness, None
    elif len(fan.rays) == n + 2:
        witness = fans_isomorphic(fan, blown)
        if witness is not None:
            images = [tuple(kernel.coordinates(r, witness)) for r in fan.rays]
            return "blown-projective-space", witness, images.index(blown.rays[-1])
    return None, None, None


def theorem1_check(fan):
    """Test every fixed point's blow-up for Fano, identify the input fan.

    Every fixed point is decided exactly, and whether the input is Fano is
    read with it, from one cached read of the cones' m-vectors
    (``intersect._blowup_verdicts``, whose verdict tuple
    :func:`point_blowups_are_fano` returns and the report keeps as
    ``blowup_fano``); no blow-up is built, and no wall either until a
    blow-up is Fano.  Only then is the input fan identified, once, with an
    explicit witness, as projective space (then every fixed point works) or
    as the blow-up of projective space along a linear codimension-two
    subspace (then the fixed point must avoid the exceptional divisor), and
    each such fixed point gets a probe that reads that result.  So a wrong
    "Fano" from the local test is still recorded: every point blow-up of
    projective space is Fano, on the blown-up space only a fixed point on
    the exceptional divisor could be wrong and it is flagged, and any other
    fan fails the identification.  A Fano probe on a fan that is not Fano
    is a global violation, since the read gives the fan's verdict apart
    from the cones'.  Contradictions are recorded per fixed point, not
    raised.
    """
    ensure_smooth_complete(fan)
    if fan.dim < 3:
        raise UnsupportedDimension(
            "the blow-up criterion is stated for dimension at least 3"
        )
    n = fan.dim
    input_fano, verdicts = _blowup_verdicts(fan)
    probes = []
    if True in verdicts:
        conclusion, witness, exceptional = _identify_blowup_base(fan)
        for ci, blowup_fano in enumerate(verdicts):
            if not blowup_fano:
                continue
            violation = None
            if witness is None:
                violation = (
                    f"a point blow-up is Fano, but the fan is neither P^{n}"
                    f" nor B(P^{n}, linear P^{n - 2})"
                )
            elif exceptional in fan.max_cones[ci]:
                violation = (
                    "fixed point lies on the exceptional divisor yet its blow-up"
                    " is Fano"
                )
            probes.append(FixedPointProbe(ci, conclusion, witness, violation))
    global_violations = ()
    if probes and not input_fano:
        global_violations = (
            "some point blow-up is Fano but the fan itself is not",
        )
    return Theorem1Report(n, input_fano, verdicts, tuple(probes), global_violations)


def random_corpus(n, count, max_depth, seed):
    """Seeded corpus of smooth complete fans: random subdivisions of P^n.

    Each fan is smooth and complete: a star subdivision's output inherits
    that verdict from its parent, P^n at the root.  ``Fan`` needs n >= 2,
    the one limit on the dimension.  A chain step that repeats a (fan,
    center) pair reuses the star subdivision built for it, so equal fans
    share one object, and the inverses its further surgeries read per cone
    are found once.
    """
    if n < 2:
        raise ValueError("corpus generation needs dimension at least 2")
    if not 0 <= count <= 1000:
        raise ValueError("count must be between 0 and 1000")
    if not 0 <= max_depth <= 4:
        raise ValueError("max_depth must be between 0 and 4")
    rng = random.Random(seed)
    base = projective_space_fan(n)
    fans, built = [], {}
    for _ in range(count):
        fan = base
        depth = rng.randint(1, max_depth) if max_depth else 0
        for _ in range(depth):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            size = rng.randint(2, n)
            center = tuple(sorted(rng.sample(cone, size)))
            key = fan, center
            fan = built.get(key)
            if fan is None:
                fan = built[key] = star_subdivide(*key)
        fans.append(fan)
    return tuple(fans)
