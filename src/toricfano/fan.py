"""Fans of smooth complete toric varieties.

A fan is the combinatorial datum of a toric variety: primitive ray
generators plus the full-dimensional simplicial cones, each recorded as a
sorted tuple of ray indices.  This module owns validation, smoothness and
completeness tests (one covering certificate), wall (invariant curve)
enumeration with exact wall relations, star-subdivision blow-ups and
their inverse blow-downs along centers of every size, and fan
isomorphism by wall propagation, which checks each anchor candidate on
the cached walls and forms a matrix only for the one that succeeds.
Fan surgery builds no walls.  Every change of basis reads one exact
integer inverse per maximal cone: the covering certificate, the wall
relations and the isomorphism witness.  A cone whose rays are the rows of
A keeps (the columns of |det| A^-1, det A), so a unimodular cone holds
A^-1 itself, column k is the dual vector of its k-th ray, and moving a row
of A moves a column.

Only a fan that no surgery made gets the full validity pass.  It asks
``kernel.inverse`` for one root cone, n exchange steps from the
identity, and walks the facet graph from there, reading each
neighbour's inverse off the known one's by the same step
(``kernel.exchange``), so a complete fan asks the kernel once.  The
two surgeries, ``star_subdivide`` and its inverse ``blow_down``, turn a
valid smooth fan into a valid smooth fan with the same support, so their
output inherits the parent's verdict, and ``ensure_valid`` reads it
without building the output's inverses.  The output skips the entry
checks too (the types, the sorted cones), which its construction already
meets; a fan built by ``Fan(...)`` or unpickled runs them.
The loop that builds the output's cones records a plan: for each cone,
the parent cone it keeps, or the exchange that reads its inverse off
that cone's, the walk's step across a wall with the new row written in
the parent cone's basis.  So one update rule serves every cone inverse,
walked or planned.  With the plan go the parent's cone inverses, its
per-cone m-vectors and whether the parent is complete, but not the
parent or its cones; the output applies the plan to the inverses only
when they are read, as the parent of a further surgery or to build its
walls.  Whether a fan and each of its point blow-ups are Fano is
decided in ``intersect`` without building a blow-up, a wall or a facet
map, from the cones' m-vectors, m = A^-1 (1, ..., 1), and the rays
outside each cone (:func:`_cone_ms`); a surgery's output reads its
m-vectors off its parent's through the plan, by one rule for every
exchange, in O(n) per cone, and builds no inverse for them.  One read
decides every fixed point of a fan.

Fans are immutable and hashable; all operations are pure functions, cached
where they are hot.  A pickled fan carries its three fields only, and is
checked again when it is loaded, so fans can be shared freely between
workers.
"""

from functools import lru_cache
from itertools import combinations, compress
from operator import mul, neg

from . import kernel, lattice
from ._record import record
from ._simplex import in_nonneg_span


class InvalidFanError(ValueError):
    """An operation needed a valid fan and the input is not one."""


def require_int(value, what):
    """The value itself when it is an int; bool and every other type (a
    float, a string) raise TypeError naming ``what``, since converting
    them would silently truncate."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


@record
class Fan:
    """dim, primitive ray generators, and maximal cones of size dim."""

    dim: int
    rays: tuple
    max_cones: tuple

    # (complete, inverses, ms, plan) of a fan made by a surgery, else None:
    # the parent's completeness, its cone inverses and its per-cone
    # m-vectors, and per cone of this fan either the index of the parent
    # cone it keeps or the exchange (ci, k, mu, to), the kernel.exchange
    # arguments that read its inverse, and its m-vector, off parent cone
    # ci's, mu being the new row in that cone's basis; the verdict is read
    # from here, and the inverses are built only when read.  Private state
    # outside the fields, like _hash, so equality, hash, repr and pickling
    # ignore it
    _origin = None

    def __init__(self, dim, rays, max_cones):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        self.__post_init__()

    def __post_init__(self):
        require_int(self.dim, "dim")
        # one type pass; only on failure does require_int name the entry
        # (or accept it: an int subclass passes)
        rays = tuple(map(tuple, self.rays))
        if not all(type(c) is int for r in rays for c in r):
            for i, r in enumerate(rays):
                for c in r:
                    require_int(c, f"ray {i} coordinate")
        cones = tuple(map(tuple, self.max_cones))
        if not all(type(i) is int for c in cones for i in c):
            for ci, c in enumerate(cones):
                for i in c:
                    require_int(i, f"cone {ci} entry")
        object.__setattr__(self, "rays", rays)
        # sorted cones; tuples already sorted are kept
        ordered = tuple(map(tuple, map(sorted, cones)))
        object.__setattr__(self, "max_cones", cones if ordered == cones else ordered)
        # the record's hash, the hash of the field tuple, computed once
        object.__setattr__(self, "_hash", hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # the fields only: what a surgery recorded of the parent stays
        # behind, and loading runs the entry checks through Fan(...)
        return Fan, (self.dim, self.rays, self.max_cones)


@record
class ValidationReport:
    problems: tuple

    @property
    def valid(self):
        return not self.problems


@record
class Wall:
    """Facet shared by two maximal cones; the fan side of an invariant curve.

    The defining relation holds exactly:

        ray(apex_a) + ray(apex_b) + sum_i coeffs[i] * ray(wall_rays[i]) = 0

    and coeffs[i] is the degree of the i-th summand of the curve's normal
    bundle.  ``coeffs`` is aligned with the sorted ``wall_rays``.
    """

    wall_rays: tuple
    apex_a: int
    apex_b: int
    coeffs: tuple

    def __init__(self, wall_rays, apex_a, apex_b, coeffs):
        object.__setattr__(self, "wall_rays", wall_rays)
        object.__setattr__(self, "apex_a", apex_a)
        object.__setattr__(self, "apex_b", apex_b)
        object.__setattr__(self, "coeffs", coeffs)


def _facet_map(fan):
    """Facet -> [(cone index, position of the cone's apex opposite it)]."""
    facets = {}
    for ci, cone in enumerate(fan.max_cones):
        for k in range(len(cone)):
            facets.setdefault(cone[:k] + cone[k + 1 :], []).append((ci, k))
    return facets


def _overlaps(fan):
    """Overlap problems for every pair of (simplicial) cones, by exact LP."""
    problems = []
    for ci, cj in combinations(range(len(fan.max_cones)), 2):
        a, b = fan.max_cones[ci], fan.max_cones[cj]
        # an interior point common to both cones: all coordinates >= 1
        cols = [fan.rays[i] for i in a] + [
            tuple(-x for x in fan.rays[i]) for i in b
        ]
        rhs = tuple(
            sum(fan.rays[i][k] for i in b) - sum(fan.rays[i][k] for i in a)
            for k in range(fan.dim)
        )
        if in_nonneg_span(cols, rhs):
            problems.append(f"cones {ci} and {cj} have overlapping interiors")
    return problems


def _covered_once(fan, inverses):
    """True when p, the ray sum of cone 0, lies in no other closed cone."""
    first = set(fan.max_cones[0])
    p = [sum(col) for col in zip(*(fan.rays[i] for i in first))]
    for ci in range(1, len(fan.max_cones)):
        cone = fan.max_cones[ci]
        cols = inverses[ci][0]
        # p's k-th coordinate is (p . column k) / |det|; a negative one
        # usually sits at a ray outside cone 0, so try those first
        order = [k for k, i in enumerate(cone) if i not in first]
        order += [k for k, i in enumerate(cone) if i in first]
        for k in order:
            if sum(map(mul, p, cols[k])) < 0:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _analyze(fan):
    """The validity pass behind validate, is_smooth, is_complete and walls.

    Each maximal cone has its rays as the rows of A, and every later change
    of basis reads the inverse of A found here.  Returns (ValidationReport,
    smooth, complete, inverses), where ``inverses[ci]`` is ``(cols, det)``
    for cone ci when the report is valid: det is det A and ``cols`` the
    columns of |det| A^-1, so a unimodular cone holds A^-1 itself, and
    column k is the dual vector of the cone's k-th ray, times |det|.

    A fan made by a surgery inherits its parent's verdict, by the lemma
    each surgery's docstring states: the surgery ran only on a valid smooth
    parent, and the result is a valid smooth fan with the parent's
    support, so it is complete exactly when the parent is.  So
    :func:`ensure_valid` and the tests on it read that verdict off
    ``Fan._origin`` and never come here; only a caller that reads the
    inverses does, when the fan is a surgery's parent or its walls are
    built.  Its inverses come from the plan the surgery recorded with the
    parent's inverses: a kept cone shares its parent cone's ``(cols,
    det)``, and a moved cone's is read off its parent cone's by the walk's
    own step, :func:`kernel.exchange`; |det| A^-1 and det are unique, so
    they are those of the full pass.  No ancestor is analysed
    or even reachable.

    Any other fan gets the full pass.  The entry checks run in bulk: one
    ``all`` or set test each for the rays' dimensions and primitivity,
    equal rays, unused rays and duplicate cones, and per cone a size test
    and, the cone being sorted, a range test on its first and last index.
    Only a test that fails runs its per-entry loop, to name every offending
    ray or cone in index order.  Then the cones are inverted by a walk of
    the facet graph (Reid's move across a wall): only the first cone not
    yet reached is inverted by :func:`kernel.inverse`, whose result is
    stored as it is, and every cone across a facet of an inverted cone is
    read off it by :func:`kernel.exchange`, its apex u giving mu =
    :func:`kernel.coordinates` (u, cols).  mu_k, at the position of the
    apex it replaces, is the cone's det up to sign, so mu_k = 0 leaves a
    singular cone unreached, and the kernel, asked for it as a later root,
    finds it singular.  A complete fan, or any connected
    one, asks the kernel once.  Overlaps are excluded by the
    covering-degree certificate of :func:`is_complete`; only when it fails
    does the O(C^2) overlap LP run, to name the overlapping pairs.
    """
    if fan._origin:
        complete, inverses, _, plan = fan._origin
        return ValidationReport(()), True, complete, tuple(
            [
                inverses[p]
                if type(p) is int
                else kernel.exchange(*inverses[p[0]], *p[1:])
                for p in plan
            ]
        )
    dim, rays, cones = fan.dim, fan.rays, fan.max_cones
    if dim < 2:
        return ValidationReport(("dimension must be at least 2",)), False, False, ()
    problems = []
    if not rays:
        problems.append("fan has no rays")
    if not cones:
        problems.append("fan has no maximal cones")
    n_rays = len(rays)
    dims_ok = all(len(ray) == dim for ray in rays)
    if not (dims_ok and all(map(lattice.is_primitive, rays))):
        for i, ray in enumerate(rays):
            if len(ray) != dim:
                problems.append(f"ray {i} has dimension {len(ray)}, expected {dim}")
            elif not any(ray):
                problems.append(f"ray {i} is zero")
            elif not lattice.is_primitive(ray):
                problems.append(f"ray {i} not primitive")
    if len(set(rays)) != n_rays:
        seen = {}
        for i, ray in enumerate(rays):
            if seen.setdefault(ray, i) != i:
                problems.append(f"rays {seen[ray]} and {i} are equal")
    # every cone of size dim with distinct in-range indices: then a cone's
    # sorted tuple is its ray set, and a set of cones finds duplicates.
    # A cone has at most one problem; those of a shape found here and, after
    # the walk, those of a singular cone are named in cone order
    faults = [None] * len(cones)
    loose = set()  # cones the walk leaves out
    for ci, cone in enumerate(cones):
        if len(cone) != dim:
            faults[ci] = f"cone {ci} has size {len(cone)}, expected {dim}"
        elif not (cone[0] >= 0 and cone[-1] < n_rays and len(set(cone)) == dim):
            faults[ci] = f"cone {ci} has repeated or out-of-range ray indices"
        elif dims_ok or all(len(rays[i]) == dim for i in cone):
            continue
        # a bad shape, or a ray whose wrong dimension is already reported
        loose.add(ci)
    well_formed = not any(faults)
    facets = _facet_map(fan)
    inverses = [None] * len(cones)
    for root, cone in enumerate(cones):
        if inverses[root] is not None or root in loose:
            continue
        try:
            inverses[root] = kernel.inverse(tuple(map(rays.__getitem__, cone)))
        except ValueError:
            faults[root] = f"cone {root} is not simplicial"
            continue
        reached = [root]
        for ca in reached:
            cols, det = inverses[ca]
            known = cones[ca]
            for k in range(dim):
                for cb, kb in facets[known[:k] + known[k + 1 :]]:
                    if inverses[cb] is None and cb not in loose:
                        mu = kernel.coordinates(rays[cones[cb][kb]], cols)
                        if mu and mu[k]:
                            inverses[cb] = kernel.exchange(cols, det, k, mu, kb)
                            reached.append(cb)
    problems.extend(filter(None, faults))
    used = set().union(*cones)
    if not used.issuperset(range(n_rays)):
        for i in range(n_rays):
            if i not in used:
                problems.append(f"ray {i} not used by any maximal cone")
    if not well_formed or len(set(cones)) != len(cones):
        cone_sets = {}
        for ci, cone in enumerate(cones):
            key = tuple(sorted(set(cone)))
            if cone_sets.setdefault(key, ci) != ci:
                problems.append(f"cones {cone_sets[key]} and {ci} have the same rays")
    if problems:
        return ValidationReport(tuple(problems)), False, False, ()
    dets = [det for _, det in inverses]
    paired = all(len(cones) == 2 for cones in facets.values())
    # the apex at position k is on the side sign(det * (-1)^k) of its facet:
    # opposite sides when the dets agree in sign exactly if ka + kb is odd
    if not (
        paired
        and all(
            (dets[ca] * dets[cb] > 0) == (ka + kb) % 2
            for (ca, ka), (cb, kb) in facets.values()
        )
        and _covered_once(fan, inverses)
    ):
        problems = _overlaps(fan)
    smooth = all(d in (1, -1) for d in dets)
    return ValidationReport(tuple(problems)), smooth, paired, tuple(inverses)


def validate(fan):
    """Check every Fan invariant and report each violation with indices."""
    return ValidationReport(()) if fan._origin else _analyze(fan)[0]


def ensure_valid(fan):
    """Raise InvalidFanError naming every problem; else (smooth, complete).
    A surgery's output is valid and smooth, complete exactly when its
    parent is, read off ``Fan._origin`` without building its inverses."""
    if fan._origin:
        return True, fan._origin[0]
    report, smooth, complete, _ = _analyze(fan)
    if not report.valid:
        raise InvalidFanError("; ".join(report.problems))
    return smooth, complete


def is_smooth(fan):
    """True when every maximal cone's generators are part of a lattice basis."""
    return ensure_valid(fan)[0]


def is_complete(fan):
    """True when the cones cover R^n: every facet lies in exactly two cones.

    Reason: with every facet in two cones, their apexes on opposite sides,
    a generic path leaves one cone where it enters the next, so all generic
    points lie in the same number of cones, the covering degree.  The ray
    sum of cone 0 lies in no other cone of a valid fan, so the degree is 1.
    """
    return ensure_valid(fan)[1]


def ensure_smooth_complete(fan):
    smooth, complete = ensure_valid(fan)
    if not smooth:
        raise InvalidFanError("fan must be smooth")
    if not complete:
        raise InvalidFanError("fan must be complete")


@lru_cache(maxsize=None)
def walls(fan):
    """All walls with their exact integral relations, sorted by wall rays.

    The cone holding the lower apex of a wall has its rays as the rows of
    A, inverted once by the validity pass.  The coordinates of the other
    apex u in that ray basis are u A^-1, whose j-th entry is u's dot
    product with column j of A^-1 (:func:`kernel.coordinates`, which reads
    only the entries at u's nonzero coordinates; catalog rays are mostly
    unit vectors).  Negated, they are the relation, so each ray is negated
    once, not once per wall, and the coordinates of -u are read.  Raises
    InvalidFanError unless the fan is smooth and complete.
    """
    ensure_smooth_complete(fan)
    inverses = _analyze(fan)[3]
    cones, out = fan.max_cones, []
    minus = [tuple(map(neg, ray)) for ray in fan.rays]
    for facet, ((host, k), (other, j)) in sorted(_facet_map(fan).items()):
        apex_a, apex_b = cones[host][k], cones[other][j]
        if apex_a > apex_b:
            host, k, apex_a, apex_b = other, j, apex_b, apex_a
        # write -apex_b in the basis of the cone holding apex_a; the fan is
        # smooth, so the stored columns are those of A^-1.  The apex_a
        # coordinate must be 1 exactly, and the others are the coefficients
        coeffs = kernel.coordinates(minus[apex_b], inverses[host][0])
        if coeffs.pop(k) != 1:
            raise InvalidFanError("fan not smooth along wall")
        out.append(Wall(facet, apex_a, apex_b, tuple(coeffs)))
    return tuple(out)


@lru_cache(maxsize=None)
def _cone_ms(fan):
    """Per maximal cone of a smooth fan, m = A^-1 (1, ..., 1), the sum of
    the columns of A^-1, found once per fan: a fan can be the parent of
    many surgeries and a fan whose Fano verdicts are read too.  A fan that
    no surgery made sums the columns of its validity pass's inverses.

    A surgery's output reads its own off what the surgery recorded, in
    O(n) per cone, and builds no inverse: a kept cone has its parent cone's
    m, and a moved cone, the exchange ``(ci, k, mu, to)`` of parent cone
    ci, has m - ((sum mu - 1) / mu_k) C_k, C_k being column k of that
    cone's inverse.  The rule holds for any exchange on a unimodular cone:
    with E as in :func:`kernel.exchange` and mu = lambda, the new m is
    A^-1 E^-1 (1, ..., 1), and E^-1 (1, ..., 1) is (1, ..., 1) less
    (sum mu - 1) / mu_k at position k; the move to ``to`` only reorders
    the columns.  Both cones are unimodular, so mu_k = +-1 and the
    division is exact.
    """
    origin = fan._origin
    if not origin:
        return tuple(tuple(map(sum, zip(*cols))) for cols, _ in _analyze(fan)[3])
    _, inverses, ms, plan = origin
    out = []
    for p in plan:
        if type(p) is int:
            out.append(ms[p])
        else:
            ci, k, mu, _ = p
            times, pivot = (sum(mu) - 1) // mu[k], inverses[ci][0][k]
            out.append(tuple([a - times * b for a, b in zip(ms[ci], pivot)]))
    return tuple(out)


def _child(parent, rays, cones, plan):
    """The fan a surgery builds from ``parent``, recording ``plan``, one
    entry per cone, with the parent's completeness, its cone inverses (the
    tuple its cached validity pass holds, not a copy) and its per-cone
    m-vectors (:func:`_cone_ms`); see ``Fan._origin``.

    The child is trusted, as its verdict is: it skips ``Fan.__init__`` and
    its entry checks, which the surgery's construction already meets.
    ``rays`` is a tuple of int tuples, the parent's with an int ray sum
    appended or a slice of them, and each cone is a sorted int tuple.  The
    hash is the one ``__post_init__`` computes.
    """
    _, _, complete, inverses = _analyze(parent)
    ms = _cone_ms(parent)
    dim, cones = parent.dim, tuple(cones)
    child, set_ = object.__new__(Fan), object.__setattr__
    set_(child, "dim", dim)
    set_(child, "rays", rays)
    set_(child, "max_cones", cones)
    set_(child, "_hash", hash((dim, rays, cones)))
    set_(child, "_origin", (complete, inverses, ms, tuple(plan)))
    return child


def _checked_center(fan, center):
    """``center`` as a sorted tuple of distinct ray indices, for a surgery
    on a valid smooth fan: its entries are ints, at least two, each naming
    a ray of the fan."""
    center = tuple(
        sorted({require_int(i, f"center entry {k}") for k, i in enumerate(center)})
    )
    if not is_smooth(fan):
        raise InvalidFanError("fan must be smooth")
    if len(center) < 2:
        raise ValueError("center must have dimension at least 2")
    if not all(0 <= i < len(fan.rays) for i in center):
        raise ValueError("center has out-of-range ray indices")
    return center


def _ray_sum(fan, indices):
    return tuple(map(sum, zip(*map(fan.rays.__getitem__, indices))))


def star_subdivide(fan, center):
    """Insert the ray sum of ``center`` and re-triangulate its star.

    This is the fan surgery of blowing up along the invariant subvariety
    of ``center``: every maximal cone containing the center is replaced by
    the cones swapping one center ray for the new one.  A center of size
    ``dim`` blows up the fixed point of that cone.  :func:`blow_down` is
    its inverse.

    The lemma the result's validity pass relies on: the star subdivision
    of a valid smooth fan along a face of size at least 2 whose ray sum w
    is not already a ray is a valid smooth fan with the same support.  The
    rays of the face are part of a lattice basis, so w is primitive; each
    cone through the face is cut by w into the new cones, which are smooth,
    since swapping a center ray for w is a unimodular row operation; every
    old ray stays in some cone, since the face has a second ray to drop.
    This function checks each premise, so the result inherits the parent's
    verdict.  The loop that builds the cones records a plan for their
    inverses: a cone outside the star keeps its parent cone's, and a new
    cone that swaps the center ray at position k for w is the exchange
    ``(ci, k, mu, dim - 1)`` of its parent cone ci, where mu, w written in
    that cone's basis, is the indicator of the center's positions, shared
    by the cone's new cones.  The result records the plan with the
    parent's completeness and inverses, not the parent.
    """
    center = _checked_center(fan, center)
    center_set = set(center)
    if not any(map(center_set.issubset, fan.max_cones)):
        raise ValueError("center is not a face of any maximal cone")
    w = _ray_sum(fan, center)
    if w in fan.rays:
        raise InvalidFanError("the center's ray sum is already a ray of the fan")
    new_index, last = len(fan.rays), fan.dim - 1
    cones, plan = [], []
    for ci, cone in enumerate(fan.max_cones):
        if not center_set.issubset(cone):
            cones.append(cone)
            plan.append(ci)
            continue
        # swap the center ray at position k for w, the highest ray index,
        # so w goes last and the cone stays sorted, as _child trusts: w is
        # the sum of the center rows, mu the indicator of their positions
        mu = tuple([1 if i in center_set else 0 for i in cone])
        for k in compress(range(len(cone)), mu):
            cones.append(cone[:k] + cone[k + 1 :] + (new_index,))
            plan.append((ci, k, mu, last))
    return _child(fan, fan.rays + (w,), cones, plan)


def blow_down(fan, ray, center):
    """Remove ``ray``, the ray sum of ``center``, and merge the cones
    through it: the inverse of :func:`star_subdivide` along ``center``.

    This is the fan surgery of blowing the exceptional divisor V(ray) down
    onto the invariant subvariety of ``center``; a center of size ``dim``
    blows a P^(n-1) down to a point.  Ray indices above ``ray`` shift down
    by one, so ``blow_down(star_subdivide(f, center), len(f.rays), center)``
    is ``f``, cone order included.  The center is an argument because a ray
    can be the ray sum of two centers, whose blow-downs differ.

    The lemma the result's validity pass relies on is star_subdivide's,
    read backwards: in a valid smooth fan, let ray be the sum of the center
    rays, let every cone through ray miss exactly one center ray, and let
    the cones with the same other rays miss each center ray exactly once.
    Then each such group is the star subdivision of its merged cone, the
    other rays with the whole center, and the result is a valid smooth fan
    with the same support: the merged cone is the union of its group, and
    its determinant is that of each cone of the group, since ray minus the
    center rays it holds is the one it misses, a unimodular row operation.
    This function checks each premise, so the result inherits the parent's
    verdict.  The loop that builds the cones records a plan for their
    inverses: a cone without ray keeps its parent cone's, since the shift
    keeps its row order, and a merged cone is an exchange ``(ci, k, mu,
    to)`` of the cone ci of its group that misses the highest center ray v:
    row k, the removed ray, becomes v, so mu, v written in that cone's
    basis, is 1 at k and -1 at each center ray the cone holds, and ``to``
    is v's place in the merged cone.  The result records the plan with the
    parent's completeness and inverses, not the parent.
    """
    center = _checked_center(fan, center)
    if require_int(ray, "ray index") not in range(len(fan.rays)):
        raise ValueError("ray index out of range")
    if fan.rays[ray] != _ray_sum(fan, center):
        raise ValueError("ray is not the ray sum of the center")
    # per group of cones through ray with the same other rays, the center
    # rays each cone misses: one each, and every center ray once
    center_set, missed = set(center), {}
    for cone in fan.max_cones:
        if ray in cone:
            key = tuple(i for i in cone if i != ray and i not in center_set)
            missed.setdefault(key, []).append(tuple(center_set.difference(cone)))
    if any(sorted(m) != [(i,) for i in center] for m in missed.values()):
        raise ValueError("fan is not a star subdivision along this center")

    def shift(i):
        return i if i < ray else i - 1

    top = center[-1]
    cones, plan = [], []
    for ci, cone in enumerate(fan.max_cones):
        if ray not in cone:
            cones.append(tuple(map(shift, cone)))
            plan.append(ci)
        elif top not in cone:
            # row ray, less the other center rows, becomes the highest
            # center ray, at its place in the shifted cone, sorted here
            # because _child trusts it
            merged = sorted(shift(top if i == ray else i) for i in cone)
            cones.append(tuple(merged))
            mu = tuple(1 if i == ray else -(i in center_set) for i in cone)
            plan.append((ci, cone.index(ray), mu, merged.index(shift(top))))
        # the group's other cones are dropped; the merged cone covers them
    return _child(fan, fan.rays[:ray] + fan.rays[ray + 1 :], cones, plan)


@lru_cache(maxsize=None)
def _iso_record(fan):
    """What the isomorphism search reads of a smooth complete fan before it
    searches: (facet -> Wall, per-ray invariants, their sorted multiset).

    A ray's invariant is its valence and the sorted multiset of its
    coefficients in the walls through it; a fan isomorphism preserves both,
    so fans with unequal multisets are not isomorphic.  The walk a search
    crosses is built by :func:`_walk`, only once a search is needed.
    """
    fan_walls = walls(fan)
    valence = [0] * len(fan.rays)
    for cone in fan.max_cones:
        for i in cone:
            valence[i] += 1
    coeffs = [[] for _ in fan.rays]
    for w in fan_walls:
        for i, c in zip(w.wall_rays, w.coeffs):
            coeffs[i].append(c)
    inv = tuple((v, tuple(sorted(cs))) for v, cs in zip(valence, coeffs))
    return {w.wall_rays: w for w in fan_walls}, inv, tuple(sorted(inv))


def _walk(fan, by_facet):
    """A spanning tree of the facet graph crossed from cone 0, one step
    ``(facet, known apex, new apex, coeffs)`` per cone reached; ``by_facet``
    is the fan's facet -> Wall map."""
    walk = []
    seen = {fan.max_cones[0]}
    frontier = [fan.max_cones[0]]
    for cone in frontier:
        for k, known in enumerate(cone):
            w = by_facet[cone[:k] + cone[k + 1 :]]
            new = w.apex_b if known == w.apex_a else w.apex_a
            reached = tuple(sorted(w.wall_rays + (new,)))
            if reached not in seen:
                seen.add(reached)
                frontier.append(reached)
                walk.append((w.wall_rays, known, new, w.coeffs))
    return walk


@lru_cache(maxsize=None)
def _identity(n):
    """The n x n identity matrix, the witness of a fan onto itself."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _orders(target, wanted, inv):
    """The orders of ``target`` whose k-th ray has invariant ``wanted[k]``,
    in the order ``permutations(target)`` yields them."""
    if not wanted:
        yield ()
        return
    for j, t in enumerate(target):
        if inv[t] == wanted[0]:
            for tail in _orders(target[:j] + target[j + 1 :], wanted[1:], inv):
                yield (t,) + tail


def _propagates(walk, g_walls, anchor, order):
    """Does cone 0 of f onto ``order`` extend across every step of f's walk?

    Each step needs a wall of g on the image facet with the same aligned
    coefficients and the image of the known apex as one apex; the other
    apex is then the image of the new one.  The relations agree, so the
    linear map of the anchor sends each new ray to that apex.
    """
    image = dict(zip(anchor, order))
    for facet, known, new, coeffs in walk:
        pairs = sorted(zip([image[i] for i in facet], coeffs))
        w = g_walls.get(tuple(i for i, _ in pairs))
        if w is None or w.coeffs != tuple(c for _, c in pairs):
            return False
        if image[known] == w.apex_a:
            image[new] = w.apex_b
        elif image[known] == w.apex_b:
            image[new] = w.apex_a
        else:
            return False
    return True


def fans_isomorphic(f, g):
    """Search for a determinant +-1 matrix matching rays and maximal cones.

    A fan is isomorphic to itself by the identity, built once per
    dimension.  Otherwise the per-ray invariants of :func:`_iso_record`
    come first: fans whose invariant multisets differ are not isomorphic,
    and no search is made.  The search is anchored and propagates walls:
    fix the first maximal cone of ``f``; for every maximal cone of ``g``
    with the anchor's multiset of per-ray invariants and every ordering of
    its rays whose invariants match the anchor's ray by ray, cross f's walk
    (:func:`_walk`, built for this search), a spanning tree of its cones,
    wall by wall, asking g for a wall with the same coefficients at each
    step.  A smooth complete fan is fixed up to GL(n, Z) by its cones and
    wall coefficients and its facet graph is connected, so a candidate
    passes exactly when it is a fan isomorphism.  Only then is
    the witness formed: the matrix W sending one generator tuple to the
    other.  Here the generators are the columns, of A^T for f's cone 0
    and of G for its image, so W = G (A^T)^-1, and row i of W is row i of
    G written in the rows of A^-1 (:func:`kernel.coordinates` on the
    validity pass's stored columns of cone 0, transposed).  Candidates
    are tried in ``g.max_cones`` x ``permutations`` order and pruning only
    skips non-isomorphisms, so the witness is the first isomorphism in that
    order.  Returns one witness matrix (tuple of rows) or None.
    """
    ensure_smooth_complete(f)
    ensure_smooth_complete(g)
    if (
        f.dim != g.dim
        or len(f.rays) != len(g.rays)
        or len(f.max_cones) != len(g.max_cones)
    ):
        return None
    if f == g:
        # the first candidate, cone 0 onto itself in order, gives I
        return _identity(f.dim)
    f_walls, f_inv, f_invariants = _iso_record(f)
    g_walls, g_inv, g_invariants = _iso_record(g)
    if f_invariants != g_invariants:
        return None
    walk = _walk(f, f_walls)
    anchor = f.max_cones[0]
    wanted = [f_inv[i] for i in anchor]
    multiset = sorted(wanted)
    for target in g.max_cones:
        # a cone with other invariants has no order; _orders would find
        # that only position by position, through factorially many prefixes
        if sorted(map(g_inv.__getitem__, target)) != multiset:
            continue
        for perm in _orders(target, wanted, g_inv):
            if _propagates(walk, g_walls, anchor, perm):
                # W = G (A^T)^-1: row i of W is G's row i written in the
                # rows of A^-1, read off the stored columns transposed
                inverse_rows = tuple(zip(*_analyze(f)[3][0][0]))
                return tuple(
                    tuple(kernel.coordinates(row, inverse_rows))
                    for row in zip(*map(g.rays.__getitem__, perm))
                )
    return None
