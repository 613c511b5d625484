import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd
from operator import mul

import pytest

from toricfano import (
    ClassificationViolation,
    Fan,
    FixedPointProbe,
    analyze_divisor,
    catalog,
    classify_fano_with_divisor,
    fans_isomorphic,
    is_fano,
    projective_space_fan,
    random_corpus,
    star_subdivide,
)
from toricfano import walls
from toricfano.cli import (
    _corpus_arg,
    cmd_catalog,
    cmd_check,
    cmd_classify,
    cmd_divisors,
    cmd_iso,
    cmd_mori,
    cmd_simplify,
    cmd_verify_theorem1,
    cmd_verify_theorem2,
)
from toricfano.fan import (
    Wall,
    _facet_map,
    _overlaps,
    ensure_smooth_complete,
)


@pytest.fixture
def p3():
    return projective_space_fan(3)


@pytest.fixture
def p1xp2():
    # u+- = +-(1,0,0), b1 = (0,1,0), b2 = (0,0,1), b0 = (0,-1,-1)
    return Fan(
        3,
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        ((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    )


@pytest.fixture
def blowup_p3_point(p3):
    """P^3 blown up at the fixed point of <e1,e2,e3>; adds the ray (1,1,1)."""
    return star_subdivide(p3, (0, 1, 2))


@pytest.fixture
def blowup_p3_line(p3):
    """P^3 blown up along the invariant line <e1,e2>; adds the ray (1,1,0)."""
    return star_subdivide(p3, (0, 1))


def wall_by_rays(fan_walls, rays):
    matches = [w for w in fan_walls if w.wall_rays == tuple(sorted(rays))]
    assert len(matches) == 1
    return matches[0]


@pytest.fixture
def get_wall():
    return wall_by_rays


@pytest.fixture(scope="session")
def differential_fans():
    """Fans on which fast paths are compared with the slow ones they replace:
    two corpora and every catalog fan of dimensions 3 to 6."""
    fans = random_corpus(3, 200, 3, 42) + random_corpus(4, 50, 4, 7)
    return fans + tuple(entry.fan for n in range(3, 7) for entry in catalog(n))


def corpus_without_reuse(n, count, max_depth, seed):
    """The oracle for ``random_corpus``: the same seeded chains of star
    subdivisions of P^n, each step building its own subdivision, so no two
    corpus fans share an object."""
    import random

    rng = random.Random(seed)
    base = projective_space_fan(n)
    fans = []
    for _ in range(count):
        fan = base
        for _ in range(rng.randint(1, max_depth) if max_depth else 0):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            center = tuple(sorted(rng.sample(cone, rng.randint(2, n))))
            fan = star_subdivide(fan, center)
        fans.append(fan)
    return tuple(fans)


# Every ``lru_cache`` of the package, collected once, before any test runs:
# a test that monkeypatches a cached function out of its module still has
# the real function's cache cleared.
PACKAGE_CACHES = {
    value
    for name, module in list(sys.modules.items())
    if name.partition(".")[0] == "toricfano"
    for value in vars(module).values()
    if callable(getattr(value, "cache_clear", None))
}


def clear_caches():
    """Empty every ``lru_cache`` of the package, so a budget counts cold."""
    for cache in PACKAGE_CACHES:
        cache.cache_clear()


def count_kernel_calls(monkeypatch):
    """A list that gains the rows of each ``kernel.inverse`` call from now
    on; ``monkeypatch`` restores the kernel after the test."""
    import toricfano.kernel

    inverse, calls = toricfano.kernel.inverse, []

    def counting_inverse(rows):
        calls.append(rows)
        return inverse(rows)

    monkeypatch.setattr(toricfano.kernel, "inverse", counting_inverse)
    return calls


@lru_cache(maxsize=None)
def signed_permutations(n):
    """Every permutation of range(n) with its sign, by counting inversions."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def permutation_det(rows):
    """Independent oracle: signed permutation expansion."""
    total = 0
    for perm, sign in signed_permutations(len(rows)):
        prod = sign
        for row, j in zip(rows, perm):
            prod *= row[j]
        total += prod
    return total


def bareiss_inverse(rows):
    """The oracle for ``kernel.inverse``: fraction-free Gauss-Jordan on
    [A | I] with the first nonzero pivot of each column and a full Bareiss
    step on every row, (entry * pivot - factor * pivot_row_entry) //
    previous pivot.  Returns (adj, det); raises ValueError when singular."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and non-empty")
    width = 2 * n
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise ValueError("singular matrix")
        top = m[k]
        pivot = top[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            factor = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - factor * top[j]) // prev
            row[k] = 0
        prev = pivot
    adj = tuple(tuple(sign * x for x in row[n:]) for row in m)
    return adj, sign * prev


def apply_matrix(m, v):
    """m·v by plain dot products, the oracles' own matrix image; the
    package reads it through ``kernel.coordinates``, the code under test."""
    return tuple(sum(map(mul, row, v)) for row in m)


def as_stored(adj, det):
    """The kernel's ``(adj, det)`` of A in the form the validity pass
    stores: the columns of |det| A^-1, which are adj's columns, negated
    when det < 0, and det."""
    sign = 1 if det > 0 else -1
    return tuple(tuple(sign * x for x in col) for col in zip(*adj)), det


def per_entry_analysis(fan):
    """The oracle for the bulk entry checks of ``fan._analyze``: every ray
    and cone entry tested one by one, each cone inverted by
    ``bareiss_inverse``.  Its covering certificate shares nothing with the
    pass's: the sides of each facet by the det-parity rule (the pass reads
    mu_k < 0 off its walk), and the ray sum of cone 0 written through every
    column of each other cone's inverse.  Returns (problems, smooth,
    complete)."""
    if fan.dim < 2:
        return ("dimension must be at least 2",), False, False
    problems = []
    if not fan.rays:
        problems.append("fan has no rays")
    if not fan.max_cones:
        problems.append("fan has no maximal cones")
    for i, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            problems.append(f"ray {i} has dimension {len(ray)}, expected {fan.dim}")
        elif not any(ray):
            problems.append(f"ray {i} is zero")
        elif gcd(*ray) != 1:
            problems.append(f"ray {i} not primitive")
    seen = {}
    for i, ray in enumerate(fan.rays):
        if seen.setdefault(ray, i) != i:
            problems.append(f"rays {seen[ray]} and {i} are equal")
    inverses = []
    for ci, cone in enumerate(fan.max_cones):
        if len(cone) != fan.dim:
            problems.append(f"cone {ci} has size {len(cone)}, expected {fan.dim}")
            continue
        if len(set(cone)) != len(cone) or not all(
            0 <= i < len(fan.rays) for i in cone
        ):
            problems.append(f"cone {ci} has repeated or out-of-range ray indices")
            continue
        rows = tuple(fan.rays[i] for i in cone)
        if any(len(row) != fan.dim for row in rows):
            continue  # the ray's dimension is already reported
        try:
            inverses.append(as_stored(*bareiss_inverse(rows)))
        except ValueError:
            problems.append(f"cone {ci} is not simplicial")
    used = {i for cone in fan.max_cones for i in cone}
    for i in range(len(fan.rays)):
        if i not in used:
            problems.append(f"ray {i} not used by any maximal cone")
    cone_sets = {}
    for ci, cone in enumerate(fan.max_cones):
        key = tuple(sorted(set(cone)))
        if cone_sets.setdefault(key, ci) != ci:
            problems.append(f"cones {cone_sets[key]} and {ci} have the same rays")
    if problems:
        return tuple(problems), False, False
    dets = [det for _, det in inverses]
    facets = _facet_map(fan)
    paired = all(len(cones) == 2 for cones in facets.values())
    # the apex at position k is on the side sign(det * (-1)^k) of its facet:
    # opposite sides when the dets agree in sign exactly if ka + kb is odd
    opposite = all(
        (dets[ca] * dets[cb] > 0) == (ka + kb) % 2
        for (ca, ka), (cb, kb) in facets.values()
    )
    # p, the ray sum of cone 0, is in no other closed cone: each has a
    # negative coordinate of p, read through every column of its inverse
    p = [sum(col) for col in zip(*(fan.rays[i] for i in fan.max_cones[0]))]
    covered_once = all(
        min(sum(map(mul, p, col)) for col in cols) < 0 for cols, _ in inverses[1:]
    )
    if not (paired and opposite and covered_once):
        problems = _overlaps(fan)
    smooth = all(d in (1, -1) for d in dets)
    return tuple(problems), smooth, paired


def oracle_walls(fan):
    """The oracle for ``walls``, the algorithm the validity pass's records
    replaced: ``_facet_map`` pairs the facets, and each wall's coefficients
    are the coordinates of -apex_b in the ray basis of the cone holding the
    lower apex, apex_a, from that cone's ``bareiss_inverse``, less the
    apex_a coordinate, which is 1 on a smooth complete fan."""
    ensure_smooth_complete(fan)
    cones, out, inverses = fan.max_cones, [], {}
    for facet, ((host, k), (other, j)) in sorted(_facet_map(fan).items()):
        apex_a, apex_b = cones[host][k], cones[other][j]
        if apex_a > apex_b:
            host, k, apex_a, apex_b = other, j, apex_b, apex_a
        if host not in inverses:
            rows = [fan.rays[i] for i in cones[host]]
            inverses[host] = as_stored(*bareiss_inverse(rows))[0]
        coeffs = [-sum(map(mul, fan.rays[apex_b], col)) for col in inverses[host]]
        if coeffs.pop(k) != 1:
            raise ValueError("fan not smooth along wall")
        out.append(Wall(facet, apex_a, apex_b, tuple(coeffs)))
    return tuple(out)


def wall_relation_holds(fan, wall):
    """Exact check of the defining relation of a wall."""
    total = list(fan.rays[wall.apex_a])
    for k in range(fan.dim):
        total[k] += fan.rays[wall.apex_b][k]
        total[k] += sum(
            c * fan.rays[i][k] for i, c in zip(wall.wall_rays, wall.coeffs)
        )
    return not any(total)


def pair(divisor, cclass):
    """D . C from a divisor's coefficients and a curve class."""
    return sum(c * d for c, d in zip(divisor.coeffs, cclass))


def witness_is_valid(witness, source, target):
    """Independent check of an isomorphism witness: determinant +-1, a
    bijection of the rays, and every cone of ``source`` sent onto a cone of
    ``target``."""
    if permutation_det(witness) not in (1, -1):
        return False
    index = {ray: i for i, ray in enumerate(target.rays)}
    mapped = [index.get(apply_matrix(witness, r)) for r in source.rays]
    if None in mapped or sorted(mapped) != list(range(len(target.rays))):
        return False
    cones = set(target.max_cones)
    return len(source.max_cones) == len(cones) and all(
        tuple(sorted(mapped[i] for i in cone)) in cones for cone in source.max_cones
    )


def relabel_fan(fan, rng):
    """An isomorphic copy: a signed permutation of the coordinates, then the
    rays and the cones in shuffled order."""
    axes = list(range(fan.dim))
    rng.shuffle(axes)
    signs = [rng.choice((1, -1)) for _ in axes]
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    rays = tuple(
        tuple(s * fan.rays[old][a] for a, s in zip(axes, signs)) for old in order
    )
    cones = [tuple(new_index[i] for i in cone) for cone in fan.max_cones]
    rng.shuffle(cones)
    return Fan(fan.dim, rays, tuple(cones))


def change_basis(fan, rng, bound, shears=8):
    """An isomorphic copy under a random matrix of GL(n, Z): a product of
    ``shears`` shears, each adding up to ``bound`` times one row to another,
    with one row negated half the time; then the rays and the cones in
    shuffled order.  Returns the copy and each original ray's index in it."""
    n = fan.dim
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1)) * rng.randint(1, bound)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        m[k] = [-a for a in m[k]]
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    new_index = [0] * len(order)
    for new, old in enumerate(order):
        new_index[old] = new
    rays = tuple(apply_matrix(m, fan.rays[old]) for old in order)
    cones = [tuple(new_index[i] for i in cone) for cone in fan.max_cones]
    rng.shuffle(cones)
    return Fan(fan.dim, rays, tuple(cones)), new_index


def brute_fans_isomorphic(f, g):
    """The anchored brute force, the oracle for ``fans_isomorphic``, which
    checks the same candidate matrices after pruning them by per-ray
    invariants: for every maximal cone of ``g`` and every ordering of its rays, form
    the matrix sending the generators of f's cone 0 to them by its own
    Bareiss inverse and products, and test whether it maps the ray set and
    the cone family bijectively.  The first such matrix is the witness."""
    ensure_smooth_complete(f)
    ensure_smooth_complete(g)
    if (
        f.dim != g.dim
        or len(f.rays) != len(g.rays)
        or len(f.max_cones) != len(g.max_cones)
    ):
        return None
    if _brute_signature(f) != _brute_signature(g):
        return None
    n = f.dim
    # the transpose of A^-1 for f's cone 0: its rows are the columns of
    # A^-1, as stored, since the fan is smooth
    anchor_inv = as_stored(*bareiss_inverse([f.rays[i] for i in f.max_cones[0]]))[0]
    g_ray_index = {ray: i for i, ray in enumerate(g.rays)}
    g_cone_set = set(g.max_cones)
    for target in g.max_cones:
        for perm in permutations(target):
            image_matrix = tuple(
                tuple(g.rays[j][i] for j in perm) for i in range(n)
            )
            m = tuple(
                tuple(
                    sum(image_matrix[i][k] * anchor_inv[k][j] for k in range(n))
                    for j in range(n)
                )
                for i in range(n)
            )
            mapped = []
            for ray in f.rays:
                gi = g_ray_index.get(apply_matrix(m, ray))
                if gi is None:
                    break
                mapped.append(gi)
            else:
                if len(set(mapped)) == len(mapped) and all(
                    tuple(sorted(mapped[i] for i in cone)) in g_cone_set
                    for cone in f.max_cones
                ):
                    return m
    return None


def _brute_signature(fan):
    """Cheap isomorphism invariants: wall coefficient and valence multisets."""
    coeff_multiset = tuple(sorted(tuple(sorted(w.coeffs)) for w in walls(fan)))
    valence = tuple(
        sorted(
            sum(1 for cone in fan.max_cones if i in cone)
            for i in range(len(fan.rays))
        )
    )
    return coeff_multiset, valence


def divisor_star_fan(fan, ray_index):
    """Fan of the invariant divisor V(ray) in the quotient lattice N / Z·ray.

    Collects the maximal cones through the ray and maps the other rays to
    the quotient through the unimodular basis of the first of them: each
    ray's coordinates in that basis, from its ``bareiss_inverse``, less the
    ray's own coordinate.  On a smooth fan the images are primitive, and
    the result is again smooth and complete.  The oracle for
    ``analyze_divisor``'s cone count: V(ray) is a projective space exactly
    when this fan has ``fan.dim`` rays.
    """
    ensure_smooth_complete(fan)
    if fan.dim < 3:
        raise ValueError("divisor fans need ambient dimension at least 3")
    if not 0 <= ray_index < len(fan.rays):
        raise ValueError("ray index out of range")
    star = [cone for cone in fan.max_cones if ray_index in cone]
    # the columns of A^-1 for the first cone, det A being +-1; the ray's
    # own column is dropped, so it spans the kernel of the map
    cols = list(as_stored(*bareiss_inverse([fan.rays[i] for i in star[0]]))[0])
    del cols[star[0].index(ray_index)]
    images = {}
    order = []
    for cone in star:
        for i in cone:
            if i != ray_index and i not in images:
                images[i] = tuple(sum(map(mul, fan.rays[i], col)) for col in cols)
                assert gcd(*images[i]) == 1, "divisor fan ray is not primitive"
                order.append(i)
    ray_list = [images[i] for i in order]
    assert len(set(ray_list)) == len(ray_list), "divisor fan has two equal rays"
    index_of = {i: k for k, i in enumerate(order)}
    cones = tuple(
        tuple(sorted(index_of[i] for i in cone if i != ray_index))
        for cone in star
    )
    return Fan(fan.dim - 1, tuple(ray_list), cones)


def is_positive_multiple(base, other):
    """True when other = q * base for some rational q > 0 (exact, integral).

    The oracle for comparing wall classes by equality: a wall class is 1
    on its apexes, so two are positive multiples exactly when they are
    equal.
    """
    n = len(base)
    for i in range(n):
        for j in range(i + 1, n):
            if base[i] * other[j] != base[j] * other[i]:
                return False
    for x, y in zip(base, other):
        if x != 0:
            return x * y > 0
    return False


def fraction_in_nonneg_span(columns, target):
    """Decide whether target = sum(lam_j * columns[j]) admits lam >= 0.

    ``columns`` and ``target`` are integer vectors of equal length; the
    answer is exact over the rationals.  The oracle for the integer
    simplex in ``toricfano._simplex``: phase one over Fraction with
    Bland's rule, on the full tableau with its artificial columns.
    """
    m = len(columns)
    r = len(target)
    for col in columns:
        if len(col) != r:
            raise ValueError("column length mismatch")
    # Equality rows A lam = b with b >= 0, plus one artificial per row;
    # feasible iff the artificial sum minimises to zero.
    T = []
    b = []
    for i in range(r):
        sign = -1 if target[i] < 0 else 1
        row = [Fraction(sign * col[i]) for col in columns]
        row.extend(Fraction(int(i == k)) for k in range(r))
        T.append(row)
        b.append(Fraction(sign * target[i]))
    basis = [m + i for i in range(r)]
    while True:
        art_rows = [i for i in range(r) if basis[i] >= m]
        if sum((b[i] for i in art_rows), Fraction(0)) == 0:
            return True
        # Bland's rule: the lowest-index structural column with negative
        # reduced cost enters (artificials never re-enter).
        entering = -1
        for j in range(m):
            if j in basis:
                continue
            if sum((T[i][j] for i in art_rows), Fraction(0)) > 0:
                entering = j
                break
        if entering < 0:
            return False
        leave = -1
        best = None
        for i in range(r):
            if T[i][entering] > 0:
                ratio = b[i] / T[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise ArithmeticError("phase-one simplex cannot be unbounded")
        piv = T[leave][entering]
        T[leave] = [x / piv for x in T[leave]]
        b[leave] /= piv
        for i in range(r):
            if i != leave and T[i][entering] != 0:
                f = T[i][entering]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
                b[i] -= f * b[leave]
        basis[leave] = entering


# the class of a Fano point blow-up -> (conclusion, catalog case of the fan)
_BLOWUP_ORIGINS = {
    ("iii", 1): ("projective-space", "i"),
    ("iv", 0): ("blown-projective-space", "ii"),
}


def blowup_route_probe(fan, ci):
    """The route by which ``theorem1_check`` once decided a Fano probe, the
    oracle for identifying the fan directly: build the blow-up at cone
    ``ci``, require it to be Fano by its own walls and its exceptional
    divisor to be a projective space of degree -1, classify it, and map
    case (iii, 1) or (iv, 0) to the conclusion and the catalog entry the
    fan must be."""
    n, cone = fan.dim, fan.max_cones[ci]
    blown = star_subdivide(fan, cone)
    exceptional = len(blown.rays) - 1
    conclusion = witness = violation = None
    try:
        if not is_fano(blown):
            raise ClassificationViolation(
                "the local Fano test passed the point blow-up, but a wall"
                " of the blown-up fan has non-positive anticanonical degree"
            )
        analysis = analyze_divisor(blown, exceptional)
        if not analysis.is_proj_space or analysis.d != -1:
            raise ClassificationViolation(
                "exceptional divisor of a point blow-up must be a"
                " projective space of degree -1"
            )
        result = classify_fano_with_divisor(blown, exceptional)
        origin = _BLOWUP_ORIGINS.get((result.case_tag, result.nu))
        if origin is None:
            raise ClassificationViolation(
                f"point blow-up classified as case {result.case_tag} with"
                f" parameter {result.nu}; only the point blow-up of"
                " projective space or the fiber-type blow-up can occur"
            )
        conclusion, case = origin
        entry = next(e for e in catalog(n) if e.case_tag == case)
        witness = fans_isomorphic(fan, entry.fan)
        if witness is None:
            raise ClassificationViolation(
                f"point blow-up classified as case {result.case_tag} with"
                f" parameter {result.nu}, but the fan is not {entry.name}"
            )
        if case == "ii":
            # the entry's exceptional ray is the one appended by its
            # construction; pull it back through the witness
            target_exc = entry.fan.rays[-1]
            own_exc = next(
                i
                for i, r in enumerate(fan.rays)
                if apply_matrix(witness, r) == target_exc
            )
            if own_exc in cone:
                raise ClassificationViolation(
                    "fixed point lies on the exceptional divisor yet its"
                    " blow-up is Fano"
                )
    except ClassificationViolation as err:
        violation = str(err)
    return FixedPointProbe(ci, conclusion, witness, violation)


# The argparse parser the command line used before its table dispatcher,
# kept as the oracle of ``test_dispatcher_agrees_with_argparse``.
@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Building the subcommand tree takes over a millisecond, as long as a
    small command, so one process builds it once; it is not built at
    import, which would slow every start-up, including those that never
    parse.  Parsing leaves no state in it: each ``parse_args`` fills a
    fresh namespace.  Callers must not add arguments to the shared parser.
    """
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description=(
            "Exact toric-fan computations: walls, Mori extremality, Fano"
            " tests, and the classification of point blow-ups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument(
            "--json", action="store_true", help="emit a JSON report on stdout"
        )
        p.set_defaults(handler=handler)
        return p

    p = add("check", cmd_check, help="validate a fan and print its wall table")
    p.add_argument("fan")
    p.add_argument("--divisor", help="divisor file to scan for ampleness/nefness")
    p = add("mori", cmd_mori, help="per-wall degrees, extremality, contraction kinds")
    p.add_argument("fan")
    p = add("divisors", cmd_divisors, help="analyze every prime divisor")
    p.add_argument("fan")
    p = add("classify", cmd_classify, help="identify a Fano fan with a chosen divisor")
    p.add_argument("fan")
    p.add_argument("--ray", type=int, required=True)
    p = add("simplify", cmd_simplify, help="blow down once through a transverse wall")
    p.add_argument("fan")
    p.add_argument("--ray", type=int, required=True)
    p = add("catalog", cmd_catalog, help="build the 2n+1 classified fans")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--emit", help="write each catalog fan to this directory")
    p = add("verify-theorem2", cmd_verify_theorem2, help="verify the divisor classification")
    p.add_argument("--dim", type=int, required=True)
    p = add("verify-theorem1", cmd_verify_theorem1, help="verify the point blow-up criterion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="fan file to test")
    group.add_argument(
        "--corpus", type=_corpus_arg, help="n,count,depth,seed random corpus"
    )
    p = add("iso", cmd_iso, help="search for a fan isomorphism witness")
    p.add_argument("a")
    p.add_argument("b")
    return parser
