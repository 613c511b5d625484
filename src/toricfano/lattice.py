"""Exact lattice arithmetic: primitive vectors, quotient maps.

Vectors are plain tuples of Python ints.  Everything is integral; Fano and
extremality questions downstream are sign decisions, so no floats appear
anywhere in this package.
"""

from functools import lru_cache
from math import gcd


def primitivize(v):
    """Divide an integer vector by the gcd of its entries."""
    v = tuple(v)
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(c // g for c in v)


def is_primitive(v):
    return gcd(*v) == 1


def xgcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


@lru_cache(maxsize=None)
def quotient_matrix(v):
    """Rows of a fixed surjection Z^n -> Z^(n-1) whose kernel is exactly Z*v.

    The matrix is the non-v part of the inverse of a deterministic basis
    completion of v.  When v has a +-1 entry the map clears and drops that
    coordinate, so standard basis vectors project by coordinate deletion;
    otherwise a gcd row reduction builds the completion.
    """
    n = len(v)
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not is_primitive(v):
        raise ValueError(f"{v} is not primitive")
    for p, c in enumerate(v):
        if c in (1, -1):
            rows = []
            for i in range(n):
                if i == p:
                    continue
                row = [0] * n
                row[i] = 1
                row[p] = -v[i] * c
                rows.append(tuple(row))
            return tuple(rows)
    # no unit entry: reduce v to e_1 with a unimodular U and drop U's first row
    x = list(v)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if x[i] == 0:
            continue
        g, s, t = xgcd(x[0], x[i])
        q0, qi = x[0] // g, x[i] // g
        U[0], U[i] = (
            [s * U[0][j] + t * U[i][j] for j in range(n)],
            [-qi * U[0][j] + q0 * U[i][j] for j in range(n)],
        )
        x[0], x[i] = g, 0
    if x[0] != 1:
        raise ArithmeticError(f"gcd reduction of primitive {v} ended at {x[0]}")
    return tuple(tuple(r) for r in U[1:])


def quotient_project(v, w):
    """Image of w under the fixed surjection Z^n -> Z^n / Z*v."""
    v, w = tuple(v), tuple(w)
    if len(w) != len(v):
        raise ValueError("vectors live in different dimensions")
    rows = quotient_matrix(v)
    return tuple(sum(r[j] * w[j] for j in range(len(w))) for r in rows)


def matrix_apply(m, v):
    """Multiply the matrix (tuple of rows) by the column vector v."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)
