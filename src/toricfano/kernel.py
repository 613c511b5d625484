"""Exact integer linear algebra over arbitrary-precision Python ints.

Every decision in the package is an exact sign test, so the kernel has one
routine: the adjugate and determinant of a square matrix by fraction-free
(Bareiss) Gauss-Jordan elimination, whose divisions are exact and whose
entries stay minors of the input.  The validity pass in ``fan``, its only
caller, runs only on a fan with no parent: a parsed fan file, projective
space or a P^1-bundle.  It calls the kernel for one root cone per
connected piece of the facet graph, once for a complete fan, turns the
rows of its result into the columns of |det| A^-1 that ``fan`` stores,
and reads every other cone's inverse off a neighbour's across their
shared facet; a cone the walk finds singular is left to the kernel, which
raises.  The output of a surgery, a star subdivision or a blow-down, reads
its verdict off what the surgery recorded and its inverses off its
parent's, and only when they are read; every other change of basis reads
the validity pass's result.

Cone matrices of smooth fans are mostly 0 and +-1, so the elimination
pivots on a unit entry of the column when there is one, and while the
pivot and the previous pivot are both 1 a Bareiss step is plain integer
elimination.  The pivot rule does not change the result: for a
nonsingular matrix the adjugate and determinant are unique, and every
route of the elimination ends at them.
"""


def backend_name():
    return "pure"


def available_backends():
    return ("pure",)


def inverse(rows):
    """Adjugate and determinant of a square integer matrix.

    One fraction-free Gauss-Jordan pass on [A | I], eliminating column k above
    and below the pivot row.  The pivot is a +-1 entry of column k at or
    below row k when there is one, else the first nonzero entry there; the
    pivot row is swapped into place, and a -1 pivot row is negated.  Each
    swap and negation flips ``sign`` and applies to the whole row, so the
    block [A | I] only has its rows permuted and signed.  The general step
    updates every entry as (entry * pivot - factor * pivot_row_entry) //
    previous pivot, a Bareiss step whose division is exact because each
    entry is a minor of the signed, permuted [A | I].  When the pivot and
    the previous pivot are both 1 that step is entry - factor *
    pivot_row_entry, so a row whose factor is 0 is left alone.  After the
    last column the right block T satisfies T A = D I, where the last pivot
    D is the determinant of the signed, permuted A; ``sign`` turns (T, D)
    into the adjugate and det of A.  These are unique, so the pivot choice
    cannot change the result.  ``rows`` is a sequence of integer rows.
    Returns (adj, det) with A adj = det I.  Raises ValueError when A
    is singular.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and non-empty")
    width = 2 * n
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        for p in range(k, n):
            if m[p][k] in (1, -1):
                break
        else:
            for p in range(k, n):
                if m[p][k]:
                    break
            else:
                raise ValueError("singular matrix")
        top = m[p]
        if p != k:
            m[k], m[p] = top, m[k]
            sign = -sign
        if top[k] == -1:
            top[:] = [-x for x in top]
            sign = -sign
        pivot = top[k]
        # no step reads the left block at or before column k again, so
        # neither step updates it
        if pivot == 1 and prev == 1:
            for i in range(n):
                row = m[i]
                factor = row[k]
                if factor and i != k:
                    for j in range(k + 1, width):
                        row[j] -= factor * top[j]
        else:
            for i in range(n):
                if i == k:
                    continue
                row = m[i]
                factor = row[k]
                for j in range(k + 1, width):
                    row[j] = (row[j] * pivot - factor * top[j]) // prev
        prev = pivot
    if sign == 1:
        return tuple(tuple(row[n:]) for row in m), prev
    return tuple(tuple([-x for x in row[n:]]) for row in m), -prev
