"""Exact integer linear algebra over arbitrary-precision Python ints.

Every decision in the package is an exact sign test, so the kernel has one
routine: the adjugate and determinant of a square matrix by fraction-free
(Bareiss) Gauss-Jordan elimination, whose divisions are exact and whose
entries stay minors of the input.  The validity pass in ``fan`` calls it
once per maximal cone; every other change of basis reads that result.

The routine is pure, so it is memoised for the life of the process and
keyed by its rows: a star subdivision keeps every cone outside the star,
so a blown-up fan asks again for the inverses its parent already has, and
those come back as the same immutable ``(adj, det)``.  The rows must
therefore be hashable, a tuple of tuples of ints.  A singular matrix
raises every time it is asked for, since an exception is not cached.
"""

from functools import lru_cache


def backend_name():
    return "pure"


def available_backends():
    return ("pure",)


@lru_cache(maxsize=None)
def inverse(rows):
    """Adjugate and determinant of a square integer matrix, memoised.

    One fraction-free Gauss-Jordan pass on [A | I]: pivoting on column k
    clears it above and below the pivot, and every entry is updated as
    (entry * pivot - factor * pivot_row_entry) // previous pivot, a Bareiss
    step whose division is exact because each entry is a minor of [A | I].
    After the last column the right block T satisfies T A = D I, where the
    last pivot D is the determinant of A with its rows swapped; the sign of
    the swaps turns (T, D) into the adjugate and det of A.
    ``rows`` is a tuple of row tuples, the cache key.  Returns (adj, det)
    with A adj = det I.  Raises ValueError when A is singular.
    """
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
            # left columns before k are zero off the diagonal and stay so,
            # and the left diagonal is never read again: skip them
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - factor * top[j]) // prev
            row[k] = 0
        prev = pivot
    adj = tuple(tuple(sign * x for x in row[n:]) for row in m)
    return adj, sign * prev
