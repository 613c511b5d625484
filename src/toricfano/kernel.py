"""Exact integer linear algebra over arbitrary-precision Python ints.

Every decision in the package is an exact sign test, and every inverse is
read by one routine, the exchange step (:func:`exchange`): a square
matrix A is kept as (the columns of |det| A^-1, det A), and exchanging
one row of A for a new row, given that row's coordinates in A's rows
(:func:`coordinates`), updates the columns with divisions that are exact.
This is Reid's move across a wall from one maximal cone to the next, and
``fan`` reads every cone inverse with it: the validity walk's step, and
every moved cone of a surgery's plan.  :func:`inverse` is the same step n
times, from the identity, for the root cone of a fan with no parent.

The kernel keeps no memo and no state between calls.  ``backend_name``
and ``available_backends`` name the one pure kernel for the benchmark's
report.
"""

from operator import neg, sub


def backend_name():
    return "pure"


def available_backends():
    return ("pure",)


def coordinates(u, cols):
    """The list of <u, column j> over the columns, summed over u's nonzero
    entries only (None when u is zero): the coordinates of u in the rows of
    A, times |det|, when ``cols`` are the stored columns of A."""
    out = None
    for i, x in enumerate(u):
        if x:
            out = [x * col[i] for col in cols] if out is None else [
                a + x * col[i] for a, col in zip(out, cols)
            ]
    return out


def exchange(cols, det, k, mu, to):
    """(cols, det) of a matrix A after its row k is replaced by a row u,
    given mu = (<u, column j>), and then moved to position ``to``.  This is
    the one change of basis between neighbouring cones: the validity walk's
    move across a wall, every moved cone of a surgery's plan, and each step
    of :func:`inverse`.

    With lambda = mu / |det|, u = lambda A, so the new matrix is E A, where
    E is the identity with row k replaced by lambda, and its det is det *
    lambda_k = sign(det) mu_k.  Its inverse A^-1 E^-1 has column k of A^-1
    divided by lambda_k, and lambda_j / lambda_k times that column
    subtracted from each other column j; times |mu_k|, with s the sign of
    mu_k, column k becomes s C_k and column j (|mu_k| C_j - s mu_j C_k) /
    |det|, C being the stored columns.  That division is exact, since the
    result is |mu_k| A'^-1, an adjugate up to sign; a remainder raises
    ArithmeticError.  When det and mu_k are both +-1, as on every cone of a
    smooth fan, there is no division: column j loses s mu_j C_k, and is
    kept as it is when mu_j = 0.  Then row k moves to position ``to``, a
    cycle of |to - k| transpositions: column k moves to ``to``, and det is
    multiplied by (-1)^|to - k|; |det| A^-1 does not change sign.
    """
    d, pivot, out = mu[k], cols[k], list(cols)
    if d * det in (1, -1):
        # s = d, so column j loses C_k when mu_j = d, else d mu_j C_k
        for j, m in enumerate(mu):
            if m and j != k:
                if m == d:
                    out[j] = tuple(map(sub, cols[j], pivot))
                else:
                    out[j] = tuple([a - d * m * b for a, b in zip(cols[j], pivot)])
    else:
        sign, size = (1 if d > 0 else -1), abs(det)
        scale = sign * d
        for j, m in enumerate(mu):
            if j == k:
                continue
            m *= sign
            moved = []
            for a, b in zip(cols[j], pivot):
                q, rem = divmod(scale * a - m * b, size)
                if rem:
                    raise ArithmeticError("exchanged inverse is not exact")
                moved.append(q)
            out[j] = tuple(moved)
    if d < 0:
        out[k] = tuple(map(neg, pivot))
    out.insert(to, out.pop(k))
    det = d if det > 0 else -d
    return tuple(out), -det if (to - k) % 2 else det


def inverse(rows):
    """(the columns of |det| A^-1, det A) of a square integer matrix A, its
    rows ``rows``, by n exchanges from the identity.

    Before step t the matrix holds rows[:t] at positions 0..t-1 and unit
    rows below.  Row t is written in that basis, mu = coordinates(rows[t],
    cols), and exchanged for the first unit row at a position k >= t where
    mu_k != 0, then moved to position t.  When mu_k = 0 at every k >= t,
    rows[t] lies in the span of rows[:t], and ValueError names the matrix
    singular.  The result is unique, so the choice of k cannot change it.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and non-empty")
    cols = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    det = 1
    for t, row in enumerate(rows):
        mu = coordinates(row, cols)
        if mu is None:
            raise ValueError("singular matrix")
        for k in range(t, n):
            if mu[k]:
                break
        else:
            raise ValueError("singular matrix")
        cols, det = exchange(cols, det, k, mu, t)
    return cols, det
