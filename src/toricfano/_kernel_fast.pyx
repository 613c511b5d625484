# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""64-bit mirror of ``_kernel_pure.det``.

Entries are kept below 2**62 and intermediate products run in 128-bit
registers, so nothing here can silently wrap.  Any input or intermediate
value outside that range raises OverflowError and the caller falls back to
the arbitrary-precision kernel.  The Bareiss divisions are exact, so C
truncated division agrees with Python floor division.
"""

cdef extern from *:
    ctypedef long long wide "__int128"

cdef long long LIMIT = (<long long>1) << 62


cdef long long _bareiss(long long[12][12] m, int n) except? -9223372036854775807:
    cdef int i, j, k, found
    cdef int sign = 1
    cdef long long prev = 1, pivot, tmp
    cdef wide t
    for k in range(n - 1):
        if m[k][k] == 0:
            found = 0
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    for j in range(n):
                        tmp = m[k][j]
                        m[k][j] = m[i][j]
                        m[i][j] = tmp
                    sign = -sign
                    found = 1
                    break
            if not found:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = (<wide>m[i][j]) * pivot - (<wide>m[i][k]) * m[k][j]
                t = t // prev
                if t > <wide>LIMIT or t < -(<wide>LIMIT):
                    raise OverflowError("fast kernel range exceeded")
                m[i][j] = <long long>t
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


cdef int _load(long long[12][12] m, rows) except -1:
    cdef int n = len(rows)
    cdef int i, j
    cdef long long x
    if n == 0:
        raise ValueError("matrix must be square and non-empty")
    if n > 12:
        raise OverflowError("matrix too large for the fast kernel")
    for i in range(n):
        row = rows[i]
        if len(row) != n:
            raise ValueError("matrix must be square and non-empty")
        for j in range(n):
            x = row[j]
            if x > LIMIT or x < -LIMIT:
                raise OverflowError("fast kernel range exceeded")
            m[i][j] = x
    return n


def det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    cdef long long[12][12] m
    cdef int n = _load(m, rows)
    return _bareiss(m, n)
