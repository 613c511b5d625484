"""Exact feasibility for small cone-membership systems, in integers.

Phase-one simplex with Bland's rule, fraction free in the style of
Bareiss and Edmonds: the tableau is kept as integers over one positive
common denominator, and each pivot divides exactly by the previous
pivot.  Every decision is a sign or a cross-product comparison, so the
pivots are the ones a rational simplex would make, with no rounding and
no ``Fraction``.  Used for interior-overlap detection between cones and
for deciding whether a curve class lies in the cone spanned by the other
wall classes.
"""


def _phase_one(columns, target):
    """(feasible, pivots) for target = sum(lam_j * columns[j]), lam >= 0.

    The equality rows A lam = b are signed so that b >= 0, with one
    artificial basic variable per row; the system is feasible iff the
    artificial sum minimises to zero.  Row i of T holds row i of A and
    then b[i]; the true tableau is T / D.  A pivot p = T[l][e] > 0 leaves
    its row as it is and sends every other row x to
    (p * x - x[e] * T[l]) // D; then D becomes p.  D stays the
    determinant of the basis matrix B, so T = adj(B) [A | b] is integral
    and every division is exact; a remainder raises ArithmeticError.  The
    artificial columns are never read (artificials never re-enter), so
    they are not stored.
    """
    m = len(columns)
    r = len(target)
    for col in columns:
        if len(col) != r:
            raise ValueError("column length mismatch")
    T = []
    for i in range(r):
        sign = -1 if target[i] < 0 else 1
        T.append([sign * col[i] for col in columns] + [sign * target[i]])
    D = 1
    basis = [m + i for i in range(r)]
    pivots = 0
    while True:
        art_rows = [i for i in range(r) if basis[i] >= m]
        if not any(T[i][m] for i in art_rows):  # b >= 0 throughout
            return True, pivots
        # Bland's rule: the lowest-index structural column with negative
        # reduced cost enters; a basic column is zero off its own row, which
        # is not an artificial one, so its reduced cost is zero
        entering = -1
        for j in range(m):
            if sum(T[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering < 0:
            return False, pivots
        # least ratio b[i] / T[i][e] over T[i][e] > 0, ties to the lowest
        # basic index; D cancels, so compare cross-products
        leave = -1
        for i in range(r):
            t = T[i][entering]
            if t > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = T[i][m] * T[leave][entering]
                rhs = T[leave][m] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-one simplex cannot be unbounded")
        prow = T[leave]
        p = prow[entering]
        for i in range(r):
            if i == leave:
                continue
            f = T[i][entering]
            row = [p * x - f * y for x, y in zip(T[i], prow)]
            for k, x in enumerate(row):
                row[k], rem = divmod(x, D)
                if rem:
                    raise ArithmeticError("fraction-free pivot is not exact")
            T[i] = row
        D = p
        basis[leave] = entering
        pivots += 1


def in_nonneg_span(columns, target):
    """Decide whether target = sum(lam_j * columns[j]) admits lam >= 0.

    ``columns`` and ``target`` are integer vectors of equal length; the
    answer is exact over the rationals.
    """
    return _phase_one(columns, target)[0]
