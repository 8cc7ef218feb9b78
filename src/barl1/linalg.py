"""Small exact linear algebra kernel: RREF, square solves, kernels.

Matrices are lists of row lists.  RREF (and so every rank: the rank is
the number of RREF pivots), square solves and kernel lines share the
sparse integer-row Gauss-Jordan kernel (int_row / eliminate / pivot)
that the simplex in l1opt runs on: each row is a dict of nonzero integer
entries whose rhs is scaled with it, and every updated row is divided by
its gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def exact(v):
    """v as an exact number: ints and Fractions as they are, anything
    else through Fraction, except a float, which is rejected, as its
    binary value is seldom the number meant."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, float):
        raise TypeError("float %r rejected; use Fraction" % (v,))
    return Fraction(v)


def int_row(values, b):
    """One equation values . x = b as (row, rhs, scale): values is a
    dense sequence or a {column: value} mapping, row maps column to
    nonzero integer entry, and row, rhs are the equation times scale,
    the positive lcm of all denominators, negated when b < 0 so that the
    rhs is nonnegative."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    vals = {j: exact(v) for j, v in items if v}
    b = exact(b)
    scale = lcm(b.denominator, *(v.denominator for v in vals.values()))
    if b < 0:
        scale = -scale
    row = {j: v.numerator * (scale // v.denominator) for j, v in vals.items()}
    return row, b.numerator * (scale // b.denominator), abs(scale)


def eliminate(row, b, prow, pb, c):
    """Clear column c of the integer row (row, b) with the pivot row
    (prow, pb), where prow[c] > 0.

    This is row - (row[c] / prow[c]) * prow, scaled by the positive
    factor prow[c] / gcd(row[c], prow[c]) so that it stays integral,
    then divided by the gcd of its entries.  Only the pivot row's
    nonzeros are touched.
    """
    f = row[c]
    p = prow[c]
    g = gcd(f, p)
    s, f = p // g, f // g
    if s != 1:
        row = {j: v * s for j, v in row.items()}
        b *= s
    for j, v in prow.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]
    b -= f * pb
    g = gcd(b, *row.values())
    if g > 1:
        row = {j: v // g for j, v in row.items()}
        b //= g
    return row, b


def pivot(rows, rhs, basis, r, c):
    """Gauss-Jordan step on integer rows: make row r's entry in column c
    positive and clear column c from every other row holding it."""
    if rows[r][c] < 0:
        rows[r] = {j: -v for j, v in rows[r].items()}
        rhs[r] = -rhs[r]
    prow, pb = rows[r], rhs[r]
    for i, row in enumerate(rows):
        if i != r and c in row:
            rows[i], rhs[i] = eliminate(row, rhs[i], prow, pb, c)
    basis[r] = c


def _reduce_square(rows, rhs, ncols):
    """Gauss-Jordan on n integer rows over columns < ncols, pivoting each
    row on its first such column; the pivot column of each row, or None
    when the rows are dependent there."""
    cols = [None] * len(rows)
    for r, row in enumerate(rows):
        c = min((j for j in row if j < ncols), default=None)
        if c is None:
            return None
        pivot(rows, rhs, cols, r, c)
    return cols


def solve_square(a, b):
    """Solve a x = b for square a; None when singular."""
    rows, rhs = [], []
    for values, bi in zip(a, b):
        row, bi, _ = int_row(values, bi)
        rows.append(row)
        rhs.append(bi)
    n = len(rows)
    cols = _reduce_square(rows, rhs, n)
    if cols is None:
        return None
    x = [None] * n
    for r, c in enumerate(cols):
        # row r is now rows[r][c] * x[c] = rhs[r]
        x[c] = Fraction(rhs[r], rows[r][c])
    return x


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns).

    Each integer row pivots in turn on its first nonzero column, which
    pivot clears from every other row.  The RREF is unique, so dividing
    the pivot rows by their pivot entries and sorting them by pivot
    column gives it; rows that reduced to zero follow as zero rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    ints = [int_row(values, 0)[0] for values in rows]
    zeros = [0] * len(ints)
    cols = [None] * len(ints)
    for r, row in enumerate(ints):
        if row:
            pivot(ints, zeros, cols, r, min(row))
    order = sorted((c, r) for r, c in enumerate(cols) if c is not None)
    red = [[Fraction(ints[r].get(j, 0), ints[r][c]) for j in range(ncols)]
           for c, r in order]
    red += [[Fraction(0)] * ncols for _ in range(len(rows) - len(order))]
    return red, [c for c, _ in order]


def null_vector(a, ncols):
    """Integer y spanning the kernel of a, a matrix of ncols - 1 rows;
    None when its rank is lower, so that the kernel is no line."""
    rows = [int_row(values, 0)[0] for values in a]
    cols = _reduce_square(rows, [0] * len(rows), ncols)
    if cols is None:
        return None
    # after Gauss-Jordan row r reads p * y[c] + f * y[free] = 0
    free = min(set(range(ncols)).difference(cols))
    scale = lcm(*(rows[r][c] for r, c in enumerate(cols)))
    y = [0] * ncols
    y[free] = scale
    for r, c in enumerate(cols):
        y[c] = -rows[r].get(free, 0) * scale // rows[r][c]
    return y


def rank_factorization(rows):
    """Write the matrix as sum of outer products, W = sum col_i * row_i.

    Returns a list of (column vector, row vector) pairs of length
    rank(W).  The column vectors are actual columns of W (so they stay
    inside any subspace containing the columns), the row vectors are
    the nonzero rows of rref(W) (inside the row space).
    """
    red, pivots = rref(rows)
    return [([Fraction(r[col]) for r in rows], red[i])
            for i, col in enumerate(pivots)]
