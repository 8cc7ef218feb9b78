"""Small exact linear algebra kernel: RREF, square solves, kernels.

Rows are dicts of nonzero integer entries (int_row), and every updated
row is divided by its gcd.  Every reduction runs through one step,
add_row, which reduces a new row against the Gauss-Jordan-reduced rows
of a prefix and pivots it in; gauss_jordan folds it over a list of rows
for rref, solve_square and the ranks and image bases of d, and the
circuit walk of l1opt takes it row by row.  The simplex in l1opt runs
on eliminate and pivot, with each row's rhs scaled with it.

One exact-number rule: an integral value is an int, any other
rational a Fraction, and floats and bools are refused.  exact applies
it to a value read from outside, and every division in a producer (a
fill, an RREF, a solve, a circuit) goes through quotient, so none of
them builds an integral Fraction.  Norms, pairings and ratios
(barcomplex.l1_norm, kronecker) stay Fractions, so that dividing two
of them never gives a float.  Norms and filling checks add ints over
one lcm L of the denominators (common_denominator): l1_norm divides by
L once, and a filling check compares d(Lc) with L times its target.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def exact(v):
    """v as an exact number, by the module's one rule: an integral
    value is an int, so a Fraction whose denominator is 1 becomes its
    numerator, and any other rational a Fraction.  Anything but an int
    or a Fraction goes through Fraction, except a float, which is
    rejected, as its binary value is seldom the number meant, and a
    bool, which is a flag and not a number."""
    if isinstance(v, bool):
        raise TypeError("bool %r rejected; use 0 or 1" % (v,))
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        raise TypeError("float %r rejected; use Fraction" % (v,))
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def quotient(n, d):
    """n / d for ints n and d != 0 by exact's rule: an int when d
    divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def common_denominator(*maps):
    """(L, numerators) for dicts of exact values: L is the lcm of all
    their denominators (an int's is 1), and numerators holds each dict
    times L, with int values.  When L is 1 and every value is already
    an int the dicts are returned as they are, not copied; an integral
    Fraction, such as a sum 1/2 + 1/2, is still made an int."""
    L = lcm(*[r.denominator for m in maps for r in m.values()])
    if L == 1 and all(type(r) is int for m in maps for r in m.values()):
        return 1, maps
    return L, [{k: r.numerator * (L // r.denominator) for k, r in m.items()}
               for m in maps]


def int_row(values, b):
    """One equation values . x = b as (row, rhs, scale): values is a
    dense sequence or a {column: value} mapping, row maps column to
    nonzero integer entry, and row, rhs are the equation times scale,
    the lcm of all denominators (common_denominator), both negated when
    b < 0 so that the rhs is nonnegative."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    scale, (row, rhs) = common_denominator({j: exact(v) for j, v in items if v},
                                           {0: exact(b)})
    b = rhs[0]
    if b < 0:
        row, b = {j: -v for j, v in row.items()}, -b
    return row, b, scale


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


def add_row(rows, cols, row):
    """The Gauss-Jordan-reduced integer rows of a prefix, rows[r]
    pivoting on column cols[r], with `row` reduced against them and
    pivoted in on its first remaining column, as new lists (rows, cols);
    None when row reduces to zero.  As eliminate may update its first
    row in place, the new row and each prefix row it clears are copies,
    so the given rows stay shared, say by the frames of a walk."""
    row = dict(row)
    for prow, c in zip(rows, cols):
        if c in row:
            row, _ = eliminate(row, 0, prow, 0, c)
    if not row:
        return None
    c = min(row)
    rows = [dict(prow) if c in prow else prow for prow in rows] + [row]
    cols = cols + [None]
    pivot(rows, [0] * len(rows), cols, len(rows) - 1, c)
    return rows, cols


def gauss_jordan(rows):
    """Gauss-Jordan on integer rows, left as they are, by add_row: each
    row in turn pivots on its first column left after the rows before
    it.  Returns the reduced independent rows and the pivot column of
    each given row, None for a row that reduced to zero."""
    reduced, cols, pivots = [], [], []
    for row in rows:
        grown = add_row(reduced, cols, row)
        if grown is not None:
            reduced, cols = grown
        pivots.append(None if grown is None else cols[-1])
    return reduced, pivots


def solve_square(a, b):
    """Solve a x = b for a square list of rows a; None when singular.
    Gauss-Jordan on the rows of [a | b] leaves each as p x[c] = b', b'
    in column n, unless a is singular and a row pivots on no column of a."""
    n = len(a)
    reduced, pivots = gauss_jordan(int_row([*values, bi], 0)[0]
                                   for values, bi in zip(a, b))
    if None in pivots or n in pivots:
        return None
    x = [None] * n
    for row, c in zip(reduced, pivots):
        x[c] = quotient(row.get(n, 0), row[c])
    return x


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns).

    gauss_jordan leaves each row led by its pivot entry, cleared from
    every other row.  The RREF is unique, so those rows over their pivot
    entries, sorted by pivot column, give it; zero rows follow.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = gauss_jordan(int_row(values, 0)[0] for values in rows)
    order = sorted(zip((c for c in pivots if c is not None), reduced))
    red = [[quotient(row.get(j, 0), row[c]) for j in range(ncols)]
           for c, row in order]
    red += [[0] * ncols for _ in range(len(rows) - len(order))]
    return red, [c for c, _ in order]


def kernel_line(rows, cols, ncols):
    """Integer y spanning the kernel of ncols - 1 Gauss-Jordan-reduced
    integer rows, rows[r] pivoting on column cols[r]."""
    # row r reads p * y[c] + f * y[free] = 0
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
    return [([exact(r[col]) for r in rows], red[i])
            for i, col in enumerate(pivots)]
