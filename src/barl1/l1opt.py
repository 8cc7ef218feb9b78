"""Exact rational linear programming and l1-minimal fillings.

lp_solve is a plain two-phase primal simplex with Bland's rule
(smallest eligible variable index enters; ratio ties leave by smallest
basis index), so runs terminate and are deterministic.  Its tableau is
sparse and fraction-free: each row is a dict from column to nonzero
integer numerator, over one positive denominator that the row shares
with its rhs.  That denominator is the row's entry in its basic column,
and an updated row is divided by the gcd of its entries.  A pivot
updates only the rows holding the entering column, and only at the
pivot row's nonzeros.  Every decision (entering column, ratio test,
artificial drive-out, redundant rows dropped) is made on exact values,
so the pivots and the outputs are those of a dense Fraction tableau.
The row kernel is linalg's (int_row / eliminate / pivot), and the dual
comes from linalg.solve_square on the final basis.  No fill calls it;
it is the general LP and the reference the fill kernel is tested
against.

A filling of a boundary z of degree q is a chain c of degree q+1 with
dc = z; fill_min minimizes the l1 norm by splitting c = u - w with
u, w >= 0 and minimizing sum(u) + sum(w): the LP rows are [D | -D]
for D the boundary matrix of d_{q+1} on the group's own support.  Over
a finite group D is the one boundary_matrix(G, q+1), shared by every
fill in degree q, so only the right-hand side z differs; over a free
group it is built on word balls whose radius doubles from START_RADIUS
while it stays within MAX_RADIUS.  D's row labels place z, and its
columns are listed elements, so c needs no check.

Every fill, over a finite group or a word ball, is one run of
_l1_simplex on the same row kernel: Lemke's (1954) dual simplex from
the artificial basis, which the all-ones l1 objective makes dual
feasible (y = 0, every reduced cost 1).  So no start is solved and
nothing is kept between fills, and a certificate depends on (G, q, z)
alone, never on the order of the calls.

is_boundary runs no LP; it answers from homology.  Over a finite group
a cycle of degree >= 1 is a boundary, as H_q(G; Q) = 0 (transfer).  A
free group F has cohomological dimension 1, so H_q(F; Q) = 0 for
q >= 2, and H_1(F; Q) = F_ab (x) Q = Q^rank through exponent sums: a
degree-1 chain over F is a boundary exactly when the coefficient-
weighted exponent sums of its words all vanish.

Certificates re-check themselves by verify(), with no LP; fill and
pipeline ones share filling_failures.  FillCertificate._derived_support
alone derives a fill's support descriptor: fill_min records it, and
verify compares a record's descriptor with it.

ubc_kappa_exact maximizes the filling ratio over the circuits
(elementary vectors) of the boundary subspace, which circuits lists by
linear algebra alone for UbcConstant.verify: on the pivot columns of
the sparse d, one depth-first walk over the row subsets adds each row to
its prefix by linalg.add_row, cuts the subtree of a dependent prefix and
skips a subset whose circuit it has found already.  Past its subset
budget ENUM_BUDGET kappa is bracketed by SAMPLES sampled circuits, each
reduced by the same step, below and by 1 above: over a finite group the
averaged cone s(z) = (-1)^(q+1)/|G| sum_k sum_t z_t (t, k) has
ds(z) = z and |s(z)|_1 = |z|_1 for every degree-q cycle z, q >= 1
(Brown, Cohomology of Groups, I.5).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from . import linalg
from .barcomplex import (Chain, SizeCapError, boundary,
                         boundary_matrix, boundary_over, check_size, is_cycle,
                         l1_norm, sum_terms)
from .groups import FreeGroup


class Infeasible(Exception):
    """The linear system has no nonnegative solution."""


class SupportExhausted(Exception):
    """z is a boundary, but no word ball up to MAX_RADIUS holds a
    filling of it."""


_ONE = -1  # the cost row's key of the constant 1, its scale
START_RADIUS = 3  # the first word ball a free-group filling is sought on
MAX_RADIUS = 12  # radius past which the doubling word balls stop


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  subject to  rows . x = rhs, x >= 0.

    A row is a dense sequence of one entry per column, or a mapping
    {column: value} of its nonzero entries."""

    rows: tuple
    rhs: tuple
    objective: tuple

    def __post_init__(self):
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise ValueError("row count %d does not match rhs length %d"
                             % (len(self.rows), len(self.rhs)))
        for r in self.rows:
            if (any(not 0 <= j < n for j in r) if isinstance(r, dict)
                    else len(r) != n):
                raise ValueError("row %r does not fit %d columns" % (r, n))

    def __hash__(self):
        return hash((tuple(frozenset(r.items()) if isinstance(r, dict) else r
                           for r in self.rows), self.rhs, self.objective))


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None = None
    objective: Fraction | None = None
    dual: list | None = None


def _price_out(cost, rows, rhs, basis):
    """Reduced costs of the cost row against the current basis."""
    for i, bi in enumerate(basis):
        if bi in cost:
            cost, _ = linalg.eliminate(cost, 0, rows[i], rhs[i], bi)
    return cost


def _optimize(rows, rhs, cost, basis):
    """Primal simplex by Bland's rule; the status."""
    while True:
        enter = min((j for j, v in cost.items() if v < 0), default=None)
        if enter is None:
            return "optimal"
        # ratio test: rhs[i] / rows[i][enter] needs no denominator, as
        # a row and its rhs share one; compare by cross-multiplying
        leave = None
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                if leave is None:
                    leave, lb, la = i, rhs[i], a
                    continue
                d = rhs[i] * la - lb * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave, lb, la = i, rhs[i], a
        if leave is None:
            return "unbounded"
        linalg.pivot(rows, rhs, basis, leave, enter)
        cost, _ = linalg.eliminate(cost, 0, rows[leave], rhs[leave], enter)


def lp_solve(prob: LpProblem) -> LpResult:
    m = len(prob.rows)
    n = len(prob.objective)
    c = [linalg.exact(v) for v in prob.objective]
    if m == 0:
        if any(v < 0 for v in c):
            return LpResult("unbounded")
        return LpResult("optimal", [0] * n, Fraction(0), [])

    # phase 1: artificial basis, minimize its total.  Artificial i is
    # column n + i; its entry in row i is the row's denominator.
    given = [r if isinstance(r, dict) else dict(enumerate(r)) for r in prob.rows]
    rows, rhs = [], []
    for i, (r, b) in enumerate(zip(given, prob.rhs)):
        row, bi, den = linalg.int_row(r, b)
        row[n + i] = den
        rows.append(row)
        rhs.append(bi)
    basis = [n + i for i in range(m)]
    cost = _price_out({n + i: 1 for i in range(m)}, rows, rhs, basis)
    _optimize(rows, rhs, cost, basis)
    if any(rhs[i] > 0 for i in range(m) if basis[i] >= n):
        return LpResult("infeasible")

    # drive leftover artificial basics out; a row left with no original
    # column is redundant and is dropped
    rowmap = list(range(m))
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            piv = min((j for j in rows[i] if j < n), default=None)
            if piv is None:
                del rows[i], rhs[i], basis[i], rowmap[i]
                continue
            linalg.pivot(rows, rhs, basis, i, piv)
        i += 1

    # phase 2 on the original columns alone
    rows = [{j: v for j, v in row.items() if j < n} for row in rows]
    cost, _, _ = linalg.int_row(c, 0)
    if _optimize(rows, rhs, _price_out(cost, rows, rhs, basis),
                 basis) == "unbounded":
        return LpResult("unbounded")
    x = [0] * n
    for i, bi in enumerate(basis):
        # a basic column is a unit column scaled by the row's denominator
        x[bi] = linalg.quotient(rhs[i], rows[i][bi])
    objective = sum((c[bi] * x[bi] for bi in basis), Fraction(0))

    # dual vector from the final basis, solved on the caller's own rows
    # (so in the caller's sign frame), padded with 0 on dropped rows
    dual = [0] * m
    if basis:
        bt = [[given[i].get(bk, 0) for i in rowmap] for bk in basis]
        y = linalg.solve_square(bt, [c[bk] for bk in basis])
        if y is not None:
            for i, yi in zip(rowmap, y):
                dual[i] = yi
    return LpResult("optimal", x, objective, dual)


def filling_failures(c: Chain, target: Chain, z: Chain, ratio) -> list[str]:
    """Failed checks of dc = target and ratio = |c|/|z|, or c = 0 and
    ratio = 0 when z = 0; a fill's target is z itself."""
    failures = []
    # d(Lc) = L target over the joint lcm L of the denominators, in ints
    _, (cn, tn) = linalg.common_denominator(c.coeffs, target.coeffs)
    if boundary(c._like(cn)) != target._like(tn):
        failures.append("boundary mismatch: d(c) != target")
    nz = l1_norm(z)
    if nz == 0:
        if not c.is_zero():
            failures.append("nonzero filling of z = 0")
        if ratio != 0:
            failures.append("ratio of the zero filling must be 0")
    elif ratio != l1_norm(c) / nz:
        failures.append("ratio mismatch")
    return failures


@dataclass
class FillCertificate:
    """Self-contained witness that c fills z: dc = z with the stated ratio."""

    z: Chain
    c: Chain
    ratio: Fraction
    support: dict = field(default_factory=dict)
    method: str = "simplex-bland"

    def verify(self) -> list[str]:
        """Re-check with chain arithmetic only; returns failed check names."""
        if self.c.degree != self.z.degree + 1:
            return ["degree mismatch between primitive and boundary"]
        failures = filling_failures(self.c, self.z, self.z, self.ratio)
        if self.method != "simplex-bland":
            failures.append("unknown fill method %r" % (self.method,))
        if self.support != self._derived_support():
            failures.append("support is not the one fill_min gives z")
        return failures

    def _derived_support(self):
        """The support descriptor fill_min records and verify expects,
        derived from z, c and the group: empty for z = 0, the |G|^(q+1)
        tuples of a finite group, else the first word ball of _radii that
        holds every tuple of c (fill_min stops at the first ball that
        holds a filling); None when no support can match."""
        G, n = self.z.group, self.z.degree + 1
        if self.z.is_zero():
            return {"kind": "empty"}
        if G.is_finite():
            return {"kind": "full", "size": G.order() ** n}
        if not isinstance(G, FreeGroup):
            return None
        longest = max((len(g) for t in self.c.coeffs for g in t), default=0)
        radius = next((r for r in _radii() if r >= longest), None)
        if radius is None:
            return None
        if G.rank == 1:
            ball = 2 * radius + 1
        else:
            ball = 1 + G.rank * ((2 * G.rank - 1) ** radius - 1) // (G.rank - 1)
        return {"kind": "ball", "radius": radius, "size": ball ** n}


def _radii():
    """The word-ball radii a free-group filling is sought on, in turn:
    START_RADIUS, then doubled while it stays within MAX_RADIUS
    (START_RADIUS itself is always tried)."""
    radius = START_RADIUS
    while True:
        yield radius
        if 2 * radius > MAX_RADIUS:
            return
        radius *= 2


def _supports(G, degree):
    """The boundary matrices of degree `degree` a filling is sought
    over, in turn: boundary_matrix of a finite group once, else
    boundary_over the word balls of a free group with the radii of
    _radii.  Each passes check_size first, which refuses any other
    infinite group."""
    if G.is_finite() or not isinstance(G, FreeGroup):
        yield boundary_matrix(G, degree)
        return
    for radius in _radii():
        ball = G.ball(radius)
        check_size(len(ball), degree)
        yield boundary_over(G, degree, itertools.product(ball, repeat=degree))


def _l1_simplex(d, b):
    """The optimal basic solution of the l1 program [D | -D] x = b,
    x >= 0, min sum(x), for D the boundary matrix d (column j is u_j,
    column S + j is w_j) and b a list of integers, one per row of d:
    (rows, rhs, basis), where row i is the u half of its tableau row,
    over the positive denominator of its basic column (rows[i][j] for a
    basic u_j, -rows[i][j] for a basic w_j) shared with rhs[i].  None
    when no x >= 0 solves the system.

    Lemke's dual simplex from the artificial basis, artificial i being
    column 2S + i: y = 0 there, so every reduced cost is 1 and the basis
    is dual feasible from the start.  An artificial is fixed at 0, so it
    leaves and never enters.  The tableau stores only the u half of
    B^-1 [D | -D], as the w half is its negative; the cost row holds
    the reduced costs of the u_j over its scale sigma (its entry at
    _ONE, which no tableau row holds), and w_j's is 2 sigma - cost(u_j).
    The artificial columns are not stored either: updated like the
    others, the final cost row would hold -y in them, the LP dual.

    One fixed pivot rule.  The leaving row is a basic artificial with a
    nonzero value, the one of largest row index, while there is one;
    else the basic structural column of smallest index with a negative
    value.  A positive artificial leaves as a negative one of its
    negated row.  The entering column has the least ratio of reduced
    cost to |entry| over the leaving row's entries of the sign of its
    value, one of u_j and w_j for each nonzero row[j], ties to the
    smallest column (u_j = j, then w_j = S + j).  A leaving row with no
    nonzero entry is a left null vector of D that b does not annihilate,
    so b is not in D's column space; it can only be an artificial's, as
    a basic column has a nonzero entry in its own row.

    It terminates.  An artificial that leaves never returns, so there
    are at most len(b) artificial pivots.  Between two of them, and
    after the last, every basic artificial stays at 0 and every pivot
    is a dual simplex pivot by Bland's rule (smallest leaving index,
    least ratio with ties to the smallest index), which does not cycle
    (Bland 1977, applied to the dual).
    """
    S = len(d.cols)
    rows = [dict(row) for row in d.entries]
    rhs = list(b)
    basis = [2 * S + i for i in range(len(rows))]
    cost = dict.fromkeys(range(S), 1)
    cost[_ONE] = 1
    while True:
        r = max((i for i, v in enumerate(rhs) if v and basis[i] >= 2 * S),
                default=None)
        if r is None:
            r = min((i for i, v in enumerate(rhs) if v < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return rows, rhs, basis
        # each entry a of the row gives one candidate, the one of u_j
        # (entry a) and w_j (entry -a) whose entry has the sign of rhs[r]
        enter = None
        for j, a in rows[r].items():
            if (a > 0) == (rhs[r] > 0):
                k, rc = j, cost.get(j, 0)
            else:
                k, rc = S + j, 2 * cost[_ONE] - cost.get(j, 0)
            a = abs(a)
            if enter is None or rc * ea < ec * a or (
                    rc * ea == ec * a and k < enter):
                enter, ec, ea = k, rc, a
        if enter is None:
            return None
        # the entering column's value rhs[r] / row[j] is positive, so
        # the pivot row's rhs ends positive
        if rhs[r] < 0:
            rows[r] = {j: -v for j, v in rows[r].items()}
            rhs[r] = -rhs[r]
        j = enter % S
        prow, pb = rows[r], rhs[r]
        if enter >= S:
            # w_j's column is -row: eliminate by the row of positive entry
            prow, pb = {c: -v for c, v in prow.items()}, -pb
        for i, row in enumerate(rows):
            if i != r and j in row:
                rows[i], rhs[i] = linalg.eliminate(row, rhs[i], prow, pb, j)
        if enter < S:
            if j in cost:
                cost, _ = linalg.eliminate(cost, 0, prow, 0, j)
        elif ec:
            # cost -= ec / (-row[j]) * row, as u_j's column is -prow
            cost, _ = linalg.eliminate({**cost, j: -ec}, 0, prow, 0, j)
            cost[j] = 2 * cost[_ONE]
        basis[r] = enter


def _solve_fill(z: Chain, d):
    """An l1-minimal filling of z over the columns of the boundary
    matrix d by _l1_simplex, or None when there is none.  A term of z
    on no row of d has no filling there, so it needs no LP."""
    if any(tup not in d.rows for tup in z.coeffs):
        return None
    scale, (zn,) = linalg.common_denominator(z.coeffs)
    b = [0] * len(d.rows)
    for tup, r in zn.items():
        b[d.rows[tup]] = r
    solved = _l1_simplex(d, b)
    if solved is None:
        return None
    rows, rhs, basis = solved
    S = len(d.cols)
    # c_j = u_j - w_j = rhs / rows[i][j] either way, over the scale of b
    return Chain._of(z.group, z.degree + 1, sum_terms(
        (d.cols[k % S], linalg.quotient(v, rows[i][k % S] * scale))
        for i, (k, v) in enumerate(zip(basis, rhs)) if v))


def fill_min(z: Chain) -> FillCertificate:
    """l1-minimal c with dc = z, by exact LP over the group's support,
    as a certificate that has passed its verify().

    Finite groups use the full tuple support; free groups grow a
    word-ball support, doubling the radius from START_RADIUS on
    infeasibility up to MAX_RADIUS, once is_boundary has found z a
    boundary (else Infeasible, with no ball built); SupportExhausted
    when no ball fills it.  Over a finite group an infeasible LP is
    Infeasible.  A failed verify() is a solver bug: AssertionError names
    the checks.
    """
    q = z.degree
    if q < 1:
        raise ValueError("fillings are defined for boundaries of degree >= 1")
    G = z.group
    free = isinstance(G, FreeGroup) and not G.is_finite()
    if free and not is_boundary(z):
        raise Infeasible("z is not a boundary")
    if z.is_zero():
        cert = FillCertificate(z, Chain.zero(G, q + 1), Fraction(0))
    else:
        for d in _supports(G, q + 1):
            c = _solve_fill(z, d)
            if c is not None:
                break
        else:
            if free:
                raise SupportExhausted("no filling over word balls up to "
                                       "radius %d" % max(_radii()))
            raise Infeasible("z is not a boundary")
        cert = FillCertificate(z, c, l1_norm(c) / l1_norm(z))
    cert.support = cert._derived_support()
    failures = cert.verify()
    if failures:
        raise AssertionError("solver returned a certificate that fails %s; "
                             "this is a bug" % "; ".join(failures))
    return cert


def is_boundary(z: Chain) -> bool:
    """Whether z is a boundary, from homology and without an LP.

    Over a finite group a chain of degree >= 1 is a boundary exactly
    when it is a cycle, since H_q(G; Q) = 0 for q >= 1 (transfer;
    Brown, Cohomology of Groups, III.10).  A free group has
    cohomological dimension 1, so there the same holds in degree >= 2,
    and in degree 1, where every chain is a cycle and H_1(F; Q) = Q^rank,
    z is a boundary exactly when the exponent sums of its words,
    weighted by their coefficients, all vanish.  Other infinite groups
    raise SizeCapError.
    """
    if z.is_zero():
        return True
    if z.degree == 0:
        return False
    G = z.group
    if G.is_finite() or (isinstance(G, FreeGroup) and z.degree >= 2):
        return is_cycle(z)
    if not isinstance(G, FreeGroup):
        raise SizeCapError("no boundary test for %s" % G.backend)
    sums = [Fraction(0)] * (G.rank + 1)
    for (word,), r in z.coeffs.items():
        for x in word:
            sums[abs(x)] += r if x > 0 else -r
    return not any(sums)


@dataclass
class UbcConstant:
    """kappa(G, q): worst l1-minimal filling ratio over degree-q boundaries."""

    degree: int
    kappa: Fraction | None
    lower: Fraction
    upper: Fraction | None
    method: str
    certificates: list = field(default_factory=list)

    def verify(self, G) -> list[str]:
        """Re-check over G without an LP; returns failed check names.
        lower is the best vertex ratio and upper the bound the method
        proves: kappa for vertex-enumeration, else the cone bound 1 of a
        finite group in degree >= 1, above which no fill is minimal."""
        failures = []
        q, certs = self.degree, self.certificates
        cone = q >= 1 and G.is_finite()
        for i, cert in enumerate(certs):
            failures.extend("vertex %d: %s" % (i, f) for f in cert.verify())
            if cone and cert.ratio > 1:
                failures.append("vertex %d: ratio above the cone bound 1" % i)
        if max((c.ratio for c in certs), default=Fraction(0)) != self.lower:
            failures.append("stated lower bound is not the best stored ratio")
        proved = None
        if self.method == "vertex-enumeration":
            proved = self.kappa
        elif self.method in ("sampled", "cone-bound") and cone:
            proved = Fraction(1)
        if self.upper != proved:
            failures.append("stated upper bound is not the one its method proves")
        if self.kappa is not None:
            if self.method not in ("vertex-enumeration", "cone-bound"):
                failures.append("exact kappa stated for a non-exact method")
            elif self.kappa != self.lower or self.kappa != self.upper:
                failures.append("exact kappa does not match its witness ratio")
        if self.method == "vertex-enumeration":
            failures.extend(_vertex_set_failures(circuits(G, q), G, q,
                                                 [c.z for c in certs]))
        return failures


def _vertex_set_failures(expected, G, q, zs) -> list[str]:
    """Vertex boundaries zs that are not the circuits of im d, each once,
    as circuits lists them again (expected; None past its budget)."""
    if expected is None:
        return ["too many circuits to re-enumerate; completeness unchecked"]
    want = {frozenset(c.coeffs.items()) for c in expected}
    got = [frozenset(z.coeffs.items()) for z in zs
           if z.group == G and z.degree == q]
    failures = []
    if len(zs) > len(got):
        failures.append("%d vertices over another group or degree"
                        % (len(zs) - len(got)))
    missing = len(want.difference(got))
    extra = len(got) - len(want.intersection(got))
    if missing:
        failures.append("%d circuits of im d missing from the vertices" % missing)
    if extra:
        failures.append("%d vertices are not distinct circuits of im d" % extra)
    return failures


ENUM_BUDGET = 200_000  # (d-1)-subsets the circuit enumeration may visit
SAMPLES = 100  # random row subsets of the sampled bracket past ENUM_BUDGET


def _image_basis(G, q):
    """The row labels of boundary_matrix(G, q+1), N degree-q tuples, and
    the N x d integer matrix of its pivot columns, a basis of im d."""
    d = boundary_matrix(G, q + 1)
    pivots = sorted(set(linalg.gauss_jordan(d.entries)[1]) - {None})
    return d.rows, [[row.get(j, 0) for j in pivots] for row in d.entries]


def _row_chain(G, q, rows, x):
    """The degree-q chain with coefficient x[i] on the i-th of rows."""
    return Chain._of(G, q, sum_terms(zip(rows, x)))


def _circuit(vrows, rows, cols):
    """The elementary vector x = V y of the column space of the N x d
    matrix V = vrows (rank d) that vanishes on d-1 of its rows, with y
    the kernel line of those rows, Gauss-Jordan-reduced to (rows, cols)
    by linalg.add_row, as integers with gcd 1 and first nonzero entry
    positive.  Any x' = V y' with support inside that of x has y' in the
    same kernel, so x is elementary; conversely the zero set of an
    elementary vector holds d-1 rows of rank d-1 (Rockafellar 1969).
    _circuits walks every such row subset; the sampled bracket of
    ubc_kappa_exact draws them at random."""
    y = linalg.kernel_line(rows, cols, len(vrows[0]))
    x = [sum(v * w for v, w in zip(row, y)) for row in vrows]
    g = gcd(*x) if next(v for v in x if v) > 0 else -gcd(*x)
    return tuple(v // g for v in x)


def _circuits(vrows):
    """Every _circuit of vrows, scaled to |x|_1 = 1 and sorted; None
    when the C(N, d-1) row subsets exceed ENUM_BUDGET.

    One depth-first walk over the row subsets in lexicographic order,
    on an explicit stack, as its depth d-1 can pass the recursion limit.
    Each frame keeps the Gauss-Jordan-reduced rows of its prefix, and
    linalg.add_row reduces a new row against them alone.  A row that
    reduces to zero cuts its subtree, where every subset has rank below
    d-1.  A leaf whose rows lie in the zero set of a circuit already
    found is skipped, as its kernel line gives that circuit; any other
    leaf gives the circuit of its kernel line.
    """
    N, d = len(vrows), len(vrows[0])
    if d == 0:
        return []
    if comb(N, d - 1) > ENUM_BUDGET:
        return None
    ints = [linalg.int_row(row, 0)[0] for row in vrows]
    zeros = {}  # circuit -> bitmask of the rows where it vanishes
    # a frame: the prefix's reduced rows, their pivot columns, the
    # prefix as a bitmask, and the next row to add to it
    stack = [([], [], 0, 0)]
    while stack:
        rows, cols, mask, i = stack.pop()
        k = len(rows)
        if k == d - 1:
            x = _circuit(vrows, rows, cols)
            zeros[x] = sum(1 << j for j, v in enumerate(x) if not v)
            continue
        if N - i < d - 1 - k:
            continue  # too few rows left to fill the subset
        stack.append((rows, cols, mask, i + 1))
        grown = mask | 1 << i
        if k == d - 2 and any(grown & z == grown for z in zeros.values()):
            continue  # a leaf whose circuit is known
        prefix = linalg.add_row(rows, cols, ints[i])
        if prefix is not None:  # else a dependent prefix, with no circuit
            stack.append((*prefix, grown, i + 1))
    return sorted(tuple(linalg.quotient(v, sum(map(abs, x))) for v in x)
                  for x in zeros)


def circuits(G, q):
    """The circuits of im d_{q+1} as degree-q chains of l1 norm 1, one
    per antipodal pair of vertices +-z of {z in im d_{q+1} : |z|_1 <= 1}
    (the one whose first nonzero coefficient is positive), in the order
    ubc_kappa_exact fills them; None past ENUM_BUDGET.  Linear algebra
    only, so a checker can list them without an LP."""
    rows, vrows = _image_basis(G, q)
    verts = _circuits(vrows)
    return None if verts is None else [_row_chain(G, q, rows, x) for x in verts]


def ubc_kappa_exact(G, q, rng=None) -> UbcConstant:
    """kappa(G, q), the largest l1-minimal filling ratio of a degree-q
    boundary.

    The minimal filling norm is convex on {z in im d : |z|_1 <= 1} and
    even, so it peaks at a vertex, and the vertices are the circuits of
    im d scaled to |z|_1 = 1, in antipodal pairs.  With d = rank d_{q+1}
    over N degree-q tuples, the rank d-1 subsets among the C(N, d-1) row
    subsets of the pivot columns of d give them, by the walk of
    _circuits, and one of each pair is filled exactly
    ("vertex-enumeration"; kappa = 0 with no vertex when d = 0).
    Past ENUM_BUDGET subsets the lower bound is the best ratio over the
    circuits of SAMPLES random row subsets (repeats skipped) and the
    upper bound is 1, the averaged cone's (module docstring): exact
    ("cone-bound") once the lower bound reaches 1, else the bracket
    [lower, 1] ("sampled").  fill_min verifies each vertex fill.
    """
    rows, vrows = _image_basis(G, q)
    verts = _circuits(vrows)
    if verts is not None:
        certs = [fill_min(_row_chain(G, q, rows, x)) for x in verts]
        kappa = max((cert.ratio for cert in certs), default=Fraction(0))
        return UbcConstant(q, kappa, kappa, kappa, "vertex-enumeration",
                           certs)

    rng = rng or random.Random(0)
    lower = Fraction(0)
    certs = []
    seen = set()
    for _ in range(SAMPLES):
        red, cols = linalg.gauss_jordan(
            linalg.int_row(vrows[i], 0)[0]
            for i in rng.sample(range(len(vrows)), len(vrows[0]) - 1))
        x = None if None in cols else _circuit(vrows, red, cols)
        if x is None or x in seen:
            continue
        seen.add(x)
        cert = fill_min(_row_chain(G, q, rows, x))
        certs.append(cert)
        lower = max(lower, cert.ratio)
        if lower == 1:
            return UbcConstant(q, lower, lower, lower, "cone-bound", certs)
    return UbcConstant(q, None, lower, Fraction(1), "sampled", certs)
