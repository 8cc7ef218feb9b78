"""Exact rational linear programming and l1-minimal fillings.

The solver is a two-phase simplex with Bland's rule (smallest eligible
variable index enters; ratio ties leave by smallest basis index), so
runs terminate and are deterministic.  Its tableau is sparse and
fraction-free: each row is a dict from column to nonzero integer
numerator, over one positive denominator that the row shares with its
rhs.  That denominator is the row's entry in its basic column, and an
updated row is divided by the gcd of its entries.  A pivot updates only
the rows holding the entering column, and only at the pivot row's
nonzeros.  Every decision (entering column, ratio test, artificial
drive-out, dropped redundant rows) is made on exact values, so the
pivots and the outputs are those of a dense Fraction tableau.  The row
kernel is linalg's (int_row / eliminate / pivot), and the dual comes
from linalg.solve_square on the final basis.

A filling of a boundary z of degree q is a chain c of degree q+1 with
dc = z; fill_min minimizes the l1 norm by splitting c = u - w with
u, w >= 0 and minimizing sum(u) + sum(w), on sparse {column: value}
LP rows.  The columns are the group's own support, every (q+1)-tuple
of a finite group or word balls of doubling radius in a free group, so
the filling is built from listed elements without a membership check.
A finite group's full support is barcomplex.tuple_basis, which holds
the size-cap check.

is_boundary runs no LP; it answers from homology.  Over a finite group
a cycle of degree >= 1 is a boundary, as H_q(G; Q) = 0 (transfer).  A
free group F has cohomological dimension 1, so H_q(F; Q) = 0 for
q >= 2, and H_1(F; Q) = F_ab (x) Q = Q^rank through exponent sums: a
degree-1 chain over F is a boundary exactly when the coefficient-
weighted exponent sums of its words all vanish.

ubc_kappa_exact maximizes the filling ratio over the circuits
(elementary vectors) of the boundary subspace, which circuits lists by
linear algebra alone for the checker in fileio.  Past its subset budget
kappa is bracketed by sampled circuits below and by 1 above: over a
finite group the averaged cone s(z) = (-1)^(q+1)/|G| sum_k sum_t
z_t (t, k) has ds(z) = z and |s(z)|_1 = |z|_1 for every degree-q
cycle z, q >= 1 (Brown, Cohomology of Groups, I.5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from . import linalg
from .barcomplex import (Chain, DEFAULT_SIZE_CAP, SizeCapError, boundary,
                         boundary_matrix, chain_from_vector, is_cycle,
                         l1_norm, push_chain, sum_terms, tuple_basis,
                         tuple_boundary)
from .groups import FreeGroup


class Infeasible(Exception):
    """The linear system has no nonnegative solution."""


class Unbounded(Exception):
    """The objective is unbounded below on the feasible set."""


class SupportExhausted(Exception):
    """Support growth hit its cap without reaching feasibility."""


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
        return LpResult("optimal", [Fraction(0)] * n, Fraction(0), [])

    # phase 1: artificial basis, minimize its total.  Artificial i is
    # column n + i; its entry in row i is the row's denominator.
    given = [r if isinstance(r, dict) else dict(enumerate(r)) for r in prob.rows]
    rows, rhs = [], []
    for i, (r, b) in enumerate(zip(given, prob.rhs)):
        row, b, den = linalg.int_row(r, b)
        row[n + i] = den
        rows.append(row)
        rhs.append(b)
    basis = [n + i for i in range(m)]
    cost = _price_out({n + i: 1 for i in range(m)}, rows, rhs, basis)
    _optimize(rows, rhs, cost, basis)
    if any(rhs[i] > 0 for i in range(m) if basis[i] >= n):
        return LpResult("infeasible")

    # drive leftover artificial basics out, drop redundant rows
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

    # phase 2 on the original columns
    rows = [{j: v for j, v in row.items() if j < n} for row in rows]
    cost, _, _ = linalg.int_row(c, 0)
    status = _optimize(rows, rhs, _price_out(cost, rows, rhs, basis), basis)
    if status == "unbounded":
        return LpResult("unbounded")
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        # a basic column is a unit column scaled by the row's denominator
        x[bi] = Fraction(rhs[i], rows[i][bi])
    objective = sum((c[bi] * x[bi] for bi in basis), Fraction(0))

    # dual vector from the final basis, solved on the caller's own rows
    # (so in the caller's sign frame), padded with 0 on dropped rows
    dual = [Fraction(0)] * m
    if basis:
        bt = [[given[i].get(bk, 0) for i in rowmap] for bk in basis]
        y = linalg.solve_square(bt, [c[bk] for bk in basis])
        if y is not None:
            for i, yi in zip(rowmap, y):
                dual[i] = yi
    return LpResult("optimal", x, objective, dual)


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
        failures = []
        if self.c.degree != self.z.degree + 1:
            failures.append("degree mismatch between primitive and boundary")
            return failures
        if boundary(self.c) != self.z:
            failures.append("boundary mismatch: d(c) != z")
        nz = l1_norm(self.z)
        if nz == 0:
            if not self.c.is_zero():
                failures.append("zero boundary with nonzero primitive")
            if self.ratio != 0:
                failures.append("ratio of the zero filling must be 0")
        elif self.ratio != l1_norm(self.c) / nz:
            failures.append("ratio mismatch: |c|/|z| differs from stated ratio")
        if self.method != "simplex-bland":
            failures.append("unknown fill method %r" % (self.method,))
        if self.support != self._derived_support():
            failures.append("support is not the one fill_min gives z")
        return failures

    def _derived_support(self):
        """The support descriptor fill_min records, derived from z and
        the group: empty for z = 0, the |G|^(q+1) tuples of a finite
        group, else a word ball of the stated radius holding every tuple
        of c; None when no support can match."""
        G, n = self.z.group, self.z.degree + 1
        if self.z.is_zero():
            return {"kind": "empty"}
        if G.is_finite():
            return {"kind": "full", "size": G.order() ** n}
        stated = self.support if isinstance(self.support, dict) else {}
        radius, size = stated.get("radius"), stated.get("size")
        if (not isinstance(G, FreeGroup) or type(radius) is not int
                or type(size) is not int or radius < 0
                or any(len(g) > radius for t in self.c.coeffs for g in t)):
            return None
        if G.rank == 1:
            ball = 2 * radius + 1
        elif radius > size.bit_length():
            return None  # |ball| >= 3^radius cannot have `size` elements
        else:
            ball = 1 + G.rank * ((2 * G.rank - 1) ** radius - 1) // (G.rank - 1)
        return {"kind": "ball", "radius": radius, "size": ball ** n}


def _supports(G, degree, cap, start_radius, max_radius):
    """The supports a filling of degree `degree` is sought over, in turn.

    Yields (support list, description) pairs: the full support of a
    finite group once, else word balls of a free group with the radius
    doubling from start_radius while it stays within max_radius
    (start_radius itself is always tried).  Any other group has no
    support.  Every tuple comes from G.elements() or G.ball(), so the
    fillings built over them are valid chains without a check.
    """
    if G.is_finite():
        support = tuple_basis(G, degree, cap)
        yield support, {"kind": "full", "size": len(support)}
    elif isinstance(G, FreeGroup):
        radius = start_radius
        while True:
            ball = G.ball(radius)
            if len(ball) ** degree > cap:
                raise SizeCapError("ball support size %d exceeds cap %d"
                                   % (len(ball) ** degree, cap))
            support = list(itertools.product(ball, repeat=degree))
            yield support, {"kind": "ball", "radius": radius,
                            "size": len(support)}
            if 2 * radius > max_radius:
                return
            radius *= 2
    else:
        raise SizeCapError("no support policy for %s" % G.backend)


def _solve_fill(z: Chain, support):
    """An l1-minimal filling of z over support, or None when there is
    none."""
    G = z.group
    q = z.degree
    row_index = {}
    rows_of_col = []
    for tup in support:
        faces = list(tuple_boundary(G, tup))
        for face, _ in faces:
            row_index.setdefault(face, len(row_index))
        rows_of_col.append(sum_terms((row_index[f], s) for f, s in faces))
    for tup, _ in z.terms():
        if tup not in row_index:
            row_index[tup] = len(row_index)
    m = len(row_index)
    S = len(support)
    # sparse rows: column j is u_j, column S + j is w_j
    a = [{} for _ in range(m)]
    for j, col in enumerate(rows_of_col):
        for r, v in col.items():
            a[r][j] = v
            a[r][S + j] = -v
    b = [Fraction(0)] * m
    for tup, r in z.coeffs.items():
        b[row_index[tup]] = r
    res = lp_solve(LpProblem(tuple(a), tuple(b), (Fraction(1),) * (2 * S)))
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise Unbounded("filling program cannot be unbounded; solver bug")
    x = res.x
    return Chain._of(G, q + 1, sum_terms(
        (tup, x[j] - x[S + j]) for j, tup in enumerate(support)))


def fill_min(z: Chain, cap=DEFAULT_SIZE_CAP,
             start_radius=3, max_radius=12) -> FillCertificate:
    """l1-minimal c with dc = z, by exact LP over the group's support.

    Finite groups use the full tuple support; free groups grow a
    word-ball support, doubling the radius on infeasibility up to
    max_radius.  Raises Infeasible / SupportExhausted when z is not a
    boundary over the admissible support.
    """
    q = z.degree
    if q < 1:
        raise ValueError("fillings are defined for boundaries of degree >= 1")
    G = z.group
    if z.is_zero():
        return FillCertificate(z, Chain.zero(G, q + 1), Fraction(0),
                               {"kind": "empty"})
    for sup, descr in _supports(G, q + 1, cap, start_radius, max_radius):
        c = _solve_fill(z, sup)
        if c is not None:
            break
    else:
        if descr["kind"] == "ball":
            raise SupportExhausted("no filling over word balls up to radius %d"
                                   % descr["radius"])
        raise Infeasible("z is not a boundary")
    if boundary(c) != z:
        raise AssertionError("solver returned a non-filling; this is a bug")
    ratio = l1_norm(c) / l1_norm(z)
    return FillCertificate(z, c, ratio, descr)


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


def section_on(zs, h, **fill_kw):
    """Minimal fillings of push_chain(h, z) for each boundary z.

    Returns (certificates, kappa) where kappa is the batch maximum
    ratio, the empirical norm of a section of h on these boundaries.
    """
    certs = []
    kappa = Fraction(0)
    for z in zs:
        w = push_chain(h, z)
        cert = fill_min(w, **fill_kw)
        certs.append(cert)
        if cert.ratio > kappa:
            kappa = cert.ratio
    return certs, kappa


@dataclass
class UbcConstant:
    """kappa(G, q): worst l1-minimal filling ratio over degree-q boundaries."""

    degree: int
    kappa: Fraction | None
    lower: Fraction
    upper: Fraction | None
    method: str
    certificates: list = field(default_factory=list)
    strategy: str = ""


ENUM_BUDGET = 200_000  # (d-1)-subsets the circuit enumeration may visit


def _image_basis(G, q, cap):
    """The N x d integer matrix of the pivot columns of d_{q+1}: a basis
    of im d over the N degree-q tuples, one row per tuple."""
    dense = boundary_matrix(G, q + 1, cap=cap).dense_rows()
    _, pivots = linalg.rref(dense)
    return [[row[j] for j in pivots] for row in dense]


def _circuit(vrows, R):
    """The elementary vector x = V y of the column space of the N x d
    matrix V = vrows (rank d) that vanishes on the d-1 rows R, with y
    their kernel line, as integers with gcd 1 and first nonzero entry
    positive; None when the rows R have rank below d-1.  Any x' = V y'
    with support inside that of x has y' in the same kernel, so x is
    elementary; conversely the zero set of an elementary vector holds
    such an R (Rockafellar 1969)."""
    y = linalg.null_vector([vrows[i] for i in R], len(vrows[0]))
    if y is None:
        return None
    x = [sum(v * w for v, w in zip(row, y)) for row in vrows]
    g = gcd(*x) if next(v for v in x if v) > 0 else -gcd(*x)
    return tuple(v // g for v in x)


def _circuits(vrows, budget):
    """Every _circuit of vrows, scaled to |x|_1 = 1 and sorted; None
    when the C(N, d-1) row subsets exceed budget."""
    N, d = len(vrows), len(vrows[0])
    if d == 0:
        return []
    if comb(N, d - 1) > budget:
        return None
    seen = {_circuit(vrows, R) for R in itertools.combinations(range(N), d - 1)}
    seen.discard(None)
    return sorted(tuple(Fraction(v, sum(map(abs, x))) for v in x) for x in seen)


def circuits(G, q):
    """The vertices of {z in im d_{q+1} : |z|_1 <= 1} as degree-q chains,
    in the order ubc_kappa_exact fills them at its default cap and
    budget; None past the budget.  Linear algebra only, so a checker
    can list them without an LP."""
    verts = _circuits(_image_basis(G, q, DEFAULT_SIZE_CAP), ENUM_BUDGET)
    return None if verts is None else [chain_from_vector(G, q, x) for x in verts]


def ubc_kappa_exact(G, q, cap=DEFAULT_SIZE_CAP, enum_budget=ENUM_BUDGET,
                    samples=100, rng=None) -> UbcConstant:
    """kappa(G, q), the largest l1-minimal filling ratio of a degree-q
    boundary.

    The minimal filling norm is convex on {z in im d : |z|_1 <= 1}, so
    it peaks at a vertex, and the vertices are the circuits of im d
    scaled to |z|_1 = 1.  With d = rank d_{q+1} over N degree-q tuples,
    the C(N, d-1) row subsets of the pivot columns of d give them, one
    kernel line each, and each is filled exactly (strategy "circuits").
    Past enum_budget subsets the lower bound is the best ratio over the
    circuits of `samples` random row subsets (repeats skipped) and the
    upper bound is 1, the averaged cone's (module docstring): exact
    ("cone-bound") once the lower bound reaches 1, else the bracket
    [lower, 1] ("sampled"), both with strategy "cone".
    """
    vrows = _image_basis(G, q, cap)
    d = len(vrows[0])
    if d == 0:
        # no nonzero boundaries: the polytope is empty and kappa = 0
        return UbcConstant(q, Fraction(0), Fraction(0), Fraction(0),
                           "vertex-enumeration", [], strategy="trivial")

    verts = _circuits(vrows, enum_budget)
    if verts is not None:
        certs = [fill_min(chain_from_vector(G, q, x), cap=cap) for x in verts]
        kappa = max(cert.ratio for cert in certs)
        return UbcConstant(q, kappa, kappa, kappa, "vertex-enumeration",
                           certs, strategy="circuits")

    if rng is None:
        import random
        rng = random.Random(0)
    lower = Fraction(0)
    certs = []
    seen = set()
    for _ in range(samples):
        x = _circuit(vrows, rng.sample(range(len(vrows)), d - 1))
        if x is None or x in seen:
            continue
        seen.add(x)
        cert = fill_min(chain_from_vector(G, q, x), cap=cap)
        certs.append(cert)
        lower = max(lower, cert.ratio)
        if lower == 1:
            return UbcConstant(q, lower, lower, lower, "cone-bound", certs,
                               strategy="cone")
    return UbcConstant(q, None, lower, Fraction(1), "sampled", certs,
                       strategy="cone")
