"""Shared generators and independent oracles for the test suite."""

import itertools
from fractions import Fraction

from barl1 import barcomplex
from barl1.barcomplex import Chain, Cochain, boundary, coboundary
from barl1.groups import (DirectProduct, FreeGroup, FreeProduct, cyclic_group,
                          symmetric_group_perm)
from barl1.l1opt import _circuit
from barl1.linalg import solve_square
from barl1.mitosis import mitosis_of_finite_abelian


def finite_backends():
    """One finite group per backend, by name: table, permutation, direct,
    free product, rank-0 free and semidirect (a mitosis ambient)."""
    return {"Z3 table": cyclic_group(3),
            "S3 perm": symmetric_group_perm(3),
            "Z2 x Z3": DirectProduct((cyclic_group(2), cyclic_group(3))),
            "Z3 * 1": FreeProduct((cyclic_group(3), cyclic_group(1))),
            "F0": FreeGroup(0),
            "mitosis ambient of Z2":
                mitosis_of_finite_abelian(cyclic_group(2)).ambient}


def record_calls(monkeypatch, owner, name):
    """Wrap owner.name, a function or method, so that the first argument
    of every call (the instance, for a method) is appended to the list
    returned."""
    calls = []
    orig = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def random_chain(G, degree, rng, terms=3, lo=-3, hi=3):
    # rng.choice(range(lo, hi + 1)) draws as rng.randrange(lo, hi + 1)
    return barcomplex.random_chain(G, degree, rng, terms, range(lo, hi + 1))


def random_boundary(G, degree, rng, terms=2):
    z = boundary(random_chain(G, degree + 1, rng, terms=terms))
    return z


def averaged_cone(z):
    """s(z) = (-1)^(q+1)/|G| sum_k sum_t z_t (t, k) over a finite group:
    for a degree-q cycle z with q >= 1, ds(z) = z and |s(z)|_1 = |z|_1
    (the cone contraction of Brown, Cohomology of Groups, I.5, averaged
    over the appended element), so kappa(G, q) <= 1."""
    G, q = z.group, z.degree
    f = Fraction((-1) ** (q + 1), G.order())
    return Chain(G, q + 1, {t + (k,): f * r
                            for t, r in z.terms() for k in G.elements()})


def random_table_cochain(G, degree, rng, lo=-2, hi=2):
    tab = {}
    for t in itertools.product(G.elements(), repeat=degree):
        tab[t] = Fraction(rng.randrange(lo, hi + 1))
    return Cochain(G, degree, table=tab)


def random_cocycle(G, degree, rng):
    """Coboundaries are cocycles; degree 0 cochains are all cocycles."""
    if degree == 0:
        return Cochain(G, 0, table={(): Fraction(rng.randrange(-3, 4))})
    return coboundary(random_table_cochain(G, degree - 1, rng))


def brute_lp_min(rows, rhs, objective):
    """Minimum of c.x over {Ax = b, x >= 0} by enumerating basic
    solutions; None when infeasible.  Only for toy sizes."""
    m, n = len(rows), len(objective)
    best = None
    for cols in itertools.combinations(range(n), m):
        sq = [[rows[i][j] for j in cols] for i in range(m)]
        x = solve_square(sq, list(rhs))
        if x is None or any(v < 0 for v in x):
            continue
        val = sum(objective[j] * x[k] for k, j in enumerate(cols))
        if best is None or val < best:
            best = val
    return best


def cochain_equal(f, g, G, degree):
    for t in itertools.product(G.elements(), repeat=degree):
        if f.value(t) != g.value(t):
            return False
    return True


def column_span_oracle(dmat):
    """Rank oracle for boundaries: z is in the rational column span of
    the boundary matrix dmat exactly when appending z as a column leaves
    the rank unchanged, i.e. when z reduces to 0 against an echelon
    basis of the columns.  Sparse elimination over Fraction; z is
    placed by the matrix's row labels."""

    def reduce(vec):
        while True:
            hits = [p for p in vec if p in echelon]
            if not hits:
                return vec
            p = min(hits)
            f = vec[p]
            for k, x in echelon[p].items():
                w = vec.get(k, 0) - f * x
                if w:
                    vec[k] = w
                else:
                    del vec[k]

    cols = [{} for _ in dmat.cols]
    for i, nonzero in enumerate(dmat.entries):
        for j, v in nonzero.items():
            cols[j][i] = Fraction(v)
    echelon = {}
    for col in cols:
        vec = reduce(col)
        if vec:
            p = min(vec)
            echelon[p] = {k: x / vec[p] for k, x in vec.items()}

    def in_span(z):
        return not reduce({dmat.rows[t]: Fraction(c) for t, c in z.terms()})

    return in_span


def rank_int(rows, ncols=None) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination:
    the reference the library's integer-row rref is checked against."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    m = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, m):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[col]
            for j in range(col, ncols):
                # exact by the Bareiss divisibility property
                ri[j] = (pr[col] * ri[j] - f * pr[j]) // prev
        prev = pr[col]
        rank += 1
        if rank == m:
            break
    return rank


def circuits_by_subsets(vrows):
    """The oracle for l1opt._circuits: the _circuit of every (d-1)-row
    subset of the N x d matrix vrows, each eliminated from scratch,
    scaled to |x|_1 = 1 and sorted."""
    N, d = len(vrows), len(vrows[0])
    seen = {_circuit(vrows, R) for R in itertools.combinations(range(N), d - 1)}
    seen.discard(None)
    return sorted(tuple(Fraction(v, sum(map(abs, x))) for v in x) for x in seen)
