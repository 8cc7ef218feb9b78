"""Bar chain complex of a group with exact rational coefficients.

Degree k chains are finitely supported rational combinations of
k-tuples of group elements; the empty tuple spans degree 0.  The
boundary is

  d(g_1,...,g_k) = (g_2,...,g_k)
                   + sum_{j=1}^{k-1} (-1)^j (g_1,...,g_j g_{j+1},...,g_k)
                   + (-1)^k (g_1,...,g_{k-1})

so d_1 = 0 identically and |d_k| <= k+1 in the l1 operator norm.
Coefficients and cochain values are exact, by linalg.exact's one rule:
ints stay ints, other rationals are Fractions, and floats and bools
are rejected.

Chain and products.TensorChain share SparseChain: a dict of nonzero
coefficients with its space and degree, and the arithmetic on it.
Every producer of either (boundary, push_chain, the products, theta)
builds its dict with sum_terms, the one rule for adding chain terms,
and wraps it with the unchecked constructor SparseChain._of; the
public constructors validate keys and coefficients first.

A Cochain is one thing, a rule from degree-tuples to exact values.  A
table given to its constructor is validated as a Chain, keys down to
group membership, and read with 0 off its support.  coboundary is the
rule f o d over tuple_boundary and kronecker evaluates pointwise, so no
cochain operation enumerates a basis or reads the size cap.

Over a finite group the degree-k basis is tuple_basis(G, k): the
k-tuples of G.elements() in itertools.product order.  boundary_over is
the one builder of the matrix of d_k on any k-tuples; it numbers the
rows, the faces, in the order they first occur, and the matrix carries
its row and column labels.  boundary_matrix(G, k), which every fill LP,
rank and kappa over G reads, is that builder on tuple_basis(G, k), built
once per (G, k) in a memo keyed on the structurally hashed group; with
the identity listed first its rows are tuple_basis(G, k-1).

Every enumeration, these bases and l1opt's word balls alike, passes
check_size first, the one reader of the size cap: the BARL1_SIZE_CAP
environment variable on every call, else DEFAULT_SIZE_CAP.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groups import GroupOracle

DEFAULT_SIZE_CAP = 100_000


class SizeCapError(ValueError):
    """An enumeration would exceed the configured size cap."""


def check_size(n, k) -> None:
    """The one size check: the n**k k-tuples of n elements (n None for
    an infinite group) against BARL1_SIZE_CAP, read on every call, else
    DEFAULT_SIZE_CAP when it is unset or empty.  SizeCapError for a
    setting that is not an integer of at least 1, for an infinite
    group, and past the cap."""
    env = os.environ.get("BARL1_SIZE_CAP")
    cap = DEFAULT_SIZE_CAP
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise SizeCapError("BARL1_SIZE_CAP must be an integer of at "
                               "least 1, got %r" % env)
    if n is None:
        raise SizeCapError("tuple bases need a finite group")
    if n ** k > cap:
        raise SizeCapError("basis size %d exceeds the size cap %d "
                           "(BARL1_SIZE_CAP)" % (n ** k, cap))


def basis_tuple(G, tup, degree) -> tuple:
    """tup as a tuple of `degree` elements of G, else ValueError; every
    key of a validating chain or cochain constructor passes here."""
    tup = tuple(tup)
    if len(tup) != degree:
        raise ValueError("tuple %r has length %d, expected %d"
                         % (tup, len(tup), degree))
    for g in tup:
        G.check_member(g)
    return tup


def sum_terms(terms) -> dict:
    """Sum (key, coefficient) pairs into a dict of the nonzero totals.

    Every chain and tensor-chain producer adds its terms here and
    nowhere else.  A key whose total cancels leaves the dict, and
    enters again at the end if a later term brings it back.
    """
    out = {}
    for key, r in terms:
        s = out.get(key)
        if s is None:
            if r:
                out[key] = r
        else:
            s += r
            if s:
                out[key] = s
            else:
                del out[key]
    return out


class SparseChain:
    """A finitely supported map from basis keys to nonzero exact values in
    one degree, over a space: a group for Chain, a pair of groups for
    TensorChain.  Holds the arithmetic the two share.

    The constructor validates every key, down to the group membership
    of each entry, and rejects float and bool coefficients;
    producers whose keys are valid by construction sum their terms with
    sum_terms and wrap the dict with _of, which checks nothing.
    """

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space, degree, coeffs=None):
        if degree < 0:
            raise ValueError("chain degree must be >= 0")
        self.space = space
        self.degree = degree
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        key = self._key
        self.coeffs = sum_terms((key(k), linalg.exact(r)) for k, r in items)

    def _key(self, key):
        """key as a basis key of this chain's degree, or ValueError."""
        raise NotImplementedError

    @classmethod
    def _of(cls, space, degree, coeffs):
        """The chain with coeffs, a dict of nonzero exact values whose keys
        are valid for space and degree; nothing is checked."""
        out = object.__new__(cls)
        out.space = space
        out.degree = degree
        out.coeffs = coeffs
        return out

    def _like(self, coeffs):
        return self._of(self.space, self.degree, coeffs)

    @classmethod
    def zero(cls, space, degree):
        return cls(space, degree)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("expected a %s, got %r"
                            % (type(self).__name__, other))
        if self.space != other.space or self.degree != other.degree:
            raise ValueError("operands live over different groups or degrees")

    def __add__(self, other):
        self._compatible(other)
        return self._like(sum_terms(itertools.chain(self.coeffs.items(),
                                                    other.coeffs.items())))

    def __neg__(self):
        return self._like({k: -r for k, r in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = linalg.exact(r)
        return self._like({k: v * r for k, v in self.coeffs.items()} if r else {})

    def __rmul__(self, r):
        return self.scale(r)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.space == other.space
                and self.degree == other.degree and self.coeffs == other.coeffs)


class Chain(SparseChain):
    """Finitely supported map from k-tuples to exact rationals."""

    __slots__ = ()

    @property
    def group(self) -> GroupOracle:
        return self.space

    def _key(self, tup):
        return basis_tuple(self.space, tup, self.degree)

    @classmethod
    def single(cls, group, tup, coeff=1):
        return cls(group, len(tup), {tuple(tup): coeff})

    def terms(self):
        """(tuple, coefficient) pairs in the order of the tuples."""
        return sorted(self.coeffs.items())

    def __repr__(self):
        if self.is_zero():
            return "<zero chain, degree %d>" % self.degree
        parts = ["%s*%r" % (r, t) for t, r in self.terms()[:4]]
        if len(self.coeffs) > 4:
            parts.append("...")
        return "<chain %s>" % " + ".join(parts)


def l1_norm(c: SparseChain) -> Fraction:
    return sum((abs(r) for r in c.coeffs.values()), Fraction(0))


def random_chain(G, degree, rng, terms, coeffs) -> Chain:
    """Sum of `terms` random degree-tuples, each drawn entry by entry
    with G.sample(rng) and weighted by rng.choice(coeffs)."""
    return Chain(G, degree, ((tuple(G.sample(rng) for _ in range(degree)),
                              rng.choice(coeffs)) for _ in range(terms)))


def tuple_boundary(G: GroupOracle, tup):
    """Boundary terms of a basis tuple as (tuple, sign) pairs."""
    k = len(tup)
    if k == 0:
        raise ValueError("degree-0 tuples have no boundary")
    yield tup[1:], 1
    for j in range(1, k):
        merged = tup[:j - 1] + (G.mul(tup[j - 1], tup[j]),) + tup[j + 1:]
        yield merged, -1 if j % 2 else 1
    yield tup[:-1], -1 if k % 2 else 1


def boundary(c: Chain) -> Chain:
    if c.degree == 0:
        raise ValueError("boundary of a degree-0 chain is undefined")
    G = c.group
    return Chain._of(G, c.degree - 1, sum_terms(
        (face, sign * r) for tup, r in c.coeffs.items()
        for face, sign in tuple_boundary(G, tup)))


def is_cycle(c: Chain) -> bool:
    if c.degree == 0:
        return True
    return boundary(c).is_zero()


class Cochain:
    """Rational cochain: a rule fn from degree-tuples to exact values.

    A table given instead is checked as a chain's coefficients are
    (Chain(group, degree, table)) and read with 0 off its support,
    which over a finite group is the full table.  The Kronecker pairing
    and every product only evaluate a cochain pointwise, so nothing
    enumerates its domain.
    """

    __slots__ = ("group", "degree", "fn", "name")

    def __init__(self, group, degree, table=None, fn=None, name="cochain"):
        if degree < 0:
            raise ValueError("cochain degree must be >= 0")
        if (table is None) == (fn is None):
            raise ValueError("give exactly one of table, fn")
        if table is not None:
            coeffs = Chain(group, degree, table).coeffs
            fn = lambda tup: coeffs.get(tup, 0)
        self.group = group
        self.degree = degree
        self.fn = fn
        self.name = name

    def value(self, tup):
        tup = tuple(tup)
        if len(tup) != self.degree:
            raise ValueError("tuple %r has wrong length for degree %d"
                             % (tup, self.degree))
        return linalg.exact(self.fn(tup))

    __call__ = value


def coboundary(f: Cochain) -> Cochain:
    """Adjoint of the boundary: (df)(t) = f(dt), evaluated on demand."""
    G = f.group
    return Cochain(G, f.degree + 1, name="d(%s)" % f.name,
                   fn=lambda tup: sum(sign * f.value(face)
                                      for face, sign in tuple_boundary(G, tup)))


def kronecker(f: Cochain, c: Chain) -> Fraction:
    if f.group != c.group or f.degree != c.degree:
        raise ValueError("cochain and chain do not match in group or degree")
    total = Fraction(0)
    for tup, r in c.coeffs.items():
        total += r * f.value(tup)
    return total


def push_chain(h, c: Chain) -> Chain:
    """Apply a homomorphism entrywise; colliding tuples combine."""
    if c.group != h.source:
        raise ValueError("chain does not live over the source of %r" % (h,))
    return Chain._of(h.target, c.degree, sum_terms(
        (tuple(h.fn(g) for g in tup), r) for tup, r in c.coeffs.items()))


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse integer matrix of d_k on the k-tuples cols, one row per
    face in the order the faces first occur.  boundary_matrix shares it
    between callers, so it is never mutated."""

    group: GroupOracle
    degree: int
    rows: dict  # (k-1)-tuple face -> its row
    cols: tuple  # k-tuples
    entries: tuple  # per row, {column: nonzero int}

    def dense_rows(self):
        return [[row.get(j, 0) for j in range(len(self.cols))]
                for row in self.entries]

    def rank(self) -> int:
        return len(linalg.rref(self.dense_rows())[1])


def tuple_basis(G, k) -> list:
    """The k-tuples of G.elements() in itertools.product order, the
    basis of degree k; check_size refuses an infinite G or past the cap."""
    check_size(G.order(), k)
    return list(itertools.product(G.elements(), repeat=k))


def boundary_over(G, k, cols) -> BoundaryMatrix:
    """The matrix of d_k on the k-tuples cols; a face gets its row where
    it first occurs, even if its terms cancel in that column."""
    cols = tuple(cols)
    rows, entries = {}, []
    for j, tup in enumerate(cols):
        col = sum_terms((rows.setdefault(face, len(rows)), sign)
                        for face, sign in tuple_boundary(G, tup))
        entries += [{} for _ in range(len(rows) - len(entries))]
        for i, sign in col.items():
            entries[i][j] = sign
    return BoundaryMatrix(G, k, rows, cols, tuple(entries))


MATRIX_MEMO = 16  # full matrices kept; the least recently used is dropped


@functools.lru_cache(maxsize=MATRIX_MEMO)
def _full_matrix(G, k):
    return boundary_over(G, k, itertools.product(G.elements(), repeat=k))


def boundary_matrix(G, k) -> BoundaryMatrix:
    """d_k on tuple_basis(G, k), built once per (G, k) and shared by
    structurally equal groups; the size cap is checked on every call.
    Its rows are tuple_basis(G, k-1) when G lists its identity first."""
    if k < 1:
        raise ValueError("boundary matrix defined for degree >= 1")
    check_size(G.order(), k)
    return _full_matrix(G, k)


def betti(G, k) -> int:
    """dim H_k(G; Q) for finite G, by exact ranks of d_k and d_{k+1};
    boundary_matrix refuses an infinite G or a basis past the cap."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    d_k1 = boundary_matrix(G, k + 1)
    rank_k = boundary_matrix(G, k).rank() if k >= 1 else 0
    return (len(d_k1.rows) - rank_k) - d_k1.rank()

