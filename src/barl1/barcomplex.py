"""Bar chain complex of a group with exact rational coefficients.

Degree k chains are finitely supported Fraction combinations of
k-tuples of group elements; the empty tuple spans degree 0.  The
boundary is

  d(g_1,...,g_k) = (g_2,...,g_k)
                   + sum_{j=1}^{k-1} (-1)^j (g_1,...,g_j g_{j+1},...,g_k)
                   + (-1)^k (g_1,...,g_{k-1})

so d_1 = 0 identically and |d_k| <= k+1 in the l1 operator norm.
No floats anywhere.

Chain and products.TensorChain share SparseChain: a dict of nonzero
coefficients with its space and degree, and the arithmetic on it.
Every producer of either (boundary, push_chain, the products, theta)
builds its dict with sum_terms, the one rule for adding chain terms,
and wraps it with the unchecked constructor SparseChain._of; the
public constructors validate keys and coefficients first.

Over a finite group the degree-k basis is tuple_basis(G, k): the
k-tuples of G.elements() in itertools.product order, so tuple_index
is the position of a tuple in it.  tuple_basis holds the one size-cap
check of the finite-group enumerations (boundary matrices, betti,
chain_from_vector, Cochain.materialize and l1opt's full supports): it
raises SizeCapError for an infinite group or when |G|^k exceeds the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groups import GroupOracle

DEFAULT_SIZE_CAP = 100_000


class SizeCapError(ValueError):
    """An enumeration would exceed the configured size cap."""


class MaterializeError(ValueError):
    """A cochain table cannot be materialized (infinite domain)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float coefficient %r rejected; use Fraction" % x)
    return Fraction(x)


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
    """A finitely supported map from basis keys to nonzero Fractions in
    one degree, over a space: a group for Chain, a pair of groups for
    TensorChain.  Holds the arithmetic the two share.

    The constructor validates every key, down to the group membership
    of each entry, and rejects float coefficients;
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
        self.coeffs = sum_terms((key(k), _as_fraction(r)) for k, r in items)

    def _key(self, key):
        """key as a basis key of this chain's degree, or ValueError."""
        raise NotImplementedError

    @classmethod
    def _of(cls, space, degree, coeffs):
        """The chain with coeffs, a dict of nonzero Fractions whose keys
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
        r = _as_fraction(r)
        return self._like({k: v * r for k, v in self.coeffs.items()} if r else {})

    def __rmul__(self, r):
        return self.scale(r)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.space == other.space
                and self.degree == other.degree and self.coeffs == other.coeffs)


class Chain(SparseChain):
    """Finitely supported map from k-tuples to Fraction."""

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

    def support(self):
        return list(self.coeffs)

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
    """Rational cochain: a finitely supported table or a lazy rule.

    Table cochains treat missing tuples as 0, which over a finite group
    is the full table.  Lazy cochains only promise pointwise
    evaluation, which is all the Kronecker pairing needs.
    """

    __slots__ = ("group", "degree", "table", "fn", "name")

    def __init__(self, group, degree, table=None, fn=None, name="cochain"):
        if degree < 0:
            raise ValueError("cochain degree must be >= 0")
        if (table is None) == (fn is None):
            raise ValueError("give exactly one of table, fn")
        self.group = group
        self.degree = degree
        self.fn = fn
        self.name = name
        if table is not None:
            clean = {}
            for tup, r in (table.items() if isinstance(table, dict) else table):
                tup = basis_tuple(group, tup, degree)
                r = _as_fraction(r)
                if r != 0:
                    clean[tup] = r
            self.table = clean
        else:
            self.table = None

    def value(self, tup) -> Fraction:
        tup = tuple(tup)
        if len(tup) != self.degree:
            raise ValueError("tuple %r has wrong length for degree %d"
                             % (tup, self.degree))
        if self.table is not None:
            return self.table.get(tup, Fraction(0))
        return _as_fraction(self.fn(tup))

    __call__ = value

    def materialize(self, cap=DEFAULT_SIZE_CAP) -> "Cochain":
        if self.table is not None:
            return self
        if not self.group.is_finite():
            raise MaterializeError(
                "cannot materialize a lazy cochain over an infinite group")
        table = {}
        for tup in tuple_basis(self.group, self.degree, cap):
            v = _as_fraction(self.fn(tup))
            if v != 0:
                table[tup] = v
        return Cochain(self.group, self.degree, table=table, name=self.name)

    def sup_norm(self, support=None, cap=DEFAULT_SIZE_CAP) -> Fraction:
        """Max |f| over the given tuples, or over the whole (finite)
        domain when support is None."""
        if support is not None:
            return max((abs(self.value(t)) for t in support),
                       default=Fraction(0))
        f = self.materialize(cap=cap)
        return max((abs(v) for v in f.table.values()), default=Fraction(0))


def coboundary(f: Cochain, cap=DEFAULT_SIZE_CAP) -> Cochain:
    """Adjoint of the boundary: (df)(t) = f(boundary of t)."""
    G = f.group
    k = f.degree

    def fn(tup, _f=f, _G=G):
        total = Fraction(0)
        for face, sign in tuple_boundary(_G, tup):
            total += sign * _f.value(face)
        return total

    out = Cochain(G, k + 1, fn=fn, name="d(%s)" % f.name)
    try:
        return out.materialize(cap=cap)
    except (MaterializeError, SizeCapError):
        return out  # infinite or past the cap: stays lazy


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


@dataclass
class BoundaryMatrix:
    """Sparse integer matrix of d_k over the lexicographic tuple bases."""

    group: GroupOracle
    degree: int
    nrows: int
    ncols: int
    entries: dict  # (row, col) -> int

    def dense_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        return len(linalg.rref(self.dense_rows())[1])


def tuple_basis(G, k, cap=DEFAULT_SIZE_CAP) -> list:
    """The k-tuples of G.elements() in itertools.product order, the
    basis of degree k; SizeCapError for an infinite G or past the cap."""
    n = G.order()
    if n is None:
        raise SizeCapError("tuple bases need a finite group")
    if n ** k > cap:
        raise SizeCapError("basis size %d exceeds cap %d" % (n ** k, cap))
    return list(itertools.product(G.elements(), repeat=k))


def tuple_index(G, tup) -> int:
    """The position of tup in tuple_basis(G, len(tup))."""
    n = G.order()
    idx = 0
    for g in tup:
        idx = idx * n + G.element_index(g)
    return idx


def boundary_matrix(G, k, cap=DEFAULT_SIZE_CAP) -> BoundaryMatrix:
    if k < 1:
        raise ValueError("boundary matrix defined for degree >= 1")
    cols = tuple_basis(G, k, cap)
    entries = sum_terms(
        ((tuple_index(G, face), j), sign) for j, tup in enumerate(cols)
        for face, sign in tuple_boundary(G, tup))
    return BoundaryMatrix(G, k, len(cols) // G.order(), len(cols), entries)


def betti(G, k, cap=DEFAULT_SIZE_CAP) -> int:
    """dim H_k(G; Q) for finite G, by exact ranks of d_k and d_{k+1};
    boundary_matrix refuses an infinite G or a basis past the cap."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    d_k1 = boundary_matrix(G, k + 1, cap=cap)
    rank_k = boundary_matrix(G, k, cap=cap).rank() if k >= 1 else 0
    return (d_k1.nrows - rank_k) - d_k1.rank()


def chain_from_vector(G, k, vec) -> Chain:
    """The chain whose coefficient on the i-th tuple of tuple_basis(G, k)
    is vec[i]; vec has one entry per tuple."""
    return Chain._of(G, k, sum_terms((t, Fraction(v)) for t, v in
                                     zip(tuple_basis(G, k, len(vec)), vec) if v))
