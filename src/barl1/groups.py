"""Group backends with exact, decidable operations.

Every oracle is an immutable value object: equality and hashing are
structural, so two independently built copies of the same group are
interchangeable.  Elements are plain hashable Python values in a
canonical form fixed per backend:

  finite table   int index into the element list
  permutation    image tuple (p[0], ..., p[n-1]), composition p*q = p o q
  free           reduced word as a tuple of nonzero signed generator
                 numbers, generator i is +i, its inverse -i (1-based)
  direct         tuple of factor elements
  free product   tuple of (factor index, element) syllables, adjacent
                 factor indices distinct, no identity syllables
  semidirect     (base element, acting element), the acting element a
                 permutation of base indices that is an automorphism

Canonical forms make Python == the group equality, so an element is
its own key: the chain, product and mitosis layers use elements directly
as dictionary keys and as sort keys.  The one ordering contract is that
the elements of one group are hashable, canonical and mutually
comparable with <, which orders chain terms and serialized records.

A finite group has one enumeration.  Each finite backend supplies its
element list once, through _element_list: table indices in order,
permutations and free-product words sorted, direct and semidirect
pairs in itertools.product order of their factors.  GroupOracle turns
that list into one element -> position dict, built on first use, and
everything else reads it: elements() (a fresh list), element_index,
SemidirectProduct.act, and so the tuple bases of
barcomplex.tuple_basis.  An infinite group has no enumeration;
elements() and element_index raise GroupAxiomError.

A permutation group is not walked to decide membership or order.  It
keeps a base and strong generating set, built once by deterministic
Schreier-Sims: contains sifts a permutation down its stabilizer chain
to the identity, one composition per base point, and order is the
product of the basic orbit lengths.  sample multiplies one random
coset representative per level, and the element list is the sorted set
of all such products, so no group is walked.  A finite group also has a
faithful permutation image, permutation_image (the left-regular action
on elements(), the element itself for a permutation group, and the
holomorph action on base indices for a semidirect product), so the
order of the subgroup that some elements generate is one Schreier-Sims
away; verify_mitosis decides generation so.

Membership is checked once, where an element enters: contains is exact
on every backend (a permutation must lie in the generated group), and
check_member, the one method that raises on a non-member, is called by
fileio.decode_element (fileio reads the elements of chain and cochain
records unchecked, and the chain constructor checks each one), the
validating chain constructors (barcomplex.basis_tuple), and so the
cochain constructor, which checks a table as a chain,
Homomorphism.apply, verify_hom (on each image),
conjugation, mitosis.theta (its conjugator) and verify_mitosis (s and
d).  Everything after that trusts its elements: arithmetic (mul, inv,
element_index, act), a homomorphism's fn, and chains built with
SparseChain._of, among them l1opt's fillings over the tuples of
elements() or ball().  On a non-member their result is unspecified.

Both law checks, check_axioms (triples) and verify_hom (pairs), draw
their cases by one rule: every k-tuple of elements when |G|^k <= 300 000,
else a fixed number of k-tuples sampled from random.Random(0), 300
triples or 10 000 pairs.  Reports name the mode and count, so a check
is reproducible from the group alone.
"""

from __future__ import annotations

import itertools
import math
import random


class GroupAxiomError(ValueError):
    """A group law failed, or a description does not define a group."""


class HomomorphismError(ValueError):
    """The homomorphism law failed; the message carries a witness."""


def _int(v, what):
    """v, a record's `what`: an int but not a bool, else TypeError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError("%s must be an integer, got %r" % (what, v))
    return v


class GroupOracle:
    backend = "abstract"

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def order(self) -> int | None:
        """Group order, None when infinite."""
        return None

    def is_finite(self) -> bool:
        return self.order() is not None

    def _element_list(self) -> list:
        """Every element, in the group's one order; a finite backend
        supplies it, and it is asked for once."""
        raise GroupAxiomError("%s backend has no element enumeration" % self.backend)

    def _positions(self) -> dict:
        """element -> index along _element_list(), built once."""
        pos = getattr(self, "_pos", None)
        if pos is None:
            pos = self._pos = {a: i for i, a in enumerate(self._element_list())}
        return pos

    def elements(self) -> list:
        return list(self._positions())

    def element_index(self, a) -> int:
        return self._positions()[a]

    def permutation_image(self, a):
        """a as a permutation tuple under a faithful action of this
        finite group, with the image of a product the composite (p*q
        = p o q) of the images; by default the left-regular action on
        elements()."""
        pos = self._positions()
        return tuple(pos[self.mul(a, x)] for x in pos)

    def sample(self, rng):
        """A random element, for sampled law checks and property tests."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.backend

    def check_member(self, a):
        if not self.contains(a):
            raise GroupAxiomError(
                "element %r does not belong to this %s oracle" % (a, self.backend))

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._key()))
            self._hash = h
        return h

    def __repr__(self):
        return "<%s>" % self.describe()


class FiniteTableGroup(GroupOracle):
    """Finite group given by a Cayley table.  Elements are indices."""

    backend = "finite"

    def __init__(self, table, names=None, check=True):
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        if names is None:
            names = ["g%d" % i for i in range(n)]
        if len(names) != n:
            raise GroupAxiomError("got %d names for %d elements" % (len(names), n))
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != n:
            raise GroupAxiomError("element names are not distinct")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise GroupAxiomError("table row %d has length %d, expected %d"
                                      % (i, len(row), n))
            for v in row:
                if not 0 <= _int(v, "table entry") < n:
                    raise GroupAxiomError("table entry %r out of range" % (v,))
        self._identity = self._find_identity()
        if check:
            self._check_table()
        self._inv = self._build_inverses()

    def _find_identity(self):
        n = len(self.table)
        for e in range(n):
            if all(self.table[e][j] == j for j in range(n)) and \
               all(self.table[i][e] == i for i in range(n)):
                return e
        raise GroupAxiomError("table has no two-sided identity element")

    def _check_table(self):
        n = len(self.table)
        for i, row in enumerate(self.table):
            if len(set(row)) != n:
                raise GroupAxiomError(
                    "row of %r is not a bijection" % (self.names[i],))
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if len(set(col)) != n:
                raise GroupAxiomError(
                    "column of %r is not a bijection" % (self.names[j],))
        # associativity is cubic; fine at table-file sizes
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupAxiomError(
                            "associativity fails on (%s, %s, %s)"
                            % (self.names[a], self.names[b], self.names[c]))

    def _build_inverses(self):
        n = len(self.table)
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == self._identity:
                    inv[a] = b
                    break
            if inv[a] is None or self.table[inv[a]][a] != self._identity:
                raise GroupAxiomError("no inverse for %r" % (self.names[a],))
        return tuple(inv)

    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < len(self.table)

    def order(self):
        return len(self.table)

    def _element_list(self):
        return list(range(len(self.table)))

    def sample(self, rng):
        return rng.randrange(len(self.table))

    def describe(self):
        return "finite group of order %d" % len(self.table)

    def _key(self):
        return (self.names, self.table)


class PermutationGroup(GroupOracle):
    """Subgroup of S_degree generated by image tuples.

    Membership, order, sampling and the element list read a base and
    strong generating set, built once on first use by _schreier_sims;
    nothing walks the group.
    """

    backend = "perm"

    def __init__(self, degree, generators):
        self.degree = _int(degree, "permutation degree")
        gens = []
        for g in generators:
            g = tuple(_int(x, "generator entry") for x in g)
            if sorted(g) != list(range(self.degree)):
                raise GroupAxiomError(
                    "generator %r is not a permutation of 0..%d" % (g, self.degree - 1))
            gens.append(g)
        self.generators = tuple(gens)

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a):
        return _perm_inverse(a)

    def _element_list(self):
        """The group in sorted order: every product of one inverse coset
        representative per level of the stabilizer chain, last level
        leftmost."""
        els = [self.identity()]
        for _, to_b in self._stabilizer_chain():
            els = [tuple([v[x] for x in a]) for a in els for v in to_b.values()]
        return sorted(els)

    def _stabilizer_chain(self):
        """The stabilizer chain of _schreier_sims, built once."""
        levels = getattr(self, "_chain", None)
        if levels is None:
            levels = self._chain = _schreier_sims(self.degree, self.generators)
        return levels

    def contains(self, a):
        """a is a tuple of `degree` ints forming a permutation that
        sifts down the stabilizer chain to the identity."""
        n = self.degree
        if not (isinstance(a, tuple) and len(a) == n
                and all(type(x) is int for x in a)
                and sorted(a) == list(range(n))):
            return False
        return _sift(self._stabilizer_chain(), a)[0] == tuple(range(n))

    def order(self):
        """The product of the basic orbit lengths."""
        return math.prod(len(to_b) for _, to_b in self._stabilizer_chain())

    def permutation_image(self, a):
        return a

    def sample(self, rng):
        """A uniform element, as _element_list's product with one
        representative per level drawn uniformly: each element of the
        group is one such product, so none is listed."""
        a = self.identity()
        for _, to_b in self._stabilizer_chain():
            reps = list(to_b.values())
            v = reps[rng.randrange(len(reps))]
            a = tuple([v[x] for x in a])
        return a

    def describe(self):
        return "permutation group on %d points, %d generators" % (
            self.degree, len(self.generators))

    def _key(self):
        return (self.degree, tuple(sorted(self.generators)))


def _schreier_sims(degree, generators) -> list:
    """A base and strong generating set of the permutation group the
    generators generate, by deterministic Schreier-Sims (Sims 1970;
    Seress, Permutation Group Algorithms, 2003, section 4.2).

    Returns the stabilizer chain as a list of levels (b, to_b), one per
    base point b, where to_b maps each point x of the basic orbit to an
    element v of the stabilizer of the earlier base points with
    v[x] = b: an inverse coset representative, so a sift costs one
    composition per level.  The order is the product of the orbit
    lengths.
    """
    e = tuple(range(degree))
    levels = []  # (b_i, to_b_i), as returned
    strong = []  # strong[i]: the strong generators that fix b_0..b_{i-1}
    reps = []    # reps[i]: x -> u with u[b_i] = x, the inverses of to_b_i

    def add(h, first, last):
        """h, which fixes b_0..b_{last-1}, as a strong generator of
        levels first..last, a new base point when last is new."""
        if last == len(levels):
            levels.append((next(x for x in e if h[x] != x), None))
            strong.append([])
            reps.append(None)
        for i in range(first, last + 1):
            strong[i].append(h)
            b = levels[i][0]
            rep = {b: e}
            queue = [b]
            for x in queue:
                for s in strong[i]:
                    y = s[x]
                    if y not in rep:
                        rep[y] = tuple([s[z] for z in rep[x]])
                        queue.append(y)
            reps[i] = rep
            levels[i] = (b, {x: _perm_inverse(u) for x, u in rep.items()})

    def first_failure(i):
        """The residue and stop level of the first Schreier generator
        of level i that does not sift through the levels below it."""
        b, rep = levels[i][0], reps[i]
        for u in rep.values():
            for s in strong[i]:
                g = tuple([s[z] for z in u])
                if g != rep[g[b]]:  # else the Schreier generator is e
                    h, j = _sift(levels, g, i)
                    if h != e:
                        return h, j
        return None, None

    for g in generators:
        h, j = _sift(levels, g)
        if h != e:
            add(h, 0, j)
    i = len(levels) - 1
    while i >= 0:
        h, j = first_failure(i)
        if h is None:
            i -= 1
        else:
            add(h, i + 1, j)
            i = j
    return levels


def _sift(levels, g, start=0):
    """g sifted down levels[start:] of a stabilizer chain: the residue,
    and the index of the level whose orbit misses its image of the base
    point (len(levels) when none does).  g is in the group exactly when
    the residue is the identity."""
    for i in range(start, len(levels)):
        b, to_b = levels[i]
        x = g[b]
        if x != b:  # else the representative is the identity
            v = to_b.get(x)
            if v is None:
                return g, i
            g = tuple([v[y] for y in g])
    return g, len(levels)


def _perm_inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


class FreeGroup(GroupOracle):
    """Free group of finite rank; elements are reduced words."""

    backend = "free"

    def __init__(self, rank):
        self.rank = _int(rank, "free group rank")
        if self.rank < 0:
            raise GroupAxiomError("free group rank must be >= 0")

    def identity(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def contains(self, a):
        if not isinstance(a, tuple):
            return False
        for i, x in enumerate(a):
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                return False
            if i and a[i - 1] == -x:
                return False  # not reduced
        return True

    def sample(self, rng):
        """A reduced word of random length at most 6."""
        word = []
        for _ in range(rng.randrange(7)):
            while True:
                x = rng.choice([1, -1]) * rng.randrange(1, self.rank + 1)
                if not word or word[-1] != -x:
                    break
            word.append(x)
        return tuple(word)

    def order(self):
        return 1 if self.rank == 0 else None

    def _element_list(self):
        """The empty word alone, at rank 0; no list at higher rank."""
        return [()] if self.rank == 0 else super()._element_list()

    def ball(self, radius):
        """All reduced words of length <= radius, deterministic order."""
        words = [()]
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for x in range(1, self.rank + 1):
                    for s in (x, -x):
                        if w and w[-1] == -s:
                            continue
                        nxt.append(w + (s,))
            words.extend(nxt)
            frontier = nxt
        return words

    def describe(self):
        return "free group of rank %d" % self.rank

    def _key(self):
        return self.rank


class DirectProduct(GroupOracle):
    backend = "direct"

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise GroupAxiomError("direct product needs at least one factor")

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def contains(self, a):
        return (isinstance(a, tuple) and len(a) == len(self.factors)
                and all(f.contains(x) for f, x in zip(self.factors, a)))

    def order(self):
        total = 1
        for f in self.factors:
            n = f.order()
            if n is None:
                return None
            total *= n
        return total

    def _element_list(self):
        return list(itertools.product(*[f.elements() for f in self.factors]))

    def sample(self, rng):
        return tuple(f.sample(rng) for f in self.factors)

    def describe(self):
        return "direct product of %d factors" % len(self.factors)

    def _key(self):
        return self.factors


class FreeProduct(GroupOracle):
    """Free product; elements are alternating nontrivial syllable words.

    When at most one factor is nontrivial and it is finite, the product
    is that factor: its elements are the identity and the one-syllable
    words, in < order.
    """

    backend = "freeprod"

    def __init__(self, factors):
        self.factors = tuple(factors)
        if len(self.factors) < 2:
            raise GroupAxiomError("free product needs at least two factors")

    def identity(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for fi, x in b:
            if out and out[-1][0] == fi:
                f = self.factors[fi]
                m = f.mul(out[-1][1], x)
                if m == f.identity():
                    out.pop()
                else:
                    out[-1] = (fi, m)
            else:
                out.append((fi, x))
        return tuple(out)

    def inv(self, a):
        return tuple((fi, self.factors[fi].inv(x)) for fi, x in reversed(a))

    def contains(self, a):
        if not isinstance(a, tuple):
            return False
        prev = None
        for syl in a:
            if not (isinstance(syl, tuple) and len(syl) == 2):
                return False
            fi, x = syl
            if not isinstance(fi, int) or not 0 <= fi < len(self.factors):
                return False
            f = self.factors[fi]
            if not f.contains(x) or x == f.identity() or fi == prev:
                return False
            prev = fi
        return True

    def order(self):
        nontrivial = [f.order() for f in self.factors if f.order() != 1]
        if not nontrivial:
            return 1
        if len(nontrivial) == 1:
            return nontrivial[0]
        return None

    def _element_list(self):
        """The identity and the one-syllable words, sorted, when the
        order is finite; no list otherwise."""
        if self.order() is None:
            return super()._element_list()
        return sorted([()] + [((fi, x),) for fi, f in enumerate(self.factors)
                              for x in f.elements() if x != f.identity()])

    def sample(self, rng):
        """A word of at most 4 random syllables."""
        word = ()
        fi = rng.randrange(len(self.factors))
        for _ in range(rng.randrange(5)):
            f = self.factors[fi]
            x = f.sample(rng)
            if x != f.identity():
                word = self.mul(word, ((fi, x),))
            fi = (fi + rng.randrange(1, len(self.factors))) % len(self.factors)
        return word

    def describe(self):
        return "free product of %d factors" % len(self.factors)

    def _key(self):
        return self.factors


class SemidirectProduct(GroupOracle):
    """base x| action, the action an explicit automorphism table.

    The acting group is a permutation group on base element indices;
    each acting element permutes the base and must respect its law.
    Only the generators are checked, the closure then consists of
    automorphisms automatically.
    """

    backend = "semidirect"

    def __init__(self, base, action):
        if not base.is_finite():
            raise GroupAxiomError("semidirect base must be finite")
        if not isinstance(action, PermutationGroup):
            raise GroupAxiomError("action must be a permutation group on base indices")
        if action.degree != base.order():
            raise GroupAxiomError(
                "action degree %d does not match base order %d"
                % (action.degree, base.order()))
        self.base = base
        self.action = action
        self._base_els = base.elements()
        for g in action.generators:
            self._check_automorphism(g)

    def _check_automorphism(self, perm):
        els = self._base_els
        n = len(els)
        for i in range(n):
            for j in range(n):
                lhs = perm[self.base.element_index(self.base.mul(els[i], els[j]))]
                rhs = self.base.element_index(
                    self.base.mul(els[perm[i]], els[perm[j]]))
                if lhs != rhs:
                    raise GroupAxiomError(
                        "action table is not an automorphism: fails on (%r, %r)"
                        % (els[i], els[j]))

    def act(self, h, b):
        return self._base_els[h[self.base.element_index(b)]]

    def identity(self):
        return (self.base.identity(), self.action.identity())

    def mul(self, a, b):
        b1, h1 = a
        b2, h2 = b
        return (self.base.mul(b1, self.act(h1, b2)), self.action.mul(h1, h2))

    def inv(self, a):
        b, h = a
        hi = self.action.inv(h)
        return (self.act(hi, self.base.inv(b)), hi)

    def contains(self, a):
        return (isinstance(a, tuple) and len(a) == 2
                and self.base.contains(a[0]) and self.action.contains(a[1]))

    def order(self):
        return self.base.order() * self.action.order()

    def _element_list(self):
        return list(itertools.product(self._base_els, self.action.elements()))

    def permutation_image(self, a):
        """The holomorph action x -> b h(x) of a = (b, h) on base
        indices: faithful, since b h(e) = b, and a homomorphism, since
        every acting element is an automorphism."""
        b, h = a
        base, els = self.base, self._base_els
        return tuple(base.element_index(base.mul(b, els[y])) for y in h)

    def sample(self, rng):
        return (self.base.sample(rng), self.action.sample(rng))

    def describe(self):
        return "semidirect product of order %d" % self.order()

    def _key(self):
        return (self.base, self.action)


def cyclic_group(n) -> FiniteTableGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTableGroup(table, names=[str(i) for i in range(n)], check=False)


def symmetric_group_perm(n) -> PermutationGroup:
    if n < 2:
        return PermutationGroup(max(n, 1), [])
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return PermutationGroup(n, [swap, cycle])


def is_abelian(G, witness=False):
    els = G.elements()
    for a in els:
        for b in els:
            if G.mul(a, b) != G.mul(b, a):
                return (False, (a, b)) if witness else False
    return (True, None) if witness else True


def _cases(G, k, samples):
    """(mode, k-tuples) for a law check: all k-tuples when
    |G|^k <= 300 000, else `samples` tuples drawn from Random(0)."""
    n = G.order()
    if n is not None and n ** k <= 300_000:
        return "exhaustive", itertools.product(G.elements(), repeat=k)
    rng = random.Random(0)
    return "sampled", (tuple(G.sample(rng) for _ in range(k))
                       for _ in range(samples))


def check_axioms(G) -> dict:
    """Associativity, identity and inverses on the cases of the module's
    check rule (300 triples when sampled).

    Returns a report dict; raises GroupAxiomError on first failure.
    """
    mode, triples = _cases(G, 3, 300)
    e = G.identity()
    count = 0
    for a, b, c in triples:
        if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
            raise GroupAxiomError("associativity fails on (%r, %r, %r)" % (a, b, c))
        if G.mul(a, e) != a or G.mul(e, a) != a:
            raise GroupAxiomError("identity law fails on %r" % (a,))
        ai = G.inv(a)
        if G.mul(a, ai) != e or G.mul(ai, a) != e:
            raise GroupAxiomError("inverse law fails on %r" % (a,))
        count += 1
    return {"mode": mode, "checked_triples": count, "order": G.order()}


def build_group(spec: dict) -> GroupOracle:
    """Build an oracle from a structured description record."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise GroupAxiomError("group record must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "finite":
        if "table" not in spec:
            raise GroupAxiomError("finite group record needs a 'table'")
        return FiniteTableGroup(spec["table"], names=spec.get("elements"))
    if kind == "perm":
        return PermutationGroup(spec.get("degree", 0), spec.get("generators", []))
    if kind == "free":
        return FreeGroup(spec.get("rank", 0))
    if kind == "product":
        op = spec.get("op")
        factors = [build_group(f) for f in spec.get("factors", [])]
        if op == "direct":
            return DirectProduct(factors)
        if op == "free":
            return FreeProduct(factors)
        raise GroupAxiomError("unknown product op %r" % (op,))
    if kind == "semidirect":
        base = build_group(spec["base"])
        tables = spec.get("action", [])
        action = PermutationGroup(base.order(), tables)
        return SemidirectProduct(base, action)
    raise GroupAxiomError("unknown group type %r" % (kind,))


def group_to_spec(G) -> dict:
    """Inverse of build_group, for self-contained certificates."""
    if isinstance(G, FiniteTableGroup):
        return {"type": "finite", "elements": list(G.names),
                "table": [list(r) for r in G.table]}
    if isinstance(G, PermutationGroup):
        return {"type": "perm", "degree": G.degree,
                "generators": [list(g) for g in G.generators]}
    if isinstance(G, FreeGroup):
        return {"type": "free", "rank": G.rank}
    if isinstance(G, DirectProduct):
        return {"type": "product", "op": "direct",
                "factors": [group_to_spec(f) for f in G.factors]}
    if isinstance(G, FreeProduct):
        return {"type": "product", "op": "free",
                "factors": [group_to_spec(f) for f in G.factors]}
    if isinstance(G, SemidirectProduct):
        return {"type": "semidirect", "base": group_to_spec(G.base),
                "action": [list(g) for g in G.action.generators]}
    raise GroupAxiomError("cannot serialize %r" % (G,))


class Homomorphism:
    def __init__(self, source, target, fn, name="hom"):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def apply(self, g):
        self.source.check_member(g)
        return self.fn(g)

    __call__ = apply

    def __repr__(self):
        return "<%s: %s -> %s>" % (self.name, self.source.describe(),
                                   self.target.describe())


def verify_hom(h: Homomorphism) -> dict:
    """Check that h sends every tested element into the target and
    that h(ab) = h(a)h(b), on the pairs of the module's check rule
    (10 000 pairs when sampled)."""
    S, T = h.source, h.target
    e_img = h(S.identity())
    if e_img != T.identity():
        raise HomomorphismError("%s does not send identity to identity" % h.name)
    mode, pairs = _cases(S, 2, 10_000)
    count = 0
    for a, b in pairs:
        ha, hb = h(a), h(b)
        T.check_member(ha)
        T.check_member(hb)
        if h(S.mul(a, b)) != T.mul(ha, hb):
            raise HomomorphismError(
                "law fails for %s on witness pair (%r, %r)" % (h.name, a, b))
        count += 1
    return {"mode": mode, "checked_pairs": count}


def build_hom(source, target, fn, name="hom") -> Homomorphism:
    """The homomorphism g -> fn(g), once it has passed verify_hom."""
    h = Homomorphism(source, target, fn, name=name)
    verify_hom(h)
    return h


def identity_hom(G) -> Homomorphism:
    return Homomorphism(G, G, lambda g: g, name="id")


def compose_homs(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.target != outer.source:
        raise HomomorphismError("homomorphisms do not compose: %r then %r"
                                % (inner, outer))
    return Homomorphism(inner.source, outer.target,
                        lambda g: outer.fn(inner.fn(g)),
                        name="%s.%s" % (outer.name, inner.name))


def conjugation(G, k, inverse=False) -> Homomorphism:
    """gamma_k(g) = k g k^-1; with inverse=True, gamma_{k^-1}."""
    G.check_member(k)
    if inverse:
        k = G.inv(k)
    ki = G.inv(k)
    return Homomorphism(G, G, lambda g: G.mul(G.mul(k, g), ki), name="conj")


def diagonal_hom(G) -> Homomorphism:
    """g -> (g, g), into DirectProduct((G, G))."""
    return Homomorphism(G, DirectProduct((G, G)), lambda g: (g, g), name="diag")


def pair_hom(h1: Homomorphism, h2: Homomorphism) -> Homomorphism:
    """h1 x h2 componentwise on two-factor direct products."""
    S = DirectProduct((h1.source, h2.source))
    T = DirectProduct((h1.target, h2.target))
    return Homomorphism(S, T, lambda a: (h1.fn(a[0]), h2.fn(a[1])),
                        name="%s x %s" % (h1.name, h2.name))
