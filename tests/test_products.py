import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from barl1.barcomplex import (Chain, Cochain, boundary, boundary_matrix,
                              coboundary, l1_norm, push_chain, tuple_boundary)
from barl1.groups import (DirectProduct, FreeGroup, Homomorphism,
                          cyclic_group, diagonal_hom, identity_hom,
                          symmetric_group_perm)
from barl1.l1opt import _row_chain
from barl1.mitosis import (PipelineConfig, mitosis_of_finite_abelian,
                           primitive_pipeline, theta)
from barl1.products import (aw, cross_chain, cross_cochain,
                            cross_tensor, cup, normalize, pair_compat_check,
                            push_tensor, shuffles, tensor_boundary,
                            tensor_elementary, tensor_first_boundary,
                            tensor_second_boundary, xi_fill)
from helpers import (cochain_equal, random_chain, random_cocycle,
                     random_table_cochain)

G2 = cyclic_group(2)
G3 = cyclic_group(3)
P23 = DirectProduct((G2, G3))


def test_shuffle_count_and_signs():
    for p, q in [(0, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
        ss = list(shuffles(p, q))
        assert len(ss) == comb(p + q, p)
        assert all(sign in (1, -1) for _, sign in ss)


def test_cross_two_singletons():
    # (g) x (h) = ((g,e),(e,h)) - ((e,h),(g,e))
    c = cross_chain(Chain.single(G2, (1,)), Chain.single(G3, (1,)))
    assert c == Chain(P23, 2, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1})


def test_cross_with_empty_factor_is_inclusion():
    b = Chain(G3, 2, {(1, 2): 3, (2, 2): -1})
    c = cross_chain(Chain.single(G2, ()), b)
    assert c == Chain(P23, 2, {((0, 1), (0, 2)): 3, ((0, 2), (0, 2)): -1})


def test_cross_leibniz_random():
    rng = random.Random(23)
    for _ in range(150):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        if p + q == 0:
            continue
        a = random_chain(G2, p, rng)
        b = random_chain(G3, q, rng)
        lhs = boundary(cross_chain(a, b))
        rhs = Chain.zero(P23, p + q - 1)
        if p >= 1:
            rhs = rhs + cross_chain(boundary(a), b)
        if q >= 1:
            s = -1 if p % 2 else 1
            rhs = rhs + cross_chain(a, boundary(b)).scale(s)
        assert lhs == rhs


def test_cross_norm_bound():
    rng = random.Random(29)
    for _ in range(50):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        a = random_chain(G2, p, rng)
        b = random_chain(G3, q, rng)
        c = cross_chain(a, b)
        assert l1_norm(c) <= comb(p + q, p) * l1_norm(a) * l1_norm(b)


def test_aw_singleton():
    c = aw(Chain.single(P23, ((1, 2),)))
    expected = (tensor_elementary(Chain.single(G2, ()), Chain.single(G3, (2,)))
                + tensor_elementary(Chain.single(G2, (1,)), Chain.single(G3, ())))
    assert c == expected


def test_aw_cross_hand_identity():
    """aw(cross((g) (x) (h))) has six terms; all but (g)(x)(h) touch an
    identity entry."""
    g, h = 1, 1
    t = aw(cross_chain(Chain.single(G2, (g,)), Chain.single(G3, (h,))))
    e2, e3 = G2.identity(), G3.identity()
    expected = {
        ((g,), (h,)): Fraction(1),
        ((), (e3, h)): Fraction(1),
        ((g, e2), ()): Fraction(1),
        ((), (h, e3)): Fraction(-1),
        ((e2,), (e3,)): Fraction(-1),
        ((e2, g), ()): Fraction(-1),
    }
    assert t.coeffs == expected


def test_aw_is_chain_map():
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randrange(1, 4)
        c = random_chain(P23, k, rng)
        assert tensor_boundary(aw(c)) == aw(boundary(c))


def test_aw_norm_bound():
    rng = random.Random(37)
    for _ in range(50):
        k = rng.randrange(0, 4)
        c = random_chain(P23, k, rng)
        assert l1_norm(aw(c)) <= (k + 1) * l1_norm(c)


def test_normalize_kills_identity_tuples():
    c = Chain(G2, 2, {(1, 0): 5, (1, 1): 2})
    n = normalize(c)
    assert n == Chain(G2, 2, {(1, 1): 2})
    assert normalize(n) == n


def test_normalize_descends_along_boundary():
    rng = random.Random(41)
    for _ in range(80):
        k = rng.randrange(1, 4)
        c = random_chain(G3, k, rng)
        assert normalize(boundary(c)) == normalize(boundary(normalize(c)))


def test_normalized_aw_cross_is_identity():
    rng = random.Random(43)
    for _ in range(150):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        a = random_chain(G2, p, rng)
        b = random_chain(G3, q, rng)
        t = tensor_elementary(a, b)
        lhs = normalize(aw(cross_tensor(t)))
        assert lhs == normalize(t)


def test_tensor_boundary_koszul_squares_to_zero():
    rng = random.Random(47)
    for _ in range(60):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        if p + q < 2:
            continue
        t = tensor_elementary(random_chain(G2, p, rng), random_chain(G3, q, rng))
        assert tensor_boundary(tensor_boundary(t)).is_zero()


def test_tensor_norm_multiplicative_on_basis_tensors():
    a = Chain(G2, 1, {(1,): 2, (0,): 1})
    b = Chain(G3, 1, {(2,): Fraction(1, 2)})
    assert l1_norm(tensor_elementary(a, b)) == l1_norm(a) * l1_norm(b)


def test_producers_equal_the_validating_constructor():
    # each producer sums its terms as the validating constructors do
    # and keeps no zero coefficient; identity entries, trivial homs and
    # repeated tuples make terms collide and cancel
    rng = random.Random(31)
    e2, e3 = G2.identity(), G3.identity()
    to3 = Homomorphism(G2, G3, lambda g: e3)
    to2 = Homomorphism(G3, G2, lambda g: e2)

    def same(x, terms):
        assert x == type(x)(x.space, x.degree, terms)
        assert all(x.coeffs.values())

    def faces(G, tup, r):
        return [(f, s * r) for f, s in tuple_boundary(G, tup)] if tup else []

    def shuffled(x, y, r):
        out = []
        for pos, sign in shuffles(len(x), len(y)):
            ix, iy = iter(x), iter(y)
            out.append((tuple((next(ix), e3) if k in pos else (e2, next(iy))
                              for k in range(len(x) + len(y))), sign * r))
        return out

    rows = boundary_matrix(G2, 4).rows
    for _ in range(25):
        a = random_chain(G2, 2, rng, terms=4)
        a2 = random_chain(G2, 2, rng, terms=4)
        b = random_chain(G3, 1, rng, terms=3)
        c = random_chain(P23, 2, rng, terms=6)
        t = tensor_elementary(a, b) + tensor_elementary(
            random_chain(G2, 1, rng), random_chain(G3, 2, rng))
        ab = [((x, y), r * s) for x, r in a.coeffs.items()
              for y, s in b.coeffs.items()]
        tt = list(t.coeffs.items())
        same(a + a2, list(a.coeffs.items()) + list(a2.coeffs.items()))
        same(a - a, [])
        same(a.scale(0), [])
        same(boundary(a), [v for x, r in a.coeffs.items()
                           for v in faces(G2, x, r)])
        same(push_chain(to2, b), [((e2,), r) for r in b.coeffs.values()])
        same(theta(a, 1), [(x[:j - 1] + (1,) + x[j - 1:], (-1) ** j * r)
                           for x, r in a.coeffs.items() for j in range(1, 4)])
        vec = [rng.choice((0, 0, 1, -2)) for _ in range(8)]
        same(_row_chain(G2, 3, rows, vec), list(zip(rows, vec)))
        same(tensor_elementary(a, b), ab)
        d1 = [((f, y), v) for (x, y), r in tt for f, v in faces(G2, x, r)]
        d2 = [((x, f), v) for (x, y), r in tt for f, v in faces(G3, y, r)]
        same(tensor_first_boundary(t), d1)
        same(tensor_second_boundary(t), d2)
        same(tensor_boundary(t),
             d1 + [((x, f), (-1) ** len(x) * v) for (x, f), v in d2])
        same(push_tensor(to3, to2, t),
             [((tuple(to3(g) for g in x), tuple(to2(h) for h in y)), r)
              for (x, y), r in tt])
        same(aw(c), [((tuple(g for g, _ in x[:j]), tuple(h for _, h in x[j:])), r)
                     for x, r in c.coeffs.items() for j in range(3)])
        same(cross_chain(a, b), [v for (x, y), r in ab for v in shuffled(x, y, r)])
        assert cross_chain(a, b) == cross_tensor(tensor_elementary(a, b))
        same(cross_tensor(t), [v for (x, y), r in tt for v in shuffled(x, y, r)])
        same(normalize(c), [(x, r) for x, r in c.coeffs.items()
                            if (e2, e3) not in x])
        same(normalize(t), [((x, y), r) for (x, y), r in tt
                            if e2 not in x and e3 not in y])
    assert all(all(row.values()) for row in boundary_matrix(G3, 2).entries)


def test_tensor_component_and_bidegrees():
    t = aw(Chain.single(P23, ((1, 1), (1, 2))))
    assert t.bidegrees() == [(0, 2), (1, 1), (2, 0)]
    mid = t.component(1, 1)
    assert set(mid.bidegrees()) == {(1, 1)}


def test_push_tensor():
    t = tensor_elementary(Chain.single(G2, (1,)), Chain.single(G3, (2,)))
    s = push_tensor(identity_hom(G2), Homomorphism(G3, G3, lambda g: 0), t)
    assert s == tensor_elementary(Chain.single(G2, (1,)), Chain.single(G3, (0,)))


def test_xi_fill_zero_input():
    cert = xi_fill(Chain.zero(G2, 2))
    assert cert.z.is_zero() and cert.c.is_zero() and cert.ratio == 0


def test_xi_fill_z2_boundary():
    z = boundary(Chain.single(G2, (1, 1)))
    cert = xi_fill(z)
    dz = push_chain(diagonal_hom(G2), z)
    target = cross_tensor(aw(dz)) - dz
    assert cert.z == target and boundary(cert.c) == target
    assert cert.verify() == []
    # the pipeline states |xi| / |z| as its xi ratio
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    assert primitive_pipeline(z, cfg).xi_ratio == l1_norm(cert.c) / l1_norm(z)


def test_xi_fill_rejects_non_cycle():
    with pytest.raises(ValueError):
        xi_fill(Chain.single(G2, (1, 1)))


def test_cross_cochain_sign_and_projection():
    f = Cochain(G2, 1, table={(1,): Fraction(3)})
    g = Cochain(G3, 1, table={(2,): Fraction(5)})
    fg = cross_cochain(f, g)
    # p = q = 1 carries the sign (-1)^{pq} = -1
    assert fg.value(((1, 0), (0, 2))) == -15
    assert fg.value(((1, 1), (1, 2))) == -15  # only G-part of 1st, H-part of 2nd
    const = Cochain(G2, 0, table={(): Fraction(2)})
    cg = cross_cochain(const, g)
    assert cg.value(((1, 2),)) == 10  # p = 0: no sign, pullback along p_H


def test_cross_cochain_of_cocycles_is_cocycle():
    rng = random.Random(53)
    for p, q in [(1, 1), (1, 2), (2, 1)]:
        f = random_cocycle(G2, p, rng)
        g = random_cocycle(G3, q, rng)
        dfg = coboundary(cross_cochain(f, g))
        for t in itertools.product(P23.elements(), repeat=p + q + 1):
            assert dfg.value(t) == 0


def test_cup_on_free_rank_one():
    # integer-valued 1-cocycles on Z: f = g = exponent sum; cup gives -mn
    F = FreeGroup(1)
    f = Cochain(F, 1, fn=lambda t: Fraction(sum(t[0])))
    fg = cup(f, f)
    for m, n in [(1, 1), (2, 3), (-1, 4), (0, 2)]:
        wm = (1,) * m if m >= 0 else (-1,) * -m
        wn = (1,) * n if n >= 0 else (-1,) * -n
        assert fg.value((wm, wn)) == -m * n


def test_cup_with_constant_one():
    one = Cochain(G3, 0, table={(): Fraction(1)})
    g = random_table_cochain(G3, 2, random.Random(59))
    assert cochain_equal(cup(one, g), g, G3, 2)
    assert cochain_equal(cup(g, one), g, G3, 2)


def test_cup_associative():
    rng = random.Random(61)
    S3 = symmetric_group_perm(3)
    for _ in range(10):
        p, q, r = rng.randrange(0, 3), rng.randrange(0, 3), rng.randrange(0, 2)
        f = random_table_cochain(S3, p, rng)
        g = random_table_cochain(S3, q, rng)
        h = random_table_cochain(S3, r, rng)
        lhs = cup(cup(f, g), h)
        rhs = cup(f, cup(g, h))
        tuples = [tuple(S3.sample(rng) for _ in range(p + q + r))
                  for _ in range(25)]
        assert all(lhs.value(t) == rhs.value(t) for t in tuples)


def test_cup_leibniz_signs():
    """With the (-1)^{pq} cross convention the coboundary satisfies
    d(f u g) = (-1)^q df u g + f u dg; the front sign rides on the
    second factor's degree.  Checked exactly on S_3 tables."""
    rng = random.Random(67)
    S3 = symmetric_group_perm(3)
    for p, q in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2)]:
        f = random_table_cochain(S3, p, rng)
        g = random_table_cochain(S3, q, rng)
        lhs = coboundary(cup(f, g))
        a = cup(coboundary(f), g)
        b = cup(f, coboundary(g))
        s = -1 if q % 2 else 1
        tuples = [tuple(S3.sample(rng) for _ in range(p + q + 1))
                  for _ in range(40)]
        for t in tuples:
            assert lhs.value(t) == s * a.value(t) + b.value(t)


def test_pair_compat_zero_chain():
    f = random_cocycle(G2, 1, random.Random(71))
    g = random_cocycle(G3, 1, random.Random(72))
    rep = pair_compat_check(f, g, Chain.zero(G2, 1), Chain.zero(G3, 1))
    assert rep.ok and rep.lhs == 0 and rep.rhs == 0


def test_pair_compat_nonzero_cases():
    rng = random.Random(73)
    seen_nonzero = 0
    for _ in range(100):
        p = rng.choice([0, 1, 2])
        q = rng.choice([0, 1, 2])
        f = random_cocycle(G2, p, rng)
        g = random_cocycle(G3, q, rng)
        c = boundary(random_chain(G2, p + 1, rng)) if p else random_chain(G2, 0, rng)
        d = boundary(random_chain(G3, q + 1, rng)) if q else random_chain(G3, 0, rng)
        rep = pair_compat_check(f, g, c, d)
        assert rep.ok, (p, q, rep.lhs, rep.rhs)
        if rep.lhs != 0:
            seen_nonzero += 1
    assert seen_nonzero > 0
