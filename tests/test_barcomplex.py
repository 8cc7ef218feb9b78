import itertools
import random
from fractions import Fraction

import pytest

from barl1 import barcomplex
from barl1.barcomplex import (Chain, Cochain, SizeCapError, betti, boundary,
                              boundary_matrix, coboundary, is_cycle,
                              kronecker, l1_norm, push_chain, tuple_basis)
from barl1.groups import (FreeGroup, Homomorphism, build_hom, cyclic_group,
                          symmetric_group_perm)
from barl1.products import TensorChain
from helpers import dense_rows, finite_backends, random_chain


def test_boundary_formula_z3():
    # d(g1,g2) = (g2) - (g1 g2) + (g1), by hand over Z/3
    G = cyclic_group(3)
    dc = boundary(Chain.single(G, (1, 2)))
    assert dc == Chain(G, 1, {(2,): 1, (0,): -1, (1,): 1})


def test_boundary_degree_one_is_zero():
    G = cyclic_group(5)
    rng = random.Random(0)
    for _ in range(20):
        assert boundary(random_chain(G, 1, rng)).is_zero()


def test_boundary_degree_zero_raises():
    G = cyclic_group(2)
    with pytest.raises(ValueError):
        boundary(Chain.single(G, ()))


def test_dd_zero_exhaustive_small():
    for G in (cyclic_group(2), cyclic_group(3)):
        for k in (2, 3):
            for tup in itertools.product(G.elements(), repeat=k):
                assert boundary(boundary(Chain.single(G, tup))).is_zero()


def test_dd_zero_random_free():
    F = FreeGroup(2)
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randrange(2, 6)
        c = random_chain(F, k, rng)
        assert boundary(boundary(c)).is_zero()


def test_boundary_norm_bound():
    rng = random.Random(5)
    G = symmetric_group_perm(3)
    for _ in range(100):
        k = rng.randrange(1, 5)
        c = random_chain(G, k, rng)
        assert l1_norm(boundary(c)) <= (k + 1) * l1_norm(c)


def test_float_coefficients_rejected():
    G = cyclic_group(2)
    with pytest.raises(TypeError):
        Chain(G, 1, {(1,): 0.5})
    with pytest.raises(TypeError):
        Chain.single(G, (1,)).scale(0.5)
    with pytest.raises(TypeError):
        Cochain(G, 0, table={(): 1.5})
    with pytest.raises(TypeError):
        TensorChain((G, G), 1, {((1,), ()): 0.5})
    with pytest.raises(TypeError):
        TensorChain((G, G), 1, {((1,), ()): 1}).scale(0.25)


def test_chain_algebra():
    G = cyclic_group(3)
    a = Chain(G, 1, {(1,): Fraction(1, 2), (2,): 1})
    b = Chain(G, 1, {(1,): Fraction(-1, 2)})
    assert (a + b) == Chain(G, 1, {(2,): 1})
    assert (a - a).is_zero()
    assert 3 * b == Chain(G, 1, {(1,): Fraction(-3, 2)})
    assert l1_norm(a) == Fraction(3, 2)
    with pytest.raises(ValueError):
        a + Chain(G, 2)


def test_scaling_keeps_integral_values_ints():
    G = cyclic_group(3)
    doubled = 2 * Chain(G, 1, {(1,): Fraction(1, 2), (2,): Fraction(1, 3)})
    assert type(doubled.coeffs[(1,)]) is int and doubled.coeffs[(1,)] == 1
    assert doubled.coeffs[(2,)] == Fraction(2, 3)
    halved = Chain.single(G, (1,), 4).scale(Fraction(1, 2))
    assert halved.coeffs == {(1,): 2} and type(halved.coeffs[(1,)]) is int


def test_l1_norm_matches_the_fraction_sum():
    # integer numerators over one lcm give the plain sum of |r|
    rng = random.Random(23)
    coeffs = [1, -2, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 6),
              Fraction(-3, 4), Fraction(1, 9)]
    chains = [Chain.zero(cyclic_group(3), 2)]
    for G in (cyclic_group(3), symmetric_group_perm(3)):
        for k in (1, 2, 3):
            chains += [barcomplex.random_chain(G, k, rng, rng.randrange(1, 8),
                                               coeffs) for _ in range(10)]
    assert any(type(r) is int for c in chains for r in c.coeffs.values())
    for c in chains:
        norm = l1_norm(c)
        assert norm == sum((abs(r) for r in c.coeffs.values()), Fraction(0))
        assert type(norm) is Fraction


def test_is_cycle():
    G = cyclic_group(4)
    z = boundary(Chain.single(G, (1, 2, 3)))
    assert is_cycle(z)
    assert not is_cycle(Chain.single(G, (1, 1)))


def test_push_chain_is_chain_map_and_nonexpansive():
    G2, G4 = cyclic_group(2), cyclic_group(4)
    h = build_hom(G2, G4, fn=lambda g: 2 * g)
    rng = random.Random(8)
    for _ in range(50):
        k = rng.randrange(1, 4)
        c = random_chain(G2, k, rng)
        assert push_chain(h, boundary(c)) == boundary(push_chain(h, c))
        assert l1_norm(push_chain(h, c)) <= l1_norm(c)


def test_push_chain_collision_combining():
    # a trivial hom funnels every tuple to the identity tuple
    G = cyclic_group(3)
    T = cyclic_group(1)
    c = Chain(G, 2, {(1, 2): 1, (2, 1): 1, (0, 0): -2})
    trivial = Homomorphism(G, T, lambda g: T.identity())
    assert push_chain(trivial, c).is_zero()


def test_bool_coefficients_rejected():
    # True is an int to Python, but no chain coefficient
    G = cyclic_group(2)
    with pytest.raises(TypeError, match="bool"):
        Chain(G, 1, {(0,): True})
    with pytest.raises(TypeError, match="bool"):
        Chain.single(G, (1,)).scale(False)
    with pytest.raises(TypeError, match="bool"):
        Cochain(G, 0, table={(): True})
    assert type(Chain(G, 1, {(0,): 2}).coeffs[(0,)]) is int


def test_cochain_table_or_fn_exclusive():
    G = cyclic_group(2)
    with pytest.raises(ValueError):
        Cochain(G, 1)
    with pytest.raises(ValueError):
        Cochain(G, 1, table={}, fn=lambda t: 0)


def test_coboundary_squares_to_zero():
    G = cyclic_group(3)
    rng = random.Random(11)
    tab = {t: Fraction(rng.randrange(-3, 4))
           for t in itertools.product(G.elements(), repeat=1)}
    f = Cochain(G, 1, table=tab)
    ddf = coboundary(coboundary(f))
    assert all(ddf.value(t) == 0
               for t in itertools.product(G.elements(), repeat=3))


def test_kronecker_adjunction():
    # <df, c> = <f, dc> is the definition of the coboundary
    G = cyclic_group(4)
    rng = random.Random(13)
    tab = {t: Fraction(rng.randrange(-3, 4))
           for t in itertools.product(G.elements(), repeat=2)}
    f = Cochain(G, 2, table=tab)
    for _ in range(30):
        c = random_chain(G, 3, rng)
        assert kronecker(coboundary(f), c) == kronecker(f, boundary(c))


def test_kronecker_bilinear_and_bounded():
    G = cyclic_group(3)
    rng = random.Random(17)
    tab = {t: Fraction(rng.randrange(-2, 3))
           for t in itertools.product(G.elements(), repeat=2)}
    f = Cochain(G, 2, table=tab)
    a = random_chain(G, 2, rng)
    b = random_chain(G, 2, rng)
    assert kronecker(f, a + b) == kronecker(f, a) + kronecker(f, b)
    sup = max((abs(f.value(t)) for t in a.coeffs), default=0)
    assert abs(kronecker(f, a)) <= sup * l1_norm(a)


def test_row_labels_index_the_tuple_basis():
    G = cyclic_group(3)
    for k in (1, 2, 3):
        rows = boundary_matrix(G, k).rows
        basis = tuple_basis(G, k - 1)
        assert len(basis) == len(rows) == 3 ** (k - 1)
        for i, t in enumerate(basis):
            assert rows[t] == i
    # lexicographic in element indices
    basis = tuple_basis(G, 2)
    assert basis[0] == (0, 0)
    assert basis[1] == (0, 1)
    assert basis[3] == (1, 0)


@pytest.mark.parametrize("name", sorted(finite_backends()))
def test_tuple_basis_is_the_product_of_elements(name):
    G = finite_backends()[name]
    assert tuple_basis(G, 2) == list(itertools.product(G.elements(), repeat=2))


def test_tuple_basis_keeps_the_index_tuple_order():
    # LP columns, boundary matrices and certificate bytes follow this
    # order; these tuples were computed by the earlier mixed-radix index
    basis = tuple_basis(symmetric_group_perm(3), 2)
    assert [basis[i] for i in (0, 1, 6, 35)] == [
        ((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 2, 1)),
        ((0, 2, 1), (0, 1, 2)), ((2, 1, 0), (2, 1, 0))]


def test_tuple_basis_size_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        tuple_basis(FreeGroup(1), 1)
    monkeypatch.setenv("BARL1_SIZE_CAP", "27")
    assert len(tuple_basis(cyclic_group(3), 3)) == 27
    monkeypatch.setenv("BARL1_SIZE_CAP", "26")
    with pytest.raises(SizeCapError):
        tuple_basis(cyclic_group(3), 3)


@pytest.mark.parametrize("name", sorted(finite_backends()))
def test_boundary_matrix_rows_are_the_tuple_basis(name):
    # faces are numbered as they first occur; with the identity listed
    # first that is the tuple basis one degree down
    G = finite_backends()[name]
    for k in (1, 2):
        assert list(boundary_matrix(G, k).rows) == tuple_basis(G, k - 1)


def test_boundary_matrix_is_shared_and_capped_on_every_call(monkeypatch):
    G3 = cyclic_group(3)
    d = boundary_matrix(G3, 3)
    assert boundary_matrix(cyclic_group(3), 3) is d
    for cap in ("7", "26"):
        monkeypatch.setenv("BARL1_SIZE_CAP", cap)
        with pytest.raises(SizeCapError):
            boundary_matrix(G3, 3)
    monkeypatch.setenv("BARL1_SIZE_CAP", "27")
    assert boundary_matrix(G3, 3) is d


def test_boundary_matrix_composes_to_zero():
    G = cyclic_group(3)
    m2 = dense_rows(boundary_matrix(G, 2))
    m3 = dense_rows(boundary_matrix(G, 3))
    n1, n2, n3 = 3, 9, 27
    prod = [[sum(m2[i][k] * m3[k][j] for k in range(n2))
             for j in range(n3)] for i in range(n1)]
    assert all(v == 0 for row in prod for v in row)


def test_boundary_matrix_matches_boundary():
    G = cyclic_group(2)
    bm = boundary_matrix(G, 2)
    rows = dense_rows(bm)
    for j, t in enumerate(tuple_basis(G, 2)):
        assert bm.cols[j] == t
        col = [0] * 2
        for face, r in boundary(Chain.single(G, t)).terms():
            col[bm.rows[face]] = r
        assert [rows[i][j] for i in range(2)] == col


def test_chain_vector_round_trip():
    G = cyclic_group(3)
    rows = boundary_matrix(G, 3).rows
    rng = random.Random(19)
    for _ in range(20):
        c = random_chain(G, 2, rng)
        v = [0] * 9
        for t, r in c.terms():
            v[rows[t]] = r
        assert Chain(G, 2, zip(rows, v)) == c


def test_betti_finite_groups_vanish():
    assert betti(cyclic_group(2), 1) == 0
    assert betti(cyclic_group(2), 2) == 0
    assert betti(cyclic_group(1), 1) == 0


def test_betti_size_cap(monkeypatch):
    monkeypatch.setenv("BARL1_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        betti(cyclic_group(10), 3)
    with pytest.raises(SizeCapError):
        boundary_matrix(FreeGroup(1), 2)


def test_coboundary_lazy_on_infinite_group():
    F = FreeGroup(1)
    f = Cochain(F, 0, fn=lambda t: Fraction(1))
    df = coboundary(f)
    assert df.value(((1,),)) == 0  # d_1 = 0 makes every 0-cochain closed
