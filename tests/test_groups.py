import itertools
import random
import re

import pytest

from barl1 import groups
from barl1.fileio import decode_element
from barl1.groups import (DirectProduct, FiniteTableGroup, FreeGroup,
                          FreeProduct, GroupAxiomError, Homomorphism,
                          HomomorphismError, PermutationGroup,
                          SemidirectProduct, build_group, build_hom,
                          check_axioms, compose_homs, conjugation,
                          cyclic_group, diagonal_hom, group_to_spec,
                          identity_hom, is_abelian, pair_hom,
                          symmetric_group_perm, verify_hom)
from helpers import finite_backends, record_calls

def test_cyclic_group_table():
    G = cyclic_group(4)
    assert G.order() == 4
    assert G.identity() == 0
    assert G.mul(3, 2) == 1
    assert G.inv(3) == 1
    assert check_axioms(G)["mode"] == "exhaustive"


def test_bad_table_repeated_row():
    # row 1 repeats row 0, so left multiplication by g1 is not a bijection
    with pytest.raises(GroupAxiomError) as exc:
        FiniteTableGroup([[0, 1], [0, 1]])
    assert "bijection" in str(exc.value) or "identity" in str(exc.value)


def test_table_without_identity():
    with pytest.raises(GroupAxiomError) as exc:
        FiniteTableGroup([[1, 0], [1, 0]])
    assert "identity" in str(exc.value)


def test_nonassociative_latin_square():
    # smallest nonassociative loop with two-sided identity has order 5
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupAxiomError) as exc:
        FiniteTableGroup(table)
    assert "associativity" in str(exc.value)


def test_permutation_group_s3():
    G = symmetric_group_perm(3)
    assert G.order() == 6
    a = (1, 0, 2)
    b = (0, 2, 1)
    # composition convention: (p*q)(i) = p(q(i))
    assert G.mul(a, b) == (1, 2, 0)
    assert G.mul(b, a) == (2, 0, 1)
    assert G.inv((1, 2, 0)) == (2, 0, 1)
    assert not is_abelian(G)


def test_permutation_contains_vs_membership():
    G = PermutationGroup(4, [(1, 0, 2, 3)])
    assert G.order() == 2
    assert not G.contains((0, 1, 3, 2))  # right shape, not in the subgroup
    assert G.contains((1, 0, 2, 3))
    S4 = symmetric_group_perm(4)
    for bad in [(1, 0, 2), (1, 0, 2, 3, 4), (0, 0, 1, 2), (1, 0, 2, 3.0),
                (1, 0, 2, "3"), (True, False, 2, 3), [1, 0, 2, 3]]:
        assert not S4.contains(bad), bad


def test_order_and_membership_match_enumeration():
    rng = random.Random(0)
    groups_ = [symmetric_group_perm(1), PermutationGroup(4, []),
               PermutationGroup(3, [(0, 1, 2)])]
    for n in (4, 5):
        for _ in range(12):
            gens = [tuple(rng.sample(range(n), n))
                    for _ in range(rng.randint(1, 3))]
            groups_.append(PermutationGroup(n, gens))
    for G in groups_:
        # the breadth-first walk over the generators
        members = {G.identity()}
        walk = [G.identity()]
        for a in walk:
            for b in (G.mul(a, g) for g in G.generators):
                if b not in members:
                    members.add(b)
                    walk.append(b)
        assert G.order() == len(members), G.generators
        assert G.elements() == sorted(members)
        for p in itertools.permutations(range(G.degree)):
            assert G.contains(p) == (p in members), (G.generators, p)


@pytest.mark.parametrize("name", sorted(finite_backends()))
def test_permutation_image_is_a_faithful_action(name):
    G = finite_backends()[name]
    els = G.elements()
    image = {a: G.permutation_image(a) for a in els}
    assert len(set(image.values())) == len(els)
    S = symmetric_group_perm(len(image[G.identity()]))
    assert image[G.identity()] == S.identity()
    for a, b in itertools.product(els, repeat=2):
        assert image[G.mul(a, b)] == S.mul(image[a], image[b])


def test_large_symmetric_group_is_decided_without_enumeration():
    G = symmetric_group_perm(10)
    swap = (1, 0) + tuple(range(2, 10))
    assert decode_element(G, ",".join(map(str, swap))) == swap
    assert G.contains(swap) and not G.contains(swap[:9])
    assert G.order() == 3628800
    assert not hasattr(G, "_pos")


def test_cross_backend_isomorphism_s3():
    """The permutation backend of S_3 and its Cayley table backend are
    isomorphic through the index map, checked exhaustively."""
    P = symmetric_group_perm(3)
    els = P.elements()
    T = FiniteTableGroup([[P.element_index(P.mul(a, b)) for b in els]
                          for a in els])
    h = build_hom(P, T, fn=lambda p: P.element_index(p))
    assert verify_hom(h)["mode"] == "exhaustive"
    # bijectivity on 6 elements
    assert sorted(h(p) for p in P.elements()) == list(range(6))


def test_free_group_reduction():
    F = FreeGroup(2)
    x = (1,)
    y = (2,)
    w = F.mul(F.mul(x, y), F.inv(y))
    assert w == x
    assert F.mul(F.inv(x), x) == ()
    assert F.mul((1, 2), (-2, -1)) == ()
    assert not F.is_finite() and F.order() is None


def test_free_group_ball_sizes():
    # 2k(2k-1)^(r-1) new reduced words at radius r for rank k
    F = FreeGroup(2)
    assert len(F.ball(0)) == 1
    assert len(F.ball(1)) == 5
    assert len(F.ball(2)) == 17
    assert len(F.ball(3)) == 53


def test_direct_product():
    G = DirectProduct((cyclic_group(2), cyclic_group(3)))
    assert G.order() == 6
    assert G.mul((1, 2), (1, 2)) == (0, 1)
    assert G.inv((1, 1)) == (1, 2)
    assert is_abelian(G)
    assert len(G.elements()) == 6


def test_free_product_normal_form():
    G = FreeProduct((cyclic_group(2), cyclic_group(2)))
    a = ((0, 1),)
    b = ((1, 1),)
    ab = G.mul(a, b)
    assert ab == ((0, 1), (1, 1))
    # cascading cancellation: a b b a = e since each factor has order 2
    assert G.mul(G.mul(ab, b), a) == ()
    assert not G.is_finite()
    with pytest.raises(GroupAxiomError):
        G.elements()


def test_free_product_with_one_nontrivial_factor_is_enumerated():
    G = FreeProduct((cyclic_group(2), FreeGroup(0)))
    assert G.order() == 2 and G.elements() == [(), ((0, 1),)]
    assert check_axioms(G) == {"mode": "exhaustive", "checked_triples": 8,
                               "order": 2}
    H = FreeProduct((cyclic_group(1), cyclic_group(3)))
    assert H.elements() == [(), ((1, 1),), ((1, 2),)]
    assert [H.element_index(a) for a in H.elements()] == [0, 1, 2]
    assert verify_hom(identity_hom(H))["mode"] == "exhaustive"


def test_semidirect_s3_model():
    # Z/3 x| Z/2 with inversion action is S_3
    base = cyclic_group(3)
    action = PermutationGroup(3, [(0, 2, 1)])
    G = SemidirectProduct(base, action)
    assert G.order() == 6
    assert not is_abelian(G)
    s = (0, (0, 2, 1))
    r = (1, action.identity())
    assert G.mul(s, s) == G.identity()
    # s r s^-1 = r^-1
    assert G.mul(G.mul(s, r), G.inv(s)) == (2, action.identity())


def test_semidirect_rejects_non_automorphism():
    base = cyclic_group(3)
    # the transposition 0<->1 moves the identity, not an automorphism
    action = PermutationGroup(3, [(1, 0, 2)])
    with pytest.raises(GroupAxiomError):
        SemidirectProduct(base, action)


def test_structural_equality_across_copies():
    a = cyclic_group(3)
    b = cyclic_group(3)
    assert a == b and hash(a) == hash(b)
    assert DirectProduct((a, a)) == DirectProduct((b, b))
    assert a != cyclic_group(4)
    assert FreeGroup(2) == FreeGroup(2) != FreeGroup(3)


def test_conjugation_abelian_is_identity():
    G = cyclic_group(5)
    g = conjugation(G, 3)
    assert all(g(x) == x for x in G.elements())


def test_conjugation_s3_permutes_transpositions():
    G = symmetric_group_perm(3)
    transpositions = [p for p in G.elements()
                      if sorted(p) == [0, 1, 2] and p != (0, 1, 2)
                      and G.mul(p, p) == G.identity()]
    assert len(transpositions) == 3
    k = (1, 2, 0)
    gam = conjugation(G, k)
    imgs = sorted(gam(t) for t in transpositions)
    assert imgs == sorted(transpositions)


def test_conjugation_composes():
    G = symmetric_group_perm(3)
    rng = random.Random(2)
    for _ in range(20):
        k, d = G.sample(rng), G.sample(rng)
        lhs = compose_homs(conjugation(G, k), conjugation(G, d))
        rhs = conjugation(G, G.mul(k, d))
        assert all(lhs(x) == rhs(x) for x in G.elements())


def test_verify_hom_rejects_non_hom():
    G = cyclic_group(4)
    bad = Homomorphism(G, G, lambda g: (g * g) % 4, name="square")
    with pytest.raises(HomomorphismError) as exc:
        verify_hom(bad)
    assert "witness" in str(exc.value) or "(" in str(exc.value)


def test_sampled_check_streams_are_pinned():
    """Over an infinite group both law checks sample from Random(0) in a
    fixed draw order; the counts and the first witness pin that stream."""
    F2 = FreeGroup(2)
    assert check_axioms(F2) == {"mode": "sampled", "checked_triples": 300,
                                "order": None}
    assert verify_hom(identity_hom(F2)) == {"mode": "sampled",
                                            "checked_pairs": 10_000}
    bad = Homomorphism(F2, cyclic_group(2), lambda w: int(len(w) == 3),
                       name="bad")
    with pytest.raises(HomomorphismError,
                       match=re.escape("witness pair ((1, 2, 2), (-1, -2))")):
        verify_hom(bad)


def test_build_hom_modes():
    G2, G4 = cyclic_group(2), cyclic_group(4)
    h = build_hom(G2, G4, fn=lambda g: 2 * g)
    assert h(1) == 2
    with pytest.raises(HomomorphismError):
        build_hom(G2, G4, fn=lambda g: g)  # 1+1 must land on 0


def test_hom_combinators():
    G = cyclic_group(3)
    P = DirectProduct((G, G))
    d = diagonal_hom(G)
    p0 = Homomorphism(P, G, lambda a: a[0], name="proj0")
    assert compose_homs(p0, d)(2) == 2
    pr = pair_hom(identity_hom(G), identity_hom(G))
    assert pr((1, 2)) == (1, 2)


def test_build_group_round_trip_all_backends():
    specs = [
        {"type": "finite", "elements": ["e", "t"], "table": [[0, 1], [1, 0]]},
        {"type": "perm", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
        {"type": "free", "rank": 2},
        {"type": "product", "op": "direct",
         "factors": [{"type": "free", "rank": 1},
                     {"type": "finite", "elements": ["0", "1"],
                      "table": [[0, 1], [1, 0]]}]},
        {"type": "product", "op": "free",
         "factors": [{"type": "finite", "elements": ["0", "1"],
                      "table": [[0, 1], [1, 0]]},
                     {"type": "free", "rank": 1}]},
    ]
    for spec in specs:
        G = build_group(spec)
        again = build_group(group_to_spec(G))
        assert G == again


def test_build_group_semidirect_round_trip():
    base = cyclic_group(3)
    action = PermutationGroup(3, [(0, 2, 1)])
    G = SemidirectProduct(base, action)
    spec = group_to_spec(G)
    assert spec["type"] == "semidirect"
    assert build_group(spec) == G


def test_build_group_bad_records():
    with pytest.raises(GroupAxiomError):
        build_group({"no": "type"})
    with pytest.raises(GroupAxiomError):
        build_group({"type": "product", "op": "tensor", "factors": []})
    with pytest.raises(GroupAxiomError):
        build_group({"type": "nope"})


def test_is_abelian_witness():
    G = symmetric_group_perm(3)
    flag, pair = is_abelian(G, witness=True)
    assert not flag
    a, b = pair
    assert G.mul(a, b) != G.mul(b, a)


def test_sample_stays_in_group():
    rng = random.Random(7)
    for G in (cyclic_group(6), symmetric_group_perm(3), FreeGroup(2),
              DirectProduct((cyclic_group(2), cyclic_group(2)))):
        for _ in range(50):
            assert G.contains(G.sample(rng))


def test_check_member_raises():
    G = cyclic_group(2)
    with pytest.raises(GroupAxiomError):
        G.check_member(5)


@pytest.mark.parametrize("name", sorted(finite_backends()))
def test_element_index_runs_along_elements(name):
    G = finite_backends()[name]
    els = G.elements()
    assert len(els) == G.order()
    assert [G.element_index(a) for a in els] == list(range(G.order()))
    els.append(None)  # elements() hands out a fresh list
    assert len(G.elements()) == G.order()


def test_permutation_group_builds_one_chain(monkeypatch):
    # membership, order, the element list and sampling all read the one
    # stabilizer chain; sampling lists no element
    chains = record_calls(monkeypatch, groups, "_schreier_sims")
    G = symmetric_group_perm(4)
    assert G.contains((1, 0, 2, 3)) and not G.contains((0, 0, 1, 2))
    assert G.order() == 24
    assert G.element_index(G.elements()[5]) == 5
    rng = random.Random(3)
    assert {G.sample(rng) for _ in range(300)} == set(G.elements())
    assert len(chains) == 1
    S8 = symmetric_group_perm(8)
    assert check_axioms(S8) == {"mode": "sampled", "checked_triples": 300,
                                "order": 40320}
    assert not hasattr(S8, "_pos") and len(chains) == 2
