import copy
import hashlib
import inspect
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from barl1 import barcomplex, l1opt, linalg
from barl1.barcomplex import (Chain, SizeCapError, betti, boundary,
                              boundary_matrix, l1_norm, push_chain,
                              tuple_basis)
from barl1.fileio import (dump_json, fill_cert_to_dict, kappa_to_dict,
                          verify_certificate_dict)
from barl1.groups import (DirectProduct, FiniteTableGroup, FreeGroup,
                          GroupOracle, build_hom, cyclic_group, diagonal_hom,
                          identity_hom, symmetric_group_perm)
from barl1.l1opt import (Infeasible, LpProblem, SupportExhausted, circuits,
                         fill_min, is_boundary, lp_solve, ubc_kappa_exact)
from barl1.mitosis import (PipelineConfig, mitosis_of_finite_abelian,
                           primitive_pipeline)
from barl1.products import aw, cross_tensor
from helpers import (averaged_cone, brute_lp_min, circuits_by_subsets,
                     column_span_oracle, dense_rows, random_chain, rank_int,
                     record_calls)

G1 = cyclic_group(1)
G2 = cyclic_group(2)
G3 = cyclic_group(3)
S3 = symmetric_group_perm(3)


def test_lp_basic_optimal():
    res = lp_solve(LpProblem(((1, -1),), (1,), (1, 1)))
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == [Fraction(1), Fraction(0)]


def test_lp_infeasible():
    res = lp_solve(LpProblem(((1, 1),), (-1,), (1, 1)))
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve(LpProblem(((1, -1),), (0,), (-1, 0)))
    assert res.status == "unbounded"


def test_lp_no_rows():
    assert lp_solve(LpProblem((), (), (1, 2))).objective == 0
    assert lp_solve(LpProblem((), (), (-1,))).status == "unbounded"


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LpProblem(((1, 2),), (1, 2), (1, 1))
    with pytest.raises(ValueError):
        LpProblem(((1,),), (1,), (1, 1))


def test_lp_rejects_floats():
    # 0.1 is not 1/10 in binary; the exact LP must not solve its image
    with pytest.raises(TypeError, match="float"):
        lp_solve(LpProblem(((1.0, 1.0),), (0.1,), (1.0, 2.0)))
    for prob in (LpProblem(((1, 1),), (0.5,), (1, 2)),
                 LpProblem(({1: 0.5},), (1,), (1, 2)),
                 LpProblem(((1, 1),), (1,), (1, 0.5)),
                 LpProblem((), (), (0.5,))):
        with pytest.raises(TypeError, match="float"):
            lp_solve(prob)
    assert lp_solve(LpProblem(((1, 1),), ("1/2",), (1, 2))).objective == \
        Fraction(1, 2)


def test_lp_rejects_bools():
    for prob in (LpProblem(((1, True),), (1,), (1, 2)),
                 LpProblem(({0: True},), (1,), (1, 2)),
                 LpProblem(((1, 1),), (True,), (1, 2)),
                 LpProblem(((1, 1),), (1,), (1, True))):
        with pytest.raises(TypeError, match="bool"):
            lp_solve(prob)


def test_lp_mapping_rows():
    # {column: value} rows solve as their dense rows do, dual included,
    # are checked against the column count, and hash by their entries
    rng = random.Random(7)
    for _ in range(30):
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(8))
                     for _ in range(4))
        rhs = tuple(rng.randrange(-4, 5) for _ in range(4))
        obj = tuple(rng.randrange(-1, 5) for _ in range(8))
        sparse = tuple({j: v for j, v in enumerate(r) if v} for r in rows)
        assert lp_solve(LpProblem(sparse, rhs, obj)) == lp_solve(
            LpProblem(rows, rhs, obj))
    with pytest.raises(ValueError):
        LpProblem(({2: 1},), (1,), (1, 1))
    assert (hash(LpProblem(({0: 1, 1: -1},), (1,), (1, 1)))
            == hash(LpProblem(({1: -1, 0: 1},), (1,), (1, 1))))


def test_lp_against_basis_enumeration():
    # positive objectives keep everything bounded, so the optimum (when
    # feasible) sits on a basic solution the brute force will visit
    rng = random.Random(5)
    optima = 0
    for _ in range(50):
        m, n = 4, 8
        rows = tuple(tuple(Fraction(rng.randrange(-3, 4)) for _ in range(n))
                     for _ in range(m))
        rhs = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(m))
        obj = tuple(Fraction(rng.randrange(1, 5)) for _ in range(n))
        res = lp_solve(LpProblem(rows, rhs, obj))
        ref = brute_lp_min(rows, rhs, obj)
        if ref is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == ref
            optima += 1
    assert optima >= 10


def test_lp_dual_certificates_midsize():
    """On 20x40 instances the returned dual must certify the optimum on
    the caller's own rows and rhs: A^T y <= c exactly and y.b equal to
    the objective."""
    rng = random.Random(7)
    for _ in range(10):
        m, n = 20, 40
        rows = [[Fraction(rng.randrange(-2, 3)) for _ in range(n)]
                for _ in range(m)]
        x0 = [Fraction(rng.randrange(0, 3)) for _ in range(n)]
        rhs = [sum(rows[i][j] * x0[j] for j in range(n)) for i in range(m)]
        obj = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
        res = lp_solve(LpProblem(tuple(map(tuple, rows)), tuple(rhs),
                                 tuple(obj)))
        assert res.status == "optimal"
        # rows with negative rhs are where a sign-flipped dual would fail
        assert any(b < 0 for b in rhs)
        y = res.dual
        assert sum(y[i] * rhs[i] for i in range(m)) == res.objective
        for j in range(n):
            assert sum(y[i] * rows[i][j] for i in range(m)) <= obj[j]
        assert sum(obj[j] * res.x[j] for j in range(n)) == res.objective


def test_lp_deterministic():
    rng = random.Random(11)
    rows = tuple(tuple(rng.randrange(-2, 3) for _ in range(12))
                 for _ in range(6))
    rhs = tuple(rng.randrange(0, 3) for _ in range(6))
    obj = tuple(rng.randrange(1, 4) for _ in range(12))
    first = lp_solve(LpProblem(rows, rhs, obj))
    second = lp_solve(LpProblem(rows, rhs, obj))
    assert first.x == second.x and first.objective == second.objective


def _xi_target(z):
    """The degree-2 boundary over G x G that xi_fill fills for the cycle z."""
    dz = push_chain(diagonal_hom(z.group), z)
    return cross_tensor(aw(dz)) - dz


def _l1_program(z):
    """The l1 program [D | -D] x = z, x >= 0 of a filling of z, D the
    boundary matrix of z's group one degree up (column j is u_j, column
    S + j is w_j)."""
    d = boundary_matrix(z.group, z.degree + 1)
    S = len(d.cols)
    rows = tuple({**row, **{S + j: -v for j, v in row.items()}}
                 for row in d.entries)
    rhs = [Fraction(0)] * len(rows)
    for tup, r in z.coeffs.items():
        rhs[d.rows[tup]] = r
    return LpProblem(rows, tuple(rhs), (Fraction(1),) * (2 * S))


def _xi_fill_problem():
    """The 16x128 LP of xi_fill for one fixed Z/2 degree-2 cycle."""
    prob = _l1_program(_xi_target(boundary(Chain(
        G2, 3, {(1, 1, 0): Fraction(1), (0, 1, 1): Fraction(-2)}))))
    assert (len(prob.rows), len(prob.objective)) == (16, 128)
    return prob


def _pinned_problems():
    rng = random.Random(41)
    probs = []
    for _ in range(40):
        # small entries make ratio and entering ties common; negative
        # rhs rows get flipped; some costs are negative (unbounded cases)
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(8))
                     for _ in range(4))
        rhs = tuple(rng.randrange(-4, 5) for _ in range(4))
        obj = tuple(rng.randrange(-1, 5) for _ in range(8))
        probs.append(LpProblem(rows, rhs, obj))
    for _ in range(3):
        m, n = 20, 40
        rows = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randrange(0, 3)) for _ in range(n)]
        rhs = [sum(rows[i][j] * x0[j] for j in range(n)) for i in range(m)]
        obj = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
        probs.append(LpProblem(tuple(map(tuple, rows)), tuple(rhs),
                               tuple(obj)))
    probs.append(LpProblem(((1, 1),), (-1,), (1, 1)))
    probs.append(LpProblem(((1, -1),), (0,), (-1, 0)))
    # row 1 is twice row 0: its artificial stays basic at level 0 and
    # the row is dropped
    probs.append(LpProblem(((1, 1, 0), (2, 2, 0), (0, 1, 1)), (1, 2, 1),
                           (1, 2, 3)))
    probs.append(_xi_fill_problem())
    return probs


def test_lp_pinned_outputs():
    """Status, x and objective over a fixed batch hash to a pinned value,
    so any change of pivot under ties, or of a redundant-row or
    artificial-variable decision, shows."""
    out = []
    for prob in _pinned_problems():
        res = lp_solve(prob)
        out.append([res.status,
                    None if res.x is None else [str(v) for v in res.x],
                    None if res.objective is None else str(res.objective)])
    statuses = {r[0] for r in out}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == (
        "c018e6221dd95a7b4f838daf35f25e02330837299c9836908994091f50179227")


def test_fill_min_z2_hand_example():
    # d(t,t) = 2(t) - (e); the unique minimal primitive is (t,t) itself
    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    cert = fill_min(z)
    assert cert.c == Chain.single(G2, (1, 1))
    assert l1_norm(cert.c) == 1
    assert cert.ratio == Fraction(1, 3)
    assert cert.verify() == []


def test_fill_min_z2_single_generator():
    cert = fill_min(Chain.single(G2, (1,)))
    assert l1_norm(cert.c) == 1
    assert cert.ratio == 1
    assert boundary(cert.c) == Chain.single(G2, (1,))


def test_fill_min_never_beats_given_primitive():
    rng = random.Random(13)
    for _ in range(30):
        c0 = random_chain(G3, 2, rng)
        z = boundary(c0)
        if z.is_zero():
            continue
        cert = fill_min(z)
        assert boundary(cert.c) == z
        assert l1_norm(cert.c) <= l1_norm(c0)


def test_fill_min_stable_under_cycle_perturbations():
    rng = random.Random(17)
    for _ in range(40):
        z = boundary(random_chain(G2, 2, rng))
        if z.is_zero():
            continue
        cert = fill_min(z)
        w = boundary(random_chain(G2, 3, rng))
        assert l1_norm(cert.c + w) >= l1_norm(cert.c)


def test_fill_min_degree_zero_rejected():
    with pytest.raises(ValueError):
        fill_min(Chain.single(G2, ()))


def test_fill_min_zero_chain():
    cert = fill_min(Chain.zero(G3, 2))
    assert cert.c.is_zero() and cert.ratio == 0
    assert cert.verify() == []


def test_fill_min_checks_no_membership(monkeypatch):
    # every support tuple comes from G.elements(), so none is checked again
    z = boundary(Chain.single(G2, (1, 1, 1)))
    calls = []
    check = GroupOracle.check_member
    monkeypatch.setattr(GroupOracle, "check_member",
                        lambda G, a: calls.append(a) or check(G, a))
    cert = fill_min(z)
    assert calls == []
    assert cert.verify() == [] and cert.ratio > 0


def test_fill_min_verifies_its_certificate_once(monkeypatch):
    checks = record_calls(monkeypatch, l1opt.FillCertificate, "verify")
    for z in (boundary(Chain.single(G2, (1, 1, 1))), Chain.zero(G3, 2)):
        cert = fill_min(z)
        assert checks == [cert]
        checks.clear()


def test_fill_min_solver_bug_fails_its_verify(monkeypatch):
    # a filling that does not fill z is a bug, named by verify()
    solve = l1opt._solve_fill
    monkeypatch.setattr(l1opt, "_solve_fill",
                        lambda z, d: solve(z, d).scale(2))
    with pytest.raises(AssertionError, match=r"boundary mismatch.*bug"):
        fill_min(boundary(Chain.single(G2, (1, 1, 1))))


def test_filling_check_rejects_scaled_forgeries():
    mismatch = ["boundary mismatch: d(c) != target"]
    # a fill of a half-integral z, off by (1/7)(1,1), a denominator that
    # no other coefficient has: the lcm must cover c as well as z
    z = boundary(Chain(G3, 2, {(1, 2): Fraction(1, 2)}))
    cert = fill_min(z)
    bad = cert.c + Chain(G3, 2, {(1, 1): Fraction(1, 7)})
    assert all(r.denominator in (1, 2) for r in list(cert.c.coeffs.values())
               + list(z.coeffs.values()))
    ratio = l1_norm(bad) / l1_norm(z)
    assert l1opt.filling_failures(bad, z, z, ratio) == mismatch
    assert l1opt.FillCertificate(z, bad, ratio, cert.support).verify() == mismatch
    # the same labels over another group: Z/4 against Z/2 x Z/2
    G4 = cyclic_group(4)
    V4 = FiniteTableGroup([[i ^ j for j in range(4)] for i in range(4)],
                          names=["0", "1", "2", "3"])
    c = Chain(G4, 2, {(1, 2): 1, (3, 3): Fraction(-1, 3)})
    other = Chain(V4, 1, boundary(c).coeffs)
    ratio = l1_norm(c) / l1_norm(other)
    assert l1opt.filling_failures(c, other, other, ratio) == mismatch
    # c = 0 has d(c) = 0 in degree 1, not in degree 2
    zero = Chain.zero(G3, 2)
    assert l1opt.filling_failures(zero, zero, zero, 0) == mismatch


def test_fill_min_of_an_integral_fraction_sum():
    # 1/2 + 1/2 sums to a Fraction whose denominator is 1; its fill is
    # the fill of the int 1, byte for byte
    half = Chain(G3, 1, {(1,): Fraction(1, 2)})
    z = half + half
    assert type(z.coeffs[(1,)]) is Fraction
    assert (fill_cert_to_dict(fill_min(z))
            == fill_cert_to_dict(fill_min(Chain.single(G3, (1,)))))


def test_fill_min_non_boundary_is_infeasible():
    # (1, 1) over Z/2 is no cycle, so no filling exists over the full support
    with pytest.raises(Infeasible):
        fill_min(Chain.single(G2, (1, 1)))


def _xi_targets(n, seed):
    rng = random.Random(seed)
    targets = []
    while len(targets) < n:
        z = boundary(random_chain(G2, 3, rng, terms=2))
        if not z.is_zero():
            targets.append(_xi_target(z))
    return targets


def test_engine_fills_are_cold_optima():
    # every fill of the dual kernel has the l1 norm of lp_solve's
    # two-phase primal optimum of the same program
    targets = _xi_targets(12, 71)
    targets += [cert.z for cert in ubc_kappa_exact(G3, 2).certificates]
    assert len(targets) == 12 + 21
    for z in targets:
        cert = fill_min(z)
        assert l1_norm(cert.c) == lp_solve(_l1_program(z)).objective


def test_engine_certificates_do_not_depend_on_call_order():
    (z,) = _xi_targets(1, 73)
    first = dump_json(fill_cert_to_dict(fill_min(z)))
    for other in _xi_targets(20, 79):
        fill_min(other)
    assert dump_json(fill_cert_to_dict(fill_min(z))) == first


def test_no_fill_calls_lp_solve(monkeypatch):
    # every fill, finite or free, is one run of the l1 kernel; lp_solve
    # is only the reference the tests compare against
    calls = record_calls(monkeypatch, l1opt, "lp_solve")
    kernel = record_calls(monkeypatch, l1opt, "_l1_simplex")
    fill_min(boundary(Chain.single(G2, (1, 1, 1))))
    fill_min(boundary(Chain.single(FreeGroup(1), ((1,), (1,)))))
    with pytest.raises(Infeasible):
        fill_min(Chain.single(G2, (1, 1)))
    assert calls == [] and len(kernel) == 3


def test_fill_min_free_group_rank_two_commutator():
    # d(x1, x2) = (x2) - (x1 x2) + (x1) is filled by (x1, x2) itself on
    # the radius-3 ball, 2809 tuples
    F2 = FreeGroup(2)
    cert = fill_min(boundary(Chain.single(F2, ((1,), (2,)))))
    assert cert.ratio == Fraction(1, 3)
    assert cert.support == {"kind": "ball", "radius": 3, "size": 2809}


def test_z3_degree_two_pipeline_certificate():
    # its xi fill is over the 81 x 729 matrix of (Z/3 x Z/3, 3)
    h = identity_hom(G3)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G3))
    z = boundary(Chain(G3, 3, {(2, 0, 1): 1, (1, 2, 0): -1}))
    cert = primitive_pipeline(z, cfg)
    assert (cert.kappa, cert.xi_ratio, cert.bound) == (1, 2, 1190)
    assert cert.verify() == []


def test_is_boundary_basics():
    rng = random.Random(19)
    z = boundary(random_chain(G3, 2, rng))
    assert is_boundary(z)
    assert not is_boundary(Chain.single(G2, ()))
    assert is_boundary(Chain.zero(G2, 0))


def test_is_boundary_matches_rank_oracle():
    in_span = column_span_oracle(boundary_matrix(G3, 3))
    rng = random.Random(23)
    hits = {True: 0, False: 0}
    for k in range(20):
        z = (boundary(random_chain(G3, 3, rng)) if k % 2
             else random_chain(G3, 2, rng))
        expected = in_span(z)
        assert is_boundary(z) == expected
        hits[expected] += 1
    assert hits[True] and hits[False]


@pytest.mark.parametrize("G", [G2, G3, S3], ids=["Z2", "Z3", "S3"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_is_boundary_matches_span_oracle(G, q):
    # rational acyclicity: over a finite group the verdict is is_cycle,
    # checked here against membership in the column span of d_{q+1}
    in_span = column_span_oracle(boundary_matrix(G, q + 1))
    rng = random.Random(37 + q)
    hits = {True: 0, False: 0}
    for k in range(10):
        z = (boundary(random_chain(G, q + 1, rng)) if k % 2
             else random_chain(G, q, rng))
        expected = in_span(z)
        assert is_boundary(z) == expected
        hits[expected] += 1
    assert hits[True]
    # in degree 1 every chain is a cycle, hence a boundary
    assert hits[False] or q == 1


def test_is_boundary_free_group():
    # over a free group the verdict comes from H_1(F; Q) = Q^rank;
    # the generator class spans H_1(Z; Q) = Q, so it is no boundary
    F = FreeGroup(1)
    assert is_boundary(boundary(Chain.single(F, ((1,), (1,)))))
    assert not is_boundary(Chain.single(F, ((1,),)))


def test_is_boundary_free_group_rank_two():
    # degree >= 2: boundary iff cycle; degree 1: H_1(F_2; Q) = Q^2 by
    # coefficient-weighted exponent sums.  No LP runs: the radius-3 word
    # ball alone would give the first call 2809 support tuples
    F = FreeGroup(2)
    start = time.perf_counter()
    assert is_boundary(boundary(Chain.single(F, ((1,), (1,)))))
    assert time.perf_counter() - start < 1
    assert not is_boundary(Chain.single(F, ((1,),)))
    assert is_boundary(Chain(F, 1, {((1, 2),): 1, ((2, 1),): -1}))
    assert not is_boundary(Chain(F, 1, {((1, 2),): 1, ((2, 2),): -1}))
    assert not is_boundary(Chain.single(F, ((1,), (2,))))  # no cycle


def test_is_boundary_free_group_agrees_with_fill_min(monkeypatch):
    # over F_1, on short words, the verdict from homology matches the LP
    # search over the radius-3 word ball, both ways
    monkeypatch.setattr(l1opt, "MAX_RADIUS", 3)
    F = FreeGroup(1)
    words = F.ball(1)
    rng = random.Random(47)

    def chain(degree, terms=3):
        return Chain(F, degree, ((tuple(rng.choice(words) for _ in range(degree)),
                                  rng.choice((-2, -1, 1, 3)))
                                 for _ in range(terms)))

    def fills(z):
        try:
            return boundary(fill_min(z).c) == z
        except (Infeasible, SupportExhausted):
            return False

    cases = [boundary(chain(2)) for _ in range(3)] + [boundary(chain(3))]
    cases += [z for z in (chain(1) for _ in range(6))
              if sum(r * sum(w) for (w,), r in z.coeffs.items())][:3]
    cases += [z for z in (chain(2) for _ in range(6))
              if not boundary(z).is_zero()][:1]
    verdicts = [is_boundary(z) for z in cases]
    assert verdicts == [True] * 4 + [False] * 4
    assert verdicts == [fills(z) for z in cases]


def test_is_boundary_past_support_cap(monkeypatch):
    # the full support over S3 in degree 3 has 216 tuples; is_boundary
    # builds no LP, so it answers under a cap that tuple_basis meets
    rng = random.Random(43)
    z = boundary(random_chain(S3, 3, rng))
    assert not z.is_zero()
    monkeypatch.setenv("BARL1_SIZE_CAP", "100")
    assert is_boundary(z)
    assert not is_boundary(z + Chain.single(S3, (S3.identity(), S3.identity())))
    with pytest.raises(SizeCapError):
        tuple_basis(S3, 3)


def test_fill_min_free_group_ball():
    F = FreeGroup(1)
    c0 = Chain.single(F, ((1,), (1,)))
    z = boundary(c0)
    cert = fill_min(z)
    assert boundary(cert.c) == z
    assert l1_norm(cert.c) <= l1_norm(c0)
    assert cert.support.get("kind") == "ball"


def test_free_group_start_radius_past_max_radius(monkeypatch):
    # the first word ball is tried even when START_RADIUS > MAX_RADIUS
    monkeypatch.setattr(l1opt, "MAX_RADIUS", 1)
    F = FreeGroup(1)
    z = boundary(Chain.single(F, ((1,), (1,))))
    cert = fill_min(z)
    assert cert.support == {"kind": "ball", "radius": 3, "size": 49}
    assert is_boundary(z)
    x5 = (1,) * 5  # x1^10, a face of (x5, x5), lies off the radius-3 ball
    with pytest.raises(SupportExhausted, match="radius 3"):
        fill_min(boundary(Chain.single(F, (x5, x5))))


def test_fill_min_free_group_non_boundary(monkeypatch):
    monkeypatch.setattr(l1opt, "MAX_RADIUS", 6)
    F = FreeGroup(1)
    with pytest.raises(Infeasible):
        fill_min(Chain.single(F, ((1,),)))


@pytest.mark.parametrize("word", [(1,), (1, 2)])
def test_free_group_of_rank_two_non_boundary_builds_no_ball(monkeypatch,
                                                            word):
    # the exponent sum of x1 is 1, so the word is no boundary; that is
    # decided before any word ball is built (the radius-6 ball's pairs
    # are over the size cap)
    builds = record_calls(monkeypatch, l1opt, "boundary_over")
    with pytest.raises(Infeasible, match="not a boundary"):
        fill_min(Chain.single(FreeGroup(2), (word,)))
    assert builds == []


def test_free_group_non_boundary_is_infeasible_not_exhausted(monkeypatch):
    # (x1) has exponent sum 1, so no word ball of any radius fills it;
    # is_boundary decides that for a free group before any ball is
    # built, and a finite group's fill never asks it
    calls = []
    monkeypatch.setattr(l1opt, "is_boundary",
                        lambda z: calls.append(z) or is_boundary(z))
    F = FreeGroup(1)
    zf = boundary(Chain.single(F, ((1,), (1,))))
    fill_min(zf)
    fill_min(boundary(Chain.single(G3, (1, 2))))
    assert calls == [zf]
    z = Chain.single(F, ((1,),))
    with pytest.raises(Infeasible, match="not a boundary"):
        fill_min(z)
    assert calls == [zf, z]


def test_free_group_target_off_the_support_runs_no_lp(monkeypatch):
    # x1^10 is no face of a pair of words of length <= 3
    F = FreeGroup(1)
    x5 = (1,) * 5
    z = boundary(Chain.single(F, (x5, x5)))
    calls = record_calls(monkeypatch, l1opt, "_l1_simplex")
    monkeypatch.setattr(l1opt, "MAX_RADIUS", 3)
    with pytest.raises(SupportExhausted, match="radius 3"):
        fill_min(z)
    assert calls == []


def _count_builds(monkeypatch):
    """The (G, k) of every boundary_over call from here on, starting
    from an empty matrix memo."""
    built = []
    over = barcomplex.boundary_over

    def counted(G, k, cols):
        built.append((G, k))
        return over(G, k, cols)

    monkeypatch.setattr(barcomplex, "boundary_over", counted)
    barcomplex._full_matrix.cache_clear()
    return built


def test_one_matrix_per_group_and_degree(monkeypatch):
    # a degree-2 pipeline over Z/2 fills over Z/2 and over Z/2 x Z/2
    # (xi_fill builds its product afresh each time); the structurally
    # keyed memo builds each matrix once for the whole batch
    built = _count_builds(monkeypatch)
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    rng = random.Random(59)
    for _ in range(20):
        z = boundary(random_chain(G2, 3, rng, terms=2))
        assert primitive_pipeline(z, cfg).verify() == []
    assert built == [(DirectProduct((G2, G2)), 3), (G2, 2)]
    assert boundary_matrix(DirectProduct((G2, G2)), 3) is boundary_matrix(
        DirectProduct((G2, G2)), 3)
    assert len(built) == 2


def test_kappa_vertex_fills_share_the_image_matrix(monkeypatch):
    # each (G, q) builds d_{q+1} once: its pivot columns give the
    # circuits and the same matrix is every vertex fill's LP; a second
    # pass builds nothing
    built = _count_builds(monkeypatch)
    table = [(G2, 1), (G2, 2), (G2, 3), (G3, 1), (G3, 2),
             (cyclic_group(4), 1), (S3, 1)]
    for _ in range(2):
        for G, q in table:
            assert ubc_kappa_exact(G, q).kappa is not None
    assert built == [(G, q + 1) for G, q in table]


def test_fills_leave_the_shared_matrix_unchanged():
    d = boundary_matrix(G3, 3)
    before = copy.deepcopy((d.rows, d.cols, d.entries))
    rng = random.Random(61)
    for _ in range(10):
        z = boundary(random_chain(G3, 3, rng))
        if not z.is_zero():
            assert fill_min(z).verify() == []
    assert ubc_kappa_exact(G3, 2).kappa == Fraction(1, 2)
    assert boundary_matrix(G3, 3) is d
    assert (d.rows, d.cols, d.entries) == before


def test_identity_listed_second():
    # Z/3 as a table listed a, e, b: the matrix rows follow the faces,
    # not the tuple basis, and kappa, fills and records are unchanged
    old = [1, 0, 2]  # table index -> element of G3
    new = {g: i for i, g in enumerate(old)}
    H = FiniteTableGroup([[new[G3.mul(a, b)] for b in old] for a in old],
                         names=["a", "e", "b"])
    iso = build_hom(G3, H, fn=new.__getitem__)
    assert H.identity() == 1
    assert list(boundary_matrix(H, 2).rows) != tuple_basis(H, 1)
    assert betti(H, 1) == betti(H, 2) == 0
    for q, kappa in ((1, Fraction(1)), (2, Fraction(1, 2))):
        res = ubc_kappa_exact(H, q)
        assert res.method == "vertex-enumeration" and res.kappa == kappa
        assert verify_certificate_dict(kappa_to_dict(res, H)) == []
    rng = random.Random(67)
    for _ in range(6):
        z = boundary(random_chain(G3, 3, rng))
        if z.is_zero():
            continue
        cert = fill_min(push_chain(iso, z))
        assert cert.verify() == [] and cert.ratio == fill_min(z).ratio


def test_kappa_z2_degree_one():
    res = ubc_kappa_exact(G2, 1)
    assert res.kappa == 1 and res.lower == 1 and res.upper == 1
    assert res.method == "vertex-enumeration"
    assert all(cert.verify() == [] for cert in res.certificates)


def test_kappa_small_groups():
    assert ubc_kappa_exact(G1, 1).kappa == 1
    triv2 = ubc_kappa_exact(G1, 2)
    assert triv2.kappa == 0 and triv2.method == "vertex-enumeration"
    assert triv2.certificates == []
    assert ubc_kappa_exact(G3, 1).kappa == 1


def test_kappa_z2_degree_two_circuits():
    res = ubc_kappa_exact(G2, 2)
    assert res.kappa == Fraction(1, 2)
    assert res.method == "vertex-enumeration"
    # the three vertices that enumerating the bases of the lifted
    # program {u - w = V y, sum u + sum w = 1} finds, in the same order
    h = Fraction(1, 2)
    assert [cert.z.coeffs for cert in res.certificates] == [
        {(0, 1): h, (1, 0): -h}, {(0, 0): h, (0, 1): -h},
        {(0, 0): h, (1, 0): -h}]
    assert all(cert.verify() == [] for cert in res.certificates)


@pytest.mark.parametrize("G, q, kappa, count",
                         [(G3, 2, Fraction(1, 2), 21), (G2, 3, Fraction(1), 13)],
                         ids=["Z3_q2", "Z2_q3"])
def test_kappa_circuits_are_elementary(G, q, kappa, count):
    res = ubc_kappa_exact(G, q)
    assert res.kappa == kappa and res.method == "vertex-enumeration"
    assert len(res.certificates) == count
    assert all(cert.verify() == [] for cert in res.certificates)
    dmat = boundary_matrix(G, q + 1)
    dense = dense_rows(dmat)
    rank = rank_int(dense)
    in_span = column_span_oracle(dmat)
    supports = [set(cert.z.coeffs) for cert in res.certificates]
    for cert, sup in zip(res.certificates, supports):
        assert in_span(cert.z) and l1_norm(cert.z) == 1
        assert not any(other < sup for other in supports)
        # im d meets the coordinate subspace of sup in a line exactly
        # when the rows off sup drop the rank by one
        off = [row for row, t in zip(dense, dmat.rows) if t not in sup]
        assert rank - rank_int(off, len(dmat.cols)) == 1


def _random_full_rank(rng, d):
    """An integer matrix of d columns and rank d: d to d+2 random rows,
    among which one to four zero, repeated or proportional rows."""
    while True:
        rows = [[rng.randrange(-2, 3) for _ in range(d)]
                for _ in range(d + rng.randrange(0, 3))]
        for _ in range(rng.randrange(1, 5)):
            kind = rng.randrange(3)
            row = [0] * d if kind == 0 else rng.choice(rows)
            if kind == 2:
                row = [rng.choice((-3, -2, 2, 3)) * v for v in row]
            rows.insert(rng.randrange(len(rows) + 1), list(row))
        if rank_int(rows, d) == d:
            return rows


def test_circuit_walk_matches_subset_enumeration():
    V4 = DirectProduct((G2, G2))
    table = [(G2, 1), (G2, 2), (G2, 3), (G2, 4), (G3, 1), (G3, 2),
             (cyclic_group(4), 1), (cyclic_group(4), 2), (S3, 1), (V4, 1),
             (V4, 2)]
    for G, q in table:
        vrows = l1opt._image_basis(G, q)[1]
        assert l1opt._circuits(vrows) == circuits_by_subsets(vrows)
    rng = random.Random(73)
    for t in range(30):
        vrows = _random_full_rank(rng, 1 if t < 4 else rng.randrange(2, 6))
        assert l1opt._circuits(vrows) == circuits_by_subsets(vrows)


def test_circuit_walk_shares_the_prefix_elimination(monkeypatch):
    # eliminating each of the 11440 row subsets of Z/2 in degree 4 from
    # scratch took 127742 eliminations and 11440 kernel lines
    eliminations = record_calls(monkeypatch, linalg, "eliminate")
    assert len(circuits(G2, 4)) == 111
    assert len(eliminations) < 40000


def test_ranks_and_circuits_make_no_dense_round_trip(monkeypatch):
    # ranks, image bases and circuits reduce the sparse rows of d
    calls = record_calls(monkeypatch, linalg, "rref")
    assert betti(G3, 2) == 0
    assert len(circuits(G2, 3)) == 13
    assert ubc_kappa_exact(G3, 2).kappa == Fraction(1, 2)
    assert calls == []


def test_circuit_walk_is_not_recursive():
    # the walk is d-1 levels deep: here deeper than the recursion limit
    n = 120
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        got = l1opt._circuits(eye)
    finally:
        sys.setrecursionlimit(limit)
    assert got == sorted(map(tuple, eye))


def test_kappa_sampled_brackets_exact(monkeypatch):
    monkeypatch.setattr(l1opt, "ENUM_BUDGET", 0)
    monkeypatch.setattr(l1opt, "SAMPLES", 30)
    res = ubc_kappa_exact(G2, 2, rng=random.Random(3))
    assert res.method == "sampled"
    assert res.kappa is None and res.upper == 1
    assert res.lower <= Fraction(1, 2) <= res.upper


def test_kappa_cone_bound_closes_the_bracket():
    # Z/3 in degree 3 is past the subset budget; a sampled circuit
    # reaches the cone bound 1, so the bracket [1, 1] is exact
    res = ubc_kappa_exact(G3, 3)
    assert res.kappa == res.lower == res.upper == 1
    assert res.method == "cone-bound"
    assert max(cert.ratio for cert in res.certificates) == 1
    assert all(cert.verify() == [] for cert in res.certificates)


def test_kappa_sampled_circuits_below_the_cone_bound(monkeypatch):
    monkeypatch.setattr(l1opt, "SAMPLES", 10)
    res = ubc_kappa_exact(S3, 2, rng=random.Random(0))
    assert res.method == "sampled"
    assert res.kappa is None and res.upper == 1
    assert Fraction(1, 2) <= res.lower < 1
    zs = [frozenset(cert.z.coeffs.items()) for cert in res.certificates]
    assert len(set(zs)) == len(zs) > 0  # repeated circuits are skipped


@pytest.mark.parametrize("G, q", [(G2, 1), (G2, 2), (G2, 3), (G3, 1), (G3, 2),
                                  (G3, 3), (S3, 1)],
                         ids=["Z2_q1", "Z2_q2", "Z2_q3", "Z3_q1", "Z3_q2",
                              "Z3_q3", "S3_q1"])
def test_averaged_cone_fills_every_vertex_at_its_norm(G, q):
    res = ubc_kappa_exact(G, q)
    assert res.certificates
    for cert in res.certificates:
        s = averaged_cone(cert.z)
        assert boundary(s) == cert.z
        assert l1_norm(s) == l1_norm(cert.z)
        assert cert.ratio <= 1


def test_kappa_needs_finite_group():
    with pytest.raises(SizeCapError):
        ubc_kappa_exact(FreeGroup(1), 1)

