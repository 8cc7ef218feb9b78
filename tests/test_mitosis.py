import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from barl1 import l1opt, mitosis
from barl1.barcomplex import Chain, boundary, l1_norm, push_chain
from barl1.cli import run
from barl1.fileio import (dump_json, mitosis_to_dict, pipeline_cert_to_dict,
                          verify_certificate_dict)
from barl1.groups import (DirectProduct, FreeGroup, FreeProduct,
                          Homomorphism, PermutationGroup, build_hom,
                          compose_homs, conjugation, cyclic_group,
                          identity_hom, symmetric_group_perm)
from barl1.mitosis import (MitosisData, MitosisError, PipelineConfig,
                           PipelineError, check_theta_orientation, constant_c,
                           dmap, e_bound, emap, mitosis_of_finite_abelian,
                           mu_hom, primitive_pipeline, theta, theta_defect,
                           tower, verify_mitosis)
from barl1.products import (TensorChain, push_tensor, tensor_boundary,
                            tensor_elementary)
from helpers import random_boundary, random_chain, record_calls

G2 = cyclic_group(2)
G3 = cyclic_group(3)


def identity_config(G, **kw):
    h = identity_hom(G)
    return PipelineConfig(h, h, h, mitosis_of_finite_abelian(G), **kw)


def test_builder_ambient_orders():
    # |M| = |G|^2 . |<phi, psi>| computed independently by hand:
    # S_3, GL(2,3), <SL(2,Z/4), swap>, GL(2,2)
    cases = [(cyclic_group(2), 24), (cyclic_group(3), 432),
             (cyclic_group(4), 1536), (DirectProduct((G2, G2)), 96)]
    for G, order in cases:
        data = mitosis_of_finite_abelian(G)
        M = data.ambient
        assert M.order() == order
        # the holomorph image of M's own generators, the base elements
        # and the generators of the acting group, has M's order
        a0 = M.action.identity()
        gens = ([(b, a0) for b in M.base.elements()]
                + [(M.base.identity(), a) for a in M.action.generators])
        images = [M.permutation_image(x) for x in gens]
        assert PermutationGroup(M.base.order(), images).order() == order
        assert verify_mitosis(data) == []


def test_generation_fails_on_a_proper_subgroup_of_a_direct_ambient():
    """M x Z/2 with every datum in M x {0}: each axiom but generation
    holds, and the left-regular image of the direct product decides it."""
    data = mitosis_of_finite_abelian(G2)
    A = DirectProduct((data.ambient, G2))
    inj = Homomorphism(G2, A, lambda g: (data.inj.fn(g), 0), name="inj x 0")
    wide = MitosisData(G2, A, inj, (data.s, 0), (data.d, 0))
    assert verify_mitosis(wide) == ["generation of the ambient group"]
    assert verify_certificate_dict(mitosis_to_dict(wide)) == [
        "axiom failed: generation of the ambient group"]


def test_sampled_check_over_an_infinite_ambient(tmp_path, capsys):
    """Z/2 -> Z/2 * Z/2 onto the first factor with s = d = e: the
    ambient is infinite, so 20 sampled elements are checked and
    generation is not; i(1)^e = i(1) but i(1) i(1)^e = e."""
    M = FreeProduct((G2, G2))
    inj = Homomorphism(G2, M, lambda g: ((0, g),) if g else (), name="inj")
    data = MitosisData(G2, M, inj, (), ())
    assert verify_mitosis(data) == ["split relation i(g)^d = i(g) i(g)^s"]
    path = str(tmp_path / "mitosis.json")
    dump_json(mitosis_to_dict(data), path)
    assert run(["verify", path]) == 1
    assert capsys.readouterr().out == (
        "certificate kind: mitosis\n"
        "FAILED: axiom failed: split relation i(g)^d = i(g) i(g)^s\n")


def test_config_checks_its_mitosis_once(monkeypatch):
    calls = {"verify_mitosis": 0, "check_theta_orientation": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mitosis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mitosis, name, counted)
    cfg = identity_config(G2)
    mu = cfg.mu()
    assert calls == {"verify_mitosis": 1, "check_theta_orientation": 1}
    assert mu is cfg.mu()
    z = boundary(Chain.single(G2, (1, 1, 1)))
    primitive_pipeline(z, cfg)
    assert calls == {"verify_mitosis": 1, "check_theta_orientation": 1}


def test_builder_refuses_nonabelian_and_infinite():
    with pytest.raises(MitosisError, match="abelian"):
        mitosis_of_finite_abelian(symmetric_group_perm(3))
    with pytest.raises(MitosisError, match="finite"):
        mitosis_of_finite_abelian(FreeGroup(1))


def test_mu_refuses_corrupted_data():
    data = mitosis_of_finite_abelian(G3)
    # swapping s and d breaks the split axiom as soon as g^2 != e
    bad = MitosisData(data.source, data.ambient, data.inj, data.d, data.s)
    assert verify_mitosis(bad) == ["split relation i(g)^d = i(g) i(g)^s"]
    with pytest.raises(MitosisError, match="split"):
        mu_hom(bad)


def test_mu_on_diagonal_is_d_conjugate_of_inj():
    for G in (G2, G3):
        data = mitosis_of_finite_abelian(G)
        mu = mu_hom(data)
        for g in G.elements():
            assert mu((g, g)) == conjugation(data.ambient, data.d).fn(
                data.inj(g))


def test_theta_singleton_expansion():
    S3 = symmetric_group_perm(3)
    g = (1, 0, 2)
    w = (1, 2, 0)
    t = theta(Chain.single(S3, (g,)), w)
    conj_g = S3.mul(S3.mul(S3.inv(w), g), w)
    assert t == Chain(S3, 2, {(g, w): 1, (w, conj_g): -1})


def test_theta_homotopy_identity():
    S3 = symmetric_group_perm(3)
    rng = random.Random(41)
    for _ in range(100):
        q = rng.randrange(0, 4)
        c = random_chain(S3, q, rng)
        w = S3.sample(rng)
        assert theta_defect(c, w).is_zero()


def test_theta_norm_bound():
    S3 = symmetric_group_perm(3)
    rng = random.Random(43)
    for _ in range(50):
        q = rng.randrange(0, 4)
        c = random_chain(S3, q, rng)
        assert l1_norm(theta(c, S3.sample(rng))) <= (q + 1) * l1_norm(c)


def test_theta_orientation_is_discriminating():
    """Pairing theta with the unconjugated push (gamma_w instead of
    gamma_{w^-1}) must break the homotopy identity over S_3."""
    S3 = symmetric_group_perm(3)
    w = (1, 2, 0)
    check_theta_orientation(S3, w)
    rng = random.Random(47)
    broken = False
    for _ in range(20):
        c = random_chain(S3, 2, rng)
        got = (boundary(theta(c, w)) + theta(boundary(c), w)
               - (c - push_chain(conjugation(S3, w), c)))
        if not got.is_zero():
            broken = True
            break
    assert broken


def test_dmap_degree_one_vanishes():
    assert dmap(Chain.single(G2, (1,))).is_zero()
    assert dmap(Chain(G3, 1, {(1,): 2, (2,): -1})).is_zero()
    with pytest.raises(ValueError):
        dmap(Chain.single(G2, ()))


def test_dmap_intermediate_bidegrees_and_cycles():
    rng = random.Random(53)
    for _ in range(20):
        z = boundary(random_chain(G3, 3, rng))
        if z.is_zero():
            continue
        t = dmap(z)
        assert all(1 <= p <= 1 for p, q in t.bidegrees())
        assert tensor_boundary(t).is_zero()


def test_emap_identity_configs():
    rng = random.Random(59)
    for G in (G2, G3):
        cfg = identity_config(G)
        f = cfg.f()
        done = 0
        while done < 3:
            z = boundary(random_chain(G, 3, rng))
            x = dmap(z) if not z.is_zero() else None
            if x is None or x.is_zero():
                continue
            value, sections = emap(x, cfg)
            assert tensor_boundary(value) == push_tensor(f, f, x)
            kappa = max((c.ratio for c in sections), default=0)
            assert l1_norm(value) <= e_bound(x.degree, kappa) * l1_norm(x)
            assert sections and all(c.verify() == [] for c in sections)
            done += 1


def test_emap_zero_and_bad_inputs():
    cfg = identity_config(G2)
    value, sections = emap(TensorChain.zero((G2, G2), 2), cfg)
    assert value == TensorChain.zero((G2, G2), 3) and sections == []
    outer = tensor_elementary(Chain.single(G2, ()), Chain.single(G2, (1, 1)))
    with pytest.raises(ValueError, match="outer bidegree"):
        emap(outer, cfg)
    wrong = tensor_elementary(Chain.single(G3, (1,)), Chain.single(G3, (1,)))
    with pytest.raises(ValueError, match="over"):
        emap(wrong, cfg)


def test_pipeline_z2_degree_one_meets_bound_exactly():
    cfg = identity_config(G2)
    cert = primitive_pipeline(Chain.single(G2, (1,)), cfg)
    assert cert.kappa == 0 and cert.xi_ratio == 1
    assert cert.bound == constant_c(1, 0, 1) == 3
    assert cert.ratio == 3
    assert cert.verify() == []
    assert boundary(cert.primitive) == cert.target


def test_pipeline_z2_degree_two_deterministic():
    cfg = identity_config(G2)
    z = boundary(Chain.single(G2, (1, 1, 1)))
    first = primitive_pipeline(z, cfg)
    second = primitive_pipeline(z, cfg)
    assert first.ratio == second.ratio == Fraction(8)
    assert first.primitive == second.primitive
    assert first.verify() == []
    assert first.ratio <= first.bound


def test_pipeline_input_validation():
    cfg = identity_config(G2)
    with pytest.raises(ValueError, match="cycle"):
        primitive_pipeline(Chain.single(G2, (1, 0)), cfg)
    with pytest.raises(ValueError, match="source group"):
        primitive_pipeline(Chain.single(G3, (1,)), cfg)
    with pytest.raises(ValueError, match="degree"):
        primitive_pipeline(Chain.single(G2, ()), cfg)
    zero = primitive_pipeline(Chain.zero(G2, 2), cfg)
    assert zero.primitive.is_zero() and zero.ratio == 0
    assert zero.verify() == []


def test_pipeline_verifies_each_certificate_once(monkeypatch):
    cfg = identity_config(G2)
    fills = record_calls(monkeypatch, l1opt, "fill_min")
    fill_checks = record_calls(monkeypatch, l1opt.FillCertificate, "verify")
    checks = record_calls(monkeypatch, mitosis.PipelineCertificate, "verify")
    cert = primitive_pipeline(boundary(Chain.single(G2, (1, 1, 1))), cfg)
    assert checks == [cert]
    # xi and at least one section: each fill checked by fill_min alone
    assert len(fills) >= 2 and len(fill_checks) == len(fills)


def _chain_key(c):
    return c.group, c.degree, frozenset(c.coeffs.items())


def test_a_config_solves_each_distinct_fill_once(monkeypatch):
    rng = random.Random(61)
    zs = []
    while len(zs) < 4:
        z = random_boundary(G2, 2, rng)
        if not z.is_zero() and z not in zs:
            zs.append(z)
    batch = [zs[k] for k in (0, 1, 0, 2, 1, 3, 0, 3, 2, 0)]
    xis = record_calls(monkeypatch, mitosis, "xi_fill")
    fills = record_calls(monkeypatch, l1opt, "fill_min")

    fresh = [dump_json(pipeline_cert_to_dict(
        primitive_pipeline(z, identity_config(G2)))) for z in batch]
    fresh_fills = {_chain_key(t) for t in fills}
    assert len(xis) == len(batch) and len(fills) > len(fresh_fills)

    xis.clear()
    fills.clear()
    cfg = identity_config(G2)
    batched = [dump_json(pipeline_cert_to_dict(primitive_pipeline(z, cfg)))
               for z in batch]
    assert batched == fresh
    assert [_chain_key(z) for z in xis] == [_chain_key(z) for z in zs]
    assert len(fills) == len(fresh_fills) == len(set(map(_chain_key, fills)))
    assert set(map(_chain_key, fills)) == fresh_fills


def test_a_failed_search_is_not_kept(monkeypatch):
    cfg = identity_config(G2)
    xis = record_calls(monkeypatch, mitosis, "xi_fill")
    not_a_cycle = Chain.single(G2, (1, 0))
    for _ in range(2):
        with pytest.raises(ValueError, match="cycle"):
            primitive_pipeline(not_a_cycle, cfg)
    assert len(xis) == 2


def test_configs_do_not_share_their_fills(monkeypatch):
    z = boundary(Chain.single(G2, (1, 1, 1)))
    fills = record_calls(monkeypatch, l1opt, "fill_min")
    primitive_pipeline(z, identity_config(G2))
    first = len(fills)
    primitive_pipeline(z, identity_config(G2))
    assert first >= 2 and len(fills) == 2 * first


def test_pipeline_failing_its_verify_raises(monkeypatch):
    cfg = identity_config(G2)
    theta = mitosis.theta
    monkeypatch.setattr(mitosis, "theta", lambda c, w: theta(c, w).scale(2))
    with pytest.raises(PipelineError, match="boundary mismatch"):
        primitive_pipeline(boundary(Chain.single(G2, (1, 1, 1))), cfg)


def test_pipeline_certificate_tamper_detection():
    cfg = identity_config(G2)
    cert = primitive_pipeline(Chain.single(G2, (1,)), cfg)
    assert "ratio mismatch" in dataclasses.replace(
        cert, ratio=cert.ratio + 1).verify()
    assert any("constant formula" in f for f in dataclasses.replace(
        cert, bound=cert.bound + 1).verify())
    assert any("boundary mismatch" in f for f in dataclasses.replace(
        cert, primitive=cert.primitive.scale(2)).verify())


def test_pipeline_through_inclusion():
    G4 = cyclic_group(4)
    phi = build_hom(G2, G4, fn=lambda g: (2 * g) % 4, name="incl")
    cfg = PipelineConfig(phi, identity_hom(G4), identity_hom(G4),
                         mitosis_of_finite_abelian(G4))
    z = boundary(Chain.single(G2, (1, 1, 1)))
    cert = primitive_pipeline(z, cfg)
    assert cert.verify() == []
    assert cert.target == push_chain(
        compose_homs(cfg.mitosis.inj, cfg.f()), z)


def test_constants_frozen_values():
    assert e_bound(1, 0) == 0
    assert e_bound(1, 1) == 29
    assert constant_c(1, 0, 0) == 2
    assert constant_c(1, 0, 1) == 3
    assert constant_c(1, 1, 0) == 234
    assert constant_c(1, 1, Fraction(5)) == 239
    assert constant_c(2, 2, 0) > constant_c(2, 1, 0)


def test_constants_match_the_fraction_formula():
    # e_bound and constant_c sum in integers; the reference is the
    # formula in Fraction arithmetic
    values = [0, 1, 2, -3, Fraction(1, 2), Fraction(3, 2), Fraction(-5, 7),
              Fraction(11, 3)]
    for q in range(6):
        n = q + 1
        shuffle = comb(q + 1, (q + 1) // 2)
        for kappa in values:
            k = Fraction(kappa)
            e = k + 2 * n * k ** 2 * (1 + n * k + n * n * k ** 2)
            assert e_bound(q, kappa) == e, (q, kappa)
            for xi in values:
                assert constant_c(q, kappa, xi) == (
                    (q + 1) + shuffle * e * (q + 3) + Fraction(xi)), (q, kappa, xi)
        # an integral float is rejected too, not read as its int
        for call in (lambda: e_bound(q, 1.0), lambda: constant_c(q, 2.0, 0),
                     lambda: constant_c(q, 0, 1.0)):
            with pytest.raises(TypeError, match="float"):
                call()


def test_tower_sizes_and_recursion():
    rows = tower(3)
    assert [r.size for r in rows] == [1, 4, 13, 40]
    assert rows[0].kappa == 0
    assert rows[1].kappa == constant_c(1, 0, 0) == 2
    assert rows[2].kappa == constant_c(2, rows[1].kappa, 0)
    assert rows[3].kappa == constant_c(3, rows[2].kappa, 0)
    for r in rows[1:]:
        assert r.theta_bound == r.degree + 1
        assert r.shuffle_bound == comb(r.degree + 1, (r.degree + 1) // 2)
        assert r.e_input == e_bound(r.degree, rows[r.degree - 1].kappa)


def test_tower_xi_forms():
    listed = tower(2, xi=[0, Fraction(5, 2), 0])
    assert listed[1].xi == Fraction(5, 2)
    assert listed[2].xi == 0
    assert listed[1].kappa == constant_c(1, 0, Fraction(5, 2))
    for xi in ([0, 1], [0, 1, 0, 0]):  # xi_0 to xi_2, no fewer or more
        with pytest.raises(ValueError, match="needs 3 xi values"):
            tower(2, xi=xi)


def test_tower_constants_reject_floats():
    # 0.1 would enter as its binary value 3602879701896397/2^55
    for call in (lambda: tower(1, xi=[0, 0.1]), lambda: e_bound(1, 0.5),
                 lambda: constant_c(1, 0.5, 0), lambda: constant_c(1, 0, 0.5)):
        with pytest.raises(TypeError, match="float"):
            call()
    assert tower(1, xi=[0, Fraction(1, 10)])[1].xi == Fraction(1, 10)
