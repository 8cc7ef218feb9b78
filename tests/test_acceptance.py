"""One test per acceptance criterion; each prints a single
"ACCEPTANCE n: ... PASS" line when its exact checks go through (run
with -s to see them)."""

import copy
import itertools
import random
import time
from fractions import Fraction

from barl1.barcomplex import Chain, betti, boundary, l1_norm
from barl1.fileio import (dump_json, fill_cert_to_dict, kappa_to_dict,
                          load_json, mitosis_to_dict, pipeline_cert_to_dict,
                          tower_to_dict, verify_certificate_dict)
from barl1.groups import (DirectProduct, FreeGroup, conjugation,
                          cyclic_group, identity_hom, symmetric_group_perm)
from barl1.l1opt import fill_min, ubc_kappa_exact
from barl1.mitosis import (PipelineConfig, constant_c, dmap, e_bound, emap,
                           mitosis_of_finite_abelian, mu_hom,
                           primitive_pipeline, theta, theta_defect, tower,
                           verify_mitosis)
from barl1.products import (aw, cross_chain, cross_tensor, normalize,
                            pair_compat_check, push_tensor, tensor_boundary,
                            tensor_elementary)
from helpers import random_chain, random_cocycle

G2 = cyclic_group(2)
G3 = cyclic_group(3)


def test_criterion_1_chain_axioms():
    t0 = time.monotonic()
    for G in (G2, G3, symmetric_group_perm(3)):
        for k in range(1, 5):
            for tup in itertools.product(G.elements(), repeat=k):
                c = Chain.single(G, tup)
                dc = boundary(c)
                assert l1_norm(dc) <= (k + 1) * l1_norm(c)
                if k == 1:
                    assert dc.is_zero()
                else:
                    assert boundary(dc).is_zero()
    F2 = FreeGroup(2)
    rng = random.Random(101)
    for _ in range(1000):
        k = rng.randrange(1, 6)
        c = random_chain(F2, k, rng)
        dc = boundary(c)
        assert l1_norm(dc) <= (k + 1) * l1_norm(c)
        if k >= 2:
            assert boundary(dc).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print("ACCEPTANCE 1: boundary squares to zero and |d_k| <= k+1 "
          "(exhaustive bases + 1000 free-group chains, %.1fs) PASS" % elapsed,
          flush=True)


def test_criterion_2_rational_acyclicity():
    t0 = time.monotonic()
    for G in (G2, G3, cyclic_group(4), symmetric_group_perm(3)):
        degrees = (1, 2, 3) if G.order() <= 3 else (1, 2)
        for k in degrees:
            assert betti(G, k) == 0, (G.describe(), k)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print("ACCEPTANCE 2: betti(G, k) = 0 for Z/2, Z/3, Z/4, S_3 "
          "(%.1fs) PASS" % elapsed, flush=True)


def test_criterion_3_products():
    rng = random.Random(103)
    P = DirectProduct((G2, G3))
    for _ in range(1000):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        a = random_chain(G2, p, rng, terms=2)
        b = random_chain(G3, q, rng, terms=2)
        if p + q >= 1:
            lhs = boundary(cross_chain(a, b))
            rhs = Chain.zero(P, p + q - 1)
            if p >= 1:
                rhs = rhs + cross_chain(boundary(a), b)
            if q >= 1:
                rhs = rhs + cross_chain(a, boundary(b)).scale(
                    (-1) ** p)
            assert lhs == rhs
        k = rng.randrange(1, 4)
        c = random_chain(P, k, rng, terms=2)
        assert tensor_boundary(aw(c)) == aw(boundary(c))
        t = tensor_elementary(a, b)
        assert normalize(aw(cross_tensor(t))) == normalize(t)
    quadruples = 0
    for G in (G3, symmetric_group_perm(3)):
        for _ in range(500):
            p, q = rng.randrange(0, 3), rng.randrange(0, 3)
            f = random_cocycle(G, p, rng)
            g = random_cocycle(G, q, rng)
            c = (boundary(random_chain(G, p + 1, rng, terms=2)) if p
                 else random_chain(G, 0, rng, terms=2))
            d = (boundary(random_chain(G, q + 1, rng, terms=2)) if q
                 else random_chain(G, 0, rng, terms=2))
            rep = pair_compat_check(f, g, c, d)
            assert rep.ok, (p, q, rep.lhs, rep.rhs)
            quadruples += 1
    assert quadruples == 1000
    print("ACCEPTANCE 3: cross Leibniz, aw chain map, normalized "
          "aw-cross identity and 1000 pairing quadruples PASS", flush=True)


def test_criterion_4_lp_engine():
    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    cert = fill_min(z)
    assert l1_norm(cert.c) == 1
    assert cert.c == Chain.single(G2, (1, 1))
    exact = {}
    for G in (G2, G3):
        exact[G] = ubc_kappa_exact(G, 1)
        assert exact[G].method == "vertex-enumeration"
    assert exact[G2].kappa == 1
    rng = random.Random(104)
    for G in (G2, G3):
        zs = []
        while len(zs) < 25:
            w = boundary(random_chain(G, 2, rng))
            if not w.is_zero():
                zs.append(w)
        assert max(fill_min(z).ratio for z in zs) <= exact[G].kappa
    print("ACCEPTANCE 4: fill_min hand optimum, kappa(Z/2, 1) = 1, "
          "sampled lower bounds below exact kappa PASS", flush=True)


def test_criterion_5_mitosis_builders():
    cases = [(G2, 24), (G3, 432), (cyclic_group(4), 1536),
             (DirectProduct((G2, G2)), 96)]
    for G, order in cases:
        data = mitosis_of_finite_abelian(G)
        assert data.ambient.order() == order
        assert verify_mitosis(data) == []
        mu = mu_hom(data)
        for g in G.elements():
            assert mu((g, g)) == conjugation(data.ambient, data.d).fn(
                data.inj(g))
    print("ACCEPTANCE 5: builders verify exhaustively (orders 24, 432, "
          "1536, 96) and mu o diag = gamma_d o i PASS", flush=True)


def test_criterion_6_theta():
    rng = random.Random(106)
    ambient24 = mitosis_of_finite_abelian(G2).ambient
    for G in (symmetric_group_perm(3), ambient24):
        for _ in range(500):
            q = rng.randrange(0, 5)
            c = random_chain(G, q, rng, terms=2)
            w = G.sample(rng)
            assert theta_defect(c, w).is_zero()
            assert l1_norm(theta(c, w)) <= (q + 1) * l1_norm(c)
    print("ACCEPTANCE 6: conjugation homotopy identity and "
          "|theta_q| <= q+1 on 1000 chains (q <= 4) PASS", flush=True)


def test_criterion_7_pipeline_batch():
    t0 = time.monotonic()
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    f = cfg.f()
    rng = random.Random(107)
    certs = []
    emap_checked = 0
    while len(certs) < 100:
        z = boundary(random_chain(G2, 3, rng, terms=2))
        if z.is_zero():
            continue
        if emap_checked < 10:
            x = dmap(z)
            if not x.is_zero():
                value, sections = emap(x, cfg)
                assert tensor_boundary(value) == push_tensor(f, f, x)
                kappa = max((c.ratio for c in sections), default=0)
                assert l1_norm(value) <= e_bound(x.degree, kappa) * l1_norm(x)
                emap_checked += 1
        cert = primitive_pipeline(z, cfg)
        assert cert.verify() == []
        certs.append(cert)
    kappa_batch = max(c.kappa for c in certs)
    xi_batch = max(c.xi_ratio for c in certs)
    batch_bound = constant_c(2, kappa_batch, xi_batch)
    assert all(c.ratio <= batch_bound for c in certs)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print("ACCEPTANCE 7: 100 degree-2 pipeline certificates, worst ratio "
          "%s <= %s (%.1fs) PASS"
          % (max(c.ratio for c in certs), batch_bound, elapsed), flush=True)


def test_criterion_8_tower_and_certificates(tmp_path):
    rows = tower(3, xi=[0, 1, 0, 0])
    assert [r.size for r in rows] == [1, 4, 13, 40]
    assert rows[1].kappa == 2 + rows[1].xi == 3
    rows0 = tower(3)
    assert rows0[1].kappa == 2

    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    artifacts = {
        "fill": fill_cert_to_dict(fill_min(z)),
        "kappa": kappa_to_dict(ubc_kappa_exact(G2, 1), G2),
        "pipeline": pipeline_cert_to_dict(
            primitive_pipeline(Chain.single(G2, (1,)), cfg)),
        "tower": tower_to_dict(rows0),
        "mitosis": mitosis_to_dict(cfg.mitosis),
    }
    for kind, record in artifacts.items():
        path = tmp_path / (kind + ".json")
        dump_json(record, path)
        assert verify_certificate_dict(load_json(path)) == [], kind

    forged = copy.deepcopy(artifacts)
    forged["fill"]["c"][0]["coeff"] = "2"
    forged["kappa"]["lower"] = "1/2"
    forged["pipeline"]["ratio"] = "2999999/1000000"
    forged["tower"]["rows"][2]["kappa"] = "1"
    forged["mitosis"]["d"] = forged["mitosis"]["s"]
    for kind, record in forged.items():
        assert verify_certificate_dict(record) != [], kind
    print("ACCEPTANCE 8: tower sequence 1, 4, 13, 40 with kappa_1 = "
          "2 + xi_1; all five certificate kinds round-trip and reject "
          "tampering PASS", flush=True)
