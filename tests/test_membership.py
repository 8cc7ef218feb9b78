"""Membership is checked where elements enter: the validating chain,
tensor-chain and cochain constructors, element decoding, homomorphism
checks and certificate verification all reject non-members, on every
backend."""

import random
from fractions import Fraction

import pytest

from barl1.barcomplex import Chain, Cochain, boundary, l1_norm
from barl1.cli import run
from barl1.fileio import (FileFormatError, decode_element, dump_json,
                          fill_cert_to_dict, format_fraction,
                          pipeline_cert_to_dict, verify_certificate_dict)
from barl1.groups import (DirectProduct, FreeGroup, FreeProduct,
                          GroupAxiomError, PermutationGroup, build_hom,
                          cyclic_group, identity_hom, symmetric_group_perm)
from barl1.l1opt import FillCertificate
from barl1.mitosis import (PipelineConfig, mitosis_of_finite_abelian,
                           primitive_pipeline)
from barl1.products import TensorChain

from helpers import random_boundary

Z2 = cyclic_group(2)
SWAP01 = PermutationGroup(4, [(1, 0, 2, 3)])  # order 2 inside S_4
M2 = mitosis_of_finite_abelian(Z2).ambient  # action group <phi, psi> fixes 0

# (group, non-member, an encoding that decoding must reject).
NON_MEMBERS = {
    "finite": (Z2, 5, "5"),
    "perm-subgroup": (SWAP01, (0, 1, 3, 2), "0,1,3,2"),
    "perm-s3": (symmetric_group_perm(3), (0, 0, 1), "0,0,1"),
    "free": (FreeGroup(2), (1, -1), "x1*x3"),
    "direct": (DirectProduct((Z2, cyclic_group(3))), (1,), ["1"]),
    "freeprod": (FreeProduct((Z2, SWAP01)), ((0, 1), (0, 1)),
                 [[1, "0,1,3,2"]]),
    "semidirect-acting": (M2, ((0, 0), (0, 0, 0, 0)),
                          [["0", "0"], "0,0,0,0"]),
    "semidirect-outside": (M2, ((0, 0), (1, 0, 2, 3)),
                           [["0", "0"], "1,0,2,3"]),
}


@pytest.mark.parametrize("case", sorted(NON_MEMBERS))
def test_entry_points_reject_non_members(case):
    G, bad, encoded = NON_MEMBERS[case]
    assert not G.contains(bad)
    with pytest.raises(GroupAxiomError):
        Chain(G, 1, {(bad,): 1})
    with pytest.raises(GroupAxiomError):
        Chain(G, 2, {(G.identity(), bad): 1})
    with pytest.raises(GroupAxiomError):
        TensorChain((G, Z2), 1, {((bad,), ()): 1})
    with pytest.raises(GroupAxiomError):
        TensorChain((Z2, G), 1, {((), (bad,)): 1})
    with pytest.raises(GroupAxiomError):
        Cochain(G, 1, table={(bad,): 1})
    with pytest.raises((FileFormatError, GroupAxiomError)):
        decode_element(G, encoded)
    with pytest.raises(GroupAxiomError):
        build_hom(Z2, G, fn=lambda g: bad if g else G.identity())


def test_free_product_decoding_checks_each_syllable():
    """Two non-member syllables of one factor merge into its identity;
    the word they spell must still be rejected."""
    G = NON_MEMBERS["freeprod"][0]
    with pytest.raises(GroupAxiomError):
        decode_element(G, [[1, "0,1,3,2"], [1, "0,1,3,2"]])
    assert decode_element(G, [[1, "1,0,2,3"], [0, "1"]]) == ((1, (1, 0, 2, 3)),
                                                            (0, 1))


def _z2_pipeline_record():
    h = identity_hom(Z2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(Z2))
    z = random_boundary(Z2, 2, random.Random(4))
    cert = primitive_pipeline(z, cfg)
    assert not cert.verify()
    return cert, pipeline_cert_to_dict(cert)


def test_verify_rejects_a_primitive_over_a_non_member(tmp_path):
    """(b, b, b) with b = ((0,0), (0,0,0,0)) is a cycle under the
    ambient's arithmetic, since b b = b, so adding it keeps d c' equal to
    the target; only membership tells the forged primitive apart."""
    cert, rec = _z2_pipeline_record()
    assert verify_certificate_dict(rec) == []
    b = [["0", "0"], "0,0,0,0"]
    rec["primitive"].append({"coeff": "1/100", "tuple": [b, b, b]})
    rec["ratio"] = format_fraction(cert.ratio + Fraction(1, 100) / l1_norm(cert.z))
    with pytest.raises(GroupAxiomError, match="semidirect"):
        verify_certificate_dict(rec)
    path = str(tmp_path / "forged.json")
    dump_json(rec, path)
    assert run(["verify", path]) == 1


def test_words_decode_literally():
    with pytest.raises(GroupAxiomError, match="free"):
        decode_element(FreeGroup(2), "x2^-1*x1^3*x1^-1")
    with pytest.raises(FileFormatError, match="zero exponent"):
        decode_element(FreeGroup(2), "x1^0")
    FP = FreeProduct((Z2, cyclic_group(3)))
    for bad in ([[0, "0"]], [[1, "1"], [1, "1"]]):
        with pytest.raises(GroupAxiomError, match="freeprod"):
            decode_element(FP, bad)


def test_verify_rejects_a_respelled_free_word(tmp_path):
    """x1*x2*x2^-1 reduces to x1, so a reducing decoder reads the tampered
    record as the genuine one; a literal decoder rejects the spelling."""
    F = FreeGroup(2)
    a, b = (1,), (2,)
    c = Chain.single(F, (a, b))
    z = boundary(c)
    rec = fill_cert_to_dict(FillCertificate(
        z, c, l1_norm(c) / l1_norm(z),
        {"kind": "ball", "radius": 3, "size": 2809}))
    assert verify_certificate_dict(rec) == []
    assert rec["c"][0]["tuple"] == ["x1", "x2"]
    rec["c"][0]["tuple"][0] = "x1*x2*x2^-1"
    with pytest.raises(GroupAxiomError, match="free"):
        verify_certificate_dict(rec)
    path = str(tmp_path / "respelled.json")
    dump_json(rec, path)
    assert run(["verify", path]) == 1
