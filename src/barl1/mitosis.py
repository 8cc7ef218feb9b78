"""Mitosis embeddings and the certified primitive pipeline.

A mitosis of G is an injection i: G -> M with elements s, d of M such
that (writing x^y = y x y^{-1})

  (1) M is generated by i(G) together with {s, d},
  (2) i(g)^d = i(g) i(g)^s for every g,
  (3) i(g') commutes with i(g)^s for all g, g'.

For finite abelian G the builder realizes M = (G x G) x| <phi, psi>
with phi(a, b) = (a, ab), psi(a, b) = (b, a), i(g) = (g, e), s = psi,
d = phi.

The pipeline turns a degree-q boundary z over H, pushed through a
chain of maps H -> H' -> K -> G -> M, into an explicit primitive c'
over M with d(c') = (i o f)_* z and a certified l1 ratio.  All the
ingredients (splitting D, lifting E, the shuffle assembly, the
conjugation homotopy) are exact; the only searches are the l1-minimal
fillings (emap's sections, xi_fill's xi), and those stages return their
fill_min certificates.  Each distinct search is solved once per
PipelineConfig: a batch that meets a target again reuses its first
certificate.  A certificate is checked once, by its verify(), in the
function that builds it, and callers trust it.

Conjugation x^y is groups.conjugation(M, y): verify_mitosis and mu_hom
build gamma_s and gamma_d once per call, and so invert s and d once.

verify_mitosis returns the names of the axioms the data fails, as the
other certificate checks return their failures: that the injection is a
homomorphism (verify_hom), injectivity and (1)-(3), on every element
when source and ambient are finite, else on 20 source elements drawn
from random.Random(0) without the generation check.  Generation (1) is
decided without walking M: the images of i(G), s and d under a faithful
permutation image of M (M.permutation_image) generate a permutation
group whose order, by Schreier-Sims, is |M| exactly when they generate
M.  mu_hom runs it, once per PipelineConfig, `barl1 mitosis
build-abelian` before it writes, and `barl1 verify` on a mitosis
record; mitosis_of_finite_abelian does not.  Maps into G x G build that
product themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import l1opt, linalg
from .barcomplex import (Chain, boundary, l1_norm, push_chain, random_chain,
                         sum_terms)
from .groups import (DirectProduct, Homomorphism, HomomorphismError,
                     PermutationGroup, SemidirectProduct, build_hom,
                     compose_homs, conjugation, diagonal_hom, is_abelian,
                     pair_hom, verify_hom)
from .products import (TensorChain, aw, cross_tensor, tensor_boundary,
                       tensor_elementary, tensor_first_boundary,
                       tensor_second_boundary, push_tensor, xi_fill)


class MitosisError(Exception):
    """A mitosis axiom failed, or data refused for failing one."""


class PipelineError(Exception):
    """An exact identity of the pipeline failed to hold."""


@dataclass
class MitosisData:
    source: object
    ambient: object
    inj: Homomorphism
    s: object
    d: object


def verify_mitosis(data: MitosisData) -> list[str]:
    """The axioms the data fails, in a fixed order; empty when it is a
    mitosis.  The injection must be a homomorphism (by verify_hom's
    case rule) and satisfy the three axioms; exhaustive when source and
    ambient are finite, else on 20 sampled elements (generation
    skipped).  Generation compares |M| with the order of the
    permutation group that the faithful images of i(G), s and d
    generate."""
    G, M, i = data.source, data.ambient, data.inj
    s, d = data.s, data.d
    to_s, to_d = conjugation(M, s).fn, conjugation(M, d).fn
    failed = []
    try:
        verify_hom(i)
    except HomomorphismError:
        failed.append("injection is a homomorphism")
    exhaustive = G.is_finite() and M.is_finite()
    if exhaustive:
        els = G.elements()
    else:
        rng = random.Random(0)
        els = [G.sample(rng) for _ in range(20)]
    image = {g: i(g) for g in els}
    if len(set(image.values())) != len(image):
        failed.append("injectivity")
    if any(to_d(ig) != M.mul(ig, to_s(ig)) for ig in image.values()):
        failed.append("split relation i(g)^d = i(g) i(g)^s")
    if any(M.mul(igp, igs) != M.mul(igs, igp)
           for igs in map(to_s, image.values()) for igp in image.values()):
        failed.append("commuting relation [i(g'), i(g)^s] = 1")
    if exhaustive:
        images = [M.permutation_image(x) for x in [*image.values(), s, d]]
        if PermutationGroup(len(images[0]), images).order() != M.order():
            failed.append("generation of the ambient group")
    return failed


def mitosis_of_finite_abelian(G) -> MitosisData:
    """M = (G x G) x| <phi, psi> for finite abelian G.  The result is
    not checked here: mu_hom checks it before a pipeline uses it, and
    `barl1 mitosis build-abelian` before it writes it."""
    if not G.is_finite():
        raise MitosisError("the builder needs a finite group")
    ab, witness = is_abelian(G, witness=True)
    if not ab:
        raise MitosisError(
            "the builder needs an abelian group; %r and %r do not commute"
            % witness)
    B = DirectProduct((G, G))
    els = B.elements()
    phi = tuple(B.element_index((a, G.mul(a, b))) for a, b in els)
    psi = tuple(B.element_index((b, a)) for a, b in els)
    action = PermutationGroup(len(els), [phi, psi])
    M = SemidirectProduct(B, action)
    e = G.identity()
    aid = action.identity()
    inj = Homomorphism(G, M, lambda g: ((g, e), aid), name="mitosis-inj")
    return MitosisData(G, M, inj, ((e, e), psi), ((e, e), phi))


def mu_hom(data: MitosisData) -> Homomorphism:
    """mu(g', g) = i(g') i(g)^s: a homomorphism G x G -> M exactly when
    the commuting axiom holds; refuses when verify_mitosis fails."""
    failed = verify_mitosis(data)
    if failed:
        raise MitosisError("mu refused: failed axioms: %s" % ", ".join(failed))
    G, M, i = data.source, data.ambient, data.inj
    P = DirectProduct((G, G))

    def fn(pair, _M=M, _i=i.fn, _to_s=conjugation(M, data.s).fn):
        gp, g = pair
        return _M.mul(_i(gp), _to_s(_i(g)))

    return build_hom(P, M, fn=fn, name="mu")


def theta(c: Chain, conj) -> Chain:
    """Conjugation homotopy with the conjugator inserted literally:

      theta(g_1,...,g_q) = sum_{j=1}^{q+1} (-1)^j
          (g_1,...,g_{j-1}, w, w^{-1} g_j w, ..., w^{-1} g_q w)

    satisfying d theta + theta d = id - (x -> w^{-1} x w)_* and
    |theta| <= q + 1.
    """
    G = c.group
    G.check_member(conj)
    w = conj
    wi = G.inv(w)

    def terms():
        for tup, r in c.coeffs.items():
            tail = tuple(G.mul(G.mul(wi, g), w) for g in tup)
            for j in range(1, len(tup) + 2):
                yield tup[:j - 1] + (w,) + tail[j - 1:], -r if j % 2 else r

    return Chain._of(G, c.degree + 1, sum_terms(terms()))


def theta_defect(c: Chain, conj) -> Chain:
    """d theta(c) + theta(dc) - (c - (w^{-1} . w)_* c); zero when the
    orientation convention holds."""
    G = c.group
    gamma = conjugation(G, conj, inverse=True)
    lhs = boundary(theta(c, conj))
    if c.degree >= 1:
        lhs = lhs + theta(boundary(c), conj)
    return lhs - (c - push_chain(gamma, c))


def check_theta_orientation(G, conj) -> None:
    """Exact self-test pinning the homotopy direction on chains drawn
    from random.Random(0); aborts loudly."""
    rng = random.Random(0)
    for degree in (1, 2):
        c = random_chain(G, degree, rng, 3, (1, 2, 3))
        if not theta_defect(c, conj).is_zero():
            raise MitosisError(
                "conjugation homotopy orientation mismatch for conjugator %r"
                % (conj,))


def dmap(z: Chain) -> TensorChain:
    """D(z) = aw(diag_* z) - z (x) 1 - 1 (x) z, supported in the
    intermediate bidegrees; zero in degree 1."""
    if z.degree < 1:
        raise ValueError("dmap is defined in degree >= 1")
    G = z.group
    t = aw(push_chain(diagonal_hom(G), z))
    one = Chain.single(G, ())
    t = t - tensor_elementary(z, one) - tensor_elementary(one, z)
    for p, q in t.bidegrees():
        if p == 0 or q == 0:
            raise PipelineError("dmap left mass in an outer bidegree (%d, %d)"
                                % (p, q))
    return t


def _boundary_factors(t: TensorChain, what):
    """t as a sum of elementary tensors u (x) v, yielded as (u, v): each
    bidegree block is split by the rank factorization of its matrix, so
    the u span its column space and the v its row space and inherit any
    subspace membership.  A factor that is not a boundary, such as a
    nonzero degree-0 one, raises PipelineError naming `what`."""
    GA, GB = t.groups
    for p, r in t.bidegrees():
        block = t.component(p, r).coeffs
        rows = sorted({a for a, _ in block})
        cols = sorted({b for _, b in block})
        row_pos = {a: i for i, a in enumerate(rows)}
        col_pos = {b: j for j, b in enumerate(cols)}
        w = [[0] * len(cols) for _ in rows]
        for (a, b), v in block.items():
            w[row_pos[a]][col_pos[b]] = v
        for colvec, rowvec in linalg.rank_factorization(w):
            u = Chain._of(GA, p, sum_terms(zip(rows, colvec)))
            v = Chain._of(GB, r, sum_terms(zip(cols, rowvec)))
            if not (l1opt.is_boundary(u) and l1opt.is_boundary(v)):
                raise PipelineError(
                    "a factor of %s in bidegree (%d, %d) is not a boundary"
                    % (what, p, r))
            yield u, v


@dataclass
class PipelineConfig:
    """Maps H -phi-> H' -phi'-> K -psi-> G with a mitosis of G.

    phi and psi carry the section fillings (the empirical kappa), and
    H_k(phi'; Q) = 0 in intermediate degrees is what makes the lifted
    blocks fillable; a violation surfaces as a failed boundary
    membership check inside emap.

    A config is one batch, and it keeps the fill certificates its batch
    has solved for as long as it lives: primitive_pipeline's xi, keyed
    on z, and emap's sections, keyed on the pushed target.  A key is a
    tag naming the search plus the chain's group, degree and
    coefficients, so a target met again is not solved again.  This
    relies on l1opt's rule that a certificate depends on (G, q, z)
    alone, never on the order of the calls.  A stored certificate is
    shared by every pipeline certificate that meets its target, so it is
    read-only; a search that raises stores nothing, so it raises again
    on the next call.
    """

    phi: Homomorphism
    phi_prime: Homomorphism
    psi: Homomorphism
    mitosis: MitosisData
    _mu: Homomorphism = field(init=False, repr=False)
    _conj: object = field(init=False, repr=False)
    _fills: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The set-up work of every certificate, done once: mu_hom
        checks the mitosis data, and the conjugator d s^-1 that theta
        inserts passes the orientation self-test."""
        if self.phi.target != self.phi_prime.source:
            raise ValueError("phi and phi' do not compose")
        if self.phi_prime.target != self.psi.source:
            raise ValueError("phi' and psi do not compose")
        if self.psi.target != self.mitosis.source:
            raise ValueError("psi does not land in the mitosis source")
        self._mu = mu_hom(self.mitosis)
        M, s, d = self.mitosis.ambient, self.mitosis.s, self.mitosis.d
        self._conj = M.mul(d, M.inv(s))
        check_theta_orientation(M, self._conj)
        self._fills = {}

    def _fill(self, tag, z: Chain, solve) -> l1opt.FillCertificate:
        """solve(z), solved once per tag and chain in this config.  The
        tag, not solve, names the search, as a tracer may rebind the
        function between calls."""
        key = (tag, z.group, z.degree, frozenset(z.coeffs.items()))
        cert = self._fills.get(key)
        if cert is None:
            cert = self._fills[key] = solve(z)
        return cert

    def f(self) -> Homomorphism:
        return compose_homs(self.psi, compose_homs(self.phi_prime, self.phi))

    def mu(self) -> Homomorphism:
        return self._mu


def emap(x: TensorChain, cfg: PipelineConfig):
    """Certified lift: returns (E(x), section certificates) with
    d E(x) = (f (x) f)(x) for a boundary x in intermediate bidegrees,
    where f = psi o phi' o phi.

    The section maps S (over phi) and T (over psi) are realized per
    instance by l1-minimal fillings, whose fill_min certificates (each
    target solved once per cfg) are returned in order; each block of an
    intermediate tensor is decomposed into elementary tensors whose
    factors are checked to be boundaries before filling.
    """
    H = cfg.phi.source
    Hp = cfg.phi.target
    G = cfg.psi.target
    if x.groups != (H, H):
        raise ValueError("emap input must be a tensor chain over (H, H)")
    q = x.degree
    certs = []

    def section(src_chain, hom):
        cert = cfg._fill("section", push_chain(hom, src_chain), l1opt.fill_min)
        certs.append(cert)
        return cert.c

    for p, r in x.bidegrees():
        if not 1 <= p <= q - 1:
            raise ValueError("emap input has an outer bidegree (%d, %d)" % (p, r))

    # (S (x) S)(id (x) d)(x), blockwise over boundary-factor decompositions
    ssn = TensorChain.zero((Hp, Hp), q + 1)
    for u, v in _boundary_factors(tensor_second_boundary(x), "(id (x) d)(x)"):
        ssn = ssn + tensor_elementary(section(u, cfg.phi), section(v, cfg.phi))

    # U(x) = (phi (x) phi)(x) - d(SSN); both partial boundaries vanish
    u_t = push_tensor(cfg.phi, cfg.phi, x) - tensor_boundary(ssn)
    if not tensor_second_boundary(u_t).is_zero():
        raise PipelineError("(id (x) d) U(x) != 0")
    if not tensor_first_boundary(u_t).is_zero():
        raise PipelineError("(d (x) id) U(x) != 0")

    # (T (x) (psi - T d)) over (phi' (x) phi') U(x); T d vanishes, as
    # a factor that is a boundary is a cycle
    v_t = push_tensor(cfg.phi_prime, cfg.phi_prime, u_t)
    tt = TensorChain.zero((G, G), q + 1)
    for a, b in _boundary_factors(v_t, "(phi' (x) phi') U(x); is phi' "
                                  "rationally acyclic there?"):
        tt = tt + tensor_elementary(section(a, cfg.psi), push_chain(cfg.psi, b))

    g_hom = compose_homs(cfg.psi, cfg.phi_prime)
    value = push_tensor(g_hom, g_hom, ssn) + tt

    f = cfg.f()
    if tensor_boundary(value) != push_tensor(f, f, x):
        raise PipelineError("emap boundary identity d E(x) = (f (x) f)(x) failed")
    return value, certs


@dataclass
class PipelineCertificate:
    """d(primitive) = target = (i o f)_* z, with |primitive| <= bound |z|."""

    z: Chain
    target: Chain
    primitive: Chain
    degree: int
    ratio: Fraction
    kappa: Fraction
    xi_ratio: Fraction
    bound: Fraction

    def verify(self) -> list[str]:
        """Re-check with chain arithmetic only; returns failed check names."""
        failures = l1opt.filling_failures(self.primitive, self.target,
                                          self.z, self.ratio)
        if self.bound != constant_c(self.degree, self.kappa, self.xi_ratio):
            failures.append("stated bound does not match the constant formula")
        if self.ratio > self.bound:
            failures.append("ratio exceeds the certified constant")
        return failures


def primitive_pipeline(z: Chain, cfg: PipelineConfig) -> PipelineCertificate:
    """Explicit primitive of (i o f)_* z over the mitosis ambient group,
    as a certificate that has passed its verify().

    Assembles c' = theta((conj d)_* (i o f)_* z) - mu_*(E'(z)) where
    E'(z) = cross(E(D(z))) - (f x f)_* xi, with the bound constant_c at
    kappa, the largest section ratio of E, and the xi ratio |xi|/|z|
    (both 0 for z = 0).  verify() checks d c' = (i o f)_* z and the
    bound; a failure raises PipelineError naming the failed checks.
    """
    H = cfg.phi.source
    q = z.degree
    if z.group != H:
        raise ValueError("z must live over the source group of phi")
    if q < 1:
        raise ValueError("the pipeline needs degree >= 1")
    M = cfg.mitosis.ambient
    f = cfg.f()

    xi = cfg._fill("xi", z, xi_fill).c  # raises ValueError on a non-cycle
    e_val, sections = emap(dmap(z), cfg)
    e_prime = cross_tensor(e_val) - push_chain(pair_hom(f, f), xi)

    w = push_chain(compose_homs(cfg.mitosis.inj, f), z)
    # inserted conjugator d s^-1; gamma_{s d^-1} overall
    wd = push_chain(conjugation(M, cfg.mitosis.d), w)
    c_prime = theta(wd, cfg._conj) - push_chain(cfg.mu(), e_prime)

    nz = l1_norm(z)
    kappa = max((cert.ratio for cert in sections), default=Fraction(0))
    xi_ratio = l1_norm(xi) / nz if nz else Fraction(0)
    ratio = l1_norm(c_prime) / nz if nz else Fraction(0)
    cert = PipelineCertificate(z, w, c_prime, q, ratio, kappa, xi_ratio,
                               constant_c(q, kappa, xi_ratio))
    failures = cert.verify()
    if failures:
        raise PipelineError("pipeline certificate fails %s"
                            % "; ".join(failures))
    return cert


def e_bound(q, kappa) -> Fraction:
    """Operator bound for the lift E at section norm kappa,
    k + 2n k^2 (1 + n k + n^2 k^2) with n = q + 1 and k = kappa (a float
    raises TypeError, by linalg.exact).  With k = a/b in lowest terms the
    sum is taken in integers over the denominator b^4, and one Fraction
    is built from it."""
    k = linalg.exact(kappa)
    a, b = k.numerator, k.denominator
    n = q + 1
    return Fraction(a * b ** 3
                    + 2 * n * a * a * (b * b + n * a * b + n * n * a * a), b ** 4)


def constant_c(q, kappa, xi) -> Fraction:
    """Certified primitive ratio: theta term (q+1), shuffle assembly
    binom(q+1, floor((q+1)/2)) times the E bound times the D bound
    (q+3), plus the xi contribution (a float raises TypeError).  The
    three terms are summed in integers over the product of the
    denominators of e_bound and xi, and one Fraction is built from it."""
    e = e_bound(q, kappa)
    x = linalg.exact(xi)
    d, y = e.denominator, x.denominator
    shuffle = comb(q + 1, (q + 1) // 2)
    return Fraction(((q + 1) * d + shuffle * e.numerator * (q + 3)) * y
                    + x.numerator * d, d * y)


@dataclass
class TowerRow:
    degree: int
    size: int
    kappa: Fraction
    theta_bound: int | None = None
    aw_bound: int | None = None
    shuffle_bound: int | None = None
    e_input: Fraction | None = None
    xi: Fraction | None = None


def tower(q_max, xi=None) -> list[TowerRow]:
    """Iterated constants: kappa_0 = 0, kappa_q = c(q, kappa_{q-1}, xi_q),
    with ambient sizes n_0 = 1, n_q = 3 n_{q-1} + 1.  xi lists xi_0 (not
    read) to xi_{q_max} (a float raises TypeError); None means every
    xi_q is 0."""
    xis = [linalg.exact(v) for v in ([0] * (q_max + 1) if xi is None else xi)]
    if len(xis) != q_max + 1:
        raise ValueError("tower to degree %d needs %d xi values, got %d"
                         % (q_max, q_max + 1, len(xis)))
    rows = [TowerRow(0, 1, Fraction(0))]
    kappa = Fraction(0)
    n = 1
    for q in range(1, q_max + 1):
        n = 3 * n + 1
        row = TowerRow(q, n, constant_c(q, kappa, xis[q]),
                       theta_bound=q + 1, aw_bound=q + 1,
                       shuffle_bound=comb(q + 1, (q + 1) // 2),
                       e_input=e_bound(q, kappa), xi=xis[q])
        kappa = row.kappa
        rows.append(row)
    return rows
