"""Command-line front end.

Exit codes: 0 success, 1 mathematical failure (axiom violation,
infeasibility, certificate mismatch), 2 input error (bad schema,
unreadable file, size cap exceeded).  All rationals print as "p/q".
Reports are deterministic; `--json` switches to the record format.
Every subcommand that enumerates a basis or a word ball (homology,
fill, kappa, cup, pipeline, verify) obeys the one size cap, the
BARL1_SIZE_CAP environment variable that barcomplex.check_size reads.
fill and pipeline emit the certificates of fill_min and
primitive_pipeline, which have passed their verify() there, and
`mitosis build-abelian` writes data that has passed verify_mitosis;
`barl1 verify` re-checks a written record of any kind, and is the one
command that checks a mitosis file.

run sorts errors by class: a disproved claim exits 1, and one
input-error clause (FileFormatError, SizeCapError, OSError, any other
ValueError) exits 2 with its message; any other exception is a bug and
shows its traceback.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from . import __version__, fileio, l1opt, mitosis
from .barcomplex import (Chain, SizeCapError, betti, boundary, l1_norm,
                         random_chain, sum_terms, tuple_basis)
from .groups import (GroupAxiomError, HomomorphismError, build_hom,
                     check_axioms, identity_hom)
from .l1opt import Infeasible, SupportExhausted
from .mitosis import MitosisError, PipelineError
from .products import cross_chain, cup, pair_compat_check


class _MathFailure(Exception):
    """Raised by subcommands when a computation disproves a claim."""


def _frac(fr) -> str:
    return fileio.format_fraction(fr)


def _emit(args, report: dict, lines: list[str], saved_as=None) -> None:
    """Write the report as JSON (--json) or as text lines, to --out or
    stdout.  A report named by saved_as goes to --out as JSON even
    without --json, and its text lines then go to stdout."""
    as_json = getattr(args, "json", False)
    out = getattr(args, "out", None)
    if saved_as and out and not as_json:
        fileio.dump_json(report, out)
        lines = lines + ["%s written to %s" % (saved_as, out)]
        out = None
    text = fileio.dump_json(report) if as_json else "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_group_check(args) -> int:
    G = fileio.load_group(args.group)
    report = check_axioms(G)
    lines = ["group: %s" % G.describe(),
             "mode: %s" % report["mode"],
             "axioms: ok"]
    _emit(args, {"command": "group check", "version": __version__,
                 "group": G.describe(), "mode": report["mode"], "ok": True},
          lines)
    return 0


def _cmd_boundary(args) -> int:
    G = fileio.load_group(args.group)
    c = fileio.load_chain(args.chain, G)
    dc = boundary(c)
    lines = ["degree: %d -> %d" % (c.degree, dc.degree),
             "|c| = %s, |dc| = %s" % (_frac(l1_norm(c)), _frac(l1_norm(dc)))]
    for t, r in dc.terms():
        lines.append("%s * %s" % (_frac(r), list(t)))
    _emit(args, {"command": "boundary", "version": __version__,
                 "degree": c.degree, "norm": _frac(l1_norm(dc)),
                 "result": fileio.chain_to_dict(dc)}, lines)
    return 0


def _cmd_homology(args) -> int:
    G = fileio.load_group(args.group)
    rank = betti(G, args.degree)
    lines = ["H_%d rank: %d" % (args.degree, rank)]
    _emit(args, {"command": "homology", "version": __version__,
                 "degree": args.degree, "rank": rank}, lines)
    return 0


def _cmd_fill(args) -> int:
    G = fileio.load_group(args.group)
    z = fileio.load_chain(args.chain, G)
    cert = l1opt.fill_min(z)
    record = fileio.fill_cert_to_dict(cert)
    lines = ["ratio = %s" % _frac(cert.ratio),
             "|z| = %s, |c| = %s" % (_frac(l1_norm(z)), _frac(l1_norm(cert.c))),
             "method: %s" % cert.method]
    _emit(args, record, lines, saved_as="certificate")
    return 0


def _cmd_kappa(args) -> int:
    G = fileio.load_group(args.group)
    rng = random.Random(args.seed)
    res = l1opt.ubc_kappa_exact(G, args.degree, rng=rng)
    record = fileio.kappa_to_dict(res, G)
    if res.kappa is not None:
        lines = ["kappa = %s (exact, %s)" % (_frac(res.kappa), res.method)]
    else:
        lines = ["kappa in [%s, %s] (%s)"
                 % (_frac(res.lower), _frac(res.upper), res.method)]
    _emit(args, record, lines, saved_as="certificate")
    return 0


def _cmd_cross(args) -> int:
    GA = fileio.load_group(args.group_a)
    GB = fileio.load_group(args.group_b)
    a = fileio.load_chain(args.chain_a, GA)
    b = fileio.load_chain(args.chain_b, GB)
    c = cross_chain(a, b)
    lines = ["degree: %d x %d -> %d" % (a.degree, b.degree, c.degree),
             "|a x b| = %s" % _frac(l1_norm(c))]
    for t, r in c.terms():
        lines.append("%s * %s" % (_frac(r), [list(map(str, x)) for x in t]))
    _emit(args, {"command": "cross", "version": __version__,
                 "degree": c.degree, "norm": _frac(l1_norm(c)),
                 "result": fileio.chain_to_dict(c)}, lines)
    return 0


def _cmd_cup(args) -> int:
    G = fileio.load_group(args.group)
    f = fileio.cochain_from_dict(G, fileio.load_json(args.cochain_a))
    g = fileio.cochain_from_dict(G, fileio.load_json(args.cochain_b))
    h = cup(f, g)
    values = Chain._of(G, h.degree, sum_terms(
        (t, h.value(t)) for t in tuple_basis(G, h.degree)))
    lines = ["degree: %d + %d -> %d" % (f.degree, g.degree, h.degree)]
    for t, v in values.terms():
        lines.append("%s * %s" % (_frac(v), list(t)))
    _emit(args, {"command": "cup", "version": __version__,
                 "degree": h.degree,
                 "terms": fileio.chain_to_records(values)}, lines)
    return 0


def _cmd_pair(args) -> int:
    GA = fileio.load_group(args.group_a)
    GB = fileio.load_group(args.group_b)
    f = fileio.cochain_from_dict(GA, fileio.load_json(args.cochain_a))
    g = fileio.cochain_from_dict(GB, fileio.load_json(args.cochain_b))
    c = fileio.load_chain(args.chain_a, GA)
    d = fileio.load_chain(args.chain_b, GB)
    rep = pair_compat_check(f, g, c, d)
    lines = ["<f x g, c x d> = %s" % _frac(rep.lhs),
             "(-1)^{pq} <f,c><g,d> = %s" % _frac(rep.rhs),
             "compatible: %s" % ("yes" if rep.ok else "NO")]
    _emit(args, {"command": "pair", "version": __version__,
                 "lhs": _frac(rep.lhs), "rhs": _frac(rep.rhs),
                 "sign": rep.sign, "ok": rep.ok}, lines)
    if not rep.ok:
        raise _MathFailure("cross pairing compatibility failed")
    return 0


def _cmd_mitosis_build(args) -> int:
    G = fileio.load_group(args.group)
    data = mitosis.mitosis_of_finite_abelian(G)
    failed = mitosis.verify_mitosis(data)
    if failed:
        raise _MathFailure("built mitosis failed its axioms: %s"
                           % ", ".join(failed))
    record = fileio.mitosis_to_dict(data)
    lines = ["source: %s" % G.describe(),
             "ambient: %s" % data.ambient.describe(),
             "ambient order: %d" % data.ambient.order()]
    _emit(args, record, lines, saved_as="mitosis data")
    return 0


def _load_pipeline_config(path):
    raw = fileio.load_json(path)
    if not isinstance(raw, dict):
        raise fileio.FileFormatError("pipeline config must be an object")
    base = os.path.dirname(os.path.abspath(path))

    def group_of(v):
        if isinstance(v, str):
            return fileio.load_group(os.path.join(base, v))
        return fileio.read_group(v, "pipeline config")

    if "group" in raw:
        H = Hp = K = G = group_of(raw["group"])
    else:
        groups = fileio.required(raw, "groups")
        H, Hp, K, G = (group_of(fileio.required(groups, name))
                       for name in ("H", "H'", "K", "G"))

    homs = raw.get("homs", "identity")
    if homs == "identity":
        if not (H == Hp == K == G):
            raise fileio.FileFormatError(
                "identity homs need one common group")
        phi = identity_hom(H)
        phi_prime = identity_hom(Hp)
        psi = identity_hom(K)
    else:
        def hom_of(name, S, T):
            table = fileio.read_table(homs, name, S, T)
            return build_hom(S, T, fn=table.__getitem__, name=name)

        phi = hom_of("phi", H, Hp)
        phi_prime = hom_of("phi'", Hp, K)
        psi = hom_of("psi", K, G)

    data = mitosis.mitosis_of_finite_abelian(G)
    cfg = mitosis.PipelineConfig(phi, phi_prime, psi, data)
    degree = fileio.parse_int(raw.get("degree", 2), "pipeline degree")
    if degree < 1:
        raise fileio.FileFormatError(
            "pipeline degree must be at least 1, got %d" % degree)
    samples = fileio.parse_int(raw.get("samples", 1), "pipeline samples")
    if samples < 1:
        raise fileio.FileFormatError(
            "pipeline samples must be at least 1, got %d" % samples)
    seed = fileio.parse_int(raw.get("seed", 0), "pipeline seed")
    return cfg, degree, samples, seed


def _cmd_pipeline(args) -> int:
    cfg, degree, samples, seed = _load_pipeline_config(args.config)
    rng = random.Random(seed)
    H = cfg.phi.source
    certs = []
    for _ in range(samples):
        z = boundary(random_chain(H, degree + 1, rng, 2, (-2, -1, 1, 2)))
        certs.append(mitosis.primitive_pipeline(z, cfg))
    worst = max(c.ratio for c in certs)
    bound = max(c.bound for c in certs)
    lines = ["degree: %d, samples: %d" % (degree, samples),
             "worst ratio = %s" % _frac(worst),
             "certified bound = %s" % _frac(bound),
             "kappa_batch = %s" % _frac(max(c.kappa for c in certs)),
             "xi_batch = %s" % _frac(max(c.xi_ratio for c in certs))]
    records = [fileio.pipeline_cert_to_dict(c) for c in certs]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for k, record in enumerate(records):
            fileio.dump_json(record,
                             os.path.join(args.out_dir, "pipeline-%03d.json" % k))
        lines.append("%d certificates written to %s" % (len(certs), args.out_dir))
    _emit(args, {"command": "pipeline", "version": __version__,
                 "degree": degree, "samples": samples,
                 "worst_ratio": _frac(worst), "bound": _frac(bound),
                 "certificates": records}, lines)
    return 0


def _cmd_tower(args) -> int:
    if args.degree < 0:
        raise fileio.FileFormatError("--degree must be at least 0")
    xi = None
    if args.xi:
        xi = [fileio.parse_fraction(v.strip()) for v in args.xi.split(",")]
        if len(xi) != args.degree:
            raise fileio.FileFormatError("--xi needs %d values, got %d"
                                         % (args.degree, len(xi)))
        xi = [Fraction(0)] + xi  # stage 0 has no xi input
    rows = mitosis.tower(args.degree, xi=xi)
    record = fileio.tower_to_dict(rows)
    lines = ["%-7s %-12s %s" % ("degree", "size", "kappa")]
    for r in rows:
        lines.append("%-7d %-12d %s" % (r.degree, r.size, _frac(r.kappa)))
    _emit(args, record, lines, saved_as="tower")
    return 0


def _cmd_verify(args) -> int:
    record = fileio.load_json(args.certificate)
    failures = fileio.verify_certificate_dict(record)
    kind = record.get("kind", "?") if isinstance(record, dict) else "?"
    lines = (["certificate kind: %s" % kind, "verified: ok"] if not failures
             else ["certificate kind: %s" % kind] +
                  ["FAILED: %s" % f for f in failures])
    _emit(args, {"command": "verify", "version": __version__, "kind": kind,
                 "ok": not failures, "failures": failures}, lines)
    if failures:
        raise _MathFailure("; ".join(failures))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="barl1",
        description="exact bar-complex workbench: boundaries, products, "
                    "l1-minimal fillings, mitosis pipelines")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, out=True):
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable record")
        if out:
            p.add_argument("--out", default=None, help="write output here")

    gp = sub.add_parser("group", help="group file operations")
    gsub = gp.add_subparsers(dest="groupcmd", required=True)
    g1 = gsub.add_parser("check", help="verify the group axioms of a file")
    g1.add_argument("group")
    common(g1)
    g1.set_defaults(func=_cmd_group_check)

    b = sub.add_parser("boundary", help="boundary of a chain file")
    b.add_argument("--group", required=True)
    b.add_argument("--chain", required=True)
    common(b)
    b.set_defaults(func=_cmd_boundary)

    h = sub.add_parser("homology", help="rational homology rank")
    h.add_argument("--group", required=True)
    h.add_argument("--degree", type=int, required=True)
    common(h)
    h.set_defaults(func=_cmd_homology)

    f = sub.add_parser("fill", help="l1-minimal filling certificate")
    f.add_argument("--group", required=True)
    f.add_argument("--chain", required=True)
    common(f)
    f.set_defaults(func=_cmd_fill)

    k = sub.add_parser("kappa", help="uniform boundary constant")
    k.add_argument("--group", required=True)
    k.add_argument("--degree", type=int, required=True)
    k.add_argument("--seed", type=int, default=0)
    common(k)
    k.set_defaults(func=_cmd_kappa)

    x = sub.add_parser("cross", help="homological cross product")
    x.add_argument("--group-a", required=True)
    x.add_argument("--group-b", required=True)
    x.add_argument("--chain-a", required=True)
    x.add_argument("--chain-b", required=True)
    common(x)
    x.set_defaults(func=_cmd_cross)

    cu = sub.add_parser("cup", help="cup product of cochain tables")
    cu.add_argument("--group", required=True)
    cu.add_argument("--cochain-a", required=True)
    cu.add_argument("--cochain-b", required=True)
    common(cu)
    cu.set_defaults(func=_cmd_cup)

    pr = sub.add_parser("pair", help="cross pairing compatibility check")
    pr.add_argument("--group-a", required=True)
    pr.add_argument("--group-b", required=True)
    pr.add_argument("--cochain-a", required=True)
    pr.add_argument("--cochain-b", required=True)
    pr.add_argument("--chain-a", required=True)
    pr.add_argument("--chain-b", required=True)
    common(pr)
    pr.set_defaults(func=_cmd_pair)

    m = sub.add_parser("mitosis", help="mitosis data operations")
    msub = m.add_subparsers(dest="mitosiscmd", required=True)
    mb = msub.add_parser("build-abelian",
                         help="build the double-and-swap mitosis")
    mb.add_argument("--group", required=True)
    common(mb)
    mb.set_defaults(func=_cmd_mitosis_build)

    pl = sub.add_parser("pipeline", help="certified primitive pipeline")
    pl.add_argument("--config", required=True)
    pl.add_argument("--out-dir", default=None)
    common(pl, out=False)
    pl.set_defaults(func=_cmd_pipeline)

    tw = sub.add_parser("tower", help="iterated constants table")
    tw.add_argument("--degree", type=int, required=True)
    tw.add_argument("--xi", default=None,
                    help="comma-separated xi values for stages 1..q")
    common(tw)
    tw.set_defaults(func=_cmd_tower)

    v = sub.add_parser("verify", help="re-check a certificate file")
    v.add_argument("certificate")
    common(v)
    v.set_defaults(func=_cmd_verify)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_MathFailure, MitosisError, PipelineError, Infeasible,
            SupportExhausted, GroupAxiomError, HomomorphismError) as exc:
        sys.stderr.write("mathematical failure: %s\n" % exc)
        return 1
    except (fileio.FileFormatError, SizeCapError, OSError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2


def main() -> None:
    sys.exit(run())
