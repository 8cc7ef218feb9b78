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

build_parser declares each subcommand with one call; _emit stamps each
report that is not a saved record with its command path and the
version; fileio reads every file, the pipeline config included.

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
from .fileio import format_fraction
from .groups import GroupAxiomError, HomomorphismError, check_axioms
from .l1opt import Infeasible, SupportExhausted
from .mitosis import MitosisError, PipelineError
from .products import cross_chain, cup, pair_compat_check


class _MathFailure(Exception):
    """Raised by subcommands when a computation disproves a claim."""


def _emit(args, report: dict, lines: list[str], saved_as=None) -> None:
    """Write the report as JSON (--json) or as text lines, to --out or
    stdout.  A report named by saved_as is a record: it goes to --out
    as JSON even without --json, and its text lines then go to stdout.
    Any other report is stamped with its command path and the version."""
    if saved_as is None:
        report = {"command": args.command, "version": __version__, **report}
    out = getattr(args, "out", None)
    if saved_as and out and not args.json:
        fileio.dump_json(report, out)
        lines = lines + ["%s written to %s" % (saved_as, out)]
        out = None
    text = fileio.dump_json(report) if args.json else "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_group_check(args) -> int:
    G = fileio.load_group(args.group)
    mode = check_axioms(G)["mode"]
    lines = ["group: %s" % G.describe(), "mode: %s" % mode, "axioms: ok"]
    _emit(args, {"group": G.describe(), "mode": mode, "ok": True}, lines)
    return 0


def _cmd_boundary(args) -> int:
    G = fileio.load_group(args.group)
    c = fileio.load_chain(args.chain, G)
    dc = boundary(c)
    norm = format_fraction(l1_norm(dc))
    lines = ["degree: %d -> %d" % (c.degree, dc.degree),
             "|c| = %s, |dc| = %s" % (format_fraction(l1_norm(c)), norm)]
    for t, r in dc.terms():
        lines.append("%s * %s" % (format_fraction(r), list(t)))
    _emit(args, {"degree": c.degree, "norm": norm,
                 "result": fileio.chain_to_dict(dc)}, lines)
    return 0


def _cmd_homology(args) -> int:
    G = fileio.load_group(args.group)
    rank = betti(G, args.degree)
    lines = ["H_%d rank: %d" % (args.degree, rank)]
    _emit(args, {"degree": args.degree, "rank": rank}, lines)
    return 0


def _cmd_fill(args) -> int:
    G = fileio.load_group(args.group)
    z = fileio.load_chain(args.chain, G)
    cert = l1opt.fill_min(z)
    lines = ["ratio = %s" % format_fraction(cert.ratio),
             "|z| = %s, |c| = %s" % (format_fraction(l1_norm(z)),
                                     format_fraction(l1_norm(cert.c))),
             "method: %s" % cert.method]
    _emit(args, fileio.fill_cert_to_dict(cert), lines, saved_as="certificate")
    return 0


def _cmd_kappa(args) -> int:
    G = fileio.load_group(args.group)
    rng = random.Random(args.seed)
    res = l1opt.ubc_kappa_exact(G, args.degree, rng=rng)
    if res.kappa is not None:
        lines = ["kappa = %s (exact, %s)" % (format_fraction(res.kappa), res.method)]
    else:
        lines = ["kappa in [%s, %s] (%s)"
                 % (format_fraction(res.lower), format_fraction(res.upper),
                    res.method)]
    _emit(args, fileio.kappa_to_dict(res, G), lines, saved_as="certificate")
    return 0


def _cmd_cross(args) -> int:
    GA = fileio.load_group(args.group_a)
    GB = fileio.load_group(args.group_b)
    a = fileio.load_chain(args.chain_a, GA)
    b = fileio.load_chain(args.chain_b, GB)
    c = cross_chain(a, b)
    norm = format_fraction(l1_norm(c))
    lines = ["degree: %d x %d -> %d" % (a.degree, b.degree, c.degree),
             "|a x b| = %s" % norm]
    for t, r in c.terms():
        lines.append("%s * %s" % (format_fraction(r),
                                  [list(map(str, x)) for x in t]))
    _emit(args, {"degree": c.degree, "norm": norm,
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
        lines.append("%s * %s" % (format_fraction(v), list(t)))
    _emit(args, {"degree": h.degree,
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
    lhs, rhs = format_fraction(rep.lhs), format_fraction(rep.rhs)
    lines = ["<f x g, c x d> = %s" % lhs,
             "(-1)^{pq} <f,c><g,d> = %s" % rhs,
             "compatible: %s" % ("yes" if rep.ok else "NO")]
    _emit(args, {"lhs": lhs, "rhs": rhs, "sign": rep.sign, "ok": rep.ok}, lines)
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


def _cmd_pipeline(args) -> int:
    cfg, degree, samples, seed = fileio.load_pipeline_config(args.config)
    rng = random.Random(seed)
    H = cfg.phi.source
    certs = []
    for _ in range(samples):
        z = boundary(random_chain(H, degree + 1, rng, 2, (-2, -1, 1, 2)))
        certs.append(mitosis.primitive_pipeline(z, cfg))
    worst = format_fraction(max(c.ratio for c in certs))
    bound = format_fraction(max(c.bound for c in certs))
    lines = ["degree: %d, samples: %d" % (degree, samples),
             "worst ratio = %s" % worst,
             "certified bound = %s" % bound,
             "kappa_batch = %s" % format_fraction(max(c.kappa for c in certs)),
             "xi_batch = %s" % format_fraction(max(c.xi_ratio for c in certs))]
    records = [fileio.pipeline_cert_to_dict(c) for c in certs]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for k, record in enumerate(records):
            fileio.dump_json(record, os.path.join(args.out_dir,
                                                  "pipeline-%03d.json" % k))
        lines.append("%d certificates written to %s" % (len(certs), args.out_dir))
    _emit(args, {"degree": degree, "samples": samples, "worst_ratio": worst,
                 "bound": bound, "certificates": records}, lines)
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
    lines = ["%-7s %-12s %s" % ("degree", "size", "kappa")]
    for r in rows:
        lines.append("%-7d %-12d %s" % (r.degree, r.size, format_fraction(r.kappa)))
    _emit(args, fileio.tower_to_dict(rows), lines, saved_as="tower")
    return 0


def _cmd_verify(args) -> int:
    record = fileio.load_json(args.certificate)
    failures = fileio.verify_certificate_dict(record)
    kind = record["kind"]  # verify_certificate_dict has required it
    lines = ["certificate kind: %s" % kind]
    lines += ["FAILED: %s" % f for f in failures] or ["verified: ok"]
    _emit(args, {"kind": kind, "ok": not failures, "failures": failures}, lines)
    if failures:
        raise _MathFailure("; ".join(failures))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="barl1",
        description="exact bar-complex workbench: boundaries, products, "
                    "l1-minimal fillings, mitosis pipelines")
    ap.add_argument("--version", action="version", version=__version__)
    subs = {"": ap.add_subparsers(dest="subcommand", required=True)}

    def group(name, help):
        subs[name] = subs[""].add_parser(name, help=help).add_subparsers(
            dest=name + "cmd", required=True)

    def command(path, func, help, *inputs, degree=False, out=True):
        """The parser of the subcommand at path: its input files (an
        --option, required, or a positional), --degree, --json, --out."""
        prefix, _, name = path.rpartition(" ")
        p = subs[prefix].add_parser(name, help=help)
        for i in inputs:
            if i.startswith("--"):
                p.add_argument(i, required=True)
            else:
                p.add_argument(i)
        if degree:
            p.add_argument("--degree", type=int, required=True)
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable record")
        if out:
            p.add_argument("--out", default=None, help="write output here")
        p.set_defaults(func=func, command=path)
        return p

    group("group", "group file operations")
    command("group check", _cmd_group_check,
            "verify the group axioms of a file", "group")
    command("boundary", _cmd_boundary, "boundary of a chain file",
            "--group", "--chain")
    command("homology", _cmd_homology, "rational homology rank", "--group",
            degree=True)
    command("fill", _cmd_fill, "l1-minimal filling certificate",
            "--group", "--chain")
    command("kappa", _cmd_kappa, "uniform boundary constant", "--group",
            degree=True).add_argument("--seed", type=int, default=0)
    command("cross", _cmd_cross, "homological cross product",
            "--group-a", "--group-b", "--chain-a", "--chain-b")
    command("cup", _cmd_cup, "cup product of cochain tables",
            "--group", "--cochain-a", "--cochain-b")
    command("pair", _cmd_pair, "cross pairing compatibility check",
            "--group-a", "--group-b", "--cochain-a", "--cochain-b",
            "--chain-a", "--chain-b")
    group("mitosis", "mitosis data operations")
    command("mitosis build-abelian", _cmd_mitosis_build,
            "build the double-and-swap mitosis", "--group")
    command("pipeline", _cmd_pipeline, "certified primitive pipeline",
            "--config", out=False).add_argument("--out-dir", default=None)
    tower = command("tower", _cmd_tower, "iterated constants table", degree=True)
    tower.add_argument("--xi", default=None,
                       help="comma-separated xi values for stages 1..q")
    command("verify", _cmd_verify, "re-check a certificate file",
            "certificate")
    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
