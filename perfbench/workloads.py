"""The three benchmark workloads, run against the public barl1 API.

Each workload has a set-up step (groups, mitosis data, inputs, corpus),
an operation that the benchmark times, and a check of the operation's
output that runs outside the timed region.  Every input comes from the
seed passed in; nothing is taken from the package's own samplers or
from the test helpers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Package functions are called through their modules, so the traced
# run's wrappers see these calls too.
from barl1 import barcomplex, cli, fileio, groups, l1opt, mitosis
from barl1.barcomplex import Chain
from barl1.groups import DirectProduct


@dataclass
class Checked:
    """The outcome of checking one operation's output."""

    ok: bool
    record: object = None
    cert_bytes: int = 0
    kappa_exact: int = 0
    kappa_total: int = 0
    problems: list = field(default_factory=list)


def random_boundary(G, degree, rng, terms=2):
    """Boundary of a random (degree+1)-chain of `terms` random terms with
    coefficients in {-2, -1, 1, 2}; drawn again until it is nonzero."""
    while True:
        coeffs = {}
        for _ in range(terms):
            tup = tuple(G.sample(rng) for _ in range(degree + 1))
            coeffs[tup] = coeffs.get(tup, 0) + rng.choice((-2, -1, 1, 2))
        z = barcomplex.boundary(Chain(G, degree + 1, coeffs))
        if not z.is_zero():
            return z


def _pipeline_config(G):
    h = groups.identity_hom(G)
    cfg = mitosis.PipelineConfig(h, h, h, mitosis.mitosis_of_finite_abelian(G))
    cfg.mu()  # the lazy mitosis check is set-up work, not per certificate
    return cfg


class PipelineZ2:
    """Certified primitives of degree-2 boundaries over Z/2, written to disk."""

    name = "pipeline_z2"
    # the output digest covers the first digest_ops operations, a prefix
    # that every run of a seed completes
    digest_ops = 16
    # Inputs drawn per run.  A 35-s run at today's speed uses about 280;
    # the pool is cycled only when a run gets through all of it.
    POOL = 1000
    FILES = 64

    def setup(self, seed, workdir):
        G = groups.cyclic_group(2)
        cfg = _pipeline_config(G)
        rng = random.Random("pipeline_z2:%d" % seed)
        inputs = [random_boundary(G, 2, rng) for _ in range(self.POOL)]
        outdir = os.path.join(workdir, "certs")
        os.makedirs(outdir)
        return {"cfg": cfg, "inputs": inputs, "outdir": outdir,
                "i_f": groups.compose_homs(cfg.mitosis.inj, cfg.f())}

    def trace_ops(self, st, seconds):
        return max(4, 2 * seconds)

    def op(self, st, k, span):
        z = st["inputs"][k % self.POOL]
        cert = mitosis.primitive_pipeline(z, st["cfg"])
        failures = cert.verify()
        record = fileio.pipeline_cert_to_dict(cert)
        path = os.path.join(st["outdir"], "pipeline-%02d.json" % (k % self.FILES))
        fileio.dump_json(record, path)
        return z, cert, failures, record, path

    def check(self, st, k, out):
        z, cert, failures, record, path = out
        problems = list(failures)
        if cert.z != z:
            problems.append("certificate input differs from the input")
        if cert.target != barcomplex.push_chain(st["i_f"], z):
            problems.append("target is not (i o f)_* z")
        if cert.ratio > cert.bound:
            problems.append("ratio exceeds bound")
        with open(path, "rb") as fh:
            size = len(fh.read())
        # every pipeline certificate states an exact section constant
        return Checked(not problems, record, size, 1, 1, problems)


# name, group, degree, known exact kappa.  The exact entries are what
# vertex enumeration returns today.  Z/2 in degree 3 and Z/3 in degree 2
# come back as brackets; their values 1 and 1/2 are the elementary-vector
# (circuit) enumeration of the boundary subspace, so a bracket must
# contain them and an exact answer must equal them.
KAPPA_TABLE = [
    ("Z2_q1", "Z2", 1, Fraction(1)),
    ("Z2_q2", "Z2", 2, Fraction(1, 2)),
    ("Z2_q3", "Z2", 3, Fraction(1)),
    ("Z3_q1", "Z3", 1, Fraction(1)),
    ("Z3_q2", "Z3", 2, Fraction(1, 2)),
    ("Z4_q1", "Z4", 1, Fraction(1)),
    ("S3_q1", "S3", 1, Fraction(1)),
]


def _small_groups():
    out = {"Z2": groups.cyclic_group(2), "Z3": groups.cyclic_group(3),
           "Z4": groups.cyclic_group(4), "S3": groups.symmetric_group_perm(3)}
    for G in out.values():
        groups.check_axioms(G)
    return out


class KappaTable:
    """One pass of ubc_kappa_exact over a fixed table of groups and degrees."""

    name = "kappa_table"
    digest_ops = 1

    def setup(self, seed, workdir):
        return {"seed": seed, "groups": _small_groups()}

    def trace_ops(self, st, seconds):
        return 1

    def op(self, st, k, span):
        out = []
        for entry, gname, q, _ in KAPPA_TABLE:
            # a fresh stream per pass and entry, so the sampled brackets
            # of one pass do not repeat the LPs of another
            rng = random.Random("kappa_table:%d:%d:%s" % (st["seed"], k, entry))
            with span("kappa_table." + entry):
                out.append(l1opt.ubc_kappa_exact(st["groups"][gname], q, rng=rng))
        return out

    def check(self, st, k, out):
        problems = []
        records = []
        exact = 0
        for (entry, gname, q, known), res in zip(KAPPA_TABLE, out):
            record = fileio.kappa_to_dict(res, st["groups"][gname])
            records.append(record)
            problems += ["%s: %s" % (entry, f)
                         for f in fileio.verify_certificate_dict(record)]
            if res.kappa is not None:
                exact += 1
                if res.kappa != known:
                    problems.append("%s: kappa %s, expected %s"
                                    % (entry, res.kappa, known))
            elif not res.lower <= known <= res.upper:
                problems.append("%s: bracket [%s, %s] misses %s"
                                % (entry, res.lower, res.upper, known))
        return Checked(not problems, records, 0, exact, len(KAPPA_TABLE),
                       problems)


class VerifyCorpus:
    """`barl1 verify --json` through cli.run over a corpus written in set-up."""

    name = "verify_corpus"
    digest_ops = 0  # the digest covers the corpus instead
    # 20 files: 17 take 5-9 ms to verify, the Z/3 and Z/2xZ/2 mitosis
    # records 30-45 ms (their latencies overlap), and the Z/4 mitosis
    # record 130 ms.  The two middle records hold ranks 85-95% of the
    # operations, so p90 falls in the middle of their merged latencies,
    # five points of rank from the fast files below and from Z/4 above:
    # a few operations slowed by the host cannot carry p90 down to the
    # fast files or up to Z/4.  Keep the counts in that proportion.
    PIPELINES = 5
    FILLS = 4
    KAPPA_EXACT = [e for e in KAPPA_TABLE if e[0] not in ("Z2_q3", "Z3_q2")]
    TOWERS = (3, 4)

    def setup(self, seed, workdir):
        rng = random.Random("verify_corpus:%d" % seed)
        corpus = os.path.join(workdir, "corpus")
        os.makedirs(corpus)
        small = _small_groups()
        items = []  # (file stem, kind, record)

        Z2 = small["Z2"]
        cfg = _pipeline_config(Z2)
        for k in range(self.PIPELINES):
            cert = mitosis.primitive_pipeline(random_boundary(Z2, 2, rng), cfg)
            items.append(("pipeline-%d" % k, "pipeline",
                          fileio.pipeline_cert_to_dict(cert)))
        for k in range(self.FILLS):
            G, q = (Z2, 2) if k % 2 else (small["Z3"], 1)
            cert = l1opt.fill_min(random_boundary(G, q, rng))
            items.append(("fill-%d" % k, "fill", fileio.fill_cert_to_dict(cert)))
        for entry, gname, q, _ in self.KAPPA_EXACT:
            G = small[gname]
            items.append(("kappa-" + entry, "kappa",
                          fileio.kappa_to_dict(l1opt.ubc_kappa_exact(G, q), G)))
        for gname, G in [("Z2", Z2), ("Z3", small["Z3"]), ("Z4", small["Z4"]),
                         ("Z2xZ2", DirectProduct((Z2, Z2)))]:
            items.append(("mitosis-" + gname, "mitosis",
                          fileio.mitosis_to_dict(mitosis.mitosis_of_finite_abelian(G))))
        for q in self.TOWERS:
            xi = [Fraction(0)] + [Fraction(rng.randint(0, 6), rng.randint(1, 4))
                                  for _ in range(q)]
            items.append(("tower-%d" % q, "tower", fileio.tower_to_dict(mitosis.tower(q, xi))))

        files = []
        for stem, kind, record in items:
            path = os.path.join(corpus, stem + ".json")
            text = fileio.dump_json(record, path)
            files.append({"path": path, "kind": kind, "bytes": len(text.encode()),
                          "exact": kind == "kappa" and record["kappa"] is not None})
        order = list(range(len(files)))
        rng.shuffle(order)
        return {"files": files, "order": order,
                "corpus": [r for _, _, r in items]}

    def trace_ops(self, st, seconds):
        return len(st["files"]) * max(2, seconds // 2)

    def op(self, st, k, span):
        f = st["files"][st["order"][k % len(st["order"])]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(["verify", "--json", f["path"]])
        return f, rc, buf.getvalue()

    def check(self, st, k, out):
        f, rc, text = out
        problems = []
        if rc != 0:
            problems.append("exit code %d" % rc)
        report = json.loads(text) if text else {}
        if report.get("ok") is not True or report.get("failures"):
            problems.append("not verified: %s" % report.get("failures"))
        if report.get("kind") != f["kind"]:
            problems.append("kind %r, expected %r" % (report.get("kind"), f["kind"]))
        is_kappa = f["kind"] == "kappa"
        return Checked(not problems, report, f["bytes"], int(f["exact"]),
                       int(is_kappa), problems)


WORKLOADS = {w.name: w for w in (PipelineZ2(), KappaTable(), VerifyCorpus())}
