"""barl1 benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload pipeline_z2 --seed 1 --seconds 20 --trace 0

With --trace 0 the run sets up the workload several times (setup_s is
the median), then runs operations back to back for --seconds seconds,
checks every output, and prints the end-to-end metrics.  With --trace 1
it runs a fixed number of operations, set by the workload and
--seconds, once plain and once with spans around the public functions
of every barl1 module, and prints the per-layer metrics.  The last line
of standard output is always the JSON result.

The package is imported from src/ of the checkout that holds this
file; without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# setup_s is the median of several set-ups spread evenly over the run:
# the machine's speed drifts over seconds, so set-ups run back to back
# would all sample one moment of it.  As many as fit in SETUP_SHARE of
# the run, within [SETUP_MIN, SETUP_MAX].
SETUP_SHARE, SETUP_MIN, SETUP_MAX = 0.1, 3, 15

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("kappa_exact_share", "share"),
]


def per_layer_metrics(kappa_entries):
    names = []
    lp = "l1opt.lp_solve."
    names += [(lp + "calls", "count"), (lp + "distinct", "count"),
              (lp + "distinct_ratio", "ratio"), (lp + "s", "s"),
              (lp + "rows_sum", "count"), (lp + "cols_sum", "count")]
    for fn in ("fill_min", "is_boundary"):
        names += [("l1opt.%s.calls" % fn, "count"), ("l1opt.%s.s" % fn, "s")]
    names += [("l1opt.ubc_kappa_exact.%s.s" % e, "s") for e in kappa_entries]
    for fn in ("solve_square", "rref", "rank_factorization"):
        names += [("linalg.%s.calls" % fn, "count"), ("linalg.%s.s" % fn, "s")]
    for fn in ("xi_fill", "aw", "cross_tensor"):
        names += [("products.%s.calls" % fn, "count"),
                  ("products.%s.self_s" % fn, "s")]
    for fn in ("primitive_pipeline", "emap", "theta", "check_theta_orientation",
               "verify_mitosis"):
        names += [("mitosis.%s.calls" % fn, "count"),
                  ("mitosis.%s.self_s" % fn, "s")]
    for fn in ("boundary", "push_chain"):
        names += [("barcomplex.%s.calls" % fn, "count"),
                  ("barcomplex.%s.s" % fn, "s")]
    names += [("groups.mul.calls." + b, "count") for b in tracing.MUL_BACKENDS]
    names += [("groups.check_member.calls", "count")]
    names += [("groups.mul_us." + b, "us") for b in tracing.MUL_BACKENDS]
    names += [("fileio.write.s", "s"), ("fileio.decode.s", "s"),
              ("fileio.verify_certificate_dict.s", "s"),
              ("fileio.cert_bytes", "bytes"), ("cli.run.self_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


def import_package():
    if not (SRC / "barl1" / "__init__.py").is_file():
        raise SystemExit("perfbench: no barl1 sources at %s" % (SRC / "barl1"))
    sys.path.insert(0, str(SRC))
    import barl1
    if Path(barl1.__file__).resolve().parent != (SRC / "barl1").resolve():
        raise SystemExit("perfbench: barl1 was imported from %s, not %s"
                         % (barl1.__file__, SRC))


def tail_percentile(n):
    """The highest of p90, p75, p50 that has ten samples beyond it;
    p50 when even the median has fewer."""
    for p in (90, 75):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


class Tally:
    """Attempted and failed operations, output digest, checked counts."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.cert_bytes = 0
        self.kappa_exact = 0
        self.kappa_total = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.reported = 0

    def fail(self, k, why):
        self.failed += 1
        if self.reported < 5:
            self.reported += 1
            sys.stderr.write("perfbench: %s op %d failed: %s\n"
                             % (self.workload.name, k, why))

    def absorb(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    def check(self, st, k, out):
        try:
            chk = self.workload.check(st, k, out)
        except Exception:
            self.fail(k, traceback.format_exc())
            return False
        self.cert_bytes += chk.cert_bytes
        self.kappa_exact += chk.kappa_exact
        self.kappa_total += chk.kappa_total
        if not chk.ok:
            self.fail(k, "; ".join(chk.problems))
        if k < self.workload.digest_ops:
            self.digest.update(canonical_json(chk.record))
            self.digest_ops += 1
        return chk.ok


def run_op(wl, st, k, span, tally):
    """One attempted operation; returns its output or None when it raised."""
    tally.attempted += 1
    try:
        return wl.op(st, k, span)
    except Exception:
        tally.fail(k, traceback.format_exc())
        return None


def no_span(name):
    return contextlib.nullcontext()


def plain_pass(wl, st, ks, tally):
    """Untraced operations ks, each checked; returns their wall seconds."""
    elapsed = 0.0
    for k in ks:
        t0 = time.perf_counter()
        out = run_op(wl, st, k, no_span, tally)
        elapsed += time.perf_counter() - t0
        if out is not None:
            tally.check(st, k, out)
    return elapsed


def timed_setup(wl, seed, workdir, tag):
    t0 = time.perf_counter()
    st = wl.setup(seed, str(workdir / tag))
    return st, time.perf_counter() - t0


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def output_digest(wl, st, tally):
    if wl.digest_ops:
        return tally.digest.hexdigest(), "first %d operations" % tally.digest_ops
    h = hashlib.sha256()
    for rec in st["corpus"]:
        h.update(canonical_json(rec))
    return h.hexdigest(), "corpus of %d certificates" % len(st["corpus"])


def run_untraced(wl, seed, seconds, workdir):
    st, first = timed_setup(wl, seed, workdir, "setup-0")
    setups = [first]
    samples = max(SETUP_MIN, min(SETUP_MAX, int(SETUP_SHARE * seconds / first)))
    tally = Tally(wl)
    wall, cpu, ok_wall = [], [], []
    k = 0
    t_loop = time.perf_counter()
    while (elapsed := time.perf_counter() - t_loop) < seconds:
        if elapsed >= seconds * len(setups) / samples:
            # a fresh set-up, timed and discarded; operations keep the first
            setups.append(timed_setup(wl, seed, workdir, "setup-%d" % len(setups))[1])
            continue
        w0, c0 = time.perf_counter(), time.process_time()
        out = run_op(wl, st, k, no_span, tally)
        w1, c1 = time.perf_counter(), time.process_time()
        wall.append(w1 - w0)
        cpu.append(c1 - c0)
        if out is not None and tally.check(st, k, out):
            ok_wall.append(w1 - w0)
        k += 1

    ok_ops = tally.attempted - tally.failed
    lat = sorted(ok_wall) or [0.0]
    tail = tail_percentile(len(ok_wall))
    digest, what = output_digest(wl, st, tally)
    print("workload %s seed %d: %d operations in %.3f s of operation time, "
          "%.3f s process CPU" % (wl.name, seed, tally.attempted, sum(wall), sum(cpu)))
    print("setup seconds: %s" % ", ".join("%.4f" % s for s in setups))
    print("latency: %d samples; op_p90_ms reports p%d" % (len(ok_wall), tail))
    print("output sha256 (%s): %s" % (what, digest))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok_ops / sum(wall),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, tail) * 1e3,
        "op_cpu_ms": sum(cpu) / len(cpu) * 1e3,
        "ok_share": ok_ops / tally.attempted,
        "peak_rss_mb": rss_kb / 1024,
        "kappa_exact_share": (tally.kappa_exact / tally.kappa_total
                              if tally.kappa_total else 0.0),
    }
    return tally, {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}


def run_traced(wl, seed, seconds, workdir):
    st, dt = timed_setup(wl, seed, workdir, "setup")
    n = wl.trace_ops(st, seconds)
    tally = Tally(wl)
    # an untimed first operation, so neither timed pass pays first-call costs
    warm = Tally(wl)
    plain_pass(wl, st, [0], warm)
    tally.absorb(warm)
    plain_s = plain_pass(wl, st, range(n), tally)

    # checks of the traced pass wait until the tracer is removed, so
    # they do not show up in the layer metrics
    tracer = tracing.Tracer()
    outs = []
    traced_tally = Tally(wl)
    tracer.install()
    try:
        t0 = time.perf_counter()
        for k in range(n):
            tracer.op = k
            with tracer.span(wl.name + ".op"):
                outs.append(run_op(wl, st, k, tracer.span, traced_tally))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for k, out in enumerate(outs):
        if out is not None:
            traced_tally.check(st, k, out)

    from workloads import KAPPA_TABLE
    names = per_layer_metrics([e[0] for e in KAPPA_TABLE])
    values = layer_values(tracer, names, {
        "fileio.cert_bytes": traced_tally.cert_bytes,
        "trace.overhead_s": traced_s - plain_s,
    })

    trace_path = WORK / ("trace-%s-seed%d.jsonl" % (wl.name, seed))
    tracer.write(trace_path)
    digest, what = output_digest(wl, st, traced_tally)
    print("workload %s seed %d traced: %d operations, set-up %.3f s" % (wl.name, seed, n, dt))
    print("plain pass %.3f s, traced pass %.3f s, %d spans written to %s"
          % (plain_s, traced_s, len(tracer.spans), trace_path.relative_to(ROOT)))
    print("output sha256 (%s): %s" % (what, digest))
    if digest != output_digest(wl, st, tally)[0]:
        traced_tally.fail(-1, "traced and plain passes gave different outputs")
    tally.absorb(traced_tally)
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in names}


def layer_values(tracer, names, measured):
    """Values of the per-layer metrics from a finished traced pass."""
    spans = tracer.spans
    calls, self_s = tracing.summarize(spans)

    def incl(*fns, under=None):
        return tracing.inclusive_s(spans, set(fns), under)

    lps = tracer.lp_problems
    distinct = len(set(lps))
    v = dict(measured)
    v.update(tracer.counts)
    v.update({
        "l1opt.lp_solve.distinct": distinct,
        "l1opt.lp_solve.distinct_ratio": distinct / len(lps) if lps else 0.0,
        "l1opt.lp_solve.rows_sum": sum(len(p.rows) for p in lps),
        "l1opt.lp_solve.cols_sum": sum(len(p.objective) for p in lps),
        "fileio.write.s": incl(*tracing.WRITE_GROUP),
        "fileio.decode.s": incl(*tracing.DECODE_GROUP),
        "trace.spans": len(spans),
    })
    for backend, pairs in tracer.mul_pairs.items():
        v["groups.mul_us." + backend] = tracing.mul_us(pairs)
    for name, _ in names:
        if name.startswith("l1opt.ubc_kappa_exact."):
            entry = name.split(".")[2]
            v[name] = incl("l1opt.ubc_kappa_exact", under="kappa_table." + entry)
    # the rest are <module>.<function>.<calls | s | self_s>
    for name, _ in names:
        if name not in v:
            fn, _, kind = name.rpartition(".")
            v[name] = (calls.get(fn, 0) if kind == "calls" else
                       incl(fn) if kind == "s" else self_s.get(fn, 0.0))
    return v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; one of %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / ("%s-%d" % (wl.name, os.getpid()))
    workdir.mkdir(parents=True)
    # a run stopped from outside still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        runner = run_traced if args.trace else run_untraced
        tally, metrics = runner(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
