"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the barl1 modules from outside
the package.  A name bound through ``from .x import f`` lives in several
module namespaces (``mitosis`` holds its own ``xi_fill``, ``aw``,
``boundary``, ...), so every barl1 namespace that holds the original
function object gets the wrapper; wrapping only the defining module
would miss those calls.

Each span is [name, start_ns, end_ns, parent index, op id].  Spans stay
in memory and are written out once, when the run ends.  Group
multiplication is µs-scale and called millions of times, so it is
counted, never timed, through the wrapper; its cost is measured by a
separate timed loop over the element pairs the workload itself used.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

# Functions given a span, per module: every function a per-layer metric
# names, plus dmap, tensor_boundary and push_tensor, which would
# otherwise inflate the self time of primitive_pipeline and emap.
# groups has no spans; its mul and check_member are counted instead.
LAYERS = {
    "barcomplex": ["boundary", "push_chain"],
    "products": ["xi_fill", "aw", "cross_tensor", "tensor_boundary",
                 "push_tensor"],
    "l1opt": ["lp_solve", "fill_min", "is_boundary", "ubc_kappa_exact"],
    "linalg": ["solve_square", "rref", "rank_factorization"],
    "mitosis": ["primitive_pipeline", "emap", "dmap", "theta",
                "check_theta_orientation", "verify_mitosis"],
    "fileio": ["load_json", "dump_json", "fill_cert_from_dict",
               "pipeline_cert_from_dict", "mitosis_from_dict",
               "pipeline_cert_to_dict", "verify_certificate_dict"],
    "cli": ["run"],
}

# Backends whose mul is counted and timed; the workloads use these four.
MUL_BACKENDS = ["finite", "perm", "direct", "semidirect"]
MUL_PAIR_SAMPLE = 512

# fileio.write.s and fileio.decode.s: serialization to and from files
WRITE_GROUP = {"fileio.dump_json", "fileio.pipeline_cert_to_dict"}
DECODE_GROUP = {"fileio.load_json", "fileio.fill_cert_from_dict",
                "fileio.pipeline_cert_from_dict", "fileio.mitosis_from_dict"}


class Tracer:
    """Spans and counters of one traced pass; install() patches barl1,
    uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = {}
        self.lp_problems = []
        self.mul_pairs = {b: [] for b in MUL_BACKENDS}
        self._restore = []

    # recording

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def _record_lp(self, args, kwargs):
        prob = args[0] if args else kwargs["prob"]
        self.lp_problems.append(prob)

    # patching

    def install(self):
        from barl1 import groups

        namespaces = [m for n, m in sys.modules.items()
                      if n == "barl1" or n.startswith("barl1.")]
        for mod, names in LAYERS.items():
            module = importlib.import_module("barl1." + mod)
            for fname in names:
                orig = getattr(module, fname)
                hook = self._record_lp if (mod, fname) == ("l1opt", "lp_solve") else None
                wrapped = self.wrap("%s.%s" % (mod, fname), orig, hook)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapped)
                            self._restore.append((ns, attr, orig))

        counts = self.counts
        for cls in vars(groups).values():
            if (isinstance(cls, type) and issubclass(cls, groups.GroupOracle)
                    and "mul" in vars(cls) and cls.backend in MUL_BACKENDS):
                self._patch_mul(cls, counts)
        orig_check = groups.GroupOracle.check_member
        counts["groups.check_member.calls"] = 0

        def check_member(oracle, a, _orig=orig_check):
            counts["groups.check_member.calls"] += 1
            return _orig(oracle, a)

        groups.GroupOracle.check_member = check_member
        self._restore.append((groups.GroupOracle, "check_member", orig_check))

    def _patch_mul(self, cls, counts):
        orig = vars(cls)["mul"]
        key = "groups.mul.calls." + cls.backend
        pairs = self.mul_pairs[cls.backend]
        counts[key] = 0

        def mul(oracle, a, b, _orig=orig, _key=key, _pairs=pairs):
            counts[_key] += 1
            if len(_pairs) < MUL_PAIR_SAMPLE:
                _pairs.append((oracle, a, b))
            return _orig(oracle, a, b)

        cls.mul = mul
        self._restore.append((cls, "mul", orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    # output

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")


def mul_us(pairs, min_s=0.05, repeats=5):
    """Median µs per call of the untraced mul over the recorded pairs."""
    if not pairs:
        return 0.0
    per_call = []
    for _ in range(repeats):
        n = 0
        t0 = time.perf_counter()
        while True:
            for oracle, a, b in pairs:
                oracle.mul(a, b)
            n += len(pairs)
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                break
        per_call.append(elapsed / n * 1e6)
    per_call.sort()
    return per_call[len(per_call) // 2]


def summarize(spans):
    """Per-name call counts and self seconds; a span's self time is its
    duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns = {}, {}
    for k, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[k])
    return calls, {n: v / 1e9 for n, v in self_ns.items()}


def inclusive_s(spans, group, under=None):
    """Seconds in spans named in group that have no ancestor in group,
    so recursion and nesting inside the group count once.

    With under set, only spans whose parent is named under count."""
    total = 0
    for name, start, end, parent, _ in spans:
        if name not in group:
            continue
        if under is not None and (parent < 0 or spans[parent][0] != under):
            continue
        p = parent
        while p >= 0 and spans[p][0] not in group:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total / 1e9
