"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: each workload runs for one second untraced and once traced.
   Every metric is printed by name with its unit, and the names and
   units must be exactly those of BENCHMARK.json.
2. Exact counters: a second traced run on the same seed must repeat
   every count (calls, distinct LPs, rows and columns summed, certificate
   bytes, group multiplications) and the output digest exactly.
3. Bare copy: in a directory that holds only BENCHMARK.json and
   perfbench/, the benchmark must exit non-zero without a result.

Exit status 0 when all three hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT_UNITS = {"count", "bytes", "ratio"}


def bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise SystemExit("benchmark failed (%d):\n%s" % (proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    digest = [ln for ln in lines if ln.startswith("output sha256")]
    return json.loads(lines[-1]), digest


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res, digest = result(bench(w, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            print("== %s --trace %d: correct=%s attempted=%d failed=%d"
                  % (w, trace, res["correct"], res["attempted"], res["failed"]))
            for name, m in res["metrics"].items():
                print("   %-42s %14.6g %s" % (name, m["value"], m["unit"]))
            if got != expected[trace]:
                problems.append("%s trace %d: metric names or units differ from "
                                "BENCHMARK.json" % (w, trace))
            if not res["correct"] or res["failed"]:
                problems.append("%s trace %d: outputs failed their checks" % (w, trace))
            if trace:
                again, digest2 = result(bench(w, 1))
                for name, unit in expected[1].items():
                    a = res["metrics"][name]["value"]
                    b = again["metrics"][name]["value"]
                    if unit in EXACT_UNITS and a != b:
                        problems.append("%s: %s differs between traced runs: %s vs %s"
                                        % (w, name, a, b))
                if digest != digest2:
                    problems.append("%s: output digest differs between runs" % w)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a copy without the sources did not fail cleanly")
        print("== bare copy: exit %d, %s" % (proc.returncode, proc.stderr.strip()))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
