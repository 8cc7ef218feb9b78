"""The benchmark in perfbench/ drives barl1 through a fixed set of
names; these checks fail fast when a change renames or moves one,
long before a full benchmark self-test would."""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from barl1.fileio import dump_json
from barl1.mitosis import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_module_level_functions():
    for mod, names in _load("tracing").LAYERS.items():
        module = importlib.import_module("barl1." + mod)
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), "barl1.%s.%s" % (mod, name)
            assert (fn.__module__, fn.__qualname__) == (module.__name__, name)


def test_pipeline_config_keeps_its_accessors():
    for name in ("mu", "f"):
        assert inspect.isfunction(getattr(PipelineConfig, name, None)), name


def _checked_records(wl, st, ks):
    """The records of operations ks, each checked clean."""
    records = []
    for k in ks:
        out = wl.op(st, k, lambda span: contextlib.nullcontext())
        checked = wl.check(st, k, out)
        assert checked.ok, (wl.name, k, checked.problems)
        records.append(checked.record)
    return records


def test_workloads_run_and_check_clean(tmp_path):
    # set-up at seed 1, then checked operations: three of each timed
    # workload and one per corpus file of verify_corpus
    workloads = _load("workloads").WORKLOADS
    for name, wl in workloads.items():
        st = wl.setup(1, str(tmp_path / name))
        ops = len(st["files"]) if name == "verify_corpus" else 3
        _checked_records(wl, st, range(ops))


def _digest(records):
    """sha256 over the records' canonical JSON, as perfbench/run.py
    digests the first operations of a workload."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()


def test_seed_one_digests_are_pinned(tmp_path):
    # the digests perfbench prints at seed 1; the second pipeline pass
    # runs the same operations on the same config, so its fills come
    # from the config's memo
    workloads = _load("workloads").WORKLOADS
    wl = workloads["pipeline_z2"]
    st = wl.setup(1, str(tmp_path / wl.name))
    ks = range(wl.digest_ops)
    pinned = "1a589c7fad6a01d5edd89407a2ba3897a15092359982f1d83faca3048a7290a7"
    assert _digest(_checked_records(wl, st, ks)) == pinned
    assert _digest(_checked_records(wl, st, ks)) == pinned

    wl = workloads["kappa_table"]
    st = wl.setup(1, str(tmp_path / wl.name))
    assert _digest(_checked_records(wl, st, range(wl.digest_ops))) == (
        "b52c1952fc0c911379a55f1546270315b8363c0adf72f5ef5f557ab7da5383b7")


def test_seed_one_written_bytes_are_pinned(tmp_path):
    # the digests above hash canonical JSON, so they would not see a
    # change in dump_json's layout; these hash the bytes it writes: the
    # verify_corpus records in set-up order and the first 16 pipeline_z2
    # records at seed 1
    def written(records):
        return hashlib.sha256(
            "".join(dump_json(r) for r in records).encode()).hexdigest()

    workloads = _load("workloads").WORKLOADS
    wl = workloads["verify_corpus"]
    corpus = wl.setup(1, str(tmp_path / wl.name))["corpus"]
    assert len(corpus) == 20 and {r["kind"] for r in corpus} == {
        "fill", "kappa", "pipeline", "mitosis", "tower"}
    assert written(corpus) == (
        "f3cb26b96bece04f2c49a1a43cf078287279bef544e4b9d3f850bd4477dafd4b")

    wl = workloads["pipeline_z2"]
    st = wl.setup(1, str(tmp_path / wl.name))
    assert written(_checked_records(wl, st, range(16))) == (
        "dd7c0da874ca6a97faf417b863d6af7d2ea5468d048dd6c4ac4205be994b0aa4")
