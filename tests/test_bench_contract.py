"""The benchmark in perfbench/ drives barl1 through a fixed set of
names; these checks fail fast when a change renames or moves one,
long before a full benchmark self-test would."""

import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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


def test_workloads_run_and_check_clean(tmp_path):
    # set-up at seed 1, then checked operations: three of each timed
    # workload and one per corpus file of verify_corpus
    workloads = _load("workloads").WORKLOADS
    for name, wl in workloads.items():
        st = wl.setup(1, str(tmp_path / name))
        ops = len(st["files"]) if name == "verify_corpus" else 3
        for k in range(ops):
            out = wl.op(st, k, lambda span: contextlib.nullcontext())
            checked = wl.check(st, k, out)
            assert checked.ok, (name, k, checked.problems)
