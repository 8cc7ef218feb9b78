"""The benchmark in perfbench/ drives barl1 through a fixed set of
names; these checks fail fast when a change renames or moves one,
long before a full benchmark self-test would."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from barl1.mitosis import PipelineConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_module_level_functions():
    for mod, names in _tracing().LAYERS.items():
        module = importlib.import_module("barl1." + mod)
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), "barl1.%s.%s" % (mod, name)
            assert (fn.__module__, fn.__qualname__) == (module.__name__, name)


def test_pipeline_config_keeps_its_accessors():
    for name in ("mu", "f"):
        assert inspect.isfunction(getattr(PipelineConfig, name, None)), name
