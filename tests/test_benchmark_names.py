"""The functions the benchmark's per-layer metrics read by name exist.

perfbench/run.py traces every public function of the freqzsl modules and
reports a per-layer metric as `<module>.<function>.<measure>`; a function
renamed or removed from under a metric makes that metric read 0 without
any error, so each name is pinned here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from freqzsl import pipeline

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# metrics that name no function: the count over a whole module and the
# tracer's own overhead
NO_FUNCTION = {"frequency.calls", "trace.overhead_pct"}
# functions no longer in the program, whose metrics already read 0
GONE = {"frequency.enhance_sequence_with_cache", "pipeline.train_gate"}
# span names the benchmark gives to a method rather than a module function
METHOD_SPANS = {"pipeline.featurize"}


def traced_names():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    names = {".".join(m["name"].split(".")[:2]) for m in metrics}
    return sorted(names - NO_FUNCTION - GONE - METHOD_SPANS)


@pytest.mark.parametrize("name", traced_names())
def test_each_traced_name_is_a_module_function(name):
    module, function = name.split(".")
    obj = getattr(importlib.import_module(f"freqzsl.{module}"), function, None)
    assert inspect.isfunction(obj), f"{name} is not a function of freqzsl.{module}"


def test_the_featurize_span_wraps_an_existing_method():
    assert inspect.isfunction(getattr(pipeline.SkeletonFeaturizer, "features_with_cache", None))
