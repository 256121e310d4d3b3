"""Tests of the benchmark harness and its tracer. Run: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json

import run
import tracing
from tracing import Span, self_times, within

MODS = run.load_program()


def layer_bindings():
    return {(name, attr): obj for name, mod in MODS.items()
            for attr, obj in vars(mod).items() if callable(obj)}


def test_self_time_arithmetic_on_a_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),      # child of root
        Span("a.x", 2.0, 3.0, 1),    # grandchild: only a loses it, not root
        Span("b", 3.5, 6.0, 0),      # overlaps a by 0.5; the union is counted once
        Span("c", 9.0, 12.0, 0),     # runs past root's end; clipped to 1.0
        Span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == [10.0 - (5.0 + 1.0), 2.0, 1.0, 2.5, 3.0, 1.0]
    assert within(spans, "a") == [False, False, True, False, False, False]
    assert within(spans, "root") == [False, True, True, True, True, False]


def test_tracer_wraps_by_name_imports_and_restores_every_binding():
    before = layer_bindings()
    original = MODS["numkit"].check_finite
    tracer = tracing.Tracer(MODS.values())
    with tracer:
        # losses and frequency bind check_finite by name; each binding is wrapped
        for name in ("numkit", "losses", "frequency"):
            assert MODS[name].check_finite is not original
        MODS["frequency"].dct_forward(MODS["numkit"].make_rng(0).standard_normal((2, 8)))
    names = [s.name for s in tracer.spans]
    assert names.count("frequency.dct_forward") == 1
    assert "numkit.check_finite" in names
    assert tracer.spans[names.index("numkit.check_finite")].parent == names.index(
        "frequency.dct_forward")
    assert layer_bindings() == before
    n = len(tracer.spans)
    MODS["frequency"].dct_forward(MODS["numkit"].make_rng(0).standard_normal((2, 8)))
    assert len(tracer.spans) == n


class ProbeOp:
    """Stands in for a workload operation; records what it was able to call."""

    def __init__(self):
        self.saw_originals = []
        self.originals = layer_bindings()

    def run(self):
        self.saw_originals.append(layer_bindings() == self.originals)

    def check(self):
        pass


def test_untraced_runs_call_the_unwrapped_originals():
    op = ProbeOp()
    times, attempted, failed, errors = run.measure(op, seconds=0.0)
    assert (attempted, failed, errors) == (run.MIN_OPS, 0, [])
    assert op.saw_originals == [True] * run.MIN_OPS

    op = ProbeOp()
    plain, traced, span_sets, attempted, failed, errors = run.traced_loop(MODS, op, 0.0, {})
    assert failed == 0 and len(plain) == len(traced) == run.MIN_OPS
    # untraced and traced operations alternate, untraced first
    assert op.saw_originals == [True, False] * run.MIN_OPS
    assert layer_bindings() == op.originals


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail(list(range(1, 11))) is None
    assert run.tail(list(range(1, 21))) == (50, 10)
    assert run.tail(list(range(1, 101))) == (90, 90)


def test_per_layer_metrics_match_the_benchmark_definition():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = list(run.layer_metrics([], 0, 0, [], 0, None))
    reported += ["synthbench.generate.ms", "synthbench.write_benchmark.ms", "trace.overhead_pct"]
    assert declared == {name: run.unit_of(name) for name in reported}
