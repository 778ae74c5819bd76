"""The benchmark's contract with the package: every call site that the
per-layer metrics need is still there for the tracer to wrap, and the
metrics the traced run emits are the ones BENCHMARK.json declares.

A traced run whose tracer finds a call site missing drops the metrics
that need it, so its output lacks metrics BENCHMARK.json declares; a
renamed or dropped name in the package fails here first.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402


def absent_call_sites():
    """The span names the tracer finds no call site for."""
    tracer = spans.Tracer()
    try:
        tracer.install()
        return set(tracer.absent)
    finally:
        tracer.uninstall()


def test_every_span_a_layer_metric_needs_has_its_call_site():
    absent = absent_call_sites()
    assert not {name: sorted(absent.intersection(needs))
                for name, (_, _, needs) in run.LAYER_METRICS.items()
                if absent.intersection(needs)}


def test_a_dropped_call_site_is_found(monkeypatch):
    # the analyzer module imports validate_sequence without calling it, so
    # that the tracer, which patches the name there, still finds it
    from mapumorph import analyzer
    monkeypatch.delattr(analyzer, "validate_sequence")
    assert "morphotactics.validate_sequence" in absent_call_sites()


def test_the_layer_metrics_are_those_the_benchmark_declares():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer"]
    assert set(run.LAYER_METRICS) == {metric["name"] for metric in declared}
