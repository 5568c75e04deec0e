"""Guards on what the benchmark reads from starflow.

The per-layer metrics read spans by starflow name; a name that no longer
resolves would read 0 without any error. One guard runs
`perfbench/child.py`'s metric function against a recorder and checks that
every name it reads is still an attribute of its starflow module.

The replay metrics time single layer functions on states captured at a
fixed accepted step of three flows. A flow that ends before that step fails
the traced benchmark run, so the second guard builds those captures."""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class NameRecorder:
    """Stands in for the span tracer: records every name a metric reads."""

    def __init__(self):
        self.names = set()

    def read(self, name, exclude_parents=()):
        self.names.add(name)
        self.names.update(exclude_parents)
        return 0.0

    calls = self_s = total_s = mean_us = calls_from = read


def load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as a module, importing its siblings from perfbench/."""
    perfbench = os.path.join(ROOT, "perfbench")
    monkeypatch.setattr(sys, "path", [perfbench, *sys.path])  # restored after the test
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(perfbench, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names(monkeypatch) -> set:
    child = load_perfbench(monkeypatch, "child")
    recorder = NameRecorder()
    child.layer_metrics(recorder, [], [], {"drift_rate": 0.0})
    return recorder.names


def test_every_span_name_resolves(monkeypatch):
    names = traced_names(monkeypatch)
    assert {"symfunc.elem_sym_gradient_table", "cli.suite_symfunc",
            "flow.TrajectoryRecord.to_csv"} <= names
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        obj = importlib.import_module(f"starflow.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def test_replay_captures_reach_their_step(monkeypatch):
    # a change to the step count that ends a capture flow early shows here,
    # not first as a failed traced benchmark run
    replay = load_perfbench(monkeypatch, "replay")
    captures = replay.captures()
    assert sorted(captures) == ["n1_N128", "n2_N256", "n2_N512"]
    assert [state.accepted for _, state in captures.values()] == [replay.CAPTURE_STEP] * 3
