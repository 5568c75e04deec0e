"""The benchmark's per-layer metrics read spans by starflow name; a name that
no longer resolves would read 0 without any error. This guard runs
`perfbench/child.py`'s metric function against a recorder and checks that
every name it reads is still an attribute of its starflow module."""

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


def traced_names(monkeypatch) -> set:
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py extends it
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", os.path.join(ROOT, "perfbench", "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
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
