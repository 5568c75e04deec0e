"""Guards on what the benchmark reads from starflow.

The per-layer metrics read spans by starflow name; a name that no longer
resolves would read 0 without any error. One guard runs
`perfbench/child.py`'s metric function against a recorder and checks that
every name it reads is still an attribute of its starflow module, but for
the `RETIRED` names of a metric that reads 0 either way.

The replay metrics time single layer functions on states captured at a
fixed accepted step of three flows. A flow that ends before that step fails
the traced benchmark run, so the second guard builds those captures. The
replay reads 0 for a function that no longer resolves, so the third guard
checks every starflow attribute its source calls or reads."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# read by the metric `flow.rhs_evals`, which counts `flow.speed_raw` calls;
# no run has made one since the stage map stopped calling it, so the metric
# read 0 before the two functions were deleted and reads 0 after. Its next
# version counts `flow._stage_map` (ROADMAP); then this set goes.
RETIRED = {"flow.speed_raw", "flow.volume_scale_rate"}


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
    assert RETIRED <= names
    assert missing == sorted(RETIRED)


def test_replay_captures_reach_their_step(monkeypatch):
    # a change to the step count that ends a capture flow early shows here,
    # not first as a failed traced benchmark run
    replay = load_perfbench(monkeypatch, "replay")
    captures = replay.captures()
    assert sorted(captures) == ["n1_N128", "n2_N256", "n2_N512"]
    assert [state.accepted for _, state in captures.values()] == [replay.CAPTURE_STEP] * 3


def replay_attributes() -> set:
    """Dotted names perfbench/replay.py reads from starflow: `module.attr`
    for the layer modules it imports and `FlowConfig.attr` for attributes
    read through a flow config (`fc`)."""
    with open(os.path.join(ROOT, "perfbench", "replay.py")) as fh:
        tree = ast.parse(fh.read())
    modules = {"cli", "flow", "geometry", "symfunc", "verify"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(f"{node.value.id}.{node.attr}")
            elif node.value.id == "fc":
                names.add(f"FlowConfig.{node.attr}")
    return names


def test_every_replayed_attribute_resolves():
    names = replay_attributes()
    assert {"flow.step", "flow.stability_cap", "FlowConfig.cfl_coefficient",
            "geometry.compute_geometry", "geometry.refine", "verify.curve_from_radial",
            "verify.radial_from_curve", "symfunc.elem_sym_table"} <= names
    flow = importlib.import_module("starflow.flow")
    fields = {field.name for field in dataclasses.fields(flow.FlowConfig)}
    missing = []
    for name in sorted(names):
        owner, attr = name.split(".")
        if owner == "FlowConfig":
            found = attr in fields
        else:
            found = hasattr(importlib.import_module(f"starflow.{owner}"), attr)
        if not found:
            missing.append(name)
    assert missing == []
