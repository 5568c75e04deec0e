"""Replay microbenchmarks: single layer functions timed on captured states.

The states are captured at a fixed accepted-step index of the workloads'
own trajectories: the ellipse_run flow (n1_N128), the spheroid_run flow
(n2_N512) and the spheroid raw-mode lemma flow inside verify_checks
(n2_N256). Every replay runs in every traced run, whatever the workload,
so that the figures are comparable across workloads; only
`flow.stability_cap.us` uses the traced workload's own capture. A replayed
function that the package no longer has reads 0.
"""

from __future__ import annotations

import statistics
import sys
import time

from starflow import cli, flow, geometry, symfunc, verify

from workloads import LEMMA_T_MAX, RUN_CONFIGS

CAPTURE_STEP = 200
BATCH_S = 0.02
BATCHES = 9
OWN_CAPTURE = {"ellipse_run": "n1_N128", "spheroid_run": "n2_N512", "verify_checks": "n2_N256"}


class _Captured(Exception):
    def __init__(self, state):
        super().__init__("captured")
        self.state = state


def capture(config: flow.FlowConfig, initial: geometry.RadialGraph) -> flow.FlowState:
    """State of `flow.run(config, initial)` after CAPTURE_STEP accepted steps."""

    def observer(state):
        if state.accepted == CAPTURE_STEP:
            raise _Captured(state)

    try:
        flow.run(config, initial, observer=observer, record_samples=False)
    except _Captured as hit:
        return hit.state
    raise RuntimeError(f"flow ended before accepted step {CAPTURE_STEP}")


def captures() -> dict:
    """name -> (FlowConfig, captured FlowState)."""
    out = {}
    for workload, label in (("ellipse_run", "n1_N128"), ("spheroid_run", "n2_N512")):
        cfg = RUN_CONFIGS[workload]
        fc = cli.flow_config_from(cfg)
        out[label] = (fc, capture(fc, geometry.make_shape(cfg["shape"], fc.n, cfg["grid"]["N"])))
    # the spheroid lemma run of `starflow verify lemma`
    fc = flow.FlowConfig(n=2, k=1, mode="raw", t_max=LEMMA_T_MAX, dt_init=1e-3, sample_every=1)
    out["n2_N256"] = (fc, capture(fc, geometry.ellipsoid_of_revolution(1.5, 1.0, 256)))
    return out


def per_call_s(fn) -> float:
    """Median time of one call of `fn()` over BATCHES batches of about BATCH_S."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    count = max(1, int(BATCH_S / once))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - t0) / count)
    return statistics.median(samples)


def replay_s(fn) -> float:
    """per_call_s(fn), or 0.0 when fn calls a function the package no longer has."""
    try:
        return per_call_s(fn)
    except AttributeError as exc:
        print(f"replay skipped: {exc}", file=sys.stderr)
        return 0.0


def measure(workload: str) -> dict:
    caps = captures()
    m = {}
    for label in ("n1_N128", "n2_N512"):
        fc, state = caps[label]
        m[f"flow.step_us.{label}"] = 1e6 * replay_s(lambda: flow.step(state, state.last_dt, fc))
    fc, state = caps[OWN_CAPTURE[workload]]
    m["flow.stability_cap.us"] = 1e6 * replay_s(
        lambda: flow.stability_cap(state.geo, fc.k, fc.cfl_coefficient))
    for label in ("n1_N128", "n2_N256", "n2_N512"):
        graph = caps[label][1].graph
        m[f"geometry.compute_geometry.us.{label}"] = 1e6 * replay_s(
            lambda: geometry.compute_geometry(graph))
    ellipse = caps["n1_N128"][1].graph
    for size, graph in ((128, ellipse), (512, geometry.refine(ellipse, 4))):
        curve = verify.curve_from_radial(graph)
        m[f"verify.radial_from_curve.ms.M{size}"] = 1e3 * replay_s(
            lambda: verify.radial_from_curve(curve, size))
    kappa = caps["n2_N512"][1].geo.kappa
    per_table = replay_s(lambda: symfunc.elem_sym_table(kappa))
    m["symfunc.elem_sym_table.vectors_per_s"] = kappa.shape[0] / per_table if per_table else 0.0
    return m
