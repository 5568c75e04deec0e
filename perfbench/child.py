"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py {time,trace,replay} WORKLOAD CONFIG_JSON OUT_DIR

`time` and `trace` import starflow, load the config and build the shape,
print the line READY (the parent stops its set-up clock there), run the
workload's main call and its gate, and print one JSON result line. `trace`
installs the span tracer before set-up and adds the per-layer metrics.
`replay` times single layer functions on captured states.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import numpy  # noqa: E402

import calibrate  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, records: list, dts: list, gate: dict) -> dict:
    """Per-layer metrics of one traced repetition; 0 where the workload
    never reaches the layer."""
    t = tracer
    m = {
        "flow.accepted": sum(r.final_state.accepted for r in records),
        "flow.rejected": sum(r.final_state.rejections for r in records),
        # stage evaluations: speed_raw calls except the second one that
        # volume_scale_rate makes at k = n
        "flow.rhs_evals": t.calls_from("flow.speed_raw", exclude_parents=("flow.volume_scale_rate",)),
        "flow.attempt_us": t.mean_us("flow._attempt"),
        "flow.dt_median": statistics.median(dts) if dts else 0.0,
        "flow.drift_rate": gate["drift_rate"],
        "flow.record_rows": sum(len(r.rows) for r in records),
        "flow.to_csv.ms": t.mean_us("flow.TrajectoryRecord.to_csv") / 1e3,
        "geometry.quermass_sigma.calls": t.calls("geometry.quermass_sigma"),
        "geometry.quermass_sigma.self_s": t.self_s("geometry.quermass_sigma"),
        "geometry.quermass_minkowski.calls": t.calls("geometry.quermass_minkowski"),
        "geometry.quermass_minkowski.self_s": t.self_s("geometry.quermass_minkowski"),
        "geometry.iso_ratio.self_s": t.self_s("geometry.iso_ratio"),
        "geometry.roundness.self_s": t.self_s("geometry.roundness"),
        "symfunc.elem_sym_table.calls": t.calls("symfunc.elem_sym_table"),
        "symfunc.elem_sym_table.self_s": t.self_s("symfunc.elem_sym_table"),
        "symfunc.elem_sym_gradient_table.self_s": t.self_s("symfunc.elem_sym_gradient_table"),
        "verify.check_lemma_integral.self_s": t.self_s("verify.check_lemma_integral"),
        "verify.check_prop1_pointwise.s": t.total_s("verify.check_prop1_pointwise"),
        "verify.check_prop1_axisym.s": t.total_s("verify.check_prop1_axisym"),
        "verify.check_af_chain.calls": t.calls("verify.check_af_chain"),
        "verify.check_first_variation.s": t.total_s("verify.check_first_variation"),
        "verify.check_monotone_series.us": t.mean_us("verify.check_monotone_series"),
        "cli.load_config.us": t.mean_us("cli.load_config"),
        "cli.flow_config_from.us": t.mean_us("cli.flow_config_from"),
    }
    for suite in workloads.SUITES:
        m[f"cli.suite.{suite}.s"] = t.total_s(f"cli.suite_{suite}")
    return m


def run_once(mode: str, workload: str, cfg_path: str, out_dir: str) -> dict:
    tracer = None
    records, dts = [], []
    if mode == "trace":
        def on_return(name, result):
            if name == "flow.run":
                records.append(result)
            elif name == "flow._attempt" and isinstance(result, tuple) and result[0] is not None:
                dts.append(result[0].last_dt)

        tracer = Tracer(on_return)
        tracer.install()
    cfg = workloads.setup(workload, cfg_path)
    print("READY", flush=True)
    ref_before = calibrate.reference_s()
    t0 = time.perf_counter()
    gate = workloads.main_call(workload, cfg_path, cfg)
    wall = time.perf_counter() - t0
    ref_after = calibrate.reference_s()
    result = {
        "wall_s": wall,
        "ref_s": (ref_before + ref_after) / 2.0,
        "ref_first_s": ref_before,
        "peak_rss_mb": peak_rss_mb(),
        "checks": gate["checks"],
        "digest": gate["digest"],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, records, dts, gate)
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
    return result


def main(argv) -> int:
    mode, workload, cfg_path, out_dir = argv
    if mode == "replay":
        result = replay.measure(workload)
    else:
        result = run_once(mode, workload, cfg_path, out_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
