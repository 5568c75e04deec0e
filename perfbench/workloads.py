"""The three benchmark workloads: their inputs, main calls and correctness gate.

The acceptance monotone runs (about 35 s each) and `verify all` are too
long to repeat many times per run, so each workload runs the same code
path truncated in `t_max`, sized so that one repetition takes one to two
seconds on a 2-core x86 box:

- ellipse_run: `starflow run`, ellipse a=2 b=1, n=1 k=1 rescaled_raw,
  N=128. Small grid, so per-call overhead in `flow` and dim-1 `geometry`
  is almost all of the work.
- spheroid_run: `starflow run`, spheroid a=1.5 c=1, n=2 k=1 rescaled_raw,
  N=512. The dim-2 path (pole limit, Simpson weights, the conservation
  guard through quermass_sigma) with 16x the steps per unit time of N=128.
- verify_checks: `starflow verify` for the suites symfunc, geometry,
  prop1, lemma, variation and af in one process, with verify.seed taken
  from the benchmark seed. `monotone` is left out: it is the two run
  workloads at full length.

The run workloads do not depend on the seed: their trajectory is fixed, and
the gate requires it to be byte-identical across repetitions.

starflow is imported inside the functions, because the parent process
(run.py) imports this module without it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re

WORKLOADS = ("ellipse_run", "spheroid_run", "verify_checks")
SUITES = ("symfunc", "geometry", "prop1", "lemma", "variation", "af")

RUN_CONFIGS = {
    "ellipse_run": {
        "problem": {"n": 1, "k": 1, "mode": "rescaled_raw"},
        "shape": {"type": "ellipse", "params": {"a": 2.0, "b": 1.0}},
        "grid": {"N": 128},
        "stepping": {"t_max": 0.125, "dt_init": 1e-3, "sample_every": 20},
    },
    "spheroid_run": {
        "problem": {"n": 2, "k": 1, "mode": "rescaled_raw"},
        "shape": {"type": "ellipsoid_of_revolution", "params": {"a": 1.5, "c": 1.0}},
        "grid": {"N": 512},
        "stepping": {"t_max": 0.005, "dt_init": 1e-3, "sample_every": 20},
    },
}
# t_max of the raw-mode lemma runs inside verify_checks (the suite default is 0.1)
LEMMA_T_MAX = 0.005


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """The config document the workload's CLI call reads."""
    if workload in RUN_CONFIGS:
        cfg = json.loads(json.dumps(RUN_CONFIGS[workload]))
        cfg["output"] = {"trajectory_path": os.path.join(out_dir, "trajectory.csv")}
        return cfg
    if workload == "verify_checks":
        return {
            "stepping": {"t_max": LEMMA_T_MAX},
            "verify": {"seed": seed, "report_path": os.path.join(out_dir, "report.csv")},
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def setup(workload: str, cfg_path: str):
    """Config load and validation plus shape construction, as `starflow run`
    does them; returns the loaded config."""
    from starflow import cli, geometry

    cfg = cli.load_config(cfg_path)
    if workload in RUN_CONFIGS:
        fc = cli.flow_config_from(cfg)
        geometry.make_shape(cfg["shape"], fc.n, cfg["grid"]["N"])
    return cfg


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# main calls


def main_call(workload: str, cfg_path: str, cfg: dict) -> dict:
    """Run the workload through the CLI, then gate its outputs.

    Returns {"checks": [(name, passed), ...], "digest": sha256 of the
    outputs, ...}; the caller times this whole call as wall_s.
    """
    if workload in RUN_CONFIGS:
        return _run_main(cfg_path, cfg)
    return _verify_main(cfg_path, cfg)


def _run_main(cfg_path: str, cfg: dict) -> dict:
    from starflow import cli

    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["run", cfg_path])
    return gate_run(code, text.getvalue(), cfg["output"]["trajectory_path"], cfg)


def _verify_main(cfg_path: str, cfg: dict) -> dict:
    from starflow import cli

    base = cfg["verify"]["report_path"]
    paths, codes = [], []
    for suite in SUITES:
        path = f"{os.path.splitext(base)[0]}_{suite}.csv"
        codes.append(cli.main(["verify", suite, cfg_path, "--quiet",
                               "--set", f"verify.report_path={path}"]))
        paths.append(path)
    return gate_verify(codes, paths)


# ---------------------------------------------------------------------------
# correctness gate


_STOP = re.compile(r"\bstop=(\S+)")


def read_trajectory(path: str, cfg: dict):
    """TrajectoryRecord rebuilt from the CSV `starflow run` wrote."""
    from starflow import flow

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    prob = cfg["problem"]
    return flow.TrajectoryRecord(
        n=prob["n"], k=prob["k"], mode=prob["mode"], columns=tuple(rows[0]),
        rows=[tuple(float(v) for v in row) for row in rows[1:]],
    )


def gate_run(exit_code: int, stdout: str, traj_path: str, cfg: dict) -> dict:
    """Gate of a run workload: exit code 0, stop reason t_max, and the
    nondecreasing and conserved reports of check_monotone_series pass.

    The terminal-ball report is left out: a truncated run sits away from
    the round ball by design.
    """
    from starflow import verify

    checks = [("exit_code", exit_code == 0)]
    stop = _STOP.search(stdout)
    checks.append(("stop_reason_t_max", bool(stop) and stop.group(1) == "t_max"))
    result = {"drift_rate": 0.0, "digest": ""}
    try:
        record = read_trajectory(traj_path, cfg)
        t_end = float(record.column("t")[-1])
        reports = verify.check_monotone_series(record)[:2]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.append((f"trajectory_readable: {exc}", False))
        result["checks"] = checks
        return result
    t_max = cfg["stepping"]["t_max"]
    checks.append(("final_t_is_t_max", abs(t_end - t_max) <= 1e-12 * max(1.0, t_max)))
    checks += [(rep.name, rep.passed) for rep in reports]
    result["drift_rate"] = reports[1].rel_residual
    result["digest"] = sha256_file(traj_path)
    result["checks"] = checks
    return result


def gate_verify(exit_codes, report_paths) -> dict:
    """Gate of verify_checks: every suite exits 0 and every report row passes."""
    checks = []
    digest = hashlib.sha256()
    for code, path in zip(exit_codes, report_paths):
        suite = os.path.splitext(os.path.basename(path))[0]
        checks.append((f"{suite}:exit_code", code == 0))
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            checks.append((f"{suite}:readable: {exc}", False))
            continue
        digest.update(blob)
        rows = list(csv.DictReader(io.StringIO(blob.decode())))
        if not rows:
            checks.append((f"{suite}:nonempty", False))
        checks += [(row["check"], row["pass"] == "True") for row in rows]
    return {"checks": checks, "digest": digest.hexdigest(), "drift_rate": 0.0}
