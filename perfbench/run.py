"""starflow benchmark: one workload, timed end to end, gated on correct output.

    python3 perfbench/run.py --workload {ellipse_run,spheroid_run,verify_checks}
                             --seed N --seconds S --trace {0,1}

Runs the workload in fresh single-threaded processes, one repetition per
process, until S seconds have passed (at least MIN_REPS repetitions), and
reports medians over the repetitions:

- wall_ref: the wall time of the workload's main call, from the CLI call
  until its outputs are written and checked by the gate, divided by the
  time of the reference kernel in calibrate.py timed in the same process
  right before and after it, so that the shared host's speed drift
  cancels;
- setup_s: interpreter start, `import starflow`, config load and
  validation and shape construction, timed by this process from spawn
  until the child prints READY, divided by the child's first
  reference-kernel time and given in seconds at the nominal host speed
  calibrate.NOMINAL_S;
- peak_rss_mb: peak resident memory of the repetition's process.

With --trace 1 it then runs one repetition under the span tracer and one
replay process, and reports the per-layer metrics instead; the traced
outputs must be byte-identical to the untraced ones. Every result is
written with an environment record to perfbench/out/<workload>/. The last
line of stdout is one JSON object; the exit code is 1 when a correctness
check fails and 2 when the starflow sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "starflow")
sys.path.insert(0, HERE)

from calibrate import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (no readable .git)"


def _source_digest() -> str:
    """SHA-256 over the package sources, which names the code under test
    also where the checkout has no git metadata."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(mode: str, workload: str, cfg_path: str, out_dir: str):
    """Run perfbench/child.py; returns (set-up seconds, parsed JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, cfg_path, out_dir]
    with open(os.path.join(out_dir, "child_stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        buf, ready_at = b"", None
        deadline = t0 + CHILD_TIMEOUT_S
        try:
            fd = proc.stdout.fileno()
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise ChildFailed(f"{mode} child timed out after {CHILD_TIMEOUT_S:.0f} s")
                if not select.select([fd], [], [], left)[0]:
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buf += chunk
                if ready_at is None and b"READY\n" in buf:
                    ready_at = time.perf_counter()
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    lines = buf.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {code}; see {out_dir}/child_stderr.log")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"{mode} child printed no JSON result") from None
    if mode != "replay" and ready_at is None:
        raise ChildFailed(f"{mode} child never printed READY")
    return (ready_at - t0) if ready_at is not None else None, result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = os.path.join(HERE, "out", workload)
    os.makedirs(out_dir, exist_ok=True)
    open(os.path.join(out_dir, "child_stderr.log"), "wb").close()
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(make_config(workload, seed, out_dir), fh, indent=2)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    reps, checks, errors = [], [], []
    traced = replayed = None
    start = time.perf_counter()
    try:
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            setup, res = run_child("time", workload, cfg_path, out_dir)
            res["setup_s"] = setup
            reps.append(res)
        if trace:
            traced = run_child("trace", workload, cfg_path, out_dir)[1]
            replayed = run_child("replay", workload, cfg_path, out_dir)[1]
    except ChildFailed as exc:
        errors.append(str(exc))
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = reps[0]["numpy"] if reps else "unknown"
    runs = reps + ([traced] if traced else [])
    for res in runs:
        checks += [(name, bool(ok)) for name, ok in res["checks"]]
    digests = {res["digest"] for res in runs}
    checks.append(("outputs_byte_identical", len(digests) == 1))
    checks += [(err, False) for err in errors]
    failed = [name for name, ok in checks if not ok]

    metrics = {}
    walls = [r["wall_s"] for r in reps]
    refs = [r["ref_s"] for r in reps]
    setups = [r["setup_s"] for r in reps]
    if trace:
        if traced and replayed:
            metrics.update(traced["layers"])
            metrics.update(replayed)
            metrics["trace.overhead"] = traced["wall_s"] / statistics.median(walls)
            metrics["wall_s"] = statistics.median(walls)
            metrics["setup_raw_s"] = statistics.median(setups)
            metrics["host.ref_s"] = statistics.median(refs)
    elif reps:
        metrics = {
            "wall_ref": statistics.median(w / ref for w, ref in zip(walls, refs)),
            "setup_s": NOMINAL_S * statistics.median(
                setup / r["ref_first_s"] for setup, r in zip(setups, reps)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "repetitions": len(reps),
        "wall_s_samples": walls, "ref_s_samples": refs,
        "setup_s_samples": setups,
        "digests": sorted(digests), "attempted": len(checks), "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: starflow sources not found under {os.path.relpath(SRC, ROOT)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = declared_units(bool(args.trace))
    if res["metrics"] and set(res["metrics"]) != set(units):
        res["failed"].append("metrics_match_BENCHMARK.json")
        res["attempted"] += 1
    tag = f"seed{args.seed}_trace{args.trace}"
    with open(os.path.join(HERE, "out", args.workload, f"result_{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=2)

    print(f"env: {json.dumps(res['environment'])}")
    attempted, failed = res["attempted"], len(res["failed"])
    print(f"{args.workload}: {res['repetitions']} repetitions, "
          f"output sha256 {','.join(d[:16] for d in res['digests'])}")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    if res["wall_s_samples"] and not args.trace:
        print(f"  wall_s = {statistics.median(res['wall_s_samples']):.6g} s (median; not normalized)")
        print(f"  setup_raw_s = {statistics.median(res['setup_s_samples']):.6g} s "
              "(median; not normalized)")
    print(f"  fail_share = {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    for name in res["failed"]:
        print(f"  FAILED: {name}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in res["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def declared_units(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
