"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Covers span self time from nested spans, the tracer's install/uninstall,
the metric names against BENCHMARK.json, the reference kernel, and the
correctness gate on a tampered trajectory and a failing report.
"""

from __future__ import annotations

import csv
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from starflow import cli, flow, geometry, verify  # noqa: E402

import calibrate  # noqa: E402
import child  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class TickClock:
    """Fake nanosecond clock that returns the given ticks in order."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # a [0, 100] holds b [10, 30] and c [40, 45]; b holds d [12, 20]
        t = Tracer(clock=TickClock([0, 10, 12, 20, 30, 40, 45, 100]))
        t.enter("a")
        t.enter("b")
        t.enter("d")
        t.exit()
        t.exit()
        t.enter("c")
        t.exit()
        t.exit()
        self.assertAlmostEqual(t.total_s("a"), 100e-9)
        self.assertAlmostEqual(t.self_s("a"), 75e-9)
        self.assertAlmostEqual(t.self_s("b"), 12e-9)
        self.assertAlmostEqual(t.self_s("c"), 5e-9)
        self.assertAlmostEqual(t.self_s("d"), 8e-9)
        self.assertEqual(t.edges, {("", "a"): 1, ("a", "b"): 1, ("b", "d"): 1, ("a", "c"): 1})
        self.assertEqual([s[1] for s in t.spans], [-1, 0, 1, 0])

    def test_self_time_sums_over_calls(self):
        t = Tracer(clock=TickClock([0, 5, 7, 10, 20, 21]))
        t.enter("a")
        t.enter("b")
        t.exit()
        t.exit()
        t.enter("a")
        t.exit()
        self.assertEqual(t.calls("a"), 2)
        self.assertAlmostEqual(t.self_s("a"), 9e-9)
        self.assertAlmostEqual(t.mean_us("a"), 5.5e-3)

    def test_install_patches_each_caller_and_uninstall_restores(self):
        originals = (flow.quermass_sigma, geometry.quermass_sigma, cli._SUITE_FUNCS["lemma"],
                     flow.TrajectoryRecord.to_csv, flow._attempt)
        t = Tracer()
        t.install()
        try:
            self.assertIs(flow.quermass_sigma, geometry.quermass_sigma)
            self.assertIsNot(flow.quermass_sigma, originals[0])
            self.assertIsNot(cli._SUITE_FUNCS["lemma"], originals[2])
            geo = geometry.compute_geometry(geometry.sphere(1.0, 2, 32))
            flow.stability_cap(geo, 1, 0.05)
        finally:
            t.uninstall()
        self.assertEqual((flow.quermass_sigma, geometry.quermass_sigma, cli._SUITE_FUNCS["lemma"],
                          flow.TrajectoryRecord.to_csv, flow._attempt), originals)
        self.assertEqual(t.calls("geometry.compute_geometry"), 1)
        self.assertEqual(t.calls("flow.stability_cap"), 1)


class MetricNameTests(unittest.TestCase):
    def test_declared_names_and_units(self):
        spec = load_spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        for w in spec["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertIn("setup_s", names)

    def test_emitted_per_layer_names_match_spec(self):
        emitted = set(child.layer_metrics(Tracer(), [], [], {"drift_rate": 0.0}))
        emitted |= set(replay.measure("ellipse_run"))
        emitted |= {"trace.overhead", "wall_s", "setup_raw_s", "host.ref_s"}  # added by run.measure
        for name in emitted:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(emitted, {m["name"] for m in load_spec()["per_layer"]})


class ReplayTests(unittest.TestCase):
    def test_replay_of_a_removed_function_reads_zero(self):
        self.assertEqual(replay.replay_s(lambda: flow.no_such_function()), 0.0)
        self.assertGreater(replay.replay_s(lambda: flow.cnk(2, 1)), 0.0)


class CalibrationTests(unittest.TestCase):
    def test_reference_kernel_is_fixed_work(self):
        # the kernel must do the same work in every process, or the ratio
        # would move with it
        first = [calibrate._integrate(n, 20) for n in calibrate.GRIDS]
        self.assertEqual(first, [calibrate._integrate(n, 20) for n in calibrate.GRIDS])
        self.assertTrue(all(0.0 < spread < 1.0 for spread in first))
        self.assertGreater(calibrate.reference_s(), 0.0)


class GateTests(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out"))
        self.dir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def _short_run(self):
        cfg = workloads.make_config("ellipse_run", 0, self.dir)
        cfg["grid"]["N"] = 64
        cfg["stepping"]["t_max"] = 0.02
        path = os.path.join(self.dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path, cfg

    def test_gate_passes_untouched_run_and_flags_tampered_trajectory(self):
        path, cfg = self._short_run()
        gate = workloads.main_call("ellipse_run", path, cfg)
        self.assertTrue(all(ok for _, ok in gate["checks"]), gate["checks"])
        traj = cfg["output"]["trajectory_path"]
        with open(traj, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("I0")
        rows[-1][col] = repr(float(rows[-2][col]) - 1e-6)  # iso ratio drops at the end
        with open(traj, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        tampered = workloads.gate_run(0, "stop=t_max", traj, cfg)
        failed = [name for name, ok in tampered["checks"] if not ok]
        self.assertEqual(failed, ["monotone/I0_nondecreasing"])
        self.assertNotEqual(tampered["digest"], gate["digest"])

    def test_gate_flags_truncated_trajectory_and_wrong_stop(self):
        path, cfg = self._short_run()
        workloads.main_call("ellipse_run", path, cfg)
        traj = cfg["output"]["trajectory_path"]
        with open(traj) as fh:
            lines = fh.readlines()
        with open(traj, "w") as fh:
            fh.writelines(lines[:-1])
        gate = workloads.gate_run(3, "stop=dt_underflow", traj, cfg)
        failed = {name for name, ok in gate["checks"] if not ok}
        self.assertEqual(failed, {"exit_code", "stop_reason_t_max", "final_t_is_t_max"})

    def test_gate_flags_failing_report(self):
        good = verify.IdentityReport("x/ok", 1.0, 1.0, 0.0, 0.0, "N=8", 1e-6, True)
        bad = verify.IdentityReport("x/bad", 1.0, 2.0, 1.0, 1.0, "N=8", 1e-6, False)
        paths = [os.path.join(self.dir, f"report_{s}.csv") for s in ("a", "b")]
        verify.write_report_csv([good], paths[0])
        verify.write_report_csv([good, bad], paths[1])
        gate = workloads.gate_verify([0, 4], paths)
        failed = [name for name, ok in gate["checks"] if not ok]
        self.assertEqual(failed, ["report_b:exit_code", "x/bad"])
        self.assertTrue(all(ok for _, ok in workloads.gate_verify([0], paths[:1])["checks"]))


if __name__ == "__main__":
    unittest.main()
