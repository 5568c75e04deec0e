import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from starflow import cli
from starflow import flow as flowmod
from starflow import symfunc
from _oracles import elem_sym_gradient_rowmajor, elem_sym_table_rowmajor


def write_config(path, **overrides):
    cfg = {
        "problem": {"n": 1, "k": 1, "mode": "raw"},
        "shape": {"type": "sphere", "params": {"radius": 1.0}},
        "grid": {"N": 64},
        "stepping": {"t_max": 0.05, "dt_init": 1e-3, "cfl_coefficient": 0.2},
        "output": {"trajectory_path": str(path.parent / "traj.csv")},
    }
    for key, val in overrides.items():
        section, leaf = key.split(".")
        cfg.setdefault(section, {})[leaf] = val
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigHandling:
    def test_roundtrip_idempotent(self):
        text = json.dumps({
            "problem": {"n": 2, "k": 1, "mode": "normalized"},
            "grid": {"N": 128},
        })
        cfg = cli.parse_config(text)
        once = cli.serialize_config(cfg)
        twice = cli.serialize_config(cli.parse_config(once))
        assert once == twice

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError, match="problem.kk"):
            cli.parse_config(json.dumps({"problem": {"kk": 1}}))
        with pytest.raises(cli.ConfigError, match="mystery"):
            cli.parse_config(json.dumps({"mystery": {}}))

    def test_type_mismatch_named(self):
        with pytest.raises(cli.ConfigError, match="grid.N"):
            cli.parse_config(json.dumps({"grid": {"N": "lots"}}))

    def test_set_override_applies_after_parse(self):
        cfg = cli.parse_config(json.dumps({"problem": {"n": 1, "k": 1, "mode": "raw"}}))
        cli.apply_overrides(cfg, ["problem.mode=rescaled_raw", "grid.N=128"])
        assert cfg["problem"]["mode"] == "rescaled_raw"
        assert cfg["grid"]["N"] == 128

    def test_set_override_validates(self):
        cfg = cli.parse_config("{}")
        with pytest.raises(cli.ConfigError, match="unknown"):
            cli.apply_overrides(cfg, ["problem.zzz=3"])

    def test_bad_json_reported(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG

    # keys read by something other than flow_config_from, and the reader
    _OTHER_READERS = {
        "grid.N": "_flow_and_shape",
        "stepping.t_max": "suite_lemma",
        "stepping.dt_init": "suite_lemma",
    }

    def test_no_dead_flow_keys(self):
        flow_keys = set(cli._FLOW_KEYS.values())
        for section in ("problem", "grid", "stepping", "tolerances"):
            for leaf in cli._SCHEMA[section]:
                key = f"{section}.{leaf}"
                assert key in flow_keys or key in self._OTHER_READERS, f"{key} is read by nothing"
        for field in dataclasses.fields(flowmod.FlowConfig):
            section, leaf = cli._FLOW_KEYS[field.name].split(".")
            assert leaf in cli._SCHEMA[section], field.name

    def test_flow_config_defaults_come_from_dataclass(self):
        fc = cli.flow_config_from({
            "problem": {"n": 1, "k": 1, "mode": "raw"},
            "grid": {"N": 64},
            "stepping": {"t_max": 1},
        })
        assert fc == flowmod.FlowConfig(n=1, k=1, mode="raw", t_max=1.0)
        assert isinstance(fc.t_max, float)


class TestRun:
    def test_sphere_run_and_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "output.snapshot_every": 2,
            "output.snapshot_dir": str(tmp_path / "snaps"),
            "stepping.sample_every": 10,
        })
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "run complete" in out and "I0=" in out
        counts = re.search(r"\bsteps=(\d+) rejected=(\d+) stop=t_max\b", out)
        assert counts, out
        assert int(counts.group(1)) > 0
        assert int(counts.group(2)) == 0
        rows = read_csv(tmp_path / "traj.csv")
        assert rows[0] == ["t", "dt", "log_scale", "V2", "V1", "I0",
                           "r_t", "roundness_rescaled", "min_sigma_k"]
        width = len(rows[0])
        for row in rows[1:]:
            assert len(row) == width
            for cell in row:
                assert "," not in cell
                float(cell)  # strict numeric, '.' decimal separator
        snaps = sorted(os.listdir(tmp_path / "snaps"))
        assert snaps and snaps[0] == "snapshot_00000.csv"

    def test_trajectory_text_is_loadable_and_roundtrips(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert cli.main(["run", str(cfg_path), "--quiet"]) == cli.EXIT_OK
        raw = (tmp_path / "traj.csv").read_text()
        assert raw.endswith("\n")
        for row in read_csv(tmp_path / "traj.csv")[1:]:
            for cell in row:
                assert repr(float(cell)) == cell  # shortest round-trip format

    def test_seedless_random_shape_is_reproducible(self, tmp_path):
        # random harmonics with no shape.seed, or a null one, draw from seed 0, not from OS entropy
        cfg_path = tmp_path / "cfg.json"
        runs = []
        for seed in ({}, {}, {"shape.seed": None}):
            write_config(cfg_path, **{
                "shape.type": "perturbed_sphere", "shape.params": {"radius": 1.0, "eps": 0.05},
                "stepping.t_max": 0.01, **seed,
            })
            assert cli.main(["run", str(cfg_path), "--quiet"]) == cli.EXIT_OK
            runs.append((tmp_path / "traj.csv").read_bytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("command, assignment, key", [
        ("run", "problem.n=3", "problem.n"),
        ("run", "problem.k=0", "problem.k"),
        ("run", "problem.mode=sideways", "problem.mode"),
        ("run", "problem.mode=normalized", "problem.k"),  # k = n = 1
        ("run", "grid.N=63", "grid.N"),
        ("run", "grid.N=8", "grid.N"),
        ("run", "stepping.dt_init=0", "stepping.dt_init"),
        ("run", "stepping.dt_init=2.0", "stepping.dt_init"),  # above dt_max
        ("run", "stepping.t_max=0", "stepping.t_max"),
        ("run", "stepping.t_max=NaN", "stepping.t_max"),
        ("run", "stepping.dt_init=NaN", "stepping.dt_init"),
        ("run", "stepping.cfl_coefficient=0", "stepping.cfl_coefficient"),
        ("run", "stepping.sample_every=0", "stepping.sample_every"),
        ("run", "tolerances.tol_conserve=-1", "tolerances.tol_conserve"),
        ("verify monotone", "stepping.sample_every=0", "stepping.sample_every"),
        ("verify lemma", "stepping.t_max=0", "stepping.t_max"),
        ("verify lemma", "stepping.dt_init=5", "stepping.dt_init"),  # above dt_max
        ("sweep", "grid.N=63", "grid.N"),
        ("sweep", "sweep.k_values=[1, 2]", "sweep.k_values"),
        ("sweep", 'sweep.shapes=["sphere"]', "sweep.shapes"),
        ("sweep", 'sweep.shapes=[{"type": "sphere", "params": [1.0]}]', "sweep.shapes"),
        ("sweep", 'sweep.shapes=[{"type": "sphere", "params": {"radius": "one"}}]',
         "sweep.shapes"),
        ("run", 'shape.params={"radius": "one"}', "shape.params"),
        ("run", 'shape.params={"radius": 1.0, "mdoe": 3}', "shape.params"),
        ("sweep", 'sweep.shapes=[{"type": "perturbed_sphere", '
                  '"params": {"radius": 1.0, "eps": 0.1, "mdoe": 3}}]', "sweep.shapes"),
        # the base shape is a sphere, which reads only its radius: name the shape type too
        ("run", 'shape={"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1, '
                '"mode": 2.5}}', "shape.params"),
        ("sweep", 'sweep.seeds=["x"]', "sweep.seeds"),
        ("sweep", "sweep.seeds=[]", "sweep.seeds"),
        ("sweep", "sweep.k_values=[]", "sweep.k_values"),
        ("sweep", "sweep.shapes=[]", "sweep.shapes"),
        ("verify symfunc", "verify.seed=-1", "verify.seed"),
        ("verify symfunc", "verify.samples=-5", "verify.samples"),
        ("verify symfunc", "verify.samples=0", "verify.samples"),
        ("verify af", "verify.seed=-1", "verify.seed"),
        ("verify geometry", "verify.grid_N=0", "verify.grid_N"),
        ("verify geometry", "verify.grid_N=32", "verify.grid_N"),  # N/4 = 8 intervals
        ("verify geometry", "verify.grid_N=68", "verify.grid_N"),  # N/4 = 17 is odd
        # checked for every command, not only by the suites that read them
        ("verify variation", "verify.seed=-4", "verify.seed"),
        ("verify prop1", "verify.grid_N=7", "verify.grid_N"),
        ("verify lemma", "verify.seed=-4", "verify.seed"),
        ("run", "verify.grid_N=7", "verify.grid_N"),
        ("verify symfunc", 'verify.tolerance_overrides={"af": "x"}',
         "verify.tolerance_overrides.af"),
        ("run", "output.snapshot_every=-3", "output.snapshot_every"),
        # each shape fault is named at the input that caused it
        ("run", 'shape.type="torus"', "shape.type"),
        ("run", 'shape={"type": "ellipsoid_of_revolution", "params": {"a": 1.5, "c": 1.0}}',
         "shape.type"),  # a dim-2 shape under n=1
        ("verify af", 'shape.type="torus"', "shape.type"),
        ("run", "grid.N=0", "grid.N"),
        ("run", "grid.N=-4", "grid.N"),
        ("verify monotone", "grid.N=0", "grid.N"),
        ("sweep", "grid.N=-4", "grid.N"),
        ("run", 'shape={"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.05}, '
                '"seed": -3}', "shape.seed"),
        ("run", "shape.seed=-3", "shape.seed"),
        ("sweep", "sweep.seeds=[-1]", "sweep.seeds"),
        ("sweep", 'sweep.shapes=[{"type": "torus", "params": {}}]', "sweep.shapes"),
        ("sweep", "sweep.k_values=[1.5]", "sweep.k_values"),
        ("run", "stepping.t_max=Infinity", "stepping.t_max"),
        ("run", "stepping.t_max=1e400", "stepping.t_max"),
        ("run", "tolerances.tol_round=-1", "tolerances.tol_round"),
        ("run", "tolerances.tol_round=NaN", "tolerances.tol_round"),
    ])
    def test_config_error_exits_two_naming_key(self, tmp_path, capsys, command, assignment, key):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "problem.mode": "rescaled_raw",
            "sweep.shapes": [{"type": "sphere", "params": {"radius": 1.0}}],
            "sweep.k_values": [1],
            "sweep.index_path": str(tmp_path / "index.csv"),
        })
        argv = command.split() + [str(cfg_path), "--quiet", "--set", assignment]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("run", "output.trajectory_path"),
        ("verify symfunc", "verify.report_path"),
        ("sweep", "sweep.index_path"),
        ("sweep", "sweep.trajectory_dir"),
    ])
    def test_unwritable_output_exits_two_naming_path(self, tmp_path, capsys, command, key):
        # an output path under a regular file cannot be created
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "problem.mode": "rescaled_raw",
            "verify.samples": 2000,
            "sweep.shapes": [{"type": "sphere", "params": {"radius": 1.0}}],
            "sweep.k_values": [1],
            "sweep.index_path": str(tmp_path / "index.csv"),
            "sweep.trajectory_dir": str(tmp_path / "trajs"),
        })
        blocked = cfg_path / ("out" if key.endswith("_dir") else "out.csv")
        argv = command.split() + [str(cfg_path), "--quiet", "--set", f"{key}={blocked}"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(cfg_path) in err

    @pytest.mark.parametrize("deleted", ["problem.mode", "stepping"])
    def test_verify_monotone_missing_mode_named(self, tmp_path, capsys, deleted):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        section, _, key = deleted.partition(".")
        if key:
            del cfg[section][key]
        else:
            del cfg[section]
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "monotone", str(cfg_path), "--quiet"]) == cli.EXIT_CONFIG
        assert deleted in capsys.readouterr().err

    def test_bad_degree_cites_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        code = cli.main(["run", str(cfg_path), "--set", "problem.k=3"])
        assert code == cli.EXIT_CONFIG
        assert "problem.k" in capsys.readouterr().err

    def test_nonconvex_initial_is_precondition(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "shape.type": "perturbed_sphere",
            "shape.params": {"radius": 1.0, "eps": 0.3, "mode": 3},
        })
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "precondition" in capsys.readouterr().err

    def test_initial_on_the_cone_edge_is_precondition(self, tmp_path, capsys):
        # min sigma_1 is 1.28e-6, and the first stiffness probe at t = 0 leaves the cone
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "problem.mode": "rescaled_raw",
            "shape.type": "perturbed_sphere",
            "shape.params": {"radius": 1.0, "eps": 0.1, "mode": 3},
        })
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "precondition failed: initial surface is not strictly 1-convex: sigma_1 min" in err
        assert "probe" in err

    @pytest.mark.parametrize("snapshot_every", [0, 1])
    def test_numerical_failure_exports_partial(self, tmp_path, capsys, snapshot_every):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{
            "problem.n": 2,
            "problem.mode": "normalized",
            "shape.type": "ellipsoid_of_revolution",
            "shape.params": {"a": 1.2, "c": 1.0},
            "tolerances.tol_conserve": 0.0,
            "output.snapshot_every": snapshot_every,
        })
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        rows = read_csv(tmp_path / "traj.csv")
        assert len(rows) >= 2  # header plus at least the initial sample
        last = tmp_path / "snapshot_last.csv"
        if snapshot_every:
            snap = read_csv(last)
            assert snap[0] == ["grid_coordinate", "r", "kappa_1", "kappa_2", "u", "sigma_k"]
            assert len(snap) == 1 + 65
        else:
            assert not last.exists()

    def test_verify_monotone_on_one_row_names_the_cause(self, tmp_path, capsys):
        # a sphere is round at t = 0, so the run stops there with a single record row
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{"problem.mode": "rescaled_raw", "tolerances.tol_round": 1e-3})
        assert cli.main(["verify", "monotone", str(cfg_path), "--quiet"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("precondition failed: monotonicity check needs at least two samples, got 1 "
                "(stop reason 'round')") in err
        assert "argmin" not in err and "Traceback" not in err

    def test_verify_monotone_numerical_failure_exits_three(self, tmp_path, capsys):
        # stops with a conservation drift stall on its first step
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": {"n": 2, "k": 1, "mode": "rescaled_raw"},
            "shape": {"type": "perturbed_sphere",
                      "params": {"radius": 1.0, "eps": 0.3, "mode": 2}},
            "grid": {"N": 128},
            "stepping": {"t_max": 3.0},
            "verify": {"report_path": str(tmp_path / "report.csv")},
        }))
        assert cli.main(["verify", "monotone", str(cfg_path), "--quiet"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    def test_importing_cli_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); import starflow.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('multiprocessing') or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{"shape.type": "perturbed_sphere",
                                  "shape.params": {"radius": 1.0, "eps": 0.08, "mode": 3}})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == cli.EXIT_OK
        first = (tmp_path / "traj.csv").read_bytes()
        assert cli.main(["run", str(cfg_path), "--quiet"]) == cli.EXIT_OK
        assert (tmp_path / "traj.csv").read_bytes() == first


class TestVerify:
    def test_symfunc_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = cli.main(["verify", "symfunc", "--quiet",
                         "--set", "verify.samples=20000",
                         "--set", f"verify.report_path={report}"])
        assert code == cli.EXIT_OK
        rows = read_csv(report)
        assert rows[0] == ["check", "lhs", "rhs", "abs_residual",
                           "rel_residual", "tolerance", "pass"]
        assert all(row[6] == "True" for row in rows[1:])

    @pytest.mark.parametrize("table_form, check", [
        ("polarized_sigma_square_table", "symfunc/polarization_identity"),
        ("newton_gap_table", "symfunc/newton_gap"),
        ("maclaurin_power_gap_table", "symfunc/maclaurin_power_gap"),
    ])
    def test_symfunc_suite_reads_symfunc_table_forms(self, monkeypatch, table_form, check):
        # the suite holds no copy of these formulas: a wrong table form in
        # symfunc fails exactly the matching report
        def wrong(table, arg):
            return np.full(table.shape[0], -1.0)

        monkeypatch.setattr(symfunc, table_form, wrong)
        reports = cli.suite_symfunc({"verify": {"samples": 2000, "seed": 1}})
        assert [rep.name for rep in reports if not rep.passed] == [check]

    def test_symfunc_suite_same_with_rowmajor_oracles(self, monkeypatch):
        # the column-major kernels change no bit of the report
        cfg = {"verify": {"samples": 2000, "seed": 1}}
        reports = [repr(rep) for rep in cli.suite_symfunc(cfg)]
        monkeypatch.setattr(symfunc, "elem_sym_table", elem_sym_table_rowmajor)
        monkeypatch.setattr(symfunc, "elem_sym_gradient_table", elem_sym_gradient_rowmajor)
        assert [repr(rep) for rep in cli.suite_symfunc(cfg)] == reports

    def test_tolerance_violation_exits_four(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = cli.main(["verify", "symfunc", "--quiet",
                         "--set", "verify.samples=2000",
                         "--set", f"verify.report_path={report}",
                         "--set", 'verify.tolerance_overrides={"symfunc/euler_identity": 1e-30}'])
        assert code == cli.EXIT_TOLERANCE
        assert "FAILED" in capsys.readouterr().err

    def test_override_fails_order_check(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = cli.main(["verify", "geometry", "--quiet",
                         "--set", f"verify.report_path={report}",
                         "--set", 'verify.tolerance_overrides={"geometry/curvature_consistency_dim1": -1.0}'])
        assert code == cli.EXIT_TOLERANCE
        rows = {row[0]: row for row in read_csv(report)[1:]}
        assert rows["geometry/curvature_consistency_dim1"][5:] == ["-1.0", "False"]
        assert all(row[6] == "True" for name, row in rows.items()
                   if name != "geometry/curvature_consistency_dim1")

    def test_section_override_applies_to_every_check(self, tmp_path):
        report = tmp_path / "report.csv"
        code = cli.main(["verify", "geometry", "--quiet",
                         "--set", f"verify.report_path={report}",
                         "--set", 'verify.tolerance_overrides={"geometry": 0.25}'])
        assert code == cli.EXIT_OK
        assert [row[5] for row in read_csv(report)[1:]] == ["0.25"] * 12

    def test_non_numeric_override_is_config_error(self, capsys):
        code = cli.main(["verify", "variation", "--quiet",
                         "--set", 'verify.tolerance_overrides={"variation": "loose"}'])
        assert code == cli.EXIT_CONFIG
        assert "verify.tolerance_overrides.variation" in capsys.readouterr().err

    def test_reports_pass_by_their_own_tolerance(self):
        cfg = {"stepping": {"t_max": 0.005}, "verify": {"samples": 20000}}
        reports = []
        for suite in ("symfunc", "geometry", "prop1", "lemma", "variation", "af"):
            reports.extend(cli._SUITE_FUNCS[suite](cfg))
        axisym = ["g_meridian", "g_parallel", "area_element", "h_meridian", "h_parallel",
                  "sigma1", "sigma2"]
        assert [rep.name for rep in reports] == [
            "symfunc/binomial_at_ones", "symfunc/euler_identity", "symfunc/polarization_identity",
            "symfunc/newton_gap", "symfunc/maclaurin_power_gap",
            "geometry/minkowski_sphere_n1", "geometry/minkowski_ellipse",
            "geometry/minkowski_perturbed_n1", "geometry/minkowski_sphere_n2",
            "geometry/minkowski_ellipsoid", "geometry/minkowski_perturbed_n2",
            "geometry/ball_ratio_n1k0", "geometry/ball_ratio_n2k0", "geometry/ball_ratio_n2k1",
            "geometry/curvature_consistency_dim1", "geometry/curvature_oracle_dim2",
            "geometry/refinement_order",
        ] + [f"prop1/{name}_{case}" for case in ("circle", "richardson")
             for name in ("g11", "area_element", "h11", "weingarten", "sigma1")] + [
            f"prop1_axisym/{name}_{case}" for case in ("sphere", "spheroid") for name in axisym
        ] + [
            "lemma/rate_sigma0_k1", "lemma/rate_sigma1_k1", "lemma/topological_constant_n1",
            "lemma/rate_sigma0_k1", "lemma/rate_sigma1_k1", "lemma/rate_sigma2_k1",
            "lemma/topological_constant_n2",
            "variation/sigma0", "variation/sigma1", "variation/sigma0",
            "af_chain/m0_sphere_eq_n1", "af_chain/m0_sphere_eq_n2", "af_chain/m1_sphere_eq_n2",
            "af_chain/m0", "af_chain/random_n1k1", "af_chain/random_n2k1", "af_chain/random_n2k2",
        ]
        assert len(reports) == 58
        for rep in reports:
            assert rep.passed == (rep.rel_residual <= rep.tolerance), rep.name

    def test_nan_order_ratio_fails(self, monkeypatch):
        real = cli.vfy._curve_geometry

        def nan_kappa(pts):
            geo = real(pts)
            return dataclasses.replace(geo, kappa=np.full_like(geo.kappa, np.nan))

        monkeypatch.setattr(cli.vfy, "_curve_geometry", nan_kappa)
        reports = {r.name: r for r in cli.suite_geometry({"verify": {"grid_N": 64}})}
        assert not reports["geometry/curvature_consistency_dim1"].passed

    def test_af_on_nonconvex_shape_is_precondition(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": {"n": 1, "k": 1, "mode": "raw"},
            "shape": {"type": "perturbed_sphere",
                      "params": {"radius": 1.0, "eps": 0.45, "mode": 2}},
            "grid": {"N": 128},
        }))
        code = cli.main(["verify", "af", str(cfg_path), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert "precondition" in capsys.readouterr().err

    def test_af_on_configured_convex_shape(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": {"n": 1, "k": 1, "mode": "raw"},
            "shape": {"type": "ellipse", "params": {"a": 2.0, "b": 1.0}},
            "grid": {"N": 256},
            "verify": {"report_path": str(tmp_path / "r.csv")},
        }))
        assert cli.main(["verify", "af", str(cfg_path), "--quiet"]) == cli.EXIT_OK

    def test_monotone_default_battery(self, tmp_path, capsys, monkeypatch):
        # the two acceptance runs, truncated: a short run sits away from the round
        # ball, so the terminal checks get a tolerance that such a run meets
        full = cli._monotone_run
        monkeypatch.setattr(cli, "_monotone_run", lambda n, k, g, t_max: full(n, k, g, 0.05))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"verify": {
            "report_path": str(tmp_path / "report.csv"),
            "tolerance_overrides": {"monotone/terminal_I0": 0.1, "monotone/terminal_I1": 0.1},
        }}))
        assert cli.main(["verify", "monotone", str(cfg_path), "--quiet"]) == cli.EXIT_OK
        names = [row[0] for row in read_csv(tmp_path / "report.csv")[1:]]
        assert names == [
            "monotone/I0_nondecreasing", "monotone/V2_conserved", "monotone/terminal_I0",
            "monotone/I1_nondecreasing", "monotone/V1_conserved", "monotone/terminal_I1",
        ]

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "everything"])


class TestSweep:
    def _sweep_config(self, tmp_path, shapes=None):
        shapes = shapes or [
            {"type": "sphere", "params": {"radius": 1.0}},
            {"type": "ellipse", "params": {"a": 2.0, "b": 1.0}},
            {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.08, "mode": 3}},
        ]
        cfg = {
            "problem": {"n": 1, "k": 1, "mode": "rescaled_raw"},
            "grid": {"N": 64},
            "stepping": {"t_max": 0.05, "dt_init": 1e-3, "cfl_coefficient": 0.2},
            "output": {"trajectory_path": str(tmp_path / "unused.csv")},
            "sweep": {
                "shapes": shapes,
                "k_values": [1],
                "seeds": [11, 12],
                "index_path": str(tmp_path / "index.csv"),
                "trajectory_dir": str(tmp_path / "trajs"),
            },
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_produces_grid(self, tmp_path):
        path = self._sweep_config(tmp_path)
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        rows = read_csv(tmp_path / "index.csv")
        assert len(rows) == 1 + 6  # 3 shapes x 1 k x 2 seeds
        assert sorted(os.listdir(tmp_path / "trajs")) == [
            f"traj_{i:03d}.csv" for i in range(6)
        ]

    def test_sweep_deterministic(self, tmp_path):
        path = self._sweep_config(tmp_path)
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        first = (tmp_path / "index.csv").read_bytes()
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        assert (tmp_path / "index.csv").read_bytes() == first

    def test_sweep_parallel_matches_serial(self, tmp_path):
        path = self._sweep_config(tmp_path)
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        serial = (tmp_path / "index.csv").read_bytes()
        assert cli.main(["sweep", str(path), "--jobs", "2", "--quiet"]) == cli.EXIT_OK
        assert (tmp_path / "index.csv").read_bytes() == serial

    def test_sweep_records_failures(self, tmp_path, capsys):
        shapes = [
            {"type": "sphere", "params": {"radius": 1.0}},
            {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.45, "mode": 2}},
        ]
        path = self._sweep_config(tmp_path, shapes=shapes)
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_TOLERANCE
        rows = read_csv(tmp_path / "index.csv")
        statuses = [row[6] for row in rows[1:]]
        assert any(s == "ok" for s in statuses)
        assert any(s.startswith("failed") for s in statuses)

    def test_sweep_needs_no_output_section(self, tmp_path):
        path = self._sweep_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg["output"]
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        assert len(read_csv(tmp_path / "index.csv")) == 1 + 6

    def test_sweep_needs_no_shape_section_or_problem_k(self, tmp_path):
        # shapes come from sweep.shapes and degrees from sweep.k_values
        path = self._sweep_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg["problem"]["k"]
        assert "shape" not in cfg
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        assert len(read_csv(tmp_path / "index.csv")) == 1 + 6

    def test_sweep_shape_failing_for_one_seed_is_config_error(self, tmp_path, capsys):
        # builds for seed 0 but not for seed 4
        shapes = [{"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 1.5}}]
        path = self._sweep_config(tmp_path, shapes=shapes)
        argv = ["sweep", str(path), "--quiet", "--set", "sweep.seeds=[0, 4]"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep.shapes" in err and "'seed': 4" in err
        assert not (tmp_path / "index.csv").exists()

    def test_sweep_builds_each_combination_once(self, tmp_path, monkeypatch):
        built = []
        make_shape = cli.geom.make_shape
        monkeypatch.setattr(cli.geom, "make_shape",
                            lambda spec, *a: built.append(spec) or make_shape(spec, *a))
        path = self._sweep_config(tmp_path)
        assert cli.main(["sweep", str(path), "--quiet"]) == cli.EXIT_OK
        assert len(built) == 6  # 3 shapes x 1 k x 2 seeds
