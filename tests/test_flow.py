import io
import re
from dataclasses import replace
from math import e, exp, pi, sqrt

import numpy as np
import pytest

import starflow.flow as fl
import starflow.geometry as geomod
from starflow.flow import (
    ConeExitError,
    FlowConfig,
    FlowError,
    initial_state,
    normalization_rt,
    radial_rhs,
    rescale_state,
    run,
    speed_raw,
    step,
    volume_scale_rate,
)
from starflow.geometry import (
    compute_geometry,
    ellipse,
    ellipsoid_of_revolution,
    iso_ratio,
    perturbed_sphere,
    quermass,
    sphere,
)
from starflow.symfunc import elem_sym_table


class TestConfigValidation:
    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            FlowConfig(n=2, k=3, mode="raw")

    def test_normalized_needs_low_degree(self):
        with pytest.raises(ValueError):
            FlowConfig(n=1, k=1, mode="normalized")
        FlowConfig(n=2, k=1, mode="normalized")  # fine

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            FlowConfig(n=1, k=1, dt_init=0.5, dt_max=0.1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FlowConfig(n=1, k=1, mode="backwards")

    @pytest.mark.parametrize("kwargs, field", [
        ({"t_max": float("inf")}, "t_max"),
        # with dt_max infinite too, only finiteness rejects dt_init
        ({"dt_init": float("inf"), "dt_max": float("inf")}, "dt_init"),
        ({"tol_round": -1.0}, "tol_round"),
        ({"tol_round": float("nan")}, "tol_round"),
    ])
    def test_rejects_values_that_disable_a_stop(self, kwargs, field):
        with pytest.raises(fl.FlowConfigError) as info:
            FlowConfig(n=1, k=1, **kwargs)
        assert info.value.field == field
        FlowConfig(n=1, k=1, dt_max=float("inf"))  # an unbounded dt_max is fine


class TestSpeed:
    def test_sphere_values(self):
        geo = compute_geometry(sphere(2.0, 1, 64))
        assert np.allclose(speed_raw(geo, 1), 2.0, rtol=1e-13)
        geo = compute_geometry(sphere(2.0, 2, 64))
        assert np.allclose(speed_raw(geo, 1), 1.0, rtol=1e-12)  # R/2
        assert np.allclose(speed_raw(geo, 2), 4.0, rtol=1e-12)  # 2R

    def test_cone_exit_names_node(self):
        geo = compute_geometry(perturbed_sphere(1.0, 0.3, mode=3, dim=1, num=128))
        with pytest.raises(ConeExitError, match="node"):
            speed_raw(geo, 1)


class TestNormalizationRate:
    def test_sphere_closed_form(self):
        # k/(n-k+1) on any sphere: 1/2 for n=2, k=1
        for radius in (0.7, 1.0, 5.0):
            geo = compute_geometry(sphere(radius, 2, 128))
            assert normalization_rt(geo, 1) == pytest.approx(0.5, abs=1e-12)

    def test_scale_invariance(self):
        a = normalization_rt(compute_geometry(ellipsoid_of_revolution(1.2, 1.0, 128)), 1)
        b = normalization_rt(
            compute_geometry(ellipsoid_of_revolution(1.2, 1.0, 128).scaled(5.0)), 1
        )
        assert a == pytest.approx(b, abs=1e-12)

    def test_refined_grid_oracle(self):
        coarse = normalization_rt(compute_geometry(ellipsoid_of_revolution(1.2, 1.0, 256)), 1)
        fine = normalization_rt(compute_geometry(ellipsoid_of_revolution(1.2, 1.0, 4096)), 1)
        assert coarse == pytest.approx(fine, abs=1e-8)

    def test_rejects_top_degree(self):
        geo = compute_geometry(sphere(1.0, 2, 64))
        with pytest.raises(ValueError):
            normalization_rt(geo, 2)
        # the k = n rescaling rate exists separately and holds V_{n+1}
        assert volume_scale_rate(geo, 2) == pytest.approx(2.0, rel=1e-12)

    def test_volume_rate_below_top_degree(self):
        # below k = n the flow holds V_{n-k}, but volume_scale_rate still holds V_{n+1}
        geo = compute_geometry(ellipsoid_of_revolution(1.2, 1.0, 128))
        f = geo.sigma[:, 0] / geo.sigma[:, 1]
        expected = float(np.sum(f * geo.dmu)) / float(np.sum(geo.u * geo.dmu))
        assert volume_scale_rate(geo, 1) == pytest.approx(expected, rel=1e-14)
        assert abs(volume_scale_rate(geo, 1) - normalization_rt(geo, 1)) > 1e-3


class TestRadialRhs:
    def test_sphere_raw(self):
        geo = compute_geometry(sphere(2.0, 1, 64))
        assert np.allclose(radial_rhs(geo, "raw", 1), 2.0, rtol=1e-13)
        geo = compute_geometry(sphere(2.0, 2, 64))
        assert np.allclose(radial_rhs(geo, "raw", 2), 4.0, rtol=1e-12)

    def test_sphere_normalized_fixed_point(self):
        geo = compute_geometry(sphere(3.0, 2, 128))
        assert np.max(np.abs(radial_rhs(geo, "normalized", 1))) < 1e-12

    def test_matches_lagrangian_flow_map(self):
        # independent oracle: evolve the material curve, resample to the
        # radial grid, difference in time
        from starflow.verify import LagrangianCurve, _evolve, curve_from_radial, radial_from_curve

        g = perturbed_sphere(1.0, 0.08, mode=3, dim=1, num=256)
        dt = 1e-5
        p0 = curve_from_radial(g).points
        p1 = _evolve(p0, dt, 1, 1)
        p2 = _evolve(p1, dt, 1, 1)
        r0 = radial_from_curve(LagrangianCurve(p0), 256).r
        r2 = radial_from_curve(LagrangianCurve(p2), 256).r
        mid = radial_from_curve(LagrangianCurve(p1), 256)
        rhs = radial_rhs(compute_geometry(mid), "raw", 1)
        cd = (r2 - r0) / (2 * dt)
        assert np.max(np.abs(cd - rhs)) / np.max(np.abs(rhs)) < 1e-3


class TestStep:
    def test_sphere_single_step_exact(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0)
        state = initial_state(sphere(1.0, 1, 64))
        new = step(state, 1e-3, config)
        assert new is not None
        assert np.max(np.abs(new.graph.r - exp(1e-3))) < 1e-14

    def test_normalized_sphere_unchanged(self):
        config = FlowConfig(n=2, k=1, mode="normalized", t_max=1.0)
        state = initial_state(sphere(1.0, 2, 64))
        new = step(state, 1e-3, config)
        assert new is not None
        assert np.max(np.abs(new.graph.r - 1.0)) < 1e-13

    def test_gross_dt_rejected_then_recovers(self):
        raw = FlowConfig(n=1, k=1, mode="raw", t_max=2.0, dt_init=1.0, dt_max=2.0)
        state = initial_state(ellipse(2.0, 1.0, 64))
        assert step(state, 1.0, raw) is None  # grossly large: rejected
        # with the stability cap disabled, the controller must halve its
        # way down from the oversized dt_init and still finish
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.05, dt_init=0.02,
                            dt_max=2.0, cfl_coefficient=1e9, sample_every=100,
                            tol_conserve=1e-6)
        record = run(config, ellipse(2.0, 1.0, 64))
        assert record.final_state.rejections > 0
        assert record.final_state.t == pytest.approx(0.05, abs=1e-12)


def _dense_spectral_radius(graph, k):
    # central-difference Jacobian of the raw stage map, one column per node
    kit = geomod._grid_kit(graph.dim, graph.r.size)
    r = graph.r
    jac = np.empty((r.size, r.size))
    for j in range(r.size):
        step = np.zeros(r.size)
        step[j] = 1e-6 * r[j]
        plus = fl._stage(kit, r + step, "raw", k)[0]
        minus = fl._stage(kit, r - step, "raw", k)[0]
        jac[:, j] = (plus - minus) / (2e-6 * r[j])
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


class TestStabilityCap:
    @pytest.mark.parametrize("graph, k", [
        (ellipse(2.0, 1.0, 64), 1),
        (ellipse(2.0, 1.0, 128), 1),
        (ellipsoid_of_revolution(1.5, 1.0, 64), 1),
        (ellipsoid_of_revolution(1.5, 1.0, 128), 1),
        (ellipsoid_of_revolution(1.5, 1.0, 128), 2),
        (perturbed_sphere(1.0, 0.1, dim=1, num=64, seed=3), 1),
        (perturbed_sphere(1.0, 0.1, dim=2, num=64, seed=3), 1),
    ], ids=["ellipse-64", "ellipse-128", "spheroid-64", "spheroid-128", "spheroid-128-k2",
            "perturbed-dim1", "perturbed-dim2"])
    def test_power_iteration_matches_dense_jacobian(self, graph, k):
        geo = compute_geometry(graph)
        assert geomod.kconvex_report(geo, k).strict
        rho, _ = fl._spectral_radius(geo, k)
        ratio = rho / _dense_spectral_radius(graph, k)
        assert 0.95 <= ratio <= 1.35, ratio
        cap = fl.stability_cap(geo, k, 0.5)
        assert cap == pytest.approx(0.5 * fl.RK4_REAL_STABILITY / (fl.RHO_SAFETY * rho), rel=1e-12)

    def test_warm_start_keeps_the_estimate(self):
        geo = compute_geometry(ellipsoid_of_revolution(1.5, 1.0, 128))
        cold, vec = fl._spectral_radius(geo, 1)
        warm, _ = fl._spectral_radius(geo, 1, vec)
        assert warm == pytest.approx(cold, rel=2e-2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bound_does_not_shrink_with_size(self, dim):
        # the stage map is homogeneous of degree one in r, so its Jacobian
        # and the cap do not depend on the radius (the curvature-based cap
        # this replaced fell like 1/R, 4x between these two spheres)
        small = fl.stability_cap(compute_geometry(sphere(1.0, dim, 64)), 1, 0.5)
        large = fl.stability_cap(compute_geometry(sphere(4.0, dim, 64)), 1, 0.5)
        assert large == pytest.approx(small, rel=2e-2)


class TestRun:
    def test_drift_that_dt_cannot_fix_fails_fast(self):
        # a spatial-discretization drift rate of about 5e-6 per unit time
        # against a budget of 1e-9: halving dt leaves the rate where it is
        config = FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=1.0, dt_init=1e-3,
                            tol_conserve=1e-9)
        with pytest.raises(FlowError) as info:
            run(config, ellipsoid_of_revolution(1.5, 1.0, 32))
        err = info.value
        assert err.state.rejections == 3
        assert err.state.accepted == 0
        assert err.record.stop_reason == "drift_stall"
        found = re.search(r"drift rate (\S+) per unit time, first at dt=(\S+),", err.reason)
        assert found, err.reason
        assert 1e-6 < float(found.group(1)) < 1e-5
        assert float(found.group(2)) == pytest.approx(1e-3)

    def test_sphere_exponential(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.25, dt_init=1e-3,
                            cfl_coefficient=0.2, sample_every=50)
        record = run(config, sphere(1.0, 1, 64))
        assert np.mean(record.final_state.graph.r) == pytest.approx(exp(0.25), rel=1e-6)
        assert record.stop_reason == "t_max"

    def test_determinism_bit_identical(self, tmp_path):
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.1,
                            dt_init=1e-3, sample_every=5)
        rec1 = run(config, ellipse(2.0, 1.0, 64))
        rec2 = run(config, ellipse(2.0, 1.0, 64))
        assert rec1.rows == rec2.rows
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rec1.to_csv(p1)
        rec2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundness_stop(self):
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=50.0,
                            dt_init=1e-3, tol_round=5e-2, sample_every=50)
        record = run(config, perturbed_sphere(1.0, 0.08, mode=3, dim=1, num=64))
        assert record.stop_reason == "round"
        assert record.column("roundness_rescaled")[-1] < 5e-2

    def test_perturbed_sphere_rounds_out(self):
        # the conservation guard is opened up: the mode-3 profile carries a
        # discretization-consistency drift ~1e-4/unit time at this N, and
        # roundness decay is what this run is about. cos(3 phi) contains an
        # l=1 component that decays slowly (rate 1/2, an off-center drift),
        # so the monotone decay is checked over a window rather than run to
        # machine-small roundness.
        config = FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=0.5, dt_init=1e-3,
                            tol_conserve=1e-3, sample_every=10)
        record = run(config, perturbed_sphere(1.0, 0.08, mode=3, dim=2, num=96))
        rounds = record.column("roundness_rescaled")
        assert np.max(np.diff(rounds)) < 0.0  # strictly decreasing samples
        assert rounds[-1] < 0.5 * rounds[0]

    def test_precondition_rejects_nonconvex(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0)
        with pytest.raises(ValueError, match="convex"):
            run(config, perturbed_sphere(1.0, 0.3, mode=3, dim=1, num=64))

    def test_precondition_rejects_start_on_the_cone_edge(self):
        # the exact curvature (1 - eps)(1 - 10 eps) vanishes at eps = 0.1: the grid's
        # min sigma_1 is barely positive, and the first stiffness probe leaves the cone
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.1)
        with pytest.raises(ValueError, match=r"^initial surface is not strictly 1-convex: sigma_1 "
                                             r"min 1\.277724e-06 .*\(probe: sigma_1 <= 0 at node"):
            run(config, perturbed_sphere(1.0, 0.1, mode=3, dim=1, num=64))

    def test_dt_underflow_reports_partial_record(self):
        # with no drift budget at all, the run ends at the third rejection:
        # the drift rate does not fall as dt is halved
        config = FlowConfig(n=2, k=1, mode="normalized", t_max=1.0,
                            dt_init=1e-3, tol_conserve=0.0)
        with pytest.raises(FlowError) as info:
            run(config, ellipsoid_of_revolution(1.2, 1.0, 64))
        err = info.value
        assert "conservation" in err.reason
        assert err.record.rows
        assert err.state.graph.dim == 2

    def test_cone_preserved_along_run(self):
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.5,
                            dt_init=1e-3, sample_every=10)
        record = run(config, ellipse(2.0, 1.0, 128))
        assert np.all(record.column("min_sigma_k") > 0.0)
        for name in ("V2", "V1"):
            col = record.column(name)
            assert np.all(np.isfinite(col)) and np.all(col > 0.0)

    def test_record_columns(self):
        config = FlowConfig(n=2, k=1, mode="normalized", t_max=0.02, sample_every=5)
        record = run(config, sphere(1.0, 2, 64))
        assert record.columns == (
            "t", "dt", "log_scale", "V3", "V2", "V1", "I0", "I1",
            "r_t", "roundness_rescaled", "min_sigma_k",
        )
        t = record.column("t")
        assert np.all(np.diff(t) > 0)

    @pytest.mark.parametrize("n, k, pair", [(1, 1, (0, 2)), (2, 1, (1, 1)), (2, 2, (0, 3))])
    def test_monotone_pair_names_recorded_columns(self, n, k, pair):
        mono, held = fl.monotone_pair(n, k)
        assert (mono, held) == pair
        assert {f"I{mono}", f"V{held}"} <= set(fl.record_columns(n))


class TestQuermassOwners:
    @pytest.mark.parametrize("n, k, mode", [(1, 1, "rescaled_raw"), (2, 1, "normalized"),
                                            (2, 1, "rescaled_raw"), (2, 2, "rescaled_raw")])
    def test_record_row_reads_each_quermass_once(self, n, k, mode, monkeypatch):
        config = FlowConfig(n=n, k=k, mode=mode, t_max=0.01)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        state = run(config, shape).final_state
        assert state.log_scale != 0.0
        calls = []
        monkeypatch.setattr(fl, "quermass", lambda geo, m: calls.append(m) or quermass(geo, m))
        row = dict(zip(fl.record_columns(n), fl._record_row(state, config)))
        assert sorted(calls) == list(range(n + 1))
        scale = exp(-state.log_scale) if mode == "rescaled_raw" else 1.0
        for m in range(n):
            assert row[f"I{m}"] == iso_ratio(state.geo, m)
        for m in range(n + 1):
            assert row[f"V{n + 1 - m}"] == quermass(state.geo, m) * scale ** (n + 1 - m)
        # the guard holds the V_j that monotone_pair names, in the same gauge
        held = fl.monotone_pair(n, k)[1]
        conserved = fl._conserved_value(state.geo, state.log_scale, config)
        assert conserved == pytest.approx(row[f"V{held}"], rel=1e-14)

    @pytest.mark.parametrize("lam, k, why", [
        ((1.0, 1.0), 2, ""),
        ((1.0, -0.5), 1, ""),
        ((1.0, -0.5), 2, "sigma_2 min -5.000000e-01"),
        ((-1.0, 0.5), 2, "sigma_1 min -5.000000e-01"),
        ((1.0, 0.0), 2, "sigma_2 min 0.000000e+00"),  # the closure is not strict
    ])
    def test_strict_test_names_first_failing_degree(self, lam, k, why):
        geo = compute_geometry(sphere(1.0, 2, 16))
        kappa = np.tile(lam, (geo.r.size, 1))
        geo = replace(geo, kappa=kappa, sigma=elem_sym_table(kappa))
        assert fl._strictly_kconvex(geo, k) == (not why, why)


class TestRescale:
    def test_identity_at_start(self):
        state = initial_state(sphere(1.0, 1, 64))
        assert rescale_state(state) is state.graph

    def test_sphere_rescaled_constant(self):
        config = FlowConfig(n=2, k=1, mode="raw", t_max=0.5, dt_init=1e-3,
                            cfl_coefficient=0.2, sample_every=50)
        record = run(config, sphere(1.0, 2, 64))
        final = record.final_state
        # r(t) = 1/2 on spheres: log_scale = t/2, rescaled radius returns to 1
        assert final.log_scale == pytest.approx(0.25, rel=1e-10)
        assert np.max(np.abs(rescale_state(final).r - 1.0)) < 1e-9

    def test_iso_ratio_scale_invariant_under_rescale(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.2, dt_init=1e-3, sample_every=50)
        record = run(config, ellipse(2.0, 1.0, 128))
        final = record.final_state
        a = iso_ratio(compute_geometry(final.graph), 0)
        b = iso_ratio(compute_geometry(rescale_state(final)), 0)
        assert a == pytest.approx(b, abs=1e-12)


class TestGaugeEquivalence:
    def test_normalized_matches_rescaled_raw(self):
        g = perturbed_sphere(1.0, 0.1, mode=2, dim=2, num=64)
        fc_n = FlowConfig(n=2, k=1, mode="normalized", t_max=0.5, dt_init=1e-3, sample_every=1000)
        fc_r = FlowConfig(n=2, k=1, mode="raw", t_max=0.5, dt_init=1e-3, sample_every=1000)
        rn = run(fc_n, g).final_state.graph.r
        rr = rescale_state(run(fc_r, g).final_state).r
        assert np.max(np.abs(rn - rr)) < 1e-6


def _accepted_combos():
    combos = []
    for n in (1, 2):
        for k in range(1, n + 1):
            for mode in fl.MODES:
                try:
                    FlowConfig(n=n, k=k, mode=mode)
                except fl.FlowConfigError:
                    continue
                combos.append((n, k, mode))
    return combos


def _kit_and_profile(n, eps):
    g = perturbed_sphere(1.0, eps, mode=3, dim=n, num=64)
    return geomod._grid_kit(n, g.r.size), g.r


def _full_stage(kit, r, mode, k):
    return fl._geo_stage(geomod._pointwise(kit, r), mode, k)


class TestLeanStage:
    @pytest.mark.parametrize("n, k, mode", _accepted_combos())
    def test_matches_full_geometry_bitwise(self, n, k, mode):
        kit, r = _kit_and_profile(n, 0.05)
        lean_rhs, lean_rate = fl._stage(kit, r, mode, k)
        full_rhs, full_rate = _full_stage(kit, r, mode, k)
        assert lean_rhs.tobytes() == full_rhs.tobytes()
        assert lean_rate == full_rate

    @pytest.mark.parametrize("n, k, mode", _accepted_combos())
    def test_same_error_off_the_cone(self, n, k, mode):
        kit, r = _kit_and_profile(n, 0.3)
        with pytest.raises(Exception) as lean:
            fl._stage(kit, r, mode, k)
        with pytest.raises(Exception) as full:
            _full_stage(kit, r, mode, k)
        assert lean.type is full.type is ConeExitError
        assert str(lean.value) == str(full.value)

    @pytest.mark.parametrize("config, shape", [
        (FlowConfig(n=1, k=1, mode="raw", t_max=0.02, sample_every=3), ellipse(2.0, 1.0, 64)),
        (FlowConfig(n=2, k=1, mode="normalized", t_max=0.01, sample_every=3),
         ellipsoid_of_revolution(1.2, 1.0, 64)),
        (FlowConfig(n=2, k=2, mode="rescaled_raw", t_max=0.01, sample_every=3),
         ellipsoid_of_revolution(1.2, 1.0, 64)),
        # the benchmark's run workloads on their own grids, truncated in t_max
        (FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.005, dt_init=1e-3,
                    sample_every=20), ellipse(2.0, 1.0, 128)),
        (FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=0.0005, dt_init=1e-3,
                    sample_every=20), ellipsoid_of_revolution(1.5, 1.0, 512)),
    ], ids=["raw", "normalized", "rescaled_raw", "ellipse-128", "spheroid-512"])
    def test_run_csv_identical_to_full_geometry_stages(self, monkeypatch, tmp_path, config, shape):
        lean = run(config, shape)
        monkeypatch.setattr(fl, "_stage", _full_stage)
        full = run(config, shape)
        lean.to_csv(tmp_path / "lean.csv")
        full.to_csv(tmp_path / "full.csv")
        assert len(lean.rows) > 3
        assert (tmp_path / "lean.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


class TestConservedCache:
    @staticmethod
    def _outcome(result):
        new, reason = result
        if new is None:
            return reason
        return (new.t, new.log_scale, new.graph.r.tobytes(), new.conserved,
                new.accepted, new.rejections)

    @pytest.mark.parametrize("mode", ["normalized", "rescaled_raw", "raw"])
    def test_cached_value_changes_nothing(self, mode):
        config = FlowConfig(n=2, k=1, mode=mode, t_max=0.01, sample_every=1)
        state = run(config, ellipsoid_of_revolution(1.2, 1.0, 64)).final_state
        assert state.accepted > 0
        expected = fl._conserved_value(state.geo, state.log_scale, config)
        assert state.conserved == expected
        if mode != "raw":
            assert state.conserved is not None
        cold = replace(state, conserved=None)
        dt = state.last_dt
        assert self._outcome(fl._attempt(state, dt, config)) == \
            self._outcome(fl._attempt(cold, dt, config))
        # a rejection (no drift allowed), then the retry at half the step
        strict = replace(config, tol_conserve=0.0)
        rejected = fl._attempt(state, dt, strict)
        assert rejected[0] is None or mode == "raw"
        assert self._outcome(rejected) == self._outcome(fl._attempt(cold, dt, strict))
        state = replace(state, rejections=state.rejections + 1)
        cold = replace(cold, rejections=cold.rejections + 1)
        assert self._outcome(fl._attempt(state, 0.5 * dt, config)) == \
            self._outcome(fl._attempt(cold, 0.5 * dt, config))
