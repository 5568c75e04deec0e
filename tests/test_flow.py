import io
import pickle
import re
import sys
from dataclasses import replace
from math import e, exp, fsum, pi, sqrt

import numpy as np
import pytest

import starflow.flow as fl
import starflow.geometry as geomod
from starflow.flow import (
    ConeExitError,
    FlowConfig,
    FlowError,
    initial_state,
    rescale_state,
    run,
    step,
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
from starflow.symfunc import cnk, elem_sym_table

from _oracles import conserved_value, held_index, held_quermass


def geo_stage(geo, mode, k):
    """The stage map at geo under the law of (mode, geo's dim, k)."""
    return fl._geo_stage(geo, fl._law(mode, geo.dim, k))


def raw_stage(kit, r, k):
    """The raw stage map at r on kit's grid, from bare curvature rows."""
    return fl._stage(kit, r, fl._law("raw", kit.family.dim, k))


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
        # an infinite tol_round stopped a run at t = 0, an infinite tol_conserve
        # turned the conservation guard off, an infinite cfl_coefficient the cap
        ({"dt_max": float("inf")}, "dt_max"),
        ({"tol_conserve": float("inf")}, "tol_conserve"),
        ({"tol_round": float("inf")}, "tol_round"),
        ({"cfl_coefficient": float("inf")}, "cfl_coefficient"),
        ({"dt_max": -1.0}, "dt_max"),
    ] + [  # a bool, None or a string is no number: True used to act as 1
        ({name: bad}, name)
        for name in ("t_max", "dt_init", "dt_max", "tol_conserve", "tol_round", "cfl_coefficient")
        for bad in (True, None, "1")
    ])
    def test_rejects_values_that_disable_a_stop(self, kwargs, field):
        with pytest.raises(fl.FlowConfigError) as info:
            FlowConfig(n=1, k=1, **kwargs)
        assert info.value.field == field
        FlowConfig(n=1, k=1, dt_max=1e300)  # a large finite dt_max is fine

    @pytest.mark.parametrize("kwargs, field", [
        ({"n": 1.0, "k": 1}, "n"),
        ({"n": True, "k": True}, "n"),
        ({"n": 1, "k": 1.0}, "k"),
        ({"n": 2, "k": True}, "k"),
        ({"n": 1, "k": 1, "sample_every": 2.5}, "sample_every"),
        ({"n": 1, "k": 1, "sample_every": True}, "sample_every"),
        ({"n": "1", "k": 1}, "n"),
    ])
    def test_rejects_non_integer_counts(self, kwargs, field):
        with pytest.raises(fl.FlowConfigError) as info:
            FlowConfig(**kwargs)
        assert info.value.field == field
        FlowConfig(n=np.int64(2), k=np.int64(1), sample_every=np.int32(3))  # numpy integers are fine


class TestSpeed:
    def test_sphere_values(self):
        geo = compute_geometry(sphere(2.0, 1, 64))
        assert np.allclose(fl._speed(geo.sigma.T, 1), 2.0, rtol=1e-13)
        geo = compute_geometry(sphere(2.0, 2, 64))
        assert np.allclose(fl._speed(geo.sigma.T, 1), 1.0, rtol=1e-12)  # R/2
        assert np.allclose(fl._speed(geo.sigma.T, 2), 4.0, rtol=1e-12)  # 2R

    def test_cone_exit_names_node(self):
        geo = compute_geometry(perturbed_sphere(1.0, 0.3, mode=3, dim=1, num=128))
        with pytest.raises(ConeExitError, match="node"):
            geo_stage(geo, "raw", 1)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2)])
    def test_nan_in_sigma_k_names_its_node(self, n, k):
        # the gate reads sigma_k at its argmin, the first NaN, which compares false
        # against 0 and outranks a negative entry
        geo = compute_geometry(sphere(2.0, n, 64))
        sigma = geo.sigma.copy()
        sigma[[7, 9], k] = np.nan, -1.0
        with pytest.raises(ConeExitError, match=f"^sigma_{k} <= 0 at node 7: nan$"):
            fl._speed(sigma.T, k)

    @pytest.mark.parametrize("call, hi", [
        (lambda geo, k: fl.stability_cap(geo, k, 0.5), 2),
    ], ids=["stability_cap"])
    def test_fractional_degree_names_the_argument(self, call, hi):
        # 1.5 passes every range check; it used to reach numpy's row index
        # and raise an IndexError that names no argument
        geo = compute_geometry(sphere(1.0, 2, 64))
        with pytest.raises(ValueError, match="flow degree k must be an integer, got 1.5"):
            call(geo, 1.5)
        with pytest.raises(ValueError, match="^flow degree k must be an integer, got True$"):
            call(geo, True)
        for k in (0, hi + 1):
            with pytest.raises(ValueError, match=f"^flow degree k={k} out of range 1\\.\\.{hi}$"):
                call(geo, k)
        # a whole float is its integer: bitwise the same result
        assert pickle.dumps(call(geo, 1.0)) == pickle.dumps(call(geo, 1))


class TestNormalizationRate:
    """r(t), the log-scale rate holding V_{n-k} for k <= n - 1: the stage map's second output."""

    def test_sphere_closed_form(self):
        # k/(n-k+1) on any sphere: 1/2 for n=2, k=1
        for radius in (0.7, 1.0, 5.0):
            geo = compute_geometry(sphere(radius, 2, 128))
            assert geo_stage(geo, "raw", 1)[1] == pytest.approx(0.5, abs=1e-12)

    def test_scale_invariance(self):
        g = ellipsoid_of_revolution(1.2, 1.0, 128)
        a = geo_stage(compute_geometry(g), "raw", 1)[1]
        b = geo_stage(compute_geometry(g.scaled(5.0)), "raw", 1)[1]
        assert a == pytest.approx(b, abs=1e-12)

    def test_refined_grid_oracle(self):
        coarse, fine = (geo_stage(compute_geometry(ellipsoid_of_revolution(1.2, 1.0, num)),
                                      "raw", 1)[1] for num in (256, 4096))
        assert coarse == pytest.approx(fine, abs=1e-8)

    def test_rejects_top_degree(self):
        # r(t) degenerates at k = n: mode normalized rejects it
        with pytest.raises(fl.FlowConfigError, match="k <= n-1"):
            FlowConfig(n=2, k=2, mode="normalized")
        # and the stage map's rate there holds V_{n+1}: int(F dmu) / int(u dmu),
        # 2 on the unit sphere, where F = sigma_1 / sigma_2 = 2 and u = 1
        geo = compute_geometry(sphere(1.0, 2, 64))
        assert geo_stage(geo, "raw", 2)[1] == pytest.approx(2.0, rel=1e-12)


class TestRadialRhs:
    """d r/dt per node: the stage map's first output."""

    def test_sphere_raw(self):
        geo = compute_geometry(sphere(2.0, 1, 64))
        assert np.allclose(geo_stage(geo, "raw", 1)[0], 2.0, rtol=1e-13)
        geo = compute_geometry(sphere(2.0, 2, 64))
        assert np.allclose(geo_stage(geo, "raw", 2)[0], 4.0, rtol=1e-12)

    def test_sphere_normalized_fixed_point(self):
        geo = compute_geometry(sphere(3.0, 2, 128))
        assert np.max(np.abs(geo_stage(geo, "normalized", 1)[0])) < 1e-12

    def test_matches_lagrangian_flow_map(self):
        # independent oracle: evolve the material curve, resample to the
        # radial grid, difference in time
        from starflow.geometry import _CURVE
        from starflow.verify import LagrangianCurve, _evolve, curve_from_radial, radial_from_curve

        g = perturbed_sphere(1.0, 0.08, mode=3, dim=1, num=256)
        dt = 1e-5
        p0 = curve_from_radial(g).points
        p1 = _evolve(p0, dt, 1, _CURVE)
        p2 = _evolve(p1, dt, 1, _CURVE)
        r0 = radial_from_curve(LagrangianCurve(p0), 256).r
        r2 = radial_from_curve(LagrangianCurve(p2), 256).r
        mid = radial_from_curve(LagrangianCurve(p1), 256)
        rhs = geo_stage(compute_geometry(mid), "raw", 1)[0]
        cd = (r2 - r0) / (2 * dt)
        assert np.max(np.abs(cd - rhs)) / np.max(np.abs(rhs)) < 1e-3


class TestStep:
    def test_sphere_single_step_exact(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0)
        state = initial_state(sphere(1.0, 1, 64))
        dt = 1e-3
        new = step(state, dt, config)
        assert new is not None
        # on the unit circle dr/dt = r, so one step is the stepper's polynomial
        assert np.max(np.abs(new.graph.r - (1.0 + dt + dt**2 / 2 + dt**3 / 6))) <= 1e-15

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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("call", [
        lambda config, graph: step(initial_state(graph), 1e-4, config),
        lambda config, graph: run(config, graph),
    ], ids=["step", "run"])
    def test_rejects_a_config_of_another_dim(self, call, k):
        # step used to raise a bare IndexError at k = 2 and to take the
        # dim-1 step at k = 1
        with pytest.raises(ValueError, match="^config n=2 does not match graph dim=1$"):
            call(FlowConfig(n=2, k=k), ellipse(2.0, 1.0, 64))

    @pytest.mark.parametrize("dt", [0.0, -1e-4, float("nan"), float("inf"), True, None, "x"])
    def test_rejects_a_dt_that_is_not_positive_and_finite(self, dt):
        # 0 used to return an accepted state at the same t, -1e-4 a backward
        # step, and NaN and inf a rejection after numpy's invalid-value warnings
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0)
        state = initial_state(ellipse(2.0, 1.0, 64))
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(state, dt, config)

    def test_accepted_graph_shares_the_geometry_samples(self):
        config = FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=1.0)
        new = step(initial_state(ellipsoid_of_revolution(1.2, 1.0, 64)), 1e-4, config)
        assert new.graph.r is new.geo.r
        assert new.graph.r.dtype == np.float64 and not new.graph.r.flags.writeable
        with pytest.raises(ValueError):
            new.graph.r[0] = 1.0
        assert new.graph.dim == 2 and new.graph.num_intervals == 64

    @pytest.mark.parametrize("bad, reason", [
        (float("nan"), "radial function not positive"),
        (float("inf"), "non-finite curvature data"),
        (-1e6, "radial function not positive"),
    ])
    @pytest.mark.parametrize("n", [1, 2])
    def test_candidate_is_checked_through_its_curvatures(self, n, bad, reason, monkeypatch):
        # stage 3 (the second `_stage` call) puts `bad` at node 5, so that the
        # candidate, and only it, carries it
        config = FlowConfig(n=n, k=1, mode="rescaled_raw", t_max=1.0)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        state = initial_state(shape)
        calls = []
        stage = fl._stage

        def spoiled(*args):
            drdt, rate, v_held = stage(*args)
            calls.append(1)
            if len(calls) == 2:
                drdt[5] = bad
            return drdt, rate, v_held

        monkeypatch.setattr(fl, "_stage", spoiled)
        # an infinite sample is rejected before the stencil product meets
        # inf - inf, with no warning
        new, why = fl._attempt(state, 1e-4, config)
        assert new is None and len(calls) == 2
        assert str(why).startswith(reason)


def _dense_spectral_radius(graph, k):
    # central-difference Jacobian of the raw stage map, one column per node
    kit = geomod._grid_kit(graph.dim, graph.num_intervals)
    r = graph.r
    jac = np.empty((r.size, r.size))
    for j in range(r.size):
        step = np.zeros(r.size)
        step[j] = 1e-6 * r[j]
        plus = raw_stage(kit, r + step, k)[0]
        minus = raw_stage(kit, r - step, k)[0]
        jac[:, j] = (plus - minus) / (2e-6 * r[j])
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


def _default_cap(geo, k):
    return fl.stability_cap(geo, k, FlowConfig(n=geo.dim, k=k).cfl_coefficient)


_CAP_CASES = [
    (ellipse(2.0, 1.0, 64), 1),
    (ellipse(2.0, 1.0, 128), 1),
    (ellipsoid_of_revolution(1.5, 1.0, 64), 1),
    (ellipsoid_of_revolution(1.5, 1.0, 128), 1),
    (ellipsoid_of_revolution(1.5, 1.0, 128), 2),
    (perturbed_sphere(1.0, 0.1, dim=1, num=64, seed=3), 1),
    (perturbed_sphere(1.0, 0.1, dim=2, num=64, seed=3), 1),
]
_CAP_IDS = ["ellipse-64", "ellipse-128", "spheroid-64", "spheroid-128", "spheroid-128-k2",
            "perturbed-dim1", "perturbed-dim2"]


class TestStabilityCap:
    # the N=512 sphere is where a cold power-iteration start stopped at 0.88 rho
    @pytest.mark.parametrize("graph, k", _CAP_CASES + [(sphere(1.0, 2, 512), 1)],
                             ids=_CAP_IDS + ["sphere-512"])
    def test_default_cap_keeps_every_mode_monotone(self, graph, k):
        geo = compute_geometry(graph)
        assert geomod.kconvex_report(geo, k).strict
        assert fl.stability_cap(geo, k, 0.5) == 0.5 * fl.REAL_STABILITY / fl._rho_bound(geo, k)
        # the bound is rigorous, so no linear mode flips sign at the default
        # cap; measured 1.38-1.54
        assert _default_cap(geo, k) * _dense_spectral_radius(graph, k) <= fl.MONOTONE_LIMIT

    @pytest.mark.parametrize("cfl", [-1.0, 0.0, float("nan"), float("inf"), True, None])
    def test_rejects_a_cfl_that_flow_config_rejects(self, cfl):
        # these used to return a negative, zero or NaN step
        geo = compute_geometry(ellipsoid_of_revolution(1.5, 1.0, 64))
        with pytest.raises(ValueError, match="cfl must be positive and finite"):
            fl.stability_cap(geo, 1, cfl)

    def test_off_the_cone_is_a_cone_exit(self):
        # the bound alone is finite here (a cap of 3.02e-6 at cfl 0.5)
        geo = compute_geometry(perturbed_sphere(1.0, 0.3, mode=2, dim=2, num=64))
        assert float(np.min(geo.sigma[:, 2])) == pytest.approx(-1.458, abs=1e-3)
        with pytest.raises(ConeExitError, match="^sigma_2 <= 0 at node"):
            fl.stability_cap(geo, 2, 0.5)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bound_does_not_shrink_with_size(self, dim):
        # the stage map is homogeneous of degree one in r, so its Jacobian
        # and the cap do not depend on the radius (the curvature-based cap
        # this replaced fell like 1/R, 4x between these two spheres)
        small = fl.stability_cap(compute_geometry(sphere(1.0, dim, 64)), 1, 0.5)
        large = fl.stability_cap(compute_geometry(sphere(4.0, dim, 64)), 1, 0.5)
        assert large == pytest.approx(small, rel=2e-2)


def _dense_linearization(graph, k):
    # diag(a) + diag(b) D1 + diag(c) D2, with D1 and D2 the stencils applied to
    # the unit vectors: in dim 2 the reflection folds the entries past each pole
    kit = geomod._grid_kit(graph.dim, graph.num_intervals)
    a, b, c = fl._linearization(compute_geometry(graph), k)
    d1, d2 = np.transpose([geomod._stencil_derivatives(kit, e) for e in np.eye(graph.r.size)],
                          (1, 2, 0))
    return np.diag(a) + b[:, None] * d1 + c[:, None] * d2


def _smooth_direction(graph):
    # a few low modes, even about both poles in dim 2
    x = graph.param
    third = np.sin(3 * x) if graph.dim == 1 else np.cos(3 * x)
    return graph.r * (0.3 + np.cos(2 * x) + 0.5 * third)


# relative max error of the central quotient (stage(r + eps v) - stage(r - eps v)) / 2 eps
# against J v at eps = 1e-5, where it is O(eps^2) and rounding has not yet set in; measured
# 1.3e-7 (ellipse), 4.8e-8 (spheroid, k = 1 and 2) and 3.0e-8 (peanut), at N = 128
QUOTIENT_RTOL = 5e-7
# _dense_spectral_radius steps 1e-6 r_j at one node, which moves r'' there by about
# 490 / 180h^2 times that: its radius reads 7.7e-7 above the exact one on the unit
# circle at N = 128, where the bound is exact
DENSE_RTOL = 1e-5


class TestLinearization:
    @pytest.mark.parametrize("graph, k", [
        (ellipse(2.0, 1.0, 128), 1),
        (ellipsoid_of_revolution(1.5, 1.0, 128), 1),
        (ellipsoid_of_revolution(1.5, 1.0, 128), 2),
        (perturbed_sphere(1.0, 0.3, mode=2, dim=2, num=128), 1),
    ], ids=["ellipse", "spheroid", "spheroid-k2", "peanut"])
    def test_jv_matches_difference_quotients(self, graph, k):
        kit = geomod._grid_kit(graph.dim, graph.num_intervals)
        a, b, c = fl._linearization(compute_geometry(graph), k)
        v = _smooth_direction(graph)
        d1, d2 = geomod._stencil_derivatives(kit, v)
        jv = a * v + b * d1 + c * d2
        errors = []
        for eps in (1e-4, 1e-5):
            plus = raw_stage(kit, graph.r + eps * v, k)[0]
            minus = raw_stage(kit, graph.r - eps * v, k)[0]
            errors.append(np.max(np.abs((plus - minus) / (2 * eps) - jv)) / np.max(np.abs(jv)))
        assert errors[1] < QUOTIENT_RTOL, errors
        # the error is the quotient's: it falls like eps^2 (measured 78-99x)
        assert errors[0] > 50 * errors[1], errors

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2)])
    def test_sphere_spectrum(self, n, k):
        # eigenvalues (1/C_{n,k})(1 - l(l+n-1)/n), each l >= 1 twice on the circle
        # (cos and sin) and once on the axisymmetric sphere; measured within 1.1e-7
        ev = np.sort(np.linalg.eigvals(_dense_linearization(sphere(1.0, n, 128), k)).real)[::-1]
        expected = [(1 - l * (l + n - 1) / n) / cnk(n, k)
                    for l in range(5) for _ in range(1 if n == 2 or l == 0 else 2)]
        got = ev[:len(expected)]
        assert np.all(np.abs(got - expected) <= 1e-6 * np.maximum(1.0, np.abs(expected))), got

    @pytest.mark.parametrize("graph, k", _CAP_CASES + [(sphere(1.0, 1, 128), 1),
                                                       (sphere(1.0, 2, 128), 1)],
                             ids=_CAP_IDS + ["circle", "sphere"])
    def test_bound_is_at_least_the_spectral_radius(self, graph, k):
        bound = fl._rho_bound(compute_geometry(graph), k)
        assert bound >= (1.0 - DENSE_RTOL) * _dense_spectral_radius(graph, k)
        exact = float(np.max(np.abs(np.linalg.eigvals(_dense_linearization(graph, k)))))
        assert bound >= (1.0 - 1e-12) * exact

    @pytest.mark.parametrize("graph, most", [
        (ellipse(2.0, 1.0, 128), 1.06),  # measured 1.034
        (ellipse(2.0, 1.0, 256), 1.06),  # measured 1.019
        # J = I + D2: the row sum is the modulus of the node-alternating eigenvalue
        (sphere(1.0, 1, 128), 1.0 + 1e-12),
    ], ids=["ellipse-128", "ellipse-256", "circle"])
    def test_bound_is_tight_in_dim1(self, graph, most):
        rho = float(np.max(np.abs(np.linalg.eigvals(_dense_linearization(graph, 1)))))
        bound = fl._rho_bound(compute_geometry(graph), 1)
        assert (1.0 - 1e-12) * rho <= bound <= most * rho, bound / rho

    @pytest.mark.parametrize("make", [lambda num: ellipsoid_of_revolution(1.5, 1.0, num),
                                      lambda num: sphere(1.0, 2, num)],
                             ids=["spheroid", "sphere"])
    @pytest.mark.parametrize("num", [64, 128, 256])
    def test_bound_is_tight_in_dim2(self, make, num):
        # the pole rows, where kappa_par is kappa_rad, hold the largest row
        # sum near 1.75 rho; two power steps bring it to 1.1534-1.1539 rho
        graph = make(num)
        rho = float(np.max(np.abs(np.linalg.eigvals(_dense_linearization(graph, 1)))))
        bound = fl._rho_bound(compute_geometry(graph), 1)
        assert rho <= bound <= 1.16 * rho, bound / rho

    @pytest.mark.parametrize("graph, k", _CAP_CASES, ids=_CAP_IDS)
    def test_power_steps_never_raise_the_bound(self, graph, k, monkeypatch):
        # the x = 1 ratio is the largest row sum of |J|, the bound that set
        # every dim-1 cap before the power steps: no cap it set can shrink
        geo = compute_geometry(graph)
        bound = fl._rho_bound(geo, k)
        monkeypatch.setattr(fl, "CW_STEPS", 0)
        rows = fl._rho_bound(geo, k)
        assert bound <= rows
        # unfolding the reflected entries of dim 2 can only raise a row
        dense = float(np.max(np.add.reduce(np.abs(_dense_linearization(graph, k)), axis=1)))
        assert rows >= (1.0 - 1e-12) * dense
        if graph.dim == 1:
            assert rows <= (1.0 + 1e-12) * dense


class TestRun:
    def test_samples_every_multiple_of_sample_every_across_rejections(self):
        # test_gross_dt_rejected_then_recovers's flow, sampled often enough to see
        # rejections between samples: a rejection leaves the accepted count as it is
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.05, dt_init=0.02,
                            dt_max=2.0, cfl_coefficient=1e9, sample_every=7,
                            tol_conserve=1e-6)
        seen = []
        record = run(config, ellipse(2.0, 1.0, 64), observer=seen.append)
        final = record.final_state
        assert final.rejections > seen[1].rejections > 0
        assert seen[0].accepted == 0 and seen[-1] is final
        assert all(s.accepted % config.sample_every == 0 for s in seen[1:-1])
        assert [s.accepted for s in seen[1:-1]] == list(range(7, final.accepted, 7))
        assert [row[0] for row in record.rows] == [s.t for s in seen]

    def test_dt_underflow_stops_with_the_partial_record(self, monkeypatch):
        # every attempt is rejected: dt halves from dt_init until it is below
        # DT_UNDERFLOW_FRACTION * dt_init, 40 halvings, and the record holds the t = 0
        # row; the step budget bounds the loop should the underflow stop not fire
        monkeypatch.setattr(fl, "_attempt", lambda state, dt, config: (None, fl._Rejection("forced")))
        monkeypatch.setattr(fl, "MAX_STEPS", 100)
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.1, dt_init=1e-3)
        with pytest.raises(FlowError, match="dt underflow after rejection: forced") as info:
            run(config, sphere(1.0, 1, 64))
        err = info.value
        assert err.record.stop_reason == "dt_underflow"
        assert err.record.final_state is err.state
        assert (err.state.accepted, err.state.rejections) == (0, 40)
        assert err.state.t == 0.0 and [row[0] for row in err.record.rows] == [0.0]

    def test_step_budget_stops_with_max_steps(self, monkeypatch):
        monkeypatch.setattr(fl, "MAX_STEPS", 3)
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0, dt_init=1e-3, sample_every=1)
        with pytest.raises(FlowError, match="step budget exhausted") as info:
            run(config, sphere(1.0, 1, 64))
        record = info.value.record
        assert record.stop_reason == "max_steps"
        final = record.final_state
        assert final.accepted + final.rejections == 3 and final.accepted > 0
        assert len(record.rows) == 1 + final.accepted and record.rows[-1][0] == final.t < 1.0

    def test_column_of_an_unknown_name_is_a_key_error(self):
        record = fl.TrajectoryRecord(n=1, k=1, mode="raw", columns=fl.record_columns(1), rows=[])
        with pytest.raises(KeyError, match="no column 'V3'"):
            record.column("V3")

    def test_to_csv_makes_the_missing_directory(self, tmp_path):
        record = fl.TrajectoryRecord(n=1, k=1, mode="raw", columns=("t", "dt"), rows=[(0.0, 1e-3)])
        path = tmp_path / "a" / "b" / "traj.csv"
        record.to_csv(path)
        assert path.read_text().splitlines() == ["t,dt", "0.0,0.001"]

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

    def test_an_overflowed_bound_stops_the_run(self, monkeypatch):
        # a zero cap would step dt = 0 until the step budget runs out
        monkeypatch.setattr(fl, "_rho_bound", lambda geo, k: float("inf"))
        with pytest.raises(FlowError, match="^stability cap undefined: 0.0$") as info:
            run(FlowConfig(n=1, k=1, t_max=0.1), ellipse(2.0, 1.0, 64))
        assert info.value.record.stop_reason == "cap_undefined"
        assert info.value.state.accepted == 0

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
        # the law's raised I_m and held V_j depend on n and k, not on the mode
        for mode in fl.MODES:
            law = fl._law(mode, n, k)
            assert (law.raised, law.held) == pair
        assert {f"I{law.raised}", f"V{law.held}"} <= set(fl.record_columns(n))


# global order in dt of the stepper
TIME_ORDER = fl.ORDER
# the observed order may stray this far from TIME_ORDER; measured on the inputs
# below, as (r, log_scale): ellipse 3.003 and 3.004 (successive max differences
# 1.51e-10 and 1.88e-11 in r, 3.21e-11 and 4.00e-12 in log_scale), spheroid
# 2.99 and 2.84 (6.29e-12 and 7.91e-13 in r, 1.20e-13 and 1.68e-14 in log_scale)
ORDER_WINDOW = 0.5


class TestSolverConvergence:
    # at N = 64 the spheroid's cap would clamp dt = 4e-4 (506 steps)
    @pytest.mark.parametrize("shape", [ellipse(2.0, 1.0, 32), ellipsoid_of_revolution(1.5, 1.0, 32)],
                             ids=["ellipse", "spheroid"])
    def test_fixed_dt_self_convergence(self, shape):
        # dt_init = dt_max holds dt fixed while dt stays below the stability cap;
        # a dt above it is clamped without notice (on the ellipse dt = 7e-4 takes
        # 289 steps, not 286), so the step count shows that each run took the dt
        # it was given
        t_max = 0.2
        finals = []
        for dt in (4e-4, 2e-4, 1e-4):
            config = FlowConfig(n=shape.dim, k=1, mode="raw", t_max=t_max, dt_init=dt, dt_max=dt)
            state = run(config, shape).final_state
            assert state.accepted == round(t_max / dt) and state.rejections == 0
            assert state.t == pytest.approx(t_max, abs=1e-12)
            finals.append((state.graph.r, state.log_scale))
        for part in range(2):  # r, then log_scale
            coarse, fine = (np.max(np.abs(np.asarray(a[part]) - np.asarray(b[part])))
                            for a, b in zip(finals, finals[1:]))
            # the coarse difference measured 1.51e-10 in r on the ellipse
            assert 0.0 < fine < coarse < 1e-9
            assert abs(np.log2(coarse / fine) - TIME_ORDER) < ORDER_WINDOW


class TestStepperCost:
    @staticmethod
    def amplification(z):
        # one step on dr/dt = lambda r multiplies r by P(dt * lambda)
        return 1.0 + z + z**2 / 2 + z**3 / 6

    def test_real_stability_is_the_amplification_bound(self):
        x = np.linspace(0.0, fl.REAL_STABILITY, 100_001)
        assert np.max(np.abs(self.amplification(-x))) <= 1.0
        assert abs(self.amplification(-fl.REAL_STABILITY * (1.0 + 1e-7))) > 1.0

    def test_monotone_limit_is_where_the_amplification_reaches_zero(self):
        x = np.linspace(0.0, fl.MONOTONE_LIMIT, 100_001)
        assert np.min(self.amplification(-x)) >= 0.0
        assert self.amplification(-fl.MONOTONE_LIMIT * (1.0 + 1e-7)) < 0.0
        assert FlowConfig(n=1, k=1).cfl_coefficient == fl.MONOTONE_LIMIT / fl.REAL_STABILITY

    @staticmethod
    def counted_step(state, dt, config, monkeypatch):
        """(new state, _stage_map calls, _curvatures calls) of one step."""
        calls, curvature_calls = [], []
        stage_map = fl._stage_map
        monkeypatch.setattr(fl, "_stage_map", lambda *args: calls.append(1) or stage_map(*args))
        curvatures = geomod._curvatures
        monkeypatch.setattr(geomod, "_curvatures",
                            lambda *args: curvature_calls.append(1) or curvatures(*args))
        new = step(state, dt, config)
        monkeypatch.undo()
        return new, len(calls), len(curvature_calls)

    @pytest.mark.parametrize("n, k, mode", [(1, 1, "raw"), (2, 1, "normalized"),
                                            (2, 2, "rescaled_raw")])
    def test_one_step_makes_three_stage_maps(self, n, k, mode, monkeypatch):
        config = FlowConfig(n=n, k=k, mode=mode, t_max=1.0)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        state = step(initial_state(shape), 1e-4, config)
        new, maps, curvature_calls = self.counted_step(state, 1e-4, config, monkeypatch)
        assert new is not None
        # stages 2 and 3 and the candidate, whose stage map the next step carries
        assert maps == 3
        assert curvature_calls == 3

    @pytest.mark.parametrize("n, k, mode", [(1, 1, "raw"), (2, 1, "normalized"),
                                            (2, 2, "rescaled_raw")])
    def test_a_bare_initial_state_makes_four_stage_maps(self, n, k, mode, monkeypatch):
        config = FlowConfig(n=n, k=k, mode=mode, t_max=1.0)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        new, maps, curvature_calls = self.counted_step(initial_state(shape), 1e-4, config,
                                                       monkeypatch)
        # it carries no stage: stage 1 is one more map, on the state's geometry
        assert new is not None and (maps, curvature_calls) == (4, 3)

    @pytest.mark.parametrize("mode", ["normalized", "rescaled_raw"])
    def test_a_retry_makes_three_stage_maps(self, mode, monkeypatch):
        config = FlowConfig(n=2, k=1, mode=mode, t_max=1.0)
        state = step(initial_state(ellipsoid_of_revolution(1.2, 1.0, 64)), 1e-4, config)
        new, why = fl._attempt(state, 1e-4, replace(config, tol_conserve=0.0))
        assert new is None and why.drift_rate is not None
        # a rejection changes the state as `run` does: the carried stage stays
        retry = replace(state, rejections=state.rejections + 1)
        new, maps, curvature_calls = self.counted_step(retry, 0.5e-4, config, monkeypatch)
        assert new is not None and (maps, curvature_calls) == (3, 3)

    @staticmethod
    def reductions(call):
        """(call's result, the ufunc of every ufunc.reduce C call made under it)."""
        seen = []

        def profile(frame, event, arg):
            if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ufunc) \
                    and arg.__name__ == "reduce":
                seen.append(arg.__self__.__name__)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = call()
        finally:
            sys.setprofile(previous)
        return result, seen

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("mode", ["raw", "rescaled_raw"])
    def test_one_step_makes_no_ufunc_reduction(self, n, k, mode):
        # every gate reads argmin, argmax or a BLAS self-dot and every integral
        # is a BLAS dot; the counter does see a method's reduction
        assert self.reductions(lambda: np.ones(3).max())[1] == ["maximum"]
        config = FlowConfig(n=n, k=k, mode=mode, t_max=1.0)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        state = initial_state(shape)
        for _ in range(3):
            state = step(state, 1e-4, config)
        new, seen = self.reductions(lambda: step(state, 1e-4, config))
        assert new is not None and new.accepted == 4
        assert seen == []


class TestQuermassOwners:
    @pytest.mark.parametrize("n, k, mode", [(1, 1, "rescaled_raw"), (2, 1, "normalized"),
                                            (2, 1, "rescaled_raw"), (2, 2, "rescaled_raw")])
    def test_record_row_reads_each_quermass_once(self, n, k, mode, monkeypatch):
        config = FlowConfig(n=n, k=k, mode=mode, t_max=0.01)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        state = run(config, shape).final_state
        assert state.log_scale != 0.0
        calls = []
        vector = geomod.quermass_vector
        monkeypatch.setattr(fl, "quermass_vector", lambda geo: calls.append(geo) or vector(geo))
        row = dict(zip(fl.record_columns(n), fl._record_row(state, fl._law(mode, n, k))))
        # one all-m read: each V_j once
        assert calls == [state.geo]
        scale = exp(-state.log_scale) if mode == "rescaled_raw" else 1.0
        for m in range(n):
            assert row[f"I{m}"] == iso_ratio(state.geo, m)
        for m in range(n + 1):
            assert row[f"V{n + 1 - m}"] == quermass(state.geo, m) * scale ** (n + 1 - m)
        # the guard holds the V_j that the law names, in the same gauge
        held = fl._law(mode, n, k).held
        conserved = conserved_value(state.geo, state.log_scale, config)
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
    return geomod._grid_kit(n, g.num_intervals), g.r


def _full_stage(kit, r, law):
    return fl._geo_stage(geomod._pointwise(kit, r), law)


_CSV_RUNS = [
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
]
_CSV_RUN_IDS = ["raw", "normalized", "rescaled_raw", "ellipse-128", "spheroid-512"]


class TestLeanStage:
    @pytest.mark.parametrize("n, k, mode", _accepted_combos())
    def test_matches_full_geometry_bitwise(self, n, k, mode):
        kit, r = _kit_and_profile(n, 0.05)
        law = fl._law(mode, n, k)
        lean_rhs, lean_rate, lean_held = fl._stage(kit, r, law)
        full_rhs, full_rate, full_held = _full_stage(kit, r, law)
        assert lean_rhs.tobytes() == full_rhs.tobytes()
        assert lean_rate == full_rate
        assert lean_held == full_held

    @pytest.mark.parametrize("n, k, mode", _accepted_combos())
    def test_same_error_off_the_cone(self, n, k, mode):
        kit, r = _kit_and_profile(n, 0.3)
        law = fl._law(mode, n, k)
        with pytest.raises(Exception) as lean:
            fl._stage(kit, r, law)
        with pytest.raises(Exception) as full:
            _full_stage(kit, r, law)
        assert lean.type is full.type is ConeExitError
        assert str(lean.value) == str(full.value)

    @pytest.mark.parametrize("config, shape", _CSV_RUNS, ids=_CSV_RUN_IDS)
    def test_run_csv_identical_to_full_geometry_stages(self, monkeypatch, tmp_path, config, shape):
        lean = run(config, shape)
        monkeypatch.setattr(fl, "_stage", _full_stage)
        full = run(config, shape)
        lean.to_csv(tmp_path / "lean.csv")
        full.to_csv(tmp_path / "full.csv")
        assert len(lean.rows) > 3
        assert (tmp_path / "lean.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def _carried_conserved(state, config):
    """The V_held that state carries under config, in the rescaled gauge: the
    value the next step's conservation guard compares against; None in mode raw."""
    if config.mode == "raw":
        return None
    v_held = state._carried[4]
    if config.mode == "normalized":
        return v_held
    return exp(-held_index(config.n, config.k) * state.log_scale) * v_held


class TestDotQuadrature:
    @pytest.mark.parametrize("config, shape", _CSV_RUNS, ids=_CSV_RUN_IDS)
    def test_quermass_matches_an_exact_sum(self, config, shape):
        # each integral is one BLAS dot; math.fsum of the same products is
        # the correctly rounded sum
        geo = compute_geometry(shape)
        n = shape.dim
        for m in range(n + 1):
            if m == 0:
                exact = fsum(geo.u * geo.sigma[:, 0] * geo.dmu)
            else:
                exact = cnk(n, m) * fsum(geo.sigma[:, m - 1] * geo.dmu)
            assert abs(quermass(geo, m) - exact) <= 1e-14 * abs(exact)


class TestConservedCache:
    @staticmethod
    def _outcome(result, config):
        new, reason = result
        if new is None:
            return reason
        return (new.t, new.log_scale, new.graph.r.tobytes(), _carried_conserved(new, config),
                new.accepted, new.rejections)

    @pytest.mark.parametrize("mode", ["normalized", "rescaled_raw", "raw"])
    def test_cached_value_changes_nothing(self, mode):
        config = FlowConfig(n=2, k=1, mode=mode, t_max=0.01, sample_every=1)
        state = run(config, ellipsoid_of_revolution(1.2, 1.0, 64)).final_state
        assert state.accepted > 0
        expected = conserved_value(state.geo, state.log_scale, config)
        assert _carried_conserved(state, config) == expected
        if mode != "raw":
            assert expected is not None
        # a state that carries nothing: every stage of its attempts is evaluated afresh
        cold = replace(state, _carried=None)
        dt = state.last_dt
        assert self._outcome(fl._attempt(state, dt, config), config) == \
            self._outcome(fl._attempt(cold, dt, config), config)
        # a rejection (no drift allowed), then the retry at half the step
        strict = replace(config, tol_conserve=0.0)
        rejected = fl._attempt(state, dt, strict)
        assert rejected[0] is None or mode == "raw"
        assert self._outcome(rejected, strict) == \
            self._outcome(fl._attempt(cold, dt, strict), strict)
        state = replace(state, rejections=state.rejections + 1)
        cold = replace(cold, rejections=cold.rejections + 1)
        assert self._outcome(fl._attempt(state, 0.5 * dt, config), config) == \
            self._outcome(fl._attempt(cold, 0.5 * dt, config), config)

    @pytest.mark.parametrize("other", [FlowConfig(n=2, k=2, mode="rescaled_raw", t_max=0.01),
                                       FlowConfig(n=2, k=1, mode="normalized", t_max=0.01)],
                             ids=["k2", "normalized"])
    def test_state_stepped_under_another_config(self, other):
        config = FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=0.01)
        state = run(config, ellipsoid_of_revolution(1.2, 1.0, 64)).final_state
        assert _carried_conserved(state, config) is not None
        # the carried stage and conserved value are config's, not other's: the
        # drift is measured against other's held quantity at the state
        new = step(state, 1e-6, other)
        assert new is not None
        cold = step(replace(state, _carried=None), 1e-6, other)
        assert self._outcome((new, None), other) == self._outcome((cold, None), other)
        assert _carried_conserved(new, other) == conserved_value(new.geo, new.log_scale, other)


class TestCarriedStage:
    @pytest.mark.parametrize("n, k, mode", _accepted_combos())
    def test_carried_stage_is_a_fresh_stage(self, n, k, mode):
        config = FlowConfig(n=n, k=k, mode=mode, t_max=0.005, sample_every=1)
        shape = ellipse(2.0, 1.0, 64) if n == 1 else ellipsoid_of_revolution(1.2, 1.0, 64)
        states = []
        run(config, shape, observer=states.append)
        assert len(states) > 3
        for state in states:
            c_law, c_geo, drdt, rate, v_held = state._carried
            assert c_law is fl._law(mode, n, k) and c_geo is state.geo
            fresh_drdt, fresh_rate, fresh_held = fl._geo_stage(state.geo, c_law)
            assert drdt.tobytes() == fresh_drdt.tobytes()
            assert rate == fresh_rate
            assert v_held == fresh_held == held_quermass(state.geo, n, k)
            # the carried V_held in the rescaled gauge is the conserved value
            assert _carried_conserved(state, config) == \
                conserved_value(state.geo, state.log_scale, config)

    @pytest.mark.parametrize("config, shape", _CSV_RUNS, ids=_CSV_RUN_IDS)
    def test_run_csv_identical_without_the_carried_stage(self, monkeypatch, tmp_path, config, shape):
        carried = run(config, shape)
        monkeypatch.setattr(fl, "_first_stage", lambda state, law: fl._geo_stage(state.geo, law))
        fresh = run(config, shape)
        carried.to_csv(tmp_path / "carried.csv")
        fresh.to_csv(tmp_path / "fresh.csv")
        assert len(carried.rows) > 3
        assert (tmp_path / "carried.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
