import csv
import inspect
from math import pi, sqrt

import numpy as np
import pytest

from starflow import flow
from starflow.flow import FlowConfig, run
from starflow.geometry import (
    ShapeError,
    compute_geometry,
    ellipse,
    ellipsoid_of_revolution,
    embed,
    kconvex_report,
    perturbed_sphere,
    quermass_minkowski,
    quermass_sigma,
    sphere,
)
from starflow.symfunc import in_gamma_k
from starflow.verify import (
    LagrangianCurve,
    check_af_chain,
    check_first_variation,
    check_lemma_integral,
    check_monotone_series,
    check_prop1_axisym,
    check_prop1_pointwise,
    curve_from_radial,
    radial_from_curve,
    write_report_csv,
)
from starflow.verify import _spectral_derivatives
from _oracles import d2spec, dspec, ellipse_perimeter


class TestLagrangianCurve:
    def test_rejects_clockwise(self):
        pts = embed(sphere(1.0, 1, 64))[::-1]
        with pytest.raises(ValueError, match="orient"):
            LagrangianCurve(pts)

    def test_roundtrip_off_grid(self):
        # rotate so curve nodes fall between the radial grid angles
        g = ellipse(2.0, 1.0, 512)
        th = g.param + 0.4
        pts = np.stack([g.r * np.cos(th), g.r * np.sin(th)], axis=1)
        back = radial_from_curve(LagrangianCurve(pts), 512)
        ref = ellipse(2.0, 1.0, 512)
        # the ellipse radial function is rotation-covariant; compare quermass
        a = quermass_sigma(compute_geometry(back), 1)
        b = quermass_sigma(compute_geometry(ref), 1)
        assert abs(a - b) / b < 1e-8
        v_a = quermass_minkowski(compute_geometry(back), 0)
        v_b = quermass_minkowski(compute_geometry(ref), 0)
        assert abs(v_a - v_b) / v_b < 1e-8

    @pytest.mark.parametrize("pts", [np.ones((64, 3)), embed(sphere(1.0, 1, 64))[::8]],
                             ids=["three_columns", "eight_points"])
    def test_rejects_points_that_are_not_m_by_2_with_m_at_least_16(self, pts):
        with pytest.raises(ValueError, match=r"\(M, 2\) array with M >= 16"):
            LagrangianCurve(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_points_that_are_not_finite(self, bad):
        pts = embed(sphere(1.0, 1, 64))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LagrangianCurve(pts)

    def test_curve_from_radial_needs_dim_one(self):
        with pytest.raises(ValueError, match="dim-1 radial graph"):
            curve_from_radial(sphere(1.0, 2, 64))

    def test_not_starshaped_rejected(self):
        t = 2 * pi * np.arange(64) / 64
        pts = np.stack([np.cos(t) + 1.5, np.sin(t)], axis=1)  # origin outside
        with pytest.raises(ValueError, match="starshaped"):
            radial_from_curve(LagrangianCurve(pts), 64)

    @pytest.mark.parametrize("num", [0, 8, 63, 64.0])
    def test_bad_interval_count_is_a_shape_error_at_num(self, num):
        # the interval rule runs before the grid is laid out: 0 intervals divide by zero
        with pytest.raises(ShapeError) as info:
            radial_from_curve(curve_from_radial(sphere(1.0, 1, 64)), num)
        assert info.value.field == "num"


@pytest.mark.parametrize("m", [17, 64, 129, 256])
def test_spectral_derivatives_match_one_transform_per_derivative(m):
    # one rfft of every column gives bitwise the first and second derivatives
    # of a transform per column and per derivative, for odd and even m
    cols = np.random.default_rng(m).standard_normal((m, 2))
    for f in (cols[:, 0].copy(), cols):
        d1, d2 = _spectral_derivatives(f)
        assert d1.shape == d2.shape == f.shape
        for got, oracle in ((d1, dspec), (d2, d2spec)):
            want = np.stack([oracle(col) for col in f.reshape(m, -1).T], axis=1)
            assert np.ascontiguousarray(got.reshape(m, -1)).tobytes() == want.tobytes()


class TestProp1Pointwise:
    def test_circle_residuals_tiny(self):
        curve = curve_from_radial(sphere(1.0, 1, 128))
        reports = check_prop1_pointwise(curve, 1, 7e-5, tol=1e-8)
        assert len(reports) == 5
        for rep in reports:
            assert rep.rel_residual < 1e-8, rep

    def test_circle_metric_rate_closed_form(self):
        # dg/dt = 2 F h = 2 R(t)^2 on the unit circle, window center t = dt
        from math import exp

        curve = curve_from_radial(sphere(1.0, 1, 128))
        rep = next(r for r in check_prop1_pointwise(curve, 1, 7e-5) if r.name == "prop1/g11")
        assert rep.rhs == pytest.approx(2.0 * exp(2 * 7e-5), rel=1e-9)
        # centered-difference floor in double precision sits near 1e-9
        assert rep.rel_residual < 1e-8

    def test_ellipse_richardson_ratios(self):
        coarse = check_prop1_pointwise(curve_from_radial(ellipse(2, 1, 128)), 1, 4e-4)
        fine = check_prop1_pointwise(curve_from_radial(ellipse(2, 1, 256)), 1, 2e-4)
        for rc, rf in zip(coarse, fine):
            ratio = rc.rel_residual / rf.rel_residual
            assert 3.5 <= ratio <= 4.5, (rc.name, ratio)

    def test_rejects_nonconvex(self):
        curve = curve_from_radial(perturbed_sphere(1.0, 0.3, mode=3, dim=1, num=128))
        with pytest.raises(ValueError, match="convex"):
            check_prop1_pointwise(curve, 1, 1e-5)

    def test_rejects_k_above_curve_dim(self):
        curve = curve_from_radial(sphere(1.0, 1, 64))
        with pytest.raises(ValueError):
            check_prop1_pointwise(curve, 2, 1e-5)


class TestProp1Axisym:
    def test_sphere(self):
        for rep in check_prop1_axisym(sphere(1.0, 2, 256), 1, 1e-5, tol=1e-3):
            assert rep.passed, rep

    @pytest.mark.parametrize("k", [1, 2])
    def test_sphere_residuals_at_the_spectral_floor(self, k):
        # the mirror loop's spectral derivatives leave 1.8e-6 (k = 1) and 4.1e-7 (k = 2);
        # the second-order meridian stencils reached 3.8e-5. The floor grows like
        # N^2 / dt, so this bound holds at N = 256 and dt = 1e-5, not at a finer pair
        for rep in check_prop1_axisym(sphere(1.0, 2, 256), k, 1e-5):
            assert rep.rel_residual <= 1e-5, rep

    @pytest.mark.parametrize("k", [1, 2])
    def test_spheroid(self, k):
        for rep in check_prop1_axisym(ellipsoid_of_revolution(1.2, 1.0, 256), k, 1e-5, tol=5e-3):
            assert rep.passed, rep

    def test_rejects_dim1_graph(self):
        with pytest.raises(ValueError, match="dim-2"):
            check_prop1_axisym(sphere(1.0, 1, 64), 1, 1e-5)

    def test_rejects_k_above_surface_dim(self):
        with pytest.raises(ValueError, match="k=3"):
            check_prop1_axisym(sphere(1.0, 2, 64), 3, 1e-5)


@pytest.mark.parametrize("check, graph", [
    (lambda g, dt: check_prop1_pointwise(curve_from_radial(g), 1, dt), sphere(1.0, 1, 64)),
    (lambda g, dt: check_prop1_axisym(g, 1, dt), sphere(1.0, 2, 64)),
], ids=["pointwise", "axisym"])
@pytest.mark.parametrize("dt", [-1e-4, 0.0, float("nan"), float("inf"), True])
def test_prop1_rejects_window_that_is_not_positive_and_finite(check, graph, dt):
    # dt < 0 ran the window backwards and passed, dt = 0 gave NaN residuals,
    # and NaN failed converting the substep count, naming no argument
    with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
        check(graph, dt)


def _by_name(reports):
    return {rep.name: rep for rep in reports}


class TestLemmaIntegral:
    def test_curve_total_curvature_conserved(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.05, dt_init=1e-3)
        reports = _by_name(check_lemma_integral(config, ellipse(2.0, 1.0, 256)))
        rate, topo = reports["lemma/rate_sigma1_k1"], reports["lemma/topological_constant_n1"]
        assert rate.passed and rate.rel_residual < 1e-3
        assert topo.rhs == pytest.approx(2 * pi, rel=1e-15)
        assert topo.passed and topo.abs_residual < 1e-7  # pinned at 2 pi

    def test_curve_perimeter_growth(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.05, dt_init=1e-3)
        rate = _by_name(check_lemma_integral(config, ellipse(2.0, 1.0, 256)))["lemma/rate_sigma0_k1"]
        assert rate.passed and rate.rel_residual < 1e-3

    def test_surface_gauss_bonnet_conserved(self):
        config = FlowConfig(n=2, k=1, mode="raw", t_max=0.05, dt_init=1e-3)
        reports = _by_name(check_lemma_integral(config, ellipsoid_of_revolution(1.5, 1.0, 256)))
        rate, topo = reports["lemma/rate_sigma2_k1"], reports["lemma/topological_constant_n2"]
        assert rate.passed
        assert topo.rhs == pytest.approx(4 * pi, rel=1e-15)
        assert topo.abs_residual < 1e-6

    def test_requires_raw_mode(self):
        config = FlowConfig(n=2, k=1, mode="normalized", t_max=0.05)
        with pytest.raises(ValueError, match="raw"):
            check_lemma_integral(config, sphere(1.0, 2, 64))

    def test_too_few_samples_names_count_and_stop_reason(self):
        # a run shorter than one step has two samples; the difference stencil
        # was empty and numpy's argmax of an empty sequence named neither
        config = FlowConfig(n=1, k=1, mode="raw", t_max=1e-9)
        with pytest.raises(ValueError, match=r"three samples, got 2 \(stop reason 't_max'\)$"):
            check_lemma_integral(config, ellipse(2.0, 1.0, 64))

    def test_residual_drops_under_refinement(self):
        residuals = []
        for num in (128, 256):
            config = FlowConfig(n=1, k=1, mode="raw", t_max=0.05, dt_init=1e-3)
            rate = _by_name(check_lemma_integral(config, ellipse(2.0, 1.0, num)))["lemma/rate_sigma0_k1"]
            residuals.append(rate.rel_residual)
        assert residuals[0] / residuals[1] > 4.0  # at least second order

    @pytest.mark.parametrize("n, initial", [
        (1, ellipse(2.0, 1.0, 64)),
        (2, ellipsoid_of_revolution(1.5, 1.0, 64)),
    ])
    def test_one_run_checks_every_l(self, monkeypatch, n, initial):
        calls = []
        real_run = flow.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(flow, "run", counting_run)
        config = FlowConfig(n=n, k=1, mode="raw", t_max=0.002, dt_init=1e-3)
        reports = check_lemma_integral(config, initial)
        assert len(calls) == 1
        assert [rep.name for rep in reports] == (
            [f"lemma/rate_sigma{l}_k1" for l in range(n + 1)]
            + [f"lemma/topological_constant_n{n}"]
        )


class TestFirstVariation:
    def test_circle_length(self):
        rep = check_first_variation(sphere(1.0, 1, 256), lambda t: np.ones_like(t), 0)
        assert rep.lhs == pytest.approx(2 * pi, rel=1e-6)
        assert rep.passed
        # l = n is the topological constant, whose first variation is 0: the
        # residual against 0 would read roundoff alone, so the gate refuses it
        with pytest.raises(ValueError, match=r"^sigma index l=1 out of range 0\.\.0$"):
            check_first_variation(sphere(1.0, 1, 256), lambda t: np.ones_like(t), 1)

    def test_sphere_mean_curvature_integral(self):
        rep = check_first_variation(sphere(1.0, 2, 256), lambda t: np.ones_like(t), 1)
        assert rep.lhs == pytest.approx(8 * pi, rel=1e-4)
        assert rep.rhs == pytest.approx(8 * pi, rel=1e-4)
        assert rep.passed
        # 7.4e-11 on the mirror loop; second-order meridian stencils gave 1.9e-5
        assert rep.rel_residual <= 1e-9

    def test_ellipse_mode_two(self):
        rep = check_first_variation(ellipse(2.0, 1.0, 512), lambda t: np.cos(2 * t), 0)
        assert rep.rel_residual < 1e-3

    def test_rejects_destructive_probe(self):
        # at the probe size s = 1e-4 of the unit radius, s rho = 1.2 cos t pushes part
        # of the curve through the origin
        with pytest.raises(ValueError, match="starshapedness"):
            check_first_variation(sphere(1.0, 1, 64), lambda t: 12000.0 * np.cos(t), 0)

    def test_rejects_rho_without_one_value_per_node(self):
        with pytest.raises(ValueError, match=r"one value per node \(64\)"):
            check_first_variation(sphere(1.0, 1, 64), np.ones(63), 0)

    def test_rejects_a_probe_through_the_axis(self):
        # s rho = 1.2 along the unit sphere's normal carries the meridian across the axis
        with pytest.raises(ValueError, match="through the axis"):
            check_first_variation(sphere(1.0, 2, 64), lambda t: np.full_like(t, 12000.0), 0)

    def test_rejects_a_target_that_is_not_a_radial_graph(self):
        curve = curve_from_radial(sphere(1.0, 1, 64))
        with pytest.raises(TypeError, match="RadialGraph"):
            check_first_variation(curve, np.ones(64), 0)


class TestAfChain:
    def test_sphere_equality(self):
        for n, num in ((1, 256), (2, 512)):
            geo = compute_geometry(sphere(1.0, n, num))
            for rep in check_af_chain(geo, n):
                assert abs(rep.lhs - rep.rhs) < 1e-10

    def test_ellipse_isoperimetric_numbers(self):
        geo = compute_geometry(ellipse(2.0, 1.0, 512))
        (rep,) = check_af_chain(geo, 1)
        # classical isoperimetric inequality, via the independent
        # perimeter oracle: L^2 >= 4 pi A
        length = ellipse_perimeter(2.0, 1.0)
        assert length == pytest.approx(9.688448, abs=1e-6)
        area = quermass_minkowski(geo, 0) / 2.0
        assert length**2 >= 4 * pi * area
        assert rep.passed and rep.lhs <= rep.rhs

    def test_random_samples_pass(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            eps = rng.uniform(0.02, 0.3)
            mode = int(rng.integers(2, 5))
            g = perturbed_sphere(1.0, eps, mode=mode, dim=2, num=256)
            geo = compute_geometry(g)
            if kconvex_report(geo, 1).status != "strict":
                continue
            for rep in check_af_chain(geo, 1):
                assert rep.passed, rep
            checked += 1

    def test_precondition_not_counterexample(self):
        geo = compute_geometry(perturbed_sphere(1.0, 0.45, mode=2, dim=1, num=128))
        with pytest.raises(ValueError, match="precondition"):
            check_af_chain(geo, 1)


class TestMonotoneSeries:
    def test_sphere_constant_columns(self):
        config = FlowConfig(n=2, k=1, mode="normalized", t_max=0.2,
                            dt_init=1e-3, sample_every=5)
        record = run(config, sphere(1.0, 2, 64))
        mono, cons, term = check_monotone_series(record)
        assert mono.passed and cons.passed and term.passed
        assert term.rel_residual <= 1e-6
        iso = record.column("I1")
        assert np.max(np.abs(iso - iso[0])) < 1e-12

    def test_ellipse_increases(self):
        config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=0.5,
                            dt_init=1e-3, sample_every=20)
        record = run(config, ellipse(2.0, 1.0, 128))
        mono, cons, _term = check_monotone_series(record)
        assert mono.passed and cons.passed
        iso = record.column("I0")
        assert iso[-1] > iso[0] + 1e-3  # genuinely increasing, not flat

    def test_requires_conserving_mode(self):
        config = FlowConfig(n=1, k=1, mode="raw", t_max=0.05, sample_every=10)
        record = run(config, ellipse(2.0, 1.0, 64))
        with pytest.raises(ValueError, match="normalized or rescaled_raw"):
            check_monotone_series(record)


@pytest.mark.parametrize("func, params", [
    (check_lemma_integral, ["config", "initial"]),
    (check_af_chain, ["geo", "k"]),
    (check_monotone_series, ["record"]),
    (check_first_variation, ["target", "rho", "l"]),
    (kconvex_report, ["geo", "k"]),
    (in_gamma_k, ["lam", "k", "strict"]),
])
def test_each_check_has_one_built_in_tolerance(func, params):
    # a report's tolerance changes only through verify.tolerance_overrides
    assert list(inspect.signature(func).parameters) == params


class TestReportCsv:
    def test_makes_the_missing_directory(self, tmp_path):
        reports = check_af_chain(compute_geometry(sphere(1.0, 1, 64)), 1)
        path = tmp_path / "a" / "b" / "report.csv"
        write_report_csv(reports, path)
        assert len(path.read_text().splitlines()) == 1 + len(reports)

    def test_write_and_parse(self, tmp_path):
        curve = curve_from_radial(sphere(1.0, 1, 128))
        reports = check_prop1_pointwise(curve, 1, 7e-5, tol=1e-8)
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "lhs", "rhs", "abs_residual", "rel_residual", "tolerance", "pass"]
        assert len(rows) == 1 + len(reports)
        for row in rows[1:]:
            assert len(row) == 7
            float(row[1]), float(row[2]), float(row[3])
            assert row[6] in ("True", "False")
