import csv
import dataclasses
import pickle
import re
import warnings
from math import nextafter, pi, sqrt

import numpy as np
import pytest

import starflow.geometry as geom
from starflow.geometry import (
    RadialGraph,
    ShapeError,
    compute_geometry,
    ellipse,
    ellipsoid_of_revolution,
    export_snapshot,
    iso_ratio,
    iso_ratio_ball,
    kconvex_report,
    make_shape,
    perturbed_sphere,
    quermass,
    quermass_minkowski,
    quermass_sigma,
    refine,
    roundness,
    sphere,
    unit_ball_quermass,
)
from starflow.symfunc import cnk, elem_sym, elem_sym_table, in_gamma_k
from starflow.verify import (
    _curve_geometry,
    _meridian_geometry,
    check_af_chain,
    check_first_variation,
    check_prop1_pointwise,
    curve_from_radial,
)
from _oracles import (
    curvatures_rowmajor,
    curve_curvature_fd2,
    ellipse_mean_radius,
    ellipse_perimeter,
    grid_kit_arrays,
    meridian_curvatures_fd2,
    stencil_derivatives_padded,
)


class TestShapes:
    def test_sphere_constant(self):
        g = sphere(2.0, 1, 64)
        assert np.all(g.r == 2.0)

    def test_ellipse_on_implicit_curve(self):
        g = ellipse(2.0, 1.0, 256)
        th = g.param
        x = g.r * np.cos(th)
        y = g.r * np.sin(th)
        assert np.max(np.abs(x**2 / 4.0 + y**2 - 1.0)) < 1e-14

    def test_offcenter_ellipse_on_implicit_curve(self):
        g = ellipse(2.0, 1.0, 256, center=(0.25, -0.1))
        th = g.param
        x = 0.25 + g.r * np.cos(th)
        y = -0.1 + g.r * np.sin(th)
        assert np.max(np.abs(x**2 / 4.0 + y**2 - 1.0)) < 1e-13

    def test_perturbed_single_mode(self):
        g = perturbed_sphere(1.0, 0.2, mode=3, dim=1, num=128)
        assert np.allclose(g.r, 1.0 + 0.2 * np.cos(3 * g.param))

    def test_perturbed_random_deterministic(self):
        a = perturbed_sphere(1.0, 0.2, dim=2, num=64, seed=5)
        b = perturbed_sphere(1.0, 0.2, dim=2, num=64, seed=5)
        assert np.array_equal(a.r, b.r)
        assert np.min(a.r) > 0.8 - 1e-12  # amplitude normalized to eps

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            sphere(-1.0)
        with pytest.raises(ShapeError):
            perturbed_sphere(1.0, 1.5, mode=2, num=64)  # min r <= 0
        with pytest.raises(ShapeError):
            ellipse(2.0, 1.0, 64, center=(3.0, 0.0))
        with pytest.raises(ShapeError):
            RadialGraph(1, np.ones(10))  # too coarse
        with pytest.raises(ShapeError):
            RadialGraph(3, np.ones(32))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, None])
    @pytest.mark.parametrize("name, build", [
        ("sphere radius", lambda v: sphere(v)),
        ("semi-axis a", lambda v: ellipse(v, 1.0)),
        ("semi-axis b", lambda v: ellipse(2.0, v)),
        ("star center cx", lambda v: ellipse(2.0, 1.0, center=(v, 0.0))),
        ("star center cy", lambda v: ellipse(2.0, 1.0, center=(0.0, v))),
        ("semi-axis a", lambda v: ellipsoid_of_revolution(v, 1.0)),
        ("semi-axis c", lambda v: ellipsoid_of_revolution(1.5, v)),
        ("sphere radius", lambda v: perturbed_sphere(v, 0.1, mode=2)),
        ("perturbation amplitude eps", lambda v: perturbed_sphere(1.0, v, mode=2)),
        ("scale factor s", lambda v: sphere(1.0).scaled(v)),
    ], ids=["sphere", "ellipse_a", "ellipse_b", "ellipse_cx", "ellipse_cy", "spheroid_a",
            "spheroid_c", "perturbed_radius", "perturbed_eps", "scaled"])
    def test_real_parameter_errors_name_the_parameter(self, name, build, bad):
        # a non-finite value used to read "radial samples contain non-finite
        # values", and ellipse(inf, 1.0) warned of an invalid divide first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"^{name} must be") as err:
                build(bad)
        assert err.value.field == "params"

    @pytest.mark.parametrize("bad", [1e200, 1e-200, 1e-154, 1e-160])
    @pytest.mark.parametrize("name, build", [
        ("semi-axis a", lambda v: ellipse(v, 1.0, 64)),
        ("semi-axis b", lambda v: ellipse(2.0, v, 64)),
        ("semi-axis a", lambda v: ellipsoid_of_revolution(v, 1.0, 64)),
        ("semi-axis c", lambda v: ellipsoid_of_revolution(1.5, v, 64)),
    ], ids=["ellipse_a", "ellipse_b", "spheroid_a", "spheroid_c"])
    def test_semi_axis_square_must_stay_in_float_range(self, name, build, bad):
        # finite, so the real gate passes it, but its square overflows or underflows:
        # ellipse(1e200, 1) warned of an invalid divide, ellipse(1e-200, 1) raised a
        # bare ZeroDivisionError and the spheroid said "radial function not positive";
        # a subnormal square (1e-160) or one whose inverse makes 4 qa overflow (1e-154)
        # warned of an overflow in ellipse, and ellipsoid_of_revolution(1, 1e-160) built
        # r from 1e-160 to 1.6e-144
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"^{name} must") as err:
                build(bad)
        assert err.value.field == "params"

    @pytest.mark.parametrize("name, build", [
        ("semi-axis a", lambda v: ellipse(v, 1.0, 64)),
        ("semi-axis b", lambda v: ellipse(2.0, v, 64)),
        ("semi-axis a", lambda v: ellipsoid_of_revolution(v, 1.0, 64)),
        ("semi-axis c", lambda v: ellipsoid_of_revolution(1.5, v, 64)),
        ("semi-axis a", lambda v: ellipse(v, v, 64, center=(0.7 * v, 0.7 * v))),
    ], ids=["ellipse_a", "ellipse_b", "spheroid_a", "spheroid_c", "ellipse_off_center"])
    def test_semi_axis_square_floor(self, name, build):
        # the least semi-axis whose square reaches the floor builds, with no warning
        least = sqrt(geom._SQUARE_FLOOR)
        while least * least < geom._SQUARE_FLOOR:
            least = nextafter(least, 1.0)
        below = nextafter(least, 0.0)
        assert below * below < geom._SQUARE_FLOOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"^{name} must have a finite square") as err:
                build(below)
            assert err.value.field == "params"
            g = build(least)
        assert np.all(np.isfinite(g.r)) and np.min(g.r) > 0.0

    @pytest.mark.parametrize("num", [64, 66])
    @pytest.mark.parametrize("a, b", [(1e-20, 1.0), (1.0, 1e-20)])
    def test_quarter_turn_nodes_hold_the_semi_axes(self, num, a, b):
        # the float cos(pi/2) = 6.1e-17 and sin(pi) = 1.2e-16 built r = 1.6e-4 where the
        # semi-axis 1 belongs at an axis ratio of 1e20; 66 intervals have no dim-1 node at pi/2
        r = ellipse(a, b, num).r
        assert r[0] == a and r[num // 2] == a
        if num % 4 == 0:
            assert r[num // 4] == b and r[3 * num // 4] == b
        r = ellipsoid_of_revolution(a, b, num).r  # equatorial a, polar b
        assert r[0] == b and r[num // 2] == a and r[num] == b

    def test_perturbed_mode_at_most_nyquist(self):
        # the grid's Nyquist mode is N/2 in dim 1 and N in dim 2: mode 40 at N = 64 was
        # silently aliased, and 2**1100 raised a bare OverflowError
        for dim, nyquist in ((1, 32), (2, 64)):
            perturbed_sphere(1.0, 0.1, mode=nyquist, dim=dim, num=64)
            for bad in (nyquist + 1, 2**1100, 1e300):
                with pytest.raises(ShapeError, match=f"^perturbation mode must be a whole "
                                                     f"number in 1\\.\\.{nyquist}") as err:
                    perturbed_sphere(1.0, 0.1, mode=bad, dim=dim, num=64)
                assert err.value.field == "params"

    def test_perturbed_mode_must_be_whole(self):
        # a fractional mode leaves a kink where the angle wraps (dim 1) or at phi = pi
        for dim in (1, 2):
            with pytest.raises(ShapeError, match="whole number"):
                perturbed_sphere(1.0, 0.1, mode=2.5, dim=dim, num=64)
        # True used to build mode 1; "3" and [2] raised a bare TypeError
        for bad in (float("inf"), float("nan"), True, "3", [2], 0, -1):
            with pytest.raises(ShapeError, match="whole number") as err:
                perturbed_sphere(1.0, 0.1, mode=bad, num=64)
            assert err.value.field == "params"
        assert np.array_equal(perturbed_sphere(1.0, 0.1, mode=2.0, num=64).r,
                              perturbed_sphere(1.0, 0.1, mode=2, num=64).r)

    def test_make_shape_dispatch(self):
        g = make_shape({"type": "ellipse", "params": {"a": 2, "b": 1}}, 1, 64)
        assert g.dim == 1 and g.r.size == 64
        with pytest.raises(ShapeError):
            make_shape({"type": "torus", "params": {}}, 1, 64)
        with pytest.raises(ShapeError):
            make_shape({"type": "ellipse", "params": {"a": 2}}, 1, 64)
        with pytest.raises(ShapeError):
            make_shape({"type": "ellipse", "params": {"a": 2, "b": 1}}, 2, 64)
        for params in ({"radius": "one"}, {"radius": True}, [1.0], {"radius": None}):
            with pytest.raises(ShapeError):
                make_shape({"type": "sphere", "params": params}, 1, 64)
        with pytest.raises(ShapeError, match="seed"):
            make_shape({"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1},
                        "seed": "x"}, 1, 64)
        # a name the type does not read is an error, so a misspelled mode cannot
        # fall back to random harmonics; a null value counts as left out, whatever its name
        spec = {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1, "mdoe": 3}}
        with pytest.raises(ShapeError, match="^shape 'perturbed_sphere' has no parameter "
                                             "'mdoe'; it reads radius, eps, mode$"):
            make_shape(spec, 1, 64)
        assert np.array_equal(make_shape({"type": "sphere", "params": {"radius": 1.0, "eps": None}},
                                         1, 64).r, sphere(1.0, 1, 64).r)
        # a null parameter is left out: mode falls back to random harmonics
        spec = {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1, "mode": None},
                "seed": 3}
        assert np.array_equal(make_shape(spec, 1, 64).r,
                              perturbed_sphere(1.0, 0.1, None, 1, 64, 3).r)
        # a missing or null seed means seed 0, so a config names one shape
        for seed in ({}, {"seed": None}):
            spec = {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1}, **seed}
            assert np.array_equal(make_shape(spec, 2, 64).r,
                                  perturbed_sphere(1.0, 0.1, None, 2, 64, 0).r)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_seedless_perturbed_sphere_is_reproducible(self, dim):
        a = perturbed_sphere(1.0, 0.1, dim=dim, num=64)
        b = perturbed_sphere(1.0, 0.1, dim=dim, num=64)
        spec = {"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1}}
        assert a.r.tobytes() == b.r.tobytes() == make_shape(spec, dim, 64).r.tobytes()
        assert a.r.tobytes() == perturbed_sphere(1.0, 0.1, dim=dim, num=64, seed=0).r.tobytes()

    @pytest.mark.parametrize("build, field", [
        (lambda: make_shape({"type": "torus", "params": {}}, 1, 64), "type"),
        (lambda: make_shape({"type": "ellipse", "params": {"a": 2, "b": 1}}, 2, 64), "type"),
        (lambda: make_shape({"type": "ellipsoid_of_revolution", "params": {"a": 2, "c": 1}},
                            1, 64), "type"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": 1.0}}, 3, 64), "type"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": -1.0}}, 1, 64), "params"),
        (lambda: make_shape({"type": "sphere", "params": [1.0]}, 1, 64), "params"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": 1.0, "eps": 0.1}}, 1, 64),
         "params"),
        (lambda: make_shape({"type": "ellipse", "params": {"a": 2}}, 1, 64), "params"),
        (lambda: make_shape({"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 1.5},
                             "seed": 4}, 1, 64), "params"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": 1.0}, "seed": -1}, 1, 64),
         "seed"),
        (lambda: make_shape({"type": "perturbed_sphere", "params": {"radius": 1.0, "eps": 0.1},
                             "seed": -1}, 1, 64), "seed"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": 1.0}, "seed": 1.5}, 1, 64),
         "seed"),
        (lambda: make_shape({"type": "sphere", "params": {"radius": 1.0}}, 1, 63), "num"),
        (lambda: make_shape({"type": "ellipse", "params": {"a": 2, "b": 1}}, 1, 0), "num"),
        (lambda: make_shape({"type": "ellipsoid_of_revolution", "params": {"a": 2, "c": 1}},
                            2, -4), "num"),
        # empty and negative grids: the interval rule runs before any array is built
        (lambda: RadialGraph(1, []), "num"),
        (lambda: RadialGraph(2, []), "num"),
        (lambda: sphere(1.0, 1, 0), "num"),
        (lambda: sphere(1.0, 1, -4), "num"),
        (lambda: sphere(1.0, 2, 0), "num"),
        (lambda: ellipse(2, 1, 0), "num"),
        (lambda: ellipsoid_of_revolution(2, 1, 0), "num"),
        (lambda: perturbed_sphere(1.0, 0.1, 2, 2, -2), "num"),
        (lambda: perturbed_sphere(1.0, 0.1, None, 1, 14), "num"),
        # the builder keeps make_shape's seed rule, not numpy's
        (lambda: perturbed_sphere(1.0, 0.1, None, 1, 64, -1), "seed"),
        (lambda: perturbed_sphere(1.0, 0.1, None, 1, 64, 2.5), "seed"),
        # a whole float is not an interval count: the grid kit needs an integer
        (lambda: sphere(1.0, 1, 64.0), "num"),
        (lambda: ellipse(2, 1, 64.0), "num"),
        (lambda: ellipsoid_of_revolution(2, 1, 64.0), "num"),
        (lambda: perturbed_sphere(1.0, 0.1, 2, 2, 64.0), "num"),
    ])
    def test_shape_error_names_the_input_at_fault(self, build, field):
        with pytest.raises(ShapeError) as info:
            build()
        assert info.value.field == field


class TestPointwiseGeometry:
    def test_sphere_values_dim1(self):
        geo = compute_geometry(sphere(2.0, 1, 64))
        assert np.allclose(geo.kappa[:, 0], 0.5, rtol=1e-14)
        assert np.allclose(geo.u, 2.0, rtol=1e-14)
        assert geo.area == pytest.approx(4.0 * pi, rel=1e-14)

    def test_sphere_values_dim2(self):
        geo = compute_geometry(sphere(2.0, 2, 128))
        assert np.allclose(geo.kappa, 0.5, rtol=1e-12)
        assert np.allclose(geo.u, 2.0, rtol=1e-12)
        # composite Simpson: O(h^4) quadrature error
        assert geo.area == pytest.approx(16.0 * pi, rel=1e-8)

    def test_ellipse_tip_curvature(self):
        geo = compute_geometry(ellipse(2.0, 1.0, 512))
        # theta = 0 is the end of the major axis: kappa = a/b^2 = 2
        assert geo.kappa[0, 0] == pytest.approx(2.0, rel=1e-7)

    def test_round_spheroid_degenerates_to_sphere(self):
        geo = compute_geometry(ellipsoid_of_revolution(1.0, 1.0, 256))
        assert np.max(np.abs(geo.kappa - 1.0)) < 1e-8

    def test_curvature_oracle_dim1_second_order(self):
        errs = []
        for num in (128, 256):
            g = ellipse(2.0, 1.0, num)
            geo = compute_geometry(g)
            kap = curve_curvature_fd2(geom.embed(g))
            errs.append(np.max(np.abs(geo.kappa[:, 0] - kap)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_curvature_oracle_dim2_second_order(self):
        errs = []
        for num in (128, 256):
            g = ellipsoid_of_revolution(1.5, 1.0, num)
            geo = compute_geometry(g)
            kap = meridian_curvatures_fd2(geom.embed(g))
            errs.append(np.max(np.abs(geo.kappa[1:-1] - kap[1:-1])))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_meridian_loop_exact_on_sphere(self):
        # the meridian and its mirror image close into a circle, where spectral
        # derivatives are exact: 3.9e-13, against 6.0e-4 from second-order stencils
        mg = _meridian_geometry(geom.embed(sphere(1.0, 2, 64)))
        assert np.max(np.abs(mg.kappa - 1.0)) < 1e-12

    def test_spectral_curve_pipeline_agrees(self):
        # independent Lagrangian pipeline on the same nodes
        g = ellipse(2.0, 1.0, 512)
        kap = _curve_geometry(geom.embed(g)).kappa
        geo = compute_geometry(g)
        assert np.max(np.abs(geo.kappa[:, 0] - kap)) < 1e-7

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ShapeError):
            RadialGraph(1, np.concatenate([np.ones(63), [-0.1]]))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("num", [16, 18, 128, 512])
    def test_stencils_match_ghost_node_oracle_bitwise(self, dim, num):
        # 16 and 18 are the smallest grids allowed (geometry.MIN_NODES = 16);
        # the curvature rows also match the row-major tables bitwise, poles
        # included, with (M, n) and (M, n + 1) views of contiguous rows
        rng = np.random.default_rng(1000 * dim + num)
        size = num if dim == 1 else num + 1
        for r in (rng.uniform(0.5, 2.0, size), 1.0 + 0.1 * rng.standard_normal(size)):
            g = RadialGraph(dim, r)
            geo = compute_geometry(g)
            d1, d2 = stencil_derivatives_padded(g.r, dim, g.h)
            assert geo.r1.tobytes() == d1.tobytes()
            assert geo.r2.tobytes() == d2.tobytes()
            assert geo.kappa.shape == (size, dim) and geo.sigma.shape == (size, dim + 1)
            assert geo.kappa.T.flags.c_contiguous and geo.sigma.T.flags.c_contiguous
            want = curvatures_rowmajor(r, dim)
            for got, expected in zip((geo.kappa, geo.sigma, geo.w, geo.u, geo.dmu), want):
                assert got.shape == expected.shape
                assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("num", [16, 128])
    def test_single_copy_kit_is_the_unstacked_kit(self, dim, num):
        size = num if dim == 1 else num + 1
        kit = geom._grid_kit(dim, num)
        got = (kit.param, kit.cot, kit.area_weight, kit.taps, kit.weights)
        for mine, want in zip(got, grid_kit_arrays(dim, size)):
            if want is None:
                assert mine is None
            else:
                assert mine.dtype == want.dtype and mine.shape == want.shape
                assert mine.tobytes() == want.tobytes()
        if dim == 2:  # the pole index holds exactly nodes 0 and N
            assert list(kit.poles) == [0, num]
        else:
            assert kit.poles is None

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("copies", [1, 3, 16])
    def test_stacked_rows_match_compute_geometry_bitwise(self, dim, copies):
        num = 64
        size = num if dim == 1 else num + 1
        rng = np.random.default_rng(10 * dim + copies)
        rows = np.array([perturbed_sphere(1.0, rng.uniform(0.02, 0.2), dim=dim, num=num,
                                          seed=int(rng.integers(1000))).r
                         for _ in range(copies)])
        kit = geom._grid_kit(dim, num, copies)
        r1, r2, w, rr, kappa, sig, dmu = geom._curvatures(kit, rows.ravel())
        for c, r in enumerate(rows):
            cols = slice(c * size, (c + 1) * size)
            geo = compute_geometry(RadialGraph(dim, r))
            for got, want in ((r1, geo.r1), (r2, geo.r2), (w, geo.w), (rr / w, geo.u),
                              (dmu, geo.dmu), (kappa, geo.kappa.T), (sig, geo.sigma.T)):
                assert got[..., cols].tobytes() == np.ascontiguousarray(want).tobytes()
            if dim == 2:  # both poles of every copy take the meridian curvature
                for pole in (c * size, (c + 1) * size - 1):
                    assert kappa[1, pole] == kappa[0, pole]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_stencil_product_is_the_single_copy_product(self, dim):
        # at the default BLAS thread count: every copy's columns of the one
        # (2, 7) product are bitwise its own product, and every pole reads 0
        num, copies = 512, 16
        size = num if dim == 1 else num + 1
        rng = np.random.default_rng(7 * dim)
        rows = 1.0 + 0.1 * rng.standard_normal((copies, size))
        r1, r2 = geom._stencil_derivatives(geom._grid_kit(dim, num, copies), rows.ravel())
        kit = geom._grid_kit(dim, num)
        for c, r in enumerate(rows):
            cols = slice(c * size, (c + 1) * size)
            d1, d2 = geom._stencil_derivatives(kit, r)
            assert r1[cols].tobytes() == d1.tobytes()
            assert r2[cols].tobytes() == d2.tobytes()
            if dim == 2:
                assert r1[c * size] == 0.0 and r1[(c + 1) * size - 1] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_infinite_radius_is_rejected_without_a_warning(self, dim):
        # the pytest filter error::RuntimeWarning:starflow fails the test on any
        # warning; the stencil product used to warn of inf - inf before the raise
        kit = geom._grid_kit(dim, 64)
        r = np.ones(kit.size)
        r[5] = np.inf
        with pytest.raises(ValueError, match="^non-finite curvature data: r = inf at node 5$"):
            geom._curvatures(kit, r)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad, shown", [
        ([np.nan, -1.0], "nan"),  # the first NaN outranks a negative, as in a NaN minimum
        ([0.0, 1.0], "0.0"),
        ([-0.5, -2.0], "-2.0"),
    ], ids=["nan", "zero", "negative"])
    def test_radius_not_positive_is_rejected_at_its_minimum(self, dim, bad, shown):
        # the gate reads r at its argmin, which is the first NaN when there is one
        kit = geom._grid_kit(dim, 64)
        r = np.ones(kit.size)
        r[[5, 9]] = bad
        message = re.escape(f"radial function not positive (min r = {shown})")
        with pytest.raises(ShapeError, match=f"^{message}$"):
            geom._curvatures(kit, r)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bump, bad", [(None, 0), (40, 37)], ids=["sphere", "bump"])
    def test_overflowing_squares_are_rejected_at_the_first_bad_node(self, dim, bump, bad):
        # every r is finite, but r = 1e160 squares to inf: the curvature sum is
        # not finite and the exact test names the first node whose data are not;
        # a lone 1e160 at node 40 reaches the curvatures three taps before it
        kit = geom._grid_kit(dim, 64)
        if bump is None:
            r = sphere(1e160, dim, 64).r
        else:
            r = np.ones(kit.size)
            r[bump] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^non-finite curvature data at node {bad}$"):
                geom._curvatures(kit, r)

    @pytest.mark.parametrize("row, bad", [
        ([1e308, 1e308], None),  # the sum overflows, every entry is finite
        ([1.0, np.nan], 1),
        ([1.0, np.inf], 1),
        ([np.inf, -np.inf], 0),
    ])
    def test_finite_gate_rejects_exactly_a_non_finite_entry(self, row, bad):
        # rows sigma_0, sigma_1 of two nodes; numpy warns of the overflowing or
        # invalid sum, which is not what the gate decides on
        sig = np.array([[1.0, 1.0], row])
        with np.errstate(over="ignore", invalid="ignore"):
            if bad is None:
                geom._check_finite(sig)
            else:
                with pytest.raises(ValueError, match=f"^non-finite curvature data at node {bad}$"):
                    geom._check_finite(sig)

    def test_pole_derivative_vanishes(self):
        # even reflection makes the profile derivative exactly zero at poles
        geo = compute_geometry(ellipsoid_of_revolution(1.5, 1.0, 128))
        assert geo.r1[0] == 0.0
        assert geo.r1[-1] == 0.0

    def test_support_function_bounds(self):
        for graph in (ellipse(2.0, 1.0, 256),
                      perturbed_sphere(1.0, 0.25, mode=3, dim=2, num=128)):
            geo = compute_geometry(graph)
            assert np.all(geo.u > 0.0)
            assert np.max(geo.u) <= np.max(graph.r) + 1e-14


class TestQuermass:
    def test_circle_hand_values(self):
        geo = compute_geometry(sphere(1.0, 1, 256))
        assert quermass_sigma(geo, 1) == pytest.approx(2 * pi, rel=1e-13)
        assert quermass_minkowski(geo, 0) == pytest.approx(2 * pi, rel=1e-13)

    def test_sphere_hand_values(self):
        geo = compute_geometry(sphere(1.0, 2, 256))
        assert quermass_sigma(geo, 1) == pytest.approx(8 * pi, rel=1e-9)
        assert quermass_sigma(geo, 2) == pytest.approx(4 * pi, rel=1e-9)
        assert quermass_minkowski(geo, 1) == pytest.approx(8 * pi, rel=1e-9)

    @pytest.mark.parametrize("num", [128, 512])
    def test_dot_quadrature_matches_the_closed_forms(self, num):
        # the unit circle's V_2 = V_1 = 2 pi exactly on the trapezoid rule; the
        # unit sphere's V_3, V_2, V_1 = 4 pi, 8 pi, 4 pi within Simpson's error
        # h^4 / 180 of int sin plus the stencil's roundoff in sigma_2 (1.4e-11
        # at N = 512)
        circle = compute_geometry(sphere(1.0, 1, num))
        for m in range(2):
            assert quermass(circle, m) == pytest.approx(2 * pi, rel=1e-14)
        ball = compute_geometry(sphere(1.0, 2, num))
        tol = (pi / num) ** 4 / 180 + 1e-11
        for m, want in enumerate((4 * pi, 8 * pi, 4 * pi)):
            assert abs(quermass(ball, m) / want - 1.0) < tol

    def test_sphere_volume_form(self):
        geo = compute_geometry(sphere(1.5, 2, 256))
        vol = 4.0 / 3.0 * pi * 1.5**3
        assert quermass_minkowski(geo, 0) == pytest.approx(3 * vol, rel=1e-9)

    def test_index_ranges(self):
        geo = compute_geometry(sphere(1.0, 1, 64))
        with pytest.raises(ValueError):
            quermass_sigma(geo, 0)
        with pytest.raises(ValueError):
            quermass_sigma(geo, 2)
        with pytest.raises(ValueError):
            quermass_minkowski(geo, 2)

    def test_quermass_vector(self):
        from starflow.geometry import quermass_vector

        geo = compute_geometry(sphere(1.0, 2, 256))
        vec = quermass_vector(geo)
        assert vec == pytest.approx([4 * pi, 8 * pi, 4 * pi], rel=1e-9)
        assert np.all(vec > 0) and np.all(np.isfinite(vec))

    def test_quermass_picks_one_form_per_index(self):
        for g in (ellipse(2.0, 1.0, 64), ellipsoid_of_revolution(1.5, 1.0, 64)):
            geo = compute_geometry(g)
            n = g.dim
            assert quermass(geo, 0) == quermass_minkowski(geo, 0)
            for m in range(1, n + 1):
                assert quermass(geo, m) == quermass_sigma(geo, m)
            for m in (-1, n + 1):
                with pytest.raises(ValueError, match="out of range 0.."):
                    quermass(geo, m)

    @pytest.mark.parametrize(
        "graph",
        [
            sphere(1.0, 1, 512),
            ellipse(2.0, 1.0, 512),
            ellipsoid_of_revolution(1.5, 1.0, 512),
            perturbed_sphere(1.0, 0.3, mode=2, dim=1, num=512),
            perturbed_sphere(1.0, 0.25, mode=3, dim=2, num=512),
        ],
        ids=["circle", "ellipse", "spheroid", "pert1", "pert2"],
    )
    def test_minkowski_consistency(self, graph):
        geo = compute_geometry(graph)
        for m in range(1, graph.dim + 1):
            a = quermass_sigma(geo, m)
            b = quermass_minkowski(geo, m)
            assert abs(a - b) / abs(a) < 1e-6

    def test_homogeneity(self):
        g = ellipse(2.0, 1.0, 256)
        s = 1.7
        geo = compute_geometry(g)
        geo_s = compute_geometry(g.scaled(s))
        n = 1
        assert quermass_minkowski(geo_s, 0) == pytest.approx(
            s ** (n + 1) * quermass_minkowski(geo, 0), rel=1e-10
        )
        assert quermass_sigma(geo_s, 1) == pytest.approx(
            s**n * quermass_sigma(geo, 1), rel=1e-10
        )

    def test_translation_insensitivity(self):
        centered = compute_geometry(ellipse(2.0, 1.0, 512))
        shifted = compute_geometry(ellipse(2.0, 1.0, 512, center=(0.06, -0.08)))
        for m in range(0, 2):
            a = quermass_minkowski(centered, m)
            b = quermass_minkowski(shifted, m)
            assert abs(a - b) / abs(a) < 1e-6
        a = quermass_sigma(centered, 1)
        b = quermass_sigma(shifted, 1)
        assert abs(a - b) / abs(a) < 1e-6


class TestIsoRatio:
    def test_circle_value(self):
        geo = compute_geometry(sphere(1.0, 1, 256))
        assert iso_ratio(geo, 0) == pytest.approx(1 / sqrt(2 * pi), rel=1e-12)

    def test_sphere_value(self):
        geo = compute_geometry(sphere(1.0, 2, 512))
        assert iso_ratio(geo, 1) == pytest.approx(1 / sqrt(2 * pi), rel=1e-10)

    def test_scale_invariance(self):
        vals = []
        for radius in (0.5, 1.0, 3.0):
            geo = compute_geometry(sphere(radius, 1, 128))
            vals.append(iso_ratio(geo, 0))
        assert max(vals) - min(vals) < 1e-12

    def test_rejects_top_index(self):
        geo = compute_geometry(sphere(1.0, 1, 64))
        with pytest.raises(ValueError):
            iso_ratio(geo, 1)
        with pytest.raises(ValueError):
            iso_ratio_ball(2, 2)

    def test_ball_closed_forms(self):
        assert iso_ratio_ball(1, 0) == pytest.approx(1 / sqrt(2 * pi), rel=1e-15)
        assert iso_ratio_ball(2, 1) == pytest.approx(1 / sqrt(2 * pi), rel=1e-15)
        assert iso_ratio_ball(2, 0) == pytest.approx(
            (4 * pi) ** (1 / 3) / (8 * pi) ** 0.5, rel=1e-15
        )

    def test_ball_matches_fine_sphere_grid(self):
        for n, ks in ((1, (0,)), (2, (0, 1))):
            geo = compute_geometry(sphere(1.0, n, 512))
            for k in ks:
                assert iso_ratio(geo, k) == pytest.approx(iso_ratio_ball(n, k), rel=1e-10)


class TestDeficitLaw:
    """Near the ball, r = 1 + eps Y_l has the relative deficit 1 - I_0 / I_0(ball)
    = (l-1)(l+n)/(2n) <Y_l^2> eps^2 + O(eps^3), with <.> the mean over the sphere
    (Fuglede, Trans. AMS 314, 1989)."""

    EPS = (1e-2, 5e-3, 2.5e-3)

    @pytest.mark.parametrize("n, l, limit", [(1, 2, 3 / 4), (1, 3, 2.0), (2, 2, 1 / 5)],
                             ids=["n1_l2", "n1_l3", "n2_l2"])
    def test_eps_squared_coefficient(self, n, l, limit):
        num = 256
        ball = sphere(1.0, n, num)
        # I_0 of the ball on the same grid: the N=256 dim-2 sphere's own deficit,
        # 2.1e-11, would be 3.4e-6 of the quotient at eps = 2.5e-3
        i_ball = iso_ratio(compute_geometry(ball), 0)
        x = ball.param
        y = np.cos(l * x) if n == 1 else (3.0 * np.cos(x) ** 2 - 1.0) / 2.0  # P_2(cos phi)
        quot = [(1.0 - iso_ratio(compute_geometry(RadialGraph(n, 1.0 + eps * y)), 0) / i_ball)
                / eps**2 for eps in self.EPS]
        # the quotient tends to the limit as eps halves ...
        gaps = [abs(q - limit) for q in quot]
        assert gaps[0] > gaps[1] > gaps[2]
        # ... and its fit c + b eps + a eps^2 through the three eps recovers it
        fitted = np.polyfit(self.EPS, quot, 2)[-1]
        assert abs(fitted - limit) <= 1e-6 * limit


class TestConvexityRoundness:
    def test_sphere_strict(self):
        for n in (1, 2):
            geo = compute_geometry(sphere(1.0, n, 64))
            assert kconvex_report(geo, n).status == "strict"

    def test_ellipse_strictly_one_convex(self):
        geo = compute_geometry(ellipse(2.0, 1.0, 256))
        rep = kconvex_report(geo, 1)
        assert rep.status == "strict"
        assert rep.min_sigma[0] == pytest.approx(0.25, rel=1e-8)  # b/a^2

    @pytest.mark.parametrize("lam, k, status", [
        ((1.0, 1.0), 2, "strict"),
        ((2.0, -1.0), 1, "strict"),
        ((1.0, 0.0), 2, "nonstrict"),  # sigma_2 = 0: the closure, not the open cone
        ((1.0, -1e-12), 2, "nonstrict"),
        ((100.0, -1e-9), 2, "nonstrict"),  # sigma_2 = -1e-7, inside the floor -1e-10 * 100^2
        ((1.0, -1e-9), 2, "violated"),  # sigma_2 = -1e-9 is below the floor -1e-10 at scale 1
        ((1.0, -0.1), 2, "violated"),
        ((0.0, 0.0), 1, "nonstrict"),
        ((-1.0, 0.5), 1, "violated"),
    ])
    def test_cone_status_shared_by_report_and_in_gamma_k(self, lam, k, status):
        # a dim-2 geometry whose every node carries the curvature vector lam
        geo = compute_geometry(sphere(1.0, 2, 16))
        kappa = np.tile(lam, (geo.r.size, 1))
        geo = dataclasses.replace(geo, kappa=kappa, sigma=elem_sym_table(kappa))
        assert kconvex_report(geo, k).status == status
        assert in_gamma_k(lam, k, strict=True) == (status == "strict")
        assert in_gamma_k(lam, k, strict=False) == (status != "violated")

    def test_dumbbell_violated(self):
        geo = compute_geometry(perturbed_sphere(1.0, 0.45, mode=2, dim=1, num=256))
        assert kconvex_report(geo, 1).status == "violated"

    def test_roundness_values(self):
        assert roundness(sphere(3.0, 1, 64)) == 0.0
        g = perturbed_sphere(1.0, 0.2, mode=3, dim=1, num=256)
        assert roundness(g) == pytest.approx(0.4, abs=1e-12)
        mean = ellipse_mean_radius(2.0, 1.0)
        assert roundness(ellipse(2.0, 1.0, 4096)) == pytest.approx(1.0 / mean, rel=1e-6)


class TestRefine:
    def test_sphere_unchanged(self):
        fine = refine(sphere(2.0, 1, 32), 2)
        assert fine.r.size == 64
        assert np.max(np.abs(fine.r - 2.0)) < 1e-13

    def test_composition(self):
        g = ellipse(2.0, 1.0, 64)
        a = refine(refine(g, 2), 2)
        b = refine(g, 4)
        assert np.max(np.abs(a.r - b.r)) < 1e-12

    def test_dim2_matches_fine_sampling(self):
        g = refine(ellipsoid_of_revolution(1.5, 1.0, 64), 4)
        ref = ellipsoid_of_revolution(1.5, 1.0, 256)
        assert np.max(np.abs(g.r - ref.r)) < 1e-9

    def test_quermass_order_at_least_four(self):
        ref = quermass_sigma(compute_geometry(ellipse(2.0, 1.0, 4096)), 1)
        errs = []
        for num in (64, 128, 256):
            v = quermass_sigma(compute_geometry(ellipse(2.0, 1.0, num)), 1)
            errs.append(abs(v - ref))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] / errs[2] > 12.0

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            refine(sphere(1.0, 1, 32), 1)
        # int() overflows on inf and names no argument on NaN
        for bad in (float("inf"), float("-inf"), float("nan"), 2.5):
            with pytest.raises(ValueError, match="refinement factor"):
                refine(sphere(1.0, 1, 32), bad)


class TestSnapshotExport:
    def test_makes_the_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "snap.csv"
        export_snapshot(compute_geometry(sphere(1.0, 1, 32)), 1, path)
        assert len(path.read_text().splitlines()) == 1 + 32

    def test_roundtrip(self, tmp_path):
        geo = compute_geometry(ellipsoid_of_revolution(1.5, 1.0, 32))
        path = tmp_path / "snap.csv"
        export_snapshot(geo, 1, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_coordinate", "r", "kappa_1", "kappa_2", "u", "sigma_k"]
        assert len(rows) == 1 + 33
        assert all(len(row) == 6 for row in rows)
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(got[:, 1], geo.r)
        assert np.array_equal(got[:, 5], geo.sigma[:, 1])

    def test_columns_follow_kappa_for_any_dim(self, tmp_path):
        # a hand-built dim-3 geometry: one kappa column per direction
        geo = compute_geometry(sphere(1.0, 2, 16))
        kappa = np.column_stack([geo.kappa, 2.0 * geo.kappa[:, 0]])
        geo = dataclasses.replace(geo, dim=3, kappa=kappa, sigma=elem_sym_table(kappa))
        path = tmp_path / "snap.csv"
        export_snapshot(geo, 3, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_coordinate", "r", "kappa_1", "kappa_2", "kappa_3", "u", "sigma_k"]
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(got[:, 2:5], kappa)
        assert np.array_equal(got[:, 6], geo.sigma[:, 3])

    def test_dim1_columns(self, tmp_path):
        geo = compute_geometry(sphere(1.0, 1, 32))
        path = tmp_path / "snap.csv"
        export_snapshot(geo, 1, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_coordinate", "r", "kappa_1", "u", "sigma_k"]


class TestGridLayout:
    """The grid kit is the one layout of a radial grid; every reader gets today's
    closed forms bitwise, and the shared arrays cannot be written."""

    @staticmethod
    def closed_form(dim, num):
        if dim == 1:
            return 2.0 * pi * np.arange(num) / num, 2.0 * pi / num
        return pi * np.arange(num + 1) / num, pi / num

    @pytest.mark.parametrize("num", [16, 64, 256])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_graph_and_builders_read_the_closed_forms(self, dim, num):
        x, h = self.closed_form(dim, num)
        g = sphere(1.0, dim, num)
        assert g.param.tobytes() == x.tobytes()
        assert g.h == h
        assert compute_geometry(g).param.tobytes() == x.tobytes()
        single = 1.0 * (1.0 + 0.1 * np.cos(3 * x))
        assert perturbed_sphere(1.0, 0.1, mode=3, dim=dim, num=num).r.tobytes() == single.tobytes()
        if dim == 1:
            ct, st = np.cos(x), np.sin(x)
            qa = ct * ct / (2.0 * 2.0) + st * st / (1.0 * 1.0)
            qb = 2.0 * (0.0 * ct / (2.0 * 2.0) + 0.0 * st / (1.0 * 1.0))
            qc = 0.0 * 0.0 / (2.0 * 2.0) + 0.0 * 0.0 / (1.0 * 1.0) - 1.0
            want = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
            assert ellipse(2.0, 1.0, num).r.tobytes() == want.tobytes()
        else:
            want = 1.5 * 1.0 / np.sqrt(1.0 * 1.0 * np.sin(x) ** 2 + 1.5 * 1.5 * np.cos(x) ** 2)
            assert ellipsoid_of_revolution(1.5, 1.0, num).r.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num", [16, 64, 256])
    def test_radial_from_curve_evaluates_on_the_closed_form(self, monkeypatch, num):
        import starflow.verify as vfy

        seen = []
        spline_eval = vfy._periodic_spline_eval

        def spy(x, y, m2, h, period, t):
            seen.append(np.array(t))
            return spline_eval(x, y, m2, h, period, t)

        monkeypatch.setattr(vfy, "_periodic_spline_eval", spy)
        back = vfy.radial_from_curve(curve_from_radial(ellipse(2.0, 1.0, 64)), num)
        x, h = self.closed_form(1, num)
        assert len(seen) == 1 and seen[0].tobytes() == x.tobytes()
        assert back.param.tobytes() == x.tobytes() and back.h == h

    @pytest.mark.parametrize("copies", [1, 16])
    @pytest.mark.parametrize("dim, size", [(1, 64), (2, 65)])
    def test_kit_arrays_are_read_only(self, dim, size, copies):
        kit = geom._grid_kit(dim, RadialGraph(dim, np.ones(size)).num_intervals, copies)
        arrays = [value for value in vars(kit).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == (4 if dim == 1 else 6)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    def test_shared_param_cannot_leak_between_geometries(self):
        with pytest.raises(ValueError):
            compute_geometry(sphere(1.0, 1, 64)).param[1] = 99.0
        assert compute_geometry(ellipse(2.0, 1.0, 64)).param[1] == 2.0 * pi * 1 / 64


class TestGridGate:
    """The kit of (dim, N) is the one gate of a radial grid: nothing outside DIMS
    or the interval rule reaches the kit cache."""

    @pytest.mark.parametrize("build", [
        lambda: sphere(1.0, 3, 64),
        lambda: perturbed_sphere(1.0, 0.1, 2, 3, 64),
        lambda: perturbed_sphere(1.0, 0.1, None, 0, 64, seed=1),
        lambda: RadialGraph(3, np.ones(65)),
        lambda: geom._grid_kit(3, 64),
        # True in DIMS holds, and True hashes as 1: the typed cache keys it apart
        lambda: sphere(1.0, True, 64),
        lambda: geom._grid_kit(True, 64),
    ], ids=["sphere", "perturbed_sphere", "perturbed_sphere_dim0", "graph", "kit",
            "sphere_bool_dim", "kit_bool_dim"])
    def test_bad_dim_caches_no_kit(self, build):
        before = geom._grid_kit.cache_info().currsize
        with pytest.raises(ShapeError, match="dim"):
            build()
        assert geom._grid_kit.cache_info().currsize == before

    @pytest.mark.parametrize("dim, num", [(1.0, 90), (np.float64(2.0), 94)])
    def test_whole_float_dim_is_rejected_and_spoils_no_kit(self, dim, num):
        # on a grid no other test builds: 1.0 in DIMS held, so a float-dim shape cached a
        # kit with a float dim under the key of the integer's kit, and every later geometry
        # on that grid failed with a TypeError in _curvatures' np.empty((kit.dim + 1, ...))
        before = geom._grid_kit.cache_info().currsize
        with pytest.raises(ShapeError, match="dim must be an integer"):
            sphere(1.0, dim, num)
        assert geom._grid_kit.cache_info().currsize == before
        geo = compute_geometry(perturbed_sphere(1.0, 0.1, 2, int(dim), num))
        assert geo.num_intervals == num and geo.sigma.shape[1] == int(dim) + 1

    @pytest.mark.parametrize("num", [64.0, np.float64(64.0), 63, 8, True])
    def test_bad_num_is_rejected_even_when_its_integer_kit_is_cached(self, num):
        geom._grid_kit(1, 64)
        before = geom._grid_kit.cache_info().currsize
        with pytest.raises(ShapeError) as err:
            geom._grid_kit(1, num)
        assert err.value.field == "num"
        assert geom._grid_kit.cache_info().currsize == before

    @pytest.mark.parametrize("dim, num", [([1], 64), (1, [64])], ids=["dim", "num"])
    def test_unhashable_grid_argument_caches_no_kit(self, dim, num):
        # the cache hashes the arguments before the gate runs: a list is the cache's
        # TypeError, not a ShapeError
        before = geom._grid_kit.cache_info().currsize
        with pytest.raises(TypeError, match="unhashable"):
            sphere(1.0, dim, num)
        assert geom._grid_kit.cache_info().currsize == before

    @pytest.mark.parametrize("dim", [1, 2])
    def test_samples_that_are_not_one_dimensional_are_rejected(self, dim):
        with pytest.raises(ShapeError, match="one-dimensional"):
            RadialGraph(dim, np.ones((64, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_samples_that_are_not_finite_are_rejected(self, bad):
        r = np.ones(64)
        r[5] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            RadialGraph(1, r)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kit_maps_intervals_to_nodes(self, dim):
        kit = geom._grid_kit(dim, 32, 3)
        assert (kit.num, kit.size) == (32, 32 if dim == 1 else 33)
        assert kit.taps.shape == (7, 3 * kit.size)
        g = sphere(1.0, dim, 32)
        assert g.r.size == kit.size and g.num_intervals == 32
        assert compute_geometry(g).num_intervals == 32

    def test_one_dimension_set(self):
        assert geom.DIMS == (1, 2)
        assert geom._SHAPES["sphere"][0] is geom._SHAPES["perturbed_sphere"][0] is geom.DIMS


class TestFractionalLevel:
    """A level or index that is not a whole number is a ValueError naming the
    argument; it passed the range checks and failed later with a slice, comb
    or index error, or was reported as out of range. Every such argument has
    one gate: a bool or None is rejected, a whole float is its integer, and a value
    outside the range is named with the range."""

    @pytest.mark.parametrize("call, name, lo, hi", [
        (lambda geo, path, v: kconvex_report(geo, v), "convexity level k", 1, 2),
        (lambda geo, path, v: check_af_chain(geo, v), "convexity level k", 1, 2),
        (lambda geo, path, v: unit_ball_quermass(2, v), "index m", 0, 2),
        (lambda geo, path, v: (export_snapshot(geo, v, path), path.read_bytes()),
         "snapshot sigma level k", 1, 2),
        (lambda geo, path, v: quermass(geo, v), "quermass index m", 0, 2),
        (lambda geo, path, v: quermass_sigma(geo, v), "sigma-form index m", 1, 2),
        (lambda geo, path, v: quermass_minkowski(geo, v), "Minkowski-form index m", 0, 2),
        (lambda geo, path, v: iso_ratio(geo, v), "iso ratio index k", 0, 1),
        (lambda geo, path, v: iso_ratio_ball(2, v), "iso ratio index k", 0, 1),
        (lambda geo, path, v: check_first_variation(sphere(1.0, 2, 32), np.ones(33), v),
         "sigma index l", 0, 2),
        (lambda geo, path, v: check_prop1_pointwise(curve_from_radial(sphere(1.0, 1, 64)), v,
                                                    1e-4), "flow degree k", 1, 1),
        (lambda geo, path, v: cnk(2, v), "k", 1, 2),
        (lambda geo, path, v: elem_sym([1.0, 2.0], v), "degree m", 0, None),
        (lambda geo, path, v: refine(sphere(1.0, 1, 32), v).r, "refinement factor", 2, None),
    ], ids=["kconvex_report", "check_af_chain", "unit_ball_quermass", "export_snapshot",
            "quermass", "quermass_sigma", "quermass_minkowski", "iso_ratio", "iso_ratio_ball",
            "check_first_variation", "check_prop1_pointwise", "cnk", "elem_sym", "refine"])
    def test_names_the_argument(self, call, name, lo, hi, tmp_path):
        geo = compute_geometry(sphere(1.0, 2, 32))
        path = tmp_path / "snap.csv"
        # the integer's result first, so that a cached entry is there for a bool to find
        want = pickle.dumps(call(geo, path, lo))
        path.unlink(missing_ok=True)
        span = f"{lo}..{'' if hi is None else hi}"
        bad = [(lo + 0.5, f" must be an integer, got {lo + 0.5}"),
               (True, " must be an integer, got True"),
               (None, " must be an integer, got None"),
               (lo - 1, f"={lo - 1} out of range {span}")]
        if hi is not None:
            bad.append((hi + 1, f"={hi + 1} out of range {span}"))
        for value, tail in bad:
            with pytest.raises(ValueError, match=f"^{re.escape(name + tail)}$"):
                call(geo, path, value)
        assert not path.exists()
        # a whole float is its integer: bitwise the same result
        assert pickle.dumps(call(geo, path, float(lo))) == want


class TestWriteCsv:
    def test_text_as_is_numbers_as_float_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        geom._write_csv(path, ("name", "py", "np64", "int"),
                        [["a, b", 0.1, np.float64(1.0) / 3.0, 3], ["", 1e-300, np.float64(-2.5), -7]])
        assert path.read_bytes() == (b"name,py,np64,int\r\n"
                                     b'"a, b",0.1,0.3333333333333333,3.0\r\n'
                                     b",1e-300,-2.5,-7.0\r\n")
