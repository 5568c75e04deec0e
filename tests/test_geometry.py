import csv
import dataclasses
from math import pi, sqrt

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
)
from starflow.symfunc import elem_sym_table, in_gamma_k
from starflow.verify import _curve_geometry, _meridian_geometry, curve_from_radial
from _oracles import (
    curvatures_rowmajor,
    curve_curvature_fd2,
    ellipse_mean_radius,
    ellipse_perimeter,
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

    def test_perturbed_mode_must_be_whole(self):
        # a fractional mode leaves a kink where the angle wraps (dim 1) or at phi = pi
        for dim in (1, 2):
            with pytest.raises(ShapeError, match="whole number"):
                perturbed_sphere(1.0, 0.1, mode=2.5, dim=dim, num=64)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ShapeError, match="whole number"):
                perturbed_sphere(1.0, 0.1, mode=bad, num=64)
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


class TestSnapshotExport:
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
