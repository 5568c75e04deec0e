"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line. The long flow runs are shared through module-scoped fixtures.
"""

import time
from math import e, pi, sqrt

import numpy as np
import pytest

from starflow import cli
from starflow.flow import FlowConfig, rescale_state, run
from starflow.geometry import (
    compute_geometry,
    ellipse,
    ellipsoid_of_revolution,
    iso_ratio_ball,
    kconvex_report,
    perturbed_sphere,
    quermass_minkowski,
    quermass_sigma,
    sphere,
)
from starflow.verify import (
    check_af_chain,
    check_first_variation,
    check_lemma_integral,
    check_monotone_series,
    check_prop1_pointwise,
    curve_from_radial,
)

BALL_RATIO = 1.0 / sqrt(2.0 * pi)


def announce(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_01_sphere_exact_solution():
    # An exact sphere stays node-for-node uniform (identical floating-point
    # work per node); the step is capped at 0.3 of the stepper's real-axis
    # stability interval over the row-sum bound of the stage map's exact
    # linearization, which on the circle is the spectral radius itself.
    config = FlowConfig(n=1, k=1, mode="raw", t_max=1.0, dt_init=1e-3,
                        cfl_coefficient=0.3, sample_every=100)
    start = time.perf_counter()
    record = run(config, sphere(1.0, 1, 256))
    elapsed = time.perf_counter() - start
    mean_r = float(np.mean(record.final_state.graph.r))
    rel = abs(mean_r - e) / e
    worst_round = float(np.max(record.column("roundness_rescaled")))
    assert rel < 1e-6
    assert worst_round < 1e-12
    assert elapsed < 5.0
    announce(1, f"mean radius rel err {rel:.2e}, roundness <= {worst_round:.2e}, "
                f"{elapsed:.2f}s")


def test_02_normalized_flow_fixed_point():
    config = FlowConfig(n=2, k=1, mode="normalized", t_max=1.0, dt_init=1e-3,
                        sample_every=10)
    drift = {"sup": 0.0}

    def observer(state):
        drift["sup"] = max(drift["sup"], float(np.max(np.abs(state.graph.r - 1.0))))

    record = run(config, sphere(1.0, 2, 128), observer=observer)
    rates = record.column("r_t")
    assert drift["sup"] < 1e-8
    assert np.max(np.abs(rates - 0.5)) < 1e-10
    announce(2, f"sup drift {drift['sup']:.2e}, r(t) within "
                f"{np.max(np.abs(rates - 0.5)):.2e} of 1/2")


def test_03_minkowski_cross_check():
    shapes = [
        sphere(1.0, 1, 512),
        sphere(1.0, 2, 512),
        ellipse(2.0, 1.0, 512),
        ellipsoid_of_revolution(1.5, 1.0, 512),
        perturbed_sphere(1.0, 0.3, mode=2, dim=1, num=512),
        perturbed_sphere(1.0, 0.3, mode=3, dim=1, num=512),
        perturbed_sphere(1.0, 0.25, mode=3, dim=2, num=512),
        perturbed_sphere(1.0, 0.3, dim=1, num=512, seed=7),
        perturbed_sphere(1.0, 0.2, dim=2, num=512, seed=8),
    ]
    worst = 0.0
    for graph in shapes:
        geo = compute_geometry(graph)
        for m in range(1, graph.dim + 1):
            a = quermass_sigma(geo, m)
            b = quermass_minkowski(geo, m)
            worst = max(worst, abs(a - b) / abs(a))
    assert worst < 1e-6
    announce(3, f"worst relative difference {worst:.2e} over {len(shapes)} shapes")


def test_04_lemma_rate_identity():
    worst_rate = 0.0
    worst_topo = 0.0
    fc1 = FlowConfig(n=1, k=1, mode="raw", t_max=0.1, dt_init=1e-3)
    fc2 = FlowConfig(n=2, k=1, mode="raw", t_max=0.1, dt_init=1e-3)
    for fc, g in ((fc1, ellipse(2.0, 1.0, 256)), (fc2, ellipsoid_of_revolution(1.5, 1.0, 256))):
        reports = check_lemma_integral(fc, g)
        assert all(r.passed for r in reports), reports
        for rep in reports:
            if rep.name.startswith("lemma/rate_"):
                assert rep.tolerance == 1e-3, rep
                worst_rate = max(worst_rate, rep.rel_residual)
            else:
                assert rep.tolerance == 1e-6, rep
                worst_topo = max(worst_topo, rep.abs_residual)
    announce(4, f"worst rate residual {worst_rate:.2e} (tol 1e-3), "
                f"worst 2pi/4pi deviation {worst_topo:.2e} (tol 1e-6)")


def test_05_prop1_pointwise():
    circle = curve_from_radial(sphere(1.0, 1, 128))
    circle_reports = check_prop1_pointwise(circle, 1, 7e-5, tol=1e-8)
    assert all(r.rel_residual < 1e-8 for r in circle_reports), circle_reports
    assert all(r.abs_residual < 1e-8 for r in circle_reports), circle_reports
    coarse = check_prop1_pointwise(curve_from_radial(ellipse(2, 1, 128)), 1, 4e-4)
    fine = check_prop1_pointwise(curve_from_radial(ellipse(2, 1, 256)), 1, 2e-4)
    ratios = [rc.rel_residual / rf.rel_residual for rc, rf in zip(coarse, fine)]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios
    announce(5, f"circle worst {max(r.rel_residual for r in circle_reports):.2e}, "
                f"Richardson ratios {['%.2f' % r for r in ratios]}")


@pytest.fixture(scope="module")
def ellipse_monotone_record():
    config = FlowConfig(n=1, k=1, mode="rescaled_raw", t_max=2.0, dt_init=1e-3,
                        sample_every=20)
    start = time.perf_counter()
    record = run(config, ellipse(2.0, 1.0, 128))
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def spheroid_monotone_record():
    config = FlowConfig(n=2, k=1, mode="rescaled_raw", t_max=3.0, dt_init=1e-3,
                        sample_every=20)
    start = time.perf_counter()
    record = run(config, ellipsoid_of_revolution(1.5, 1.0, 128))
    return record, time.perf_counter() - start


def test_06_monotonicity(ellipse_monotone_record, spheroid_monotone_record):
    summary = []
    for (record, elapsed), label in ((ellipse_monotone_record, "ellipse I0"),
                                     (spheroid_monotone_record, "spheroid I1")):
        mono, cons, term = check_monotone_series(record)
        assert (mono.tolerance, cons.tolerance, term.tolerance) == (1e-10, 1e-6, 1e-4)
        assert mono.passed, (label, mono)
        assert cons.passed, (label, cons)
        assert term.passed, (label, term)
        assert abs(term.lhs - BALL_RATIO) < 1e-4
        assert elapsed < 60.0, (label, elapsed)
        summary.append((label, term.lhs, cons.rel_residual, elapsed))
    announce(6, "; ".join(f"{lab}: terminal {val:.7f} (ball {BALL_RATIO:.7f}), "
                          f"drift rate {dr:.1e}, {el:.0f}s"
                          for lab, val, dr, el in summary))


def test_07_gauge_equivalence():
    g = perturbed_sphere(1.0, 0.1, mode=2, dim=2, num=128)
    fc_norm = FlowConfig(n=2, k=1, mode="normalized", t_max=1.0, dt_init=1e-3,
                         sample_every=1000)
    fc_raw = FlowConfig(n=2, k=1, mode="raw", t_max=1.0, dt_init=1e-3,
                        sample_every=1000)
    r_norm = run(fc_norm, g).final_state.graph.r
    r_resc = rescale_state(run(fc_raw, g).final_state).r
    sup = float(np.max(np.abs(r_norm - r_resc)))
    assert sup < 1e-6
    announce(7, f"normalized vs rescaled raw sup difference {sup:.2e} at t=1")


def _strictly_kconvex_sample(rng, n, k, num):
    for _ in range(200):
        eps = float(rng.uniform(0.02, 0.3))
        mode = int(rng.integers(2, 5))
        g = perturbed_sphere(1.0, eps, mode=mode, dim=n, num=num)
        geo = compute_geometry(g)
        if kconvex_report(geo, k).strict:
            return geo
    raise RuntimeError("sampler failed to find a strictly k-convex shape")


def test_08_af_chain():
    rng = np.random.default_rng(20260808)
    worst_gap = -np.inf
    for n, k in ((1, 1), (2, 1), (2, 2)):
        for _ in range(100):
            geo = _strictly_kconvex_sample(rng, n, k, 256)
            for rep in check_af_chain(geo, k):
                assert rep.passed and rep.tolerance == 1e-6, (n, k, rep)
                worst_gap = max(worst_gap, rep.abs_residual)
    eq_worst = 0.0
    for n, num in ((1, 256), (2, 512)):
        geo = compute_geometry(sphere(1.0, n, num))
        for rep in check_af_chain(geo, n):
            eq_worst = max(eq_worst, abs(rep.lhs - rep.rhs))
    assert eq_worst < 1e-10
    announce(8, f"300 random samples, worst signed gap {worst_gap:.2e} (<= 1e-6); "
                f"sphere equality within {eq_worst:.2e}")


def test_09_symmetric_function_suite():
    start = time.perf_counter()
    reports = cli.suite_symfunc({"verify": {"samples": 100_000, "seed": 1}})
    elapsed = time.perf_counter() - start
    for rep in reports:
        assert rep.passed, rep
        assert rep.tolerance <= 1e-12
    assert elapsed < 10.0
    announce(9, f"{len(reports)} identity families on 1e5 vectors in {elapsed:.1f}s")


def test_10_first_variation():
    reports = [
        check_first_variation(sphere(1.0, 1, 256), lambda t: np.ones_like(t), 0),
        check_first_variation(sphere(1.0, 2, 256), lambda t: np.ones_like(t), 1),
        check_first_variation(ellipse(2.0, 1.0, 512), lambda t: np.cos(2 * t), 0),
    ]
    for rep in reports:
        assert rep.rel_residual < 1e-3, rep
    announce(10, f"residuals {['%.1e' % r.rel_residual for r in reports]} (tol 1e-3)")
