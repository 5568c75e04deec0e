"""Independent checks of the pointwise and integral evolution identities.

The pointwise identities and the first-variation formula are tested on
Lagrangian representations, where the motion is purely normal: a
material plane curve for dim 1, the material meridian of an
axisymmetric surface for dim 2. Both share one discretization: spatial
derivatives are spectral in the material parameter of a closed curve
(exact on circles, so the circle residuals isolate the O(dt^2) time
error), and a meridian is the closed loop it makes with its mirror
image in the axis; `_material_geometry` picks the curve or the meridian
from the grid family. One helper, `_spectral_derivatives`, gives the first
and second derivative of every column of an array from one rfft, so a
curve's geometry takes one forward transform for both coordinates; on
the meridian, scalar fields are differentiated through their even
extension about both poles. Above this both dimensions share one speed
sigma_{k-1}/sigma_k, one substepped RK4 evolver and one worst-node
report. Time derivatives come from centered differences of a short
forward evolution window. The integral rate identities, the
quermassintegral inequality chain and trajectory monotonicity are
checked on the radial pipeline directly.

Each report carries the one tolerance its check judges it by, written at
its `_report` call; only the prop1 checks, whose callers vary it, take a
`tol`. `cli`'s `verify.tolerance_overrides` re-judges a report from its
`rel_residual`, which any other caller can compare itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, pi

import numpy as np

from . import flow as flowmod
from .geometry import (
    PointwiseGeometry,
    RadialGraph,
    _CURVE,
    _PROFILE,
    _family,
    _grid_kit,
    _unit_ball,
    _write_csv,
    embed,
    iso_ratio_ball,
    kconvex_report,
    quermass_vector,
    sphere_area,
)
from .symfunc import _gradient_tables, _real, _whole, elem_sym_table, polarized_sigma_square_table

__all__ = [
    "IdentityReport",
    "LagrangianCurve",
    "curve_from_radial",
    "radial_from_curve",
    "check_prop1_pointwise",
    "check_prop1_axisym",
    "check_lemma_integral",
    "check_first_variation",
    "check_af_chain",
    "check_monotone_series",
    "write_report_csv",
]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    grid: str
    tolerance: float
    passed: bool

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag}  {self.name}: |residual| = {self.rel_residual:.3e} "
            f"(tol {self.tolerance:.1e}, grid {self.grid})"
        )


def _report(name, lhs, rhs, abs_res, rel_res, grid, tol) -> IdentityReport:
    return IdentityReport(
        name=name, lhs=float(lhs), rhs=float(rhs),
        abs_residual=float(abs_res), rel_residual=float(rel_res),
        grid=grid, tolerance=float(tol), passed=bool(rel_res <= tol),
    )


def _worst(name, lhs, rhs, resid, scale, grid, tol) -> IdentityReport:
    """The report at the largest entry of resid, relative to scale."""
    j = int(np.argmax(resid))
    return _report(name, lhs[j], rhs[j], resid[j], resid[j] / scale, grid, tol)


def write_report_csv(reports, path) -> None:
    """Machine-readable verification report."""
    _write_csv(path, ["check", "lhs", "rhs", "abs_residual", "rel_residual", "tolerance", "pass"],
               ([rep.name, rep.lhs, rep.rhs, rep.abs_residual, rep.rel_residual, rep.tolerance,
                 str(rep.passed)] for rep in reports))


# ---------------------------------------------------------------------------
# Lagrangian plane curves (dim 1)


@dataclass(frozen=True)
class LagrangianCurve:
    """Closed material curve: (M, 2) points, positively oriented."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16:
            raise ValueError("curve needs an (M, 2) array with M >= 16")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve points contain non-finite values")
        x, y = pts[:, 0], pts[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 <= 0.0:
            raise ValueError("curve must be positively oriented (counterclockwise)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def curve_from_radial(g: RadialGraph) -> LagrangianCurve:
    if g.dim != 1:
        raise ValueError("curve_from_radial needs a dim-1 radial graph")
    return LagrangianCurve(embed(g))


def _periodic_spline_coeffs(x: np.ndarray, y: np.ndarray, period: float):
    # second derivatives of the periodic cubic spline; dense cyclic solve
    m = x.size
    h = np.diff(np.append(x, x[0] + period))
    yy = np.append(y, y[0])
    i = np.arange(m)
    hm = h[i - 1]
    a = np.zeros((m, m))
    a[i, (i - 1) % m] = hm / 6.0
    a[i, i] = (hm + h) / 3.0
    a[i, (i + 1) % m] = h / 6.0
    rhs = (yy[1:] - y) / h - (y - y[i - 1]) / hm
    return np.linalg.solve(a, rhs), h


def _periodic_spline_eval(x, y, m2, h, period, t):
    t = np.mod(t - x[0], period) + x[0]
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 1)
    x0 = x[idx]
    hi = h[idx]
    y0 = y[idx]
    y1 = np.append(y, y[0])[idx + 1]
    m0 = m2[idx]
    m1 = np.append(m2, m2[0])[idx + 1]
    dl = t - x0
    dr = x0 + hi - t
    return (
        m0 * dr**3 / (6.0 * hi)
        + m1 * dl**3 / (6.0 * hi)
        + (y0 / hi - m0 * hi / 6.0) * dr
        + (y1 / hi - m1 * hi / 6.0) * dl
    )


def radial_from_curve(curve: LagrangianCurve, num: int) -> RadialGraph:
    """Resample a starshaped curve onto the uniform angular grid by
    periodic cubic spline interpolation of radius over polar angle."""
    theta = _grid_kit(1, num).param
    pts = curve.points
    alpha = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    if np.any(np.diff(alpha) <= 0.0):
        raise ValueError("curve is not strictly starshaped about the origin")
    rho = np.hypot(pts[:, 0], pts[:, 1])
    m2, h = _periodic_spline_coeffs(alpha, rho, 2.0 * pi)
    r = _periodic_spline_eval(alpha, rho, m2, h, 2.0 * pi, theta)
    return RadialGraph(1, r)


@dataclass(frozen=True)
class _CurveGeo:
    g11: np.ndarray
    sqrtg: np.ndarray
    nu: np.ndarray
    h11: np.ndarray
    kappa: np.ndarray
    dmu: np.ndarray  # arc length per node, sqrtg * delta


def _spectral_derivatives(f: np.ndarray) -> tuple:
    """First and second spectral derivatives on the 2pi-periodic material grid,
    along axis 0 of an (m,) or (m, c) array, from one rfft of every column."""
    m = f.shape[0]
    spec = np.fft.rfft(f, axis=0)
    ell = np.arange(spec.shape[0]).reshape((-1,) + (1,) * (f.ndim - 1))
    d1 = spec * (1j * ell)
    if m % 2 == 0:
        d1[-1] = 0.0  # symmetric choice for the Nyquist mode
    return np.fft.irfft(d1, m, axis=0), np.fft.irfft(spec * -(ell * ell), m, axis=0)


def _curve_geometry(pts: np.ndarray) -> _CurveGeo:
    m = pts.shape[0]
    delta = 2.0 * pi / m
    d1, d2 = _spectral_derivatives(pts)
    g11 = d1[:, 0] ** 2 + d1[:, 1] ** 2
    sqrtg = np.sqrt(g11)
    nu = np.stack([d1[:, 1], -d1[:, 0]], axis=1) / sqrtg[:, None]
    h11 = -(d2[:, 0] * nu[:, 0] + d2[:, 1] * nu[:, 1])
    return _CurveGeo(g11, sqrtg, nu, h11, h11 / g11, sqrtg * delta)


# ---------------------------------------------------------------------------
# axisymmetric meridians (dim 2)


@dataclass(frozen=True)
class _MeridianGeo:
    ga: np.ndarray  # metric along the meridian
    gth: np.ndarray  # metric along parallels, rho^2
    wa: np.ndarray
    nu: np.ndarray
    h_mer: np.ndarray
    h_par: np.ndarray
    kappa: np.ndarray  # (M, 2) meridian, parallel
    dmu: np.ndarray  # Simpson-weighted measure


def _meridian_geometry(pts: np.ndarray) -> _MeridianGeo:
    """Geometry of an axisymmetric surface from its material meridian.

    pts holds (rho, z) with the first and last points on the axis. The
    meridian, written as (z, rho), and its mirror image in the axis close
    into one positively oriented loop of 2(M - 1) points, whose curve
    geometry gives the metric, normal and meridian curvature. The parallel
    curvature is nu_rho / rho, at the poles its smooth limit, the meridian
    value.
    """
    m = pts.shape[0]
    loop = _PROFILE.extension(pts[:, ::-1])
    loop[m:, 1] *= -1.0
    cg = _curve_geometry(loop)
    rho = pts[:, 0]
    nu = cg.nu[:m, ::-1]
    k_mer = cg.kappa[:m]
    k_par = k_mer.copy()
    k_par[1:-1] = nu[1:-1, 0] / rho[1:-1]
    # dmu: the trapezoid rule of the loop is second order here, as 2 pi rho wa is odd
    # about the poles; the profile grid's kit holds its Simpson weights
    return _MeridianGeo(
        ga=cg.g11[:m], gth=rho * rho, wa=cg.sqrtg[:m], nu=nu, h_mer=cg.h11[:m],
        h_par=k_par * rho * rho, kappa=np.stack([k_mer, k_par], axis=1),
        dmu=2.0 * pi * rho * cg.sqrtg[:m] * _grid_kit(_PROFILE.dim, m - 1).quadrature,
    )


def _even_derivatives(f: np.ndarray) -> tuple:
    """First and second spectral derivatives, on the meridian's nodes, of columns
    even about both poles."""
    m = f.shape[0]
    d1, d2 = _spectral_derivatives(_PROFILE.extension(f))
    return d1[:m], d2[:m]


# ---------------------------------------------------------------------------
# material normal motion, either dimension

# RK4 substep as a fraction of the explicit diffusive limit of the spectral
# curve derivatives
_SUBSTEP = 0.2


def _material_geometry(pts: np.ndarray, family):
    """The geometry of material points of a grid family: a closed curve on a
    periodic grid, a meridian between two poles on a grid with ends."""
    return _meridian_geometry(pts) if family.ends else _curve_geometry(pts)


def _material_speed(geo, k: int):
    """(sigma_{k-1}/sigma_k, sigma table) of a material curve or meridian, for 1 <= k <= dim."""
    sig = elem_sym_table(geo.kappa.reshape(len(geo.nu), -1))  # a curve keeps kappa 1-D
    if np.min(sig[:, k]) <= 0.0:
        j = int(np.argmin(sig[:, k]))
        raise ValueError(f"not strictly {k}-convex: sigma_{k} = {sig[j, k]:.3e} at node {j}")
    return sig[:, k - 1] / sig[:, k], sig


def _rk4(rhs, pts: np.ndarray, t_total: float, dt_sub: float) -> np.ndarray:
    """Advance dX/dt = rhs(X) over t_total in equal RK4 steps of at most dt_sub."""
    steps = max(1, ceil(t_total / dt_sub))
    dt = t_total / steps
    for _ in range(steps):
        k1 = rhs(pts)
        k2 = rhs(pts + 0.5 * dt * k1)
        k3 = rhs(pts + 0.5 * dt * k2)
        k4 = rhs(pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return pts


def _evolve(pts: np.ndarray, t_total: float, k: int, family) -> np.ndarray:
    """Material normal motion dX/dt = F nu of the material points of a grid
    family, a closed curve or a meridian, by substepped RK4, the substep set
    by the shortest chord and a bound on the diffusivity of F = sigma_{k-1}/sigma_k."""
    geo = _material_geometry(pts, family)
    _, sig = _material_speed(geo, k)
    ends = pts if family.ends else np.concatenate([pts, pts[:1]])  # a curve closes
    chords = np.linalg.norm(np.diff(ends, axis=0), axis=1)
    gk = 1.0 if k == 1 else np.max(np.abs(geo.kappa), axis=1)
    lead = 0.0 if k == 1 else sig[:, k]
    diff = float(np.max((lead + sig[:, k - 1] * gk) / sig[:, k] ** 2))
    dt_sub = _SUBSTEP * float(np.min(chords)) ** 2 / diff

    def rhs(p):
        geo = _material_geometry(p, family)
        return _material_speed(geo, k)[0][:, None] * geo.nu

    return _rk4(rhs, pts, t_total, dt_sub)


def _window(p0: np.ndarray, k, dt, family):
    """(k, dt, [p0, p1, p2]): k and dt through their gates, and the material
    points of the grid family at t = 0, dt, 2*dt under the degree-k motion."""
    k, dt = _whole(k, "flow degree k", 1, family.dim), _real(dt, "dt", 0.0)
    p1 = _evolve(p0, dt, k, family)
    return k, dt, [p0, p1, _evolve(p1, dt, k, family)]


def _identity_reports(prefix, pairs, dt, grid, tol, sl=slice(None)) -> list:
    """One worst-node report per identity: the centered difference of its
    series over [0, 2*dt] against its right side, on the nodes `sl`."""
    reports = []
    for name, (series, rhs) in pairs.items():
        lhs = ((series[2] - series[0]) / (2.0 * dt))[sl]
        rhs = rhs[sl]
        scale = float(np.max(np.abs(rhs))) or 1.0
        reports.append(_worst(f"{prefix}/{name}", lhs, rhs, np.abs(lhs - rhs), scale, grid, tol))
    return reports


# ---------------------------------------------------------------------------
# pointwise evolution identities


def check_prop1_pointwise(curve: LagrangianCurve, k: int, dt: float, tol: float = 1e-3):
    """Pointwise evolution identities on a material plane curve.

    Evolves the curve at normal speed 1/kappa over a window [0, 2*dt],
    centered-differences the tracked metric, area element, second
    fundamental form, Weingarten map and sigma_1 at fixed material index,
    and compares with the stated right-hand sides at the window center.
    Residuals are O(dt^2) plus a spectrally small space error, and vanish
    to rounding on circles up to the time truncation. Returns one report
    per identity.
    """
    k, dt, pts = _window(curve.points, k, dt, _CURVE)
    geos = [_curve_geometry(p) for p in pts]
    mid = geos[1]
    f, _ = _material_speed(mid, k)
    f1, f2 = _spectral_derivatives(f)
    dg11, dflux = _spectral_derivatives(np.stack([mid.g11, f1 / mid.sqrtg], axis=1))[0].T
    gamma = dg11 / (2.0 * mid.g11)
    hess = f2 - gamma * f1
    lap = dflux / mid.sqrtg
    pairs = {  # sigma_1 = kappa for curves
        "g11": ([g.g11 for g in geos], 2.0 * f * mid.h11),
        "area_element": ([g.sqrtg for g in geos], f * mid.kappa * mid.sqrtg),
        "h11": ([g.h11 for g in geos], -hess + f * mid.h11**2 / mid.g11),
        "weingarten": ([g.kappa for g in geos], -hess / mid.g11 - f * mid.kappa**2),
        "sigma1": ([g.kappa for g in geos], -lap - f * mid.kappa**2),
    }
    return _identity_reports("prop1", pairs, dt, f"M={curve.size},dt={dt:g}", tol)


def check_prop1_axisym(g: RadialGraph, k: int, dt: float, tol: float = 1e-3):
    """Pointwise evolution identities on a material axisymmetric meridian.

    Same construction as the curve check, in the principal frame of the
    surface of revolution, where the second fundamental form is diagonal.
    The meridian's geometry is the curve geometry of its closed mirror
    loop, and every phi-derivative is spectral, taken on the even
    extension about both poles. The two pole nodes, where the divergence
    terms divide by rho = 0, are excluded from the residual norms.
    """
    if g.dim != 2:
        raise ValueError("check_prop1_axisym needs a dim-2 radial graph")
    k, dt, pts = _window(embed(g), k, dt, _PROFILE)
    geos = [_meridian_geometry(p) for p in pts]
    mid = geos[1]
    f, sig = _material_speed(mid, k)
    f1, f2 = _even_derivatives(f)
    rho = np.sqrt(mid.gth)
    sqrt_det = mid.wa * rho
    flux = rho * f1 / mid.wa
    dga, dgth, dflux0, dflux1 = _even_derivatives(
        np.stack([mid.ga, mid.gth, flux, mid.kappa[:, 1] * flux], axis=1))[0].T
    hess_mer = f2 - dga / (2.0 * mid.ga) * f1
    # Gamma^phi_thth = -gth'/(2 ga), so nabla_th nabla_th F = +gth' F'/(2 ga)
    hess_par = (dgth / (2.0 * mid.ga)) * f1
    # one leave-one-out pass gives the gradients of sigma_1 and sigma_2
    pol1, pol2 = (polarized_sigma_square_table(mid.kappa, mid.kappa * grad.T)
                  for grad in _gradient_tables(mid.kappa))
    with np.errstate(divide="ignore", invalid="ignore"):
        div_t0 = dflux0 / sqrt_det
        div_t1 = dflux1 / sqrt_det
        h_par_sq = mid.h_par**2 / mid.gth
    pairs = {
        "g_meridian": ([g_.ga for g_ in geos], 2.0 * f * mid.h_mer),
        "g_parallel": ([g_.gth for g_ in geos], 2.0 * f * mid.h_par),
        "area_element": ([np.sqrt(g_.gth) * g_.wa for g_ in geos], f * sig[:, 1] * sqrt_det),
        "h_meridian": ([g_.h_mer for g_ in geos], -hess_mer + f * mid.h_mer**2 / mid.ga),
        "h_parallel": ([g_.h_par for g_ in geos], -hess_par + f * h_par_sq),
        "sigma1": ([g_.kappa.sum(axis=1) for g_ in geos], -div_t0 - f * pol1),
        "sigma2": ([g_.kappa.prod(axis=1) for g_ in geos], -div_t1 - f * pol2),
    }
    grid = f"M={pts[0].shape[0]},dt={dt:g}"
    return _identity_reports("prop1_axisym", pairs, dt, grid, tol, slice(1, -1))


# ---------------------------------------------------------------------------
# integral identities along the flow


def check_lemma_integral(config: flowmod.FlowConfig, initial: RadialGraph):
    """Rate identities d/dt int sigma_l dmu = (l+1) int sigma_{l+1}
    sigma_{k-1}/sigma_k dmu for every l = 0..n along one raw-flow
    trajectory.

    Samples both sides of each l densely from a single run,
    differentiates the left side with three-point nonuniform centered
    differences, and reports the worst relative mismatch per l, against
    1e-3. For l = n the right side vanishes identically and the integral
    must sit at its topological value |S^n|, to a relative 1e-6; that pins
    a last report.
    """
    n, k = config.n, config.k
    if flowmod._law(config.mode, n, k).conserving:  # raw is the one mode that holds no V_j
        raise ValueError("lemma rate check requires raw flow mode")
    times, lhs_series, rhs_series = [], [], []
    degrees = np.arange(1, n + 1)

    def observer(state):
        geo = state.geo
        sig = geo.sigma.T  # contiguous rows sigma_0..sigma_n
        times.append(state.t)
        lhs_series.append(sig.dot(geo.dmu))
        rhs_series.append(degrees * (sig[1:] * sig[k - 1] / sig[k]).dot(geo.dmu))

    record = flowmod.run(replace(config, sample_every=1), initial, observer=observer,
                         record_samples=False)
    if len(times) < 3:
        raise ValueError(f"lemma rate check needs at least three samples, got {len(times)} "
                         f"(stop reason {record.stop_reason!r})")
    t = np.array(times)[:, None]
    a = np.array(lhs_series)
    b = np.zeros((len(rhs_series), n + 1))  # the l = n rate vanishes: its column stays 0
    b[:, :n] = np.array(rhs_series)
    tm, t0, tp = t[:-2], t[1:-1], t[2:]
    am, a0, ap = a[:-2], a[1:-1], a[2:]
    da = (
        am * (t0 - tp) / ((tm - t0) * (tm - tp))
        + a0 * (2.0 * t0 - tm - tp) / ((t0 - tm) * (t0 - tp))
        + ap * (t0 - tm) / ((tp - tm) * (tp - t0))
    )
    resid = np.abs(da - b[1:-1])
    grid = f"N={initial.num_intervals},samples={t.size}"
    reports = []
    for l in range(n + 1):
        scale = float(np.max(np.abs(b[:, l]))) or float(np.max(np.abs(a[:, l])))
        reports.append(_worst(f"lemma/rate_sigma{l}_k{k}", da[:, l], b[1:-1, l], resid[:, l],
                              scale, grid, 1e-3))
    topo = sphere_area(n)
    dev = np.abs(a[:, n] - topo)
    reports.append(_worst(f"lemma/topological_constant_n{n}", a[:, n], np.full_like(dev, topo),
                          dev, topo, grid, 1e-6))
    return reports


# ---------------------------------------------------------------------------
# first variation


def check_first_variation(target: RadialGraph, rho, l: int):
    """First variation of int sigma_l dmu under the normal graft
    X_s = X + s * rho * nu, against (l+1) int sigma_{l+1} rho dmu, to a
    relative 1e-3, for l = 0..n-1. At l = n the integral is the topological
    constant |S^n|, which the lemma suite checks: its first variation is 0,
    and a relative residual against 0 reads only roundoff.

    `target` is a RadialGraph: the material points of its grid family, a
    curve or a meridian, carry the graft. rho is an array per node or a
    callable on the graph's parameter grid. The derivative is a centered
    difference at +-s, s = 1e-4 of the mean radius.
    """
    if not isinstance(target, RadialGraph):
        raise TypeError(f"target must be a RadialGraph, got {type(target).__name__}")
    pts, dim, family = embed(target), target.dim, _family(target.dim)
    l = _whole(l, "sigma index l", 0, dim - 1)
    m = pts.shape[0]
    rho_arr = np.asarray(rho(target.param) if callable(rho) else rho, dtype=float)
    if rho_arr.shape != (m,):
        raise ValueError(f"rho must have one value per node ({m})")
    geo = _material_geometry(pts, family)
    s = 1e-4 * float(np.mean(np.hypot(pts[:, 0], pts[:, 1])))
    plus = pts + s * rho_arr[:, None] * geo.nu
    minus = pts - s * rho_arr[:, None] * geo.nu
    why = family.unstarshaped(plus) or family.unstarshaped(minus)
    if why:
        raise ValueError(f"variation {why} at the probe size")

    def integral(probe):
        pg = _material_geometry(probe, family)
        return float(np.sum(elem_sym_table(pg.kappa.reshape(m, -1))[:, l] * pg.dmu))

    lhs = (integral(plus) - integral(minus)) / (2.0 * s)
    tail = elem_sym_table(geo.kappa.reshape(m, -1))[:, l + 1]
    rhs = (l + 1) * float(np.sum(tail * rho_arr * geo.dmu))
    resid = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    grid = f"M={m},s={s:g}"
    return _report(f"variation/sigma{l}", lhs, rhs, resid, resid / scale, grid, 1e-3)


# ---------------------------------------------------------------------------
# inequality chain and trajectory monotonicity


def check_af_chain(geo: PointwiseGeometry, k: int):
    """Quermassintegral inequality chain on a k-convex surface.

    For each 0 <= m <= min(k, n-1) checks
    (V_{n+1-m}/V_{n+1-m}(B))^{1/(n+1-m)} <= (V_{n-m}/V_{n-m}(B))^{1/(n-m)}
    within a relative slack of 1e-6. The m with a degenerate lower
    exponent are skipped by the range. Raises ValueError when the surface
    fails k-convexity: that is a precondition, not a counterexample.
    k is gated once, by `kconvex_report`; the V vector and the unit-ball
    values are read through ungated helpers.
    """
    conv = kconvex_report(geo, k)
    n, k = geo.dim, conv.k
    if conv.status == "violated":
        raise ValueError(
            f"surface is not {k}-convex (min sigma = {conv.min_sigma.min():.3e}); "
            "inequality chain precondition fails"
        )
    reports = []
    vees = quermass_vector(geo)
    for m in range(0, min(k, n - 1) + 1):
        lhs = (vees[m] / _unit_ball(n, m)) ** (1.0 / (n + 1 - m))
        rhs = (vees[m + 1] / _unit_ball(n, m + 1)) ** (1.0 / (n - m))
        gap = lhs - rhs
        reports.append(_report(f"af_chain/m{m}", lhs, rhs, gap, gap / rhs,
                               f"N={geo.num_intervals}", 1e-6))
    return reports


def check_monotone_series(record: flowmod.TrajectoryRecord):
    """Monotonicity and conservation along a normalized or rescaled run.

    Checks that the monitored iso ratio (I_k, or I_0 when k = n) never
    decreases by more than 1e-10 of its value, that the conserved
    quermassintegral (V_{n-k}, or V_{n+1} when k = n) drifts less than
    1e-6 of its start per unit time, and that the final ratio lands within
    1e-4 of the round-ball value, relative to it.
    """
    n, k = record.n, record.k
    law = flowmod._law(record.mode, n, k)
    if not law.conserving:
        raise ValueError("monotonicity check needs a normalized or rescaled_raw record")
    iso = record.column(f"I{law.raised}")
    t = record.column("t")
    cons_name = f"V{law.held}"
    vcons = record.column(cons_name)
    if t.size < 2:
        raise ValueError(f"monotonicity check needs at least two samples, got {t.size} "
                         f"(stop reason {record.stop_reason!r})")
    grid = f"samples={t.size}"
    drops = np.diff(iso)
    j = int(np.argmin(drops))
    worst = -float(np.min(drops))
    mono = _report(
        f"monotone/I{law.raised}_nondecreasing", iso[j + 1], iso[j],
        max(worst, 0.0), max(worst, 0.0) / abs(iso[j]), grid, 1e-10,
    )
    span = max(float(t[-1] - t[0]), 1e-300)
    dev = np.abs(vcons - vcons[0]) / abs(vcons[0])
    jj = int(np.argmax(dev))
    rate = float(np.max(dev)) / span
    cons = _report(
        f"monotone/{cons_name}_conserved", vcons[jj], vcons[0],
        float(np.max(dev)) * abs(vcons[0]), rate, grid, 1e-6,
    )
    ball = iso_ratio_ball(n, law.raised)
    gap = abs(float(iso[-1]) - ball)
    term = _report(
        f"monotone/terminal_I{law.raised}", iso[-1], ball, gap, gap / ball, grid, 1e-4,
    )
    return [mono, cons, term]
