"""Starshaped hypersurfaces as radial graphs and their integral geometry.

A surface is stored as a positive radial function on a uniform parameter
grid: N periodic samples of r(theta) on [0, 2pi) for a plane curve
(dim 1), or N+1 samples of r(phi) on [0, pi] for the profile of an
axisymmetric surface (dim 2). Curvatures, support function and area
weights come from sixth-order centered difference stencils, applied
through per-grid gather tables of the nodes one to three places ahead
of and behind each node (indices wrap for dim 1 and reflect evenly at
both poles for dim 2); quermassintegrals from trapezoid (dim 1) or
composite Simpson (dim 2) quadrature. The parallel principal curvature at the poles is assigned
its smooth limit, the meridian value; the sin(phi) area weight vanishes
there, so the choice does not touch any integral.

A grid's number of intervals N belongs to its RadialGraph. `_check_intervals`
is the one rule for it (even and >= MIN_NODES); RadialGraph and every
shape builder run it before they touch an array. A ShapeError's `field`
names the input of `make_shape` at fault, so a caller can report it.

Two conventions have their one owner here: `quermass(geo, m)` is the only
place that picks between the Minkowski form (m = 0) and the curvature
integral (m >= 1) for V_{n+1-m}, and `_iso` is the only formula of the
ratio I_m = V_{n+1-m}^{1/(n+1-m)} / V_{n-m}^{1/(n-m)}. The Garding-cone
status of `kconvex_report` is `symfunc`'s.

The curvature data are stored row by row: kappa as an (n, M) array and
sigma_0..sigma_n as an (n + 1, M) array, one contiguous row per
principal direction or degree, which is the layout the flow's stages and
`symfunc`'s tables read. `PointwiseGeometry` exposes them as (M, n) and
(M, n + 1) transposed views, one column per direction or degree.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass
from math import comb, gamma, pi
from numbers import Integral, Real

import numpy as np

from .symfunc import _cone_status, cnk

__all__ = [
    "ShapeError",
    "RadialGraph",
    "PointwiseGeometry",
    "ConvexityReport",
    "make_shape",
    "sphere",
    "ellipse",
    "ellipsoid_of_revolution",
    "perturbed_sphere",
    "compute_geometry",
    "quermass_sigma",
    "quermass_minkowski",
    "quermass",
    "quermass_vector",
    "iso_ratio",
    "iso_ratio_ball",
    "unit_ball_quermass",
    "sphere_area",
    "kconvex_report",
    "roundness",
    "refine",
    "embed",
    "export_snapshot",
]

MIN_NODES = 16

# sixth-order centered stencil weights of the offsets 1, 2, 3 (as columns,
# repeated into full rows against each grid's gather tables): first
# derivative on ahead - behind, second derivative on ahead + behind, whose
# centre weight is -490
_D1_WEIGHTS = np.array([[45.0], [9.0], [1.0]])
_D2_WEIGHTS = np.array([[270.0], [27.0], [2.0]])


class ShapeError(ValueError):
    """Invalid shape input; `field` is the make_shape input at fault: type, params, seed or num."""

    def __init__(self, message: str, field: str = "params"):
        super().__init__(message)
        self.field = field


def _check_intervals(num: int) -> None:
    """The interval rule of every grid: an even number num >= MIN_NODES."""
    if num < MIN_NODES or num % 2:
        raise ShapeError(f"need an even number of intervals >= {MIN_NODES}, got {num}", "num")


@dataclass(frozen=True)
class RadialGraph:
    """Radial function of a starshaped hypersurface on a uniform grid.

    dim 1: r has N samples of r(theta), theta_j = 2*pi*j/N, periodic.
    dim 2: r has N+1 samples of r(phi), phi_j = pi*j/N, axisymmetric,
    with an even profile at both poles. N follows `_check_intervals`:
    even and >= MIN_NODES.
    """

    dim: int
    r: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ShapeError(f"dim must be 1 or 2, got {self.dim}")
        arr = np.array(self.r, dtype=float)
        if arr.ndim != 1:
            raise ShapeError("radial samples must form a one-dimensional array")
        _check_intervals(arr.size if self.dim == 1 else arr.size - 1)
        if not np.logical_and.reduce(np.isfinite(arr)):
            raise ShapeError("radial samples contain non-finite values")
        if np.minimum.reduce(arr) <= 0.0:
            j = int(arr.argmin())
            raise ShapeError(f"radial function not positive at node {j}: r={arr[j]}")
        arr.setflags(write=False)
        object.__setattr__(self, "r", arr)

    @property
    def num_intervals(self) -> int:
        return self.r.size if self.dim == 1 else self.r.size - 1

    @property
    def h(self) -> float:
        return (2.0 * pi if self.dim == 1 else pi) / self.num_intervals

    @property
    def param(self) -> np.ndarray:
        if self.dim == 1:
            return 2.0 * pi * np.arange(self.r.size) / self.r.size
        return pi * np.arange(self.r.size) / (self.r.size - 1)

    def scaled(self, s: float) -> "RadialGraph":
        if s <= 0.0:
            raise ShapeError("scale factor must be positive")
        return RadialGraph(self.dim, s * self.r)


@dataclass(frozen=True)
class PointwiseGeometry:
    """Per-node geometric data of a radial graph.

    kappa holds the principal curvatures, one column per direction
    (dim 2: meridian then parallel). sigma holds sigma_0..sigma_n of
    kappa. dmu are full quadrature weights: their sum is the surface
    measure. From compute_geometry, kappa and sigma are transposed views
    of row-per-degree arrays, so each column is contiguous.
    """

    dim: int
    param: np.ndarray
    h: float
    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    w: np.ndarray
    u: np.ndarray
    kappa: np.ndarray
    sigma: np.ndarray
    dmu: np.ndarray

    @property
    def area(self) -> float:
        return float(np.sum(self.dmu))


@dataclass(frozen=True)
class ConvexityReport:
    """Minimum of each sigma_m over the surface and the resulting flag."""

    k: int
    min_sigma: np.ndarray  # sigma_1..sigma_k minima over nodes
    status: str  # "strict" | "nonstrict" | "violated"

    @property
    def strict(self) -> bool:
        return self.status == "strict"


# ---------------------------------------------------------------------------
# shape constructors


def sphere(radius: float, dim: int = 1, num: int = 256) -> RadialGraph:
    _check_intervals(num)
    if radius <= 0.0:
        raise ShapeError("sphere radius must be positive")
    size = num if dim == 1 else num + 1
    return RadialGraph(dim, np.full(size, float(radius)))


def ellipse(a: float, b: float, num: int = 256, center=(0.0, 0.0)) -> RadialGraph:
    """Plane ellipse x^2/a^2 + y^2/b^2 = 1 as a radial graph about `center`.

    The center must lie inside the ellipse; the radial function solves
    the quadratic for the ray-boundary intersection, which reduces to
    r = a*b/sqrt(b^2 cos^2 + a^2 sin^2) for a centered ellipse.
    """
    _check_intervals(num)
    if a <= 0.0 or b <= 0.0:
        raise ShapeError("ellipse semi-axes must be positive")
    cx, cy = float(center[0]), float(center[1])
    if cx * cx / (a * a) + cy * cy / (b * b) >= 1.0:
        raise ShapeError("star center lies outside the ellipse")
    th = 2.0 * pi * np.arange(num) / num
    ct, st = np.cos(th), np.sin(th)
    qa = ct * ct / (a * a) + st * st / (b * b)
    qb = 2.0 * (cx * ct / (a * a) + cy * st / (b * b))
    qc = cx * cx / (a * a) + cy * cy / (b * b) - 1.0
    r = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    return RadialGraph(1, r)


def ellipsoid_of_revolution(a: float, c: float, num: int = 256) -> RadialGraph:
    """Spheroid with equatorial semi-axis a and polar semi-axis c."""
    _check_intervals(num)
    if a <= 0.0 or c <= 0.0:
        raise ShapeError("spheroid semi-axes must be positive")
    phi = pi * np.arange(num + 1) / num
    r = a * c / np.sqrt(c * c * np.sin(phi) ** 2 + a * a * np.cos(phi) ** 2)
    return RadialGraph(2, r)


def perturbed_sphere(
    radius: float,
    eps: float,
    mode: int | None = None,
    dim: int = 1,
    num: int = 256,
    seed: int | None = None,
) -> RadialGraph:
    """Sphere with a relative radial perturbation of amplitude eps.

    A single cosine mode when `mode` is given, otherwise random harmonics
    drawn from `seed` and normalized so the perturbation never exceeds
    eps in absolute value. dim 2 uses cos(l*phi) modes only, which are
    Chebyshev polynomials in cos(phi) and hence smooth at the poles.
    """
    _check_intervals(num)
    if radius <= 0.0:
        raise ShapeError("sphere radius must be positive")
    if eps < 0.0:
        raise ShapeError("perturbation amplitude must be nonnegative")
    if dim == 1:
        x = 2.0 * pi * np.arange(num) / num
    else:
        x = pi * np.arange(num + 1) / num
    if mode is not None:
        # a fractional mode is not periodic on the grid: it leaves a kink
        if not float(mode).is_integer():
            raise ShapeError(f"perturbation mode must be a whole number, got {mode!r}")
        if mode < 1:
            raise ShapeError("perturbation mode must be >= 1")
        bump = np.cos(mode * x)
    else:
        rng = np.random.default_rng(seed)
        modes = np.arange(2, 6) if dim == 1 else np.arange(2, 5)
        ca = rng.normal(size=modes.size)
        cb = rng.normal(size=modes.size) if dim == 1 else np.zeros(modes.size)
        norm = np.sum(np.abs(ca)) + np.sum(np.abs(cb))
        bump = sum(
            (ca[i] * np.cos(l * x) + cb[i] * np.sin(l * x)) / norm
            for i, l in enumerate(modes)
        )
    r = radius * (1.0 + eps * bump)
    if np.min(r) <= 0.0:
        raise ShapeError("perturbation destroys starshapedness (min r <= 0)")
    return RadialGraph(dim, r)


# shape type -> (the dims it is built in, the parameter names it reads, its builder)
_SHAPES = {
    "sphere": ((1, 2), ("radius",), lambda p, dim, num, seed: sphere(p["radius"], dim, num)),
    "ellipse": ((1,), ("a", "b", "cx", "cy"), lambda p, dim, num, seed: ellipse(
        p["a"], p["b"], num, center=(p.get("cx", 0.0), p.get("cy", 0.0))
    )),
    "ellipsoid_of_revolution": ((2,), ("a", "c"), lambda p, dim, num, seed: ellipsoid_of_revolution(
        p["a"], p["c"], num
    )),
    "perturbed_sphere": ((1, 2), ("radius", "eps", "mode"),
                         lambda p, dim, num, seed: perturbed_sphere(
                             p["radius"], p["eps"], p.get("mode"), dim, num, seed)),
}


def make_shape(spec, dim: int, num: int) -> RadialGraph:
    """Build a RadialGraph from a config-style description.

    `spec` is a mapping with keys `type`, `params` and optionally `seed`
    (an integer >= 0; missing or null means 0, so a config always names
    one shape); `params` maps the parameter names the type reads to
    numbers, and a null value counts as left out. Any other name is a
    ShapeError. The error's `field` is `type` for an unknown type or one
    of another dim, `seed`, `num` for a grid that breaks the interval
    rule, and `params` for anything else.
    """
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ShapeError(f"unknown shape type {kind!r}; expected one of {sorted(_SHAPES)}", "type")
    dims, names, build = _SHAPES[kind]
    if dim not in dims:
        raise ShapeError(f"{kind} is a dim-{' or dim-'.join(map(str, dims))} shape", "type")
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ShapeError(f"shape params must be a mapping, got {params!r}")
    params = {key: value for key, value in params.items() if value is not None}
    for key, value in params.items():
        if key not in names:
            raise ShapeError(f"shape {kind!r} has no parameter {key!r}; "
                             f"it reads {', '.join(names)}")
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ShapeError(f"shape parameter {key!r} must be a number, got {value!r}")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
        raise ShapeError(f"shape seed must be an integer >= 0, got {seed!r}", "seed")
    try:
        return build(params, dim, num, 0 if seed is None else seed)
    except KeyError as exc:
        raise ShapeError(f"shape {kind!r} is missing parameter {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# derivatives and pointwise geometry


def _stencil_derivatives(kit: _GridKit, r: np.ndarray):
    """Sixth-order centered first and second derivatives of r on kit's grid.

    The rows of `a` and `s` are the offset-1, -2 and -3 terms in the order
    the stencil adds them, so the sums round exactly as the textbook
    formula (45 a1 - 9 a2 + a3) / 60h, (270 s1 - 27 s2 + 2 s3 - 490 f) / 180h^2.
    The updates after the two gathers are in place, against full-shape
    weight rows, so no operand is broadcast.
    """
    ahead, behind = r[kit.ahead], r[kit.behind]
    a = ahead - behind
    a *= kit.d1_weights
    s = ahead  # the gather is not read again: the sums overwrite it
    s += behind
    s *= kit.d2_weights
    h = kit.h
    d1 = a[0] - a[1]
    d1 += a[2]
    d1 /= 60.0 * h
    d2 = s[0] - s[1]
    d2 += s[2]
    d2 -= 490.0 * r
    d2 /= 180.0 * h * h
    return d1, d2


def _simpson_weights(n_int: int, h: float) -> np.ndarray:
    w = np.ones(n_int + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class _GridKit:
    """Static per-grid data shared by every geometry evaluation."""

    dim: int
    size: int
    h: float
    param: np.ndarray
    # dim 2: sin(phi) with 1.0 at both poles, where the parallel curvature
    # is overwritten with the meridian one, and cos(phi); None for dim 1
    pole_safe_sin: np.ndarray | None
    cos: np.ndarray | None
    area_weight: np.ndarray  # h for dim 1, simpson * 2 pi sin(phi) for dim 2
    # (3, size) indices of the nodes 1..3 places ahead of / behind each node
    ahead: np.ndarray
    behind: np.ndarray
    # (3, size) stencil weights of those offsets, one full row per offset
    d1_weights: np.ndarray
    d2_weights: np.ndarray


_KIT_CACHE: dict = {}


def _grid_kit(dim: int, size: int) -> _GridKit:
    key = (dim, size)
    kit = _KIT_CACHE.get(key)
    if kit is None:
        nodes = np.arange(size)
        ahead = nodes + np.arange(1, 4)[:, None]
        behind = nodes - np.arange(1, 4)[:, None]
        weights = (np.repeat(_D1_WEIGHTS, size, axis=1), np.repeat(_D2_WEIGHTS, size, axis=1))
        if dim == 1:
            param = 2.0 * pi * nodes / size
            h = 2.0 * pi / size
            kit = _GridKit(dim, size, h, param, None, None, np.full(size, h),
                           ahead % size, behind % size, *weights)
        else:
            # even reflection about both poles: node -j is node j, node
            # top + j is node top - j
            top = size - 1
            param = pi * nodes / top
            h = pi / top
            sin = np.sin(param)
            safe = sin.copy()
            safe[[0, -1]] = 1.0
            kit = _GridKit(dim, size, h, param, safe, np.cos(param),
                           _simpson_weights(top, h) * (2.0 * pi) * sin,
                           np.where(ahead > top, 2 * top - ahead, ahead), np.abs(behind),
                           *weights)
        if len(_KIT_CACHE) > 64:
            _KIT_CACHE.clear()
        _KIT_CACHE[key] = kit
    return kit


def _curvatures(kit: _GridKit, r: np.ndarray):
    """Checked curvature data of the radial samples r on kit's grid.

    Returns (r1, r2, w, rr, kappa, sigma, dmu) with rr = r * r, the arrays
    of PointwiseGeometry that a flow stage needs, except that kappa is
    (n, M) and sigma (n + 1, M): one contiguous row per direction and
    degree. Raises ShapeError on r <= 0 and ValueError on non-finite
    curvature data.
    """
    rmin = float(np.minimum.reduce(r))
    if not rmin > 0.0:
        raise ShapeError(f"radial function not positive (min r = {rmin})")
    r1, r2 = _stencil_derivatives(kit, r)
    rr = r * r
    r1r1 = r1 * r1
    w2 = rr + r1r1
    w = np.sqrt(w2)
    sig = np.empty((kit.dim + 1, r.size))
    sig[0] = 1.0
    if kit.dim == 1:
        np.divide(rr + 2.0 * r1r1 - r * r2, w2 * w, out=sig[1])
        kappa = sig[1:]
        dmu = kit.area_weight * w
    else:
        kappa = np.empty((2, r.size))
        k_rad, k_par = kappa
        np.divide(rr + 2.0 * r1r1 - r * r2, w2 * w, out=k_rad)
        rw = r * w
        sin = kit.pole_safe_sin
        np.divide(r * sin - r1 * kit.cos, rw * sin, out=k_par)
        k_par[0] = k_rad[0]
        k_par[-1] = k_rad[-1]
        np.add(k_rad, k_par, out=sig[1])
        np.multiply(k_rad, k_par, out=sig[2])
        dmu = kit.area_weight * rw
    if not np.logical_and.reduce(np.isfinite(sig), axis=None):
        bad = int(np.argwhere(~np.isfinite(sig.T))[0][0])
        raise ValueError(f"non-finite curvature data at node {bad}")
    return r1, r2, w, rr, kappa, sig, dmu


def _pointwise(kit: _GridKit, r: np.ndarray) -> PointwiseGeometry:
    r1, r2, w, rr, kappa, sig, dmu = _curvatures(kit, r)
    return PointwiseGeometry(
        dim=kit.dim, param=kit.param, h=kit.h, r=r, r1=r1, r2=r2, w=w, u=rr / w,
        kappa=kappa.T, sigma=sig.T, dmu=dmu,
    )


def compute_geometry(g: RadialGraph) -> PointwiseGeometry:
    """All pointwise geometric data of a radial graph.

    Returns per-node derivatives, w = sqrt(r^2 + r'^2), principal
    curvatures, support function u = r^2/w, quadrature weights dmu and
    the table sigma_0..sigma_n of the curvatures.

    dim 1 curvature: (r^2 + 2 r'^2 - r r'') / w^3.
    dim 2: the same expression is the meridian curvature of the profile,
    and (r sin - r' cos) / (w r sin) the parallel one; both reduce to
    1/R on a sphere and coincide at the poles.

    Raises ShapeError on r <= 0 and ValueError if non-finite values
    propagate into any output field.
    """
    return _pointwise(_grid_kit(g.dim, g.r.size), g.r)


# ---------------------------------------------------------------------------
# quermassintegrals and ratios


def quermass_sigma(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} from the curvature-integral definition.

    V_{n+1-m} = C_{n,m} * integral of sigma_{m-1} over the surface,
    with C_{n,m} = sigma_m(I)/sigma_{m-1}(I). Valid for 1 <= m <= n;
    the top integral V_{n+1} has no index here and is only reachable
    through the Minkowski form.
    """
    n = geo.dim
    if not 1 <= m <= n:
        raise ValueError(f"sigma-form index m={m} out of range 1..{n}")
    return cnk(n, m) * float(np.add.reduce(geo.sigma[:, m - 1] * geo.dmu))


def quermass_minkowski(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} from the Minkowski form: integral of u * sigma_m.

    m = 0 gives V_{n+1} = (n+1) * volume of the enclosed domain.
    """
    n = geo.dim
    if not 0 <= m <= n:
        raise ValueError(f"Minkowski-form index m={m} out of range 0..{n}")
    return float(np.add.reduce(geo.u * geo.sigma[:, m] * geo.dmu))


def quermass(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} for 0 <= m <= n: the Minkowski form at m = 0, where the curvature
    integral has no index, and the curvature integral otherwise."""
    if not 0 <= m <= geo.dim:
        raise ValueError(f"quermass index m={m} out of range 0..{geo.dim}")
    return quermass_minkowski(geo, 0) if m == 0 else quermass_sigma(geo, m)


def quermass_vector(geo: PointwiseGeometry) -> np.ndarray:
    """V_{n+1}, V_n, ..., V_1: `quermass` at m = 0..n."""
    return np.array([quermass(geo, m) for m in range(geo.dim + 1)])


def sphere_area(n: int) -> float:
    """Measure of the unit n-sphere in R^{n+1}."""
    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def unit_ball_quermass(n: int, m: int) -> float:
    """V_{n+1-m} of the unit ball: binom(n, m) * |S^n|."""
    if not 0 <= m <= n:
        raise ValueError(f"index m={m} out of range 0..{n}")
    return comb(n, m) * sphere_area(n)


def _iso(v_hi: float, v_lo: float, n: int, m: int) -> float:
    """I_m from v_hi = V_{n+1-m} and v_lo = V_{n-m}: the one formula of the iso ratio."""
    return v_hi ** (1.0 / (n + 1 - m)) / v_lo ** (1.0 / (n - m))


def iso_ratio(geo: PointwiseGeometry, k: int) -> float:
    """Scale-invariant ratio I_k = V_{n+1-k}^{1/(n+1-k)} / V_{n-k}^{1/(n-k)}.

    k = 0 pairs the Minkowski-form volume integral with the surface
    measure. k = n is rejected: the lower exponent 1/(n-k) degenerates.
    """
    n = geo.dim
    if not 0 <= k <= n - 1:
        raise ValueError(f"iso ratio index k={k} out of range 0..{n - 1}")
    return _iso(quermass(geo, k), quermass(geo, k + 1), n, k)


def iso_ratio_ball(n: int, k: int) -> float:
    """iso_ratio of the round ball, in closed form."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"iso ratio index k={k} out of range 0..{n - 1}")
    return _iso(unit_ball_quermass(n, k), unit_ball_quermass(n, k + 1), n, k)


def kconvex_report(geo: PointwiseGeometry, k: int, tol_cone: float = 1e-10) -> ConvexityReport:
    """Minimum of sigma_1..sigma_k over the surface with a convexity flag.

    strict: all minima positive. nonstrict: within -tol_cone (scaled by
    the degree-m power of the curvature magnitude) of zero. violated
    otherwise. The test is `symfunc`'s, shared with `in_gamma_k`.
    """
    n = geo.dim
    if not 1 <= k <= n:
        raise ValueError(f"convexity level k={k} out of range 1..{n}")
    mins = geo.sigma[:, 1 : k + 1].min(axis=0)
    return ConvexityReport(k=k, min_sigma=mins, status=_cone_status(mins, geo.kappa, tol_cone))


def roundness(g: RadialGraph) -> float:
    """(max r - min r) / mean r; zero exactly for centered spheres."""
    r = g.r
    if g.dim == 1:
        mean = float(np.mean(r))
    else:
        mean = float((0.5 * r[0] + np.sum(r[1:-1]) + 0.5 * r[-1]) / (r.size - 1))
    return float((np.max(r) - np.min(r)) / mean)


# ---------------------------------------------------------------------------
# resampling and export


def _fft_resample_periodic(f: np.ndarray, out_size: int) -> np.ndarray:
    size = f.size
    spec = np.fft.rfft(f)
    out = np.zeros(out_size // 2 + 1, dtype=complex)
    out[: size // 2 + 1] = spec * (out_size / size)
    out[size // 2] *= 0.5  # old Nyquist bin becomes an ordinary pair
    return np.fft.irfft(out, out_size)


def refine(g: RadialGraph, factor: int) -> RadialGraph:
    """Resample onto a grid `factor` times finer by trigonometric
    interpolation (dim 2 through the even periodic extension of the
    profile)."""
    if factor != int(factor) or factor < 2:
        raise ValueError(f"refinement factor must be an integer >= 2, got {factor}")
    factor = int(factor)
    if g.dim == 1:
        r_new = _fft_resample_periodic(g.r, g.r.size * factor)
    else:
        ext = np.concatenate([g.r, g.r[-2:0:-1]])  # even mirror, period 2N
        fine = _fft_resample_periodic(ext, ext.size * factor)
        r_new = fine[: g.num_intervals * factor + 1]
    if np.min(r_new) <= 0.0:
        raise ShapeError("refinement produced a nonpositive radius")
    return RadialGraph(g.dim, r_new)


def embed(g: RadialGraph) -> np.ndarray:
    """Embedded sample points: (N, 2) curve points for dim 1, meridian
    (rho, z) points for dim 2."""
    t = g.param
    if g.dim == 1:
        return np.stack([g.r * np.cos(t), g.r * np.sin(t)], axis=1)
    return np.stack([g.r * np.sin(t), g.r * np.cos(t)], axis=1)


def export_snapshot(geo: PointwiseGeometry, k: int, path) -> None:
    """Write one surface snapshot as CSV.

    Columns: grid_coordinate, r, kappa_1..kappa_n, u, sigma_k.
    """
    n = geo.dim
    if not 1 <= k <= n:
        raise ValueError(f"snapshot sigma level k={k} out of range 1..{n}")
    header = ["grid_coordinate", "r"] + [f"kappa_{i}" for i in range(1, n + 1)] + ["u", "sigma_k"]
    table = np.column_stack([geo.param, geo.r, geo.kappa, geo.u, geo.sigma[:, k]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in table)
