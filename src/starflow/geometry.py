"""Starshaped hypersurfaces as radial graphs and their integral geometry.

A surface is stored as a positive radial function on a uniform parameter
grid of one of two grid families:

- `_Curve`, the periodic curve (dim 1): N samples of r(theta) on
  [0, 2pi), node N being node 0;
- `_Profile`, the rotational profile (dim 2): N+1 samples of r(phi) on
  [0, pi], the profile of an axisymmetric surface, even about both poles.

Each family owns the rules of its grid: its node count and Nyquist mode,
the random harmonics of `perturbed_sphere`, the fold of its stencil taps
(they wrap on the curve and reflect evenly at both poles of the profile)
and its poles, where r' is set to exactly 0; its quadrature weights
(trapezoid, all h, on the curve; composite Simpson on the profile, times
2 pi sin(phi) for the area); the curvature rows beyond the curve or
meridian one, with the pole override; its pieces of
`flow._linearization`; its periodic extension, which `refine` resamples;
the mean of `roundness`; `embed`; and the starshapedness rule of embedded
points. A Clenshaw-Curtis area weight on the profile is one rule of
`_Profile.arrays`, rotational hypersurfaces in R^{n+1} are a parameter n
of `_Profile` (n - 1 parallel rows and the area form (r sin(phi))^(n-1)),
and a new surface kind is a third family.

Curvatures, support function and area weights come from sixth-order
centered difference stencils (Fornberg, Math. Comp. 51, 1988): one gather
of the seven taps of every node, itself and the nodes one to three places
ahead of and behind it, and one product with the grid's (2, 7) weight
matrix, whose rows give the first and the second derivative. The
profile's parallel principal curvature is (r - r' cot(phi)) / (r w), on
the kit's pole-safe cotangent; at the poles it is assigned its smooth
limit, the meridian value, and the sin(phi) area weight vanishes there,
so the choice does not touch any integral. Every quadrature sum is one
BLAS dot of the integrand with the weights dmu, and no gate is a ufunc
reduction. The positivity gate reads r at its argmin, the first NaN if
there is one, which compares false and is rejected. r and the curvature
data pass a finiteness gate of one BLAS self-dot: only a self-dot that
is not finite runs the exact per-entry test, which alone rejects.

A grid is keyed by its dimension and its number of intervals N. Its kit,
`_grid_kit(dim, N)`, is its one gate and the holder of every per-node
array: only the kit runs `_check_intervals`, takes its family from
`_family` (the one dim gate: an integer in `DIMS`, the families'
dimensions) and maps N to a node count. The kits are held by
`functools.lru_cache` (64 of them, keyed by the arguments and their types), so
a kit is built, and its gate run, on a miss only: a bool or a whole float has
a key of its own and fails the gate, which caches nothing, and an unhashable
argument is the cache's TypeError. RadialGraph, the shape builders and
`verify.radial_from_curve` take their grid from it first, and
`RadialGraph.num_intervals` is the one map back from nodes to N. A
ShapeError's `field` names the input of `make_shape` at fault.

Three more conventions have their one owner here: V_{n+1-m} is the
Minkowski form at m = 0 and the curvature integral at m >= 1, picked by
`quermass(geo, m)` and, for every m at once and ungated, by
`quermass_vector`; `_iso` is the only formula of the ratio
I_m = V_{n+1-m}^{1/(n+1-m)} / V_{n-m}^{1/(n-m)}; and `_write_csv` is the
only CSV writer and number format; it makes the directory of every
output it writes. The Garding-cone status of `kconvex_report` is `symfunc`'s.

The curvature data are stored row by row: kappa as an (n, M) array and
sigma_0..sigma_n as an (n + 1, M) array, one contiguous row per
principal direction or degree, which is the layout the flow's stages and
`symfunc`'s tables read. `PointwiseGeometry` exposes them as (M, n) and
(M, n + 1) transposed views, one column per direction or degree.

A grid kit may be stacked: `_grid_kit(dim, num, copies)` lays `copies`
grids of `size` nodes end to end, so one `_curvatures` call evaluates
that many radial graphs of one grid, each copy bitwise as on its own: the
stencil product sums each output over its own seven taps, wherever the
copy sits in the stack. The pole rules are written on the kit's
read-only index array `poles`, which holds nodes 0 and N of every copy of
a profile and no node of a curve.
"""

from __future__ import annotations

import csv
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gamma, inf, isfinite, pi
from numbers import Integral

import numpy as np

from .symfunc import _cone_status, _real, _whole, cnk

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

# sixth-order centered stencil weights (Fornberg, Math. Comp. 51, 1988) against
# the rows of each grid's tap table: the node, the nodes 1..3 ahead, the nodes
# 1..3 behind; row 0 is 60h times the first derivative, row 1 180h^2 times the second
_STENCIL = np.array([[0.0, 45.0, -9.0, 1.0, -45.0, 9.0, -1.0],
                     [-490.0, 270.0, -27.0, 2.0, 270.0, -27.0, 2.0]])


class ShapeError(ValueError):
    """Invalid shape input; `field` is the make_shape input at fault: type, params, seed or num."""

    def __init__(self, message: str, field: str = "params"):
        super().__init__(message)
        self.field = field


def _check_intervals(num: int) -> None:
    """The interval rule of every grid: an even integer num >= MIN_NODES."""
    if not isinstance(num, (int, np.integer)) or num < MIN_NODES or num % 2:
        raise ShapeError(f"need an even number of intervals >= {MIN_NODES}, got {num}", "num")


def _check_seed(seed) -> None:
    """The seed rule of every shape: None or an integer >= 0."""
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
        raise ShapeError(f"shape seed must be an integer >= 0, got {seed!r}", "seed")


def _param(value, name: str, lo: float | None = None, strict: bool = True) -> float:
    """`symfunc._real` on a real shape parameter, its ValueError a ShapeError at params."""
    try:
        return _real(value, name, lo, strict)
    except ValueError as exc:
        raise ShapeError(str(exc)) from None


# the least square of a semi-axis: 1/a^2 <= max/8, so every term of ellipse's
# quadratic, whose discriminant is at most 4 qa, stays below max/2, and no square is subnormal
_SQUARE_FLOOR = 8.0 / sys.float_info.max


def _semi_axis(value, name: str) -> float:
    """`_param`'s positive float of a semi-axis whose square is a finite float of
    at least _SQUARE_FLOOR, as the builders' quadratic forms divide by it."""
    s = _param(value, name, 0.0)
    if not _SQUARE_FLOOR <= s * s < inf:
        raise ShapeError(f"{name} must have a finite square of at least {_SQUARE_FLOOR:.6g}, "
                         f"got {value!r}")
    return s


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding `fields`, set directly
    and not through __init__: for data its caller has already checked (a
    RadialGraph's samples passed by `_curvatures`, fresh and read-only)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class RadialGraph:
    """Radial function of a starshaped hypersurface on a uniform grid.

    dim 1 (`_Curve`): r has N samples of r(theta), theta_j = 2*pi*j/N,
    periodic. dim 2 (`_Profile`): r has N+1 samples of r(phi), phi_j =
    pi*j/N, axisymmetric, with an even profile at both poles. The grid kit
    of (dim, N) gates the graph; `param` and `h` are the kit's, and `param`
    is its read-only node array, shared by every graph on the grid.
    """

    dim: int
    r: np.ndarray

    def __post_init__(self):
        arr = np.array(self.r, dtype=float)
        if arr.ndim != 1:
            raise ShapeError("radial samples must form a one-dimensional array")
        object.__setattr__(self, "r", arr)
        _grid_kit(self.dim, self.num_intervals)
        if not np.logical_and.reduce(np.isfinite(arr)):
            raise ShapeError("radial samples contain non-finite values")
        if np.minimum.reduce(arr) <= 0.0:
            j = int(arr.argmin())
            raise ShapeError(f"radial function not positive at node {j}: r={arr[j]}")
        arr.setflags(write=False)

    @property
    def num_intervals(self) -> int:
        return self.r.size - _family(self.dim).ends

    @property
    def h(self) -> float:
        return _grid_kit(self.dim, self.num_intervals).h

    @property
    def param(self) -> np.ndarray:
        return _grid_kit(self.dim, self.num_intervals).param

    def scaled(self, s: float) -> "RadialGraph":
        return RadialGraph(self.dim, _param(s, "scale factor s", 0.0) * self.r)


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
    num_intervals: int  # N, from the grid kit
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
# grid families


class _Curve:
    """The periodic curve (dim 1): r(theta) at the N nodes theta_j = 2 pi j / N,
    node N being node 0. Its taps wrap, its quadrature is the trapezoid rule,
    every weight h, and sigma_1 is its one curvature. It has no pole, and its
    samples are their own periodic extension."""

    # ends: the nodes beyond the N intervals; the grid spans [0, half_turns pi]
    dim, ends, half_turns = 1, 0, 2
    modes, sines = range(2, 6), True  # perturbed_sphere's random harmonics

    def arrays(self, taps, num, size, h, param, copies):
        """(taps folded onto one copy, quadrature, area weight, cot, poles): the taps
        wrap, the trapezoid weights h are the area weight, and no node is a pole."""
        return taps % num, np.full(size, h), np.full(size, h), None, np.empty(0, dtype=int)

    def rows(self, kit, r, r1, w, num, w3, sig):
        """(kappa, dmu) from the curvature num / w3: sigma_1 is kappa, dmu is h w."""
        np.divide(num, w3, out=sig[1])
        return sig[1:], kit.area_weight * w

    def linear_fold(self, kit, dfk, r, r1):
        """The parallel term of `flow._linearization`'s b: a curve has none."""
        return 0.0

    mean = staticmethod(np.mean)  # roundness's mean of r

    def extension(self, r):
        return r

    def embed(self, r, t):
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def unstarshaped(self, pts) -> str:
        """Why the embedded points pts are no curve starshaped about the origin, or ""."""
        ang = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
        bad = np.min(np.hypot(pts[:, 0], pts[:, 1])) <= 0.0 or np.any(np.diff(ang) <= 0.0)
        return "destroys starshapedness" if bad else ""


class _Profile:
    """The rotational profile (dim 2): r(phi) at the N + 1 nodes phi_j = pi j / N
    from pole to pole of an axisymmetric surface, even about both poles. Its
    taps reflect there, its quadrature is composite Simpson, times
    2 pi sin(phi) for the area, and its parallel curvature is a second row,
    the meridian one at the poles. Its periodic extension is the even one."""

    dim, ends, half_turns = 2, 1, 1
    # cos(l phi) only: Chebyshev polynomials in cos(phi), smooth at the poles
    modes, sines = range(2, 5), False

    def arrays(self, taps, num, size, h, param, copies):
        """(taps folded onto one copy, quadrature, area weight, cot, poles): node -j
        is node j and node N + j is node N - j; cot is cos(phi) / sin(phi) with
        sin(phi) read as 1.0 at both poles, where the parallel curvature is
        overwritten; poles holds nodes 0 and N of every copy."""
        # composite Simpson: h / 3 times 1, 4, 2, 4, ..., 2, 4, 1
        quadrature = np.r_[1.0, np.tile([4.0, 2.0], num // 2)[:-1], 1.0] * (h / 3.0)
        cot = np.cos(param) / np.r_[1.0, np.sin(param[1:-1]), 1.0]
        return (np.where(taps > num, 2 * num - taps, np.abs(taps)), quadrature,
                quadrature * (2.0 * pi) * np.sin(param), np.tile(cot, copies),
                (size * np.arange(copies)[:, None] + [0, num]).ravel())

    def rows(self, kit, r, r1, w, num, w3, sig):
        """(kappa, dmu) from the meridian curvature num / w3: the parallel one
        (r - r' cot) / (r w), the meridian one at the poles; dmu is the area weight times r w."""
        kappa = np.empty((2, r.size))
        k_mer, k_par = kappa
        np.divide(num, w3, out=k_mer)
        rw = r * w
        np.divide(r - r1 * kit.cot, rw, out=k_par)
        k_par[kit.poles] = k_mer[kit.poles]
        np.add(k_mer, k_par, out=sig[1])
        np.multiply(k_mer, k_par, out=sig[2])
        return kappa, kit.area_weight * rw

    def linear_fold(self, kit, dfk, r, r1):
        """Folds the rows dF/dkappa_i of dfk at the poles, where kappa_par is set to
        kappa_mer, into the meridian row, and returns dF/dkappa_par (r' + r cot),
        the parallel term that `flow._linearization` takes off w^2 r b, as
        w^3 dkappa_par/dr' = -(r' + r cot); the kit's cot is finite at the
        poles, where dF/dkappa_par is now 0."""
        df_mer, df_par = dfk
        df_mer[kit.poles] += df_par[kit.poles]
        df_par[kit.poles] = 0.0
        return df_par * (r1 + r * kit.cot)

    def mean(self, r):
        """roundness's mean of r: the trapezoid mean over phi."""
        return float((0.5 * r[0] + np.sum(r[1:-1]) + 0.5 * r[-1]) / (r.size - 1))

    def extension(self, f):
        """The 2N-periodic extension of N + 1 samples on [0, pi], even about both
        poles: nodes 0..N, then N-1..1, along axis 0."""
        return np.concatenate([f, f[-2:0:-1]])

    def embed(self, r, t):
        """Meridian (rho, z) points."""
        return np.stack([r * np.sin(t), r * np.cos(t)], axis=1)

    def unstarshaped(self, pts) -> str:
        """Why the embedded meridian points pts leave the half plane rho > 0 between
        the poles, or ""."""
        return "pushes the meridian through the axis" if np.min(pts[1:-1, 0]) <= 0.0 else ""


_CURVE, _PROFILE = _Curve(), _Profile()
_FAMILIES = {family.dim: family for family in (_CURVE, _PROFILE)}
DIMS = tuple(_FAMILIES)  # the dimensions n of every grid, shape and flow


def _family(dim):
    """The grid family of dimension dim, after the one dim gate: an integer in DIMS."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in _FAMILIES:
        raise ShapeError(f"dim must be an integer in {DIMS}, got {dim!r}")
    return _FAMILIES[dim]


# ---------------------------------------------------------------------------
# shape constructors


def _cos_sin(t: np.ndarray) -> np.ndarray:
    """cos t and sin t on a grid's nodes, exactly 0 at the multiples of pi/2: the
    float cos(pi/2) is 6.1e-17 and sin(pi) 1.2e-16, which a semi-axis' square
    outweighs in a quadratic form once the axis ratio passes about 1e8. Every
    other node of N intervals is at least sin(pi/N) from a zero, far above the cut."""
    cs = np.stack([np.cos(t), np.sin(t)])
    cs[np.abs(cs) < 1e-15] = 0.0
    return cs


def sphere(radius: float, dim: int = 1, num: int = 256) -> RadialGraph:
    size = _grid_kit(dim, num).size
    return RadialGraph(dim, np.full(size, _param(radius, "sphere radius", 0.0)))


def ellipse(a: float, b: float, num: int = 256, center=(0.0, 0.0)) -> RadialGraph:
    """Plane ellipse x^2/a^2 + y^2/b^2 = 1 as a radial graph about `center`.

    The center must lie inside the ellipse; the radial function solves
    the quadratic for the ray-boundary intersection, which reduces to
    r = a*b/sqrt(b^2 cos^2 + a^2 sin^2) for a centered ellipse.
    """
    th = _grid_kit(1, num).param
    a, b = _semi_axis(a, "semi-axis a"), _semi_axis(b, "semi-axis b")
    cx, cy = _param(center[0], "star center cx"), _param(center[1], "star center cy")
    if cx * cx / (a * a) + cy * cy / (b * b) >= 1.0:
        raise ShapeError("star center lies outside the ellipse")
    ct, st = _cos_sin(th)
    qa = ct * ct / (a * a) + st * st / (b * b)
    qb = 2.0 * (cx * ct / (a * a) + cy * st / (b * b))
    qc = cx * cx / (a * a) + cy * cy / (b * b) - 1.0
    r = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    return RadialGraph(1, r)


def ellipsoid_of_revolution(a: float, c: float, num: int = 256) -> RadialGraph:
    """Spheroid with equatorial semi-axis a and polar semi-axis c."""
    phi = _grid_kit(2, num).param
    a, c = _semi_axis(a, "semi-axis a"), _semi_axis(c, "semi-axis c")
    cp, sp = _cos_sin(phi)
    r = a * c / np.sqrt(c * c * sp**2 + a * a * cp**2)
    return RadialGraph(2, r)


def _single_mode_radius(radius, eps, cos) -> np.ndarray:
    """radius * (1 + eps * cos) with cos = cos(mode * x); broadcasts, so a (c, 1)
    column of eps against c cosine rows gives c rows, each bitwise the row of its
    scalar eps and mode."""
    return radius * (1.0 + eps * cos)


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
    drawn from `seed` (an integer >= 0; None means 0, so every call is
    reproducible) and normalized so the perturbation never exceeds eps in
    absolute value. The grid family sets the random harmonics: the
    profile's are cos(l*phi) alone.
    """
    kit = _grid_kit(dim, num)
    x, family = kit.param, kit.family
    _check_seed(seed)
    radius = _param(radius, "sphere radius", 0.0)
    eps = _param(eps, "perturbation amplitude eps", 0.0, strict=False)
    if mode is not None:
        # a fractional mode is not periodic on the grid: it leaves a kink; one above the
        # grid's Nyquist mode pi / h, N/2 on the curve and N on the profile, is aliased
        nyquist = num // family.half_turns
        try:
            mode = _whole(mode, "perturbation mode", 1, nyquist)
        except ValueError:
            raise ShapeError(f"perturbation mode must be a whole number in 1..{nyquist}, "
                             f"the grid's Nyquist mode, got {mode!r}") from None
        r = _single_mode_radius(radius, eps, np.cos(mode * x))
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        ca = rng.normal(size=len(family.modes))
        cb = rng.normal(size=len(family.modes)) if family.sines else np.zeros(len(family.modes))
        norm = np.sum(np.abs(ca)) + np.sum(np.abs(cb))
        bump = sum((ca[i] * np.cos(l * x) + cb[i] * np.sin(l * x)) / norm
                   for i, l in enumerate(family.modes))
        r = radius * (1.0 + eps * bump)
    return RadialGraph(dim, r)


# shape type -> (the dims it is built in, the parameter names it reads, its builder)
_SHAPES = {
    "sphere": (DIMS, ("radius",), lambda p, dim, num, seed: sphere(p["radius"], dim, num)),
    "ellipse": ((1,), ("a", "b", "cx", "cy"), lambda p, dim, num, seed: ellipse(
        p["a"], p["b"], num, center=(p.get("cx", 0.0), p.get("cy", 0.0))
    )),
    "ellipsoid_of_revolution": ((2,), ("a", "c"), lambda p, dim, num, seed: ellipsoid_of_revolution(
        p["a"], p["c"], num
    )),
    "perturbed_sphere": (DIMS, ("radius", "eps", "mode"),
                         lambda p, dim, num, seed: perturbed_sphere(
                             p["radius"], p["eps"], p.get("mode"), dim, num, seed)),
}


def make_shape(spec, dim: int, num: int) -> RadialGraph:
    """Build a RadialGraph from a config-style description.

    `spec` is a mapping with keys `type`, `params` and optionally `seed`
    (an integer >= 0; missing or null is the builder's default, seed 0, so
    a config always names one shape); `params` maps the parameter names
    the type reads to values, and a null value counts as left out. Any
    other name is a ShapeError; each builder checks its own parameters'
    values. The error's `field` is `type` for an
    unknown type or one of another dim, `seed`, `num` for a grid that
    breaks the interval rule, and `params` for anything else.
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
    for key in params:
        if key not in names:
            raise ShapeError(f"shape {kind!r} has no parameter {key!r}; "
                             f"it reads {', '.join(names)}")
    seed = spec.get("seed")
    _check_seed(seed)
    try:
        return build(params, dim, num, seed)
    except KeyError as exc:
        raise ShapeError(f"shape {kind!r} is missing parameter {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# derivatives and pointwise geometry


def _stencil_derivatives(kit: _GridKit, r: np.ndarray):
    """Sixth-order centered first and second derivatives of r on kit's grid:
    one gather of the seven taps of every node and one product with the
    (2, 7) weight matrix. The first derivative is set to exactly 0 at the
    kit's poles (a curve has none), where the even reflection makes it
    vanish but a BLAS sum of the reflected taps need not cancel bit for bit.
    """
    d1, d2 = kit.weights.dot(r[kit.taps])
    d1[kit.poles] = 0.0
    return d1, d2


@dataclass(frozen=True)
class _GridKit:
    """Static per-grid data shared by every geometry evaluation: the arrays
    of its grid family, built once.

    A stacked kit lays `copies` grids of `size` nodes end to end: copy c
    holds the nodes c * size .. (c + 1) * size - 1 of every node array, and
    its columns of the tap table read only its own nodes; the (2, 7) weight
    matrix is the same for every copy. `param` and `quadrature` are one
    copy's. Every array is read-only: the kit is cached and shared.
    """

    family: _Curve | _Profile  # its dim is the kit's
    num: int  # intervals N of one copy
    size: int  # nodes of one copy: N + family.ends
    h: float
    param: np.ndarray
    # the profile's cos(phi) / sin(phi), with sin(phi) read as 1.0 at both poles,
    # where the parallel curvature is overwritten with the meridian one; None on a curve
    cot: np.ndarray | None
    poles: np.ndarray  # the profile's nodes 0 and N of every copy; empty on a curve
    quadrature: np.ndarray  # the plain rule: trapezoid (all h) or composite Simpson
    area_weight: np.ndarray  # the quadrature times the area form: 1, or 2 pi sin(phi)
    # (7, copies * size) indices of the taps of each node: the node, the nodes
    # 1..3 places ahead, the nodes 1..3 places behind
    taps: np.ndarray
    # (2, 7) weights of the taps: _STENCIL over 60 h and 180 h^2, whose product
    # with the gathered taps is the first and second derivative
    weights: np.ndarray


@lru_cache(maxsize=64, typed=True)
def _grid_kit(dim: int, num: int, copies: int = 1) -> _GridKit:
    """The kit of `copies` stacked grids of `num` intervals in dimension `dim`, cached
    by its arguments and their types: a bool or a whole float, which passes `in DIMS`
    and hashes as its integer, has its own key and is rejected, and a gate that raises
    caches nothing. An unhashable argument is the cache's TypeError."""
    family = _family(dim)
    _check_intervals(num)
    size = num + family.ends
    nodes = np.arange(size)
    h = family.half_turns * pi / num
    param = family.half_turns * pi * nodes / num
    taps, quadrature, area, cot, poles = family.arrays(
        nodes + np.array([0, 1, 2, 3, -1, -2, -3])[:, None], num, size, h, param, copies)
    taps = (taps[:, None, :] + size * np.arange(copies)[:, None]).reshape(7, copies * size)
    kit = _GridKit(family, num, size, h, param, cot, poles, quadrature, np.tile(area, copies), taps,
                   _STENCIL / np.array([[60.0 * h], [180.0 * h * h]]))
    for value in vars(kit).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return kit


def _curvatures(kit: _GridKit, r: np.ndarray):
    """Checked curvature data of the radial samples r on kit's grid.

    Returns (r1, r2, w, rr, kappa, sigma, dmu) with rr = r * r, the arrays
    of PointwiseGeometry that a flow stage needs, except that kappa is
    (n, M) and sigma (n + 1, M): one contiguous row per direction and
    degree. Raises ShapeError on r <= 0 or NaN and ValueError on an infinite
    r, before the stencil product would warn of it, and on non-finite
    curvature data, which a finite r can make by overflow.
    """
    j = r.argmin()  # the first NaN, if any, which the gate rejects as the minimum would
    if not r[j] > 0.0:
        raise ShapeError(f"radial function not positive (min r = {float(r[j])})")
    if not isfinite(r.dot(r)):  # an infinity, or an overflow over finite entries
        j = r.argmax()
        if not r[j] < inf:
            raise ValueError(f"non-finite curvature data: r = {float(r[j])} at node {j}")
    r1, r2 = _stencil_derivatives(kit, r)
    rr = r * r
    r1r1 = r1 * r1
    w2 = rr + r1r1
    w = np.sqrt(w2)
    # rr + 2 r1r1 - r r2, bitwise: doubling is exact and the sum commutes
    num = r1r1 + r1r1
    num += rr
    num -= r * r2
    sig = np.empty((kit.family.dim + 1, r.size))
    sig[0] = 1.0
    kappa, dmu = kit.family.rows(kit, r, r1, w, num, w2 * w, sig)
    _check_finite(sig)
    return r1, r2, w, rr, kappa, sig, dmu


def _check_finite(sig: np.ndarray) -> None:
    """Raise ValueError naming the first node at which the rows sig, one per
    degree, hold a NaN or an infinity. One BLAS self-dot decides when it is
    finite; only a self-dot that is not finite runs the exact test, so one that
    overflows over finite entries (numpy warns of it) is no rejection."""
    flat = sig.ravel()
    if not isfinite(flat.dot(flat)) and not np.isfinite(sig).all():
        bad = int(np.argwhere(~np.isfinite(sig.T))[0][0])
        raise ValueError(f"non-finite curvature data at node {bad}")


def _pointwise(kit: _GridKit, r: np.ndarray, curvatures: tuple | None = None) -> PointwiseGeometry:
    """PointwiseGeometry of r on kit's grid, from r's `_curvatures` data when given."""
    r1, r2, w, rr, kappa, sig, dmu = _curvatures(kit, r) if curvatures is None else curvatures
    return _trusted(PointwiseGeometry, dim=kit.family.dim, num_intervals=kit.num, param=kit.param,
                    h=kit.h, r=r, r1=r1, r2=r2, w=w, u=rr / w, kappa=kappa.T, sigma=sig.T, dmu=dmu)


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
    return _pointwise(_grid_kit(g.dim, g.num_intervals), g.r)


# ---------------------------------------------------------------------------
# quermassintegrals and ratios


def _sigma_form(geo: PointwiseGeometry, m: int) -> float:
    """`quermass_sigma` at an index m already checked to lie in 1..n."""
    return cnk(geo.dim, m) * float(geo.sigma[:, m - 1].dot(geo.dmu))


def _minkowski_form(geo: PointwiseGeometry, m: int) -> float:
    """`quermass_minkowski` at an index m already checked to lie in 0..n."""
    return float((geo.u * geo.sigma[:, m]).dot(geo.dmu))


def quermass_sigma(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} from the curvature-integral definition.

    V_{n+1-m} = C_{n,m} * integral of sigma_{m-1} over the surface,
    with C_{n,m} = sigma_m(I)/sigma_{m-1}(I). Valid for 1 <= m <= n;
    the top integral V_{n+1} has no index here and is only reachable
    through the Minkowski form.
    """
    return _sigma_form(geo, _whole(m, "sigma-form index m", 1, geo.dim))


def quermass_minkowski(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} from the Minkowski form: integral of u * sigma_m.

    m = 0 gives V_{n+1} = (n+1) * volume of the enclosed domain.
    """
    return _minkowski_form(geo, _whole(m, "Minkowski-form index m", 0, geo.dim))


def quermass(geo: PointwiseGeometry, m: int) -> float:
    """V_{n+1-m} for 0 <= m <= n: the Minkowski form at m = 0, where the curvature
    integral has no index, and the curvature integral otherwise."""
    m = _whole(m, "quermass index m", 0, geo.dim)
    return quermass_minkowski(geo, 0) if m == 0 else quermass_sigma(geo, m)


def quermass_vector(geo: PointwiseGeometry) -> np.ndarray:
    """V_{n+1}, V_n, ..., V_1: `quermass` at m = 0..n, through the ungated
    forms, as every index of the range is valid."""
    return np.array([_minkowski_form(geo, 0)]
                    + [_sigma_form(geo, m) for m in range(1, geo.dim + 1)])


def sphere_area(n: int) -> float:
    """Measure of the unit n-sphere in R^{n+1}."""
    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def unit_ball_quermass(n: int, m: int) -> float:
    """V_{n+1-m} of the unit ball: binom(n, m) * |S^n|."""
    n = _whole(n, "dimension n")
    return _unit_ball(n, _whole(m, "index m", 0, n))


def _unit_ball(n: int, m: int) -> float:
    """unit_ball_quermass at a checked n and m."""
    return comb(n, m) * sphere_area(n)


def _iso(v_hi: float, v_lo: float, n: int, m: int) -> float:
    """I_m from v_hi = V_{n+1-m} and v_lo = V_{n-m}: the one formula of the iso ratio."""
    return v_hi ** (1.0 / (n + 1 - m)) / v_lo ** (1.0 / (n - m))


def iso_ratio(geo: PointwiseGeometry, k: int) -> float:
    """Scale-invariant ratio I_k = V_{n+1-k}^{1/(n+1-k)} / V_{n-k}^{1/(n-k)}.

    k = 0 pairs the Minkowski-form volume integral with the surface
    measure. k = n is rejected: the lower exponent 1/(n-k) degenerates.
    """
    n, k = geo.dim, _whole(k, "iso ratio index k", 0, geo.dim - 1)
    return _iso(quermass(geo, k), quermass(geo, k + 1), n, k)


def iso_ratio_ball(n: int, k: int) -> float:
    """iso_ratio of the round ball, in closed form."""
    k = _whole(k, "iso ratio index k", 0, n - 1)
    return _iso(unit_ball_quermass(n, k), unit_ball_quermass(n, k + 1), n, k)


def kconvex_report(geo: PointwiseGeometry, k: int) -> ConvexityReport:
    """Minimum of sigma_1..sigma_k over the surface with a convexity flag.

    strict: all minima positive. nonstrict: within 1e-10 (scaled by the
    degree-m power of the curvature magnitude) of zero. violated
    otherwise. The test is `symfunc._cone_status`, shared with `in_gamma_k`.
    """
    k = _whole(k, "convexity level k", 1, geo.dim)
    mins = geo.sigma[:, 1 : k + 1].min(axis=0)
    return ConvexityReport(k=k, min_sigma=mins, status=_cone_status(mins, geo.kappa))


def roundness(g: RadialGraph) -> float:
    """(max r - min r) / mean r, the mean of the graph's grid family; zero exactly
    for centered spheres."""
    r = g.r
    return float((r[r.argmax()] - r[r.argmin()]) / _family(g.dim).mean(r))


# ---------------------------------------------------------------------------
# resampling and export


def _fft_resample_periodic(f: np.ndarray, out_size: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples f onto out_size > f.size
    nodes; irfft pads the spectrum with zeros up to its length."""
    spec = np.fft.rfft(f) * (out_size / f.size)
    spec[f.size // 2] *= 0.5  # old Nyquist bin becomes an ordinary pair
    return np.fft.irfft(spec, out_size)


def refine(g: RadialGraph, factor: int) -> RadialGraph:
    """Resample onto a grid `factor` times finer by trigonometric
    interpolation of the periodic extension of the samples (on the profile,
    the even one about both poles)."""
    factor = _whole(factor, "refinement factor", 2)
    size = _grid_kit(g.dim, g.num_intervals * factor).size
    ext = _family(g.dim).extension(g.r)
    return RadialGraph(g.dim, _fft_resample_periodic(ext, ext.size * factor)[:size])


def embed(g: RadialGraph) -> np.ndarray:
    """Embedded sample points of the graph's grid family: (N, 2) curve points,
    or meridian (rho, z) points of the profile."""
    return _family(g.dim).embed(g.r, g.param)


def export_snapshot(geo: PointwiseGeometry, k: int, path) -> None:
    """Write one surface snapshot as CSV.

    Columns: grid_coordinate, r, kappa_1..kappa_n, u, sigma_k.
    """
    n, k = geo.dim, _whole(k, "snapshot sigma level k", 1, geo.dim)
    header = ["grid_coordinate", "r"] + [f"kappa_{i}" for i in range(1, n + 1)] + ["u", "sigma_k"]
    _write_csv(path, header, np.column_stack([geo.param, geo.r, geo.kappa, geo.u, geo.sigma[:, k]]))


def _write_csv(path, header, rows) -> None:
    """Write a CSV table: a text cell as it is, every other cell as repr(float(cell)),
    which round-trips the value exactly. The path's directory is made if it is missing;
    a path with no directory part is written in the working directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(float(c)) for c in row]
                         for row in rows)
