"""Time integration of the expanding curvature-ratio flow on radial graphs.

The raw flow moves the surface at normal speed sigma_{k-1}/sigma_k of the
principal curvatures; in the radial gauge this is d r/dt = F * w / r at
every grid node. The normalized variant subtracts r(t) * u * nu, chosen so
that the quermassintegral V_{n-k} stays constant, which in the radial gauge
is an extra -r(t) * r term. Stepping is Shu & Osher's three-stage SSP-RK3
(J. Comput. Phys. 77, 1988); every stage is one call of the stage map
`_stage_map`, fed by `_stage` from bare curvature rows or by `_geo_stage`
from a PointwiseGeometry. The candidate of an attempt is checked once, by
the `_curvatures` call that builds its full PointwiseGeometry (a radius
that is not positive, NaN included, and curvature data that are not
finite, as an infinite radius makes them, reject it); its RadialGraph
wraps the checked samples without a second pass. The stage map returns
d r/dt, the log-scale rate and the held quermassintegral V_held, the
rate's denominator. It is evaluated once per accepted state, on the
candidate's geometry, and the state carries it under its flow law, first
same as last (Dormand & Prince, J. Comput. Appl. Math. 6, 1980): stage 1
of the next attempt and of its retries, the conservation guard (V_held
before and after the step) and the record's r_t read it; a state stepped
under another law gets a fresh one.
The accumulated log-scale integral of r(t) is advanced with the same stage
weights so that e^{-log_scale} times the raw trajectory reproduces the
normalized one to integration order.

Step-size control is accept/reject: a step is accepted when the radius
stays positive, strict k-convexity holds, and (in conserving modes) the
per-step drift of the conserved quermassintegral stays under
tol_conserve * dt. The working dt doubles after ten straight acceptances
and is clamped by the stability cap cfl * 2.5127 / rho: 2.5127 is the
length of the scheme's stability interval on the negative real axis, where
the spectrum of this parabolic flow lies, and rho bounds the spectral radius
of the Jacobian of the stage map. The default cfl is 1.5961 / 2.5127: up to
dt * |lambda| = 1.5961 the amplification stays in [0, 1), so every linear
mode is damped without a sign flip. rho is `_rho_bound`, refreshed every
25 accepted steps and after every rejection: the Collatz-Wielandt bound
max_i (|J| x)_i / x_i for the stage map's exact linearization J
(`_linearization`) at x = |J|^2 1, two power steps from the row sums of
|J|. It bounds the spectral radius rigorously, as the largest row sum
(Gershgorin) does, and is no larger: within 2-7% of the radius on the dim-1
graphs tried and within 16% in dim 2, where the pole rows hold the row sums
near 1.75 times it. A run of conservation rejections whose drift rate does
not fall as dt is halved stops with the first drift rate and its dt: no
step size can fix it.

The conventions are read, not restated: `_law(mode, n, k)`, one cached
record per (mode, n, k) from the table `_MODE_RULES`, decides which I_m
the flow raises and which V_j it holds, and so its scale rate; whether
that rate reads the support function; whether the mode holds V_j (the
conservation guard, `verify.check_monotone_series` and the sweep's pass
flags); whether the stage map subtracts rate * r (normalized); whether
the guard and the record read the rescaled gauge (rescaled_raw); and
normalized's k <= n - 1 rule. `MODES` and `CONSERVING_MODES` are the
table's. `_stage_map` is the one place that assembles the held rate and
the guard's V_held (the record's r_t reads it),
`geometry.quermass_vector` computes every V_j of the record, and
`geometry._iso` is the I_m formula of the record. Strict k-convexity is one rule, every
sigma_1..sigma_k positive (a NaN fails), with two implementations:
`symfunc._cone_status`'s strict case, which `in_gamma_k` and
`geometry.kconvex_report` read, and `_strictly_kconvex`, which the initial
check and step acceptance read; it takes each sigma_m row at its argmin and
does not call `_cone_status`. The grid is the initial graph's: FlowConfig
holds no grid size, and `geometry` owns the rule for one.
FlowConfig requires integer n, k and sample_every (a bool is not one), and keeps
`symfunc._real`'s float of t_max, dt_init, dt_max, tol_conserve, tol_round and
cfl_coefficient: finite, not a bool, the tolerances >= 0, the rest positive, dt_init <= dt_max.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import exp, sqrt
from numbers import Integral

import numpy as np

from . import geometry as geomod
from .geometry import (
    PointwiseGeometry,
    RadialGraph,
    _iso,
    _trusted,
    _write_csv,
    compute_geometry,
    quermass_sigma,  # noqa: F401 -- perfbench/selftest.py checks its tracer patches flow's name
    quermass_vector,
    roundness,
)
from .symfunc import _gradient_tables, _real, _whole, cnk

__all__ = [
    "MODES",
    "CONSERVING_MODES",
    "FlowConfig",
    "FlowConfigError",
    "FlowState",
    "TrajectoryRecord",
    "FlowError",
    "ConeExitError",
    "stability_cap",
    "initial_state",
    "step",
    "run",
    "rescale_state",
]

# per mode, the fields conserving, subtracts and rescaled of its `_law`
_MODE_RULES = {"raw": (False, False, False), "normalized": (True, True, False),
               "rescaled_raw": (True, False, True)}
MODES = tuple(_MODE_RULES)
CONSERVING_MODES = tuple(mode for mode in MODES if _MODE_RULES[mode][0])

DT_UNDERFLOW_FRACTION = 1e-12
DOUBLE_AFTER = 10
MAX_STEPS = 5_000_000
ORDER = 3  # global order in dt of the stepper
# its amplification 1 + z + z^2/2 + z^3/6 is in [-1, 1] for real z in [-REAL_STABILITY, 0]
REAL_STABILITY = 2.5127453  # the real root of x^3 - 3x^2 + 6x - 12
# and in [0, 1) for real z in [-MONOTONE_LIMIT, 0): damped without a sign flip
MONOTONE_LIMIT = 1.5960716  # the real root of x^3 - 3x^2 + 6x - 6
RHO_EVERY = 25  # accepted steps between refreshes of the stability cap
# power steps x <- |J| x before `_rho_bound` reads its ratio: each lowers the bound
# (on the spheroid from 1.75 rho to 1.15 rho at two) and so the step count, and
# the raw dim-2 lemma flow the benchmark replays at its step 200 takes 209 at two
# and 195 at four
CW_STEPS = 2
# a halving of dt that leaves the drift rate above this fraction of its
# previous value did not reduce it; two in a row end the run
DRIFT_STALL = 0.75


_Law = namedtuple("_Law", "n k raised held support conserving subtracts rescaled degenerate")


@lru_cache(maxsize=64)
def _law(mode: str, n: int, k: int) -> _Law:
    """The flow law of mode at dimension n and degree k: everything that the
    convention of the flow decides, one object per key, so that
    `_first_stage` tells laws apart by identity.

    - raised, held: the degree-k flow raises the iso ratio I_m and its
      log-scale rate holds V_j, (m, j) = (k, n - k) for k <= n - 1 and
      (0, n + 1) at k = n;
    - support: held = n + 1, where the rate reads the support function u;
    - conserving: the mode holds V_held; the step guard,
      `verify.check_monotone_series` and the sweep's pass flags read it;
    - subtracts: the stage map subtracts rate * r (normalized);
    - rescaled: the guard and the record read the gauge e^{-log_scale}
      (rescaled_raw);
    - degenerate: normalized at k = n, where r(t) degenerates; FlowConfig
      refuses it.

    A mode that the table does not name holds nothing."""
    conserving, subtracts, rescaled = _MODE_RULES.get(mode, (False, False, False))
    raised, held = (k, n - k) if k <= n - 1 else (0, n + 1)
    support = held == n + 1
    return _Law(n, k, raised, held, support, conserving, subtracts, rescaled, subtracts and support)


class ConeExitError(RuntimeError):
    """Curvatures left the Garding cone at some node."""


class FlowError(RuntimeError):
    """Terminal integration failure; carries the partial record and state."""

    def __init__(self, reason: str, record: "TrajectoryRecord", state: "FlowState"):
        super().__init__(reason)
        self.reason = reason
        self.record = record
        self.state = state


class FlowConfigError(ValueError):
    """A FlowConfig field holds a value the flow cannot run with; `field`
    names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class FlowConfig:
    n: int
    k: int
    mode: str = "raw"
    t_max: float = 1.0
    dt_init: float = 1e-3
    dt_max: float = 1.0
    sample_every: int = 10
    # per-step guard; the trajectory-level conservation checks are tighter
    tol_conserve: float = 1e-5
    tol_round: float = 0.0  # 0 disables the roundness stop
    # fraction of the stepper's real-axis stability interval the step may use;
    # the default steps at dt * `_rho_bound` = MONOTONE_LIMIT, and the bound is
    # rigorous, so no linear mode of the stage map's linearization flips sign
    cfl_coefficient: float = MONOTONE_LIMIT / REAL_STABILITY

    def __post_init__(self):
        for name in ("n", "k", "sample_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise FlowConfigError(name, f"{name} must be an integer, got {value!r}")
        if self.n not in geomod.DIMS:
            raise FlowConfigError("n", f"n must be one of {geomod.DIMS}, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise FlowConfigError("k", f"flow degree k={self.k} out of range 1..{self.n}")
        if self.mode not in MODES:
            raise FlowConfigError("mode", f"mode must be one of {MODES}, got {self.mode!r}")
        if _law(self.mode, self.n, self.k).degenerate:
            raise FlowConfigError(
                "k",
                f"normalized mode needs k <= n-1 (r(t) degenerates at k=n); "
                f"got k={self.k}, n={self.n}; use rescaled_raw instead",
            )
        # an infinite dt_init makes the dt underflow floor infinite, cfl_coefficient removes the
        # stability cap, tol_conserve turns the conservation guard off, tol_round stops at t = 0
        for name, strict in (("t_max", True), ("dt_init", True), ("dt_max", True),
                             ("tol_conserve", False), ("tol_round", False),
                             ("cfl_coefficient", True)):
            try:
                object.__setattr__(self, name, _real(getattr(self, name), name, 0.0, strict))
            except ValueError as exc:
                raise FlowConfigError(name, str(exc)) from None
        if self.dt_init > self.dt_max:
            raise FlowConfigError("dt_init", f"dt_init={self.dt_init} exceeds dt_max={self.dt_max}")
        if self.sample_every < 1:
            raise FlowConfigError(
                "sample_every", f"sample_every must be >= 1, got {self.sample_every}"
            )


@dataclass(frozen=True)
class FlowState:
    t: float
    graph: RadialGraph
    log_scale: float
    geo: PointwiseGeometry = field(compare=False, repr=False)
    last_dt: float = 0.0
    accepted: int = 0
    rejections: int = 0
    # the stage map at geo, (law, geo, drdt, rate, v_held), from the attempt
    # that accepted this state; `_first_stage` reads it only under its own law and geo
    _carried: tuple | None = field(default=None, compare=False, repr=False)


def initial_state(graph: RadialGraph) -> FlowState:
    return FlowState(t=0.0, graph=graph, log_scale=0.0, geo=compute_geometry(graph))


def _speed(sig: np.ndarray, k: int) -> np.ndarray:
    """sigma_{k-1}/sigma_k from the (n + 1, M) rows sigma_0..sigma_n, for 1 <= k <= n."""
    sk = sig[k]
    j = sk.argmin()  # the first NaN, if any: it compares false and is rejected
    if not sk[j] > 0.0:
        raise ConeExitError(f"sigma_{k} <= 0 at node {j}: {sk[j]:.6e}")
    return sig[k - 1] / sk


def _rate(u: np.ndarray | None, f: np.ndarray, sig: np.ndarray, dmu: np.ndarray,
          law: _Law) -> tuple:
    """(log-scale rate that holds law's V_held, V_held), from the per-node
    arrays, the speed f and the (n + 1, M) rows sig of sigma_0..sigma_n; the
    caller has checked sigma_k > 0. Each integral is one dot with dmu, as in
    `geometry`'s quadrature, so the rate's denominator V_held is bitwise
    `geometry.quermass(geo, n + 1 - held)`.

    held = n + 1 (law.support): int(F dmu) / int(u dmu) with u = r^2 / w the
    support function, and V_{n+1} = int(u sigma_0 dmu) with sigma_0 = 1.
    held = n - k (k <= n - 1): r(t) = int(sigma_{k+1} sigma_{k-1} / sigma_k) /
    V_{n-k} with V_{n-k} = C_{n,k+1} int sigma_k, the product by sigma_0 = 1
    skipped at k = 1; f and u are not read.
    """
    n, k = law.n, law.k
    if law.support:
        v_held = float(u.dot(dmu))
        return float(f.dot(dmu)) / v_held, v_held
    sk = sig[k]
    top = sig[k + 1] if k == 1 else sig[k + 1] * sig[k - 1]
    v_held = cnk(n, k + 1) * float(sk.dot(dmu))
    return float((top / sk).dot(dmu)) / v_held, v_held


def _stage_map(r: np.ndarray, w: np.ndarray, u: np.ndarray | None, sig: np.ndarray,
               dmu: np.ndarray, law: _Law):
    """(d r/dt, log-scale rate, V_held) at the radial samples r from their
    checked curvature data (w, the support function u = r^2 / w, the
    (n + 1, M) rows sig of sigma_0..sigma_n, dmu); the rate holds law's
    V_held and reads u only when law.support."""
    f = _speed(sig, law.k)
    rate, v_held = _rate(u, f, sig, dmu, law)
    drdt = f  # a fresh quotient, not read again
    drdt *= w
    drdt /= r
    if law.subtracts:
        drdt -= rate * r
    return drdt, rate, v_held


def _stage(kit: geomod._GridKit, r: np.ndarray, law: _Law):
    """The stage map at r on kit's grid from bare curvature rows: no PointwiseGeometry."""
    _, _, w, rr, _, sig, dmu = geomod._curvatures(kit, r)
    # u as `geometry._pointwise` forms it, so a stage is bitwise a full-geometry stage
    u = rr / w if law.support else None
    return _stage_map(r, w, u, sig, dmu, law)


def _geo_stage(geo: PointwiseGeometry, law: _Law):
    return _stage_map(geo.r, geo.w, geo.u, geo.sigma.T, geo.dmu, law)


def _first_stage(state: FlowState, law: _Law):
    """The stage map at state's geometry under law: the one the state
    carries when it was evaluated there under it, else a fresh one."""
    carried = state._carried
    if carried is not None and carried[0] is law and carried[1] is state.geo:
        return carried[2:]
    return _geo_stage(state.geo, law)


def _linearization(geo: PointwiseGeometry, k: int):
    """(a, b, c) per node: the exact linearization J = diag(a) + diag(b) D1 +
    diag(c) D2 of the raw stage map r -> F(kappa(r, r', r'')) w / r at geo's
    radius, with F = sigma_{k-1}/sigma_k and D1, D2 the linear maps of
    `geometry._stencil_derivatives`. a, b and c are the partial derivatives
    of the pointwise formula in r, r' and r''; dF/dkappa comes from
    `symfunc._gradient_tables`. kappa_rad = (r^2 + 2 r'^2 - r r'') / w^3
    reads (r, r', r''); the rows beyond it, and their pole rules, are the
    grid family's: it reads its pole fold and the parallel term of b from
    `linear_fold`, where the profile's kappa_par = (1 - r' cot / r) / w
    reads (r, r') on the kit's pole-safe cotangent `cot` that
    `geometry._curvatures` reads, and at the poles kappa_par is kappa_rad,
    as `_curvatures` sets it. a follows from b and c by Euler's identity
    for homogeneous maps. The rank-one -rate * r term of mode normalized is
    left out. Raises ConeExitError where sigma_k is not positive (`_speed`)."""
    r, r1, r2, w = geo.r, geo.r1, geo.r2, geo.w
    sig = geo.sigma.T
    f = _speed(sig, k)
    grads = _gradient_tables(geo.kappa)  # [m - 1][i] is dsigma_m/dkappa_i
    dfk = -f * grads[k - 1]
    if k > 1:
        dfk += grads[k - 2]
    dfk /= sig[k]
    kit = geomod._grid_kit(geo.dim, geo.num_intervals)
    parallel = kit.family.linear_fold(kit, dfk, r, r1)
    # w^3 dkappa_rad/dr' = r' (4 - 3 kappa_rad w)
    b = 4.0 - 3.0 * geo.kappa[:, 0] * w
    b *= dfk[0]
    b *= r1
    b -= parallel
    w2 = w * w
    b /= w2 * r
    b += f * r1 / (w * r)
    c = -dfk[0] / w2
    # the stage map is homogeneous of degree one in (r, r', r''): a r + b r' + c r'' = F w / r
    a = f * w / r
    a -= b * r1
    a -= c * r2
    a /= r
    return a, b, c


def _rho_bound(geo: PointwiseGeometry, k: int) -> float:
    """The Collatz-Wielandt bound max_i (|J| x)_i / x_i on the spectral
    radius of `_linearization`'s J, at x = |J|^CW_STEPS 1 (Horn & Johnson,
    Matrix Analysis, 2nd ed., 8.1). Row i of J holds b_i times the first
    and c_i times the second row of the kit's (2, 7) stencil weights
    against the taps of node i, plus a_i at the node itself: its centre
    entry is a - 490 c / 180h^2. |J| x is their moduli against the gather
    of x, near the profile's poles with the reflected taps unfolded, which only
    raises each row. So at x = 1 the ratio is the largest row sum of |J|,
    and each power step gives a rigorous bound no larger. Raises
    ConeExitError where sigma_k is not positive."""
    kit = geomod._grid_kit(geo.dim, geo.num_intervals)
    a, b, c = _linearization(geo, k)
    off = kit.weights.T.dot(np.stack((b, c)))  # (7, M): the entries against x[kit.taps]
    off[0] += a
    off = np.abs(off)
    x = np.add.reduce(off, axis=0)  # |J| 1
    bound = float(x[x.argmax()])
    for _ in range(CW_STEPS):
        y = np.add.reduce(off * x[kit.taps], axis=0)
        ratio = y / x
        bound = float(ratio[ratio.argmax()])
        x = y
    return bound


def stability_cap(geo: PointwiseGeometry, k: int, cfl: float) -> float:
    """Step cap cfl * REAL_STABILITY / `_rho_bound` on the flow at geo; a
    stability guard, not an error bound. `run` refreshes its cap here. Raises
    ConeExitError where sigma_k is not positive. cfl passes the gate of
    FlowConfig's cfl_coefficient, `symfunc._real`."""
    cfl = _real(cfl, "cfl", 0.0)
    return cfl * REAL_STABILITY / _rho_bound(geo, _whole(k, "flow degree k", 1, geo.dim))


def _strictly_kconvex(geo: PointwiseGeometry, k: int) -> tuple[bool, str]:
    """(True, "") inside the open cone Gamma_k, else False and the first failing degree."""
    for m, row in enumerate(geo.sigma.T[1 : k + 1], 1):
        low = row[row.argmin()]  # the first NaN, if any: it compares false, as in `_cone_status`
        if not low > 0.0:
            return False, f"sigma_{m} min {low:.6e}"
    return True, ""


@dataclass(frozen=True)
class _Rejection:
    """Why a trial step was rejected; drift_rate (relative drift of the
    conserved quantity per unit time) is set for a conservation rejection."""

    reason: str
    drift_rate: float | None = None

    def __str__(self) -> str:
        return self.reason


def _attempt(state: FlowState, dt: float, config: FlowConfig):
    """One SSP-RK3 trial step; returns (new_state, None) or (None, _Rejection).

    Stage 1 is the stage map the state carries (`_first_stage`). Stage
    inputs and the update are built in place from the same operands, added
    in the same order, as r0 + dt k1, r0 + (dt/4)(k1 + k2) and
    r0 + (dt/6)(k1 + k2 + 4 k3). The stage map at a strictly k-convex
    candidate is evaluated once, on its geometry: its V_held is the
    conservation guard's, and the accepted state carries it to the next step.
    """
    r0 = state.graph.r
    kit = geomod._grid_kit(state.geo.dim, state.geo.num_intervals)
    law = _law(config.mode, config.n, config.k)
    try:
        k1, q1, v_old = _first_stage(state, law)
        x = dt * k1
        x += r0
        k2, q2, _ = _stage(kit, x, law)
        k12 = k1 + k2
        x = (0.25 * dt) * k12
        x += r0
        k3, q3, _ = _stage(kit, x, law)
        r_new = k12
        r_new += 4.0 * k3
        r_new *= dt / 6.0
        r_new += r0
        curv = geomod._curvatures(kit, r_new)
    except (ConeExitError, ValueError) as exc:
        return None, _Rejection(str(exc))
    r_new.setflags(write=False)
    graph_new = _trusted(RadialGraph, dim=state.graph.dim, r=r_new)
    geo_new = geomod._pointwise(kit, r_new, curv)
    ok, why = _strictly_kconvex(geo_new, config.k)
    if not ok:
        return None, _Rejection(f"k-convexity lost: {why}")
    drdt, rate, v_new = _geo_stage(geo_new, law)  # sigma_k > 0: it does not raise
    log_new = state.log_scale + (dt / 6.0) * (q1 + q2 + 4.0 * q3)
    if law.conserving:
        # the held V_j in the rescaled gauge: times e^{-j log_scale} in rescaled_raw
        conserved = v_new
        if law.rescaled:
            v_old *= exp(-law.held * state.log_scale)
            conserved *= exp(-law.held * log_new)
        drift = abs(conserved - v_old) / abs(v_old)
        if drift > config.tol_conserve * dt:
            return None, _Rejection(
                f"conservation drift {drift:.3e} exceeds {config.tol_conserve:.1e} * dt",
                drift / dt,
            )
    return _trusted(FlowState, t=state.t + dt, graph=graph_new, log_scale=log_new, geo=geo_new,
                    last_dt=dt, accepted=state.accepted + 1, rejections=state.rejections,
                    _carried=(law, geo_new, drdt, rate, v_new)), None


def _check_dim(config: FlowConfig, dim: int) -> None:
    if dim != config.n:
        raise ValueError(f"config n={config.n} does not match graph dim={dim}")


def step(state: FlowState, dt: float, config: FlowConfig):
    """Single trial step: the new FlowState on acceptance, None on rejection.
    Raises ValueError unless dt is a positive finite number and not a bool
    (`symfunc._real`), and when config's n is not the state's dim."""
    _check_dim(config, state.graph.dim)
    return _attempt(state, _real(dt, "dt", 0.0), config)[0]


def rescale_state(state: FlowState) -> RadialGraph:
    """Graph rescaled by e^{-log_scale}; identity at t = 0."""
    if state.log_scale == 0.0:
        return state.graph
    return state.graph.scaled(exp(-state.log_scale))


@dataclass
class TrajectoryRecord:
    """Sampled time series of one flow run.

    Columns: t, dt, log_scale, the quermassintegrals V_{n+1}..V_1 of the
    recorded graph (rescaled for mode rescaled_raw, the evolving graph
    otherwise), the iso ratios I_0..I_{n-1}, the normalization rate r_t,
    roundness of the rescaled graph and the minimum of sigma_k.
    """

    n: int
    k: int
    mode: str
    columns: tuple
    rows: list
    stop_reason: str = ""
    final_state: FlowState | None = None

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, path) -> None:
        _write_csv(path, self.columns, self.rows)


def record_columns(n: int) -> tuple:
    cols = ["t", "dt", "log_scale"]
    cols += [f"V{j}" for j in range(n + 1, 0, -1)]
    cols += [f"I{m}" for m in range(n)]
    cols += ["r_t", "roundness_rescaled", "min_sigma_k"]
    return tuple(cols)


def _record_row(state: FlowState, law: _Law) -> tuple:
    n, k = law.n, law.k
    geo = state.geo
    scale = exp(-state.log_scale) if law.rescaled else 1.0
    # each V_j once; the iso ratios are scale invariant and read the unscaled values
    vees = quermass_vector(geo).tolist()
    rate = _first_stage(state, law)[1]
    sk = geo.sigma[:, k]
    row = [state.t, state.last_dt, state.log_scale]
    row += [v * scale ** (n + 1 - m) for m, v in enumerate(vees)]
    row += [_iso(vees[m], vees[m + 1], n, m) for m in range(n)]
    row += [rate, roundness(state.graph), float(sk[sk.argmin()]) / scale**k]
    return tuple(row)


def run(config: FlowConfig, initial: RadialGraph, observer=None,
        record_samples: bool = True) -> TrajectoryRecord:
    """Integrate the flow from `initial` to t_max or until the rescaled
    graph is round to tol_round.

    Samples every `sample_every` accepted steps plus the final state.
    `observer(state)` is called at each sample. record_samples=False keeps
    only the first and final record rows (observers still fire), for
    callers that collect their own series. The step is capped by
    `stability_cap`, refreshed every RHO_EVERY accepted steps and after
    every rejection. Raises ValueError when config's n is not the graph's
    dim, or when the initial surface is not strictly k-convex or lies so
    near the edge of the cone that a probe leaves it: r lowered by
    sqrt(eps) |r| at the node of least sigma_k, under the raw stage map.
    Raises FlowError, with the partial record attached, on dt underflow,
    on a conservation drift rate that halving dt does not reduce, or when
    the stability cap is undefined (a bound that overflowed).
    """
    _check_dim(config, initial.dim)
    state = initial_state(initial)
    k = config.k
    ok, why = _strictly_kconvex(state.geo, k)
    if not ok:
        raise ValueError(f"initial surface is not strictly {k}-convex: {why}")
    # a start on the edge of the cone: lowered by sqrt(eps) |r| at the node of
    # least sigma_k, the radius leaves Gamma_k under the raw stage map
    j = int(np.argmin(state.geo.sigma[:, k]))
    probe = initial.r.copy()
    probe[j] -= sqrt(np.finfo(float).eps * float(probe.dot(probe)))
    try:
        _stage(geomod._grid_kit(initial.dim, initial.num_intervals), probe,
               _law("raw", config.n, k))
    except ConeExitError as exc:
        raise ValueError(
            f"initial surface is not strictly {k}-convex: sigma_{k} min "
            f"{state.geo.sigma[j, k]:.6e} is within a probe of the cone's edge "
            f"(probe: {exc})") from exc
    # every later state carries the stage map its attempt evaluated
    law = _law(config.mode, config.n, k)
    state = replace(state, _carried=(law, state.geo) + _geo_stage(state.geo, law))
    record = TrajectoryRecord(
        n=config.n, k=k, mode=config.mode,
        columns=record_columns(config.n), rows=[_record_row(state, law)],
    )
    observed_t = state.t
    if observer is not None:
        observer(state)

    def finish(reason: str) -> TrajectoryRecord:
        if record.rows[-1][0] != state.t:
            record.rows.append(_record_row(state, law))
        if observer is not None and observed_t != state.t:
            observer(state)
        record.stop_reason = reason
        record.final_state = state
        return record

    dt_work = config.dt_init
    dt_floor = DT_UNDERFLOW_FRACTION * config.dt_init
    since_reject = 0  # accepted steps since the start or the last rejection
    t_end = config.t_max
    eps_t = 1e-14 * max(1.0, t_end)
    drifts = []  # (drift rate, dt) of the current run of conservation rejections
    for _ in range(MAX_STEPS):
        if state.t >= t_end - eps_t:
            return finish("t_max")
        if config.tol_round > 0.0 and roundness(state.graph) < config.tol_round:
            return finish("round")
        if since_reject % RHO_EVERY == 0:
            cap = stability_cap(state.geo, k, config.cfl_coefficient)
            if not cap > 0.0:  # a bound that overflowed, or NaN
                raise FlowError(f"stability cap undefined: {cap}", finish("cap_undefined"), state)
        dt_eff = min(dt_work, config.dt_max, cap, t_end - state.t)
        new_state, why = _attempt(state, dt_eff, config)
        if new_state is None:
            dt_work = 0.5 * dt_eff
            since_reject = 0
            state = replace(state, rejections=state.rejections + 1)
            drifts = [] if why.drift_rate is None else drifts + [(why.drift_rate, dt_eff)]
            last = [rate for rate, _ in drifts[-3:]]
            if len(last) == 3 and last[1] > DRIFT_STALL * last[0] and last[2] > DRIFT_STALL * last[1]:
                rate, dt_first = drifts[0]
                raise FlowError(
                    f"conservation drift rate {rate:.3e} per unit time, first at "
                    f"dt={dt_first:.3e}, does not fall as dt is halved "
                    f"(budget tol_conserve={config.tol_conserve:.1e})",
                    finish("drift_stall"), state)
            if dt_work < dt_floor:
                raise FlowError(f"dt underflow after rejection: {why}", finish("dt_underflow"), state)
            continue
        state = new_state
        drifts = []
        since_reject += 1
        if since_reject % DOUBLE_AFTER == 0:
            dt_work = 2.0 * dt_eff
        if state.accepted % config.sample_every == 0:
            if record_samples:
                record.rows.append(_record_row(state, law))
            if observer is not None:
                observed_t = state.t
                observer(state)
    raise FlowError("step budget exhausted", finish("max_steps"), state)
