"""Time integration of the expanding curvature-ratio flow on radial graphs.

The raw flow moves the surface at normal speed sigma_{k-1}/sigma_k of the
principal curvatures; in the radial gauge this is d r/dt = F * w / r at
every grid node. The normalized variant subtracts r(t) * u * nu, chosen so
that the quermassintegral V_{n-k} stays constant, which in the radial gauge
is an extra -r(t) * r term. Stepping is classical RK4; every stage is
one call of the stage map `_stage_map`, fed by `_stage` from bare
curvature rows or by `_geo_stage` from a PointwiseGeometry. The full
PointwiseGeometry is built once per attempt, for the candidate state,
and that state's conserved quantity is kept on it for the next step.
The accumulated log-scale integral of r(t) is advanced with the same
stage weights so that e^{-log_scale} times the raw trajectory
reproduces the normalized one to integration order.

Step-size control is accept/reject: a step is accepted when the radius
stays positive, strict k-convexity holds, and (in conserving modes) the
per-step drift of the conserved quermassintegral stays under
tol_conserve * dt. The working dt doubles after ten straight acceptances
and is clamped by the stability cap cfl * 2.785 / rho: 2.785 is the
length of RK4's stability interval on the negative real axis, where the
spectrum of this parabolic flow lies, and rho bounds the spectral radius
of the Jacobian of the stage map. rho is 1.2 times a nonlinear power
iteration estimate on difference quotients of the stage map (the RKC
estimate of Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88,
1998), refreshed every 25 accepted steps and after every rejection, each
time warm-started from the previous iterate. A run of conservation
rejections whose drift rate does not fall as dt is halved stops with
the first drift rate and its dt: no step size can fix it.

The conventions are read, not restated: `monotone_pair` decides which
V_j a flow holds, and so its scale rate, `CONSERVING_MODES` which modes
hold it, `geometry.quermass` computes every V_j, `geometry._iso` is the
I_m formula of the record, and `symfunc._cone_status` is the strict
k-convexity test of step acceptance. The grid is the initial graph's:
FlowConfig holds no grid size, and `geometry` owns the rule for one.
FlowConfig requires a finite t_max and dt_init and tol_round >= 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from math import exp, isfinite, sqrt

import numpy as np

from . import geometry as geomod
from .geometry import (
    PointwiseGeometry,
    RadialGraph,
    ShapeError,
    _iso,
    compute_geometry,
    quermass,
    quermass_sigma,  # noqa: F401 -- perfbench/selftest.py checks its tracer patches flow's name
    roundness,
)
from .symfunc import _cone_status, cnk

__all__ = [
    "MODES",
    "CONSERVING_MODES",
    "FlowConfig",
    "FlowConfigError",
    "FlowState",
    "TrajectoryRecord",
    "FlowError",
    "ConeExitError",
    "speed_raw",
    "normalization_rt",
    "volume_scale_rate",
    "radial_rhs",
    "stability_cap",
    "initial_state",
    "step",
    "run",
    "rescale_state",
]

CONSERVING_MODES = ("normalized", "rescaled_raw")  # hold monotone_pair's V_j; raw holds none
MODES = ("raw",) + CONSERVING_MODES

DT_UNDERFLOW_FRACTION = 1e-12
DOUBLE_AFTER = 10
MAX_STEPS = 5_000_000
# RK4 is stable for dt * lambda in [-2.785, 0] on the real axis
RK4_REAL_STABILITY = 2.785
# the power iteration approaches rho from below or alternates about it;
# the cap divides by RHO_SAFETY times the estimate
RHO_SAFETY = 1.2
RHO_EVERY = 25  # accepted steps between spectral-radius estimates
RHO_RTOL = 5e-3  # the iteration stops when the estimate moves less than this
RHO_MAX_ITER = 60
# a halving of dt that leaves the drift rate above this fraction of its
# previous value did not reduce it; two in a row end the run
DRIFT_STALL = 0.75


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
    # fraction of RK4's real-axis stability interval the step may use
    cfl_coefficient: float = 0.5

    def __post_init__(self):
        # the `not x > 0` form also rejects NaN, which compares false
        if self.n not in (1, 2):
            raise FlowConfigError("n", f"n must be 1 or 2, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise FlowConfigError("k", f"flow degree k={self.k} out of range 1..{self.n}")
        if self.mode not in MODES:
            raise FlowConfigError("mode", f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "normalized" and monotone_pair(self.n, self.k)[1] != self.n - self.k:
            raise FlowConfigError(
                "k",
                f"normalized mode needs k <= n-1 (r(t) degenerates at k=n); "
                f"got k={self.k}, n={self.n}; use rescaled_raw instead",
            )
        if not (self.t_max > 0.0 and isfinite(self.t_max)):
            raise FlowConfigError("t_max", f"t_max must be positive and finite, got {self.t_max}")
        if not self.dt_max > 0.0:
            raise FlowConfigError("dt_max", f"dt_max must be positive, got {self.dt_max}")
        # an infinite dt_init would make the dt underflow floor infinite
        if not (0.0 < self.dt_init <= self.dt_max and isfinite(self.dt_init)):
            raise FlowConfigError("dt_init", f"need a finite dt_init with 0 < dt_init <= dt_max, "
                                             f"got {self.dt_init} and {self.dt_max}")
        if self.sample_every < 1:
            raise FlowConfigError(
                "sample_every", f"sample_every must be >= 1, got {self.sample_every}"
            )
        if not self.tol_conserve >= 0.0:
            raise FlowConfigError(
                "tol_conserve", f"tol_conserve must be >= 0, got {self.tol_conserve}"
            )
        if not self.tol_round >= 0.0:
            raise FlowConfigError("tol_round", f"tol_round must be >= 0, got {self.tol_round}")
        if not self.cfl_coefficient > 0.0:
            raise FlowConfigError(
                "cfl_coefficient", f"cfl_coefficient must be positive, got {self.cfl_coefficient}"
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
    # conserved quantity of this state under the config that produced it
    # (None: not computed yet, or raw mode); _attempt recomputes it when None
    conserved: float | None = field(default=None, compare=False, repr=False)


def initial_state(graph: RadialGraph) -> FlowState:
    return FlowState(t=0.0, graph=graph, log_scale=0.0, geo=compute_geometry(graph))


def monotone_pair(n: int, k: int) -> tuple:
    """(m, j): the flow of degree k raises the iso ratio I_m and holds V_j,
    that is (k, n - k) for k <= n - 1 and (0, n + 1) at k = n."""
    return (k, n - k) if k <= n - 1 else (0, n + 1)


def _speed(sig: np.ndarray, k: int) -> np.ndarray:
    """sigma_{k-1}/sigma_k from the (n + 1, M) rows sigma_0..sigma_n."""
    if not 1 <= k < sig.shape[0]:
        raise ValueError(f"flow degree k={k} out of range 1..{sig.shape[0] - 1}")
    sk = sig[k]
    if np.minimum.reduce(sk) <= 0.0:
        j = int(sk.argmin())
        raise ConeExitError(f"sigma_{k} <= 0 at node {j}: {sk[j]:.6e}")
    return sig[k - 1] / sk


def speed_raw(geo: PointwiseGeometry, k: int) -> np.ndarray:
    """Normal speed sigma_{k-1}/sigma_k per node; positive on strictly
    k-convex data. Raises ConeExitError naming the worst node otherwise."""
    return _speed(geo.sigma.T, k)


def _rate(r: np.ndarray, w: np.ndarray, f: np.ndarray, sig: np.ndarray, dmu: np.ndarray,
          k: int, held: int) -> float:
    """Log-scale rate that holds V_held under the degree-k flow, from the
    per-node arrays, the speed f and the (n + 1, M) rows sig of
    sigma_0..sigma_n; the caller has checked sigma_k > 0.

    held = n + 1: int(F dmu) / int(u dmu) with u = r^2 / w the support
    function. held = n - k (k <= n - 1): r(t) = int(sigma_{k+1}
    sigma_{k-1} / sigma_k) / (C_{n,k+1} int sigma_k); f is not read.
    """
    n = sig.shape[0] - 1
    if held == n + 1:
        return float(np.add.reduce(f * dmu)) / float(np.add.reduce(r * r / w * dmu))
    sk = sig[k]
    num = float(np.add.reduce(sig[k + 1] * sig[k - 1] / sk * dmu))
    return num / (cnk(n, k + 1) * float(np.add.reduce(sk * dmu)))


def normalization_rt(geo: PointwiseGeometry, k: int) -> float:
    """Normalization constant r(t) holding V_{n-k} fixed.

    r(t) = int(sigma_{k+1} sigma_{k-1} / sigma_k) / (C_{n,k+1} int sigma_k);
    scale invariant. Only defined for k <= n-1: at k = n both numerator
    and the constant vanish identically.
    """
    if not 0 < k < geo.dim:
        raise ValueError(f"normalization constant needs 1 <= k <= n-1, got k={k}")
    sig = geo.sigma.T
    return _rate(geo.r, geo.w, _speed(sig, k), sig, geo.dmu, k, geo.dim - k)


def volume_scale_rate(geo: PointwiseGeometry, k: int) -> float:
    """Log-derivative rate holding the top quermassintegral V_{n+1} fixed.

    Equals int(F dmu) / int(u dmu); used as the rescaling rate for the
    k = n flow where r(t) is unavailable.
    """
    return _rate(geo.r, geo.w, speed_raw(geo, k), geo.sigma.T, geo.dmu, k, geo.dim + 1)


def _stage_map(r: np.ndarray, w: np.ndarray, sig: np.ndarray, dmu: np.ndarray,
               mode: str, k: int):
    """(d r/dt, log-scale rate) at the radial samples r from their checked
    curvature data (w, the (n + 1, M) rows sig of sigma_0..sigma_n, dmu);
    the rate holds the V_j of `monotone_pair`."""
    f = _speed(sig, k)
    rate = _rate(r, w, f, sig, dmu, k, monotone_pair(sig.shape[0] - 1, k)[1])
    drdt = f * w / r
    if mode == "normalized":
        drdt = drdt - rate * r
    return drdt, rate


def _stage(kit: geomod._GridKit, r: np.ndarray, mode: str, k: int):
    """The stage map at r on kit's grid from bare curvature rows: no PointwiseGeometry."""
    _, _, w, _, _, sig, dmu = geomod._curvatures(kit, r)
    return _stage_map(r, w, sig, dmu, mode, k)


def _geo_stage(geo: PointwiseGeometry, mode: str, k: int):
    return _stage_map(geo.r, geo.w, geo.sigma.T, geo.dmu, mode, k)


def radial_rhs(geo: PointwiseGeometry, mode: str, k: int) -> np.ndarray:
    """Radial-gauge right-hand side d r/dt per node.

    raw / rescaled_raw: F * w / r. normalized: F * w / r - r(t) * r,
    using u * w / r = r to reduce the support-function term.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _geo_stage(geo, mode, k)[0]


def _spectral_radius(geo: PointwiseGeometry, k: int, v: np.ndarray | None = None):
    """Power-iteration estimate of the spectral radius of the Jacobian J of
    the raw stage map r -> F w / r at geo's radius; returns (rho, v).

    J v is the difference quotient (stage(r + v) - stage(r)) with |v| =
    sqrt(eps) |r|, divided by |v|. The estimate is the two-step ratio
    sqrt(|J^2 v| / |v|), which settles where the one-step ratio alternates
    (the pole mode of dim 2). v starts from the node-alternating mode, or
    from the v of the previous call (a warm start); the returned v is the
    last iterate. The normalization term of mode normalized is of order
    r(t) and is left out.
    """
    r = geo.r
    kit = geomod._grid_kit(geo.dim, r.size)
    if v is None:
        v = np.where(np.arange(r.size) % 2 == 0, 1.0, -1.0)
    f0 = _geo_stage(geo, "raw", k)[0]
    size = sqrt(np.finfo(float).eps) * sqrt(float(r @ r))
    ratio = est = 0.0
    for it in range(RHO_MAX_ITER):
        v = v * (size / sqrt(float(v @ v)))
        drdt, _ = _stage(kit, r + v, "raw", k)
        v = drdt - f0
        prev_ratio, prev_est = ratio, est
        ratio = sqrt(float(v @ v)) / size
        est = sqrt(ratio * prev_ratio)
        if not ratio > 0.0:
            break
        if it >= 2 and abs(est - prev_est) <= RHO_RTOL * est:
            break
    return est, v


def _cap(rho: float, cfl: float) -> float:
    bound = RHO_SAFETY * rho
    if not (isfinite(bound) and bound > 0.0):
        raise ConeExitError(f"stability cap undefined: spectral radius estimate {rho}")
    return cfl * RK4_REAL_STABILITY / bound


def stability_cap(geo: PointwiseGeometry, k: int, cfl: float) -> float:
    """RK4 step cap cfl * 2.785 / (1.2 rho) on the flow at geo, with rho a
    cold-start power-iteration estimate of the stage map's spectral
    radius; a stability guard, not an error bound."""
    return _cap(_spectral_radius(geo, k)[0], cfl)


def _strictly_kconvex(geo: PointwiseGeometry, k: int) -> tuple[bool, str]:
    """(True, "") inside the open cone Gamma_k, else False and the first failing degree."""
    mins = np.minimum.reduce(geo.sigma.T[1 : k + 1], axis=1)
    if _cone_status(mins, geo.kappa) == "strict":
        return True, ""
    m = int(np.argmin(mins > 0.0))
    return False, f"sigma_{m + 1} min {mins[m]:.6e}"


def _conserved_value(geo: PointwiseGeometry, log_scale: float, config: FlowConfig) -> float | None:
    """Quantity the conserving modes must hold fixed, in the rescaled gauge:
    V_j of `monotone_pair`, times e^{-j log_scale} in mode rescaled_raw."""
    if config.mode not in CONSERVING_MODES:
        return None
    held = monotone_pair(config.n, config.k)[1]
    value = quermass(geo, config.n + 1 - held)
    return value if config.mode == "normalized" else exp(-held * log_scale) * value


@dataclass(frozen=True)
class _Rejection:
    """Why a trial step was rejected; drift_rate (relative drift of the
    conserved quantity per unit time) is set for a conservation rejection."""

    reason: str
    drift_rate: float | None = None

    def __str__(self) -> str:
        return self.reason


def _attempt(state: FlowState, dt: float, config: FlowConfig):
    """One RK4 trial step; returns (new_state, None) or (None, _Rejection)."""
    r0 = state.graph.r
    dim = state.graph.dim
    kit = geomod._grid_kit(dim, r0.size)
    mode, k = config.mode, config.k
    try:
        k1, q1 = _geo_stage(state.geo, mode, k)
        k2, q2 = _stage(kit, r0 + 0.5 * dt * k1, mode, k)
        k3, q3 = _stage(kit, r0 + 0.5 * dt * k2, mode, k)
        k4, q4 = _stage(kit, r0 + dt * k3, mode, k)
        r_new = r0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        graph_new = RadialGraph(dim, r_new)
        geo_new = geomod._pointwise(kit, graph_new.r)
    except (ShapeError, ConeExitError, ValueError) as exc:
        return None, _Rejection(str(exc))
    ok, why = _strictly_kconvex(geo_new, k)
    if not ok:
        return None, _Rejection(f"k-convexity lost: {why}")
    log_new = state.log_scale + (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
    v_old = state.conserved
    if v_old is None:
        v_old = _conserved_value(state.geo, state.log_scale, config)
    v_new = None
    if v_old is not None:
        v_new = _conserved_value(geo_new, log_new, config)
        drift = abs(v_new - v_old) / abs(v_old)
        if drift > config.tol_conserve * dt:
            return None, _Rejection(
                f"conservation drift {drift:.3e} exceeds {config.tol_conserve:.1e} * dt",
                drift / dt,
            )
    new_state = FlowState(
        t=state.t + dt,
        graph=graph_new,
        log_scale=log_new,
        geo=geo_new,
        last_dt=dt,
        accepted=state.accepted + 1,
        rejections=state.rejections,
        conserved=v_new,
    )
    return new_state, None


def step(state: FlowState, dt: float, config: FlowConfig):
    """Single trial step: the new FlowState on acceptance, None on rejection."""
    return _attempt(state, dt, config)[0]


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([repr(float(v)) for v in row])


def record_columns(n: int) -> tuple:
    cols = ["t", "dt", "log_scale"]
    cols += [f"V{j}" for j in range(n + 1, 0, -1)]
    cols += [f"I{m}" for m in range(n)]
    cols += ["r_t", "roundness_rescaled", "min_sigma_k"]
    return tuple(cols)


def _record_row(state: FlowState, config: FlowConfig) -> tuple:
    n, k = config.n, config.k
    geo = state.geo
    scale = exp(-state.log_scale) if config.mode == "rescaled_raw" else 1.0
    # each V_j once; the iso ratios are scale invariant and read the unscaled values
    vees = [quermass(geo, m) for m in range(n + 1)]
    sig = geo.sigma.T
    rate = _rate(geo.r, geo.w, _speed(sig, k), sig, geo.dmu, k, monotone_pair(n, k)[1])
    row = [state.t, state.last_dt, state.log_scale]
    row += [v * scale ** (n + 1 - m) for m, v in enumerate(vees)]
    row += [_iso(vees[m], vees[m + 1], n, m) for m in range(n)]
    row += [rate, roundness(state.graph), float(np.min(geo.sigma[:, k])) / scale**k]
    return tuple(row)


def run(config: FlowConfig, initial: RadialGraph, observer=None,
        record_samples: bool = True) -> TrajectoryRecord:
    """Integrate the flow from `initial` to t_max or until the rescaled
    graph is round to tol_round.

    Samples every `sample_every` accepted steps plus the final state.
    `observer(state)` is called at each sample. record_samples=False keeps
    only the first and final record rows (observers still fire), for
    callers that collect their own series. Raises ValueError when the
    initial surface is not strictly k-convex, or so near the edge of the
    cone that the first stiffness probe leaves it, and FlowError, with the
    partial record attached, on dt underflow, on a conservation drift
    rate that halving dt does not reduce, or when the stability cap is
    undefined.
    """
    if initial.dim != config.n:
        raise ValueError(f"config n={config.n} does not match graph dim={initial.dim}")
    state = initial_state(initial)
    ok, why = _strictly_kconvex(state.geo, config.k)
    if not ok:
        raise ValueError(f"initial surface is not strictly {config.k}-convex: {why}")
    record = TrajectoryRecord(
        n=config.n, k=config.k, mode=config.mode,
        columns=record_columns(config.n), rows=[_record_row(state, config)],
    )
    observed_t = state.t
    if observer is not None:
        observer(state)

    def finish(reason: str) -> TrajectoryRecord:
        if record.rows[-1][0] != state.t:
            record.rows.append(_record_row(state, config))
        if observer is not None and observed_t != state.t:
            observer(state)
        record.stop_reason = reason
        record.final_state = state
        return record

    dt_work = config.dt_init
    dt_floor = DT_UNDERFLOW_FRACTION * config.dt_init
    streak = 0
    since_sample = 0
    t_end = config.t_max
    eps_t = 1e-14 * max(1.0, t_end)
    since_estimate = RHO_EVERY
    vec = None  # the power iteration's last vector, its next start
    drifts = []  # (drift rate, dt) of the current run of conservation rejections
    for _ in range(MAX_STEPS):
        if state.t >= t_end - eps_t:
            return finish("t_max")
        if config.tol_round > 0.0 and roundness(state.graph) < config.tol_round:
            return finish("round")
        if since_estimate >= RHO_EVERY:
            since_estimate = 0
            try:
                rho, vec = _spectral_radius(state.geo, config.k, vec)
                cap = _cap(rho, config.cfl_coefficient)
            except (ShapeError, ConeExitError, ValueError) as exc:
                # vec is None only when the first estimate itself failed, at t = 0: a
                # probe r + v that leaves the cone there shows a start on the edge of Gamma_k
                if vec is None and isinstance(exc, ConeExitError):
                    low = float(np.min(state.geo.sigma[:, config.k]))
                    raise ValueError(
                        f"initial surface is not strictly {config.k}-convex: sigma_{config.k} "
                        f"min {low:.6e} is within a stiffness probe of the cone's edge "
                        f"(probe: {exc})") from exc
                raise FlowError(f"stiffness estimate failed: {exc}", finish("cap_undefined"),
                                state) from exc
        dt_eff = min(dt_work, config.dt_max, cap, t_end - state.t)
        new_state, why = _attempt(state, dt_eff, config)
        if new_state is None:
            dt_work = 0.5 * dt_eff
            streak = 0
            since_estimate = RHO_EVERY
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
        since_estimate += 1
        streak += 1
        since_sample += 1
        if streak >= DOUBLE_AFTER:
            dt_work = 2.0 * dt_eff
            streak = 0
        if since_sample >= config.sample_every:
            since_sample = 0
            if record_samples:
                record.rows.append(_record_row(state, config))
            if observer is not None:
                observed_t = state.t
                observer(state)
    raise FlowError("step budget exhausted", finish("max_steps"), state)
