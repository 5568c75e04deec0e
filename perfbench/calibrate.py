"""Reference kernel that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to 1.6x for tens of seconds at a time, which moves every wall time
alike. Each repetition times this kernel right before and right after the
workload's main call, and `wall_ref` divides the workload's wall time by
the kernel's: the host's drift cancels, and a change to `src/` moves only
the numerator. `setup_s` must be in seconds, so it is the set-up time
divided by the kernel time right after set-up, times NOMINAL_S.

The kernel is frozen in the benchmark and does not touch starflow: an
explicit RK4 integration of a curvature flow of a radial graph r(theta) on
a periodic grid, with the same mix of interpreter overhead and small-array
numpy arithmetic as `flow.run` (rolls, powers, square roots, reductions,
float conversions, one small object per step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

GRIDS = (128, 512)
STEPS = 300
# the kernel's median time on the host the benchmark was tuned on (2 vCPUs,
# Intel Xeon, Python 3.11.7, numpy 2.4.6); `setup_s` is given in seconds
# at this host speed
NOMINAL_S = 0.150


@dataclass(frozen=True)
class _State:
    t: float
    r: np.ndarray


def _rhs(r: np.ndarray, h: float) -> np.ndarray:
    ahead, behind = np.roll(r, -1), np.roll(r, 1)
    rp = (ahead - behind) / (2.0 * h)
    rpp = (ahead - 2.0 * r + behind) / (h * h)
    q = r * r + rp * rp
    kappa = (q + rp * rp - r * rpp) / q**1.5
    speed = kappa * np.sqrt(q) / r
    mean = float(np.sum(speed * r)) / float(np.sum(r))
    if float(np.min(q)) <= 0.0:
        raise FloatingPointError("degenerate reference curve")
    return mean - speed


def _integrate(n: int, steps: int) -> float:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    h = 2.0 * np.pi / n
    dt = 0.2 * h * h
    state = _State(0.0, 1.0 + 0.2 * np.cos(2.0 * theta))
    for _ in range(steps):
        r = state.r
        k1 = _rhs(r, h)
        k2 = _rhs(r + 0.5 * dt * k1, h)
        k3 = _rhs(r + 0.5 * dt * k2, h)
        k4 = _rhs(r + dt * k3, h)
        state = _State(state.t + dt, r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return float(np.max(state.r) - np.min(state.r))


def reference_s() -> float:
    """Seconds the reference kernel takes on the host as it is now."""
    t0 = time.perf_counter()
    for n in GRIDS:
        _integrate(n, STEPS)
    return time.perf_counter() - t0
