"""Elementary symmetric functions of principal curvature vectors.

sigma_m is evaluated by building the coefficient row sigma_0..sigma_n
incrementally, one entry at a time. The recurrence costs O(n*m), avoids
the cancellation of naive subset expansion, and is exact for integer
input up to rounding. Tables are column-major: the recurrence runs on one
contiguous array per degree, and each table is a view with contiguous
columns. The Garding-cone test lives here as well: `_cone_status` is the
one strict / nonstrict / violated rule, read by `in_gamma_k` and
`geometry.kconvex_report`. Its strict case, every sigma_1..sigma_k positive
(a NaN fails), has a second implementation in `flow._strictly_kconvex`, which
the flow's initial check and step acceptance read: it takes each sigma_m row at
its argmin and does not call `_cone_status`. Each identity the
paper's argument uses (the polarization row-sum, the Newton gap, the
MacLaurin power gap) is written here once, as a table form on the arrays
of `elem_sym_table` and `elem_sym_gradient_table`; the polarization reads
the Euler products lam_i * dsigma_m/dlam_i, which `starflow verify symfunc`
forms for its Euler check anyway. The scalar helpers and that suite both
read those table forms. The gradients of all degrees come from one
leave-one-out pass, `_gradient_tables`: n recurrences of n - 1 entries serve
every degree, where a pass per degree runs n^2 of them, and the n recurrences
share their prefixes, so they make (n - 1)(n + 2)/2 row updates where
independent ones make n(n - 1). `_whole` is the one gate of every integer argument of the package (a
degree, level or index): a whole number, not a bool, inside its range; `_real` is that of every real
argument with a rule (a flow time, step or tolerance, a radius, semi-axis or amplitude): a finite
number, not a bool, above its bound.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, frexp, isfinite, nan
from numbers import Real

import numpy as np

__all__ = [
    "elem_sym",
    "elem_sym_all",
    "elem_sym_table",
    "elem_sym_gradient",
    "elem_sym_gradient_table",
    "cnk",
    "in_gamma_k",
    "polarized_sigma_square",
    "polarized_sigma_square_table",
    "newton_maclaurin_check",
    "newton_gap_table",
    "maclaurin_power_bound",
    "maclaurin_power_gap_table",
]

_BOOLS = (bool, np.bool_)  # an int (or equal to one), but never a number argument


def _vector(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("curvature vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("curvature vector contains non-finite entries")
    return arr


def _batch(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2:
        raise ValueError("expected a (M, n) array of curvature vectors")
    return lams


def _whole(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """int(value) of a whole number, not a bool, inside lo..hi (a None bound is open);
    else a ValueError naming `name` (int() fails on inf, NaN and None)."""
    try:
        whole = not isinstance(value, _BOOLS) and value == int(value)
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = "..".join("" if b is None else str(b) for b in (lo, hi))
        raise ValueError(f"{name}={value} out of range {span}")
    return value


def _real(value, name: str, lo: float | None = None, strict: bool = True) -> float:
    """float(value) of a finite real number, not a bool, above lo (at least lo
    when not strict; a None lo is open); else a ValueError naming `name`. Every
    bound of the package is 0, which the message calls positive or >= 0."""
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, _BOOLS) else nan
    except OverflowError:  # an int too large for a float
        x = nan
    if isfinite(x) and (lo is None or (x > lo if strict else x >= lo)):
        return x
    rule = "a finite number" if lo is None else ("positive" if strict else ">= 0") + " and finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _sym_rows(rows: np.ndarray, top: int) -> np.ndarray:
    """sigma_0 .. sigma_top of each column of an (n, M) array, as a (top + 1, M)
    array with contiguous rows; the lower degrees never read the higher ones."""
    e = np.zeros((top + 1, rows.shape[1]))
    e[0] = 1.0
    for j in range(rows.shape[0]):
        hi = min(j + 1, top)
        # simultaneous update: new e_m = e_m + lam_j * e_{m-1} (right side first)
        e[1 : hi + 1] += rows[j] * e[0:hi]
    return e


def elem_sym_table(lams: np.ndarray) -> np.ndarray:
    """All sigma_0 .. sigma_n of a batch of vectors: (M, n) -> (M, n + 1), column
    m holding sigma_m of each row. The result is a column-major view."""
    lams = _batch(lams)
    return _sym_rows(lams.T, lams.shape[1]).T


def elem_sym_all(lam) -> np.ndarray:
    """sigma_0 .. sigma_n of a single vector."""
    return elem_sym_table(_vector(lam)[None, :])[0]


def elem_sym(lam, m) -> float:
    """sigma_m(lam); sigma_0 = 1 and sigma_m = 0 for m > n."""
    m = _whole(m, "degree m", 0)
    lam = _vector(lam)
    if m > lam.size:
        return 0.0
    return float(elem_sym_all(lam)[m])


def elem_sym_gradient(lam, m) -> np.ndarray:
    """elem_sym_gradient_table of one vector."""
    return elem_sym_gradient_table(_vector(lam)[None, :], m)[0]


def _gradient_tables(lams: np.ndarray) -> np.ndarray:
    """Gradients of sigma_1 .. sigma_n of each row of an (M, n) array, as an
    (n, n, M) array whose [m - 1].T is the (M, n) gradient table of sigma_m.

    One leave-one-out pass serves every degree: [:, i] is sigma_0 .. sigma_{n-1}
    of the rows with entry i removed, and since in `_sym_rows` the lower
    degrees never read the higher ones, each degree is bitwise the value of a
    pass that stops at it. The passes share their prefix: pass i starts from
    one copy of the state after entries 0 .. i-1 and runs `_sym_rows`' updates
    on entries i+1 .. n-1 in place, in the order of a pass on the shortened
    row, so every value is bitwise that pass's.
    """
    cols = lams.T
    rows, n = lams.shape
    out = np.empty((n, n, rows))
    prefix = np.zeros((n, rows))  # sigma_0 .. sigma_{n-1} of entries 0 .. i-1
    prefix[0] = 1.0
    for i in range(n):
        e = out[:, i]
        e[...] = prefix
        for j in range(i + 1, n):  # entry j is at position j - 1 of the shortened row
            e[1 : j + 1] += cols[j] * e[0:j]
        if i < n - 1:
            prefix[1 : i + 2] += cols[i] * prefix[0 : i + 1]
    return out


def elem_sym_gradient_table(lams: np.ndarray, m: int) -> np.ndarray:
    """Gradient of sigma_m in the principal frame, per row: (M, n) -> (M, n).

    Entry i is sigma_{m-1} of the row with entry i removed, which is the
    diagonal of the matrix derivative of sigma_m evaluated on a
    diagonal argument. A view of `_gradient_tables`, with contiguous columns.
    """
    lams = _batch(lams)
    n = lams.shape[1]
    m = _whole(m, "degree m", 1, n)
    return _gradient_tables(lams)[m - 1].T


@lru_cache(maxsize=256, typed=True)
def cnk(n, k) -> float:
    """Ratio sigma_k(I)/sigma_{k-1}(I) = (n - k + 1)/k for the all-ones vector.

    Cached, typed so that a bool never finds its integer's entry: the flow reads
    it on every stage. A bad degree raises on every call (a raise is not cached)."""
    n = _whole(n, "n")
    k = _whole(k, "k", 1, n)
    return comb(n, k) / comb(n, k - 1)


def _cone_status(mins: np.ndarray, kappa: np.ndarray) -> str:
    """Garding-cone status ("strict", "nonstrict" or "violated") of curvatures kappa
    whose sigma_1..sigma_k have the minima mins. The closure floor of sigma_m is
    -1e-10 * max(1, max|kappa|)**m; kappa is read only when a minimum is not positive."""
    if np.minimum.reduce(mins) > 0.0:  # a NaN minimum compares false
        return "strict"
    scale = max(1.0, float(np.maximum.reduce(np.abs(kappa), axis=None)))
    floor = -1e-10 * scale ** np.arange(1, mins.size + 1)
    return "nonstrict" if np.logical_and.reduce(mins >= floor) else "violated"


def in_gamma_k(lam, k, strict: bool = True) -> bool:
    """Garding cone membership: sigma_m positive for all m <= k.

    With strict=False, membership of the closure as `_cone_status` floors it:
    each sigma_m at least -1e-10 * max(1, max|lam|)**m.
    """
    lam = _vector(lam)
    k = _whole(k, "degree k", 1, lam.size)
    status = _cone_status(elem_sym_all(lam)[1 : k + 1], lam)
    return status == "strict" if strict else status != "violated"


def polarized_sigma_square_table(lams: np.ndarray, euler: np.ndarray) -> np.ndarray:
    """Polarization sum_i dsigma_m/dlam_i * lam_i^2 of each row, from the Euler
    products euler = lams * elem_sym_gradient_table(lams, m), whose row sums are
    m * sigma_m; equals sigma_1*sigma_m - (m+1)*sigma_{m+1}.

    Each term (lam_i dsigma_m/dlam_i) lam_i rounds as dsigma_m/dlam_i lam_i lam_i
    does. Given |lams| and |euler| it is the sum of the absolute terms, since a
    product of absolute values rounds to the absolute product."""
    return np.add.reduce(euler * lams, axis=1)


def polarized_sigma_square(lam, m) -> float:
    """polarized_sigma_square_table of one vector."""
    lam = _vector(lam)[None, :]
    return float(polarized_sigma_square_table(lam, lam * elem_sym_gradient_table(lam, m))[0])


def newton_gap_table(sig: np.ndarray, k: int) -> np.ndarray:
    """Newton gap at level k of each row of sig = elem_sym_table(lams):
    sigma_{k+1}sigma_{k-1}/sigma_k^2 at the all-ones vector minus the same
    ratio at the row. Nonnegative for every real vector with sigma_k != 0."""
    n = sig.shape[1] - 1
    ref = comb(n, k + 1) * comb(n, k - 1) / comb(n, k) ** 2
    return ref - sig[:, k + 1] * sig[:, k - 1] / sig[:, k] ** 2


def newton_maclaurin_check(lam, k) -> float:
    """newton_gap_table of one vector; ZeroDivisionError when sigma_k^2 vanishes.
    A gap that overflows is recomputed on the vector scaled by a power of two."""
    lam = _vector(lam)
    k = _whole(k, "degree k", 1, lam.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        sig = elem_sym_table(lam[None, :])
        if sig[0, k] ** 2 == 0.0:  # sigma_k is zero or its square underflows
            raise ZeroDivisionError(f"sigma_{k}^2 vanishes; Newton ratio undefined")
        gap = float(newton_gap_table(sig, k)[0])
    if not isfinite(gap):  # products overflowed; the gap is scale-invariant
        lam = np.ldexp(lam, -frexp(np.max(np.abs(lam)))[1])  # max |lam| now in [0.5, 1)
        gap = float(newton_gap_table(elem_sym_table(lam[None, :]), k)[0])
    return gap


def maclaurin_power_gap_table(sig: np.ndarray, k: int) -> np.ndarray:
    """Gap C * sigma_k^(1+1/k) - sigma_{k+1} of the MacLaurin power bound, per row
    of sig = elem_sym_table(lams); nonnegative on rows strictly inside Gamma_k.

    C = binom(n,k+1)/binom(n,k)^((k+1)/k) is sharp, attained on multiples of
    the all-ones vector; at k = n both C and sigma_{k+1} vanish.
    """
    n = sig.shape[1] - 1
    c = comb(n, k + 1) / comb(n, k) ** ((k + 1) / k)
    return c * sig[:, k] ** (1.0 + 1.0 / k) - (sig[:, k + 1] if k < n else 0.0)


def maclaurin_power_bound(lam, k) -> float:
    """maclaurin_power_gap_table of one vector, which must lie strictly in Gamma_k."""
    lam = _vector(lam)
    k = _whole(k, "degree k", 1, lam.size)
    sig = elem_sym_table(lam[None, :])
    if not np.all(sig[0, 1 : k + 1] > 0.0):
        raise ValueError(f"vector is not strictly {k}-convex")
    return float(maclaurin_power_gap_table(sig, k)[0])
