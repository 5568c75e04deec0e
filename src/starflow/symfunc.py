"""Elementary symmetric functions of principal curvature vectors.

sigma_m is evaluated by building the coefficient row sigma_0..sigma_n
incrementally, one entry at a time. The recurrence costs O(n*m), avoids
the cancellation of naive subset expansion, and is exact for integer
input up to rounding. Garding-cone tests, the Newton and MacLaurin gaps
and the polarization identity used by the evolution equations live here
as well.
"""

from __future__ import annotations

from math import comb

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
    "newton_maclaurin_check",
    "maclaurin_power_bound",
]


def _vector(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("curvature vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("curvature vector contains non-finite entries")
    return arr


def _degree(m) -> int:
    if m != int(m):
        raise ValueError(f"degree must be an integer, got {m!r}")
    return int(m)


def elem_sym_table(lams: np.ndarray) -> np.ndarray:
    """All sigma_0 .. sigma_n for a batch of vectors.

    Parameters
    ----------
    lams : (M, n) array
        One curvature vector per row.

    Returns
    -------
    (M, n + 1) array with column m holding sigma_m of each row.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2:
        raise ValueError("expected a (M, n) array of curvature vectors")
    rows, n = lams.shape
    e = np.zeros((rows, n + 1))
    e[:, 0] = 1.0
    for j in range(n):
        # simultaneous update: new e_m = e_m + lam_j * e_{m-1}
        e[:, 1 : j + 2] = e[:, 1 : j + 2] + lams[:, j : j + 1] * e[:, 0 : j + 1]
    return e


def elem_sym_all(lam) -> np.ndarray:
    """sigma_0 .. sigma_n of a single vector."""
    return elem_sym_table(_vector(lam)[None, :])[0]


def elem_sym(lam, m) -> float:
    """sigma_m(lam); sigma_0 = 1 and sigma_m = 0 for m > n."""
    m = _degree(m)
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    lam = _vector(lam)
    if m > lam.size:
        return 0.0
    return float(elem_sym_all(lam)[m])


def elem_sym_gradient(lam, m) -> np.ndarray:
    """Gradient of sigma_m in the principal frame.

    Entry i is sigma_{m-1} of lam with entry i removed, which is the
    diagonal of the matrix derivative of sigma_m evaluated on a
    diagonal argument.
    """
    lam = _vector(lam)
    m = _degree(m)
    n = lam.size
    if not 1 <= m <= n:
        raise ValueError(f"gradient degree m={m} out of range 1..{n}")
    return elem_sym_gradient_table(lam[None, :], m)[0]


def elem_sym_gradient_table(lams: np.ndarray, m: int) -> np.ndarray:
    """Batched elem_sym_gradient: (M, n) -> (M, n)."""
    lams = np.asarray(lams, dtype=float)
    rows, n = lams.shape
    m = _degree(m)
    if not 1 <= m <= n:
        raise ValueError(f"gradient degree m={m} out of range 1..{n}")
    if n == 1:
        return np.ones((rows, 1))  # sigma_0 of the empty vector
    out = np.empty((rows, n))
    for i in range(n):
        out[:, i] = elem_sym_table(np.delete(lams, i, axis=1))[:, m - 1]
    return out


def cnk(n, k) -> float:
    """Ratio sigma_k(I)/sigma_{k-1}(I) = (n - k + 1)/k for the all-ones vector."""
    n, k = _degree(n), _degree(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return comb(n, k) / comb(n, k - 1)


def in_gamma_k(lam, k, strict: bool = True, tol_cone: float = 1e-10) -> bool:
    """Garding cone membership: sigma_m positive for all m <= k.

    With strict=False the closure is approximated by sigma_m >=
    -tol_cone * scale**m, where scale = max(1, max|lam|) accounts for
    the degree-m homogeneity of sigma_m.
    """
    lam = _vector(lam)
    k = _degree(k)
    if not 1 <= k <= lam.size:
        raise ValueError(f"cone level k={k} out of range 1..{lam.size}")
    sig = elem_sym_all(lam)
    if strict:
        return bool(np.all(sig[1 : k + 1] > 0.0))
    scale = max(1.0, float(np.max(np.abs(lam))))
    floor = -tol_cone * scale ** np.arange(1, k + 1)
    return bool(np.all(sig[1 : k + 1] >= floor))


def polarized_sigma_square(lam, m) -> float:
    """Polarization sigma_{m-1,1}(lam; lam^2) = sum_i dsigma_m/dlam_i * lam_i^2.

    Satisfies sigma_1*sigma_m - (m+1)*sigma_{m+1} identically.
    """
    lam = _vector(lam)
    grad = elem_sym_gradient(lam, m)
    return float(np.dot(grad, lam * lam))


def newton_maclaurin_check(lam, k) -> float:
    """Gap of the Newton inequality at level k.

    Returns sigma_{k+1}(I)sigma_{k-1}(I)/sigma_k(I)^2 minus the same
    ratio at lam; nonnegative for every real vector. Raises
    ZeroDivisionError when sigma_k(lam) vanishes.
    """
    lam = _vector(lam)
    k = _degree(k)
    n = lam.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    sig = elem_sym_all(lam)
    if sig[k] == 0.0:
        raise ZeroDivisionError(f"sigma_{k} vanishes; Newton ratio undefined")
    ref = comb(n, k + 1) * comb(n, k - 1) / comb(n, k) ** 2
    return ref - sig[k + 1] * sig[k - 1] / sig[k] ** 2


def maclaurin_power_bound(lam, k) -> float:
    """Gap of the MacLaurin power bound sigma_{k+1} <= C * sigma_k^(1+1/k).

    C is the sharp dimensional constant binom(n,k+1)/binom(n,k)^((k+1)/k),
    attained on multiples of the all-ones vector. Requires lam strictly
    inside the Garding cone of level k.
    """
    lam = _vector(lam)
    k = _degree(k)
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not in_gamma_k(lam, k, strict=True):
        raise ValueError(f"vector is not strictly {k}-convex")
    sig = elem_sym_all(lam)
    c = comb(n, k + 1) / comb(n, k) ** ((k + 1) / k) if k < n else 0.0
    tail = sig[k + 1] if k + 1 <= n else 0.0
    return c * sig[k] ** (1.0 + 1.0 / k) - tail
