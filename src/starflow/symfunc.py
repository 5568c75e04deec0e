"""Elementary symmetric functions of principal curvature vectors.

sigma_m is evaluated by building the coefficient row sigma_0..sigma_n
incrementally, one entry at a time. The recurrence costs O(n*m), avoids
the cancellation of naive subset expansion, and is exact for integer
input up to rounding. Tables are column-major: the recurrence runs on one
contiguous array per degree, and each table is a view with contiguous
columns. Garding-cone tests live here as well, and each identity the
paper's argument uses (the polarization row-sum, the Newton gap, the
MacLaurin power gap) is written here once, as a table form on the arrays
of `elem_sym_table` and `elem_sym_gradient_table`. The scalar helpers and
`starflow verify symfunc` both read those table forms.
"""

from __future__ import annotations

from math import comb, frexp, isfinite

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


def _degree(m) -> int:
    if m != int(m):
        raise ValueError(f"degree must be an integer, got {m!r}")
    return int(m)


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
    m = _degree(m)
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    lam = _vector(lam)
    if m > lam.size:
        return 0.0
    return float(elem_sym_all(lam)[m])


def elem_sym_gradient(lam, m) -> np.ndarray:
    """elem_sym_gradient_table of one vector."""
    return elem_sym_gradient_table(_vector(lam)[None, :], m)[0]


def elem_sym_gradient_table(lams: np.ndarray, m: int) -> np.ndarray:
    """Gradient of sigma_m in the principal frame, per row: (M, n) -> (M, n).

    Entry i is sigma_{m-1} of the row with entry i removed, which is the
    diagonal of the matrix derivative of sigma_m evaluated on a
    diagonal argument.
    """
    lams = _batch(lams)
    rows, n = lams.shape
    m = _degree(m)
    if not 1 <= m <= n:
        raise ValueError(f"gradient degree m={m} out of range 1..{n}")
    out = np.empty((n, rows))
    for i in range(n):
        out[i] = _sym_rows(np.delete(lams.T, i, axis=0), m - 1)[m - 1]
    return out.T


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


def polarized_sigma_square_table(lams: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Polarization sum_i dsigma_m/dlam_i * lam_i^2 of each row, from grad =
    elem_sym_gradient_table(lams, m); equals sigma_1*sigma_m - (m+1)*sigma_{m+1}."""
    return np.sum(grad * lams * lams, axis=1)


def polarized_sigma_square(lam, m) -> float:
    """polarized_sigma_square_table of one vector."""
    lam = _vector(lam)[None, :]
    return float(polarized_sigma_square_table(lam, elem_sym_gradient_table(lam, m))[0])


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
    k = _degree(k)
    if not 1 <= k <= lam.size - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={lam.size}")
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
    k = _degree(k)
    if not 1 <= k <= lam.size:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={lam.size}")
    sig = elem_sym_table(lam[None, :])
    if not np.all(sig[0, 1 : k + 1] > 0.0):
        raise ValueError(f"vector is not strictly {k}-convex")
    return float(maclaurin_power_gap_table(sig, k)[0])
