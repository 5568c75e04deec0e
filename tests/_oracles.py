"""Independent oracles used across the test modules.

These deliberately avoid the library's evaluation paths: symmetric
functions by subset enumeration and by the row-major table update,
curvature by second-order finite differences on embedded points,
integrals by very fine trapezoid sums, and the sixth-order radial
stencils on an array padded with ghost nodes.
"""

from itertools import combinations
from math import prod

import numpy as np


def sigma_subsets(lam, m):
    """Elementary symmetric function by brute-force subset enumeration."""
    lam = list(lam)
    if m == 0:
        return 1.0
    if m > len(lam):
        return 0.0
    return float(sum(prod(c) for c in combinations(lam, m)))


def elem_sym_table_rowmajor(lams):
    """sigma_0..sigma_n of each row of an (M, n) array by the simultaneous
    update e_m <- e_m + lam_j * e_{m-1}, written on a row-major (M, n + 1)
    table one strided column slice at a time."""
    lams = np.asarray(lams, float)
    rows, n = lams.shape
    e = np.zeros((rows, n + 1))
    e[:, 0] = 1.0
    for j in range(n):
        e[:, 1 : j + 2] = e[:, 1 : j + 2] + lams[:, j : j + 1] * e[:, 0 : j + 1]
    return e


def elem_sym_gradient_rowmajor(lams, m):
    """Gradient of sigma_m per row: entry i is sigma_{m-1} of the row with
    entry i deleted, read from the full row-major table of that row."""
    lams = np.asarray(lams, float)
    out = np.empty(lams.shape)
    for i in range(lams.shape[1]):
        out[:, i] = elem_sym_table_rowmajor(np.delete(lams, i, axis=1))[:, m - 1]
    return out


def stencil_derivatives_padded(r, dim, h):
    """Sixth-order centered first and second derivatives of radial samples,
    evaluated on a copy padded with three ghost nodes at each end:
    periodic wrap for dim 1, even reflection about both poles for dim 2.
    Written as the plain slice formula, term by term in stencil order."""
    r = np.asarray(r, float)
    if dim == 1:
        pad = np.concatenate([r[-3:], r, r[:3]])
    else:
        pad = np.concatenate([r[3:0:-1], r, r[-2:-5:-1]])
    f = pad[3:-3]
    a1 = pad[4:-2] - pad[2:-4]
    a2 = pad[5:-1] - pad[1:-5]
    a3 = pad[6:] - pad[:-6]
    s1 = pad[4:-2] + pad[2:-4]
    s2 = pad[5:-1] + pad[1:-5]
    s3 = pad[6:] + pad[:-6]
    d1 = (45.0 * a1 - 9.0 * a2 + a3) / (60.0 * h)
    d2 = (270.0 * s1 - 27.0 * s2 + 2.0 * s3 - 490.0 * f) / (180.0 * h * h)
    return d1, d2


def curve_curvature_fd2(points):
    """Signed curvature of a closed polygon by plain second-order
    centered differences in the node index; outward-normal convention
    gives +1/R on a counterclockwise circle."""
    pts = np.asarray(points, float)
    m = pts.shape[0]
    d = 2.0 * np.pi / m
    x, y = pts[:, 0], pts[:, 1]
    x1 = (np.roll(x, -1) - np.roll(x, 1)) / (2 * d)
    y1 = (np.roll(y, -1) - np.roll(y, 1)) / (2 * d)
    x2 = (np.roll(x, -1) - 2 * x + np.roll(x, 1)) / d**2
    y2 = (np.roll(y, -1) - 2 * y + np.roll(y, 1)) / d**2
    return (x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** 1.5


def meridian_curvatures_fd2(points):
    """Principal curvatures of a surface of revolution from meridian
    (rho, z) samples on [0, pi], by second-order differences with
    odd/even reflection at the poles. Returns (M, 2) array."""
    pts = np.asarray(points, float)
    m = pts.shape[0]
    d = np.pi / (m - 1)
    rho = np.concatenate([[2 * pts[0, 0] - pts[1, 0]], pts[:, 0], [2 * pts[-1, 0] - pts[-2, 0]]])
    zz = np.concatenate([[pts[1, 1]], pts[:, 1], [pts[-2, 1]]])
    r1 = (rho[2:] - rho[:-2]) / (2 * d)
    z1 = (zz[2:] - zz[:-2]) / (2 * d)
    r2 = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / d**2
    z2 = (zz[2:] - 2 * zz[1:-1] + zz[:-2]) / d**2
    w = np.sqrt(r1 * r1 + z1 * z1)
    k_mer = (z1 * r2 - r1 * z2) / w**3
    k_par = np.empty(m)
    k_par[1:-1] = (-z1[1:-1] / w[1:-1]) / pts[1:-1, 0]
    k_par[0] = (4 * k_par[1] - k_par[2]) / 3.0
    k_par[-1] = (4 * k_par[-2] - k_par[-3]) / 3.0
    return np.stack([k_mer, k_par], axis=1)


def ellipse_perimeter(a, b, n=1 << 16):
    """Perimeter by a fine trapezoid sum over the parametric form."""
    t = 2.0 * np.pi * np.arange(n) / n
    return float(np.sum(np.hypot(a * np.sin(t), b * np.cos(t))) * (2.0 * np.pi / n))


def ellipse_mean_radius(a, b, n=1 << 16):
    """Average of the polar radius over the angle."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = a * b / np.sqrt(b * b * np.cos(t) ** 2 + a * a * np.sin(t) ** 2)
    return float(np.mean(r))
