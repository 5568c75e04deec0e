"""Independent oracles used across the test modules.

These deliberately avoid the library's evaluation paths: symmetric
functions by subset enumeration and by the row-major table update,
curvature by second-order finite differences on embedded points,
integrals by very fine trapezoid sums, the sixth-order radial
stencils on an array padded with ghost nodes, the radial-graph
curvature data on row-major per-node tables, one unstacked grid kit,
the af sampler one candidate at a time, the spectral derivatives one
transform per derivative, and the flow's conserved quantity through
`geometry.quermass`, not through the stage map.
"""

from itertools import combinations
from math import exp, pi, prod

import numpy as np

from starflow import geometry


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


def gradient_tables_rowmajor(lams):
    """Gradients of every degree in the layout of symfunc's all-degree path,
    an (n, n, M) array whose [m - 1].T is elem_sym_gradient_rowmajor(lams, m)."""
    lams = np.asarray(lams, float)
    return np.stack([elem_sym_gradient_rowmajor(lams, m).T for m in range(1, lams.shape[1] + 1)])


# the sixth-order centered stencil against the node, the nodes 1..3 ahead and the
# nodes 1..3 behind: 60h times the first derivative, 180h^2 times the second
STENCIL_ROWS = [[0.0, 45.0, -9.0, 1.0, -45.0, 9.0, -1.0],
                [-490.0, 270.0, -27.0, 2.0, 270.0, -27.0, 2.0]]


def stencil_weights(h):
    """The (2, 7) weights of the first and second derivative on a grid of spacing h."""
    return np.array(STENCIL_ROWS) / np.array([[60.0 * h], [180.0 * h * h]])


def stencil_derivatives_padded(r, dim, h):
    """Sixth-order centered first and second derivatives of radial samples,
    evaluated on a copy padded with three ghost nodes at each end:
    periodic wrap for dim 1, even reflection about both poles for dim 2.
    The seven shifted slices of the padded copy, in tap order, times the
    (2, 7) weights; the dim-2 first derivative is 0 at both poles."""
    r = np.asarray(r, float)
    if dim == 1:
        pad = np.concatenate([r[-3:], r, r[:3]])
    else:
        pad = np.concatenate([r[3:0:-1], r, r[-2:-5:-1]])
    size = r.size
    shifted = np.stack([pad[3 + d : 3 + d + size] for d in (0, 1, 2, 3, -1, -2, -3)])
    d1, d2 = stencil_weights(h) @ shifted
    if dim == 2:
        d1[[0, -1]] = 0.0
    return d1, d2


def curvatures_rowmajor(r, dim):
    """(kappa, sigma, w, u, dmu) of radial samples on the grid of
    geometry.RadialGraph, with kappa an (M, n) and sigma an (M, n + 1)
    table written one strided column at a time, the parallel curvature
    (r - r' cot) / (r w) computed on the interior nodes only and set to the
    meridian value at the poles. Derivatives from stencil_derivatives_padded; the
    arithmetic is the formula of geometry.compute_geometry, term by term."""
    r = np.asarray(r, float)
    size = r.size
    if dim == 1:
        h = 2.0 * np.pi / size
    else:
        h = np.pi / (size - 1)
    r1, r2 = stencil_derivatives_padded(r, dim, h)
    rr = r * r
    r1r1 = r1 * r1
    w2 = rr + r1r1
    w = np.sqrt(w2)
    k_rad = (rr + 2.0 * r1r1 - r * r2) / (w2 * w)
    if dim == 1:
        kappa = k_rad[:, None]
        sig = np.empty((size, 2))
        sig[:, 0] = 1.0
        sig[:, 1] = k_rad
        dmu = np.full(size, h) * w
    else:
        phi = np.pi * np.arange(size) / (size - 1)
        sin = np.sin(phi)
        cot = np.cos(phi[1:-1]) / sin[1:-1]
        kappa = np.empty((size, 2))
        kappa[:, 0] = k_rad
        kappa[1:-1, 1] = (r[1:-1] - r1[1:-1] * cot) / (r[1:-1] * w[1:-1])
        kappa[0, 1] = k_rad[0]
        kappa[-1, 1] = k_rad[-1]
        sig = np.empty((size, 3))
        sig[:, 0] = 1.0
        sig[:, 1] = kappa[:, 0] + kappa[:, 1]
        sig[:, 2] = kappa[:, 0] * kappa[:, 1]
        simpson = np.ones(size)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        dmu = simpson * (h / 3.0) * (2.0 * np.pi) * sin * (r * w)
    return kappa, sig, w, rr / w, dmu


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


def grid_kit_arrays(dim, size):
    """The node arrays of one unstacked grid kit, built node table by node
    table: (param, cot, poles, quadrature, area_weight, taps, weights), with
    None for the dim-1 cot and no dim-1 pole; the dim-2 cot is cos / sin with
    sin read as 1 at both poles, and its quadrature is composite Simpson."""
    nodes = np.arange(size)
    ahead = nodes + np.arange(1, 4)[:, None]
    behind = nodes - np.arange(1, 4)[:, None]
    if dim == 1:
        h = 2.0 * pi / size
        taps = np.concatenate([nodes[None], ahead % size, behind % size])
        return (2.0 * pi * nodes / size, None, np.array([], dtype=int), np.full(size, h),
                np.full(size, h), taps, stencil_weights(h))
    top = size - 1
    param = pi * nodes / top
    h = pi / top
    sin = np.sin(param)
    safe = sin.copy()
    safe[[0, -1]] = 1.0
    simpson = np.ones(size)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    taps = np.concatenate([nodes[None], np.where(ahead > top, 2 * top - ahead, ahead),
                           np.abs(behind)])
    return (param, np.cos(param) / safe, np.array([0, top]), simpson * (h / 3.0),
            simpson * (h / 3.0) * (2.0 * pi) * sin, taps, stencil_weights(h))


def random_kconvex_sample(rng, n, k, num):
    """One strictly k-convex single-mode perturbed sphere: candidates drawn,
    built and tested one at a time, at most 64 of them."""
    for _ in range(64):
        eps = rng.uniform(0.02, 0.3)
        mode = int(rng.integers(2, 5))
        try:
            g = geometry.perturbed_sphere(1.0, eps, mode=mode, dim=n, num=num)
        except geometry.ShapeError:
            continue
        geo = geometry.compute_geometry(g)
        if geometry.kconvex_report(geo, k).strict:
            return geo
    raise RuntimeError("could not draw a strictly k-convex sample")


def dspec(f):
    """Spectral first derivative of a 1-D sample on the 2pi-periodic grid,
    the Nyquist mode of an even length set to zero."""
    m = f.size
    spec = np.fft.rfft(f)
    ell = np.arange(spec.size)
    d1 = spec * (1j * ell)
    if m % 2 == 0:
        d1[-1] = 0.0
    return np.fft.irfft(d1, m)


def d2spec(f):
    """Spectral second derivative of a 1-D sample on the 2pi-periodic grid."""
    m = f.size
    spec = np.fft.rfft(f)
    ell = np.arange(spec.size)
    return np.fft.irfft(spec * -(ell * ell), m)


def held_index(n, k):
    """j of the V_j that the degree-k flow holds: n - k for k <= n - 1, n + 1 at k = n."""
    return n - k if k <= n - 1 else n + 1


def held_quermass(geo, n, k):
    """The held V_j of the degree-k flow at geo, from `geometry.quermass`."""
    return geometry.quermass(geo, n + 1 - held_index(n, k))


def conserved_value(geo, log_scale, config):
    """The quantity a conserving flow mode holds fixed, in the rescaled gauge:
    the held V_j, times e^{-j log_scale} in mode rescaled_raw; None in mode raw."""
    if config.mode == "raw":
        return None
    value = held_quermass(geo, config.n, config.k)
    if config.mode == "normalized":
        return value
    return exp(-held_index(config.n, config.k) * log_scale) * value
