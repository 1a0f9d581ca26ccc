"""Independent oracle computations backing the test suite.

Nothing here reuses the package's assembly code paths.  Operators are
rebuilt by pointwise collocation on a fine grid, spectra by tensor
enumeration, torsion by singular values, integrals via adaptive
quadrature from scipy or closed forms, torus critical points by a grid
scan and Newton.  The tests then demand agreement
between these routes and the package; keeping the routes separate is
what gives the comparisons teeth.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# pointwise Fourier basis (re-derived here, not imported)

def basis_values(N, theta):
    """Rows: the 2N+1 orthonormal functions 1/sqrt(2pi), cos k/sqrt(pi),
    sin k/sqrt(pi) evaluated at the sample points theta."""
    theta = np.asarray(theta, dtype=float)
    rows = [np.full_like(theta, 1.0 / np.sqrt(TWO_PI))]
    for k in range(1, N + 1):
        rows.append(np.cos(k * theta) / np.sqrt(np.pi))
        rows.append(np.sin(k * theta) / np.sqrt(np.pi))
    return np.array(rows)


def basis_second_derivatives(N, theta):
    theta = np.asarray(theta, dtype=float)
    rows = [np.zeros_like(theta)]
    for k in range(1, N + 1):
        rows.append(-(k * k) * np.cos(k * theta) / np.sqrt(np.pi))
        rows.append(-(k * k) * np.sin(k * theta) / np.sqrt(np.pi))
    return np.array(rows)


def basis_first_derivatives(N, theta):
    theta = np.asarray(theta, dtype=float)
    rows = [np.zeros_like(theta)]
    for k in range(1, N + 1):
        rows.append(-k * np.sin(k * theta) / np.sqrt(np.pi))
        rows.append(k * np.cos(k * theta) / np.sqrt(np.pi))
    return np.array(rows)


def collocation_circle_deformed_d(N, t, fp, samples=8192):
    """Matrix of u -> u' + t fp u in the orthonormal basis, assembled by
    trapezoid collocation.

    The trapezoid rule on a periodic grid integrates trigonometric
    polynomials of degree < samples/2 exactly, so for polynomial data
    this reproduces the projected operator to rounding error by a route
    that never touches product-expansion coefficient algebra.
    """
    theta = np.arange(samples) * (TWO_PI / samples)
    B = basis_values(N, theta)
    B1 = basis_first_derivatives(N, theta)
    return (TWO_PI / samples) * (B @ (B1 + t * fp(theta) * B).T)


def collocation_circle_operator(N, t, fp, q, samples=8192):
    """Deformed Laplacian on the spanned modes: the composition of the
    projected first-order factors.  The projection happens before the
    composition, matching the finite model under study (the continuum
    Schroedinger form differs in the top-frequency entries, because the
    cutoff drops the part of fp*u that leaves the span)."""
    M = collocation_circle_deformed_d(N, t, fp, samples)
    return M.T @ M if q == 0 else M @ M.T


def collocation_circle_spectrum(N, t, fp, q, samples=8192):
    A = collocation_circle_operator(N, t, fp, q, samples)
    return np.linalg.eigvalsh(A)


def collocation_torus_multiplier(N, g, samples=64):
    """Galerkin matrix of multiplication by g(th1, th2) on the tensor
    basis (index i1 * (2N + 1) + i2 for the product of 1d modes i1, i2),
    entries by the trapezoid rule on a uniform samples x samples grid.

    The rule is exact for trigonometric polynomials of degree below
    samples in each angle, which covers g times two basis functions for
    the low-frequency potentials the tests use."""
    theta = np.arange(samples) * (TWO_PI / samples)
    B = basis_values(N, theta)
    phi = np.kron(B, B)  # rows: tensor modes, columns: grid nodes p * samples + q
    th1, th2 = np.meshgrid(theta, theta, indexing="ij")
    gv = np.asarray(g(th1, th2), dtype=float).ravel()
    return (TWO_PI / samples) ** 2 * (phi * gv) @ phi.T


# ---------------------------------------------------------------------------
# tensor enumeration for product geometries

def sum_spectrum(wa, wb):
    """Sorted multiset {wa_i + wb_j}."""
    return np.sort(np.add.outer(np.asarray(wa), np.asarray(wb)).ravel())


def torus_spectrum_from_circle(w0, w1, q):
    """Degree-q spectrum of the product operator from the two circle
    factor spectra (functions w0, one-forms w1)."""
    if q == 0:
        return sum_spectrum(w0, w0)
    if q == 2:
        return sum_spectrum(w1, w1)
    if q == 1:
        joint = np.concatenate([
            np.add.outer(w0, w1).ravel(),
            np.add.outer(w1, w0).ravel(),
        ])
        return np.sort(joint)
    raise ValueError("degree out of range")


# ---------------------------------------------------------------------------
# quadrature / closed forms

def quad_exp_potential_1d(t, lo, hi, f, weight=None):
    """scipy adaptive quadrature of exp(t f) over an arc, times an
    optional weight function."""
    w = weight or (lambda th: 1.0)
    val, err = scipy.integrate.quad(
        lambda th: np.exp(t * f(th)) * w(th), lo, hi, limit=400,
        epsabs=1e-13, epsrel=1e-13)
    return val


def quad_arc_moment(t, lo, hi, f, i):
    """scipy quadrature of exp(t f) times the i-th orthonormal mode (the
    row order of basis_values) over an arc, with the integral of the
    absolute value of the same integrand as its scale."""
    k = (i + 1) // 2
    if i == 0:
        def mode(th):
            return 1.0 / np.sqrt(TWO_PI)
    else:
        trig = np.cos if i % 2 else np.sin

        def mode(th):
            return trig(k * th) / np.sqrt(np.pi)

    def g(th):
        return np.exp(t * f(th)) * mode(th)

    size, _ = scipy.integrate.quad(lambda th: abs(g(th)), lo, hi,
                                   limit=800, epsrel=1e-8)
    val, _ = scipy.integrate.quad(g, lo, hi, limit=800,
                                  epsabs=1e-13 * size, epsrel=1e-12)
    return val, size


def full_circle_exp_sin(t):
    """Closed form for the full-period integral of exp(t sin(k theta)),
    any integer k >= 1: 2 pi I_0(t)."""
    return TWO_PI * scipy.special.iv(0, t)


def quad_exp_potential_2d(t, box, f, weight=None):
    """dblquad of exp(t f(x, y)) over a coordinate box ((x0,x1),(y0,y1)),
    times an optional weight function of (x, y)."""
    (x0, x1), (y0, y1) = box
    w = weight or (lambda x, y: 1.0)
    val, err = scipy.integrate.dblquad(
        lambda y, x: np.exp(t * f(x, y)) * w(x, y), x0, x1, y0, y1,
        epsabs=1e-11, epsrel=1e-11)
    return val


# ---------------------------------------------------------------------------
# finite differences for critical point checks

def fd_gradient(func, pt, h=1e-6):
    pt = np.asarray(pt, dtype=float)
    g = np.zeros(pt.size)
    for i in range(pt.size):
        e = np.zeros(pt.size)
        e[i] = h
        g[i] = (func(pt + e) - func(pt - e)) / (2 * h)
    return g


def fd_hessian(func, pt, h=1e-4):
    pt = np.asarray(pt, dtype=float)
    n = pt.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (func(pt + ei + ej) - func(pt + ei - ej)
                       - func(pt - ei + ej) + func(pt - ei - ej)) / (4 * h * h)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# torus critical points by grid scan plus Newton

# (cos 2t, sin 2t) amplitudes of sin(2t + k pi / 2), k = 0..3, exact
QUARTER_TURNS = ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))
# the 16 quarter-turn rotations of the two factors of sin 2th1 + sin 2th2
# (the first is the unrotated potential), and the generic phases (0.4, 1.3)
TORUS_FACTOR_AMPLITUDES = [(a, b) for a in QUARTER_TURNS
                           for b in QUARTER_TURNS] \
    + [((math.sin(0.4), math.cos(0.4)), (math.sin(1.3), math.cos(1.3)))]


def _trig_derivatives(terms, x):
    """Gradient (m, 2) and Hessian (m, 2, 2) at the rows of x of
    sum over terms of c cos(k . x) + s sin(k . x)."""
    g = np.zeros(x.shape)
    H = np.zeros(x.shape + (2,))
    for k, (c, s) in terms.items():
        k = np.asarray(k, dtype=float)
        ph = x @ k
        g += np.outer(s * np.cos(ph) - c * np.sin(ph), k)
        H -= (c * np.cos(ph) + s * np.sin(ph))[:, None, None] * np.outer(k, k)
    return g, H


def torus_critical_points(terms, grid=64, steps=30):
    """(index, coords) of every critical point of a torus potential,
    sorted by index, then by coordinates rounded to 1e-9.

    terms maps a frequency pair (k1, k2) to its (cos, sin) amplitudes.
    The scan keeps the nodes of a grid x grid mesh where |grad f|^2 is
    no larger than at its eight neighbours; full Newton steps from each
    converge to a critical point, and points within 1e-8 are merged.
    """
    axis = np.arange(grid) * (TWO_PI / grid)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    g, _ = _trig_derivatives(terms, x)
    g2 = np.sum(g * g, axis=1).reshape(grid, grid)
    low = np.ones_like(g2, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            low &= g2 <= np.roll(np.roll(g2, di, 0), dj, 1)
    x = x[low.ravel()]
    for _ in range(steps):
        g, H = _trig_derivatives(terms, x)
        x = x - np.linalg.solve(H, g[..., None])[..., 0]
    g, H = _trig_derivatives(terms, x)
    x = np.mod(x[np.max(np.abs(g), axis=1) < 1e-13], TWO_PI)
    x[x > TWO_PI - 1e-9] = 0.0
    points = []
    for xi in x:
        if all(np.max(np.abs(np.angle(np.exp(1j * (xi - y))))) > 1e-8
               for y in points):
            points.append(xi)
    _, H = _trig_derivatives(terms, np.array(points))
    index = np.sum(np.linalg.eigvalsh(H) < 0, axis=1)
    out = [(int(i), tuple(float(c) for c in xi))
           for i, xi in zip(index, points)]
    return sorted(out, key=lambda p: (p[0], tuple(np.round(p[1], 9))))


# ---------------------------------------------------------------------------
# torsion by singular values

def torsion_log_svd(dims, boundary_maps, gram=None, rel_tol=1e-10):
    """log of the analytic torsion of a based complex, computed purely
    from singular values of the coboundary maps.

    The nonzero spectrum of the degree-q Laplacian is the union of the
    squared nonzero singular values of d_q and d_{q-1}; plugging that
    into the alternating product gives a route through SVD only, with
    no symmetric eigensolver involved.  A nontrivial inner product is
    folded in by moving to orthonormal coordinates with a Cholesky
    factor before taking singular values.
    """
    n = len(dims) - 1
    if gram is not None:
        U = [scipy.linalg.cholesky(np.asarray(g, dtype=float))
             for g in gram]
        boundary_maps = [
            U[q + 1] @ np.asarray(boundary_maps[q], dtype=float)
            @ np.linalg.inv(U[q])
            for q in range(n)]
    logdet = []
    sv = []
    for q in range(n):
        D = np.asarray(boundary_maps[q], dtype=float)
        if D.size:
            s = scipy.linalg.svdvals(D)
            s = s[s > rel_tol * max(1.0, s[0] if s.size else 0.0)]
        else:
            s = np.array([])
        sv.append(s)
    for q in range(n + 1):
        acc = 0.0
        if q < n:
            acc += 2.0 * float(np.sum(np.log(sv[q])))
        if q > 0:
            acc += 2.0 * float(np.sum(np.log(sv[q - 1])))
        logdet.append(acc)
    total = 0.0
    for q in range(n + 1):
        total += ((-1) ** (q + 1)) * 0.5 * q * logdet[q]
    return total


def lattice_volume_logs_circle():
    """Closed-form volumes of the integer cohomology lattices of the
    circle in the L2 metric: the constant 1 in degree zero and the
    normalized angular form in degree one."""
    v0 = np.sqrt(TWO_PI)          # |1|_{L2}
    v1 = 1.0 / np.sqrt(TWO_PI)    # |dtheta / 2pi|_{L2}
    return np.log(v0), np.log(v1)


def lattice_volume_logs_torus():
    lv0, lv1 = lattice_volume_logs_circle()
    # product lattice: degree 0 generator 1, degree 1 generators the two
    # angular forms, degree 2 their wedge; Gram determinants multiply
    return (2 * lv0, (lv0 + lv1), 2 * lv1)


# ---------------------------------------------------------------------------
# first order perturbation slope by explicit finite difference

def fd_branch_slopes(family_at, t0, h=1e-6):
    """Sorted branch slopes at t0 from a one-sided second-order stencil
    on sorted spectra.  One-sided is essential at degenerate points: for
    t slightly above t0 the sorted order inside a splitting group is the
    slope order, consistent between both evaluations, whereas a central
    difference would pair values across the crossing and cancel the
    splitting."""
    w0 = np.linalg.eigvalsh(family_at(t0))
    w1 = np.linalg.eigvalsh(family_at(t0 + h))
    w2 = np.linalg.eigvalsh(family_at(t0 + 2 * h))
    return (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * h)
