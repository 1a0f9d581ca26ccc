"""Independent oracle computations backing the test suite.

Nothing here reuses the package's assembly code paths.  Operators are
rebuilt by pointwise collocation on a fine grid, spectra by tensor
enumeration, torsion by singular values, integrals via adaptive
quadrature from scipy or closed forms.  The tests then demand agreement
between these routes and the package; keeping the routes separate is
what gives the comparisons teeth.
"""

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
