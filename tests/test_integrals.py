import functools
import math

import numpy as np
import pytest

from wittenlab.derham import build_circle_complex, build_torus_complex
from wittenlab.errors import ConfigError, NumericalError
from wittenlab.integrals import (DetValue, a_log_total, a_q, det_log,
                                 flow_cells, int_cochain, integral_A,
                                 integrate_1d, integrate_2d, pairing_matrix)
from wittenlab.morse import morse_coboundary
from wittenlab.trigpoly import TWO_PI, circle_sin2, torus_sin2_product

import oracles


def test_integrate_1d_known_values():
    f = circle_sin2()
    assert integrate_1d(lambda x: np.sin(x) ** 2, 0.0, TWO_PI) == \
        pytest.approx(math.pi, abs=1e-12)
    for t in (0.0, 0.9, 4.0):
        got = integrate_1d(lambda x, t=t: np.exp(t * f(x)), 0.0, TWO_PI)
        assert got == pytest.approx(oracles.full_circle_exp_sin(t), rel=1e-11)


def test_integrate_1d_arc_against_quad(rng):
    f = circle_sin2()
    for _ in range(4):
        lo = float(rng.uniform(0.0, TWO_PI))
        hi = lo + float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(0.0, 5.0))
        got = integrate_1d(lambda x: np.exp(t * f(x)), lo, hi)
        ref = oracles.quad_exp_potential_1d(t, lo, hi, f)
        assert got == pytest.approx(ref, rel=1e-9)


def test_integrate_1d_rejects_empty_interval():
    with pytest.raises(ConfigError):
        integrate_1d(np.sin, 1.0, 1.0)


def test_integrate_1d_budget_exhaustion():
    # a kink defeats any fixed GL order, forcing subdivision forever
    with pytest.raises(NumericalError):
        integrate_1d(lambda x: np.sqrt(np.abs(x - 1.3)) + 1.0, 0.0, TWO_PI,
                     rel_tol=1e-12, budget=3)


def test_integrate_1d_columns_keep_their_own_scale():
    # a flat column next to a narrow peak 1e-8 times smaller: measured
    # against a shared |fn| scale the peak's error allocation would be
    # 1e8 times too loose, and its first panel would pass unrefined
    def fn(x):
        peak = 1e-8 / (1.0 + 400.0 * (x - 1.0) ** 2)
        return np.column_stack([np.ones_like(x), peak])

    got = integrate_1d(fn, 0.0, TWO_PI, rel_tol=1e-10)
    peak = 1e-8 * (math.atan(20.0 * (TWO_PI - 1.0)) + math.atan(20.0)) / 20.0
    assert got.shape == (2,)
    assert got[0] == pytest.approx(TWO_PI, rel=1e-12)
    assert got[1] == pytest.approx(peak, rel=1e-10, abs=0.0)
    alone = integrate_1d(lambda x: fn(x)[:, 1], 0.0, TWO_PI, rel_tol=1e-10)
    assert got[1] == pytest.approx(alone, rel=1e-10, abs=0.0)


def test_integrate_1d_budget_exhaustion_one_rough_column():
    def fn(x):
        return np.column_stack([np.ones_like(x),
                                np.sqrt(np.abs(x - 1.3)) + 1.0])

    smooth = integrate_1d(lambda x: fn(x)[:, :1], 0.0, TWO_PI,
                          rel_tol=1e-12, budget=3)
    assert smooth[0] == pytest.approx(TWO_PI, rel=1e-12)
    with pytest.raises(NumericalError):
        integrate_1d(fn, 0.0, TWO_PI, rel_tol=1e-12, budget=3)


def test_integrate_2d_separable_product():
    f2 = torus_sin2_product()
    f1 = circle_sin2()
    box = (0.2, 1.9, 0.5, 3.1)
    for t in (0.0, 1.3):
        got = integrate_2d(
            lambda a, b, t=t: np.exp(t * f2(a[:, None], b[None, :])), box, 1e-11)
        ia = integrate_1d(lambda x: np.exp(t * f1(x)), box[0], box[1], 1e-12)
        ib = integrate_1d(lambda x: np.exp(t * f1(x)), box[2], box[3], 1e-12)
        assert got == pytest.approx(ia * ib, rel=1e-9)
    ref = oracles.quad_exp_potential_2d(1.3, ((0.2, 1.9), (0.5, 3.1)), f2)
    got = integrate_2d(
        lambda a, b: np.exp(1.3 * f2(a[:, None], b[None, :])), box, 1e-11)
    assert got == pytest.approx(ref, rel=1e-8)


def band_limited_scalar(rng, N, kmax):
    """Random 1d coefficient vector supported on frequencies <= kmax."""
    v = rng.standard_normal(2 * N + 1)
    freqs = (np.arange(2 * N + 1) + 1) // 2
    v[freqs > kmax] = 0.0
    return v


def band_limited_scalar_2d(rng, N, kmax):
    n1 = 2 * N + 1
    v = rng.standard_normal((n1, n1))
    freqs = (np.arange(n1) + 1) // 2
    mask = (freqs[:, None] > kmax) | (freqs[None, :] > kmax)
    v[mask] = 0.0
    return v.reshape(-1)


def test_point_cell_pairing_closed_form(circle_cx8):
    cells = flow_cells(circle_cx8.f, "circle")
    (pt, pieces) = cells.by_degree[0][0]
    (piece,) = pieces
    e0 = np.zeros(circle_cx8.dims[0])
    e0[0] = 1.0  # constant basis function, value 1/sqrt(2 pi)
    for t in (0.0, 2.0):
        got = integral_A(circle_cx8, 0, e0, piece, t)
        want = math.exp(t * pt.value) / math.sqrt(TWO_PI)
        assert got == pytest.approx(want, rel=1e-12)


def test_arc_cell_pairing_against_quad(circle_cx8):
    f = circle_cx8.f
    cells = flow_cells(f, "circle")
    (mx, pieces) = cells.by_degree[1][0]
    e0 = np.zeros(circle_cx8.dims[1])
    e0[0] = 1.0
    for piece in pieces:
        _, lo, hi = piece.axes[0]
        t = 1.7
        got = integral_A(circle_cx8, 1, e0, piece, t)
        ref = piece.orientation * \
            oracles.quad_exp_potential_1d(t, lo, hi, f) / math.sqrt(TWO_PI)
        assert got == pytest.approx(ref, rel=1e-9)


def test_integral_orientation_flips_sign(circle_cx8):
    import dataclasses
    cells = flow_cells(circle_cx8.f, "circle")
    (_, pieces) = cells.by_degree[1][0]
    piece = pieces[0]
    flipped = dataclasses.replace(piece, orientation=-piece.orientation)
    w = np.zeros(circle_cx8.dims[1])
    w[0] = 1.0
    a = integral_A(circle_cx8, 1, w, piece, 0.9)
    b = integral_A(circle_cx8, 1, w, flipped, 0.9)
    assert a == pytest.approx(-b, rel=1e-12)


def test_integral_degree_mismatch(circle_cx8):
    cells = flow_cells(circle_cx8.f, "circle")
    (_, pieces) = cells.by_degree[0][0]
    with pytest.raises(ConfigError):
        integral_A(circle_cx8, 1, np.zeros(circle_cx8.dims[1]), pieces[0], 0.0)


def test_stokes_circle(rng, circle_cx8):
    """Coboundary of the pairing equals the pairing of the deformed
    derivative, as long as the form stays clear of the cutoff so the
    projected multiplication is exact."""
    cx = circle_cx8
    mc = morse_coboundary(cx.f, "circle")
    cells = flow_cells(cx.f, "circle")
    for t in (0.0, 0.8, 3.0):
        w = band_limited_scalar(rng, cx.N, cx.N - 2)
        lhs = mc.d[0] @ int_cochain(cx, 0, w, cells, t)
        dW = (cx.D[0] + t * cx.E[0]) @ w
        rhs = int_cochain(cx, 1, dW, cells, t)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_stokes_torus(rng, torus_cx6):
    cx = torus_cx6
    mc = morse_coboundary(cx.f, "torus")
    cells = flow_cells(cx.f, "torus")
    t = 0.7
    w = band_limited_scalar_2d(rng, cx.N, cx.N - 2)
    lhs = mc.d[0] @ int_cochain(cx, 0, w, cells, t)
    dW = (cx.D[0] + t * cx.E[0]) @ w
    rhs = int_cochain(cx, 1, dW, cells, t)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    # degree 1 -> 2 exercises the graded sign of the second factor
    eta = np.concatenate([band_limited_scalar_2d(rng, cx.N, cx.N - 2),
                          band_limited_scalar_2d(rng, cx.N, cx.N - 2)])
    lhs1 = mc.d[1] @ int_cochain(cx, 1, eta, cells, t)
    dEta = (cx.D[1] + t * cx.E[1]) @ eta
    rhs1 = int_cochain(cx, 2, dEta, cells, t)
    scale1 = max(1.0, float(np.max(np.abs(lhs1))))
    assert np.max(np.abs(lhs1 - rhs1)) < 1e-10 * scale1


def oracle_piece(cx, q, vec, piece, t):
    """e^{t f} vec integrated over one cell piece by scipy quadrature,
    with the form evaluated in the oracle's own Fourier basis."""
    N, f, axes = cx.N, cx.f, piece.axes
    if cx.manifold == "circle":
        def w(th):
            return vec @ oracles.basis_values(N, th)

        if q == 0:
            th = axes[0][1]
            return np.exp(t * f(th)) * w(th)
        _, lo, hi = axes[0]
        return oracles.quad_exp_potential_1d(t, lo, hi, f, w)
    n1 = 2 * N + 1
    # degree 1: the dth1 block along a first-axis arc, dth2 along the second
    block = vec[n1 * n1:] if axes[1][0] == "arc" and q == 1 else vec[:n1 * n1]
    C = block.reshape(n1, n1)

    @functools.lru_cache(maxsize=None)
    def basis(x):  # the quadrature rules revisit the same nodes
        return oracles.basis_values(N, x)

    def w(x, y):
        return basis(x) @ C @ basis(y)

    if q == 0:
        x, y = axes[0][1], axes[1][1]
        return np.exp(t * f(x, y)) * w(x, y)
    if q == 2:
        box = ((axes[0][1], axes[0][2]), (axes[1][1], axes[1][2]))
        return oracles.quad_exp_potential_2d(t, box, f, w)
    if axes[0][0] == "arc":
        (_, lo, hi), (_, c) = axes
        return oracles.quad_exp_potential_1d(
            t, lo, hi, lambda th: f(th, c), lambda th: w(th, c))
    (_, c), (_, lo, hi) = axes
    return oracles.quad_exp_potential_1d(
        t, lo, hi, lambda th: f(c, th), lambda th: w(c, th))


def oracle_pairing(cx, q, forms, cells, t):
    owners = cells.by_degree.get(q, [])
    ref = np.zeros((forms.shape[1], len(owners)))
    for i in range(forms.shape[1]):
        for j, (_, pieces) in enumerate(owners):
            ref[i, j] = sum(piece.orientation
                            * oracle_piece(cx, q, forms[:, i], piece, t)
                            for piece in pieces)
    return ref


def assert_close_to_oracle(got, ref, rel):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def test_pairing_matrix_form_block_against_oracle_circle(rng, circle_cx8):
    cx = circle_cx8
    cells = flow_cells(cx.f, "circle")
    for q in (0, 1):
        for t in (0.0, 4.0, 15.0):
            forms = np.column_stack([band_limited_scalar(rng, cx.N, cx.N - 2)
                                     for _ in range(3)])
            got = pairing_matrix(cx, q, forms, cells, t)
            assert_close_to_oracle(got, oracle_pairing(cx, q, forms, cells, t),
                                   1e-9)


def test_pairing_matrix_form_block_against_oracle_torus(rng, torus_cx6):
    cx = torus_cx6
    cells = flow_cells(cx.f, "torus")
    t = 0.7
    for q in (0, 1, 2):
        blocks = 2 if q == 1 else 1
        forms = np.column_stack([
            np.concatenate([band_limited_scalar_2d(rng, cx.N, cx.N - 2)
                            for _ in range(blocks)])
            for _ in range(3)])
        got = pairing_matrix(cx, q, forms, cells, t)
        assert_close_to_oracle(got, oracle_pairing(cx, q, forms, cells, t),
                               1e-9)


def test_det_log_known_values():
    d = det_log(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert d.log_abs == pytest.approx(math.log(3.0), abs=1e-12)
    assert d.sign == 1.0 and not d.singular
    assert d.value == pytest.approx(3.0, rel=1e-12)
    swap = det_log(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert swap.sign == -1.0 and swap.log_abs == pytest.approx(0.0, abs=1e-12)
    sing = det_log(np.ones((2, 2)))
    assert sing.singular
    with pytest.raises(ConfigError):
        det_log(np.ones((2, 3)))


def test_a_log_total_arithmetic():
    mk = lambda la, s: DetValue(log_abs=la, sign=s, cond=1.0, singular=False)
    dets = {0: mk(1.5, 1.0), 1: mk(0.25, -1.0), 2: mk(0.5, 1.0)}
    assert a_log_total(dets) == pytest.approx(1.5 - 0.25 + 0.5, abs=1e-15)
    dets[1] = DetValue(log_abs=0.0, sign=1.0, cond=math.inf, singular=True)
    with pytest.raises(NumericalError):
        a_log_total(dets)


def test_a_q_shape_guard_and_consistency(rng, circle_cx8):
    cx = circle_cx8
    cells = flow_cells(cx.f, "circle")
    forms = rng.standard_normal((cx.dims[0], 2))
    d = a_q(cx, 0, forms, cells, 0.5)
    M = pairing_matrix(cx, 0, forms, cells, 0.5)
    ref = det_log(M)
    assert d.log_abs == pytest.approx(ref.log_abs, abs=1e-12)
    assert d.sign == ref.sign
    with pytest.raises(ConfigError):
        a_q(cx, 0, rng.standard_normal((cx.dims[0], 3)), cells, 0.5)
