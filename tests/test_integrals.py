import functools
import math

import numpy as np
import pytest

import wittenlab.integrals as integrals
from wittenlab.config import preset
from wittenlab.derham import (basis_matrix_1d, build_circle_complex,
                              build_torus_complex)
from wittenlab.errors import ConfigError, NumericalError
from wittenlab.experiments import grid_pairings
from wittenlab.integrals import (CellMoments, DetValue, a_log_total, det_log,
                                 integrate_1d)
from wittenlab.morse import flow_complex
from wittenlab.trigpoly import (TWO_PI, TrigPoly, circle_sin2,
                                torus_sin2_product)

import oracles


def table(fn):
    """The integrand of the node values fn(x), one column or a trailing
    column axis, as integrate_1d takes it: the factors (T, 1)."""
    return lambda x: (np.reshape(fn(x), (x.size, -1)), np.ones((x.size, 1)))


def test_integrate_1d_known_values():
    f = circle_sin2()
    assert integrate_1d(table(lambda x: np.sin(x) ** 2), 0.0, TWO_PI) == \
        pytest.approx(math.pi, abs=1e-12)
    for t in (0.0, 0.9, 4.0):
        got = integrate_1d(table(lambda x, t=t: np.exp(t * f(x))), 0.0,
                           TWO_PI)
        assert got == pytest.approx(oracles.full_circle_exp_sin(t), rel=1e-11)


def test_integrate_1d_arc_against_quad(rng):
    f = circle_sin2()
    for _ in range(4):
        lo = float(rng.uniform(0.0, TWO_PI))
        hi = lo + float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(0.0, 5.0))
        got = integrate_1d(table(lambda x: np.exp(t * f(x))), lo, hi)
        ref = oracles.quad_exp_potential_1d(t, lo, hi, f)
        assert got == pytest.approx(ref, rel=1e-9)


def test_integrate_1d_rejects_empty_interval():
    with pytest.raises(ConfigError):
        integrate_1d(np.sin, 1.0, 1.0)


def test_integrate_1d_budget_exhaustion():
    # a kink defeats any fixed GL order, forcing subdivision forever
    with pytest.raises(NumericalError):
        integrate_1d(table(lambda x: np.sqrt(np.abs(x - 1.3)) + 1.0), 0.0,
                     TWO_PI, rel_tol=1e-12, budget=3)


def test_integrate_1d_columns_keep_their_own_scale():
    # a flat column next to a narrow peak 1e-8 times smaller: measured
    # against a shared |fn| scale the peak's error allocation would be
    # 1e8 times too loose, and its first panel would pass unrefined
    def fn(x):
        peak = 1e-8 / (1.0 + 400.0 * (x - 1.0) ** 2)
        return np.column_stack([np.ones_like(x), peak])

    got = integrate_1d(table(fn), 0.0, TWO_PI, rel_tol=1e-10)
    peak = 1e-8 * (math.atan(20.0 * (TWO_PI - 1.0)) + math.atan(20.0)) / 20.0
    assert got.shape == (2,)
    assert got[0] == pytest.approx(TWO_PI, rel=1e-12)
    assert got[1] == pytest.approx(peak, rel=1e-10, abs=0.0)
    alone = integrate_1d(table(lambda x: fn(x)[:, 1]), 0.0, TWO_PI,
                         rel_tol=1e-10)
    assert got[1] == pytest.approx(alone[0], rel=1e-10, abs=0.0)


def _moment_integrands(f, N, ts):
    """The moment integrands e^{t f} phi_i of the grid ts, columns (t, i):
    as the factors (E, B) CellMoments integrates, and as the
    materialized (nodes, n_t (2N + 1)) table of their products."""
    def factors(x):
        return np.exp(np.multiply.outer(f(x), ts)), basis_matrix_1d(N, x)

    def products(x):
        E, B = factors(x)
        return E[:, :, None] * B[:, None, :]

    return factors, table(products)


def _abs(fn):
    """The integrand |fn| of factors fn, factor by factor."""
    return lambda x: [np.abs(v) for v in fn(x)]


def test_factored_rule_matches_the_product_table():
    """The GL32 and GL16 rules, and the |fn| scale rule, on the factors
    (E, B) against the same rules on the materialized products: within
    1e-14 of each column's scale, on the circle-sin2 preset grid."""
    cfg = preset("circle-sin2")
    factors, products = _moment_integrands(circle_sin2(), cfg.modes,
                                           cfg.grid())
    rule = integrals._rule_1d
    gl32, gl16 = integrals.gauss_legendre(32), integrals.gauss_legendre(16)
    for lo, hi in ((0.3, 1.1), (-0.7, 2.4), (0.0, TWO_PI)):
        scale = rule(_abs(products), lo, hi, gl32)
        assert scale.shape == (cfg.grid().size * (2 * cfg.modes + 1),)
        for gl in (gl32, gl16):
            got = rule(factors, lo, hi, gl)
            assert np.all(np.abs(got - rule(products, lo, hi, gl))
                          <= 1e-14 * scale)
        got = rule(_abs(factors), lo, hi, gl32)
        assert np.all(np.abs(got - scale) <= 1e-14 * scale)


def test_factored_moments_keep_the_panels_of_the_product_table(monkeypatch):
    """Every circle-sin2 arc on the preset grid, integrated from the
    factors and from the materialized products: the same panel count,
    and every moment within 1e-14 of its column's integral of |.|.  The
    factors are what CellMoments integrates, bit for bit."""
    cfg = preset("circle-sin2")
    cx = build_circle_complex(cfg.modes, circle_sin2())
    ts, rel = cfg.grid(), cfg.tolerances.quad_rel
    factors, products = _moment_integrands(cx.f, cx.N, ts)
    moments = CellMoments(cx, ts, cfg.tolerances)
    panels = []
    panel = integrals._panel_1d

    def counting(fn, lo, hi):
        panels.append((lo, hi))
        return panel(fn, lo, hi)

    monkeypatch.setattr(integrals, "_panel_1d", counting)
    arcs = arcs_of(flow_complex(cx.f, "circle"))
    assert len(arcs) == 4
    for a, ax in arcs:
        _, lo, hi = ax
        panels.clear()
        got = integrate_1d(factors, lo, hi, rel)
        n_got = len(panels)
        want = integrate_1d(products, lo, hi, rel)
        assert n_got == len(panels) - n_got > 1
        # |.| has kinks, so a fixed composite rule, not the adaptive one
        edges = np.linspace(lo, hi, 33)
        mass = sum(integrals._rule_1d(_abs(products), e0, e1,
                                      integrals.gauss_legendre(32))
                   for e0, e1 in zip(edges[:-1], edges[1:]))
        assert np.all(np.abs(got - want) <= 1e-14 * mass)
        assert np.array_equal(moments.axis(a, ax), got.reshape(ts.size, -1))


def test_integrate_1d_budget_exhaustion_one_rough_column():
    def fn(x):
        return np.column_stack([np.ones_like(x),
                                np.sqrt(np.abs(x - 1.3)) + 1.0])

    smooth = integrate_1d(table(lambda x: fn(x)[:, :1]), 0.0, TWO_PI,
                          rel_tol=1e-12, budget=3)
    assert smooth[0] == pytest.approx(TWO_PI, rel=1e-12)
    with pytest.raises(NumericalError):
        integrate_1d(table(fn), 0.0, TWO_PI, rel_tol=1e-12, budget=3)


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
    flow = flow_complex(circle_cx8.f, "circle")
    i = flow.degrees[0][0]
    pt, (piece,) = flow.points[i], flow.cells[i]
    e0 = np.zeros(circle_cx8.dims[0])
    e0[0] = 1.0  # constant basis function, value 1/sqrt(2 pi)
    for t in (0.0, 2.0):
        got = CellMoments(circle_cx8, [t]).cell_vectors(0, piece)[0] @ e0
        want = math.exp(t * pt.value) / math.sqrt(TWO_PI)
        assert got == pytest.approx(want, rel=1e-12)


def test_arc_cell_pairing_against_quad(circle_cx8):
    f = circle_cx8.f
    flow = flow_complex(f, "circle")
    pieces = flow.cells[flow.degrees[1][0]]
    e0 = np.zeros(circle_cx8.dims[1])
    e0[0] = 1.0
    for piece in pieces:
        _, lo, hi = piece.axes[0]
        t = 1.7
        got = CellMoments(circle_cx8, [t]).cell_vectors(1, piece)[0] @ e0
        ref = piece.orientation * \
            oracles.quad_exp_potential_1d(t, lo, hi, f) / math.sqrt(TWO_PI)
        assert got == pytest.approx(ref, rel=1e-9)


def test_integral_orientation_flips_sign(circle_cx8):
    flow = flow_complex(circle_cx8.f, "circle")
    piece = flow.cells[flow.degrees[1][0]][0]
    flipped = piece._replace(orientation=-piece.orientation)
    w = np.zeros(circle_cx8.dims[1])
    w[0] = 1.0
    moments = CellMoments(circle_cx8, [0.9])
    a = moments.cell_vectors(1, piece)[0] @ w
    b = moments.cell_vectors(1, flipped)[0] @ w
    assert a == pytest.approx(-b, rel=1e-12)


def test_integral_degree_mismatch(circle_cx8):
    flow = flow_complex(circle_cx8.f, "circle")
    piece = flow.cells[flow.degrees[0][0]][0]
    with pytest.raises(ConfigError):
        CellMoments(circle_cx8, [0.0]).cell_vectors(1, piece)


def one_t_pairing(cx, q, forms, flow, t):
    """The (k, n_q) pairing matrix of the forms (columns) at one t."""
    return CellMoments(cx, [t]).pairing(q, forms[None], flow)[0]


def cochain(cx, q, omega, flow, t):
    """Pairing values of one q-form against every index-q point."""
    return one_t_pairing(cx, q, omega[:, None], flow, t)[0]


def test_stokes_circle(rng, circle_cx8):
    """Coboundary of the pairing equals the pairing of the deformed
    derivative, as long as the form stays clear of the cutoff so the
    projected multiplication is exact."""
    cx = circle_cx8
    flow = flow_complex(cx.f, "circle")
    for t in (0.0, 0.8, 3.0):
        w = band_limited_scalar(rng, cx.N, cx.N - 2)
        lhs = flow.d[0] @ cochain(cx, 0, w, flow, t)
        dW = (cx.D[0] + t * cx.E[0]) @ w
        rhs = cochain(cx, 1, dW, flow, t)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def shifted_sin2_product(a, b):
    """sin(2 th1 + a) + sin(2 th2 + b)."""
    return TrigPoly(2, {(2, 0): (math.sin(a), math.cos(a)),
                        (0, 2): (math.sin(b), math.cos(b))})


@pytest.mark.parametrize("potential", [
    pytest.param(torus_sin2_product, id="sin2-product"),
    # the 2-D Newton points and the factor points of a shifted
    # potential differ in the last bits
    pytest.param(lambda: shifted_sin2_product(0.4, 1.3), id="shifted"),
])
def test_stokes_torus(rng, potential):
    cx = build_torus_complex(6, potential())
    flow = flow_complex(cx.f, "torus")
    t = 0.7
    w = band_limited_scalar_2d(rng, cx.N, cx.N - 2)
    lhs = flow.d[0] @ cochain(cx, 0, w, flow, t)
    dW = (cx.D[0] + t * cx.E[0]) @ w
    rhs = cochain(cx, 1, dW, flow, t)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    # degree 1 -> 2 exercises the graded sign of the second factor
    eta = np.concatenate([band_limited_scalar_2d(rng, cx.N, cx.N - 2),
                          band_limited_scalar_2d(rng, cx.N, cx.N - 2)])
    lhs1 = flow.d[1] @ cochain(cx, 1, eta, flow, t)
    dEta = (cx.D[1] + t * cx.E[1]) @ eta
    rhs1 = cochain(cx, 2, dEta, flow, t)
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


def oracle_pairing(cx, q, forms, flow, t):
    owners = flow.degrees.get(q, [])
    ref = np.zeros((forms.shape[1], len(owners)))
    for i in range(forms.shape[1]):
        for j, k in enumerate(owners):
            ref[i, j] = sum(piece.orientation
                            * oracle_piece(cx, q, forms[:, i], piece, t)
                            for piece in flow.cells[k])
    return ref


def assert_close_to_oracle(got, ref, rel):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def test_pairing_matrix_form_block_against_oracle_circle(rng, circle_cx8):
    cx = circle_cx8
    flow = flow_complex(cx.f, "circle")
    for q in (0, 1):
        for t in (0.0, 4.0, 15.0):
            forms = np.column_stack([band_limited_scalar(rng, cx.N, cx.N - 2)
                                     for _ in range(3)])
            got = one_t_pairing(cx, q, forms, flow, t)
            assert_close_to_oracle(got, oracle_pairing(cx, q, forms, flow, t),
                                   1e-9)


def test_pairing_matrix_form_block_against_oracle_torus(rng, torus_cx6):
    cx = torus_cx6
    flow = flow_complex(cx.f, "torus")
    t = 0.7
    for q in (0, 1, 2):
        blocks = 2 if q == 1 else 1
        forms = np.column_stack([
            np.concatenate([band_limited_scalar_2d(rng, cx.N, cx.N - 2)
                            for _ in range(blocks)])
            for _ in range(3)])
        got = one_t_pairing(cx, q, forms, flow, t)
        assert_close_to_oracle(got, oracle_pairing(cx, q, forms, flow, t),
                               1e-9)


def arcs_of(flow):
    """The distinct (factor, arc axis) pairs of a flow's cell pieces."""
    return sorted({(a, ax) for pieces in flow.cells for piece in pieces
                   for a, ax in enumerate(piece.axes) if ax[0] == "arc"})


def assert_moments_match_oracle(cx, ts, factor_fns, columns):
    """Sampled (t, i) moment columns of every arc against scipy quad,
    within 1e-10 of the column's integral of |e^{t f_a} phi_i|."""
    flow = flow_complex(cx.f, cx.manifold)
    moments = CellMoments(cx, ts)
    for a, ax in arcs_of(flow):
        _, lo, hi = ax
        M = moments.axis(a, ax)
        assert M.shape == (len(ts), 2 * cx.N + 1)
        for k, t in enumerate(ts):
            for i in columns:
                ref, size = oracles.quad_arc_moment(t, lo, hi, factor_fns[a], i)
                assert abs(M[k, i] - ref) <= 1e-10 * size


def test_arc_moments_against_oracle_circle():
    cfg = preset("circle-sin2")
    cx = build_circle_complex(cfg.modes, cfg.potential_trigpoly())
    assert_moments_match_oracle(cx, cfg.grid(), [lambda th: np.sin(2 * th)],
                                (0, 1, 4, 2 * cx.N))
    # the high-mode columns, at the steepest and the flattest weights
    assert_moments_match_oracle(cx, [0.0, 15.0], [lambda th: np.sin(2 * th)],
                                range(2 * cx.N + 1))


def test_arc_moments_against_oracle_torus_factors():
    # a constant term rides on the first factor; both factors are shifted
    f = shifted_sin2_product(0.4, 1.3) + 0.3
    cx = build_torus_complex(6, f)
    factor_fns = [lambda th: np.sin(2 * th + 0.4) + 0.3,
                  lambda th: np.sin(2 * th + 1.3)]
    assert_moments_match_oracle(cx, [0.0, 0.7, 5.0, 15.0], factor_fns,
                                range(2 * cx.N + 1))


@pytest.mark.parametrize("manifold", ["circle", "torus"])
def test_grid_pass_matches_one_t_pairings(rng, circle_cx8, torus_cx6,
                                          manifold):
    """One pass over the whole grid against separate one-t matrices:
    panels refined for the steepest t never loosen a flat column."""
    cx = circle_cx8 if manifold == "circle" else torus_cx6
    ts = np.arange(0.0, 15.01, 0.5) if manifold == "circle" else \
        np.arange(0.0, 5.01, 0.5)
    flow = flow_complex(cx.f, manifold)
    moments = CellMoments(cx, ts)
    for q in range(cx.n + 1):
        forms = rng.standard_normal((ts.size, cx.dims[q], 3))
        grid = moments.pairing(q, forms, flow)
        assert grid.shape == (ts.size, 3, len(flow.degrees[q]))
        for k, t in enumerate(ts):
            one = one_t_pairing(cx, q, forms[k], flow, t)
            assert np.max(np.abs(grid[k] - one)) <= \
                1e-13 * np.max(np.abs(one))


def test_grid_pass_integrates_each_arc_once(monkeypatch, circle_torsion,
                                            torus_torsion):
    """One adaptive integral per distinct (factor, arc) for the whole
    grid and every degree: 4 arcs on circle-sin2, 4 + 4 on the torus."""
    calls = []

    def counting(fn, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return integrate_1d(fn, lo, hi, *args, **kwargs)

    monkeypatch.setattr(integrals, "integrate_1d", counting)
    for run, want in ((circle_torsion, 4), (torus_torsion, 8)):
        cx, flow = run.package_run.cx, run.package_run.flow
        tol = run.config.tolerances
        calls.clear()
        table = grid_pairings(cx, run.package_run.package, flow, tol)
        n_t = len(run.package_run.package.grid)
        assert [len(P) for P in table] == [n_t] * (cx.n + 1)
        assert len(calls) == want == len(arcs_of(flow))


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


@pytest.mark.parametrize("fixture", ["circle_torsion", "torus_torsion"])
def test_stacked_det_log_matches_each_matrix(request, fixture):
    """det_log of a degree's whole-grid stack of pairing matrices, on
    circle-sin2 and the torus preset, gives at every t the fields of
    det_log of that matrix alone, bit for bit, and so does the
    positivity probe that reads it."""
    run = request.getfixturevalue(fixture)
    pkg_run = run.package_run
    table = grid_pairings(pkg_run.cx, pkg_run.package, pkg_run.flow,
                          run.config.tolerances)
    ts = pkg_run.package.grid.tolist()
    for q in pkg_run.package.degrees:
        stack = det_log(table[q])
        assert stack.log_abs.shape == (len(ts),)
        ones = [det_log(M) for M in table[q]]
        for i, d in enumerate(ones):
            assert (stack.log_abs[i], stack.sign[i], stack.cond[i],
                    stack.singular[i]) == d
        assert run.positivity[q] == [(t, d.log_abs, d.sign, d.cond)
                                     for t, d in zip(ts, ones)]


def test_a_log_total_arithmetic():
    mk = lambda la, s: DetValue(log_abs=la, sign=s, cond=1.0, singular=False)
    dets = {0: mk(1.5, 1.0), 1: mk(0.25, -1.0), 2: mk(0.5, 1.0)}
    assert a_log_total(dets) == pytest.approx(1.5 - 0.25 + 0.5, abs=1e-15)
    dets[1] = DetValue(log_abs=0.0, sign=1.0, cond=math.inf, singular=True)
    with pytest.raises(NumericalError):
        a_log_total(dets)


def test_a_q_shape_guard_and_consistency(rng, circle_cx8):
    cx = circle_cx8
    flow = flow_complex(cx.f, "circle")
    forms = rng.standard_normal((cx.dims[0], 2))
    M = one_t_pairing(cx, 0, forms, flow, 0.5)
    d = det_log(M)
    assert M.shape == (2, 2)
    assert d.value == pytest.approx(np.linalg.det(M), rel=1e-12)
    with pytest.raises(ConfigError):
        det_log(one_t_pairing(cx, 0, rng.standard_normal((cx.dims[0], 3)),
                              flow, 0.5))
