import math

import numpy as np
import pytest

from wittenlab.errors import ConfigError, DegenerateCriticalPointError
from wittenlab.morse import (check_morse_smale, factor_potentials,
                             find_critical_points, morse_coboundary,
                             unstable_cells)
from wittenlab.trigpoly import TWO_PI, TrigPoly, circle_sin2, torus_sin2_product

import oracles


def ang_eq(a, b, tol=1e-9):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d) < tol


def test_circle_critical_points():
    pts = find_critical_points(circle_sin2(), "circle")
    assert len(pts) == 4
    odd_quarters = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
    for p in pts:
        assert any(ang_eq(p.coords[0], c) for c in odd_quarters)
        assert p.value == pytest.approx((-1.0, 1.0)[p.index], abs=1e-12)
    assert sorted(p.index for p in pts) == [0, 0, 1, 1]
    # sorted by (index, coords): minima first
    assert [p.index for p in pts] == [0, 0, 1, 1]


def test_circle_critical_points_against_fd_oracles():
    f = circle_sin2()
    for p in find_critical_points(f, "circle"):
        g = oracles.fd_gradient(lambda x: f(*x), p.coords)
        assert np.max(np.abs(g)) < 1e-8
        H = oracles.fd_hessian(lambda x: f(*x), p.coords)
        hw = np.linalg.eigvalsh(H)
        assert np.max(np.abs(hw - np.array(p.hessian))) < 1e-5
        assert int(np.sum(hw < 0)) == p.index


def test_torus_critical_points():
    pts = find_critical_points(torus_sin2_product(), "torus")
    assert len(pts) == 16
    by_index = {q: [p for p in pts if p.index == q] for q in range(3)}
    assert [len(by_index[q]) for q in range(3)] == [4, 8, 4]
    for p in by_index[0]:
        assert p.value == pytest.approx(-2.0, abs=1e-12)
    for p in by_index[1]:
        assert p.value == pytest.approx(0.0, abs=1e-12)
    for p in by_index[2]:
        assert p.value == pytest.approx(2.0, abs=1e-12)
    f = torus_sin2_product()
    for p in pts:
        g = oracles.fd_gradient(lambda x: f(*x), p.coords)
        assert np.max(np.abs(g)) < 1e-8
        hw = np.linalg.eigvalsh(oracles.fd_hessian(lambda x: f(*x), p.coords))
        assert int(np.sum(hw < 0)) == p.index


def test_degenerate_potential_rejected():
    # f = cos(2 theta) + cos(4 theta)/4 has f'' = 0 at theta = pi/2
    f = TrigPoly.cosine((2,)) + TrigPoly.cosine((4,), 0.25)
    with pytest.raises(DegenerateCriticalPointError):
        find_critical_points(f, "circle")


def test_manifold_and_arity_validation():
    with pytest.raises(ConfigError):
        find_critical_points(circle_sin2(), "sphere")
    with pytest.raises(ConfigError):
        find_critical_points(circle_sin2(), "torus")
    with pytest.raises(ConfigError):
        find_critical_points(torus_sin2_product(), "circle")


def test_factor_potentials_requires_separable():
    mixed = TrigPoly.cosine((1, 1))  # cos(t1 + t2) does not split
    with pytest.raises(ConfigError):
        factor_potentials(mixed)
    h1, h2 = factor_potentials(torus_sin2_product())
    th = np.linspace(0.0, TWO_PI, 17)
    f = torus_sin2_product()
    for a in th:
        for b in th:
            assert f(a, b) == pytest.approx(h1(a) + h2(b), abs=1e-12)


def test_circle_unstable_cells():
    f = circle_sin2()
    pts = find_critical_points(f, "circle")
    minima = [p for p in pts if p.index == 0]
    for p in pts:
        cells = unstable_cells(p, f, "circle", points=pts)
        if p.index == 0:
            assert len(cells) == 1
            (cell,) = cells
            assert cell.dim == 0
            assert cell.axes[0][0] == "point"
            assert ang_eq(cell.axes[0][1], p.coords[0])
            assert cell.boundary == ()
        else:
            assert len(cells) == 2
            signs = []
            for cell in cells:
                assert cell.dim == 1
                kind, lo, hi = cell.axes[0]
                assert kind == "arc" and hi > lo
                ((axis, far, sgn),) = cell.boundary
                assert axis == 0 and abs(sgn) == 1
                assert any(ang_eq(far, m.coords[0]) for m in minima)
                signs.append(sgn * cell.orientation)
            # the two flanking arcs leave the maximum in opposite
            # directions, so their far ends carry opposite signs
            assert sorted(signs) == [-1, 1]


def test_torus_unstable_cells_are_products():
    f = torus_sin2_product()
    pts = find_critical_points(f, "torus")
    for p in pts:
        cells = unstable_cells(p, f, "torus")
        assert len(cells) == 2 ** p.index
        for cell in cells:
            assert cell.dim == p.index
            assert len(cell.axes) == 2
            assert len(cell.boundary) == p.index


def test_morse_smale_certificates():
    ok, table = check_morse_smale(circle_sin2(), "circle")
    assert ok
    assert all(dim == 0 for _, _, dim in table)
    ok2, table2 = check_morse_smale(torus_sin2_product(), "torus")
    assert ok2
    assert len(table2) > 0


def test_circle_morse_coboundary():
    mc = morse_coboundary(circle_sin2(), "circle")
    assert mc.betti == (1, 1)
    (d0,) = mc.d
    assert d0.shape == (2, 2)
    assert set(np.unique(d0)).issubset({-1, 0, 1})
    # each maximum flows to both minima with opposite signs
    assert np.array_equal(np.sort(d0, axis=1), np.array([[-1, 1], [-1, 1]]))
    assert np.linalg.matrix_rank(d0) == 1


def test_torus_morse_coboundary():
    mc = morse_coboundary(torus_sin2_product(), "torus")
    assert mc.betti == (1, 2, 1)
    d0, d1 = mc.d
    assert d0.shape == (8, 4) and d1.shape == (4, 8)
    assert np.max(np.abs(d1 @ d0)) == 0
    for m in (d0, d1):
        assert set(np.unique(m)).issubset({-1, 0, 1})
    assert np.linalg.matrix_rank(d0) == 3
    assert np.linalg.matrix_rank(d1) == 3
    assert [len(mc.degrees[q]) for q in range(3)] == [4, 8, 4]


@pytest.mark.parametrize("phases", [(0.4, 1.3), (4.87, 1.42), (0.1, 2.2),
                                    (2.2, 3.1), (0.0, 0.0)])
def test_torus_morse_coboundary_phase_shifted(phases):
    # sin(2 th1 + a) + sin(2 th2 + b): the 2-D Newton points and the
    # factor points of a shifted potential differ in the last bits
    a, b = phases
    f = TrigPoly(2, {(2, 0): (math.sin(a), math.cos(a)),
                     (0, 2): (math.sin(b), math.cos(b))})
    mc = morse_coboundary(f, "torus")
    d0, d1 = mc.d
    assert d0.shape == (8, 4) and d1.shape == (4, 8)
    assert np.max(np.abs(d1 @ d0)) == 0
    assert np.linalg.matrix_rank(d0) == 3
    assert np.linalg.matrix_rank(d1) == 3


def test_morse_coboundary_nonseparable_torus_rejected():
    mixed = TrigPoly.cosine((1, 1)) + TrigPoly.cosine((0, 1))
    with pytest.raises(ConfigError):
        morse_coboundary(mixed, "torus")
