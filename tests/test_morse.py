import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wittenlab import morse
from wittenlab.cli import main
from wittenlab.errors import (ConfigError, DegenerateCriticalPointError,
                              NumericalError)
from wittenlab.morse import (CriticalPoint, factor_potentials,
                             find_critical_points, flow_complex)
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


@pytest.mark.parametrize("amps", oracles.TORUS_FACTOR_AMPLITUDES)
def test_torus_flow_points_match_the_search_and_the_oracle(amps):
    """The torus flow builds its points from the circle factors.  On the
    16 quarter-turn potentials and on the phases (0.4, 1.3) they come in
    the order of the 2-D Newton search and of the grid-scan oracle, with
    the same indices and coordinates within 1e-12."""
    terms = {(2, 0): amps[0], (0, 2): amps[1]}
    f = TrigPoly(2, terms)
    want = oracles.torus_critical_points(terms)
    assert len(want) == 16
    for got in (flow_complex(f, "torus").points,
                find_critical_points(f, "torus")):
        assert [p.index for p in got] == [i for i, _ in want]
        for p, (_, coords) in zip(got, want):
            assert all(ang_eq(a, b, 1e-12) for a, b in zip(p.coords, coords))


def _newton_seed_loop(f, n, newton_tol=1e-12):
    """Reference for the Newton search: each seed of its grid stepped on
    its own (as np.linalg.solve steps it, a singular Hessian ending the
    seed) and wrapped, a point within 1e-6 of a kept one dropped."""
    grads = [f.partial(i) for i in range(n)]
    hess = [[g.partial(j) for j in range(n)] for g in grads]
    m = max(8 * max(1, max(f.max_freq())), 16)
    axis = np.arange(m) * (TWO_PI / m)
    found = []
    for seed in itertools.product(axis, repeat=n):
        x = np.array(seed)
        for _ in range(60):
            g = np.array([gp(*x) for gp in grads])
            if np.max(np.abs(g)) < newton_tol:
                break
            try:
                s = np.linalg.solve(
                    np.array([[hp(*x) for hp in row] for row in hess]), -g)
            except np.linalg.LinAlgError:
                break
            x = x + np.clip(s, -0.5, 0.5)
        else:
            continue
        if np.max(np.abs(g)) >= newton_tol:
            continue
        y = [math.fmod(c, TWO_PI) for c in x]
        y = [c + TWO_PI if c < 0 else c for c in y]
        x = tuple(0.0 if c > TWO_PI - 1e-12 else c for c in y)
        if all(max(min(abs(a - b) % TWO_PI, TWO_PI - abs(a - b) % TWO_PI)
                   for a, b in zip(x, y)) >= 1e-6 for y in found):
            found.append(x)
    return sorted(found)


@pytest.mark.parametrize("f", [
    circle_sin2(), TrigPoly.sine((2,)) + TrigPoly.cosine((1,), 0.4),
    TrigPoly(1, {(1,): (0.3, 1.0), (3,): (0.0, 0.25)}),
    torus_sin2_product(),
    torus_sin2_product() + TrigPoly.cosine((1, 1), 0.3),
    TrigPoly.cosine((4, 0)) + TrigPoly.cosine((0, 4)),
    TrigPoly(2, {(2, 0): (1.0, 0.0), (0, 2): (0.0, -1.0),
                 (1, 0): (0.4, 0.0)})],
    ids=["sin2", "asymmetric", "odd", "torus", "generic-torus", "cos4",
         "turned"])
def test_newton_on_all_seeds_matches_the_seed_loop(f):
    """Stepping every seed at once finds the points of the per-seed
    loop, coordinates bit for bit."""
    n = f.arity
    got = sorted(p.coords for p in
                 find_critical_points(f, ("circle", "torus")[n - 1]))
    assert got == _newton_seed_loop(f, n)


def test_duplicates_are_dropped_against_the_kept_points():
    """A chain of points 0.6e-6 apart keeps every other one: the third
    lies 1.2e-6 from the first, the one point kept before it; nearness
    wraps around 2 pi."""
    x = np.array([[0.0], [0.6e-6], [1.2e-6], [TWO_PI - 0.5e-6], [3.0]])
    assert morse._distinct(x).tolist() == [[0.0], [1.2e-6], [3.0]]
    assert morse._distinct(np.zeros((0, 2))).shape == (0, 2)


def _distinct_loop(x):
    """The greedy rule one kept row at a time, each pass over all the
    rows left: the reference for morse._distinct."""
    kept = []
    while len(x):
        kept.append(x[0].copy())
        r = np.abs(x - x[0]) % TWO_PI
        x = x[np.max(np.minimum(r, TWO_PI - r), axis=1) >= 1e-6]
    return np.array(kept).reshape(-1, x.shape[1])


@pytest.mark.parametrize("n", [1, 2])
def test_distinct_matches_the_greedy_loop_on_random_clouds(rng, n):
    """Clouds of rows a few 1e-6 wide, some around 0 = 2 pi, with pairs
    1e-6 - 1e-12 and 1e-6 + 1e-12 apart (across 0 = 2 pi too) and
    pairs 0.9e-6 apart on a diagonal, keep exactly the rows of the
    loop, in its order."""
    for trial in range(40):
        centers = rng.uniform(0.0, TWO_PI, (int(rng.integers(1, 12)), n))
        wrap = min(trial % 3, len(centers))
        centers[:wrap] = rng.uniform(-2e-6, 2e-6, (wrap, n))
        x = centers[rng.integers(0, len(centers), 120)]
        x = x + rng.normal(0.0, 1e-6 * rng.uniform(0.1, 3.0), x.shape)
        base = rng.uniform(0.0, TWO_PI, (8, n))
        base[:2, 0] = TWO_PI - 0.5e-6
        step = np.zeros((8, n))
        step[:, 0] = 1e-6 + np.array([-1e-12, 1e-12] * 4)
        # pairs 0.9e-6 apart along both angles, either diagonal
        pairs = rng.uniform(0.0, TWO_PI, (40, n))
        diagonal = 0.9e-6 * rng.choice([-1.0, 1.0], (40, n))
        x = np.concatenate([x, base, base + step, pairs, pairs + diagonal])
        x = np.mod(rng.permutation(x), TWO_PI)
        want = _distinct_loop(x)
        got = morse._distinct(x)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_high_frequency_torus_search_stays_small():
    """cos 16th1 + cos 16th2 (frequencies up to 63 are valid) steps its
    16384 seeds at once and finds the 1024 points (a pi/16, b pi/16),
    of index the number of even a, b, within 32 MiB of traced memory: a
    distance table over all pairs of seeds would take gigabytes."""
    f = TrigPoly.cosine((16, 0)) + TrigPoly.cosine((0, 16))
    tracemalloc.start()
    try:
        points = find_critical_points(f, "torus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    got = {}
    for p in points:
        ab = tuple(round(c * 16 / math.pi) % 32 for c in p.coords)
        assert all(ang_eq(c, m * math.pi / 16, 1e-14)
                   for c, m in zip(p.coords, ab))
        got[ab] = p.index
    assert got == {(a, b): (a % 2 == 0) + (b % 2 == 0)
                   for a in range(32) for b in range(32)}


def test_torus_flow_points_are_factor_products():
    """Each torus point carries the sum of its factor indices and values
    and the sorted pair of factor Hessian eigenvalues."""
    f = torus_sin2_product() + TrigPoly.const(2, 0.5)
    h1, h2 = factor_potentials(f)
    by_coords = {(a.coords + b.coords): (a, b)
                 for a in find_critical_points(h1, "circle")
                 for b in find_critical_points(h2, "circle")}
    flow = flow_complex(f, "torus")
    assert len(flow.points) == len(by_coords) == 16
    for p in flow.points:
        a, b = by_coords[p.coords]
        assert p.index == a.index + b.index
        assert p.value == a.value + b.value
        assert p.value == pytest.approx(f(*p.coords), abs=1e-12)
        assert p.hessian == tuple(sorted(a.hessian + b.hessian))
    assert flow.points == tuple(sorted(flow.points,
                                       key=lambda p: (p.index, p.coords)))


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
    flow = flow_complex(circle_sin2(), "circle")
    minima = [p for p in flow.points if p.index == 0]
    for p, cells in zip(flow.points, flow.cells):
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
    flow = flow_complex(torus_sin2_product(), "torus")
    for p, cells in zip(flow.points, flow.cells):
        assert len(cells) == 2 ** p.index
        for cell in cells:
            assert cell.dim == p.index
            assert len(cell.axes) == 2
            assert len(cell.boundary) == p.index


def test_morse_smale_certificates():
    # a failed certificate raises, so a built complex has passed it
    table = flow_complex(circle_sin2(), "circle").smale_table
    assert all(dim == 0 for _, _, dim in table)
    table2 = flow_complex(torus_sin2_product(), "torus").smale_table
    assert all(dim >= 0 for _, _, dim in table2)
    assert len(table2) > 0


def test_morse_smale_violation_raises(monkeypatch):
    # adjacent maxima: the right arc of the first ends at the second, a
    # connection whose trajectory space has dimension -1
    pts = [CriticalPoint(coords=(c,), index=i, value=float(i),
                         hessian=(1.0 - 2.0 * i,))
           for i, c in ((0, 0.5), (0, 3.5), (1, 1.5), (1, 2.5))]
    monkeypatch.setattr(morse, "find_critical_points", lambda *_: pts)
    with pytest.raises(NumericalError, match="transversality"):
        flow_complex(circle_sin2(), "circle")


def test_circle_morse_coboundary():
    mc = flow_complex(circle_sin2(), "circle")
    assert mc.betti == (1, 1)
    (d0,) = mc.d
    assert d0.shape == (2, 2)
    assert set(np.unique(d0)).issubset({-1, 0, 1})
    # each maximum flows to both minima with opposite signs
    assert np.array_equal(np.sort(d0, axis=1), np.array([[-1, 1], [-1, 1]]))
    assert np.linalg.matrix_rank(d0) == 1


def test_torus_morse_coboundary():
    mc = flow_complex(torus_sin2_product(), "torus")
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
    # sin(2 th1 + a) + sin(2 th2 + b): shifted phases move the points
    # off the quarter turns
    a, b = phases
    f = TrigPoly(2, {(2, 0): (math.sin(a), math.cos(a)),
                     (0, 2): (math.sin(b), math.cos(b))})
    mc = flow_complex(f, "torus")
    d0, d1 = mc.d
    assert d0.shape == (8, 4) and d1.shape == (4, 8)
    assert np.max(np.abs(d1 @ d0)) == 0
    assert np.linalg.matrix_rank(d0) == 3
    assert np.linalg.matrix_rank(d1) == 3


def test_morse_coboundary_nonseparable_torus_rejected():
    mixed = TrigPoly.cosine((1, 1)) + TrigPoly.cosine((0, 1))
    with pytest.raises(ConfigError):
        flow_complex(mixed, "torus")


def test_flow_carries_its_complex_and_checks_its_betti(monkeypatch):
    """FlowComplex.complex is the FiniteComplex of the integer coboundary,
    whose Betti numbers certify the flow's; cells that bound nothing
    leave d = 0, and the flow is refused."""
    for f, manifold in ((circle_sin2(), "circle"),
                        (torus_sin2_product(), "torus")):
        flow = flow_complex(f, manifold)
        fc = flow.complex
        assert fc.dims == tuple(len(flow.degrees[q]) for q in flow.degrees)
        assert all(np.array_equal(a, b) for a, b in zip(fc.d, flow.d))
        assert fc.betti() == flow.betti
    cells = morse._circle_cells
    monkeypatch.setattr(morse, "_circle_cells", lambda points, x: [
        piece._replace(orientation=0) for piece in cells(points, x)])
    with pytest.raises(NumericalError, match=r"ranks \(2, 2\), expected "
                                             r"\(1, 1\)"):
        flow_complex(circle_sin2(), "circle")


def test_morse_exits_3_on_a_corrupted_torus_coboundary(monkeypatch,
                                                         tmp_path, capsys):
    """One sign of a circle factor's coboundary flipped: `wittenlab morse`
    on the torus preset exits 3 and writes nothing.  The graded product
    rule keeps d o d = 0 whatever the factor coboundaries are, so the
    flipped sign shows as the wrong cohomology of the product complex."""
    full = morse._full_coboundary

    def flipped(flow):
        out = full(flow).copy()
        i, j = np.argwhere(out)[0]
        out[i, j] = -out[i, j]
        return out

    monkeypatch.setattr(morse, "_full_coboundary", flipped)
    out = tmp_path / "out"
    assert main(["morse", "--preset", "torus-sin2-product",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "expected (1, 2, 1)" in err
    assert not out.exists()
