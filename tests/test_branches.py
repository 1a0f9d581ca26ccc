import itertools

import numpy as np
import pytest

from wittenlab import branches, derham, experiments
from wittenlab.branches import (LABEL_LARGE, LABEL_VS, LABEL_ZERO,
                                _box_axes, _box_gram, _CoveredSolver,
                                _eig_smallest_sparse, _residuals,
                                _validate_residuals, classify,
                                lowest_eigenvalues,
                                match_step, package_branches,
                                t0_groups, track_branches)
from wittenlab.cli import main
from wittenlab.config import Tolerances, preset
from wittenlab.derham import (CSR, LaplacianFamily, build_circle_complex,
                              build_torus_complex, laplacian_family)
from wittenlab.errors import (ConfigError, GapNotFoundError, NumericalError,
                              TrackingError, ZeroCountError)
from wittenlab.trigpoly import TrigPoly, circle_sin2, torus_sin2_product

import oracles


def test_sparse_solve_rejects_asymmetric(rng):
    A = CSR.from_dense(rng.standard_normal((12, 12)))
    with pytest.raises(NumericalError, match="not symmetric"):
        _eig_smallest_sparse(A, 3)


def test_sparse_solve_rejects_a_window_outside_the_block():
    A = CSR.identity(8)
    for k in (0, 8):
        with pytest.raises(ConfigError):
            _eig_smallest_sparse(A, k)


def test_residual_check_rejects_nan():
    A = np.eye(5)
    A[2, 2] = np.nan
    w, V = np.ones(5), np.eye(5)
    with pytest.raises(NumericalError, match="residual"):
        _validate_residuals(_residuals(A, w, V), 1e-9, w)


def _clusters(w, rel):
    """The (lo, hi) ranges of the clusters of the ascending w, in order,
    read from branches._cluster_bounds."""
    lo, hi = branches._cluster_bounds(np.asarray(w, dtype=float), rel)
    return sorted(set(zip(lo.tolist(), hi.tolist())))


def test_cluster_bounds_grouping():
    """_cluster_bounds against the per-step loop (_gaps), of one list or
    of a stack: each value gets the (lo, hi) range of its cluster, hi
    exclusive."""
    w = np.array([0.0, 1e-9, 1.0, 1.0 + 1e-8, 2.0])
    lo, hi = branches._cluster_bounds(w, 1e-6)
    assert lo.tolist() == [0, 0, 2, 2, 4] and hi.tolist() == [2, 2, 4, 4, 5]
    assert _clusters(w, 1e-6) == [(0, 2), (2, 4), (4, 5)]
    assert _clusters(np.array([]), 1e-6) == []
    assert _clusters(np.array([3.0]), 1e-6) == [(0, 1)]
    # on steps planted at and around the bound
    rng = np.random.default_rng(5)
    stack = np.cumsum(rng.choice([0.0, 0.5e-6, 1e-6, 2e-6, 1e-3], (20, 30))
                      * (1.0 + rng.random((20, 30))), axis=1)
    rows = zip(stack, *branches._cluster_bounds(stack, 1e-6))
    for w, lo_row, hi_row in rows:
        lo, hi = branches._cluster_bounds(w, 1e-6)
        assert np.array_equal(lo, lo_row) and np.array_equal(hi, hi_row)
        edges = sorted(set(lo.tolist()))
        assert edges[1:] == sorted(_gaps(w, 1e-6))
        edges.append(w.size)
        want = [r for a, b in zip(edges, edges[1:]) for r in [(a, b)] * (b - a)]
        assert list(zip(lo.tolist(), hi.tolist())) == want


def test_windowed_route_tracks_the_dense_values(torus_cx6, monkeypatch):
    """With every block above the dense limit, the CSR family and the
    windowed shift-invert solve track the values of the dense route."""
    grid = np.arange(0.0, 3.0 + 1e-9, 0.5)
    fam = laplacian_family(torus_cx6, 1)
    dense = track_branches(fam, 1, grid, k=6, tol=Tolerances())
    monkeypatch.setattr(branches, "DENSE_MAX_DIM", 10)
    windowed = track_branches(fam, 1, grid, k=6, tol=Tolerances())
    for t in grid:
        a = sorted(b.value_at(t) for b in dense)
        w = sorted(b.value_at(t) for b in windowed)
        assert np.max(np.abs(np.array(a) - np.array(w))) < 1e-10


def test_windowed_dense_route_matches_full_eigh(monkeypatch):
    """The torus preset at 12 modes has blocks above SMALL_BLOCK_DIM,
    which take the syevr window.  Tracked with a full eigh on every
    block instead, every degree gives the same samples and values, the
    same vectors and signs wherever the t_max eigenspace of a block is
    simple, and the same span inside each cluster of tied values."""
    cx = build_torus_complex(12, torus_sin2_product())
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25)
    for q, k in ((0, 10), (1, 14), (2, 10)):
        fam = laplacian_family(cx, q)
        dims = [sub.dim for _, sub in fam.split()]
        assert max(dims) > branches.SMALL_BLOCK_DIM
        windowed = track_branches(fam, q, grid, k=k)
        monkeypatch.setattr(branches, "SMALL_BLOCK_DIM", 10**9)
        full = track_branches(fam, q, grid, k=k)
        monkeypatch.undo()
        for a, b in zip(full, windowed):
            assert np.array_equal(a.ts, b.ts)
            assert np.max(np.abs(a.values - b.values)) < 1e-10
        lam = np.array([b.values[-1] for b in full])
        for lo, hi in _clusters(lam, Tolerances().cluster_rel):
            Vf = np.column_stack([b.vector_at(grid[-1]) for b in full[lo:hi]])
            Vw = np.column_stack([b.vector_at(grid[-1])
                                  for b in windowed[lo:hi]])
            assert np.linalg.svd(Vf.T @ Vw, compute_uv=False).min() > 1 - 1e-10
            for a, b in zip(full[lo:hi], windowed[lo:hi]):
                # the package is simple in its block; a LARGE pair
                # degenerate inside one block is fixed only up to a
                # rotation of its span
                Va, Vb = _full_vectors(a), _full_vectors(b)
                simple = abs(Va[-1] @ Vb[-1]) > 1 - 1e-8
                if a.values[-1] < 1.0 or simple:
                    assert np.max(np.abs(Va - Vb)) < 1e-10


def _full_vectors(b):
    """The full-dimension vectors of branch b, one row per sample."""
    return np.stack([b.vector_at(t) for t in b.ts])


def _rotated_spectrum(vals, seed=7):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (vals.size, vals.size)))
    return (Q * vals) @ Q.T


def test_covered_solve_grows_past_a_cut_cluster():
    """An 11-fold cluster at positions 2-12 straddles the first syevr
    window (11 values): the solve drops the cut cluster, grows the
    window and returns the cluster whole, never a part of it."""
    vals = np.arange(100.0)
    vals[2:13] = 2.0
    fam = synthetic_family(_rotated_spectrum(vals), np.zeros((100, 100)))
    solver = _CoveredSolver(fam, 3, Tolerances())
    first = solver.window
    assert 2 < first < 13 and fam.dim > branches.SMALL_BLOCK_DIM
    w, V, _ = solver.solve(0.0)
    assert solver.window > first
    assert np.sum(np.abs(w - 2.0) < 1e-9) == 11
    assert np.max(np.abs(fam.at(0.0) @ V - V * w)) < 1e-10


def test_covered_cut_keeps_a_match_rule_cluster_whole():
    """80 and 80 + 80.5e-6 tie under _cluster_bounds (the step is
    below 1e-6 (1 + 80)) and straddle the first 9-value window of a
    100-row block: the solve drops both, returning the 7 values below."""
    vals = 10.0 * np.arange(1.0, 101.0)
    vals[7], vals[8] = 80.0, 80.0 + 80.5e-6
    fam = synthetic_family(_rotated_spectrum(vals), np.zeros((100, 100)))
    tol = Tolerances()
    assert _clusters(np.sort(vals), tol.cluster_rel)[7] == (7, 9)
    solver = _CoveredSolver(fam, 1, tol)
    assert solver.window == 9
    w, _, _ = solver.solve(0.0)
    assert w.size == 7
    assert np.max(np.abs(w - vals[:7])) < 1e-10


def _wrong_at(t_bad):
    """A _full_spectra whose lowest value at t_bad is off by 1e-3."""
    solve = branches._full_spectra

    def wrong(fam, ts):
        A, w, V = solve(fam, ts)
        w = w.copy()
        w[ts == t_bad, 0] += 1e-3
        return A, w, V

    return wrong


def test_every_tracking_solve_is_validated(monkeypatch):
    """A dense solve that is wrong only at the interior sample t = 0.5
    (its lowest value off by 1e-3) fails the residual check there.  The
    20-row block is solved whole, from the stacked grid solve."""
    A0 = _rotated_spectrum(np.arange(1.0, 21.0))
    A1 = _rotated_spectrum(np.linspace(-1.0, 1.0, 20), seed=11)
    fam = synthetic_family(A0, A1)
    assert branches._whole(fam)
    monkeypatch.setattr(branches, "_full_spectra", _wrong_at(0.5))
    with pytest.raises(NumericalError, match="residual"):
        track_branches(fam, 0, [0.0, 0.5, 1.0], k=2, tol=Tolerances())


def test_every_factor_spectrum_is_validated(torus_cx6, monkeypatch):
    """A circle-factor spectrum that is wrong only at the interior sample
    t = 2.5 (its lowest value off by 1e-3) fails the residual check of
    the factor track that the torus branches are built from, and of the
    factor spectra that the torus eigenvalue grid sums."""
    monkeypatch.setattr(branches, "_full_spectra", _wrong_at(2.5))
    with pytest.raises(NumericalError, match="residual"):
        package_branches(torus_cx6, {0: 4}, [0.0, 2.5, 5.0])
    with pytest.raises(NumericalError, match="residual"):
        branches.eigenvalue_grid(torus_cx6, {0: 4}, [0.0, 2.5, 5.0])


def _factor_blocks(N, f=None):
    """The blocks of both circle Laplacian families of the potential f
    (sin 2th by default) at cutoff N."""
    cx = build_circle_complex(N, f or circle_sin2())
    return [sub for p in range(2) for _, sub in laplacian_family(cx, p).split()]


def test_stacked_spectra_match_solves_at_each_t():
    """One stacked solve of a family over a grid gives, at each t, the
    family at t and np.linalg.eigh of it alone, bit for bit, as
    read-only arrays: on every block of circle-sin2 on its preset grid,
    and on every circle-factor block of the 24-mode torus preset on the
    torus-package-sparse grid."""
    cfg = preset("circle-sin2")
    cases = [(sub, cfg.grid()) for sub in _factor_blocks(cfg.modes)]
    cases += [(F, np.arange(0.0, 5.0 + 1e-9, 0.5)) for F in _factor_blocks(24)]
    assert len(cases) > 8
    for fam, ts in cases:
        A, w, V = branches._full_spectra(fam, ts)
        assert not any(x.flags.writeable for x in (A, w, V))
        for i, t in enumerate(ts.tolist()):
            At = fam.at(t).toarray()
            wt, Vt = np.linalg.eigh(At)
            assert np.array_equal(A[i], At)
            assert np.array_equal(w[i], wt) and np.array_equal(V[i], Vt)


def test_each_factor_block_is_solved_once_per_tracking_call(monkeypatch):
    """Building every degree of the 24-mode torus preset from its circle
    factors solves each circle-factor block it tracks once on the whole
    grid: the two equal factors are tracked once.  Only the t_max sums
    and off-grid (bisection) samples are solved alone, and the t_max
    sums of all degrees solve each circle-factor block once."""
    cx = build_torus_complex(24, torus_sin2_product())
    grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    sizes, at_t_max = [], []
    solve = branches._full_spectra

    def counting(fam, ts):
        sizes.append((fam, ts.size))
        if ts.size == 1 and ts[0] == grid[-1]:
            at_t_max.append(content(fam))
        return solve(fam, ts)

    def content(F):
        return (F.coef.tobytes(), F.pattern.indices.tobytes(),
                F.pattern.indptr.tobytes())

    monkeypatch.setattr(branches, "_full_spectra", counting)
    package_branches(cx, {0: 10, 1: 14, 2: 10}, grid)
    stacked = [content(F) for F, n in sizes if n == grid.size]
    assert all(n in (1, grid.size) for _, n in sizes)
    assert len(stacked) == len(set(stacked))
    assert 0 < len(stacked) and set(stacked) <= {
        content(F) for F in _factor_blocks(24)}
    assert len(at_t_max) == len(set(at_t_max))
    assert set(at_t_max) == {content(F) for F in _factor_blocks(24)}


ASYMMETRIC_CIRCLE = TrigPoly.sine((2,)) + TrigPoly.cosine((1,), 0.4)


def _routes(monkeypatch, fam, q, grid, k):
    """fam tracked on its stacked grid spectra, and on the per-sample
    syevr route that SMALL_BLOCK_DIM = 0 forces on every block."""
    stacked = track_branches(fam, q, grid, k=k)
    monkeypatch.setattr(branches, "SMALL_BLOCK_DIM", 0)
    per_sample = track_branches(fam, q, grid, k=k)
    monkeypatch.undo()
    return stacked, per_sample


def _assert_same_tracks(stacked, per_sample, tol):
    """The same samples, values within 1e-12, and at every sample the
    same span for each cluster of tied t_max values; a branch whose t_max
    value is simple has the same vectors, signs included, to an overlap
    of 1 - 1e-10 (entries differ by up to 3e-10 between the solvers)."""
    for a, b in zip(stacked, per_sample, strict=True):
        assert np.array_equal(a.ts, b.ts)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12
    lam = np.array([b.values[-1] for b in stacked])
    for lo, hi in _clusters(lam, tol.cluster_rel):
        Va = np.stack([_full_vectors(b) for b in stacked[lo:hi]], axis=-1)
        Vb = np.stack([_full_vectors(b) for b in per_sample[lo:hi]], axis=-1)
        cos = np.linalg.svd(Va.transpose(0, 2, 1) @ Vb, compute_uv=False)
        assert cos.min() > 1 - 1e-10
        if hi - lo == 1:
            assert np.min(np.sum(Va * Vb, axis=1)) > 1 - 1e-10


@pytest.mark.parametrize("f", [circle_sin2(), ASYMMETRIC_CIRCLE],
                         ids=["sin2", "asymmetric"])
def test_stacked_walk_matches_the_per_sample_route(monkeypatch, f):
    """Both degrees of a circle, tracked on the stacked grid spectra of
    their small blocks and on per-sample syevr solves, give the same
    tracks (_assert_same_tracks) and the same labels: sin 2th as the
    circle-sin2 preset has it, and sin 2th + 0.4 cos th, whose wells
    differ, on a grid of step 0.25 to t = 8 at 24 modes, where each
    degree is one block of 49 rows (65 at 32 modes, above
    SMALL_BLOCK_DIM)."""
    cfg = preset("circle-sin2")
    if f is ASYMMETRIC_CIRCLE:
        cfg = cfg.replace(modes=24, t_max=8.0)
    cx, tol = build_circle_complex(cfg.modes, f), cfg.tolerances
    for q in (0, 1):
        fam = laplacian_family(cx, q)
        assert all(branches._whole(sub) for _, sub in fam.split())
        routes = _routes(monkeypatch, fam, q, cfg.grid(), 2 + cfg.k_extra)
        _assert_same_tracks(*routes, tol)
        for brs in routes:
            classify(brs, 1, 2, cfg.t_max, tol)
        assert [b.label for b in routes[0]] == [b.label for b in routes[1]]


def test_stacked_factor_walks_match_the_per_sample_route(monkeypatch):
    """Every circle-factor block of the 24-mode torus preset, tracked to
    its 8 smallest values on the torus-package-sparse grid, gives the
    same tracks on its stacked spectra as on per-sample syevr solves."""
    grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    for fam in _factor_blocks(24):
        _assert_same_tracks(*_routes(monkeypatch, fam, 0, grid, 8),
                            Tolerances())


@pytest.mark.parametrize("factor, raises", [(1.05, True), (0.95, False)])
def test_residual_validated_against_the_window_scale(monkeypatch, factor,
                                                     raises):
    """The covered window of a 100-row block holds the values 1..8 (the
    top value 9 of the 9-value window is dropped): a residual just above
    eig_residual * 8 raises, just below it passes."""
    fam = synthetic_family(_rotated_spectrum(np.arange(1.0, 101.0)),
                           np.zeros((100, 100)))
    tol = Tolerances()
    solve = branches._dense_smallest

    def nudged(A, m):
        w, V = solve(A, m)
        w = w.copy()
        w[0] += factor * tol.eig_residual * 8.0 / np.max(np.abs(V[:, 0]))
        return w, V

    monkeypatch.setattr(branches, "_dense_smallest", nudged)
    if raises:
        with pytest.raises(NumericalError):
            track_branches(fam, 0, [0.0, 1.0], k=1, tol=tol)
    else:
        track_branches(fam, 0, [0.0, 1.0], k=1, tol=tol)


def test_lowest_eigenvalues_cut_does_not_depend_on_rounding():
    """The value 2 sits in blocks 0, 1 and 2, and k = 3 takes the 1 of
    block 3 and two of the three 2s: the tie goes to blocks 0 and 1,
    however the 2s move at the 1e-14 level."""
    coupling = np.array([[0.0, 1.0], [1.0, 0.0]])

    def owners(shift):
        A0 = _block_diag(*[np.diag([2.0 + s, 5.0]) for s in shift],
                         np.diag([1.0, 5.0]))
        fam = synthetic_family(A0, _block_diag(*[coupling] * 4))
        w, owner = lowest_eigenvalues(fam.split(), 0.0, 3)
        assert w == pytest.approx([1.0, 2.0, 2.0], abs=1e-13)
        return sorted(owner.tolist())

    for shift in ([0.0, 0.0, 0.0], [1e-14, 0.0, -1e-14],
                  [-1e-14, 1e-14, 0.0], [1e-14, 1e-14, -1e-14]):
        assert owners(shift) == [0, 1, 3]


def synthetic_family(A0, A1, A2=None):
    n = A0.shape[0]
    return LaplacianFamily.from_terms(np.asarray(A0, float),
                                      np.asarray(A1, float),
                                      np.zeros((n, n)) if A2 is None else A2)


def test_tracking_follows_exact_crossing():
    """Two analytic branches cross; labels must follow the eigenvectors,
    not the sorted order."""
    th = 0.6
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    D0 = np.diag([0.0, 1.0])
    D1 = np.diag([1.0, -1.0])
    fam = synthetic_family(R @ D0 @ R.T, R @ D1 @ R.T)
    grid = np.linspace(0.0, 1.0, 9)
    brs = track_branches(fam, 0, grid, k=2, tol=Tolerances())
    vals = sorted(b.value_at(1.0) for b in brs)
    assert vals == pytest.approx([0.0, 1.0], abs=1e-10)
    # each branch is affine in t: lambda_1 = t, lambda_2 = 1 - t
    for b in brs:
        got = np.array([b.value_at(t) for t in grid])
        lin0 = np.abs(got - grid).max()
        lin1 = np.abs(got - (1.0 - grid)).max()
        assert min(lin0, lin1) < 1e-10


def test_tracking_resolves_avoided_crossing():
    # gap scale well above the bisection floor so the rotation is
    # resolvable by refinement alone
    eps = 0.05
    A0 = np.array([[-1.0, eps], [eps, 1.0]])
    A1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    fam = synthetic_family(A0, A1)
    grid = np.linspace(0.0, 2.0, 11)
    brs = track_branches(fam, 0, grid, k=2, tol=Tolerances())
    for b in brs:
        for t in grid:
            lam = np.linalg.eigvalsh(fam.at(t).toarray())
            assert np.min(np.abs(lam - b.value_at(t))) < 1e-10
    # the two branches never cross: the gap stays >= 2 eps
    for t in grid:
        pair = sorted(b.value_at(t) for b in brs)
        assert pair[1] - pair[0] >= 2 * eps - 1e-12


def test_circle_branch_values_stay_in_spectrum(circle_cx8):
    grid = np.arange(0.0, 4.0 + 1e-9, 0.5)
    fam = laplacian_family(circle_cx8, 0)
    brs = track_branches(fam, 0, grid, k=5, tol=Tolerances())
    for t in grid:
        lam = np.linalg.eigvalsh(fam.at(t).toarray())
        for b in brs:
            assert np.min(np.abs(lam - b.value_at(t))) < 1e-10
    # the 5 smallest at t=4 are not the flat head: one of the lambda=1
    # modes has already overtaken the lambda=9 one by then
    vals0 = sorted(b.value_at(0.0) for b in brs)
    assert vals0 == pytest.approx([0, 1, 4, 4, 9], abs=1e-10)


def test_t0_slopes_match_finite_differences(circle_cx8):
    grid = np.arange(0.0, 2.0 + 1e-9, 0.25)
    fam = laplacian_family(circle_cx8, 0)
    brs = track_branches(fam, 0, grid, k=5, tol=Tolerances())
    vals0 = sorted(b.value_at(0.0) for b in brs)
    assert vals0 == pytest.approx([0, 1, 1, 4, 4], abs=1e-10)
    slopes = sorted(b.t0_slope for b in brs)
    fd = sorted(oracles.fd_branch_slopes(lambda t: fam.at(t).toarray(), 0.0,
                                       h=1e-6)[:5])
    assert np.max(np.abs(np.array(slopes) - np.array(fd))) < 1e-4


def test_grid_validation():
    fam = synthetic_family(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(TrackingError):
        track_branches(fam, 0, [0.0], k=1)
    with pytest.raises(TrackingError):
        track_branches(fam, 0, [1.0, 2.0], k=1)
    with pytest.raises(TrackingError):
        track_branches(fam, 0, [0.0, 0.5, 0.4], k=1)


def test_match_step_handles_cluster_rotation(rng):
    # two exactly degenerate eigenvalues: any rotated basis of the
    # eigenspace must be matched back onto the tracked frame
    w = np.array([1.0, 1.0, 3.0])
    prev = np.eye(3)[:, :2]
    th = 0.9
    Q = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0],
                  [0, 0, 1.0]])
    cols, W, ov = match_step(prev, w, Q, 1e-6)
    assert np.min(ov) > 1 - 1e-12
    assert np.max(np.abs(W - prev)) < 1e-12


def test_tied_assignment_matches_scipy(rng):
    """Assignments whose cheapest columns collide, against scipy's
    min_weight_full_bipartite_matching as the oracle: square and
    rectangular costs with many exactly tied optima, and generic costs.
    Each row gets its own column, at scipy's optimal total; which of
    several tied optima comes back is unspecified."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    tied = 0
    for trial in range(600):
        nr = int(rng.integers(2, 10))
        nc = nr + int(rng.integers(0, 4)) * (trial % 2)
        if trial % 3 == 0:
            C = -rng.random((nr, nc))
        else:  # halves, as in the degree-1 torus masses
            C = -0.5 * rng.integers(0, 3, (nr, nc))
        cols = np.argmin(C, axis=1)
        tied += np.unique(cols).size < nr
        rows, want = min_weight_full_bipartite_matching(
            csr_matrix(C - C.min() + 1.0))
        got = branches._min_cost_assignment(C)
        assert np.unique(got).size == nr
        assert C[np.arange(nr), got].sum() == pytest.approx(
            C[rows, want].sum(), rel=1e-14, abs=1e-14), (C, got, want)
    assert tied > 300


def test_assignment_of_last_bit_ties_is_optimal():
    """Costs tied to the last bit, on which a Jonker-Volgenant row
    reduction displaces the same rows forever (scipy's matching spins on
    this matrix), get an optimal assignment: the cheapest of all 24."""
    C = np.array(
        [[1.4999999999999998, 1.5, 1.0, 1.4999999999999998],
         [1.5000000000000002, 1.5000000000000002, 0.9999999999999998,
          1.5000000000000002],
         [1.5000000000000002, 1.5000000000000002, 1.0, 1.5000000000000002],
         [1.5, 1.0000000000000002, 1.0000000000000002, 1.0]])
    got = branches._min_cost_assignment(C)
    best = min(sum(C[i, p[i]] for i in range(4))
               for p in itertools.permutations(range(4)))
    assert sorted(got.tolist()) == [0, 1, 2, 3]
    assert sum(C[i, got[i]] for i in range(4)) == best


@pytest.fixture(scope="module")
def circle16_branches():
    cx = build_circle_complex(16, circle_sin2())
    grid = np.arange(0.0, 6.0 + 1e-9, 0.5)
    return track_branches(laplacian_family(cx, 0), 0, grid, k=6,
                          tol=Tolerances())


def test_classify_circle_labels(circle16_branches):
    deg = classify(circle16_branches, 1, 2, 6.0,
                   tol=Tolerances(vanish_max=1e-3))
    labels = sorted(b.label for b in deg.branches)
    assert labels == [LABEL_VS, LABEL_ZERO]
    assert len(deg.large) == 4
    assert all(b.label == LABEL_LARGE for b in deg.large)
    assert deg.beta == 1 and deg.c == 2
    assert deg.gap > Tolerances().gap_min
    assert sorted(b.value_at(0.0) for b in deg.branches) == \
        pytest.approx([0.0, 1.0], abs=1e-10)


def test_classify_wrong_zero_count(circle16_branches):
    with pytest.raises(ZeroCountError):
        classify(circle16_branches, 2, 3, 6.0,
                 tol=Tolerances(vanish_max=1e-3))


def test_classify_gap_not_found_when_horizon_too_short():
    # 16 modes cannot push the tunneling branch below the default
    # vanish ceiling by t=8: the truncation floor sits near 2e-6
    cx = build_circle_complex(16, circle_sin2())
    grid = np.arange(0.0, 8.0 + 1e-9, 0.5)
    brs = track_branches(laplacian_family(cx, 0), 0, grid, k=6,
                         tol=Tolerances())
    with pytest.raises(GapNotFoundError):
        classify(brs, 1, 2, 8.0, tol=Tolerances())


def test_branch_value_at_requires_sample(circle_cx8):
    grid = np.arange(0.0, 2.0 + 1e-9, 0.5)
    brs = track_branches(laplacian_family(circle_cx8, 0), 0, grid, k=2,
                         tol=Tolerances())
    with pytest.raises(KeyError):
        brs[0].value_at(0.123)


def test_tracking_is_deterministic(circle_cx8):
    grid = np.arange(0.0, 3.0 + 1e-9, 0.5)
    fam = laplacian_family(circle_cx8, 0)
    a = track_branches(fam, 0, grid, k=4, tol=Tolerances())
    b = track_branches(fam, 0, grid, k=4, tol=Tolerances())
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)
        assert np.array_equal(_full_vectors(x), _full_vectors(y))


def test_a_step_below_overlap_min_is_refused(circle_cx8, monkeypatch):
    """With every matched overlap capped at 0.5, no step of the 8-mode
    circle is accepted: bisection reaches its floor, the whole-spectrum
    window cannot grow, and tracking raises TrackingError."""
    match = branches.match_step

    def capped(*args):
        cols, W, ov = match(*args)
        return cols, W, np.minimum(ov, 0.5)

    monkeypatch.setattr(branches, "match_step", capped)
    with pytest.raises(TrackingError, match="matching failed"):
        track_branches(laplacian_family(circle_cx8, 0), 0,
                       np.arange(0.0, 2.0 + 1e-9, 0.5), k=3)


def _assert_recorded_overlaps(brs, tol):
    """Each recorded overlap is |<v_i, v_(i+1)>| of the branch's own
    consecutive vectors, and at least overlap_min."""
    for b in brs:
        V = _full_vectors(b)
        assert b.overlaps.shape == (len(b.ts) - 1,)
        got = np.abs(np.sum(V[:-1] * V[1:], axis=1))
        assert np.max(np.abs(b.overlaps - got)) <= 1e-12
        assert np.min(b.overlaps) >= tol.overlap_min


@pytest.mark.parametrize("run", ["circle_torsion", "torus_torsion"])
def test_package_overlaps_are_the_branch_overlaps(run, request):
    """The package branches of both presets record their own overlaps;
    the torus ones are products of circle-factor branches, whose
    overlaps multiply."""
    pkg_run = request.getfixturevalue(run).package_run
    brs = [b for d in pkg_run.package.degrees.values()
           for b in d.branches + d.large]
    _assert_recorded_overlaps(brs, pkg_run.config.tolerances)


def test_assembled_torus_overlaps_are_the_branch_overlaps(torus_cx6):
    grid = np.arange(0.0, 3.0 + 1e-9, 0.5)
    brs = track_branches(laplacian_family(torus_cx6, 1), 1, grid, k=6)
    _assert_recorded_overlaps(brs, Tolerances())


def _rot(th):
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def _block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def test_tracking_per_block_ignores_crossings_between_blocks():
    """Block 1 carries t and 2, block 2 carries 1.5 - t and 1.4 + t/2:
    the branches cross between the blocks at t = 0.75, off the grid, and
    tie at the last grid point, where the tie goes to the first block."""
    R1, R2 = _rot(0.4), _rot(1.1)
    fam = synthetic_family(
        _block_diag(R1 @ np.diag([0.0, 2.0]) @ R1.T,
                    R2 @ np.diag([1.5, 1.4]) @ R2.T),
        _block_diag(R1 @ np.diag([1.0, 0.0]) @ R1.T,
                    R2 @ np.diag([-1.0, 0.5]) @ R2.T))
    grid = np.linspace(0.0, 1.2, 7)
    brs = track_branches(fam, 0, grid, k=3, tol=Tolerances())
    assert all(len(b.ts) == len(grid) for b in brs)
    want = [1.5 - grid, grid, np.full_like(grid, 2.0)]
    for b, w in zip(brs, want):
        assert np.max(np.abs(b.values - w)) < 1e-12
    # the tied value 2 is block 1's branch: each branch is stored on its
    # block's rows, and its full-dimension vector is zero off them
    for b, rows in zip(brs, ([2, 3], [0, 1], [0, 1])):
        assert np.array_equal(b.rows, rows) and b.dim == 4
        off = np.setdiff1d(np.arange(4), rows)
        assert all(np.max(np.abs(b.vector_at(t)[off])) == 0.0 for t in grid)


def test_t0_groups_split_a_value_cluster_by_slope_across_blocks():
    """Each block holds a pair degenerate to first order at t = 0 (values
    1 + t +- 0.3 t^2 and 1 - t/2 +- 0.3 t^2), and all four values tie at
    t = 0: t0_groups gives one group per slope, each pair whole, the
    slope -1/2 group first."""
    X = np.array([[0.0, 0.3], [0.3, 0.0]])
    fam = LaplacianFamily.from_terms(np.eye(4),
                                     np.diag([1.0, 1.0, -0.5, -0.5]),
                                     _block_diag(X, X))
    grid = np.linspace(0.0, 1.0, 5)
    brs = track_branches(fam, 0, grid, k=4, tol=Tolerances())
    assert [b.rows.tolist() for b in brs] == [[2, 3]] * 2 + [[0, 1]] * 2
    assert t0_groups(brs, Tolerances().cluster_rel) == [[0, 1], [2, 3]]
    slopes = [b.t0_slope for b in brs]
    assert np.allclose(slopes, [-0.5, -0.5, 1.0, 1.0], rtol=0, atol=1e-9)


def _t0_branch(value, slope):
    """A one-sample branch at t = 0 with the given value and slope."""
    return branches.EigenBranch(
        degree=0, ts=np.zeros(1), values=np.array([value]),
        vectors=np.ones((1, 1)), rows=np.arange(1), dim=1,
        overlaps=np.zeros(0), t0_slope=slope)


def test_t0_groups_join_tied_slopes_across_a_value_cluster():
    """Values 1, 1, 1 + 1e-9 tie under cluster_rel, so the slopes -1/2,
    1, -1/2 decide: branches 0 and 2 form one group although branch 1's
    value sorts between them, and the groups go by slope.  Slopes that
    do not tie, or values that do not, split the group."""
    rel = Tolerances().cluster_rel
    brs = [_t0_branch(v, s) for v, s in ((1.0, -0.5), (1.0, 1.0),
                                         (1.0 + 1e-9, -0.5))]
    assert t0_groups(brs, rel) == [[0, 2], [1]]
    brs = [_t0_branch(v, s) for v, s in ((1.0, -0.5), (1.0, 1.0),
                                         (1.0 + 1e-9, -0.5 + 1e-3))]
    assert t0_groups(brs, rel) == [[0], [2], [1]]
    brs = [_t0_branch(v, s) for v, s in ((2.0, -0.5), (1.0, 1.0),
                                         (2.0 + 1e-3, -0.5))]
    assert t0_groups(brs, rel) == [[1], [0], [2]]


def _box_gram_loop(cx, q, W, center, radius, nodes):
    """Column-by-column reference for _box_gram."""
    axes = [_box_axes(c, radius, nodes) for c in center]
    k = W.shape[1]
    G = np.zeros((k, k))
    for bi in range(len(cx.form_components(q, W[:, 0]))):
        vals = [cx.eval_scalar_grid(cx.form_components(q, W[:, j])[bi],
                                    *[a[0] for a in axes]) for j in range(k)]
        for a in range(k):
            for b in range(a, k):
                if len(axes) == 1:
                    g = float(np.sum(axes[0][1] * vals[a] * vals[b]))
                else:
                    g = float(axes[0][1] @ (vals[a] * vals[b]) @ axes[1][1])
                G[a, b] += g
                G[b, a] = G[a, b]
    return G


def test_box_gram_matches_column_loop(rng):
    cx = build_torus_complex(6, torus_sin2_product())
    for q in range(3):
        W, _ = np.linalg.qr(rng.standard_normal((cx.dims[q], 5)))
        got = _box_gram(cx, q, W, (0.7, 2.1), 0.6, 48)
        want = _box_gram_loop(cx, q, W, (0.7, 2.1), 0.6, 48)
        assert np.max(np.abs(got - want)) < 1e-14


def test_assignment_builds_one_box_gram_per_point(monkeypatch):
    """assign_to_critical_points evaluates each critical point's box
    once: on the torus preset every (degree, point) pair has exactly one
    _box_gram call, over all of that degree's package branches, and the
    clusters' deflations and the representatives' masses reuse it."""
    calls = []
    box_gram = branches._box_gram

    def counting(cx, q, W, center, radius, nodes):
        calls.append((q, tuple(center), W.shape[1]))
        return box_gram(cx, q, W, center, radius, nodes)

    monkeypatch.setattr(branches, "_box_gram", counting)
    run = experiments.run_package(preset("torus-sin2-product"))
    want = [(p.index, tuple(p.coords), len(run.degree(p.index).branches))
            for p in run.points]
    assert len(want) == 16
    assert sorted(calls) == sorted(want)


def test_localized_representatives_are_orthonormal(monkeypatch, rng,
                                                   circle_cx8):
    """Three orthonormal degree-0 forms of one cluster, with mass all
    around the circle, and three points: the masses the assignment
    reads are those of orthonormal representatives, so at every point
    they sum to the trace of the box Gram of the forms themselves, and
    the first representative has the largest box mass that any unit
    combination has at any point."""
    W, _ = np.linalg.qr(rng.standard_normal((circle_cx8.dims[0], 3)))
    ts = np.array([4.0])
    pool = [branches.EigenBranch(
        degree=0, ts=ts, values=np.zeros(1), vectors=W[:, [j]].T,
        rows=np.arange(circle_cx8.dims[0]), dim=circle_cx8.dims[0],
        overlaps=np.zeros(0)) for j in range(3)]
    deg = branches.PackageDegree(degree=0, branches=pool, large=[], beta=1,
                                 c=3, gap=np.inf, tol_zero=0.0)
    points = [0.3, 2.5, 4.4]
    tol = Tolerances()
    masses = []
    assignment = branches._min_cost_assignment

    def recording(C):
        masses.append(-C)
        return assignment(C)

    monkeypatch.setattr(branches, "_min_cost_assignment", recording)
    branches.assign_to_critical_points(deg, points, circle_cx8, tol)
    (M,) = masses
    nodes = max(48, 2 * circle_cx8.N + 10)
    grams = [_box_gram(circle_cx8, 0, W, p, tol.mass_radius, nodes)
             for p in points]
    assert np.allclose(M.sum(axis=0), [np.trace(G) for G in grams],
                       rtol=1e-13, atol=0.0)
    top = max(np.linalg.eigvalsh(G)[-1] for G in grams)
    assert M.max() == pytest.approx(top, rel=1e-13)


# -- Kronecker-sum blocks of separable torus potentials -----------------


def _quarter_turn_torus(N, turns):
    """The torus complex of sum_i s_i trig(2 th_i), one of sin 2th,
    cos 2th, -sin 2th, -cos 2th per factor."""
    f = TrigPoly.zero(2)
    for key, turn in zip(((2, 0), (0, 2)), turns):
        amp = -1.0 if turn.startswith("-") else 1.0
        f = f + (TrigPoly.sine(key, amp) if turn.endswith("sin")
                 else TrigPoly.cosine(key, amp))
    return build_torus_complex(N, f)


def _gaps(lam, rel):
    """Positions i where a cluster of the ascending lam starts (i > 0)."""
    return {i for i in range(1, lam.size)
            if lam[i] - lam[i - 1] > rel * (1.0 + abs(lam[i]))}


TURNS = [None, ("sin", "cos"), ("cos", "-sin"), ("-sin", "-cos"),
         ("-cos", "sin")]


@pytest.mark.parametrize("turns", TURNS)
def test_factored_solve_matches_direct_eigh(torus_cx6, turns):
    """Every degree of a separable torus built from its circle factors,
    against a dense eigh of every block of the assembled family: at each
    grid point every branch value is within 1e-12 max(1, |lambda|) of
    the assembled spectrum, and at t_max the values are its k smallest
    up to values tied within cluster_rel, which k cuts by block order."""
    cx = torus_cx6 if turns is None else _quarter_turn_torus(12, turns)
    grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    ks = {0: 8, 1: 12, 2: 8}
    tracked = package_branches(cx, ks, grid)
    for q, k in ks.items():
        blocks = laplacian_family(cx, q).split()
        for t in grid:
            lam = np.sort(np.concatenate([np.linalg.eigvalsh(
                sub.at(t).toarray()) for _, sub in blocks]))
            w = np.sort([b.value_at(t) for b in tracked[q]])
            scale = np.maximum(1.0, np.abs(w))
            assert np.all(np.min(np.abs(lam[:, None] - w), axis=0)
                          <= 1e-12 * scale)
        rel = Tolerances().cluster_rel
        assert np.all(np.abs(w - lam[:k]) <= rel * (1.0 + lam[:k]))


@pytest.mark.parametrize("turns", TURNS)
def test_factored_bound_covers_the_assembled_residual(turns):
    """The checks the product branches pass (the residuals of their
    circle-factor solves and the graded Kronecker certificate) cover
    their residuals against the assembled family: at every sample of
    every branch, on the 24-mode torus and the 12-mode quarter-turn
    seeds, max |A v - lambda v| is within eig_residual times the largest
    tracked |lambda| at that t (at least 1), the bound each assembled
    solve is validated against."""
    cx = (build_torus_complex(24, torus_sin2_product()) if turns is None
          else _quarter_turn_torus(12, turns))
    tol = Tolerances()
    tracked = package_branches(cx, {0: 10, 1: 14, 2: 10},
                               np.arange(0.0, 5.0 + 1e-9, 0.5), tol)
    for q, brs in tracked.items():
        fam = laplacian_family(cx, q)
        for i, t in enumerate(brs[0].ts):
            w = np.array([b.values[i] for b in brs])
            V = np.column_stack([b.vector_at(t) for b in brs])
            r = np.abs(fam.at(t) @ V - V * w).max(axis=0)
            assert np.all(r <= tol.eig_residual * max(1.0, np.abs(w).max()))


def test_factor_blocks_are_tracked_on_one_sample_set(monkeypatch):
    """On sin 2th1 + 0.4 cos th1 + sin 2th2 at 8 modes, on a grid of
    step 1, the blocks of the first factor bisect once and those of the
    second do not, so these are tracked again on the union: every torus
    branch has the same samples, one more than the grid, and at each
    sample it is an eigenpair of the assembled family."""
    tracked_samples = []
    track = branches._track_family
    monkeypatch.setattr(branches, "_track_family", lambda *a: (
        tracked_samples.append(len(a[2])) or track(*a)))
    f = (TrigPoly.sine((2, 0)) + TrigPoly.cosine((1, 0), 0.4)
         + TrigPoly.sine((0, 2)))
    cx = build_torus_complex(8, f)
    grid = np.arange(0.0, 8.0 + 1e-9, 1.0)
    tracked = package_branches(cx, {0: 4, 1: 8, 2: 4}, grid)
    assert sorted(set(tracked_samples)) == [grid.size, grid.size + 1]
    ts = tracked[0][0].ts
    assert ts.size == grid.size + 1 and np.all(np.isin(grid, ts))
    eig_residual = Tolerances().eig_residual
    for q, brs in tracked.items():
        fam = laplacian_family(cx, q)
        for i, t in enumerate(ts):
            assert all(np.array_equal(b.ts, ts) for b in brs)
            w = np.array([b.values[i] for b in brs])
            V = np.column_stack([b.vector_at(t) for b in brs])
            r = np.abs(fam.at(t) @ V - V * w).max(axis=0)
            assert np.all(r <= eig_residual * max(1.0, np.abs(w).max()))


def _circle_factors(cx):
    """The circle complexes of h1 and h2 of a separable torus complex."""
    h1, h2, _ = cx.f.factor_parts()
    return [build_circle_complex(cx.N, h) for h in (h1, h2)]


def test_product_vectors_are_kronecker_products_of_circle_tracks():
    """On cos 2th1 - sin 2th2 at 12 modes, every torus branch vector at
    t_max is, bit for bit and sign included, u (x) v for one circle
    branch u of the first factor and one v of the second, tracked on
    their own, in the part (dth1 first) of its degree; its values are
    their sums."""
    cx = _quarter_turn_torus(12, ("cos", "-sin"))
    grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    tracked = package_branches(cx, {0: 10, 1: 14, 2: 10}, grid)
    circle = [{p: track_branches(laplacian_family(c, p), p, grid, k=16)
               for p in (0, 1)} for c in _circle_factors(cx)]
    m, t_max = cx.dims[0], grid[-1]
    parts = {0: ((0, 0),), 1: ((1, 0), (0, 1)), 2: ((1, 1),)}
    for q, brs in tracked.items():
        for b in brs:
            v = b.vector_at(t_max)
            (part,) = [j for j in range(len(parts[q]))
                       if np.any(v[j * m:(j + 1) * m])]
            M = v[part * m:(part + 1) * m].reshape(cx.N * 2 + 1, -1)
            p1, p2 = parts[q][part]
            x, y = max(((x, y) for x in circle[0][p1] for y in circle[1][p2]),
                       key=lambda xy: abs(xy[0].vector_at(t_max) @ M
                                          @ xy[1].vector_at(t_max)))
            assert np.array_equal(M, np.outer(x.vector_at(t_max),
                                              y.vector_at(t_max)))
            assert np.array_equal(b.ts, x.ts)
            assert np.array_equal(b.values, x.values + y.values)


def test_package_vectors_are_stored_on_their_block_rows(monkeypatch):
    """On cos 2th1 + sin 2th2 at 24 modes and t_step 0.5 (seed 1 of the
    torus-package-sparse benchmark) every package and LARGE branch
    stores its vectors on the rows of its torus block alone, in at most
    1 MiB for the whole package (9.67 MiB padded to the full dimension),
    and at every sample its full-dimension vector is u (x) v of two
    circle-factor tracks, scattered into those rows."""
    tracks = []
    factor_tracks = branches._factor_tracks

    def recording(*args):
        out = factor_tracks(*args)
        tracks.extend(b for brs in out.values() for b in brs)
        return out

    monkeypatch.setattr(branches, "_factor_tracks", recording)
    potential = {"arity": 2, "terms": [
        {"freq": [0, 2], "cos": 0.0, "sin": 1.0},
        {"freq": [2, 0], "cos": 1.0, "sin": 0.0}]}
    cfg = preset("torus-sin2-product").replace(modes=24, t_step=0.5,
                                               potential=potential)
    run = experiments.run_package(cfg, assign=False)
    brs = [b for d in run.package.degrees.values()
           for b in d.branches + d.large]
    assert len(brs) == 34
    for b in brs:
        dim = run.cx.dims[b.degree]
        assert b.dim == dim and len(b.rows) < dim
        assert b.vectors.shape == (len(b.ts), len(b.rows))
    assert sum(b.vectors.nbytes for b in brs) <= 2**20
    for b in brs:
        u, v = max(((u, v) for u in tracks for v in tracks
                    if u.dim * v.dim == len(b.rows)),
                   key=lambda uv: abs(np.kron(uv[0].vectors[-1],
                                              uv[1].vectors[-1])
                                      @ b.vectors[-1]))
        for t in b.ts:
            want = np.zeros(b.dim)
            want[b.rows] = np.kron(u.vector_at(t), v.vector_at(t))
            assert np.array_equal(b.vector_at(t), want)


def _record_families(monkeypatch):
    """Record the manifold of every laplacian_family call, in every
    wittenlab namespace that binds the function."""
    original = derham.laplacian_family
    calls = []

    def recording(cx, q):
        calls.append(cx.manifold)
        return original(cx, q)

    for mod in (derham, branches, experiments):
        if getattr(mod, "laplacian_family", None) is original:
            monkeypatch.setattr(mod, "laplacian_family", recording)
    return calls


def test_separable_torus_solves_no_assembled_block(monkeypatch):
    """The package of the 12-mode torus preset assembles no torus
    Laplacian family and solves no assembled block: every solve is a
    circle factor's, and its two equal factors take one family each of
    degree 0 and 1."""
    def refuse(*args):
        raise AssertionError("assembled block solved")

    monkeypatch.setattr(branches, "_dense_smallest", refuse)
    monkeypatch.setattr(branches, "_eig_smallest_sparse", refuse)
    calls = _record_families(monkeypatch)
    run = experiments.run_package(preset("torus-sin2-product"))
    assert calls == ["circle", "circle"]
    assert [len(d.branches) + len(d.large)
            for d in run.package.degrees.values()] == [10, 14, 10]


def test_nonseparable_torus_tracks_the_direct_values():
    """sin 2th1 + sin 2th2 + 0.3 cos(th1 + th2) is not a sum of circle
    potentials: its tracked values are eigenvalues of the assembled
    family, the k smallest at t_max."""
    f = (TrigPoly.sine((2, 0)) + TrigPoly.sine((0, 2))
         + TrigPoly.cosine((1, 1), 0.3))
    cx = build_torus_complex(6, f)
    grid = np.arange(0.0, 3.0 + 1e-9, 0.5)
    for q, k in ((0, 4), (1, 8), (2, 4)):
        fam = laplacian_family(cx, q)
        brs = track_branches(fam, q, grid, k=k)
        for t in grid:
            lam = np.linalg.eigvalsh(fam.at(t).toarray())
            for b in brs:
                v = b.value_at(t)
                assert np.min(np.abs(lam - v)) < 1e-10 * max(1.0, abs(v))
        at_max = sorted(b.value_at(grid[-1]) for b in brs)
        assert np.max(np.abs(np.array(at_max) - lam[:k])) < 1e-10


def _corrupted_factors(monkeypatch, rel):
    """Make every circle factor complex of a product package carry one
    entry of E off by rel, relative."""
    build = branches.build_circle_complex

    def corrupted(N, f):
        c = build(N, f)
        data = c.E[0].data.copy()
        data[0] *= 1.0 + rel
        c.E[0] = c.E[0].with_data(data)
        return c

    monkeypatch.setattr(branches, "build_circle_complex", corrupted)


def test_corrupted_factor_family_fails_the_certificate(tmp_path, capsys,
                                                       monkeypatch):
    """A circle factor whose E is off by 0.1 % in one entry is not a
    factor of the torus complex: run_package raises NumericalError and
    the package command exits 3."""
    _corrupted_factors(monkeypatch, 1e-3)
    with pytest.raises(NumericalError, match="graded Kronecker"):
        experiments.run_package(preset("torus-sin2-product"))
    assert main(["package", "--preset", "torus-sin2-product",
                 "--out", str(tmp_path)]) == 3
    assert "graded Kronecker" in capsys.readouterr().err


def test_certificate_refuses_a_corruption_no_solve_residual_shows(
        torus_cx6, monkeypatch):
    """A circle factor whose E is off by 1e-9 relative in one entry
    leaves every solve of its own families exact, so the product
    branches build without a residual failure once the certificate is
    switched off; with it, they are refused, since the defect exceeds
    operator_identity (1 + max |E|)."""
    _corrupted_factors(monkeypatch, 1e-9)
    grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    with pytest.raises(NumericalError, match="graded Kronecker"):
        package_branches(torus_cx6, {0: 4}, grid)
    monkeypatch.setattr(branches, "graded_kronecker_defect",
                        lambda *_: (0.0, 0.0))
    assert len(package_branches(torus_cx6, {0: 4}, grid)[0]) == 4
