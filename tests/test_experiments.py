import math
import sys

import numpy as np
import pytest

from wittenlab import branches, experiments
from wittenlab.branches import LABEL_VS, LABEL_ZERO
from wittenlab.config import ExperimentConfig, Tolerances, preset
from wittenlab.derham import laplacian_family
from wittenlab.errors import ConfigError, NumericalError
from wittenlab.experiments import (_anomaly_sample_ts, grid_pairings,
                                   int_morphism, package_frames,
                                   random_based_complex, random_chain_iso,
                                   run_duality, run_morse, run_package,
                                   run_spectrum, run_torsion,
                                   run_verify_anomaly, vs_complex)
from wittenlab.morse import find_critical_points
from wittenlab.torsion import torsion_T


def small_circle_config(**kw):
    base = dict(manifold="circle", modes=16, t_max=6.0, t_step=0.5,
                tolerances=Tolerances(vanish_max=1e-3))
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def circle_run():
    return run_package(small_circle_config(), assign=True)


def test_run_spectrum_matches_dense_solves():
    cfg = ExperimentConfig(manifold="circle", modes=8, t_max=2.0, t_step=0.5)
    run = run_spectrum(cfg, k=5)
    assert sorted(run.values) == [0, 1]
    assert run.values[0].shape == (len(run.ts), 5)
    from wittenlab.derham import build_circle_complex
    cx = build_circle_complex(8, cfg.potential_trigpoly())
    for q in (0, 1):
        for i, t in enumerate(run.ts):
            A = laplacian_family(cx, q).at(float(t)).toarray()
            ref = np.linalg.eigvalsh(A)[:5]
            assert np.max(np.abs(run.values[q][i] - ref)) < 1e-9


def test_run_spectrum_solves_each_whole_spectrum_once(monkeypatch):
    """On the 24-mode torus every whole spectrum that run_spectrum reads,
    that of a circle-factor block, is solved once for the whole grid: the
    two equal factors share theirs, and no torus Laplacian family is
    assembled.  At t = 0, 2.5 and 5 the values are those of a
    lowest_eigenvalues call on the blocks of the assembled family, within
    1e-12 max(1, |lambda|)."""
    cfg = preset("torus-sin2-product").replace(modes=24, t_step=0.5)
    solved = []  # holding each family keeps its id from being reused
    full_spectra = branches._full_spectra
    monkeypatch.setattr(branches, "_full_spectra", lambda fam, ts: (
        solved.append((fam, ts.size)) or full_spectra(fam, ts)))
    built = []
    monkeypatch.setattr(branches, "laplacian_family", lambda cx, q: (
        built.append(cx.manifold) or laplacian_family(cx, q)))
    run = run_spectrum(cfg)
    assert built == ["circle", "circle"]
    assert 0 < len(solved) == len({id(fam) for fam, _ in solved})
    assert all(n == run.ts.size for _, n in solved)
    cx = experiments.build_complex(cfg)
    for q in (0, 1, 2):
        blocks = laplacian_family(cx, q).split()
        k = run.values[q].shape[1]
        for i in (0, 5, 10):
            w, _ = branches.lowest_eigenvalues(blocks, run.ts[i], k,
                                               cfg.tolerances)
            assert np.all(np.abs(run.values[q][i] - w)
                          <= 1e-12 * np.maximum(1.0, np.abs(w)))


def test_run_spectrum_is_deterministic():
    cfg = ExperimentConfig(manifold="circle", modes=8, t_max=1.0, t_step=0.5)
    a = run_spectrum(cfg, k=4)
    b = run_spectrum(cfg, k=4)
    for q in a.values:
        assert np.array_equal(a.values[q], b.values[q])


def test_run_package_structure(circle_run):
    run = circle_run
    assert sorted(run.package.degrees) == [0, 1]
    assert run.package.counts() == {0: (1, 2), 1: (1, 2)}
    for q in (0, 1):
        deg = run.degree(q)
        labels = sorted(b.label for b in deg.branches)
        assert labels == [LABEL_VS, LABEL_ZERO]
        # localization: both package branches sit on distinct critical
        # points of the right index with most of their mass
        cps = sorted(b.critical_point for b in deg.branches)
        assert cps == [0, 1]
        for b in deg.branches:
            assert b.mass is not None and b.mass > 0.5
    V = package_frames(run.degree(0), [0.0])[0]
    assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-10


@pytest.mark.parametrize("fixture", ["circle_torsion", "torus_torsion"])
def test_package_frames_are_the_branch_vectors(request, fixture):
    """Each degree's whole-grid frame stack, scattered from the stored
    block rows, holds at every grid t the full-dimension vector_at of
    each package branch, bit for bit."""
    pkg = request.getfixturevalue(fixture).package_run.package
    ts = pkg.grid.tolist()
    for deg in pkg.degrees.values():
        frames = package_frames(deg, ts)
        for i, t in enumerate(ts):
            assert np.array_equal(frames[i], np.column_stack(
                [b.vector_at(t) for b in deg.branches]))


def test_package_frames_skip_refined_samples(rng):
    """Branches on different rows, with samples that refinement put
    between grid points, give their vectors at the grid rows."""
    grid = [0.0, 0.5, 1.0]
    brs = []
    for rows, extra in (([0, 2], [0.25]), ([1, 3, 4], [0.75, 0.875])):
        ts = np.sort(np.concatenate([grid, extra]))
        brs.append(branches.EigenBranch(
            degree=0, ts=ts, values=np.zeros(ts.size),
            vectors=rng.standard_normal((ts.size, len(rows))),
            rows=np.array(rows), dim=5, overlaps=np.ones(ts.size - 1)))
    deg = branches.PackageDegree(degree=0, branches=brs, large=[], beta=0,
                                 c=2, gap=10.0, tol_zero=0.0)
    frames = package_frames(deg, grid)
    for i, t in enumerate(grid):
        assert np.array_equal(frames[i], np.column_stack(
            [b.vector_at(t) for b in brs]))


# sin 2th1 + sin 2th2 (the torus preset's potential) turned a quarter
# period on both circles: cos 2th2 - sin 2th1
QUARTER_TURNED = {"arity": 2, "terms": [
    {"freq": [0, 2], "cos": 1.0, "sin": 0.0},
    {"freq": [2, 0], "cos": 0.0, "sin": -1.0}]}


def assembled_package(run: experiments.PackageRun) -> dict:
    """The package degrees of run's config from torus-space tracking of
    the assembled Laplacian family of each degree (track_branches on
    run.cx), classified and assigned to run.points as run_package does."""
    cfg, cx = run.config, run.cx
    tol, ts = cfg.tolerances, cfg.grid()
    out = {}
    for q in range(cx.n + 1):
        points = [p for p in run.points if p.index == q]
        k = min(len(points) + cfg.k_extra, cx.dims[q])
        brs = branches.track_branches(laplacian_family(cx, q), q, ts, k, tol)
        deg = branches.classify(brs, cx.betti[q], len(points), float(ts[-1]),
                                tol)
        out[q] = branches.assign_to_critical_points(deg, points, cx, tol)
    return out


@pytest.mark.parametrize("potential", ["sin2-product", QUARTER_TURNED],
                         ids=["preset", "quarter-turned"])
def test_tie_groups_do_not_depend_on_the_solve_route(potential):
    """The torus preset and a quarter-turned copy of it, built from the
    circle-factor tracks and tracked in torus space on the assembled
    family, give the same tie groups and the same points.  Their package
    branches are all exactly degenerate, so each degree is one tie group
    of all its index-q points."""
    cfg = preset("torus-sin2-product").replace(potential=potential)
    product = run_package(cfg)
    assembled = assembled_package(product)
    for q in (0, 1, 2):
        n_points = sum(1 for p in product.points if p.index == q)
        for a, b in zip(product.degree(q).branches,
                        assembled[q].branches):
            assert a.tie_group == b.tie_group == list(range(n_points))
            assert a.critical_point == b.critical_point


# h1(th1) + h2(th2) with wells of four depths: no two package branches tie
ASYMMETRIC_TORUS = {"arity": 2, "terms": [
    {"freq": [2, 0], "sin": 1.0}, {"freq": [1, 0], "cos": 0.4},
    {"freq": [0, 2], "sin": 1.0}, {"freq": [0, 1], "sin": 0.25}]}


def test_asymmetric_torus_pins_every_branch_on_both_routes():
    """On h1 = sin 2th1 + 0.4 cos th1 and h2 = sin 2th2 + 0.25 sin th2
    at 24 modes to t = 8 every package branch is determined: its
    tie_group is its own point.  Torus-space tracking of the assembled
    family pins the same branches to the same points, with values within
    1e-10 at every grid point and masses within 1e-12.  The package is
    tracked alone (k_extra 0), on a grid of step 1, because the assembled
    blocks of 2401 rows take the shift-invert route."""
    cfg = ExperimentConfig(manifold="torus", potential=ASYMMETRIC_TORUS,
                           modes=24, t_max=8.0, t_step=1.0, k_extra=0)
    product = run_package(cfg)
    assembled = assembled_package(product)
    for q in (0, 1, 2):
        by_point = {b.critical_point: b for b in assembled[q].branches}
        assert len(by_point) == len(product.degree(q).branches)
        for b in product.degree(q).branches:
            a = by_point[b.critical_point]
            assert b.tie_group == a.tie_group == [b.critical_point]
            assert b.label == a.label
            assert abs(b.mass - a.mass) <= 1e-12
            for t in cfg.grid():
                assert abs(b.value_at(t) - a.value_at(t)) <= 1e-10


def test_asymmetric_circle_pins_every_branch():
    """On sin 2th + 0.4 cos th no two wells tie, so every package branch
    is determined by its localization alone, and the ZERO branch of
    degree 0 sits at the global minimum, found here on a fine grid."""
    potential = {"arity": 1, "terms": [{"freq": [2], "cos": 0.0, "sin": 1.0},
                                       {"freq": [1], "cos": 0.4, "sin": 0.0}]}
    run = run_package(ExperimentConfig(manifold="circle", modes=32,
                                       t_max=8.0, t_step=0.25,
                                       potential=potential))
    for q in (0, 1):
        for b in run.degree(q).branches:
            assert b.tie_group == [b.critical_point]
    th = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    th_min = th[np.argmin(np.sin(2.0 * th) + 0.4 * np.cos(th))]
    (zero,) = [b for b in run.degree(0).branches if b.label == LABEL_ZERO]
    minima = [p for p in run.points if p.index == 0]
    gap = abs(minima[zero.critical_point].coords[0] - th_min)
    assert min(gap, 2.0 * np.pi - gap) < 1e-3


def test_vs_complex_structure(circle_run):
    run = circle_run
    for t in (0.0, 1.0, 3.0):
        fc = vs_complex(run.cx, run.package, t)
        assert fc.dims == (2, 2)
        assert fc.betti() == (1, 1)
        lt = torsion_T(fc, nullities=run.cx.betti)
        assert np.isfinite(lt)


def test_int_morphism_is_a_chain_map(circle_run):
    run = circle_run
    cx = run.cx
    fc_morse = run.flow.complex
    pairings = grid_pairings(cx, run.package, run.flow)
    fc_vs = vs_complex(cx, run.package, 0.0)
    m0 = int_morphism([P[0] for P in pairings], fc_vs, fc_morse)
    assert m0.chain_residual < 1e-12
    fc_vs1 = vs_complex(cx, run.package, 1.0)
    i1 = run.package.grid.tolist().index(1.0)
    m1 = int_morphism([P[i1] for P in pairings], fc_vs1, fc_morse)
    # package vectors are not band limited, so the compressed Stokes
    # identity only holds up to the spectral tail of the frames
    assert m1.chain_residual < 1e-7
    m1.require_chain_map(1e-7)


def test_run_morse_structure():
    run = run_morse(ExperimentConfig(manifold="circle", modes=8,
                                     t_max=2.0, t_step=0.5))
    assert all(dim >= 0 for _, _, dim in run.smale_table)
    assert len(run.points) == 4
    assert sorted(len(c) for c in run.cells) == [1, 1, 2, 2]
    assert run.betti == (1, 1)


def test_run_torsion_small_circle():
    # 16 modes leave the t = 4 anomaly sample unresolved (see below)
    run = run_torsion(small_circle_config(modes=20))
    rep = run.report
    # the comparison formula closes at t = 0 quantities, which a small
    # cutoff already resolves to machine precision
    assert rep.residual_working < 1e-8
    assert rep.residual_printed > 0.5  # the sign-flipped assembly is off
    # composite identities away from t = 0 degrade with the spectral
    # tail of the frames; the t = 4 sample is the worst
    assert rep.anomaly[0][1] < 1e-12
    assert all(r < 5e-3 for _, r in rep.anomaly)
    assert all(r < 1e-3 for _, r in run.chain_residuals)
    for q, rows in run.positivity.items():
        signs = {s for _, _, s, _ in rows}
        assert len(signs) == 1 and 0.0 not in signs


def test_run_torsion_enforces_the_anomaly_check():
    # at 16 modes the frames' spectral tail puts the t = 4 residual at
    # 1.4e-3, above the check's 1e-3 bound
    with pytest.raises(NumericalError, match="anomaly identity fails at t=4.0"):
        run_torsion(small_circle_config())


def count_critical_point_searches(monkeypatch):
    """Record the manifold of every find_critical_points call, in every
    wittenlab namespace that binds the function."""
    original = find_critical_points
    calls = []

    def counted(f, manifold, *args, **kwargs):
        calls.append(manifold)
        return original(f, manifold, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "wittenlab" and \
                getattr(mod, "find_critical_points", None) is original:
            monkeypatch.setattr(mod, "find_critical_points", counted)
    return calls


def test_critical_points_found_once_per_flow(monkeypatch):
    calls = count_critical_point_searches(monkeypatch)
    run_torsion(small_circle_config(modes=20))
    assert calls == ["circle"]
    del calls[:]
    run_torsion(preset("torus-sin2-product"))
    # one search per circle factor; the torus points are their products
    assert calls == ["circle", "circle"]


# sin 2th1 + sin 2th2 + 0.3 cos(th1 + th2): no flow; at 6 modes the
# classification fails its zero count
NONSEPARABLE = ExperimentConfig(manifold="torus", modes=6, t_max=1.0,
                                t_step=0.5, potential={"arity": 2, "terms": [
                                    {"freq": [2, 0], "sin": 1.0},
                                    {"freq": [0, 2], "sin": 1.0},
                                    {"freq": [1, 1], "cos": 0.3}]})


class TrackingStarted(Exception):
    pass


def stop_at_tracking(monkeypatch):
    def stop(*args, **kwargs):
        raise TrackingStarted

    monkeypatch.setattr(experiments, "package_branches", stop)


def test_nonseparable_torus_package_takes_the_2d_search(monkeypatch):
    """A non-separable torus potential has no flow, so run_package takes
    its points from the 2-D search.  The run is stopped once tracking
    starts."""
    calls = count_critical_point_searches(monkeypatch)
    stop_at_tracking(monkeypatch)
    with pytest.raises(TrackingStarted):
        run_package(NONSEPARABLE)
    assert calls == ["torus"]


@pytest.mark.parametrize("runner, cfg, message", [
    (run_torsion, NONSEPARABLE, "unsupported flow"),
    (run_torsion, small_circle_config(degrees=(0,)), "every degree"),
    (run_duality, small_circle_config(degrees=(0,)), r"dual degrees \[1\]"),
    (run_duality, NONSEPARABLE.replace(degrees=(0, 1)),
     r"dual degrees \[2\]"),
], ids=["torsion-no-flow", "torsion-degrees", "duality-circle",
        "duality-torus"])
def test_config_preconditions_are_checked_before_tracking(monkeypatch, runner,
                                                          cfg, message):
    """torsion refuses a config without a flow or with a degree left out,
    and duality one without the dual of a tracked degree, before any
    branch is tracked."""
    stop_at_tracking(monkeypatch)
    with pytest.raises(ConfigError, match=message):
        runner(cfg)


def test_run_duality_small_circle():
    dual = run_duality(small_circle_config())
    assert max(dual.identity_residuals.values()) < 1e-10
    assert dual.value_residual < 1e-9
    assert dual.star_match_residual < 1e-8
    assert {p[0] for p in dual.pairs} == {0, 1}
    for q, v0, labels_f, labels_g in dual.pairs:
        assert v0 == pytest.approx(0.0, abs=1e-9) or v0 > 0.5
        assert len(labels_f) == len(labels_g)


def test_anomaly_sample_ts():
    assert _anomaly_sample_ts(np.arange(0.0, 2.5, 0.5)) == [0.0, 1.0, 2.0]
    assert _anomaly_sample_ts(np.arange(0.0, 16.0, 0.5)) == [0.0, 1.0, 2.0, 4.0]
    assert _anomaly_sample_ts(np.array([0.0, 0.3])) == [0.0, 0.3]


def test_random_based_complex_shapes(rng):
    for _ in range(20):
        fc = random_based_complex(rng)
        assert len(fc.dims) == 4
        assert all(1 <= n <= 8 for n in fc.dims)
        b = fc.betti()
        assert all(x >= 0 for x in b)


def test_random_chain_iso_preserves_betti(rng):
    fc = random_based_complex(rng)
    phis, fc2 = random_chain_iso(rng, fc)
    assert fc2.dims == fc.dims
    assert fc2.betti() == fc.betti()
    for p in phis:
        assert np.linalg.cond(p) <= 30.0 + 1e-6


def test_run_verify_anomaly_small():
    out = run_verify_anomaly(seed=3, cases=25)
    assert out["ok"] and out["cases"] == 25 and out["seed"] == 3
    assert out["max_residual"] <= 1e-9
    again = run_verify_anomaly(seed=3, cases=25)
    assert again == out


def test_torsion_requires_all_degrees():
    cfg = small_circle_config(degrees=(0,))
    with pytest.raises(ConfigError):
        run_torsion(cfg)


@pytest.mark.parametrize("name, want", [("circle-sin2", 10),
                                        ("torus-sin2-product", 15)])
def test_run_torsion_splits_each_degree_once(monkeypatch, name, want):
    """run_torsion decomposes each Laplacian of each finite complex once:
    the Morse complex and the package complex at the four anomaly
    samples, every degree of each, so 2 + 4 * 2 on the circle and
    3 + 4 * 3 on the torus (23 and 37 when det_prime, harmonic_basis
    and the anomaly loops each solved their own)."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "wittenlab.torsion":
                calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, attr, counted(getattr(np.linalg, attr)))
    run = run_torsion(preset(name))
    assert len(run.report.anomaly) == 4
    assert len(calls) == want


def test_vs_complex_rejects_nan_frames(circle_run, monkeypatch):
    frames = experiments.package_frames

    def poisoned(deg, ts):
        out = frames(deg, ts)
        out[..., 0, 0] = np.nan
        return out

    monkeypatch.setattr(experiments, "package_frames", poisoned)
    with pytest.raises(NumericalError, match="orthonormal"):
        vs_complex(circle_run.cx, circle_run.package, 1.0)


def test_vs_complex_rejects_a_nan_leak(circle_run):
    cx = circle_run.cx._replace(E=[float("nan") * Eq for Eq in circle_run.cx.E])
    with pytest.raises(NumericalError, match="leaks"):
        vs_complex(cx, circle_run.package, 1.0)


def test_verify_anomaly_reports_a_nan_residual(monkeypatch):
    from wittenlab import torsion

    monkeypatch.setattr(torsion, "check_anomaly",
                        lambda *terms: (True, math.nan))
    out = run_verify_anomaly(seed=0, cases=3)
    assert math.isnan(out["max_residual"]) and not out["ok"]
