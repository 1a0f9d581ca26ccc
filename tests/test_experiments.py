import sys
from dataclasses import replace

import numpy as np
import pytest

from wittenlab import branches, derham, experiments
from wittenlab.branches import LABEL_VS, LABEL_ZERO
from wittenlab.config import ExperimentConfig, Tolerances, preset
from wittenlab.derham import laplacian_family, witten_laplacian
from wittenlab.errors import ConfigError, NumericalError
from wittenlab.experiments import (_anomaly_sample_ts, grid_pairings,
                                   int_morphism, morse_finite_complex,
                                   package_vectors,
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
            A = witten_laplacian(cx, q, float(t)).toarray()
            ref = np.linalg.eigvalsh(A)[:5]
            assert np.max(np.abs(run.values[q][i] - ref)) < 1e-9


def test_run_spectrum_solves_each_whole_spectrum_once(monkeypatch):
    """On the 24-mode torus every whole spectrum that run_spectrum reads
    (a circle factor shared by many blocks, or a small block) is solved
    once for the whole grid, and the values are those of a
    lowest_eigenvalues call at each t."""
    cfg = replace(preset("torus-sin2-product"), modes=24, t_step=0.5)
    solved = []  # holding each family keeps its id from being reused
    full_spectra = branches._full_spectra
    monkeypatch.setattr(branches, "_full_spectra", lambda fam, ts: (
        solved.append(fam) or full_spectra(fam, ts)))
    run = run_spectrum(cfg)
    assert 0 < len(solved) == len({id(fam) for fam in solved})
    cx = experiments.build_complex(cfg)
    for q in (0, 1, 2):
        blocks = laplacian_family(cx, q).split()
        k = run.values[q].shape[1]
        for i, t in enumerate(run.ts):
            w, _ = branches.lowest_eigenvalues(blocks, t, k, cfg.tolerances)
            assert np.array_equal(run.values[q][i], w)


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
    V = package_vectors(run.degree(0), 0.0)
    assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-10


# sin 2th1 + sin 2th2 (the torus preset's potential) turned a quarter
# period on both circles: cos 2th2 - sin 2th1
QUARTER_TURNED = {"arity": 2, "terms": [
    {"freq": [0, 2], "cos": 1.0, "sin": 0.0},
    {"freq": [2, 0], "cos": 0.0, "sin": -1.0}]}


@pytest.mark.parametrize("potential", ["sin2-product", QUARTER_TURNED],
                         ids=["preset", "quarter-turned"])
def test_tie_groups_do_not_depend_on_the_solve_route(potential, monkeypatch):
    """The torus preset and a quarter-turned copy of it, solved from the
    circle factors and from the assembled blocks, give the same tie
    groups and the same points.  Their package branches are all exactly
    degenerate, so each degree is one tie group of all its index-q
    points."""
    cfg = replace(preset("torus-sin2-product"), potential=potential)
    factored = run_package(cfg)
    monkeypatch.setattr(derham, "_factor_families", lambda *_: ())
    assembled = run_package(cfg)
    for q in (0, 1, 2):
        n_points = sum(1 for p in factored.points if p.index == q)
        for a, b in zip(factored.degree(q).branches,
                        assembled.degree(q).branches):
            assert a.tie_group == b.tie_group == list(range(n_points))
            assert a.critical_point == b.critical_point


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
    fc_morse = morse_finite_complex(run.flow)
    pairings = grid_pairings(cx, run.package, run.flow)
    fc_vs = vs_complex(cx, run.package, 0.0)
    m0 = int_morphism(pairings[0.0], fc_vs, fc_morse)
    assert m0.chain_residual < 1e-12
    fc_vs1 = vs_complex(cx, run.package, 1.0)
    m1 = int_morphism(pairings[1.0], fc_vs1, fc_morse)
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


def test_nonseparable_torus_package_takes_the_2d_search(monkeypatch):
    """A non-separable torus potential has no flow, so run_package takes
    its points from the 2-D search.  The run is stopped once tracking
    starts: at this cutoff the classification fails its zero count."""
    potential = {"arity": 2, "terms": [
        {"freq": [2, 0], "sin": 1.0}, {"freq": [0, 2], "sin": 1.0},
        {"freq": [1, 1], "cos": 0.3}]}
    cfg = ExperimentConfig(manifold="torus", potential=potential, modes=6,
                           t_max=1.0, t_step=0.5)
    calls = count_critical_point_searches(monkeypatch)

    class TrackingStarted(Exception):
        pass

    def stop(*args, **kwargs):
        raise TrackingStarted

    monkeypatch.setattr(experiments, "track_branches", stop)
    with pytest.raises(TrackingStarted):
        run_package(cfg)
    assert calls == ["torus"]


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
