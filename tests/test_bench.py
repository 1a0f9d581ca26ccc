"""Layer microbenchmarks (pytest-benchmark), deselected by default.

Run them with:  python -m pytest -m bench tests/test_bench.py
"""
import subprocess
import sys

import numpy as np
import pytest

from wittenlab.branches import (_CoveredSolver, _lowest_solves,
                                assign_to_critical_points,
                                lowest_eigenvalues, match_step,
                                package_branches, track_branches)
from wittenlab.config import preset
from wittenlab.derham import build_torus_complex, laplacian_family
from wittenlab.experiments import (build_complex, grid_pairings, int_morphism,
                                   run_package, vs_complex)
from wittenlab.integrals import CellMoments, a_log_total, det_log
from wittenlab.morse import flow_complex
from wittenlab.torsion import anomaly_residual

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("q", [0, 1])
def test_bench_pairing_matrix_circle(benchmark, q):
    """One pairing matrix of circle-sin2 at t = 4, paired with the
    lowest eigenvectors of the deformed Laplacian, one per cell: a
    one-t CellMoments pass, moments integrated included."""
    cfg = preset("circle-sin2")
    cx = build_complex(cfg)
    flow = flow_complex(cx.f, cx.manifold, cfg.tolerances)
    k = len(flow.degrees[q])
    _, V = np.linalg.eigh(laplacian_family(cx, q).at(4.0).toarray())
    M = benchmark(lambda: CellMoments(cx, [4.0], cfg.tolerances).pairing(
        q, V[None, :, :k], flow)[0])
    assert M.shape == (k, k)


@pytest.mark.parametrize("name", ["circle-sin2", "torus-sin2-product"])
def test_bench_grid_pairings(benchmark, name):
    """The whole-grid pairing table of a preset, every degree at every
    t, paired with the tracked package as in run_torsion."""
    cfg = preset(name)
    run = run_package(cfg, assign=True)
    table = benchmark(grid_pairings, run.cx, run.package, run.flow,
                      cfg.tolerances)
    assert [len(P) for P in table] == [len(run.package.grid)] * len(table)


def test_bench_torus_flow(benchmark):
    """One torus flow build: the torus-sin2-product points, cells and
    coboundary from its two circle-factor flows, as run_package builds
    it."""
    cfg = preset("torus-sin2-product")
    f = cfg.potential_trigpoly()
    flow = benchmark(flow_complex, f, "torus", cfg.tolerances)
    assert [len(flow.degrees[q]) for q in range(3)] == [4, 8, 4]


def _torus24_degree1():
    """The torus-sin2-product degree-1 blocks at 24 modes (dimension
    4802) and the number of branches the package run tracks there."""
    cfg = preset("torus-sin2-product")
    cx = build_torus_complex(24, cfg.potential_trigpoly())
    blocks = laplacian_family(cx, 1).split()
    return cfg, blocks, 8 + cfg.k_extra


def test_bench_block_eigensolve_torus24(benchmark):
    """One eigensolve: the t = 5 solve of every invariant block of the
    torus-sin2-product degree-1 Laplacian at 24 modes, merged to the
    k = c_1 + k_extra smallest values the tracker asks for."""
    cfg, blocks, k = _torus24_degree1()
    w, owner = benchmark(lowest_eigenvalues, blocks, 5.0, k, cfg.tolerances)
    assert w.shape == (k,) and np.all(np.diff(w) >= 0)


def test_bench_tracking_step_torus24(benchmark):
    """One tracking step: the covered solve at t = 4.75 of the largest
    degree-1 block that tracks a branch (torus-sin2-product, 24 modes)
    and the match of its t = 5 vectors onto it."""
    cfg, blocks, k = _torus24_degree1()
    tol = cfg.tolerances
    starts, _, owner = _lowest_solves(blocks, 5.0, k, tol)
    b = max(set(owner.tolist()), key=lambda b: blocks[b][1].dim)
    kb = int(np.sum(owner == b))
    w0, V0 = starts[b][0][:kb], starts[b][1][:, :kb]
    solver = _CoveredSolver(blocks[b][1], kb, tol)

    def step():
        w, V, clusters = solver.solve(4.75, needed=float(np.max(w0)))
        return match_step(V0, w, V, tol.cluster_rel, clusters)

    _, _, ov = benchmark(step)
    assert np.min(ov) >= tol.overlap_min


def test_bench_grid_walk_circle(benchmark):
    """One grid walk: track_branches of both degrees of the
    circle-torsion benchmark config at seed 1 (cos 2th, the circle-sin2
    grid and cutoff), as many branches per degree as run_package
    tracks: the stacked solves of the small blocks, the steps matched
    on their stacks and the t = 0 polish."""
    cfg = preset("circle-sin2").replace(potential={
        "arity": 1, "terms": [{"freq": [2], "cos": 1.0, "sin": 0.0}]})
    cx = build_complex(cfg)
    fams = {q: laplacian_family(cx, q) for q in (0, 1)}
    k = 2 + cfg.k_extra

    def walk():
        return [track_branches(fams[q], q, cfg.grid(), k, cfg.tolerances)
                for q in (0, 1)]

    out = benchmark(walk)
    assert [len(brs) for brs in out] == [k, k]


def test_bench_track_branches_torus24(benchmark):
    """One tracking call: the degree-1 branches of torus-sin2-product at
    24 modes over the torus-package-sparse grid (t_step 0.5 to t = 5),
    as run_package builds them: the graded Kronecker check, the stacked
    circle-factor solves, the factor tracks (matching, bisections and
    the t = 0 polish) and the Kronecker products of their vectors."""
    cfg = preset("torus-sin2-product")
    cx = build_torus_complex(24, cfg.potential_trigpoly())
    grid = np.arange(0.0, cfg.t_max + 1e-9, 0.5)
    k = 8 + cfg.k_extra
    out = benchmark(package_branches, cx, {1: k}, grid, cfg.tolerances)
    assert len(out[1]) == k


def test_bench_package_branches_torus24(benchmark):
    """The package layer alone, which has no timer of its own: the
    branches of every degree of torus-sin2-product at 24 modes over the
    torus-package-sparse grid (t_step 0.5 to t = 5), as many per degree
    as run_package tracks, built from circle-factor tracks and stored on
    their block rows."""
    cfg = preset("torus-sin2-product").replace(modes=24, t_step=0.5)
    run = run_package(cfg, assign=False)
    ks = {q: len(d.branches) + len(d.large)
          for q, d in run.package.degrees.items()}
    out = benchmark(package_branches, run.cx, ks, cfg.grid(), cfg.tolerances)
    assert {q: len(brs) for q, brs in out.items()} == ks


def test_bench_assign_torus24(benchmark):
    """Localization: assign_to_critical_points on every degree of the
    torus-sin2-product package at 24 modes over the torus-package-sparse
    grid (t_step 0.5 to t = 5), one box Gram per critical point."""
    cfg = preset("torus-sin2-product").replace(modes=24, t_step=0.5)
    run = run_package(cfg, assign=False)
    degrees = run.package.degrees

    def assign():
        for q, deg in degrees.items():
            points = [p for p in run.points if p.index == q]
            assign_to_critical_points(deg, points, run.cx, cfg.tolerances)

    benchmark(assign)
    for q, deg in degrees.items():
        assert sorted(b.critical_point for b in deg.branches) == \
            list(range(len(deg.branches)))


def test_bench_torus_assembly12(benchmark):
    """Assembly: the torus-sin2-product complex at 12 modes and the
    exact invariant blocks of the Laplacian family of every degree."""
    cfg = preset("torus-sin2-product")
    f = cfg.potential_trigpoly()

    def assemble():
        cx = build_torus_complex(cfg.modes, f)
        return [laplacian_family(cx, q).split() for q in range(cx.n + 1)]

    blocks = benchmark(assemble)
    assert [len(b) for b in blocks] == [9, 18, 9]


def test_bench_torus_assembly24(benchmark):
    """Assembly at the torus-package-sparse cutoff: the torus-sin2-product
    complex at 24 modes, the Laplacian family of every degree (sparse
    products of the operators) and its exact invariant blocks."""
    f = preset("torus-sin2-product").potential_trigpoly()

    def assemble():
        cx = build_torus_complex(24, f)
        return [laplacian_family(cx, q).split() for q in range(cx.n + 1)]

    blocks = benchmark(assemble)
    assert [len(b) for b in blocks] == [9, 18, 9]


@pytest.mark.parametrize("name", ["circle-sin2", "torus-sin2-product"])
def test_bench_torsion_assembly(benchmark, name):
    """The torsion assembly at one t (t = 2), as run_torsion does it at
    each anomaly sample: the package complex, the integration morphism
    into the Morse cochains, and anomaly_residual, which reads the
    torsions and the harmonic volume from the kernel splits of the two
    complexes.  The Morse complex's splits are computed once, as in
    run_torsion."""
    cfg = preset(name)
    tol = cfg.tolerances
    run = run_package(cfg, assign=True)
    cx, pkg, flow = run.cx, run.package, run.flow
    i = pkg.grid.tolist().index(2.0)
    pairings = [P[i] for P in grid_pairings(cx, pkg, flow, tol)]
    log_a = a_log_total({q: det_log(P) for q, P in enumerate(pairings)})

    def assemble():
        morph = int_morphism(pairings, vs_complex(cx, pkg, 2.0), flow.complex)
        return anomaly_residual(morph, log_a, cx.betti, tol)

    ok, _ = benchmark(assemble)
    assert ok


def test_bench_import_cli(benchmark):
    """Start-up: a fresh interpreter that imports wittenlab.cli, numpy
    included, and exits, the set-up every command-line call pays before
    it reads its config; the bytecode is written by one untimed run."""
    cmd = [sys.executable, "-c", "import wittenlab.cli"]
    subprocess.run(cmd, check=True)
    benchmark.pedantic(subprocess.run, args=(cmd,), kwargs={"check": True},
                       rounds=20, iterations=1)
