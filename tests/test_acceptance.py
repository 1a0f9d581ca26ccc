"""End-to-end acceptance checks for the whole laboratory.

Each test prints one CRITERION line with the measured numbers so a run
log documents the margins, then asserts.  The heavy runs are shared
session fixtures (see conftest): 32-mode circle and torus packages
tracked to t = 15, torsion pipelines on both presets, and the duality
run on the torus preset.
"""

import math
import time

import numpy as np

from wittenlab.config import preset
from wittenlab.derham import laplacian_family
from wittenlab.experiments import (build_complex, package_vectors,
                                   random_based_complex, run_verify_anomaly)
from wittenlab.integrals import CellMoments, det_log

import oracles

LINES = []


def criterion(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    LINES.append(line)
    print(line)
    assert ok, line


def tracked(deg):
    return list(deg.branches) + list(deg.large)


def test_criterion_01_circle_flat_spectrum():
    cfg = preset("circle-sin2")
    t0 = time.perf_counter()
    cx = build_complex(cfg)
    w = np.linalg.eigvalsh(laplacian_family(cx, 0).at(0.0).toarray())
    dt = time.perf_counter() - t0
    want = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
    worst = float(np.max(np.abs(w[:7] - want)))
    simple = w[1] > 0.5  # the zero eigenvalue is simple
    criterion(1, worst <= 1e-9 and simple and dt < 1.0,
              f"circle flat spectrum matches k^2 doubling, worst "
              f"{worst:.2e}, zero simple, {dt:.2f}s")


def test_criterion_02_torus_flat_spectrum():
    cfg = preset("torus-sin2-product")
    t0 = time.perf_counter()
    cx = build_complex(cfg)
    w = np.linalg.eigvalsh(laplacian_family(cx, 0).at(0.0).toarray())
    dt = time.perf_counter() - t0
    head = float(np.max(np.abs(w[:5] - np.array([0, 1, 1, 1, 1.0]))))
    # the chain of the first six values stays below 4; the sixth flat
    # eigenvalue itself is 2 = 1 + 1 from the factor circles
    chain = bool(np.all(np.diff(w[:6]) >= -1e-9)) and w[5] <= 4.0 + 1e-9
    sixth = abs(w[5] - 2.0)
    criterion(2, head <= 1e-9 and chain and sixth <= 1e-9 and dt < 30.0,
              f"torus flat head (0,1,1,1,1), chain below 4, sixth value "
              f"2 within {sixth:.2e}, {dt:.1f}s")


def test_criterion_03_torus_package_is_circle_sums(circle_pkg32, torus_pkg32):
    mu2 = sorted(b.value_at(0.0)
                 for b in circle_pkg32.package.degrees[0].branches)[1]
    got = np.sort([b.value_at(0.0)
                   for b in torus_pkg32.package.degrees[0].branches])
    want = np.array([0.0, mu2, mu2, 2.0 * mu2])
    worst = float(np.max(np.abs(got - want)))
    naive = float(np.max(np.abs(got - np.array([0.0, 1.0, 1.0, 1.0]))))
    criterion(3, worst <= 1e-6 and mu2 >= 1.0 - 1e-6 and naive > 0.5,
              f"torus degree-0 package at t=0 is (0, mu2, mu2, 2 mu2) with "
              f"mu2={mu2:.9f}, worst {worst:.2e}; differs from (0,1,1,1) "
              f"by {naive:.2f}")


def test_criterion_04_torus_branches_are_pairwise_sums(torus_pkg32):
    # the oracle spectra: circle operators by collocation, summed by
    # tensor enumeration, with no package code on the way
    cx = torus_pkg32.cx
    ts = [float(t) for t in torus_pkg32.package.grid]
    fp = lambda th: 2.0 * np.cos(2.0 * th)  # both factors are sin 2th
    worst = 0.0
    n_branches = 0
    for i, t in enumerate(ts):
        w0, w1 = (oracles.collocation_circle_spectrum(cx.N, t, fp, p)
                  for p in (0, 1))
        for q, deg in torus_pkg32.package.degrees.items():
            pool = oracles.torus_spectrum_from_circle(w0, w1, q)
            for b in tracked(deg):
                n_branches += i == 0
                worst = max(worst, float(np.min(np.abs(pool - b.value_at(t)))))
    criterion(4, worst <= 1e-8,
              f"all {n_branches} tracked torus branches match sums of "
              f"collocated circle spectra at every grid point, worst "
              f"{worst:.2e}")


def test_criterion_05_long_range_dichotomy(circle_pkg32, torus_pkg32):
    worst_zero = 0.0
    worst_ratio = 0.0
    ok = True
    detail = []
    for name, run in (("circle", circle_pkg32), ("torus", torus_pkg32)):
        for q, deg in run.package.degrees.items():
            rest = []
            n_zero = 0
            for b in tracked(deg):
                peak = float(np.max(np.abs(b.values)))
                if peak <= deg.tol_zero:
                    n_zero += 1
                    worst_zero = max(worst_zero, peak)
                else:
                    rest.append(b)
            ok = ok and n_zero == deg.beta
            n_vs = 0
            for b in rest:
                lam_end, lam_mid = b.value_at(15.0), b.value_at(7.5)
                if lam_end < 1e-6 and lam_end <= 0.5 * lam_mid:
                    n_vs += 1
                    worst_ratio = max(worst_ratio, lam_end / lam_mid)
                else:
                    ok = ok and lam_end > lam_mid  # genuinely large branch
            ok = ok and n_vs == deg.c - deg.beta
            detail.append(f"{name} q={q}: {n_zero} zero + {n_vs} decaying")
    criterion(5, ok,
              f"{'; '.join(detail)}; worst zero peak {worst_zero:.2e}, "
              f"worst endpoint decay ratio {worst_ratio:.2e}")


def test_criterion_06_duality(torus_duality):
    res = torus_duality.identity_residuals
    families = ("star_square", "star_laplacian", "star_deformed",
                "parameter_flip")
    covered = all(("star_square", q) in res and ("star_laplacian", q) in res
                  and all(("star_deformed", q, t) in res
                          and ("parameter_flip", q, t) in res
                          for t in (0.0, 1.0, 5.0))
                  for q in (0, 1, 2))
    worst_id = max(v for k, v in res.items() if k[0] in families)
    ok = (covered and worst_id <= 1e-10
          and torus_duality.value_residual <= 1e-9
          and torus_duality.star_match_residual <= 1e-8)
    criterion(6, ok,
              f"operator identities worst {worst_id:.2e}, spectrum match "
              f"under potential flip {torus_duality.value_residual:.2e}, "
              f"star frame match {torus_duality.star_match_residual:.2e}")


def test_criterion_07_anomaly_fuzz():
    t0 = time.perf_counter()
    out = run_verify_anomaly(seed=0, cases=200)
    dt = time.perf_counter() - t0
    rng = np.random.default_rng(0)
    shapes_ok = True
    for _ in range(10):
        fc = random_based_complex(rng)
        shapes_ok = shapes_ok and len(fc.dims) == 4 and max(fc.dims) <= 8
    ok = (out["ok"] and out["cases"] == 200
          and out["max_residual"] <= 1e-9 and dt < 10.0 and shapes_ok)
    criterion(7, ok,
              f"200 random chain isomorphisms of 4-term complexes, max "
              f"residual {out['max_residual']:.2e}, {dt:.1f}s")


def test_criterion_08_theorem_closure(circle_torsion, torus_torsion):
    rc = circle_torsion.report.residual_working
    rt = torus_torsion.report.residual_working
    criterion(8, rc <= 1e-4 and rt <= 1e-3,
              f"comparison formula closes: circle residual {rc:.2e} "
              f"(tol 1e-4), torus residual {rt:.2e} (tol 1e-3)")


def test_criterion_09_pairing_positivity(circle_torsion, torus_torsion):
    ok = True
    worst_margin = math.inf
    for name, run in (("circle", circle_torsion), ("torus", torus_torsion)):
        cx = run.package_run.cx
        tol = run.config.tolerances
        flow = run.package_run.flow
        for q, rows in run.positivity.items():
            signs = [r[2] for r in rows]
            # determinant signs are a basis gauge; what the statement
            # needs is that they never cross zero along the deformation
            ok = ok and all(s == signs[0] and s != 0.0 for s in signs)
            deg = run.package_run.package.degrees[q]
            idx = sorted({0, len(rows) // 4, len(rows) // 2,
                          3 * len(rows) // 4, len(rows) - 1})
            for i in idx:
                t = rows[i][0]
                M = CellMoments(cx, [t], tol).pairing(
                    q, package_vectors(deg, t)[None], flow)[0]
                norms = np.linalg.norm(M, axis=0)
                ok = ok and bool(np.all(norms > 0.0))
                scale = float(np.sum(np.log(norms)))
                d = det_log(M)
                margin = d.log_abs - (math.log(1e-12) + scale)
                worst_margin = min(worst_margin, margin)
                ok = ok and not d.singular and margin > 0.0
    criterion(9, ok,
              f"pairing determinants keep a constant sign on both presets "
              f"and clear the 1e-12 scale floor by e^{worst_margin:.1f}")


def test_criterion_10_harmonic_volumes(circle_torsion, torus_torsion):
    vols = torus_torsion.report.terms["harmonic_volumes"]
    want = {0: 2.0 * math.pi, 1: 1.0, 2: 1.0 / (2.0 * math.pi)}
    worst = max(abs(vols[q] - want[q]) for q in want)
    vt = math.exp(torus_torsion.report.log_lattice_volume)
    vc = math.exp(circle_torsion.report.log_lattice_volume)
    ok = (worst <= 1e-10 and abs(vt - 1.0) <= 1e-10
          and abs(vc - 2.0 * math.pi) <= 1e-10)
    criterion(10, ok,
              f"torus harmonic volumes (2pi, 1, 1/2pi) worst {worst:.2e}; "
              f"alternating volume torus {vt:.12f}, circle {vc:.12f}")
