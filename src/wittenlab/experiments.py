"""End-to-end experiment drivers shared by the command line and tests.

Each runner takes an ExperimentConfig and returns a small result object;
serialization stays in the command-line layer.  The torsion pipeline is
the long composition: track branches, classify the package, build the
critical-point complex, pair the two through the weighted cell
integrals, and assemble the comparison formulas.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .branches import (
    LABEL_VS,
    PackageDegree,
    SpectralPackage,
    assign_to_critical_points,
    classify,
    eigenvalue_grid,
    package_branches,
)
from .config import ExperimentConfig, _potential_to_json
from .derham import (
    DeRhamComplex,
    build_circle_complex,
    build_torus_complex,
    check_duality_identities,
)
from .errors import ConfigError, NumericalError
from .integrals import CellMoments, a_log_total, det_log
from .morse import FlowComplex, find_critical_points, flow_complex
from .torsion import (
    ComplexMorphism,
    FiniteComplex,
    TorsionReport,
    alternating_log,
    branch_term_from_values,
    check_anomaly,
    cohomology_volumes,
    evaluate_theorem,
    harmonic_basis,
    harmonic_volumes,
    torsion_T,
    vol_of_iso,
)


def build_complex(config: ExperimentConfig) -> DeRhamComplex:
    f = config.potential_trigpoly()
    if config.manifold == "circle":
        return build_circle_complex(config.modes, f)
    return build_torus_complex(config.modes, f)


# -- spectrum ---------------------------------------------------------------


class SpectrumRun(NamedTuple):
    config: ExperimentConfig
    ts: np.ndarray
    values: dict  # q -> array (len(ts), k)


def run_spectrum(config: ExperimentConfig, k: int | None = None) -> SpectrumRun:
    """Lowest eigenvalues of every requested degree along the grid."""
    cx = build_complex(config)
    degrees = config.degrees or list(range(cx.n + 1))
    ts = config.grid()
    ks = {q: k or min(cx.dims[q], 8) for q in degrees}
    return SpectrumRun(config=config, ts=ts, values=eigenvalue_grid(
        cx, ks, ts, config.tolerances))


# -- package ----------------------------------------------------------------


class PackageRun(NamedTuple):
    config: ExperimentConfig
    cx: DeRhamComplex
    points: tuple
    package: SpectralPackage
    flow: FlowComplex | None  # None for a non-separable torus potential

    def degree(self, q: int) -> PackageDegree:
        return self.package.degrees[q]


def run_package(config: ExperimentConfig, assign: bool = True) -> PackageRun:
    """Track, classify, and localize the full spectral package.

    The critical points come from the flow complex wherever it exists:
    the circle and separable torus potentials.  A non-separable torus
    potential has no flow, and its points come from the 2-D search.
    """
    cx = build_complex(config)
    tol = config.tolerances
    if cx.f.is_separable():
        flow = flow_complex(cx.f, cx.manifold, tol)
        points = flow.points
    else:
        flow = None
        points = tuple(find_critical_points(cx.f, cx.manifold, tol))
    counts = [sum(1 for p in points if p.index == q) for q in range(cx.n + 1)]
    degrees = config.degrees or list(range(cx.n + 1))
    ts = config.grid()
    pkg = SpectralPackage(manifold=cx.manifold, grid=ts, degrees={})
    ks = {q: min(counts[q] + config.k_extra, cx.dims[q]) for q in degrees}
    tracked = package_branches(cx, ks, ts, tol)
    for q in degrees:
        deg = classify(tracked[q], cx.betti[q], counts[q], float(ts[-1]),
                       tol=tol)
        if assign:
            pts_q = [p for p in points if p.index == q]
            assign_to_critical_points(deg, pts_q, cx, tol=tol)
        pkg.degrees[q] = deg
    return PackageRun(config=config, cx=cx, points=points, package=pkg,
                      flow=flow)


# -- morse flow -------------------------------------------------------------


def run_morse(config: ExperimentConfig) -> FlowComplex:
    """The certified flow complex of the configured potential."""
    return flow_complex(config.potential_trigpoly(), config.manifold,
                        config.tolerances)


# -- the virtually small complex and its pairing ----------------------------


def package_frames(deg: PackageDegree, ts) -> np.ndarray:
    """Package branch vectors at every t of ts, (len(ts), dim, k): the
    vectors of each branch at ts as the columns, zeros first."""
    out = np.zeros((len(ts), deg.branches[0].dim, len(deg.branches)))
    for j, b in enumerate(deg.branches):
        out[:, b.rows, j] = b.vectors[b.sample_index(ts)]
    return out


def package_vectors(deg: PackageDegree, t: float) -> np.ndarray:
    """Package branch vectors at t as columns, zeros first."""
    return package_frames(deg, [t])[0]


def vs_complex(cx: DeRhamComplex, pkg: SpectralPackage, t: float) -> FiniteComplex:
    """The package subcomplex at one deformation value.

    Branch vectors span a d(t)-invariant subspace; the coboundary is
    the compression of d(t) to those frames, and the frames are
    validated orthonormal so the complex carries identity Grams.
    """
    degs = sorted(pkg.degrees)
    if degs != list(range(cx.n + 1)):
        raise ConfigError("the package complex needs every degree tracked")
    V = [package_vectors(pkg.degrees[q], t) for q in degs]
    for q, Vq in zip(degs, V):
        r = np.max(np.abs(Vq.T @ Vq - np.eye(Vq.shape[1])))
        if r > 1e-8:
            raise NumericalError(f"branch frame in degree {q} is not "
                                 f"orthonormal at t={t} (residual {r:.2e})")
    ds = cx.witten_d(t)
    d_small = []
    for q in range(cx.n):
        big = ds[q] @ V[q]
        small = V[q + 1].T @ big
        # the compression must be exact: d(t) preserves the package span
        leak = np.max(np.abs(big - V[q + 1] @ small))
        scale = max(1.0, float(np.max(np.abs(big))))
        if leak > 1e-6 * scale:
            raise NumericalError(f"package span leaks under d(t) in degree "
                                 f"{q}: residual {leak:.2e}")
        d_small.append(small)
    dims = tuple(Vq.shape[1] for Vq in V)
    return FiniteComplex(dims=dims, d=d_small)


def morse_finite_complex(mc) -> FiniteComplex:
    return FiniteComplex(dims=tuple(len(mc.degrees[q]) for q in sorted(mc.degrees)),
                         d=[m.astype(float) for m in mc.d])


def grid_pairings(cx: DeRhamComplex, pkg: SpectralPackage, flow: FlowComplex,
                  tol=None) -> dict:
    """Pairing matrices of the package with the flow cells along the grid.

    Returns float(t) -> [pairing matrix of degree q for q = 0..n] for
    every grid point t; the torsion pipeline reads its determinants, its
    integration morphisms and its positivity probe from this one table.
    One CellMoments pass integrates each cell arc once for the whole grid.
    """
    ts = [float(t) for t in pkg.grid]
    moments = CellMoments(cx, ts, tol)
    by_degree = [moments.pairing(q, package_frames(pkg.degrees[q], ts), flow)
                 for q in range(cx.n + 1)]
    return {t: [P[i] for P in by_degree] for i, t in enumerate(ts)}


def int_morphism(pairings: list, fc_vs: FiniteComplex,
                 fc_morse: FiniteComplex) -> ComplexMorphism:
    """The weighted integration map from the package complex to cochains.

    pairings holds the pairing matrix of every degree at one t.
    """
    return ComplexMorphism(domain=fc_vs, codomain=fc_morse,
                           maps=[P.T for P in pairings])


# -- torsion pipeline -------------------------------------------------------


class TorsionRun(NamedTuple):
    config: ExperimentConfig
    package_run: PackageRun
    report: TorsionReport
    positivity: dict  # q -> list of (t, log|det|, sign, cond)
    chain_residuals: list  # (t, relative chain-map residual)


def _anomaly_sample_ts(grid: np.ndarray) -> list:
    """Deformation values where the package is still numerically resolved."""
    out = [0.0]
    for target in (1.0, 2.0, 4.0):
        t = float(grid[np.argmin(np.abs(grid - target))])
        if t > out[-1]:
            out.append(t)
    return out


def run_torsion(config: ExperimentConfig) -> TorsionRun:
    """Track the package and assemble the torsion comparison formulas.

    The config is refused before any tracking when it leaves out a
    degree or has no flow (a non-separable torus potential).
    """
    if set(config.degrees) != set(range(config.dim + 1)):
        raise ConfigError("torsion needs every degree tracked")
    if not config.potential_trigpoly().is_separable():
        raise ConfigError("unsupported flow: torus gradient cells need a "
                          "separable potential")
    run = run_package(config, assign=True)
    cx, pkg, flow = run.cx, run.package, run.flow
    tol = config.tolerances
    fc_morse = morse_finite_complex(flow)
    log_T_morse = torsion_T(fc_morse, nullities=cx.betti, tol=tol)
    covols = cohomology_volumes(fc_morse, flow.classes, nullities=cx.betti,
                                tol=tol)
    log_W = alternating_log(covols)
    vols, log_V = harmonic_volumes(cx, tol)

    # branch term from the package endpoint values, zeros excluded
    values0 = {}
    for q, deg in pkg.degrees.items():
        values0[q] = [b.value_at(0.0) for b in deg.branches
                      if b.label == LABEL_VS]
    branch_term = branch_term_from_values(values0)

    pairings = grid_pairings(cx, pkg, flow, tol)
    dets0 = {q: det_log(pairings[0.0][q]) for q in pkg.degrees}
    log_a0 = a_log_total(dets0)

    anomaly = []
    chain_residuals = []
    for t in _anomaly_sample_ts(pkg.grid):
        fc_vs = vs_complex(cx, pkg, t)
        morph = int_morphism(pairings[t], fc_vs, fc_morse)
        chain_residuals.append((t, morph.chain_residual))
        log_T_vs = torsion_T(fc_vs, nullities=cx.betti, tol=tol)
        dets_t = {q: det_log(pairings[t][q]) for q in pkg.degrees}
        log_a_t = a_log_total(dets_t)
        vol_h = {}
        for q in range(cx.n + 1):
            H_vs = harmonic_basis(fc_vs, q, cx.betti[q], tol)
            H_c = harmonic_basis(fc_morse, q, cx.betti[q], tol)
            phi_q = H_c.T @ morph.maps[q] @ H_vs
            vol_h[q] = vol_of_iso(phi_q)
        log_volH = alternating_log(vol_h)
        ok, resid = check_anomaly(log_T_vs, log_a_t, log_volH, log_T_morse)
        if not ok:
            raise NumericalError(f"anomaly identity fails at t={t}: "
                                 f"residual {resid:.3e}")
        anomaly.append((t, resid))

    terms = {
        "harmonic_volumes": {q: math.exp(v) for q, v in vols.items()},
        "lattice_covolumes": {q: math.exp(v) for q, v in covols.items()},
        # determinant magnitudes in the log domain, with their signs
        "a0_by_degree": {q: (d.sign, d.log_abs) for q, d in dets0.items()},
        "a0_sign": float(np.prod([d.sign for d in dets0.values()])),
        "a0_condition": {q: d.cond for q, d in dets0.items()},
        "branch_values_at_zero": values0,
    }
    report = evaluate_theorem(cx.manifold, branch_term, log_a0, log_V,
                              log_T_morse, log_W, anomaly=anomaly, terms=terms)

    positivity = positivity_probe(pkg, pairings)
    return TorsionRun(config=config, package_run=run, report=report,
                      positivity=positivity, chain_residuals=chain_residuals)


def positivity_probe(pkg: SpectralPackage, pairings: dict) -> dict:
    """Pairing determinants along the whole grid, watching for zeros.

    pairings is the grid_pairings table.  Returns per degree a list of
    (t, log|det|, sign, cond); a sign change or a singular collapse
    between samples would witness a zero of the pairing.
    """
    ts = pkg.grid.tolist()
    out = {}
    for q in pkg.degrees:
        d = det_log(np.stack([pairings[t][q] for t in ts]))
        out[q] = list(zip(ts, d.log_abs.tolist(), d.sign.tolist(),
                          d.cond.tolist()))
    return out


# -- duality ----------------------------------------------------------------


class DualityRun(NamedTuple):
    config: ExperimentConfig
    identity_residuals: dict
    value_residual: float  # worst sorted-spectrum gap between (f, q) and (-f, n-q)
    star_match_residual: float  # worst 1 - |star projection| over package frames
    pairs: list  # (q, lambda(0), f point labels, -f point labels) per cluster


def run_duality(config: ExperimentConfig) -> DualityRun:
    """Star conjugation: operator identities plus package matching.

    Conjugation by the star sends (f, q, t) to (-f, n-q, t), so the
    tracked spectra of the two runs must agree as multisets at every
    grid point, and the star image of each package eigenframe at t_max
    must land in the span of the matching branches of the sign-flipped
    run.  Matching is per jointly-determined t=0 cluster: inside an
    exactly degenerate cluster only the span is canonical (per-branch
    point labels are a tie-break convention, reported but not compared).
    A degree set without the dual of each of its degrees is refused
    before any tracking.
    """
    n = config.dim
    missing = sorted({n - q for q in config.degrees} - set(config.degrees))
    if missing:
        raise ConfigError(f"duality needs the dual degrees {missing} tracked")
    run_f = run_package(config, assign=True)
    identity = check_duality_identities(run_f.cx)
    neg = ExperimentConfig.from_dict(
        {**config.as_dict(), "potential": _potential_to_json(-run_f.cx.f)})
    run_g = run_package(neg, assign=True)

    worst_val = 0.0
    worst_star = 0.0
    pairs = []
    rel = config.tolerances.cluster_rel
    for q in sorted(run_f.package.degrees):
        deg_f = run_f.package.degrees[q]
        deg_g = run_g.package.degrees[n - q]
        all_f = list(deg_f.branches) + list(deg_f.large)
        all_g = list(deg_g.branches) + list(deg_g.large)
        if len(all_f) != len(all_g):
            raise NumericalError(
                f"tracked counts differ: {len(all_f)} at degree {q} vs "
                f"{len(all_g)} at degree {n - q} with the flipped potential")
        for t in run_f.package.grid:
            t = float(t)
            va = np.sort([b.value_at(t) for b in all_f])
            vg = np.sort([b.value_at(t) for b in all_g])
            worst_val = max(worst_val, float(np.max(np.abs(va - vg))))

        t_end = float(run_f.package.grid[-1])
        star = run_f.cx.S[q]
        groups_f = _t0_groups(deg_f.branches, rel)
        groups_g = _t0_groups(deg_g.branches, rel)
        if [len(g) for g in groups_f] != [len(g) for g in groups_g]:
            raise NumericalError(
                f"t=0 cluster structure differs between degree {q} and its "
                f"dual degree {n - q}")
        for gf, gg in zip(groups_f, groups_g):
            v0f = deg_f.branches[gf[0]].value_at(0.0)
            v0g = deg_g.branches[gg[0]].value_at(0.0)
            if abs(v0f - v0g) > 1e-6 * (1.0 + abs(v0f)):
                raise NumericalError(
                    f"cluster values {v0f:.6g} and {v0g:.6g} do not pair up")
            G = np.column_stack([deg_g.branches[j].vector_at(t_end)
                                 for j in gg])
            for i in gf:
                v = star @ deg_f.branches[i].vector_at(t_end)
                resid = 1.0 - float(np.linalg.norm(G.T @ v))
                worst_star = max(worst_star, abs(resid))
            pairs.append((q, float(v0f),
                          sorted(int(deg_f.branches[i].critical_point)
                                 for i in gf),
                          sorted(int(deg_g.branches[j].critical_point)
                                 for j in gg)))
    return DualityRun(config=config, identity_residuals=identity,
                      value_residual=float(worst_val),
                      star_match_residual=float(worst_star), pairs=pairs)


def _t0_groups(branches, rel: float):
    """Package branch indices grouped by their t=0 eigenvalue cluster.

    Branches sharing a t0_cluster id are jointly determined; groups whose
    (value, slope) data at t=0 tie within rel are merged as well, since
    symmetric potentials can produce distinct curves with identical
    invariants whose frames only match as a joint span.  Groups come out
    sorted by (value, slope), which is a run-independent order.
    """
    raw = {}
    for i, b in enumerate(branches):
        key = b.t0_cluster if b.t0_cluster is not None else -(i + 1)
        raw.setdefault(key, []).append(i)

    def v0(g):
        return float(np.mean([branches[i].value_at(0.0) for i in g]))

    def s0(g):
        sl = [branches[i].t0_slope for i in g]
        return float(np.mean([s for s in sl if s is not None])) if any(
            s is not None for s in sl) else 0.0

    groups = sorted(raw.values(), key=lambda g: (v0(g), s0(g)))
    merged = []
    for g in groups:
        if merged:
            h = merged[-1]
            if (abs(v0(g) - v0(h)) <= rel * (1.0 + abs(v0(g)))
                    and abs(s0(g) - s0(h)) <= rel * (1.0 + abs(s0(g)))):
                h.extend(g)
                continue
        merged.append(list(g))
    return merged


# -- anomaly identity on random complexes ------------------------------------


def random_based_complex(rng, max_dim: int = 8):
    """Random 4-term based complex in block-template form.

    Coordinates split into image, harmonic, and coimage blocks; each
    coboundary is an identity block from the coimage coordinates to the
    next degree's image coordinates, so d following d vanishes by
    construction and the Betti numbers are the harmonic block sizes.
    """
    while True:
        r = [int(rng.integers(0, 4)) for _ in range(3)]
        h = [int(rng.integers(0, 3)) for _ in range(4)]
        dims = [h[q] + (r[q] if q < 3 else 0) + (r[q - 1] if q > 0 else 0)
                for q in range(4)]
        if all(1 <= n <= max_dim for n in dims):
            break
    d = []
    for q in range(3):
        m = np.zeros((dims[q + 1], dims[q]))
        for i in range(r[q]):
            m[i, dims[q] - r[q] + i] = 1.0
        d.append(m)
    return FiniteComplex(dims=tuple(dims), d=d)


def random_chain_iso(rng, fc: FiniteComplex, cond_max: float = 30.0):
    """Random invertible chain map out of fc, with conjugated codomain."""
    phis = []
    for n in fc.dims:
        while True:
            m = rng.standard_normal((n, n))
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] > 0 and s[0] / s[-1] <= cond_max:
                break
        phis.append(m)
    d2 = [phis[q + 1] @ fc.d[q] @ np.linalg.inv(phis[q])
          for q in range(len(fc.d))]
    return phis, FiniteComplex(dims=fc.dims, d=d2)


def run_verify_anomaly(seed: int = 0, cases: int = 200,
                       tol_abs: float = 1e-9) -> dict:
    """Exercise the anomaly identity on seeded random chain isomorphisms.

    For each case the torsions of domain and codomain, the volume
    distortions, and the induced cohomology volume are computed by
    independent code paths and combined; the worst residual over all
    cases is reported.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        fc1 = random_based_complex(rng)
        phis, fc2 = random_chain_iso(rng, fc1)
        b = fc1.betti()
        log_t1 = torsion_T(fc1, nullities=b)
        log_t2 = torsion_T(fc2, nullities=b)
        log_a = alternating_log({q: vol_of_iso(p) for q, p in enumerate(phis)})
        vol_h = {}
        for q in range(len(fc1.dims)):
            H1 = harmonic_basis(fc1, q, b[q])
            H2 = harmonic_basis(fc2, q, b[q])
            vol_h[q] = vol_of_iso(H2.T @ phis[q] @ H1)
        _, resid = check_anomaly(log_t1, log_a, alternating_log(vol_h), log_t2)
        worst = max(worst, resid)
    return {"cases": int(cases), "seed": int(seed),
            "max_residual": float(worst), "ok": bool(worst <= tol_abs)}
