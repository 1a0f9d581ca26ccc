"""Torsion of finite cochain complexes and the comparison functionals.

All determinants are kept in the log domain.  The torsion of a based
complex is assembled from modified determinants of its combinatorial
Laplacians; volumes of cohomology isomorphisms and of lattice bases in
the harmonic metric supply the correction factors that make the
spectral and combinatorial sides comparable.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import Tolerances
from .derham import DeRhamComplex, expand_1d
from .errors import ConfigError, NumericalError
from .trigpoly import TWO_PI, TrigPoly


class FiniteComplex:
    """Finite cochain complex with orthonormal bases; d[q] maps degree q
    to q+1."""

    def __init__(self, dims: tuple, d: list):
        self.dims, self.d = dims, d
        if len(self.d) != len(self.dims) - 1:
            raise ConfigError("coboundary count does not match degree count")
        for q, m in enumerate(self.d):
            m = np.asarray(m, dtype=float)
            if m.shape != (self.dims[q + 1], self.dims[q]):
                raise ConfigError(f"coboundary {q} has shape {m.shape}, "
                                  f"expected {(self.dims[q + 1], self.dims[q])}")
            self.d[q] = m
        scale = max((np.max(np.abs(m)) for m in self.d if m.size), default=1.0)
        for a, b in zip(self.d[1:], self.d[:-1]):
            r = np.max(np.abs(a @ b)) if a.size and b.size else 0.0
            if r > 1e-10 * max(1.0, scale) ** 2:
                raise ConfigError(f"d following d is nonzero: residual {r:.2e}")

    def laplacians(self):
        out = []
        for q in range(len(self.dims)):
            L = np.zeros((self.dims[q], self.dims[q]))
            if q < len(self.d):
                L += self.d[q].T @ self.d[q]
            if q > 0:
                L += self.d[q - 1] @ self.d[q - 1].T
            out.append(L)
        return out

    def betti(self):
        ranks = [int(np.linalg.matrix_rank(m)) if m.size else 0 for m in self.d]
        out = []
        for q in range(len(self.dims)):
            up = ranks[q] if q < len(ranks) else 0
            down = ranks[q - 1] if q > 0 else 0
            out.append(self.dims[q] - up - down)
        return tuple(out)


def det_prime(A: np.ndarray, nullity: int, tol: Tolerances | None = None):
    """Log of the product of nonzero eigenvalues of an SPD matrix.

    The declared nullity must be separated from the rest of the
    spectrum by the configured gap ratio, otherwise the determinant is
    not trustworthy and the computation refuses to continue.
    """
    tol = tol or Tolerances()
    A = np.asarray(A, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if nullity < 0 or nullity > len(w):
        raise ConfigError(f"nullity {nullity} out of range for dim {len(w)}")
    if nullity == len(w):
        return 0.0, math.inf
    lam = w[nullity:]
    if lam[0] <= 0:
        raise NumericalError(f"nonpositive eigenvalue {lam[0]:.3e} past the "
                             f"declared kernel")
    junk = abs(w[nullity - 1]) if nullity > 0 else 0.0
    gap = lam[0] / junk if junk > 0 else math.inf
    if gap < tol.det_gap:
        raise NumericalError(
            f"kernel gap ratio {gap:.2e} below {tol.det_gap:.0e}: declared "
            f"nullity {nullity} is not resolved"
        )
    return float(np.sum(np.log(lam))), gap


def torsion_T(fc: FiniteComplex, nullities=None,
              tol: Tolerances | None = None) -> float:
    """Log torsion: sum over q of (-1)^{q+1} (q/2) log det' Delta_q."""
    tol = tol or Tolerances()
    if nullities is None:
        nullities = fc.betti()
    out = 0.0
    for q, L in enumerate(fc.laplacians()):
        if q == 0:
            continue  # weight q/2 vanishes
        ld, _ = det_prime(L, nullities[q], tol)
        out += (-1) ** (q + 1) * 0.5 * q * ld
    return out


class ComplexMorphism:
    """Degreewise linear maps between complexes, validated as a chain map."""

    def __init__(self, domain: FiniteComplex, codomain: FiniteComplex,
                 maps: list):
        self.domain, self.codomain, self.maps = domain, codomain, maps
        if len(self.maps) != len(self.domain.dims):
            raise ConfigError("one map per degree required")
        for q, m in enumerate(self.maps):
            m = np.asarray(m, dtype=float)
            want = (self.codomain.dims[q], self.domain.dims[q])
            if m.shape != want:
                raise ConfigError(f"map {q} has shape {m.shape}, expected {want}")
            self.maps[q] = m
        resid = 0.0
        for q in range(len(self.domain.d)):
            lhs = self.codomain.d[q] @ self.maps[q]
            rhs = self.maps[q + 1] @ self.domain.d[q]
            scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            resid = max(resid, np.max(np.abs(lhs - rhs)) / scale)
        self.chain_residual = float(resid)

    def require_chain_map(self, rel_tol: float = 1e-8):
        if self.chain_residual > rel_tol:
            raise NumericalError(f"chain map residual {self.chain_residual:.2e} "
                                 f"exceeds {rel_tol:.0e}")


def vol_of_iso(phi: np.ndarray) -> float:
    """Log volume of a linear isomorphism between spaces with orthonormal
    bases: half the log of det(phi^T phi)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] != phi.shape[1]:
        raise ConfigError("volume of a non-square map")
    if phi.size == 0:
        return 0.0
    sign, ld = np.linalg.slogdet(phi.T @ phi)
    if sign <= 0:
        raise NumericalError("cohomology map is not an isomorphism")
    return float(0.5 * ld)


def harmonic_basis(fc: FiniteComplex, q: int, nullity: int,
                   tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal kernel basis of the degree-q Laplacian, gap-checked."""
    tol = tol or Tolerances()
    L = fc.laplacians()[q]
    w, V = np.linalg.eigh(L)
    if nullity == 0:
        return np.zeros((fc.dims[q], 0))
    junk = abs(w[nullity - 1])
    live = w[nullity] if nullity < len(w) else math.inf
    if junk > 0 and live / junk < tol.det_gap:
        raise NumericalError(f"harmonic space in degree {q} not resolved: "
                             f"gap {live / junk:.2e}")
    return V[:, :nullity]


def cohomology_volumes(fc: FiniteComplex, classes: dict,
                       nullities=None, tol: Tolerances | None = None):
    """Log covolumes of given cocycle bases in the harmonic metric.

    classes maps q to a matrix whose columns are cocycles spanning
    H^q; each column is validated as a cocycle and the covolume is the
    Gram determinant of the harmonic projections.  Bases must live in
    the same coordinates as fc.
    """
    tol = tol or Tolerances()
    if nullities is None:
        nullities = fc.betti()
    out = {}
    for q, C in classes.items():
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if q < len(fc.d) and C.size:
            r = np.max(np.abs(fc.d[q] @ C))
            if r > 1e-10 * max(1.0, np.max(np.abs(C))):
                raise ConfigError(f"class in degree {q} is not a cocycle "
                                  f"(residual {r:.2e})")
        if C.shape[1] != nullities[q]:
            raise ConfigError(f"{C.shape[1]} classes given in degree {q}, "
                              f"harmonic dimension is {nullities[q]}")
        H = harmonic_basis(fc, q, nullities[q], tol)
        P = H.T @ C  # harmonic coordinates of the classes
        sign, ld = np.linalg.slogdet(P.T @ P)
        if sign <= 0:
            raise NumericalError(f"classes in degree {q} do not span the "
                                 f"harmonic space")
        out[q] = 0.5 * float(ld)
    return out


def alternating_log(values: dict) -> float:
    """Sum of (-1)^q values[q] over degrees."""
    return float(sum((-1) ** q * v for q, v in values.items()))


# -- continuum harmonic lattices -------------------------------------------


def harmonic_volumes(cx: DeRhamComplex, tol: Tolerances | None = None):
    """Log volumes of the integer cohomology lattice in the L2 metric.

    The lattice generators are represented by the translation-invariant
    forms (1 in degree 0, the normalized angle differentials above),
    expanded in the cutoff basis and checked to be harmonic: closed and
    coclosed, which in the L2-orthonormal basis reads D[q] B = 0 and
    D[q-1]^T B = 0.  Returns ({q: log V_q}, log of the alternating
    product).
    """
    tol = tol or Tolerances()
    one = expand_1d(TrigPoly.const(1, 1.0), cx.N)  # the constant 1
    scale = 1.0 / TWO_PI
    if cx.manifold == "circle":
        gens = {0: [one], 1: [one * scale]}
    else:
        v0 = np.kron(one, one)
        va = v0 * scale
        zcol = np.zeros_like(va)
        gens = {0: [v0],
                1: [np.concatenate([va, zcol]), np.concatenate([zcol, va])],
                2: [v0 * (scale * scale)]}
    out = {}
    for q, vecs in gens.items():
        B = np.column_stack(vecs)
        products = (([cx.D[q] @ B] if q < cx.n else [])
                    + ([cx.D[q - 1].T @ B] if q > 0 else []))
        r = max(float(np.max(np.abs(P))) for P in products)
        if r > 1e-10 * max(1.0, float(np.max(np.abs(B)))):
            raise NumericalError(f"lattice generator in degree {q} is not "
                                 f"harmonic (residual {r:.2e})")
        sign, ld = np.linalg.slogdet(B.T @ B)
        if sign <= 0:
            raise NumericalError(f"degenerate lattice basis in degree {q}")
        out[q] = 0.5 * float(ld)
    return out, alternating_log(out)


# -- theorem assembly -------------------------------------------------------

# absolute residual within which a comparison formula matches its target
FORMULA_MATCH_ABS = 1e-4


class TorsionReport(NamedTuple):
    """Both assemblies of the comparison formula with their target.

    working combines the branch term with minus log a(0) and minus the
    log lattice volume; printed flips the sign of the log a(0) term,
    matching the published formula.  target is the log torsion of the
    critical-point complex corrected by its own lattice covolume, which
    is zero for both model manifolds.
    """

    manifold: str
    branch_term: float
    log_a0: float
    log_lattice_volume: float  # alternating product over the continuum lattice
    log_T_morse: float
    log_W_morse: float  # alternating covolume of the integer classes
    working: float
    printed: float
    target: float
    residual_working: float
    residual_printed: float
    anomaly: list  # (t, composite identity residual)
    terms: dict

    @property
    def working_matches(self) -> bool:
        return self.residual_working <= FORMULA_MATCH_ABS

    @property
    def printed_matches(self) -> bool:
        return self.residual_printed <= FORMULA_MATCH_ABS


def branch_term_from_values(values_by_degree: dict) -> float:
    """Half-weighted alternating sum of log positive branch values.

    values_by_degree maps q to the branch values to include (the
    positive part of the package); zeros must already be excluded.
    """
    out = 0.0
    for q, vals in values_by_degree.items():
        if q == 0:
            continue
        for v in vals:
            if v <= 0:
                raise NumericalError(f"nonpositive branch value {v} in the "
                                     f"branch term")
            out += (-1) ** (q + 1) * 0.5 * q * math.log(v)
    return out


def check_anomaly(log_T_vs: float, log_a: float, log_volH: float,
                  log_T_morse: float, tol_abs: float = 1e-3):
    """Composite identity residual at one deformation value.

    The spectral torsion, the pairing determinant, and the cohomology
    volume are computed by independent code paths; their combination
    must reproduce the critical-point torsion at every t.
    """
    resid = abs(log_T_vs - log_a + log_volH - log_T_morse)
    return resid <= tol_abs, float(resid)


def evaluate_theorem(manifold: str, branch_term: float, log_a0: float,
                     log_lattice_volume: float, log_T_morse: float,
                     log_W_morse: float, anomaly=None,
                     terms=None) -> TorsionReport:
    """Assemble both comparison formulas against the lattice target."""
    working = branch_term - log_a0 - log_lattice_volume
    printed = branch_term + log_a0 - log_lattice_volume
    target = log_T_morse - log_W_morse
    return TorsionReport(
        manifold=manifold,
        branch_term=branch_term,
        log_a0=log_a0,
        log_lattice_volume=log_lattice_volume,
        log_T_morse=log_T_morse,
        log_W_morse=log_W_morse,
        working=working,
        printed=printed,
        target=target,
        residual_working=abs(working - target),
        residual_printed=abs(printed - target),
        anomaly=list(anomaly or []),
        terms=dict(terms or {}),
    )
