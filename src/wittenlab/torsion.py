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
            if not r <= 1e-10 * max(1.0, scale) ** 2:
                raise NumericalError(
                    f"d following d is nonzero: residual {r:.2e}")
        self._splits = {}  # (q, nullity, tol) -> kernel_split of degree q

    def laplacian(self, q: int) -> np.ndarray:
        L = np.zeros((self.dims[q], self.dims[q]))
        if q < len(self.d):
            L += self.d[q].T @ self.d[q]
        if q > 0:
            L += self.d[q - 1] @ self.d[q - 1].T
        return L

    def split(self, q: int, nullity: int, tol: Tolerances | None = None):
        """kernel_split of the degree-q Laplacian, computed once."""
        key = (q, nullity, tol or Tolerances())
        if key not in self._splits:
            self._splits[key] = kernel_split(self.laplacian(q), nullity, key[2])
        return self._splits[key]

    def betti(self):
        # r[q] is the rank of d[q - 1], the map into degree q
        r = [0] + [int(np.linalg.matrix_rank(m)) if m.size else 0
                   for m in self.d] + [0]
        return tuple(n - r[q] - r[q + 1] for q, n in enumerate(self.dims))


def kernel_split(A: np.ndarray, nullity: int, tol: Tolerances | None = None):
    """(log det', gap, H) of a symmetric PSD matrix with a declared nullity:
    from one eigh of the symmetrised matrix, the log product of the
    eigenvalues past the kernel, their gap ratio to the largest kernel
    value, and an orthonormal kernel basis H.

    The gap rule: a nonpositive value past the kernel, or a gap below
    det_gap, leaves the nullity unresolved and raises."""
    tol = tol or Tolerances()
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    if nullity < 0 or nullity > len(w):
        raise ConfigError(f"nullity {nullity} out of range for dim {len(w)}")
    if nullity == len(w):
        return 0.0, math.inf, V
    lam = w[nullity:]
    if not lam[0] > 0:
        raise NumericalError(f"nonpositive eigenvalue {lam[0]:.3e} past the "
                             f"declared kernel")
    junk = abs(w[nullity - 1]) if nullity > 0 else 0.0
    gap = lam[0] / junk if junk > 0 else math.inf
    if not gap >= tol.det_gap:
        raise NumericalError(
            f"kernel gap ratio {gap:.2e} below {tol.det_gap:.0e}: declared "
            f"nullity {nullity} is not resolved"
        )
    return float(np.sum(np.log(lam))), gap, V[:, :nullity]


def det_prime(A: np.ndarray, nullity: int, tol: Tolerances | None = None):
    """(log det', gap) of kernel_split: the log of the product of the
    nonzero eigenvalues of an SPD matrix, gap-checked."""
    return kernel_split(A, nullity, tol)[:2]


def torsion_T(fc: FiniteComplex, nullities=None,
              tol: Tolerances | None = None) -> float:
    """Log torsion: sum over q of (-1)^{q+1} (q/2) log det' Delta_q."""
    if nullities is None:
        nullities = fc.betti()
    out = 0.0
    for q in range(1, len(fc.dims)):  # the weight q/2 of degree 0 vanishes
        out += (-1) ** (q + 1) * 0.5 * q * fc.split(q, nullities[q], tol)[0]
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
        resid = []
        for q in range(len(self.domain.d)):
            lhs = self.codomain.d[q] @ self.maps[q]
            rhs = self.maps[q + 1] @ self.domain.d[q]
            scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            resid.append(np.max(np.abs(lhs - rhs)) / scale)
        # np.max keeps a NaN that Python's max would drop
        self.chain_residual = float(np.max(resid, initial=0.0))

    def require_chain_map(self, rel_tol: float = 1e-8):
        if not self.chain_residual <= rel_tol:
            raise NumericalError(f"chain map residual {self.chain_residual:.2e} "
                                 f"exceeds {rel_tol:.0e}")


def log_volume(B: np.ndarray, what: str) -> float:
    """Half the log of det(B^T B): the log volume of the parallelepiped
    spanned by the columns of B; raises when they are degenerate."""
    sign, ld = np.linalg.slogdet(B.T @ B)
    if not (sign > 0 and abs(ld) < math.inf):
        raise NumericalError(f"{what} is degenerate")
    return float(0.5 * ld)


def vol_of_iso(phi: np.ndarray) -> float:
    """Log volume of a linear isomorphism between spaces with orthonormal
    bases: half the log of det(phi^T phi)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] != phi.shape[1]:
        raise ConfigError("volume of a non-square map")
    return log_volume(phi, "cohomology map")


def harmonic_basis(fc: FiniteComplex, q: int, nullity: int,
                   tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal kernel basis of the degree-q Laplacian, gap-checked."""
    return fc.split(q, nullity, tol)[2]


def cohomology_volumes(fc: FiniteComplex, classes: dict,
                       nullities=None, tol: Tolerances | None = None):
    """Log covolumes of given cocycle bases in the harmonic metric.

    classes maps q to a matrix whose columns are cocycles spanning
    H^q; each column is validated as a cocycle and the covolume is the
    Gram determinant of the harmonic projections.  Bases must live in
    the same coordinates as fc.
    """
    if nullities is None:
        nullities = fc.betti()
    out = {}
    for q, C in classes.items():
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if q < len(fc.d) and C.size:
            r = np.max(np.abs(fc.d[q] @ C))
            if not r <= 1e-10 * max(1.0, np.max(np.abs(C))):
                raise ConfigError(f"class in degree {q} is not a cocycle "
                                  f"(residual {r:.2e})")
        if C.shape[1] != nullities[q]:
            raise ConfigError(f"{C.shape[1]} classes given in degree {q}, "
                              f"harmonic dimension is {nullities[q]}")
        out[q] = log_volume(harmonic_basis(fc, q, nullities[q], tol).T @ C,
                            f"the harmonic projection of degree-{q} classes")
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
        r = float(np.max([np.max(np.abs(P)) for P in products]))
        if not r <= 1e-10 * max(1.0, float(np.max(np.abs(B)))):
            raise NumericalError(f"lattice generator in degree {q} is not "
                                 f"harmonic (residual {r:.2e})")
        out[q] = log_volume(B, f"the lattice basis in degree {q}")
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


def anomaly_residual(morph: ComplexMorphism, log_a: float, nullities,
                     tol: Tolerances | None = None):
    """check_anomaly of a chain isomorphism between based complexes.

    log_a is the alternating log volume of the degreewise maps.  The
    torsions of domain and codomain and the volume of the induced map
    on harmonic spaces are read from the kernel splits of the two
    complexes under the declared nullities.
    """
    dom, cod = morph.domain, morph.codomain
    vol_h = {q: vol_of_iso(harmonic_basis(cod, q, b, tol).T @ m
                           @ harmonic_basis(dom, q, b, tol))
             for q, (m, b) in enumerate(zip(morph.maps, nullities))}
    return check_anomaly(torsion_T(dom, nullities, tol), log_a,
                         alternating_log(vol_h),
                         torsion_T(cod, nullities, tol))


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
