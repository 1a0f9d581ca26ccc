"""Truncated de Rham complexes of flat model manifolds.

Scalar functions are expanded in the orthonormal real Fourier basis

    1/sqrt(2*pi),  cos(k*theta)/sqrt(pi),  sin(k*theta)/sqrt(pi),   k <= N,

per circle factor; q-forms carry one scalar coefficient block per
coordinate coframe component (dtheta_i, dtheta_1^dtheta_2).  In these
bases the exterior derivative is exact, multiplication by a potential
derivative is an orthogonal (Galerkin) projection of the true operator,
and the Hodge star is a signed permutation.

The deformation d(t) = d + t df^. is assembled degree by degree; its
formal adjoint is the plain matrix transpose because the bases are
orthonormal.  The deformed Laplacian in any degree is an exact degree-2
matrix polynomial in t, which `laplacian_family` exposes so parameter
sweeps only pay one assembly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError
from .trigpoly import TWO_PI, TrigPoly, circle_sin2, torus_sin2_product

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(TWO_PI)

# -- scalar Fourier bases ----------------------------------------------


def scalar_modes(N: int):
    """1d mode table: [(0,'c'), (1,'c'), (1,'s'), ..., (N,'c'), (N,'s')]."""
    modes = [(0, "c")]
    for k in range(1, N + 1):
        modes.append((k, "c"))
        modes.append((k, "s"))
    return modes


def _mode_weight(k: int) -> float:
    # <normalized mode, raw cos/sin of the same frequency>
    return SQRT_TWO_PI if k == 0 else SQRT_PI


def _mode_norm_const(k: int) -> float:
    return 1.0 / SQRT_TWO_PI if k == 0 else 1.0 / SQRT_PI


def mode_poly_1d(k: int, kind: str) -> TrigPoly:
    amp = _mode_norm_const(k)
    if kind == "c":
        return TrigPoly.cosine((k,), amp)
    return TrigPoly.sine((k,), amp)


def basis_matrix_1d(N: int, theta) -> np.ndarray:
    """Rows: evaluation points, columns: orthonormal 1d modes."""
    theta = np.asarray(theta, dtype=float).ravel()
    arg = np.multiply.outer(theta, np.arange(1, N + 1, dtype=float))
    out = np.empty((theta.size, 2 * N + 1))
    out[:, 0] = 1.0 / SQRT_TWO_PI
    np.divide(np.cos(arg), SQRT_PI, out=out[:, 1::2])
    np.divide(np.sin(arg), SQRT_PI, out=out[:, 2::2])
    return out


def diff_matrix_1d(N: int) -> np.ndarray:
    d = np.zeros((2 * N + 1, 2 * N + 1))
    for k in range(1, N + 1):
        ic, isn = 2 * k - 1, 2 * k
        d[isn, ic] = -float(k)  # cos k -> -k sin k
        d[ic, isn] = float(k)  # sin k -> k cos k
    return d


def expand_1d(p: TrigPoly, N: int) -> np.ndarray:
    """Orthonormal-basis coefficients of a 1d trig polynomial, cut at N."""
    vec = np.zeros(2 * N + 1)
    for (k,), (c, s) in p.terms.items():
        if k > N:
            continue
        w = _mode_weight(k)
        if k == 0:
            vec[0] += c * w
        else:
            vec[2 * k - 1] += c * w
            vec[2 * k] += s * w
    return vec


def mult_matrix_1d(N: int, g: TrigPoly) -> np.ndarray:
    """Galerkin matrix of multiplication by g on the cutoff scalar space."""
    if g.arity != 1:
        raise ConfigError("multiplier must have arity 1")
    cols = [expand_1d(g * mode_poly_1d(k, kind), N) for k, kind in scalar_modes(N)]
    return np.column_stack(cols)


def mult_matrix_2d(N: int, g: TrigPoly):
    """Galerkin multiplication matrix on the tensor scalar space (CSR).

    The square cutoff truncates each axis independently, so projected
    multiplication by cos(a t1 + b t2) (and the sine) splits exactly into
    Kronecker products of 1d Galerkin multipliers; the matrix is their
    sum over the terms of g.
    """
    if g.arity != 2:
        raise ConfigError("multiplier must have arity 2")
    n1 = 2 * N + 1
    m = n1 * n1
    out = sp.csr_matrix((m, m))
    for (a, b), (c, s) in sorted(g.terms.items()):
        bb, sg = abs(b), (1.0 if b >= 0 else -1.0)
        Ca = sp.csr_matrix(mult_matrix_1d(N, TrigPoly.cosine((a,))))
        Sa = sp.csr_matrix(mult_matrix_1d(N, TrigPoly.sine((a,))))
        Cb = sp.csr_matrix(mult_matrix_1d(N, TrigPoly.cosine((bb,))))
        Sb = sp.csr_matrix(mult_matrix_1d(N, TrigPoly.sine((bb,))))
        if c != 0.0:
            out = out + c * (sp.kron(Ca, Cb, format="csr")
                             - sg * sp.kron(Sa, Sb, format="csr"))
        if s != 0.0:
            out = out + s * (sp.kron(Sa, Cb, format="csr")
                             + sg * sp.kron(Ca, Sb, format="csr"))
    return out.tocsr()


# -- signed permutation star -------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """Linear map (S v)[i] = sign[i] * v[perm[i]]."""

    perm: np.ndarray
    sign: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(np.arange(n), np.ones(n))

    def apply(self, v: np.ndarray) -> np.ndarray:
        # works for vectors and for matrices (rows are permuted/flipped)
        if sp.issparse(v):
            return self.to_sparse() @ v
        return self.sign.reshape(-1, *([1] * (v.ndim - 1))) * v[self.perm]

    def right_apply(self, A: np.ndarray) -> np.ndarray:
        """A @ S for a matrix A."""
        if sp.issparse(A):
            return A @ self.to_sparse()
        inv = self.inverse()
        return A[:, inv.perm] * inv.sign  # (A S)[:, j] = sign_inv[j] A[:, perm_inv[j]]

    def inverse(self) -> "SignedPermutation":
        inv_perm = np.empty_like(self.perm)
        inv_perm[self.perm] = np.arange(self.perm.size)
        return SignedPermutation(inv_perm, self.sign[inv_perm])

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self o other) v = self(other(v))."""
        return SignedPermutation(
            other.perm[self.perm], self.sign * other.sign[self.perm]
        )

    def to_sparse(self):
        n = self.perm.size
        return sp.csr_matrix((self.sign, (np.arange(n), self.perm)),
                             shape=(n, n))


# -- the complex --------------------------------------------------------


@dataclass
class DeRhamComplex:
    """Cutoff de Rham complex with deformation data.

    D[q] is the exact exterior derivative on degree q, E[q] the projected
    multiplication by df (wedge), S[q] the Hodge star to degree n - q.
    All coefficient bases are orthonormal, so adjoints are transposes.
    """

    manifold: str
    n: int
    N: int
    f: TrigPoly
    dims: tuple
    D: list
    E: list
    S: list
    betti: tuple
    volume: float
    _m_scalar: int = field(default=0, repr=False)

    def witten_d(self, t: float):
        return [self.D[q] + t * self.E[q] for q in range(self.n)]

    def negate_potential(self) -> "DeRhamComplex":
        return DeRhamComplex(
            manifold=self.manifold,
            n=self.n,
            N=self.N,
            f=-self.f,
            dims=self.dims,
            D=self.D,
            E=[-Eq for Eq in self.E],
            S=self.S,
            betti=self.betti,
            volume=self.volume,
            _m_scalar=self._m_scalar,
        )

    # scalar-block helpers used by localization

    def form_components(self, q: int, vec: np.ndarray):
        """Split a degree-q coefficient vector into scalar blocks.

        Block order matches the coframe order: [dtheta1, dtheta2] in
        degree 1 on the torus; a single block otherwise.
        """
        vec = np.asarray(vec)
        if self.manifold == "circle" or q in (0, self.n):
            return [vec]
        m = self._m_scalar
        return [vec[:m], vec[m:]]

    def eval_scalar_grid(self, coeffs: np.ndarray, *axes):
        """Evaluate a scalar coefficient block on a tensor grid of angles.

        coeffs is one coefficient vector or a (dim, k) block of them;
        the grid axes come first in the result, the block column last.
        """
        if self.manifold == "circle":
            (theta,) = axes
            return basis_matrix_1d(self.N, theta) @ coeffs
        th1, th2 = axes
        n1 = 2 * self.N + 1
        C = coeffs.reshape(n1, n1, -1).transpose(2, 0, 1)
        B1 = basis_matrix_1d(self.N, th1)
        B2 = basis_matrix_1d(self.N, th2)
        vals = (B1 @ C @ B2.T).transpose(1, 2, 0)
        return vals.reshape(vals.shape[:2] + coeffs.shape[1:])


def _check_cutoff(N: int, f: TrigPoly):
    mf = max(f.max_freq())
    if N < 2 * mf + 2:
        raise ConfigError(
            f"cutoff N={N} too small for potential with max frequency {mf}; "
            f"need N >= {2 * mf + 2}"
        )


def build_circle_complex(N: int, f: TrigPoly | None = None) -> DeRhamComplex:
    """Cutoff complex of the flat circle; both degrees share the scalar basis."""
    if f is None:
        f = circle_sin2()
    if f.arity != 1:
        raise ConfigError("circle potential must have arity 1")
    _check_cutoff(N, f)
    dim = 2 * N + 1
    D = [diff_matrix_1d(N)]
    E = [mult_matrix_1d(N, f.partial(0))]
    S = [SignedPermutation.identity(dim), SignedPermutation.identity(dim)]
    return DeRhamComplex(
        manifold="circle",
        n=1,
        N=N,
        f=f,
        dims=(dim, dim),
        D=D,
        E=E,
        S=S,
        betti=(1, 1),
        volume=TWO_PI,
        _m_scalar=dim,
    )


def build_torus_complex(N: int, f: TrigPoly | None = None) -> DeRhamComplex:
    """Cutoff complex of the flat 2-torus.

    Degree-1 coefficient vectors are stacked as [alpha; beta] for
    alpha dtheta1 + beta dtheta2.  Every operator is a CSR Kronecker sum
    of circle-factor Galerkin matrices, at every cutoff.
    """
    if f is None:
        f = torus_sin2_product()
    if f.arity != 2:
        raise ConfigError("torus potential must have arity 2")
    _check_cutoff(N, f)
    n1 = 2 * N + 1
    m = n1 * n1
    d1 = sp.csr_matrix(diff_matrix_1d(N))
    I1 = sp.identity(n1, format="csr")
    Dth1 = sp.kron(d1, I1, format="csr")
    Dth2 = sp.kron(I1, d1, format="csr")
    M1 = mult_matrix_2d(N, f.partial(0))
    M2 = mult_matrix_2d(N, f.partial(1))
    D0 = sp.vstack([Dth1, Dth2], format="csr")
    E0 = sp.vstack([M1, M2], format="csr")
    # d(alpha dth1 + beta dth2) = (d1 beta - d2 alpha) dth1^dth2
    D1 = sp.hstack([-Dth2, Dth1], format="csr")
    E1 = sp.hstack([-M2, M1], format="csr")

    # star: 1 -> dth1^dth2, dth1 -> dth2, dth2 -> -dth1, dth1^dth2 -> 1
    S0 = SignedPermutation.identity(m)
    perm1 = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    sign1 = np.concatenate([-np.ones(m), np.ones(m)])
    S1 = SignedPermutation(perm1, sign1)
    S2 = SignedPermutation.identity(m)

    return DeRhamComplex(
        manifold="torus",
        n=2,
        N=N,
        f=f,
        dims=(m, 2 * m, m),
        D=[D0, D1],
        E=[E0, E1],
        S=[S0, S1, S2],
        betti=(1, 2, 1),
        volume=TWO_PI**2,
        _m_scalar=m,
    )


# -- operators -----------------------------------------------------------


@dataclass
class LaplacianFamily:
    """Deformed Laplacian of one degree as A0 + t*A1 + t^2*A2 (exact)."""

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray

    def at(self, t: float) -> np.ndarray:
        A = self.A0 + t * self.A1 + (t * t) * self.A2
        return 0.5 * (A + A.T)

    @property
    def dim(self) -> int:
        return self.A0.shape[0]

    def split(self) -> list:
        """Exact invariant blocks of the family, as (indices, sub-family).

        The blocks are the connected components of the nonzero pattern of
        |A0| + |A1| + |A2|: every entry coupling two blocks is exactly 0.0
        in all three coefficients, so each block spans an invariant
        subspace of the family at every t.  No knowledge of the potential
        is needed; a potential without frequency structure gives one
        block.  Blocks are ordered by their first index and keep the
        storage of the family, so a sparse family holds no dense copies.
        """
        pattern = (sp.csr_matrix(abs(self.A0)) + sp.csr_matrix(abs(self.A1))
                   + sp.csr_matrix(abs(self.A2)))
        pattern.eliminate_zeros()  # stored zeros would count as edges
        n_blocks, labels = connected_components(pattern, directed=False)
        blocks = sorted((np.flatnonzero(labels == b) for b in range(n_blocks)),
                        key=lambda idx: idx[0])

        def restrict(A, idx):
            if sp.issparse(A):
                return A[idx][:, idx].tocsr()
            return A[np.ix_(idx, idx)]

        return [(idx, LaplacianFamily(*(restrict(A, idx)
                                        for A in (self.A0, self.A1, self.A2))))
                for idx in blocks]


def laplacian_family(cx: DeRhamComplex, q: int) -> LaplacianFamily:
    parts = [[], [], []]
    if q < cx.n:
        B0, B1 = cx.D[q], cx.E[q]
        parts[0].append(B0.T @ B0)
        parts[1].append(B0.T @ B1 + B1.T @ B0)
        parts[2].append(B1.T @ B1)
    if q > 0:
        C0, C1 = cx.D[q - 1], cx.E[q - 1]
        parts[0].append(C0 @ C0.T)
        parts[1].append(C0 @ C1.T + C1 @ C0.T)
        parts[2].append(C1 @ C1.T)

    def total(ps):
        acc = ps[0]
        for p in ps[1:]:
            acc = acc + p
        return acc.tocsr() if sp.issparse(acc) else acc

    return LaplacianFamily(*(total(ps) for ps in parts))


def witten_laplacian(cx: DeRhamComplex, q: int, t: float) -> np.ndarray:
    """Deformed Laplacian on degree q at parameter t."""
    return laplacian_family(cx, q).at(t)


def _maxabs(A) -> float:
    if sp.issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def d_squared_residual(cx: DeRhamComplex, t: float) -> float:
    """Max-abs norm of d(t) o d(t); zero up to cutoff closure effects."""
    if cx.n < 2:
        return 0.0
    d = cx.witten_d(t)
    return _maxabs(d[1] @ d[0])


def check_duality_identities(cx: DeRhamComplex, ts=(0.0, 1.0, 5.0)) -> dict:
    """Residuals of the star/duality identities on all degrees.

    Keys:
      ("star_square", q)          star^{n-q} star^q - (-1)^{q(n-q)} id
      ("star_laplacian", q)       undeformed conjugation identity
      ("star_deformed", q, t)     conjugation onto the sign-flipped potential
      ("parameter_flip", q, t)    t -> -t matches f -> -f
      ("d_squared", t)            d(t) o d(t) (n = 2 only)

    All residuals are max-abs matrix norms; exact identities at the
    chosen bases, so everything should sit at rounding level.
    """
    neg = cx.negate_potential()
    out = {}
    n = cx.n
    fam = [laplacian_family(cx, q) for q in range(n + 1)]
    fam_neg = [laplacian_family(neg, q) for q in range(n + 1)]
    for q in range(n + 1):
        sgn = (-1.0) ** (q * (n - q))
        comp = cx.S[n - q].compose(cx.S[q])  # star^{n-q} after star^q: acts on deg q
        mat = comp.to_sparse()
        out[("star_square", q)] = _maxabs(
            mat - sgn * sp.identity(mat.shape[0], format="csr"))

        # matrix of star Delta^q star on degree n - q: S_q @ Delta_q @ S_{n-q}
        conj = cx.S[q].apply(cx.S[n - q].right_apply(fam[q].at(0.0)))
        out[("star_laplacian", q)] = _maxabs(sgn * conj - fam[n - q].at(0.0))

        for t in ts:
            conj_t = cx.S[q].apply(cx.S[n - q].right_apply(fam[q].at(t)))
            out[("star_deformed", q, t)] = _maxabs(
                sgn * conj_t - fam_neg[n - q].at(t)
            )
            out[("parameter_flip", q, t)] = _maxabs(
                fam[q].at(-t) - fam_neg[q].at(t)
            )
    if n == 2:
        for t in ts:
            out[("d_squared", t)] = d_squared_residual(cx, t)
    return out
