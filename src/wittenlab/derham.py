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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .trigpoly import TWO_PI, TrigPoly, circle_sin2, torus_sin2_product

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(TWO_PI)

# -- sparse storage --------------------------------------------------------


class CSR:
    """A real matrix in canonical compressed sparse row form: the column
    indices of each row ascend, without repeats.

    The one operator storage of the package, with only the operations
    it uses.  Its arithmetic is scipy.sparse's, entry for entry: a sum
    or a product leaves out the entries that come out exactly 0.0, a
    product with a dense block sums each row's terms in storage order
    from 0.0, and a product of two CSR matrices sums each entry's terms
    in ascending inner index, so every result is bit-identical to
    scipy's.  Arrays that depend only on the pattern (rows, the product
    layout) are computed once and shared by the copies with_data makes.
    """

    __array_ufunc__ = None  # numpy scalars and arrays defer to the methods

    def __init__(self, data, indices, indptr, shape, pattern_cache=None):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = tuple(shape)
        self._cache = {} if pattern_cache is None else pattern_cache

    @classmethod
    def from_entries(cls, rows, cols, terms, shape) -> "CSR":
        """The matrix of the terms at positions (rows, cols): the terms of
        one position add up from 0.0 in the order given, and positions
        whose sum is exactly 0.0 are left out."""
        key = rows * shape[1] + cols
        order = np.argsort(key, kind="stable")  # keeps the order of terms
        key = key[order]
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        total = np.bincount(np.cumsum(new) - 1, weights=terms[order])
        keep = total != 0.0
        rows, cols = np.divmod(key[new][keep], shape[1])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(total[keep], cols, indptr, shape)

    @classmethod
    def from_dense(cls, a) -> "CSR":
        a = np.asarray(a, dtype=float)
        rows, cols = np.nonzero(a)
        return cls.from_entries(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def identity(cls, n: int) -> "CSR":
        return cls(np.ones(n), np.arange(n), np.arange(n + 1), (n, n))

    @classmethod
    def blocks(cls, grid) -> "CSR":
        """The block matrix of a grid (list of rows) of CSR blocks, None
        for a zero block; every block row and column has one block."""
        heights = [next(B.shape[0] for B in row if B is not None)
                   for row in grid]
        widths = [next(row[j].shape[1] for row in grid if row[j] is not None)
                  for j in range(len(grid[0]))]
        r0, c0 = np.cumsum([0] + heights), np.cumsum([0] + widths)
        parts = [(B.rows + r0[i], B.indices + c0[j], B.data)
                 for i, row in enumerate(grid)
                 for j, B in enumerate(row) if B is not None]
        return cls.from_entries(*map(np.concatenate, zip(*parts)),
                                (r0[-1], c0[-1]))

    def kron(self, other: "CSR") -> "CSR":
        """The Kronecker product self (x) other."""
        (m, n), (p, q) = self.shape, other.shape
        return CSR.from_entries(
            (self.rows[:, None] * p + other.rows).ravel(),
            (self.indices[:, None] * q + other.indices).ravel(),
            (self.data[:, None] * other.data).ravel(), (m * p, n * q))

    def with_data(self, data) -> "CSR":
        """The matrix with these values on the same pattern."""
        return CSR(data, self.indices, self.indptr, self.shape, self._cache)

    def _pattern_array(self, name, make):
        if name not in self._cache:
            self._cache[name] = make()
        return self._cache[name]

    @property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return self._pattern_array("rows", lambda: np.repeat(
            np.arange(self.shape[0]), np.diff(self.indptr)))

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def T(self) -> "CSR":
        return CSR.from_entries(self.indices, self.rows, self.data,
                                self.shape[::-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out

    def maxabs(self) -> float:
        """The largest |entry|, 0.0 for an empty matrix."""
        return float(np.abs(self.data).max()) if self.nnz else 0.0

    def __mul__(self, c) -> "CSR":
        return self.with_data(self.data * c)

    __rmul__ = __mul__

    def __neg__(self) -> "CSR":
        return self.with_data(-self.data)

    def __add__(self, other: "CSR") -> "CSR":
        return CSR.from_entries(np.concatenate([self.rows, other.rows]),
                                np.concatenate([self.indices, other.indices]),
                                np.concatenate([self.data, other.data]),
                                self.shape)

    def __sub__(self, other: "CSR") -> "CSR":
        return self + (-other)

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._matmat(other)
        X = np.asarray(other, dtype=float)
        B = X.reshape(X.shape[0], -1)
        entries, cols, order, sizes = self._pattern_array(
            "by_position", self._by_position)
        P = np.take(B, cols, axis=0)
        P *= self.data[entries, None]
        # slot p holds the p-th term of every row that has one, the rows
        # by descending length, so each slot adds onto a prefix
        acc = np.zeros((sizes[0] if sizes.size else 0, B.shape[1]))
        start = 0
        for size in sizes:
            acc[:size] += P[start:start + size]
            start += size
        out = np.zeros((self.shape[0], B.shape[1]))
        out[order[:acc.shape[0]]] = acc
        return out.reshape((self.shape[0],) + X.shape[1:])

    def _by_position(self):
        """(entries, cols, order, sizes): order lists the rows by
        descending length, sizes[p] counts the rows with more than p
        entries, and entries holds, slot p after slot p - 1, the p-th
        entry of the first sizes[p] rows of order; cols are their
        columns."""
        counts = np.diff(self.indptr)
        order = np.argsort(-counts, kind="stable")
        sizes = counts.size - np.cumsum(np.bincount(counts))[:-1]
        entries = np.concatenate([np.zeros(0, dtype=np.int64)]
                                 + [self.indptr[order[:s]] + p
                                    for p, s in enumerate(sizes)])
        return entries, self.indices[entries], order, sizes

    def _matmat(self, other: "CSR") -> "CSR":
        # each entry (i, j) of self meets the entries (j, k) of row j of
        # other; in self's entry order every (i, k) meets its terms in
        # ascending j
        per = np.diff(other.indptr)[self.indices]
        a = np.repeat(np.arange(self.nnz), per)
        b = np.arange(a.size) + np.repeat(
            other.indptr[self.indices] - (np.cumsum(per) - per), per)
        return CSR.from_entries(self.rows[a], other.indices[b],
                                self.data[a] * other.data[b],
                                (self.shape[0], other.shape[1]))

    def components(self):
        """Connected components of the pattern as an undirected graph:
        (count, label of each node), numbered by their first node.

        Each round hooks the larger of the two labels of every edge to
        the smaller and then jumps pointers until every label is a root,
        so the rounds do not grow with the length of a path."""
        u, v = self.rows, self.indices
        label = np.arange(self.shape[0])
        while True:
            lu, lv = label[u], label[v]
            if np.array_equal(lu, lv):
                break
            np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
            jumped = label[label]
            while not np.array_equal(jumped, label):
                label, jumped = jumped, jumped[jumped]
        first, labels = np.unique(label, return_inverse=True)
        return first.size, labels


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


def diff_matrix_1d(N: int):
    """Exact derivative on the cutoff scalar space (CSR)."""
    d = np.zeros((2 * N + 1, 2 * N + 1))
    for k in range(1, N + 1):
        ic, isn = 2 * k - 1, 2 * k
        d[isn, ic] = -float(k)  # cos k -> -k sin k
        d[ic, isn] = float(k)  # sin k -> k cos k
    return CSR.from_dense(d)


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


def mult_matrix_1d(N: int, g: TrigPoly):
    """Galerkin matrix (CSR) of multiplication by g on the scalar space."""
    if g.arity != 1:
        raise ConfigError("multiplier must have arity 1")
    if set(g.terms) <= {(0,)}:
        # a constant is an exact scaled identity; the expansion below
        # would give (1/sqrt(pi)) * sqrt(pi), which is not 1 in floating
        # point, and leave a rounding residue between exact blocks
        n = 2 * N + 1
        c = g.terms.get((0,), (0.0, 0.0))[0]
        return c * CSR.identity(n) if c else CSR.from_dense(np.zeros((n, n)))
    cols = [expand_1d(g * mode_poly_1d(k, kind), N) for k, kind in scalar_modes(N)]
    return CSR.from_dense(np.column_stack(cols))


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
    out = CSR(np.zeros(0), np.zeros(0, dtype=np.int64),
              np.zeros(m + 1, dtype=np.int64), (m, m))
    for (a, b), (c, s) in sorted(g.terms.items()):
        bb, sg = abs(b), (1.0 if b >= 0 else -1.0)
        Ca = mult_matrix_1d(N, TrigPoly.cosine((a,)))
        Sa = mult_matrix_1d(N, TrigPoly.sine((a,)))
        Cb = mult_matrix_1d(N, TrigPoly.cosine((bb,)))
        Sb = mult_matrix_1d(N, TrigPoly.sine((bb,)))
        if c != 0.0:
            out = out + c * (Ca.kron(Cb) - sg * Sa.kron(Sb))
        if s != 0.0:
            out = out + s * (Sa.kron(Cb) + sg * Ca.kron(Sb))
    return out


# -- the complex --------------------------------------------------------


class DeRhamComplex(NamedTuple):
    """Cutoff de Rham complex with deformation data.

    D[q] is the exact exterior derivative on degree q, E[q] the projected
    multiplication by df (wedge), S[q] the Hodge star to degree n - q, a
    signed permutation matrix.  Every operator is CSR on both manifolds.
    All coefficient bases are orthonormal, so adjoints are transposes
    (the star's inverse is its transpose).
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
    scalar_dim: int = 0  # rows of one scalar block of a form

    def witten_d(self, t: float):
        return [self.D[q] + t * self.E[q] for q in range(self.n)]

    def negate_potential(self) -> "DeRhamComplex":
        return self._replace(f=-self.f, E=[-Eq for Eq in self.E])

    # scalar-block helpers used by localization

    def form_components(self, q: int, vec: np.ndarray):
        """Split a degree-q coefficient vector into scalar blocks.

        Block order matches the coframe order: [dtheta1, dtheta2] in
        degree 1 on the torus; a single block otherwise.
        """
        vec = np.asarray(vec)
        if self.manifold == "circle" or q in (0, self.n):
            return [vec]
        m = self.scalar_dim
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
    S = [CSR.identity(dim)] * 2
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
        scalar_dim=dim,
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
    d1 = diff_matrix_1d(N)
    I1 = CSR.identity(n1)
    D = _torus_operators(d1.kron(I1), I1.kron(d1))
    E = _torus_operators(mult_matrix_2d(N, f.partial(0)),
                         mult_matrix_2d(N, f.partial(1)))
    # star: 1 -> dth1^dth2, dth1 -> dth2, dth2 -> -dth1, dth1^dth2 -> 1
    I = CSR.identity(m)
    S1 = CSR.blocks([[None, -I], [I, None]])

    return DeRhamComplex(
        manifold="torus",
        n=2,
        N=N,
        f=f,
        dims=(m, 2 * m, m),
        D=D,
        E=E,
        S=[I, S1, I],
        betti=(1, 2, 1),
        volume=TWO_PI**2,
        scalar_dim=m,
    )


def _torus_operators(X1, X2) -> list:
    """The degree-0 and degree-1 torus operators of the partial ones X1
    (along th1) and X2: u -> X1 u dth1 + X2 u dth2, and
    alpha dth1 + beta dth2 -> (X1 beta - X2 alpha) dth1^dth2."""
    return [CSR.blocks([[X1], [X2]]), CSR.blocks([[-X2, X1]])]


# -- operators -----------------------------------------------------------


class LaplacianFamily:
    """Deformed Laplacian of one degree as A0 + t*A1 + t^2*A2 (exact).

    The three coefficients are symmetrised once, when the family is
    built, and kept as the rows of coef: data arrays on one shared CSR
    pattern holding every entry that is nonzero in any of them.  The
    family at t is one combination of those rows on the pattern, and
    every at(t) and term(j) shares the pattern's cached arrays.
    """

    def __init__(self, pattern: CSR, coef: np.ndarray):
        self.pattern = pattern  # shared; its data, a read-only 1.0, is unused
        self.coef = coef  # (3, nnz): the data of A0, A1, A2

    @classmethod
    def from_terms(cls, A0, A1, A2) -> "LaplacianFamily":
        """The family of three square matrices, dense or CSR."""
        terms = [A if isinstance(A, CSR) else CSR.from_dense(A)
                 for A in (A0, A1, A2)]
        sym = [0.5 * (A + A.T) for A in terms]
        n = terms[0].shape[0]
        # the union of the three patterns: sums of ones never vanish
        union = CSR.from_entries(np.concatenate([S.rows for S in sym]),
                                 np.concatenate([S.indices for S in sym]),
                                 np.ones(sum(S.nnz for S in sym)), (n, n))
        key = union.rows * n + union.indices
        coef = np.zeros((3, union.nnz))
        for row, S in zip(coef, sym):
            row[np.searchsorted(key, S.rows * n + S.indices)] = S.data
        return cls(union.with_data(np.broadcast_to(1.0, union.nnz)), coef)

    @property
    def dim(self) -> int:
        return self.pattern.shape[0]

    def values(self, t: float) -> np.ndarray:
        """Data of the family at t on the shared pattern."""
        return self.coef[0] + t * self.coef[1] + (t * t) * self.coef[2]

    def at(self, t: float) -> CSR:
        """The family at t, a symmetric CSR matrix."""
        return self.pattern.with_data(self.values(t))

    def term(self, j: int) -> CSR:
        """The coefficient A_j."""
        return self.pattern.with_data(self.coef[j])

    def split(self) -> list:
        """Exact invariant blocks of the family, as (indices, sub-family).

        The blocks are the connected components of the shared pattern:
        every entry coupling two blocks is exactly 0.0 in all three
        coefficients, so each block spans an invariant subspace of the
        family at every t.  No knowledge of the potential is needed; a
        potential without frequency structure gives one block.  Blocks
        are ordered by their first index; each sub-family slices the
        shared arrays of its rows.
        """
        P = self.pattern
        n_blocks, labels = P.components()
        entry_label = labels[P.rows]
        row_nnz = np.diff(P.indptr)
        local = np.empty(self.dim, dtype=P.indices.dtype)
        out = []
        for b in range(n_blocks):  # components come by their first row
            idx = np.flatnonzero(labels == b)
            # every entry of a block row lies in the block, in row order
            local[idx] = np.arange(idx.size)
            sel = np.flatnonzero(entry_label == b)
            indptr = np.zeros(idx.size + 1, dtype=P.indptr.dtype)
            np.cumsum(row_nnz[idx], out=indptr[1:])
            sub = CSR(np.broadcast_to(1.0, sel.size), local[P.indices[sel]],
                      indptr, (idx.size, idx.size))
            out.append((idx, LaplacianFamily(sub, self.coef.take(sel, 1))))
        return out


def laplacian_family(cx: DeRhamComplex, q: int) -> LaplacianFamily:
    parts = [[], [], []]
    if q < cx.n:
        B0, B1 = cx.D[q], cx.E[q]
        B0t, B1t = B0.T, B1.T
        parts[0].append(B0t @ B0)
        parts[1].append(B0t @ B1 + B1t @ B0)
        parts[2].append(B1t @ B1)
    if q > 0:
        C0, C1 = cx.D[q - 1], cx.E[q - 1]
        C0t, C1t = C0.T, C1.T
        parts[0].append(C0 @ C0t)
        parts[1].append(C0 @ C1t + C1 @ C0t)
        parts[2].append(C1 @ C1t)
    return LaplacianFamily.from_terms(*(sum(ps[1:], ps[0]) for ps in parts))


def graded_kronecker_defect(cx: DeRhamComplex, c1: DeRhamComplex,
                            c2: DeRhamComplex):
    """(defect of D, defect of E): the largest |entry| of D_q - K(D) and
    of E_q - K(E) in the torus complex cx, with K the graded Kronecker
    assembly of the circle complexes c1, c2 (_torus_operators of X (x) I
    and I (x) X).  Laplacians are built from D and E alone, so zero
    defects make each Delta_q(t) a Kronecker sum at every t."""
    I1, I2 = (CSR.identity(c.dims[0]) for c in (c1, c2))
    return tuple(max((A - K).maxabs() for A, K in zip(ops, _torus_operators(
        x1.kron(I2), I1.kron(x2)))) for ops, x1, x2 in (
            (cx.D, c1.D[0], c2.D[0]), (cx.E, c1.E[0], c2.E[0])))


def d_squared_residual(cx: DeRhamComplex, t: float) -> float:
    """Max-abs norm of d(t) o d(t); zero up to cutoff closure effects."""
    if cx.n < 2:
        return 0.0
    d = cx.witten_d(t)
    return (d[1] @ d[0]).maxabs()


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
        comp = cx.S[n - q] @ cx.S[q]  # star^{n-q} after star^q: acts on deg q
        out[("star_square", q)] = (
            comp - sgn * CSR.identity(comp.shape[0])).maxabs()

        # matrix of star Delta^q star on degree n - q: S_q @ Delta_q @ S_{n-q}
        conj = cx.S[q] @ fam[q].at(0.0) @ cx.S[n - q]
        out[("star_laplacian", q)] = (sgn * conj - fam[n - q].at(0.0)).maxabs()

        for t in ts:
            conj_t = cx.S[q] @ fam[q].at(t) @ cx.S[n - q]
            out[("star_deformed", q, t)] = (
                sgn * conj_t - fam_neg[n - q].at(t)).maxabs()
            out[("parameter_flip", q, t)] = (
                fam[q].at(-t) - fam_neg[q].at(t)).maxabs()
    if n == 2:
        for t in ts:
            out[("d_squared", t)] = d_squared_residual(cx, t)
    return out
