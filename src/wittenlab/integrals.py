"""Integration of exponentially weighted forms over descending cells.

The pairing sends a cutoff q-form w to the cochain x -> int over the
descending cell of x of e^{t f} w, summed over the closed-form cell
pieces.  Every piece is a point, an arc, or a product of those, so each
pairing is a contraction of 1-D moments of the potential's circle
factors (CellMoments): point values, products with the form
coefficients, and no 2-D quadrature.  Each arc is integrated once for a
whole t-grid.  Quadrature is composite Gauss-Legendre with an embedded
half-order error estimate and dyadic panel subdivision; the integrand
steepens near cell endpoints as t grows, which is exactly where the
subdivision concentrates.  A moment integrand is a product of two
factors, e^{t f(x)} and a basis function, so each rule contracts the
weights with them as one matrix product over the whole grid and never
forms the (nodes, n_t (2N + 1)) table of their products.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import Tolerances
from .derham import DeRhamComplex, basis_matrix_1d
from .errors import ConfigError, NumericalError
from .morse import FlowComplex, UnstableCell, factor_potentials


@functools.lru_cache(maxsize=None)
def gauss_legendre(nodes: int):
    """The nodes-point Gauss-Legendre rule on [-1, 1], computed once."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _rule_1d(fn, lo: float, hi: float, rule):
    x, w = rule
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    E, B = fn(mid + half * x)  # the columns E[:, a] B[:, b]
    return half * ((w[:, None] * E).T @ B).ravel()


def _panel_1d(fn, lo: float, hi: float):
    """GL32 and embedded GL16 values on one panel."""
    return (_rule_1d(fn, lo, hi, gauss_legendre(32)),
            _rule_1d(fn, lo, hi, gauss_legendre(16)))


def integrate_1d(fn, lo: float, hi: float, rel_tol: float = 1e-10,
                 budget: int = 16384) -> np.ndarray:
    """Adaptive integral of a vectorized callable on [lo, hi].

    fn maps a node vector to a pair (E, B) of (nodes, n_a) and (nodes,
    n_b) factors whose columns are the products E[:, a] B[:, b], in
    (a, b) order.  Columns are integrated together on shared panels and
    the result has one entry per column.  A panel is accepted when the
    GL32/GL16 discrepancy of every column fits an error allocation
    proportional to panel width, relative to a coarse estimate of that
    column's int |fn|; exhausting the panel budget raises.
    """
    if hi <= lo:
        raise ConfigError("empty integration interval")
    width = hi - lo
    edges = np.linspace(lo, hi, 9)
    # |ab| = |a| |b| exactly, so the |fn| rule takes the factors' |.|
    scale = sum(_rule_1d(lambda x: [np.abs(v) for v in fn(x)], a, b,
                         gauss_legendre(32))
                for a, b in zip(edges[:-1], edges[1:]))
    stack = [(lo, hi)]
    total = 0.0
    used = 0
    while stack:
        a, b = stack.pop()
        used += 1
        if used > budget:
            raise NumericalError(
                f"quadrature panel budget {budget} exhausted on [{lo}, {hi}]"
            )
        coarse_ok = (b - a) < width * (2.0 ** -40)
        i32, i16 = _panel_1d(fn, a, b)
        tol_panel = rel_tol * (scale + 1e-300) * (b - a) / width
        if np.all(np.abs(i32 - i16) <= tol_panel) or coarse_ok:
            total += i32
        else:
            m = 0.5 * (a + b)
            stack.append((a, m))
            stack.append((m, b))
    return total


# -- cell moments -----------------------------------------------------------


class CellMoments:
    """1-D moments of the cell axes of one complex along a t-grid.

    Every cell piece is a point, an arc, or on the torus a product of
    those, and the torus potential splits as f1(th1) + f2(th2), so
    e^{t f} times a tensor basis function is a product of circle
    factors.  The moments of factor a along one axis are
    M_a(t)[i] = int_arc e^{t f_a} phi_i, or the point values
    e^{t f_a(p)} phi_i(p) on a pinned coordinate.  Each (factor, axis)
    is integrated on first use, in one adaptive pass for every t of the
    grid, and shared by all pieces and degrees that read it.
    """

    def __init__(self, cx: DeRhamComplex, ts, tol: Tolerances | None = None):
        self.cx = cx
        self.ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self.tol = tol or Tolerances()
        self.factors = ((cx.f,) if cx.manifold == "circle"
                        else factor_potentials(cx.f))
        self._axes = {}

    def axis(self, a: int, ax: tuple) -> np.ndarray:
        """(n_t, 2N+1) moments of factor a along one cell axis."""
        key = (a, ax)
        if key not in self._axes:
            f, N, ts = self.factors[a], self.cx.N, self.ts

            def fn(x):
                # columns (t, i): one |fn| scale and error allocation each
                return (np.exp(np.multiply.outer(f(x), ts)),
                        basis_matrix_1d(N, x))

            if ax[0] == "point":
                E, B = fn(np.array([ax[1]]))
                vals = E.T @ B
            else:
                vals = integrate_1d(fn, ax[1], ax[2], self.tol.quad_rel)
            self._axes[key] = vals.reshape(ts.size, -1)
        return self._axes[key]

    def cell_vectors(self, q: int, cell: UnstableCell) -> np.ndarray:
        """(n_t, dims[q]) rows m with int over the piece of e^{t f} w = m[t] . w.

        The orientation is applied; a torus 1-form pulls back to its
        coframe component along the arc axis.
        """
        if cell.dim != q:
            raise ConfigError(f"cell of dimension {cell.dim} paired with a "
                              f"{q}-form")
        m = self.axis(0, cell.axes[0])
        if len(cell.axes) == 2:
            m2 = self.axis(1, cell.axes[1])
            m = (m[:, :, None] * m2[:, None, :]).reshape(self.ts.size, -1)
        if self.cx.dims[q] > m.shape[1]:
            pad = np.zeros_like(m)
            m = np.hstack([m, pad] if cell.axes[0][0] == "arc" else [pad, m])
        return float(cell.orientation) * m

    def pairing(self, q: int, forms, flow: FlowComplex) -> np.ndarray:
        """Pairing matrices along the grid.

        forms is (n_t, dims[q], k), the forms at each t as columns; the
        result is (n_t, k, n_q), rows indexing forms and columns the
        index-q critical points in the order of flow.degrees[q].
        """
        forms = np.asarray(forms, dtype=float)
        owners = flow.degrees.get(q, [])
        out = np.zeros((self.ts.size, forms.shape[2], len(owners)))
        for j, i in enumerate(owners):
            m = sum(self.cell_vectors(q, piece) for piece in flow.cells[i])
            out[:, :, j] = (m[:, None, :] @ forms)[:, 0, :]
        return out


class DetValue(NamedTuple):
    """Log-domain determinant magnitude with conditioning data."""

    log_abs: float
    sign: float
    cond: float
    singular: bool

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_abs)


def det_log(A: np.ndarray) -> DetValue:
    """The DetValue of a square matrix, or of each matrix of a (..., k, k)
    stack, with every field then an array over the stack."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ConfigError(f"determinant of a {A.shape} matrix")
    s = np.linalg.svd(A, compute_uv=False)
    top, low = s[..., 0], s[..., -1]
    singular = (low <= 1e-12 * top) | ~(top > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(low > 0, top / low, math.inf)
    sign, log_abs = np.linalg.slogdet(A)
    if A.ndim == 2:
        return DetValue(log_abs=float(log_abs), sign=float(sign),
                        cond=float(cond), singular=bool(singular))
    return DetValue(log_abs=log_abs, sign=sign, cond=cond, singular=singular)


def a_log_total(dets: dict) -> float:
    """Alternating log-product over degrees: sum (-1)^q log a_q."""
    out = 0.0
    for q, d in dets.items():
        if d.singular:
            raise NumericalError(f"degenerate pairing in degree {q}")
        out += (-1) ** q * d.log_abs
    return out
