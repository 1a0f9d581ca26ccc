"""Integration of exponentially weighted forms over descending cells.

The pairing sends a cutoff q-form w to the cochain x -> int over the
descending cell of x of e^{t f} w, summed over the closed-form cell
pieces.  Quadrature is composite Gauss-Legendre with an embedded
half-order error estimate and dyadic panel subdivision; the integrand
steepens near cell endpoints as t grows, which is exactly where the
subdivision concentrates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .derham import DeRhamComplex
from .errors import ConfigError, NumericalError
from .morse import FlowComplex, UnstableCell

_GL32 = np.polynomial.legendre.leggauss(32)
_GL16 = np.polynomial.legendre.leggauss(16)


def _rule_1d(fn, lo: float, hi: float, rule):
    x, w = rule
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * (w @ fn(mid + half * x))


def _panel_1d(fn, lo: float, hi: float):
    """GL32 and embedded GL16 values on one panel."""
    return _rule_1d(fn, lo, hi, _GL32), _rule_1d(fn, lo, hi, _GL16)


def integrate_1d(fn, lo: float, hi: float, rel_tol: float = 1e-10,
                 budget: int = 16384) -> float | np.ndarray:
    """Adaptive integral of a vectorized callable on [lo, hi].

    fn maps a node vector to its values, optionally with a trailing
    column axis; columns are integrated together on shared panels and
    the result has one entry per column.  A panel is accepted when the
    GL32/GL16 discrepancy of every column fits an error allocation
    proportional to panel width, relative to a coarse estimate of that
    column's int |fn|; exhausting the panel budget raises.
    """
    if hi <= lo:
        raise ConfigError("empty integration interval")
    width = hi - lo
    edges = np.linspace(lo, hi, 9)
    scale = sum(_rule_1d(lambda x: np.abs(fn(x)), a, b, _GL32)
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


def _rule_2d(fn, box, rule):
    a1, b1, a2, b2 = box
    h1, m1 = 0.5 * (b1 - a1), 0.5 * (b1 + a1)
    h2, m2 = 0.5 * (b2 - a2), 0.5 * (b2 + a2)
    x, w = rule
    return h1 * h2 * (w @ np.tensordot(w, fn(m1 + h1 * x, m2 + h2 * x), 1))


def _panel_2d(fn, box):
    """GL32 and embedded GL16 tensor values on one panel."""
    return _rule_2d(fn, box, _GL32), _rule_2d(fn, box, _GL16)


def integrate_2d(fn, box, rel_tol: float = 1e-10,
                 budget: int = 65536) -> float | np.ndarray:
    """Adaptive tensor-panel integral over a rectangle.

    fn(th1, th2) takes node vectors and returns the value matrix on
    their tensor grid, optionally with a trailing column axis that is
    integrated as in integrate_1d.
    """
    a1, b1, a2, b2 = box
    if b1 <= a1 or b2 <= a2:
        raise ConfigError("empty integration rectangle")
    area = (b1 - a1) * (b2 - a2)
    scale = 0.0
    for e1 in np.linspace(a1, b1, 4 + 1).repeat(2)[1:-1].reshape(-1, 2):
        for e2 in np.linspace(a2, b2, 4 + 1).repeat(2)[1:-1].reshape(-1, 2):
            sub = (e1[0], e1[1], e2[0], e2[1])
            scale += _rule_2d(lambda x, y: np.abs(fn(x, y)), sub, _GL32)
    stack = [box]
    total = 0.0
    used = 0
    while stack:
        cur = stack.pop()
        used += 1
        if used > budget:
            raise NumericalError(
                f"quadrature panel budget {budget} exhausted on box {box}"
            )
        c1, d1, c2, d2 = cur
        coarse_ok = (d1 - c1) * (d2 - c2) < area * (4.0 ** -20)
        i32, i16 = _panel_2d(fn, cur)
        tol_panel = rel_tol * (scale + 1e-300) * (d1 - c1) * (d2 - c2) / area
        if np.all(np.abs(i32 - i16) <= tol_panel) or coarse_ok:
            total += i32
        else:
            m1 = 0.5 * (c1 + d1)
            m2 = 0.5 * (c2 + d2)
            stack.extend([(c1, m1, c2, m2), (c1, m1, m2, d2),
                          (m1, d1, c2, m2), (m1, d1, m2, d2)])
    return total


# -- cell integrals --------------------------------------------------------


def integral_A(cx: DeRhamComplex, q: int, omega: np.ndarray,
               cell: UnstableCell, t: float,
               tol: Tolerances | None = None) -> float | np.ndarray:
    """int over one cell piece of e^{t f} omega, orientation applied.

    omega is one form, giving a float, or a (dim, k) block of forms,
    giving one value per column from a single adaptive pass whose
    panels the columns share.  The piece dimension must match the form
    degree; the pullback keeps the coefficient of the coframe product
    along the arc axes.
    """
    tol = tol or Tolerances()
    if cell.dim != q:
        raise ConfigError(f"cell of dimension {cell.dim} paired with a "
                          f"{q}-form")
    omega = np.asarray(omega, dtype=float)
    block = omega.reshape(omega.shape[0], -1)
    comps = cx.form_components(q, block)
    arcs = [i for i, a in enumerate(cell.axes) if a[0] == "arc"]
    # a torus 1-form pulls back to its coframe component along the arc
    comp = comps[arcs[0]] if len(comps) > 1 else comps[0]

    def fn(*nodes):
        # nodes along the arc axes; the other coordinates stay pinned
        grid = [np.array([a[1]]) for a in cell.axes]
        for i, x in zip(arcs, nodes):
            grid[i] = x
        mesh = np.meshgrid(*grid, indexing="ij", sparse=True)
        vals = np.exp(t * cx.f(*mesh))[..., None] * \
            cx.eval_scalar_grid(comp, *grid)
        return vals.reshape(*(x.size for x in nodes), block.shape[1])

    if q == 0:
        total = fn()
    elif q == 1:
        _, lo, hi = cell.axes[arcs[0]]
        total = integrate_1d(fn, lo, hi, tol.quad_rel)
    else:
        (_, lo1, hi1), (_, lo2, hi2) = cell.axes
        total = integrate_2d(fn, (lo1, hi1, lo2, hi2), tol.quad_rel)
    out = float(cell.orientation) * total
    return out if omega.ndim > 1 else float(out[0])


# -- the pairing with a critical-point basis -------------------------------


def int_cochain(cx: DeRhamComplex, q: int, omega: np.ndarray,
                flow: FlowComplex, t: float,
                tol: Tolerances | None = None) -> np.ndarray:
    """Pairing values of one q-form against every index-q point."""
    omega = np.asarray(omega, dtype=float)
    return pairing_matrix(cx, q, omega[:, None], flow, t, tol)[0]


def pairing_matrix(cx: DeRhamComplex, q: int, forms: np.ndarray,
                   flow: FlowComplex, t: float,
                   tol: Tolerances | None = None) -> np.ndarray:
    """Matrix of the pairing: rows index forms, columns the index-q
    critical points in the order of flow.degrees[q].

    Each cell piece is integrated once for the whole block of forms.
    """
    forms = np.asarray(forms, dtype=float)
    owners = flow.degrees.get(q, [])
    out = np.zeros((forms.shape[1], len(owners)))
    for j, i in enumerate(owners):
        for piece in flow.cells[i]:
            out[:, j] += integral_A(cx, q, forms, piece, t, tol)
    return out


@dataclass
class DetValue:
    """Log-domain determinant magnitude with conditioning data."""

    log_abs: float
    sign: float
    cond: float
    singular: bool

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_abs)


def det_log(A: np.ndarray) -> DetValue:
    A = np.asarray(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ConfigError(f"determinant of a {A.shape} matrix")
    s = np.linalg.svd(A, compute_uv=False)
    singular = bool(s[-1] <= 1e-12 * s[0]) if s[0] > 0 else True
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    sign, log_abs = np.linalg.slogdet(A)
    return DetValue(log_abs=float(log_abs), sign=float(sign),
                    cond=cond, singular=singular)


def a_log_total(dets: dict) -> float:
    """Alternating log-product over degrees: sum (-1)^q log a_q."""
    out = 0.0
    for q, d in dets.items():
        if d.singular:
            raise NumericalError(f"degenerate pairing in degree {q}")
        out += (-1) ** q * d.log_abs
    return out
