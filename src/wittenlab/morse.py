"""Critical points and gradient-flow cells of the built-in potentials.

Critical points are located by multi-start Newton iteration on the
gradient and certified nondegenerate; the count is cross-checked against
the Euler characteristic (zero for both model manifolds).  Descending
cells of -grad f are written in closed form: any Morse function works on
the circle, and separable potentials work on the torus, where every cell
is a product of factor cells.  Non-separable torus flows would need
numerical cell tracing and are rejected explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import (
    ConfigError,
    DegenerateCriticalPointError,
    NumericalError,
)
from .trigpoly import TWO_PI, TrigPoly


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple  # angles in [0, 2*pi)
    index: int  # number of negative Hessian eigenvalues
    value: float  # f at the point
    hessian: tuple  # Hessian eigenvalues, ascending
    orientation: int = 1  # sign convention carried by the cell parametrization


@dataclass(frozen=True)
class UnstableCell:
    """One piece of a descending cell, a coordinate box in the angles.

    axes has one entry per coordinate: ("point", c) pins the coordinate,
    ("arc", lo, hi) spans an open interval (hi may exceed 2*pi; only
    differences matter).  The cell dimension is the number of arcs and
    equals the owner's index.  Arcs are oriented by increasing angle;
    the orientation field flips the cell's sign as a whole.  boundary
    lists (axis, far_coordinate, sign) for the far end of each arc, the
    incidence data of the flow.
    """

    owner: CriticalPoint
    axes: tuple
    orientation: int = 1
    boundary: tuple = ()

    @property
    def dim(self) -> int:
        return sum(1 for a in self.axes if a[0] == "arc")


def _wrap(x: float) -> float:
    y = math.fmod(float(x), TWO_PI)
    if y < 0:
        y += TWO_PI
    if y > TWO_PI - 1e-12:
        y = 0.0
    return y


def find_critical_points(f: TrigPoly, manifold: str,
                         tol: Tolerances | None = None):
    """All critical points of f, validated Morse, sorted by (index, coords).

    Multi-start Newton on grad f = 0 over a frequency-resolving seed
    grid, deduplicated by angular distance.  Degenerate Hessians reject
    the potential as non-Morse; a failed Euler-characteristic count
    (here zero) flags missed roots.
    """
    tol = tol or Tolerances()
    n = 1 if manifold == "circle" else 2
    if manifold not in ("circle", "torus"):
        raise ConfigError(f"unknown manifold {manifold!r}")
    if f.arity != n:
        raise ConfigError(f"potential arity {f.arity} does not fit {manifold}")

    grads = [f.partial(i) for i in range(n)]
    hess = [[grads[i].partial(j) for j in range(n)] for i in range(n)]
    mf = max(1, max(f.max_freq()))
    m_seed = max(8 * mf, 16)
    axis = np.arange(m_seed) * (TWO_PI / m_seed)
    seeds = axis.reshape(-1, 1) if n == 1 else \
        np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)

    found = []
    for seed in seeds:
        x = np.array(seed, dtype=float)
        ok = False
        for _ in range(60):
            g = np.array([gp(*x) for gp in grads])
            if np.max(np.abs(g)) < tol.newton_tol:
                ok = True
                break
            H = np.array([[hp(*x) for hp in row] for row in hess])
            try:
                s = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            s = np.clip(s, -0.5, 0.5)  # keep basins separated
            x = x + s
        if not ok:
            continue
        x = tuple(_wrap(c) for c in x)
        if any(_angdist(x, y) < 1e-6 for y in found):
            continue
        found.append(x)

    if not found:
        raise DegenerateCriticalPointError(
            "no nondegenerate critical points found; potential is not Morse"
        )

    points = []
    for x in found:
        H = np.array([[hp(*x) for hp in row] for row in hess])
        eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
        if np.min(np.abs(eigs)) < tol.nondegen_tol:
            raise DegenerateCriticalPointError(
                f"degenerate Hessian at {tuple(round(c, 6) for c in x)}: "
                f"eigenvalues {eigs}"
            )
        g = np.array([gp(*x) for gp in grads])
        if np.max(np.abs(g)) > 1e-12:
            raise NumericalError(f"gradient {np.max(np.abs(g)):.2e} after Newton")
        points.append(CriticalPoint(
            coords=x,
            index=int(np.sum(eigs < 0)),
            value=float(f(*x)),
            hessian=tuple(float(e) for e in eigs),
        ))

    counts = [sum(1 for p in points if p.index == q) for q in range(n + 1)]
    chi = sum((-1) ** q * c for q, c in enumerate(counts))
    if chi != 0:
        raise NumericalError(
            f"Euler characteristic {chi} != 0: critical points missed "
            f"(counts {counts})"
        )
    if manifold == "circle":
        ring = sorted(points, key=lambda p: p.coords[0])
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if a.index == b.index:
                raise NumericalError("adjacent circle critical points of equal "
                                     "index: roots missed")
    points.sort(key=lambda p: (p.index, p.coords))
    return points


def _angdist(x, y) -> float:
    d = 0.0
    for a, b in zip(x, y):
        r = abs(a - b) % TWO_PI
        d = max(d, min(r, TWO_PI - r))
    return d


def _circle_neighbors(points, x: CriticalPoint):
    """(left, right) cyclic neighbors of x with unwrapped angular offsets."""
    ring = sorted(points, key=lambda p: p.coords[0])
    i = next(j for j, p in enumerate(ring) if _angdist(p.coords, x.coords) < 1e-9)
    right = ring[(i + 1) % len(ring)]
    left = ring[(i - 1) % len(ring)]
    d_r = (right.coords[0] - x.coords[0]) % TWO_PI
    d_l = (x.coords[0] - left.coords[0]) % TWO_PI
    return (left, d_l), (right, d_r)


def _circle_cells(points, x: CriticalPoint):
    th = x.coords[0]
    if x.index == 0:
        return [UnstableCell(owner=x, axes=(("point", th),))]
    (left, d_l), (right, d_r) = _circle_neighbors(points, x)
    right_cell = UnstableCell(
        owner=x,
        axes=(("arc", th, th + d_r),),
        boundary=((0, right.coords[0], +1),),
    )
    left_cell = UnstableCell(
        owner=x,
        axes=(("arc", th - d_l, th),),
        boundary=((0, left.coords[0], -1),),
    )
    return [left_cell, right_cell]


def factor_potentials(f: TrigPoly):
    """Split a separable torus potential into circle factors.

    The additive constant is attached to the first factor so that factor
    f-values and exponential weights multiply back exactly.
    """
    if f.arity != 2 or not f.is_separable():
        raise ConfigError(
            "unsupported flow: torus gradient cells need a separable potential"
        )
    h1, h2, const = f.factor_parts()
    return h1 + const, h2


def unstable_cells(x: CriticalPoint, f: TrigPoly, manifold: str,
                   points=None, tol: Tolerances | None = None):
    """Closed-form pieces of the descending cell of x.

    Index-0 points give a single point cell; a circle maximum gives its
    two flanking arcs; torus cells are products of factor cells.  Each
    piece records the far-end critical value of every arc axis with the
    sign induced by the increasing-angle orientation.
    """
    if manifold == "circle":
        pts = points if points is not None else find_critical_points(f, manifold, tol)
        return _circle_cells(pts, x)
    if manifold != "torus":
        raise ConfigError(f"unknown manifold {manifold!r}")
    h1, h2 = factor_potentials(f)
    pts1 = find_critical_points(h1, "circle", tol)
    pts2 = find_critical_points(h2, "circle", tol)
    x1 = _match_factor(pts1, x.coords[0])
    x2 = _match_factor(pts2, x.coords[1])
    cells = []
    for c1 in _circle_cells(pts1, x1):
        for c2 in _circle_cells(pts2, x2):
            axes = (c1.axes[0], c2.axes[0])
            boundary = tuple((0, far, sgn) for _, far, sgn in c1.boundary) + \
                tuple((1, far, sgn) for _, far, sgn in c2.boundary)
            cells.append(UnstableCell(
                owner=x,
                axes=axes,
                orientation=c1.orientation * c2.orientation,
                boundary=boundary,
            ))
    return cells


def _match_factor(pts, coord):
    for p in pts:
        if _angdist(p.coords, (coord,)) < 1e-8:
            return p
    raise NumericalError(f"no factor critical point at angle {coord}")


# -- transversality certificate ------------------------------------------


def certify_connections(records):
    """Check a table of flow connections for Morse-Smale consistency.

    records: iterable of (ind_x, ind_y) index pairs for critical points
    connected by at least one trajectory (x above, y below).  For a
    gradient flow satisfying transversality the trajectory space between
    them has dimension ind_x - ind_y - 1 >= 0; equal or inverted indices
    certify a violation.  Returns (ok, table) with the dimension table.
    """
    ok = True
    table = []
    for ind_x, ind_y in records:
        dim = ind_x - ind_y - 1
        table.append((ind_x, ind_y, dim))
        if dim < 0:
            ok = False
    return ok, table


def _flow_connections(f: TrigPoly, manifold: str, tol=None):
    """(x, y, ind_x, ind_y) for every connecting trajectory family."""
    points = find_critical_points(f, manifold, tol)
    conns = []
    if manifold == "circle":
        for x in points:
            if x.index == 0:
                continue
            for cell in _circle_cells(points, x):
                for _, far, _ in cell.boundary:
                    y = next(p for p in points if _angdist(p.coords, (far,)) < 1e-9)
                    conns.append((x, y, x.index, y.index))
        return points, conns
    h1, h2 = factor_potentials(f)
    pts1 = find_critical_points(h1, "circle", tol)
    pts2 = find_critical_points(h2, "circle", tol)

    def closure_1d(pts, p):
        # critical points in the closure of the descending cell of p
        out = {p.coords[0]: p}
        for cell in _circle_cells(pts, p):
            for _, far, _ in cell.boundary:
                y = next(r for r in pts if _angdist(r.coords, (far,)) < 1e-9)
                out[y.coords[0]] = y
        return out

    by_coords = {p.coords: p for p in points}
    for x in points:
        x1 = _match_factor(pts1, x.coords[0])
        x2 = _match_factor(pts2, x.coords[1])
        for y1 in closure_1d(pts1, x1).values():
            for y2 in closure_1d(pts2, x2).values():
                yc = (y1.coords[0], y2.coords[0])
                if _angdist(yc, x.coords) < 1e-9:
                    continue
                y = by_coords[min(by_coords, key=lambda c: _angdist(c, yc))]
                conns.append((x, y, x.index, y.index))
    return points, conns


def check_morse_smale(f: TrigPoly, manifold: str, tol: Tolerances | None = None):
    """Transversality certificate for the built-in flows.

    On the circle every Morse flow qualifies; on the torus separability
    reduces transversality to the factors (a saddle-saddle connection
    would require a factor trajectory between equal-index factor points,
    which closure_1d rules out combinatorially).  Returns (ok, table of
    (x coords, y coords, dim of trajectory space)).
    """
    points, conns = _flow_connections(f, manifold, tol)
    ok, _ = certify_connections((ix, iy) for _, _, ix, iy in conns)
    table = [(x.coords, y.coords, ix - iy - 1) for x, y, ix, iy in conns]
    return ok, table


# -- the combinatorial complex -------------------------------------------


@dataclass
class MorseComplexData:
    """Cochain complex on critical points with integer coboundaries."""

    points: list  # all critical points, sorted by (index, coords)
    degrees: dict  # q -> list of indices into points
    d: list  # d[q]: C^q -> C^{q+1}, integer matrices
    betti: tuple


def _circle_incidence(points):
    """Signed counts n(max, min) from the oriented flanking arcs."""
    minima = [p for p in points if p.index == 0]
    maxima = [p for p in points if p.index == 1]
    D = np.zeros((len(maxima), len(minima)), dtype=int)
    for i, m in enumerate(maxima):
        for cell in _circle_cells(points, m):
            for _, far, sgn in cell.boundary:
                j = next(k for k, p in enumerate(minima)
                         if _angdist(p.coords, (far,)) < 1e-9)
                D[i, j] += sgn * cell.orientation
    return minima, maxima, D


def morse_coboundary(f: TrigPoly, manifold: str,
                     tol: Tolerances | None = None) -> MorseComplexData:
    """Integer coboundary matrices of the descending-cell complex.

    Circle: n(max, right neighbor) = +1 and n(max, left neighbor) = -1,
    the Stokes-consistent signs for increasing-angle arc orientations.
    Torus: graded tensor rule d(u1 (x) u2) = d u1 (x) u2 + (-1)^deg
    u1 (x) d u2 over the factor complexes.  Ranks are validated against
    the known Betti numbers.
    """
    points = find_critical_points(f, manifold, tol)
    if manifold == "circle":
        minima, maxima, D = _circle_incidence(points)
        degrees = {0: [points.index(p) for p in minima],
                   1: [points.index(p) for p in maxima]}
        d = [np.array(D)]
        betti = (1, 1)
    else:
        h1, h2 = factor_potentials(f)
        pts1 = find_critical_points(h1, "circle", tol)
        pts2 = find_critical_points(h2, "circle", tol)
        min1, max1, D1 = _circle_incidence(pts1)
        min2, max2, D2 = _circle_incidence(pts2)

        def pos(plist, coords):
            # Newton refines the 2-D points and the factor points
            # separately, so equal points may differ in the last bits
            for k, p in enumerate(plist):
                if _angdist(p.coords, coords) < 1e-9:
                    return k
            raise NumericalError("critical point lookup failed")

        degrees = {q: [i for i, p in enumerate(points) if p.index == q]
                   for q in range(3)}
        in_degree = {q: [points[i] for i in degrees[q]] for q in range(3)}
        c0, c1, c2 = (len(degrees[q]) for q in range(3))
        d0 = np.zeros((c1, c0), dtype=int)
        d1 = np.zeros((c2, c1), dtype=int)
        for srow, saddle in enumerate(in_degree[1]):
            s1, s2 = saddle.coords
            is_type10 = any(_angdist(m.coords, (s1,)) < 1e-9 for m in max1)
            if is_type10:
                # saddle = (max, min): d0 couples along the first factor,
                # d1 along the second with the graded minus sign
                i1 = pos(max1, (s1,))
                j2 = pos(min2, (s2,))
                for j1 in range(len(min1)):
                    if D1[i1, j1]:
                        p = (min1[j1].coords[0], s2)
                        d0[srow, pos(in_degree[0], p)] += D1[i1, j1]
                for i2 in range(len(max2)):
                    if D2[i2, j2]:
                        m = (s1, max2[i2].coords[0])
                        d1[pos(in_degree[2], m), srow] -= D2[i2, j2]
            else:
                j1 = pos(min1, (s1,))
                i2 = pos(max2, (s2,))
                for j2 in range(len(min2)):
                    if D2[i2, j2]:
                        p = (s1, min2[j2].coords[0])
                        d0[srow, pos(in_degree[0], p)] += D2[i2, j2]
                for i1 in range(len(max1)):
                    if D1[i1, j1]:
                        m = (max1[i1].coords[0], s2)
                        d1[pos(in_degree[2], m), srow] += D1[i1, j1]
        d = [d0, d1]
        betti = (1, 2, 1)

    for a, b in zip(d[1:], d[:-1]):
        if np.max(np.abs(a @ b)) != 0:
            raise NumericalError("coboundary composition is nonzero")
    dims = [len(degrees[q]) for q in range(len(d) + 1)]
    ranks = [np.linalg.matrix_rank(m) if m.size else 0 for m in d]
    for q in range(len(dims)):
        up = ranks[q] if q < len(ranks) else 0
        down = ranks[q - 1] if q > 0 else 0
        if dims[q] - up - down != betti[q]:
            raise NumericalError(
                f"Morse complex cohomology rank at degree {q} is "
                f"{dims[q] - up - down}, expected {betti[q]}"
            )
    return MorseComplexData(points=points, degrees=degrees, d=d, betti=betti)
