"""Critical points and gradient-flow cells of the built-in potentials.

find_critical_points is the one Newton search: multi-start Newton
iteration on the gradient, certified nondegenerate, with the count
cross-checked against the Euler characteristic (zero for both model
manifolds).  flow_complex builds the complex of one potential in a
single object (its points, cells, integer coboundary, cochain complex
and transversality table) and finds its own points: on the circle by
the Newton search, on a separable torus as the products of the points
of the two circle-factor flows, so that each torus point carries its
factor pair by construction.  Descending cells of -grad f are written
in closed form: any Morse function works on the circle, and every cell
of a separable torus potential is a product of factor cells.
Non-separable torus flows would need numerical cell tracing and are
rejected explicitly.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .config import Tolerances
from .derham import CSR
from .errors import (
    ConfigError,
    DegenerateCriticalPointError,
    NumericalError,
)
from .torsion import FiniteComplex
from .trigpoly import TWO_PI, TrigPoly


class CriticalPoint(NamedTuple):
    coords: tuple  # angles in [0, 2*pi)
    index: int  # number of negative Hessian eigenvalues
    value: float  # f at the point
    hessian: tuple  # Hessian eigenvalues, ascending


class UnstableCell(NamedTuple):
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


def find_critical_points(f: TrigPoly, manifold: str,
                         tol: Tolerances | None = None):
    """All critical points of f, validated Morse, sorted by (index, coords).

    Multi-start Newton on grad f = 0 over a frequency-resolving seed
    grid, every seed at once on arrays of coordinates, deduplicated by
    angular distance (_distinct).  A seed stops once its gradient is below
    newton_tol, and fails on a singular Hessian or after 60 steps.
    Degenerate Hessians reject the potential as non-Morse; a failed
    Euler-characteristic count (here zero) flags missed roots.
    """
    tol = tol or Tolerances()
    n = 1 if manifold == "circle" else 2
    if manifold not in ("circle", "torus"):
        raise ConfigError(f"unknown manifold {manifold!r}")
    if f.arity != n:
        raise ConfigError(f"potential arity {f.arity} does not fit {manifold}")

    grads = [f.partial(i) for i in range(n)]
    hess = [[grads[i].partial(j) for j in range(n)] for i in range(n)]

    def gradient(X):  # (m, n) points -> (m, n)
        return np.stack([gp(*X.T) for gp in grads], axis=-1)

    def hessian(X):  # (m, n) points -> (m, n, n)
        return np.stack([np.stack([hp(*X.T) for hp in row], axis=-1)
                         for row in hess], axis=-2)

    mf = max(1, max(f.max_freq()))
    m_seed = max(8 * mf, 16)
    axis = np.arange(m_seed) * (TWO_PI / m_seed)
    X = axis.reshape(-1, 1) if n == 1 else \
        np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)

    ok = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))  # the seeds still stepping
    for _ in range(60):
        g = gradient(X[live])
        done = np.max(np.abs(g), axis=1) < tol.newton_tol
        ok[live[done]] = True
        live, g = live[~done], g[~done]
        H = hessian(X[live])
        # np.linalg.solve refuses exactly the matrices whose LU has a
        # zero pivot, the ones np.linalg.det gives 0
        regular = np.linalg.det(H) != 0.0
        live, g, H = live[regular], g[regular], H[regular]
        if live.size == 0:
            break
        s = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        X[live] = X[live] + np.clip(s, -0.5, 0.5)  # keep basins separated

    x = np.fmod(X[ok], TWO_PI)
    x = np.where(x < 0, x + TWO_PI, x)
    x = np.where(x > TWO_PI - 1e-12, 0.0, x)
    found = _distinct(x)
    if not len(found):
        raise DegenerateCriticalPointError(
            "no nondegenerate critical points found; potential is not Morse"
        )

    H = hessian(found)
    eigs = np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1)))
    grad_max = np.max(np.abs(gradient(found)), axis=1).tolist()
    points = []
    for x, e, gm, value in zip(found.tolist(), eigs, grad_max,
                               f(*found.T).tolist()):
        if np.min(np.abs(e)) < tol.nondegen_tol:
            raise DegenerateCriticalPointError(
                f"degenerate Hessian at {tuple(round(c, 6) for c in x)}: "
                f"eigenvalues {e}"
            )
        if gm > 1e-12:
            raise NumericalError(f"gradient {gm:.2e} after Newton")
        points.append(CriticalPoint(
            coords=tuple(x),
            index=int(np.sum(e < 0)),
            value=value,
            hessian=tuple(float(v) for v in e),
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


def _distinct(x: np.ndarray) -> np.ndarray:
    """The rows of x kept in order, a row dropped when it lies within 1e-6
    in angular distance of a row kept before it.

    Each angle is cut into a whole number of cells at least 2e-6 wide,
    so two rows within 1e-6 lie in the same or in neighbouring cells
    (across 0 = 2 pi too), and a row is dropped only by a kept row of
    its cluster: the occupied cells linked through neighbours.  The
    greedy rule runs in each cluster on its rows in order."""
    if not len(x):
        return x.copy()
    m = int(TWO_PI / 2e-6)  # cells per turn
    weight = m ** np.arange(x.shape[1])
    cells = np.floor(x * (m / TWO_PI)).astype(np.int64) % m
    occupied, first, cell_of = np.unique(cells @ weight, return_index=True,
                                         return_inverse=True)
    u, v = [], []
    for off in itertools.product((-1, 0, 1), repeat=x.shape[1]):
        near = ((cells[first] + off) % m) @ weight
        j = np.minimum(np.searchsorted(occupied, near), occupied.size - 1)
        hit = occupied[j] == near
        u.append(np.flatnonzero(hit))
        v.append(j[hit])
    u, v = np.concatenate(u), np.concatenate(v)
    _, cluster = CSR.from_entries(u, v, np.ones(u.size),
                                  (occupied.size,) * 2).components()
    cluster = cluster[cell_of.reshape(-1)]
    order = np.argsort(cluster, kind="stable")
    kept = []
    for rows in np.split(order, np.flatnonzero(np.diff(cluster[order])) + 1):
        while rows.size:
            kept.append(rows[0])
            r = np.abs(x[rows] - x[rows[0]]) % TWO_PI
            rows = rows[np.max(np.minimum(r, TWO_PI - r), axis=1) >= 1e-6]
    return x[np.sort(kept)]


def _circle_cells(points, x: CriticalPoint):
    """The cell pieces of x: the point of a minimum, or the two arcs that
    flank a maximum and end at its cyclic neighbors."""
    th = x.coords[0]
    if x.index == 0:
        return [UnstableCell(owner=x, axes=(("point", th),))]
    ring = sorted(points, key=lambda p: p.coords[0])
    i = ring.index(x)
    left, right = ring[i - 1], ring[(i + 1) % len(ring)]
    d_l = (th - left.coords[0]) % TWO_PI
    d_r = (right.coords[0] - th) % TWO_PI
    return [UnstableCell(owner=x, axes=(("arc", th - d_l, th),),
                         boundary=((0, left.coords[0], -1),)),
            UnstableCell(owner=x, axes=(("arc", th, th + d_r),),
                         boundary=((0, right.coords[0], +1),))]


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


def _locate(points, coords) -> int:
    """Position of the point at coords; the cells copy their far ends
    from the points, so the match is exact."""
    return [p.coords for p in points].index(coords)


def _closure(flow: "FlowComplex", i: int) -> list:
    """Positions of the points in the closure of the cell of points[i]:
    the point itself, then the far ends of its pieces."""
    out = [i]
    for piece in flow.cells[i]:
        for _, far, _ in piece.boundary:
            j = _locate(flow.points, (far,))
            if j not in out:
                out.append(j)
    return out


class FlowComplex(NamedTuple):
    """The complex of the gradient flow of f, built once per potential.

    degrees[q] lists the positions in points of the index-q points, the
    basis order of the cochains C^q.  cells[i] holds the descending-cell
    pieces of points[i], d[q]: C^q -> C^{q+1} the integer coboundary,
    smale_table one (x coords, y coords, dimension of the trajectory
    space) row for every pair x above y joined by a flow line,
    classes[q] the integer cocycles generating H^q, one per column, and
    complex the cochain complex of d in the point bases.
    """

    points: tuple  # all critical points, sorted by (index, coords)
    degrees: dict  # q -> list of indices into points
    cells: tuple  # cells[i]: tuple of UnstableCell pieces of points[i]
    d: tuple  # d[q]: C^q -> C^{q+1}, integer matrices
    smale_table: tuple
    betti: tuple
    classes: dict  # q -> (len(degrees[q]), betti[q]) integer cocycles
    complex: FiniteComplex


def flow_complex(f: TrigPoly, manifold: str,
                 tol: Tolerances | None = None) -> FlowComplex:
    """Points, cells, coboundary and transversality table of the flow
    of -grad f.

    Circle: the points are those of find_critical_points; a maximum's
    two flanking arcs end at its neighbors, giving n(max, right) = +1
    and n(max, left) = -1, the Stokes-consistent signs for
    increasing-angle arc orientations.  Torus (separable f only): the
    two factor flows are built once, and every point is a product of
    factor points, its coordinates concatenated, its index and value
    added and its Hessian eigenvalues the sorted pair; the points are
    sorted by (index, coords).  Cells are products of factor cells, d
    follows the graded tensor rule d(a (x) b) = da (x) b + (-1)^|a| a
    (x) db, and the connections are the products of the factor
    closures.  The cohomology generators are the constant cochain and
    the indicator of the first maximum on the circle, and the products
    of factor generators on the torus.  Raises NumericalError when d o
    d != 0 (the FiniteComplex check), the Betti numbers of the FiniteComplex of d miss the
    manifold's, or a connection has a negative trajectory-space
    dimension.
    """
    links = []  # (x, y) positions, x above y
    if manifold == "circle":
        points = tuple(find_critical_points(f, manifold, tol))
        n = len(points)
        full = np.zeros((n, n), dtype=int)  # full[y, x]: coefficient of y in d x
        cells = tuple(tuple(_circle_cells(points, x)) for x in points)
        for i, pieces in enumerate(cells):
            for piece in pieces:
                for _, far, sgn in piece.boundary:
                    j = _locate(points, (far,))
                    full[i, j] += sgn * piece.orientation
                    links.append((i, j))
        top = np.zeros(n)
        top[[p.index for p in points].index(1)] = 1.0  # the first maximum
        gens = {0: [np.array([float(p.index == 0) for p in points])],
                1: [top]}
        betti = (1, 1)
    elif manifold == "torus":
        c1, c2 = factors = [flow_complex(h, "circle", tol)
                            for h in factor_potentials(f)]
        prods = {(a, b): _product_point(x1, x2)
                 for a, x1 in enumerate(c1.points)
                 for b, x2 in enumerate(c2.points)}
        pairs = sorted(prods, key=lambda ab: (prods[ab].index,
                                              prods[ab].coords))
        points = tuple(prods[ab] for ab in pairs)
        at = {ab: i for i, ab in enumerate(pairs)}
        cells = tuple(tuple(
            UnstableCell(owner=x, axes=(p1.axes[0], p2.axes[0]),
                         orientation=p1.orientation * p2.orientation,
                         boundary=tuple((0, far, s) for _, far, s in p1.boundary)
                         + tuple((1, far, s) for _, far, s in p2.boundary))
            for p1 in c1.cells[a] for p2 in c2.cells[b])
            for x, (a, b) in zip(points, pairs))
        full1, full2 = (_full_coboundary(c) for c in factors)
        sign1 = np.diag([(-1) ** p.index for p in c1.points])
        prod = np.kron(full1, np.eye(len(c2.points), dtype=int)) + \
            np.kron(sign1, full2)
        order = [a * len(c2.points) + b for a, b in pairs]
        full = prod[np.ix_(order, order)]
        for i, (a, b) in enumerate(pairs):
            links.extend((i, at[y1, y2]) for y1 in _closure(c1, a)
                         for y2 in _closure(c2, b) if at[y1, y2] != i)
        # products of the factor generators, the first factor varying
        # fastest: 1(x)1, g(x)1, 1(x)g, g(x)g
        gens = {}
        for q2 in range(2):
            g2 = _on_points(c2, q2)
            for q1 in range(2):
                g1 = _on_points(c1, q1)
                gens.setdefault(q1 + q2, []).append(
                    np.array([g1[a] * g2[b] for a, b in pairs]))
        betti = (1, 2, 1)
    else:
        raise ConfigError(f"unknown manifold {manifold!r}")

    # transversality: the trajectories from x down to y form a space of
    # dimension ind x - ind y - 1, which a Morse-Smale flow keeps >= 0
    table = tuple((points[i].coords, points[j].coords,
                   points[i].index - points[j].index - 1) for i, j in links)
    for x, y, dim in table:
        if dim < 0:
            raise NumericalError(
                f"gradient flow fails the transversality check: the flow "
                f"from {x} to {y} has trajectory dimension {dim}")

    degrees = {q: [i for i, p in enumerate(points) if p.index == q]
               for q in range(len(betti))}
    d = tuple(full[np.ix_(degrees[q + 1], degrees[q])]
              for q in range(len(betti) - 1))
    fc = FiniteComplex(dims=tuple(len(degrees[q]) for q in range(len(betti))),
                       d=[m.astype(float) for m in d])
    if fc.betti() != betti:
        raise NumericalError(f"Morse complex cohomology ranks {fc.betti()}, "
                             f"expected {betti}")
    classes = {q: np.column_stack([g[degrees[q]] for g in gens[q]])
               for q in range(len(betti))}
    return FlowComplex(points=points, degrees=degrees, cells=cells, d=d,
                       smale_table=table, betti=betti, classes=classes,
                       complex=fc)


def _on_points(flow: FlowComplex, q: int) -> np.ndarray:
    """The degree-q generator of a circle flow as a vector over its points."""
    out = np.zeros(len(flow.points))
    out[flow.degrees[q]] = flow.classes[q][:, 0]
    return out


def _full_coboundary(flow: FlowComplex) -> np.ndarray:
    """The coboundary of all degrees as one matrix indexed like points."""
    n = len(flow.points)
    full = np.zeros((n, n), dtype=int)
    for q, m in enumerate(flow.d):
        full[np.ix_(flow.degrees[q + 1], flow.degrees[q])] = m
    return full


def _product_point(x1: CriticalPoint, x2: CriticalPoint) -> CriticalPoint:
    """The torus critical point of h1 + h2 at the factor points x1, x2."""
    return CriticalPoint(coords=x1.coords + x2.coords,
                         index=x1.index + x2.index, value=x1.value + x2.value,
                         hessian=tuple(sorted(x1.hessian + x2.hessian)))
