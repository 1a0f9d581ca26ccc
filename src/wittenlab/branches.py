"""Eigenvalue branch continuation for the deformed Laplacian family.

The family Delta^q(t) is real analytic in t, so its eigenvalues organize
into analytic branches with analytic (subspace-wise unique) eigenvector
choices.  We recover them discretely: dense solves on a t-grid, stitched
by maximum-overlap assignment, with adaptive bisection wherever vectors
rotate too fast between samples (avoided crossings), and a first-order
perturbation polish at t = 0 where the flat spectrum is degenerate.

Tracking runs from t_max down to 0: at t_max the wanted branches are the
k smallest eigenvalues (the whole point of the deformation), while at
t = 0 they generally are not.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import Tolerances
from .derham import (
    CSR,
    DeRhamComplex,
    LaplacianFamily,
    build_circle_complex,
    graded_kronecker_defect,
    laplacian_family,
)
from .errors import (
    ConfigError,
    GapNotFoundError,
    NumericalError,
    TrackingError,
    ZeroCountError,
)
from .integrals import gauss_legendre

LABEL_ZERO = "ZERO"
LABEL_VS = "VS_POSITIVE"
LABEL_LARGE = "LARGE"

# largest invariant block solved densely; larger blocks (a generic torus
# potential at 24 modes gives one degree-1 block of 4802 rows) take the
# shift-invert solve
DENSE_MAX_DIM = 2000

# largest dense block solved whole by np.linalg.eigh: on small blocks the
# LAPACK subset solve (syevr) costs more than the whole spectrum (17 rows:
# 89 us against 48 us), and it wins from about 64-100 rows up
SMALL_BLOCK_DIM = 64


def _dense_smallest(A, m: int):
    """The m smallest eigenpairs of the dense symmetric A, ascending.

    A request for the whole spectrum takes a full np.linalg.eigh;
    otherwise LAPACK's syevr computes the subset alone.
    """
    if not 0 < m < A.shape[0]:
        w, V = np.linalg.eigh(A)
        return w[:m], V[:, :m]
    from scipy.linalg import eigh

    return eigh(A, subset_by_index=[0, m - 1], driver="evr")


def _full_spectra(fam: LaplacianFamily, ts: np.ndarray):
    """fam at every t of ts as a dense block, and its whole spectrum:
    read-only (A, w, V) stacks, one row per t, from one stacked
    np.linalg.eigh.

    Each block is fam.values(t) scattered as CSR.toarray does it, in
    the same arithmetic, and LAPACK solves every matrix of a stack on
    its own, so each (w, V) is bit-identical to a solve at that t alone.
    """
    P = fam.pattern
    data = (fam.coef[0] + ts[:, None] * fam.coef[1]
            + (ts * ts)[:, None] * fam.coef[2])
    A = np.zeros((ts.size,) + P.shape)
    A[:, P.rows, P.indices] = data
    out = (A, *np.linalg.eigh(A))
    for x in out:
        x.flags.writeable = False
    return out


class _GridSpectra:
    """The whole spectra of small blocks (_whole) along a grid.

    A family is solved for every t of the grid by one _full_spectra call
    when a grid sample of it is first asked for, and an off-grid sample
    (a bisection point) alone.  Each solve validates all its pairs at
    once, each sample's residuals (one batched product of the stacked
    matrices, which are then dropped) against eig_residual times that
    sample's largest |value|, and keeps the validated (w, V) with the
    cluster bounds (_cluster_bounds) of every sample.  The stacks live
    as long as this object; a family is known by its identity."""

    def __init__(self, tol: Tolerances, grid=()):
        self.tol = tol
        self.grid = np.asarray(grid, dtype=float)
        self._row = {t: i for i, t in enumerate(self.grid.tolist())}
        self._stacks = {}  # family -> (w, V, lo, hi) stacks along the grid

    def __call__(self, fam: LaplacianFamily, t: float):
        """(w, V, (lo, hi)): the full eigh of fam at t and its clusters."""
        i = self._row.get(t)
        if i is None:
            w, V, lo, hi = self._solve(fam, np.array([t]))
            return w[0], V[0], (lo[0], hi[0])
        if fam not in self._stacks:
            self._stacks[fam] = self._solve(fam, self.grid)
        w, V, lo, hi = self._stacks[fam]
        return w[i], V[i], (lo[i], hi[i])

    def _solve(self, fam: LaplacianFamily, ts: np.ndarray):
        A, w, V = _full_spectra(fam, ts)
        _validate_residuals(_residuals(A, w, V), self.tol.eig_residual, w)
        return w, V, *_cluster_bounds(w, self.tol.cluster_rel)


def _eig_smallest_sparse(A: CSR, k: int, residual_tol: float = 1e-9):
    """k smallest eigenpairs of a sparse symmetric PSD-shifted matrix.

    Shift-invert Lanczos at sigma = -1/2 (strictly below the spectrum of
    every deformed Laplacian, which is PSD up to rounding), so the k
    eigenvalues closest to sigma are exactly the k smallest.  A is
    refused when its asymmetry exceeds residual_tol (1 + max |A|); the
    start vector is fixed to keep runs reproducible.  The solve runs on
    a scipy copy of A, built here; its residuals are the caller's check.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).tocsc()
    n = A.shape[0]
    if not 1 <= k <= n - 1:
        raise ConfigError(f"sparse eigensolve needs 1 <= k <= {n - 1}, got {k}")
    scale = float(abs(A).max()) if A.nnz else 0.0
    asym = float(abs(A - A.T).max()) if A.nnz else 0.0
    if asym > residual_tol * (1.0 + scale):
        raise NumericalError(f"matrix is not symmetric: asymmetry {asym:.3e}")
    S = (0.5 * (A + A.T)).tocsc()
    # fixed start vector: reruns must produce identical output files
    v0 = np.random.default_rng(682137).standard_normal(n)
    # single-vector Krylov spaces drop copies of (near-)degenerate
    # eigenvalues unless the restart basis is generous; 6k was enough for
    # the multiplicity-8 flat clusters with a wide margin, and the cap
    # keeps wide windows from driving the restart cost quadratically
    ncv = min(n, 6 * k + 20, 2 * k + 200)
    w, V = spla.eigsh(S, k=k, sigma=-0.5, which="LM", tol=0, v0=v0,
                      ncv=ncv, maxiter=100 * k)
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def _runs(w, limit):
    """(lo, hi), hi exclusive: the run of each value of the ascending w,
    or of each row of a stack of them, where a step w[i] - w[i - 1]
    above limit (one bound, or one per step) starts a run at i."""
    n = w.shape[-1]
    cut = np.ones(w.shape[:-1] + (n + 1,), dtype=bool)  # a run starts at j
    cut[..., 1:-1] = w[..., 1:] - w[..., :-1] > limit
    idx = np.arange(n + 1)
    lo = np.maximum.accumulate(np.where(cut, idx, 0), axis=-1)
    hi = np.minimum.accumulate(np.where(cut, idx, n)[..., ::-1], axis=-1)
    return lo[..., :-1], hi[..., -2::-1]


def _cluster_bounds(w: np.ndarray, cluster_rel: float):
    """_runs of the ascending w, or of a stack's rows, into near-degenerate
    clusters: a step above cluster_rel (1 + |w[i]|) up to w[i] starts a
    new cluster at i."""
    return _runs(w, cluster_rel * (1.0 + np.abs(w[..., 1:])))


def t0_groups(branches, cluster_rel: float) -> list:
    """Indices of the branches grouped by what fixes their t = 0 limits.

    Degenerate perturbation theory pins a limit by the cluster
    (_cluster_bounds) of its value at t = 0 and, inside that, by the
    cluster of its first-order slope t0_slope; only the span of a group
    is determined.  Groups come out ascending by value cluster, then by
    slope cluster, each group's indices ascending.
    """
    v = np.array([b.value_at(0.0) for b in branches])
    s = np.array([b.t0_slope for b in branches])
    groups = []
    by_v = np.argsort(v, kind="stable")
    lo, hi = _cluster_bounds(v[by_v], cluster_rel)
    for c in np.unique(lo).tolist():
        mem = by_v[c:hi[c]]
        by_s = mem[np.argsort(s[mem], kind="stable")]
        glo, ghi = _cluster_bounds(s[by_s], cluster_rel)
        groups += [sorted(by_s[g:ghi[g]].tolist())
                   for g in np.unique(glo).tolist()]
    return groups


def _min_cost_assignment(cost) -> np.ndarray:
    """Column of each row in a minimum-cost assignment (rows <= columns).

    When the cheapest columns of the rows are distinct they are the
    optimum, since no assignment beats every row's minimum; otherwise
    _shortest_augmenting_paths finds one.  Among tied optima, which one
    is returned is unspecified.
    """
    C = np.asarray(cost, dtype=float)
    cols = C.argmin(axis=1)
    if len(set(cols.tolist())) == cols.size:
        return cols
    return _shortest_augmenting_paths(C)


def _shortest_augmenting_paths(C: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of the dense costs
    C (rows <= columns): the Hungarian method with row and column
    potentials, which inserts one row at a time along a Dijkstra shortest
    path in the reduced costs (Jonker and Volgenant, Computing 38, 1987).

    Every pass of the inner loop reaches one more column, so it ends
    after at most as many passes as there are columns.
    """
    nr, nc = C.shape
    C = np.hstack([C, np.full((nr, 1), np.inf)])  # column nc: path start
    u, v = np.zeros(nr), np.zeros(nc + 1)  # row and column potentials
    row_of = np.full(nc + 1, -1)  # row matched to each column
    for i in range(nr):
        j, row_of[nc] = nc, i
        dist = np.full(nc + 1, np.inf)
        prev = np.full(nc + 1, nc)  # column before each on its path
        done = np.zeros(nc + 1, dtype=bool)
        while row_of[j] != -1:
            done[j] = True
            r = row_of[j]
            red = C[r] - u[r] - v
            closer = ~done & (red < dist)
            dist[closer], prev[closer] = red[closer], j
            j = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while j != nc:  # flip the matching along the path
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    matched = np.flatnonzero(row_of[:nc] >= 0)
    cols = np.empty(nr, dtype=int)
    cols[row_of[matched]] = matched
    return cols


def _procrustes(sub: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The orthonormal columns in the span of the orthonormal sub nearest
    to P: the orthogonal Procrustes fit sub (U Vt) of the SVD
    U S Vt = sub^T P."""
    U, _, Vt = np.linalg.svd(sub.T @ P, full_matrices=False)
    return sub @ (U @ Vt)


def match_step(prev_V: np.ndarray, w_next: np.ndarray, V_next: np.ndarray,
               cluster_rel: float = 1e-6, clusters=None):
    """Match tracked vectors to the eigenbasis at the next parameter value.

    prev_V has one column per tracked branch; (w_next, V_next) are the
    lowest eigenpairs, ascending, in complete clusters, and clusters is
    _cluster_bounds of w_next when the caller has it.  Returns (cols, W,
    overlaps): column indices into V_next per branch, the aligned
    vectors, and the diagonal overlaps after alignment.  Assignment
    maximizes total |<v_prev, v>|; inside near-degenerate clusters of
    w_next an arbitrary orthogonal rotation is permitted (the
    eigenvectors are only subspace-unique there), realized as an
    orthogonal Procrustes fit to the predecessors.  A step whose matched
    columns all lie in clusters of one value is a signed permutation:
    it fits nothing, and its overlaps are entries of prev_V^T V_next.
    """
    lo, hi = clusters or _cluster_bounds(w_next, cluster_rel)
    P = prev_V.T @ V_next
    cols = _min_cost_assignment(-np.abs(P))
    W = V_next.take(cols, axis=1)
    ov = P[np.arange(cols.size), cols]
    spans = hi[cols] - lo[cols]
    if max(spans.tolist()) > 1:
        # the tracked branches may cover only part of an eigenspace (the
        # k-cutoff can split an exactly degenerate pair), so fit them by
        # projecting the predecessors onto the whole cluster subspace
        # and taking the nearest orthonormal set
        for c in set(lo[cols[spans > 1]].tolist()):
            sel = np.flatnonzero((cols >= c) & (cols < hi[c]))
            W[:, sel] = _procrustes(V_next[:, c:hi[c]], prev_V[:, sel])
        ov = (prev_V * W).sum(axis=0)
    sign = np.copysign(1.0, ov)
    W *= sign
    return cols, W, ov * sign


def _polish_t0(clusters, V_full, cols, W, A1, cluster_rel):
    """Replace t=0 vectors by their analytic limits from t > 0.

    Within each exactly degenerate eigenspace of Delta(0) the limits of
    the analytic branches lie in eigenspaces of the first-order term A1
    restricted there (degenerate perturbation theory); the corresponding
    A1 eigenvalue is the branch's slope at 0.  Where A1 is itself
    degenerate the limit is pinned only up to that sub-eigenspace, so the
    incoming vectors are fitted into it by a nearest-orthonormal
    projection: as the last tracking step shrinks they converge to the
    true limits, and the caller's overlap check certifies that.

    clusters is _cluster_bounds of the values at t = 0.  Returns
    (vectors, slopes); t0_groups reads the same two clusterings back
    from the branches.
    """
    slopes = np.zeros(W.shape[1])
    lo, hi = clusters
    reached = sorted(set(lo[cols].tolist()))  # the clusters with branches
    span = np.concatenate([np.arange(c, hi[c]) for c in reached])
    AU = A1 @ V_full[:, span]  # one product, dense-free on the sparse A1
    at = 0
    for c in reached:
        sel = np.flatnonzero((cols >= c) & (cols < hi[c]))
        U = V_full[:, c:hi[c]]
        B = U.T @ AU[:, at:at + U.shape[1]]
        at += U.shape[1]
        if B.size == 1:  # a simple value's limit is its vector, in W
            slopes[sel] = B[0, 0]
            continue
        s_all, Q = np.linalg.eigh(0.5 * (B + B.T))
        cand = U @ Q
        # pick which first-order candidate each tracked branch continues into
        chosen = _min_cost_assignment(-np.abs(W[:, sel].T @ cand))
        glo, ghi = _cluster_bounds(s_all, cluster_rel)
        for g in set(glo[chosen].tolist()):
            mem = sel[(chosen >= g) & (chosen < ghi[g])]
            New = _procrustes(cand[:, g:ghi[g]], W[:, mem])
            ovd = np.sum(W[:, mem] * New, axis=0)
            New[:, ovd < 0] *= -1.0
            W[:, mem] = New
            slopes[mem] = float(np.mean(s_all[g:ghi[g]]))
    return W, slopes


class EigenBranch:
    """One tracked analytic branch (lambda(t), v(t)) of a single degree.

    A branch lives on one invariant block of its family, so only that
    block's rows of v(t) are stored: vectors[i, j] is entry rows[j] of
    the unit vector at ts[i], and every other of its dim entries is 0.
    vector_at gives the full-dimension vector.  Classification and
    assignment fill in label, critical_point, mass and tie_group (the
    points critical_point was chosen from); t0_slope is the first-order
    slope at t = 0, which t0_groups reads."""

    def __init__(self, degree: int, ts: np.ndarray, values: np.ndarray,
                 vectors: np.ndarray, rows: np.ndarray, dim: int,
                 overlaps: np.ndarray, label: str = "",
                 critical_point: int | None = None, mass: float | None = None,
                 tie_group: list | None = None, t0_slope: float | None = None):
        self.degree = degree
        self.ts = ts  # ascending sample parameters (grid plus refinements)
        self.values = values
        self.vectors = vectors  # shape (len(ts), len(rows))
        self.rows = rows  # full-dimension index of each stored column
        self.dim = dim  # dimension of the family
        self.overlaps = overlaps  # consecutive aligned overlaps, len(ts) - 1
        self.label, self.critical_point = label, critical_point
        self.mass, self.tie_group = mass, tie_group
        self.t0_slope = t0_slope

    def sample_index(self, ts) -> np.ndarray:
        """Index into the samples of each t of ts, the nearest sample."""
        ts = np.asarray(ts, dtype=float)
        i = np.argmin(np.abs(self.ts[:, None] - ts), axis=0)
        off = np.abs(self.ts[i] - ts) > 1e-9 * (1 + np.abs(ts))
        if off.any():
            raise KeyError(f"t={ts[off][0]} is not a sample of this branch")
        return i

    def value_at(self, t: float) -> float:
        return float(self.values[self.sample_index([t])[0]])

    def vector_at(self, t: float) -> np.ndarray:
        """The full-dimension unit vector at the sample t."""
        v = np.zeros(self.dim)
        v[self.rows] = self.vectors[self.sample_index([t])[0]]
        return v


def lowest_eigenvalues(blocks, t: float, k: int,
                       tol: Tolerances | None = None):
    """The k smallest eigenvalues at t of a family split into blocks.

    blocks is LaplacianFamily.split() output.  Returns (values, owner)
    ascending, owner[i] the block of values[i].  Values within
    tol.cluster_rel of each other count as tied, and ties go by block
    order, so the owner of a value that k cuts out of a cluster does not
    depend on rounding.
    """
    _, values, owner = _lowest_solves(blocks, t, k, tol or Tolerances())
    return values, owner


def eigenvalue_grid(cx: DeRhamComplex, ks: dict, ts,
                    tol: Tolerances | None = None) -> dict:
    """The ks[q] smallest values of each degree q at every t of ts, one
    row per t, by lowest_eigenvalues' tie rule; a separable torus takes
    them from _CircleFactors.sums.  Every whole spectrum, of a small or
    a circle-factor block, is solved once for the whole grid."""
    tol = tol or Tolerances()
    spectra = _GridSpectra(tol, ts)
    if cx.manifold == "torus" and cx.f.is_separable():
        factors = _CircleFactors(cx, tol)
        return {q: np.array([_merge_lowest(factors.sums(q, spectra, t)[0], k,
                                           tol.cluster_rel)[0]
                             for t in spectra.grid]) for q, k in ks.items()}
    blocks = {q: laplacian_family(cx, q).split() for q in ks}
    return {q: np.array([_lowest_solves(blocks[q], t, k, tol, spectra)[1]
                         for t in spectra.grid]) for q, k in ks.items()}


def _lowest_solves(blocks, t: float, k: int, tol: Tolerances,
                   spectra: _GridSpectra | None = None):
    """Covered solves at t of every block that decide the k smallest.

    Each block starts from the smallest window.  A block whose last
    value reaches the cluster that k cuts, or one below it, may hold
    more of the k smallest, so it grows its window until its values
    pass that cluster or the block is solved whole.  Returns (solves,
    values, owner), values and owner as lowest_eigenvalues gives them;
    each block's share is a prefix of its solve, whose residuals are
    validated.
    """
    solvers = [_CoveredSolver(sub, 1, tol, spectra) for _, sub in blocks]
    solves = [s.solve(t) for s in solvers]
    while True:
        values, owner, reach = _merge_lowest([s[0] for s in solves], k,
                                             tol.cluster_rel)
        short = [b for b in reach if solves[b][0].size < blocks[b][1].dim]
        if not short:
            break
        for b in short:
            if not solvers[b].widen():
                raise TrackingError(
                    f"eigensolver window cap {solvers[b].cap} cannot cover "
                    f"the {k} smallest values at t={t:.6g}")
            solves[b] = solvers[b].solve(t)
    return solves, values, owner


def _merge_lowest(values, k: int, cluster_rel: float):
    """The k smallest of the per-block ascending values.

    The k are chosen by clusters of tied values, each cluster in block
    order, so every block gets a prefix of its own values.  Returns
    (values, owner) of the chosen, sorted by (value, block), and the
    blocks whose last value lies in the cut cluster or below it.
    """
    w = np.concatenate(values)
    owner = np.concatenate([np.full(v.size, b) for b, v in enumerate(values)])
    order = np.argsort(w, kind="stable")
    cluster = np.empty(w.size, dtype=int)  # where its cluster starts in order
    cluster[order] = _cluster_bounds(w[order], cluster_rel)[0]
    # concatenation position is (block, block-local index)
    pick = np.lexsort((np.arange(w.size), cluster))[:k]
    cut = cluster[pick[-1]] if pick.size else -1
    last = np.cumsum([v.size for v in values]) - 1
    reach = np.flatnonzero(cluster[last] <= cut).tolist()
    pick = pick[np.lexsort((owner[pick], w[pick]))]
    return w[pick], owner[pick], reach


def _windowed(fam: LaplacianFamily) -> bool:
    """Whether fam is solved by windowed shift-invert instead of dense eigh."""
    return fam.dim > DENSE_MAX_DIM


def _whole(fam: LaplacianFamily) -> bool:
    """Whether fam is a small block, solved whole by _GridSpectra."""
    return fam.dim <= SMALL_BLOCK_DIM and not _windowed(fam)


class _CoveredSolver:
    """Eigensolves of one family whose complete clusters cover k values.

    Each solve takes the window smallest pairs, from the shift-invert
    solve of the CSR form of a block above DENSE_MAX_DIM and from
    _dense_smallest of the dense form of any other.  A cluster
    cut by the window edge comes back as an arbitrary partial slice of
    its degenerate subspace, and matching onto such a slice corrupts a
    tracked branch without tripping the overlap gate.  So unless the
    window holds the whole spectrum, its top cluster (_cluster_bounds)
    is dropped, and the window grows until the complete clusters hold k
    values and, when a value is needed, reach past it with a margin.
    Every solve's pairs are validated before they are returned.  A small
    block (_whole) takes its whole spectrum, validated, from spectra, by
    default a _GridSpectra without a grid, which solves each t alone.
    """

    def __init__(self, fam: LaplacianFamily, k: int, tol: Tolerances,
                 spectra: _GridSpectra | None = None):
        self.fam, self.k, self.tol = fam, k, tol
        self.spectra = spectra or _GridSpectra(tol)
        dim = fam.dim
        # Lanczos needs a window below dim - 1; a dense one can reach dim
        self.cap = min(dim - 2, max(256, 8 * k)) if _windowed(fam) else dim
        self.window = min(self.cap, max(2 * k + 4, k + 8))
        self.whole = _whole(fam)
        if self.whole:
            self.window = dim  # a full eigh fills the whole block anyway

    def widen(self) -> bool:
        """Double the window up to its cap; False when already there."""
        if self.window >= self.cap:
            return False
        self.window = min(self.cap, 2 * self.window)
        return True

    def solve(self, t: float, needed=None):
        """(w, V, (lo, hi)): the covered pairs at t and their clusters,
        reaching past the largest value of needed when it is given."""
        if self.whole:
            return self.spectra(self.fam, t)
        top = None if needed is None else float(np.max(needed))
        margin = None if top is None else top + 1e-2 * (1.0 + abs(top))
        while True:
            A = self.fam.at(t)
            if _windowed(self.fam):
                w, V = _eig_smallest_sparse(A, self.window,
                                            self.tol.eig_residual)
            else:
                A = A.toarray()
                w, V = _dense_smallest(A, self.window)
            n = w.size
            lo, hi = _cluster_bounds(w, self.tol.cluster_rel)
            # a window below the whole spectrum drops its top cluster
            covered = n == self.fam.dim
            if not covered:
                n = int(lo[-1])
                covered = n >= self.k and (margin is None
                                           or w[n - 1] >= margin)
            if covered:
                w, V = w[:n], V[:, :n]
                _validate_residuals(_residuals(A, w, V),
                                    self.tol.eig_residual, w)
                return w, V, (lo[:n], hi[:n])
            if not self.widen():
                raise TrackingError(
                    f"eigensolver window cap {self.cap} cannot cover the "
                    f"tracked branches at t={t:.6g}"
                )


def _sign_gauge(V: np.ndarray) -> np.ndarray:
    """V with each column's sign fixed independently of the solver: the
    entry of largest magnitude is positive, the first index winning
    among entries within 1e-8 relative of it."""
    mag = np.abs(V)
    lead = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    return V * np.sign(V[lead, np.arange(V.shape[1])])


def track_branches(fam: LaplacianFamily, q: int, grid, k: int | None = None,
                   tol: Tolerances | None = None):
    """Track the k branches of the degree-q family fam that are smallest
    at the last grid point.

    The grid must be strictly increasing and start at 0.  The family is
    split into its exact invariant blocks (LaplacianFamily.split); each
    block is solved once at the last grid point, receives its share of
    the k smallest values there (lowest_eigenvalues' tie rule), and is
    tracked on its own from that solve, so exact crossings between
    blocks are not tracking events.  Each branch stores its vectors on
    its block's rows (rows is the block's index into the family, dim
    the family's dimension); the branches come ordered by their value
    at the last grid point.

    A step is accepted as _track_family states; where it is not, a
    TrackingError reports the interval rather than silently permuting
    branches.
    """
    tol = tol or Tolerances()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise TrackingError("grid must be strictly increasing with >= 2 points")
    if abs(grid[0]) > 1e-12:
        raise TrackingError("grid must start at t = 0")
    dim = fam.dim
    if k is None:
        k = min(dim, 10)
    if k > dim:
        raise TrackingError(f"k={k} exceeds dimension {dim}")
    blocks = fam.split()
    spectra = _GridSpectra(tol, grid)
    starts, _, owner = _lowest_solves(blocks, float(grid[-1]), k, tol,
                                      spectra)
    merged = [None] * k
    for b, ((idx, sub), start) in enumerate(zip(blocks, starts)):
        slots = np.flatnonzero(owner == b)  # merged positions, ascending
        if slots.size == 0:
            continue
        tracked = _track_family(sub, q, grid, slots.size, tol, start,
                                spectra)
        for slot, br in zip(slots, tracked):
            br.rows, br.dim = idx, dim
            merged[slot] = br
    return merged


def _track_family(fam: LaplacianFamily, q: int, grid: np.ndarray, k: int,
                  tol: Tolerances, start, spectra: _GridSpectra):
    """track_branches on one family as a whole, branches ascending at t_max.

    A step is accepted only when every branch's overlap |<v, v_next>|
    with its matched successor (match_step; at t = 0 with the polished
    limit) is at least tol.overlap_min, and that overlap is recorded.
    Otherwise the step is bisected, down to 2^-6 of the smallest grid
    step; there the solver window widens, and a TrackingError is raised
    once it cannot.  start is a covered, validated solve at t_max
    holding at least k values; spectra holds the whole spectra of the
    call.  Each sample comes from the covered solver with its cluster
    bounds, which match_step reads; a grid sample of a small block
    (_whole) is a row of its validated stack.
    """
    min_step = float(np.min(np.diff(grid))) * 2.0**-6
    solver = _CoveredSolver(fam, k, tol, spectra)
    t_end, t_cur = float(grid[0]), float(grid[-1])
    cur_V = _sign_gauge(start[1][:, :k])
    cur_w = start[0][:k]
    samples = [(t_cur, cur_w, cur_V)]
    step_overlaps = []

    for target in reversed(grid[:-1].tolist()):
        seg = [target]
        while seg:
            t_next = seg[-1]
            w_full, V_full, clusters = solver.solve(t_next, needed=cur_w)
            cols, W, ov = match_step(cur_V, w_full, V_full, tol.cluster_rel,
                                     clusters)
            ok = ov.min() >= tol.overlap_min
            if ok and t_next == t_end:
                # replace the endpoint vectors by their analytic limits;
                # the overlap then certifies continuation into the limit,
                # and bisection below shrinks the last step if the samples
                # have not converged to it yet
                W, t0_slopes = _polish_t0(
                    clusters, V_full, cols, W, fam.term(1), tol.cluster_rel
                )
                ov = np.abs(np.sum(cur_V * W, axis=0))
                ok = ov.min() >= tol.overlap_min
            if not ok:
                if (t_cur - t_next) <= min_step * (1 + 1e-9):
                    # the continuation may live outside the solver
                    # window; widen and retry before giving up
                    if solver.widen():
                        continue
                    raise TrackingError(
                        f"branch matching failed on [{t_next:.6g}, {t_cur:.6g}] "
                        f"(min overlap {np.min(ov):.3f} at minimal step)"
                    )
                seg.append(0.5 * (t_cur + t_next))
                continue
            if t_next == t_end:
                r = _residuals(fam.at(t_next), w_full[cols], W)
                _validate_residuals(r, tol.eig_residual, w_full)
            seg.pop()
            cur_V, cur_w, t_cur = W, w_full[cols], t_next
            samples.append((t_next, cur_w, cur_V))
            step_overlaps.append(ov)

    samples.reverse()
    step_overlaps.reverse()
    ts = np.array([s[0] for s in samples])
    vals = np.array([s[1] for s in samples])  # (n_samples, k)
    vecs = np.array([s[2] for s in samples])  # (n_samples, dim, k)
    ovs = np.array(step_overlaps) if step_overlaps else np.zeros((0, k))

    return [EigenBranch(degree=q, ts=ts.copy(), values=vals[:, j].copy(),
                        vectors=vecs[:, :, j].copy(), rows=np.arange(fam.dim),
                        dim=fam.dim, overlaps=ovs[:, j].copy(),
                        t0_slope=float(t0_slopes[j]))
            for j in range(k)]


def _residuals(A, w, V) -> np.ndarray:
    """Each pair's max |A v - lambda v|: one per column of V, or per
    column of each matrix of a stack."""
    return np.abs(A @ V - V * w[..., None, :]).max(axis=-2, initial=0.0)


def _validate_residuals(r, residual_tol, window):
    """Raise unless every pair residual in r is within residual_tol times
    the largest |value| of the solve's window (at least 1): one solve
    per row of a stack."""
    scale = np.maximum(1.0, np.abs(window).max(axis=-1, initial=0.0))
    res = np.max(r, axis=-1, initial=0.0)
    bad = ~(res <= residual_tol * scale)  # a NaN residual fails too
    if bad.any():
        raise NumericalError(
            f"eigenpair residual {np.max(res[bad]):.3e} exceeds tolerance")


# -- separable torus: products of circle-factor tracks ------------------


class _CircleFactors:
    """The blocks of the circle Laplacians L_p of h1 and h2, keyed (id of
    circle complex, p, block), of a torus complex with potential
    h1(th1) + h2(th2) + const, made only when the torus complex is the
    graded tensor product of their circle complexes: each
    graded_kronecker_defect within operator_identity (1 + max |E|), else
    NumericalError.  On the part of a q-form that is a p-form times a
    (q - p)-form (dth1 part first) the torus Laplacian is then the
    Kronecker sum of L_p(h1) and L_(q-p)(h2)."""

    def __init__(self, cx: DeRhamComplex, tol: Tolerances):
        h1, h2, _ = cx.f.factor_parts()
        c1 = build_circle_complex(cx.N, h1)
        c2 = c1 if h2.terms == h1.terms else build_circle_complex(cx.N, h2)
        defects = graded_kronecker_defect(cx, c1, c2)
        bound = tol.operator_identity * (1.0 + max(E.maxabs() for E in cx.E))
        if not all(d <= bound for d in defects):  # a NaN defect fails too
            raise NumericalError(
                f"torus operators are not the graded Kronecker product of "
                f"their circle factors: defects {defects} exceed {bound:.3e}")
        self.family, split, n = {}, {}, c1.dims[0]
        for c in {id(c1): c1, id(c2): c2}.values():
            for p in (0, 1):
                split[id(c), p] = []
                for i, (idx, fam) in enumerate(laplacian_family(c, p).split()):
                    self.family[id(c), p, i] = fam
                    split[id(c), p].append(((id(c), p, i), idx))
        # (rows, key1, key2) of each torus block, in the row order of split
        self.blocks = {q: [] for q in range(3)}
        for q in range(3):
            for part, p in enumerate(p for p in (1, 0) if 0 <= q - p <= 1):
                for key1, ix in split[id(c1), p]:
                    for key2, iy in split[id(c2), q - p]:
                        rows = part * n * n + (ix[:, None] * n + iy).ravel()
                        self.blocks[q].append((rows, key1, key2))

    def sums(self, q: int, spectra: _GridSpectra, t: float):
        """Each degree-q torus block's sums w1[a] + w2[b] of its factor
        blocks' whole spectra at t (validated by spectra), in stable
        ascending order, and that order of the raveled a * w2.size + b."""
        def whole(key):
            return spectra(self.family[key], t)[0]

        sums = [(whole(key1)[:, None] + whole(key2)).ravel()
                for _, key1, key2 in self.blocks[q]]
        orders = [np.argsort(w, kind="stable") for w in sums]
        return [w[o] for w, o in zip(sums, orders)], orders


def package_branches(cx: DeRhamComplex, ks: dict, grid,
                     tol: Tolerances | None = None) -> dict:
    """track_branches of each degree q in ks, the ks[q] smallest at t_max.

    A separable torus assembles no torus family: the ks[q] smallest of
    _CircleFactors.sums at t_max are chosen by _merge_lowest's tie rule,
    and the factor blocks they need are tracked (_factor_tracks); every
    factor block's whole spectrum at t_max is solved once for all
    degrees.  Branch (a, b) has the values and t = 0 slopes of u_a plus
    v_b, the product of their overlaps, and the vectors u_a (x) v_b
    stored on the rows of its torus block; t0_groups groups the products
    by their summed values and slopes like any tracked branches.
    """
    tol, grid = tol or Tolerances(), np.asarray(grid, dtype=float)
    if cx.manifold != "torus" or not cx.f.is_separable():
        return {q: track_branches(laplacian_family(cx, q), q, grid, k, tol)
                for q, k in ks.items()}
    factors = _CircleFactors(cx, tol)
    spectra = _GridSpectra(tol, grid[-1:])
    chosen, need = {}, {}  # need[key]: the branches needed of factor block
    for q, k in ks.items():
        values, orders = factors.sums(q, spectra, grid[-1])
        seen = np.zeros(len(values), dtype=int)
        chosen[q] = []
        for b in _merge_lowest(values, k, tol.cluster_rel)[1]:
            rows, key1, key2 = factors.blocks[q][b]
            a1, a2 = divmod(int(orders[b][seen[b]]), factors.family[key2].dim)
            seen[b] += 1
            chosen[q].append((rows, key1, a1, key2, a2))
            need[key1] = max(need.get(key1, 0), a1 + 1)
            need[key2] = max(need.get(key2, 0), a2 + 1)
    tracks = _factor_tracks(factors.family, need, grid, tol)
    out = {}
    for q, picks in chosen.items():
        out[q] = []
        for rows, key1, a1, key2, a2 in picks:
            # a factor block is one invariant block, so u and v store all
            # its rows, and u (x) v all the rows of the torus block
            u, v = tracks[key1][a1], tracks[key2][a2]
            out[q].append(EigenBranch(
                degree=q, ts=u.ts.copy(), values=u.values + v.values,
                vectors=(u.vectors[:, :, None] * v.vectors[:, None, :]
                         ).reshape(u.ts.size, -1),
                rows=rows, dim=cx.dims[q],
                overlaps=u.overlaps * v.overlaps,
                t0_slope=u.t0_slope + v.t0_slope))
    return out


def _factor_tracks(family: dict, need: dict, grid: np.ndarray,
                   tol: Tolerances) -> dict:
    """The need[key] smallest branches at t_max of each circle block
    family[key], each block tracked by track_branches, on one sample set:
    a block with fewer samples is tracked again on the union of all."""
    tracked, ts = {}, grid
    while True:
        for key, k in need.items():
            if key not in tracked or tracked[key][0].ts.size < ts.size:
                tracked[key] = track_branches(family[key], key[1], ts, k, tol)
        union = set().union(*(brs[0].ts.tolist() for brs in tracked.values()))
        if len(union) == ts.size:
            return tracked
        ts = np.array(sorted(union))


# -- classification ------------------------------------------------------


class PackageDegree:
    """Classified branches of one degree: the small package plus diagnostics."""

    def __init__(self, degree: int, branches: list, large: list, beta: int,
                 c: int, gap: float, tol_zero: float,
                 assignment_warnings: list | None = None):
        self.degree = degree
        self.branches = branches  # ZERO then VS_POSITIVE: the c_q members
        self.large = large  # remaining tracked branches, label LARGE
        self.beta, self.c, self.gap, self.tol_zero = beta, c, gap, tol_zero
        self.assignment_warnings = assignment_warnings or []

    @property
    def t_max(self) -> float:
        return float(self.branches[0].ts[-1])


class SpectralPackage(NamedTuple):
    """Virtually small spectral package: per-degree classified branches."""

    manifold: str
    grid: np.ndarray
    degrees: dict  # q -> PackageDegree

    def counts(self):
        return {q: (pd.beta, pd.c) for q, pd in self.degrees.items()}


def classify(branches, beta_q: int, c_q: int, t_max: float,
             tol: Tolerances | None = None) -> PackageDegree:
    """Split tracked branches into ZERO / VS_POSITIVE / LARGE.

    ZERO means identically zero along the whole branch (within tol_zero,
    scaled by the largest tracked value); exactly beta_q of these must
    exist.  The next c_q - beta_q branches by final value must both fall
    below vanish_max and keep decaying across [t_max/2, t_max]; the rest
    must sit above growth_floor and keep growing.  The separation ratio
    between the two groups at t_max is recorded and enforced.
    """
    tol = tol or Tolerances()
    if c_q <= 0 or beta_q < 0 or c_q < beta_q:
        raise ConfigError(f"degenerate classification counts beta={beta_q}, c={c_q}")
    if len(branches) < c_q:
        raise ConfigError(f"need at least c_q={c_q} tracked branches, got {len(branches)}")
    q = branches[0].degree
    t_half = t_max / 2.0

    scale = max(float(np.max(np.abs(b.values))) for b in branches)
    tol_zero = tol.zero_rel * (1.0 + scale)

    if min(float(np.min(b.values)) for b in branches) < -tol_zero:
        raise NumericalError("negative eigenvalue beyond kernel tolerance")

    zero, rest = [], []
    for b in branches:
        (zero if float(np.max(np.abs(b.values))) <= tol_zero else rest).append(b)
    if len(zero) != beta_q:
        raise ZeroCountError(
            f"degree {q}: found {len(zero)} identically-zero branches, "
            f"expected beta={beta_q} (tol_zero={tol_zero:.3e})"
        )
    for b in zero:
        b.label = LABEL_ZERO

    rest.sort(key=lambda b: b.value_at(t_max))
    n_vs = c_q - beta_q
    vs, large = rest[:n_vs], rest[n_vs:]
    for b in vs:
        lamT, lamH = b.value_at(t_max), b.value_at(b.ts[_nearest(b.ts, t_half)])
        if lamT > tol.vanish_max:
            raise GapNotFoundError(
                f"degree {q}: candidate small branch has lambda({t_max})="
                f"{lamT:.3e} > {tol.vanish_max:.1e}; raise t_max or the cutoff"
            )
        if lamT > tol.decay_ratio * max(lamH, tol_zero):
            raise GapNotFoundError(
                f"degree {q}: branch fails the decay test "
                f"lambda({t_max})={lamT:.3e} vs lambda({t_half})={lamH:.3e}"
            )
        b.label = LABEL_VS
    for b in large:
        lamT, lamH = b.value_at(t_max), b.value_at(b.ts[_nearest(b.ts, t_half)])
        if lamT < tol.growth_floor or lamT <= lamH:
            raise GapNotFoundError(
                f"degree {q}: branch expected to grow has lambda({t_max})="
                f"{lamT:.3e}, lambda({t_half})={lamH:.3e}"
            )
        b.label = LABEL_LARGE

    small_top = max([b.value_at(t_max) for b in vs] + [tol_zero])
    if large:
        gap = min(b.value_at(t_max) for b in large) / small_top
        if gap < tol.gap_min:
            raise GapNotFoundError(
                f"degree {q}: small/large separation {gap:.2f} below "
                f"{tol.gap_min}; raise t_max"
            )
    else:
        gap = float("inf")

    vs.sort(key=lambda b: b.value_at(0.0))
    return PackageDegree(
        degree=q, branches=zero + vs, large=large, beta=beta_q, c=c_q,
        gap=float(gap), tol_zero=float(tol_zero),
    )


def _nearest(ts, t):
    return int(np.argmin(np.abs(np.asarray(ts) - t)))


# -- localization and critical point assignment --------------------------


def _box_axes(center, radius, nodes):
    x, w = gauss_legendre(nodes)
    pts = center + radius * x
    return pts, radius * w


def _box_gram(cx, q, W, center, radius, nodes):
    """Gram matrix of the columns of W over one coordinate box."""
    ctr = np.atleast_1d(np.asarray(center, dtype=float))
    axes = [_box_axes(c, radius, nodes) for c in ctr]
    # tensor quadrature weights over the box, one row per grid node
    wts = axes[0][1] if len(axes) == 1 else np.outer(axes[0][1], axes[1][1])
    G = np.zeros((W.shape[1], W.shape[1]))
    for block in cx.form_components(q, W):
        vals = cx.eval_scalar_grid(block, *[a[0] for a in axes])
        vals = vals.reshape(wts.size, -1)
        G += vals.T @ (wts.reshape(-1, 1) * vals)
    return G


def assign_to_critical_points(pkg: PackageDegree, points, cx: DeRhamComplex,
                              tol: Tolerances | None = None) -> PackageDegree:
    """Bijectively pin each package branch to an index-q critical point.

    Eigenforms at t_max concentrate near critical points, but within an
    (asymptotically) degenerate cluster only their span is canonical, so
    the localized representatives are recovered first.  Each point's box
    Gram G_p of the whole degree's package is computed once.  Per
    cluster, a greedy deflation of the sub-blocks G_p[sel, sel] picks the
    unit combination with the largest box mass at some remaining point;
    the representatives are W R, with R block-diagonal over the clusters,
    so their masses are diag(R^T G_p R), and each takes a point by an
    optimal assignment on those masses.  A branch whose overlap |R| with
    a representative is at least tol.overlap_min is determined and takes
    that representative's point (R is orthogonal and overlap_min^2 > 1/2,
    so no two branches claim one representative).  The other branches of
    a cluster form one tie group: the sorted points of the remaining
    representatives, taken by those branches in package order.  So no
    point depends on the eigenbasis a solver returns inside a cluster;
    each branch's tie_group lists the points its own was chosen from.
    Masses below mass_min are recorded as (branch, point, mass)
    warnings; the best-effort assignment is still returned.
    """
    tol = tol or Tolerances()
    pool = pkg.branches
    if len(points) != len(pool):
        raise ZeroCountError(
            f"degree {pkg.degree}: {len(pool)} package branches vs "
            f"{len(points)} critical points"
        )
    t_max = pkg.t_max
    q = pkg.degree
    W = np.column_stack([b.vector_at(t_max) for b in pool])
    lamT = np.array([b.value_at(t_max) for b in pool])
    coords = [getattr(p, "coords", p) for p in points]
    radius, nodes = tol.mass_radius, max(48, 2 * cx.N + 10)
    G = [_box_gram(cx, q, W, c, radius, nodes) for c in coords]

    order = np.argsort(lamT, kind="stable")
    R = np.zeros((len(pool), len(pool)))  # the representatives are W R
    clusters = []  # (branches, representatives, |R|) of each cluster
    avail = set(range(len(coords)))
    # the package branches all decay to zero, so at t_max they are
    # near-degenerate on the vanish_max scale (their mutual splittings are
    # exponentially small); localized combinations live across those
    # splittings, hence the absolute cluster threshold here
    starts, ends = _runs(lamT[order], max(tol.vanish_max, pkg.tol_zero))
    for lo in sorted(set(starts.tolist())):
        hi = int(ends[lo])
        sel = order[lo:hi]
        kc = len(sel)
        grams = {p: G[p][np.ix_(sel, sel)] for p in sorted(avail)}
        chosen_u = []
        for _ in range(kc):
            best = None
            for p in sorted(grams):
                s, U = np.linalg.eigh(grams[p])
                if best is None or s[-1] > best[0]:
                    best = (s[-1], p, U[:, -1])
            _, p_star, u = best
            chosen_u.append(u)
            del grams[p_star]
            avail.discard(p_star)
            P = np.eye(kc) - np.outer(u, u)
            for p in grams:
                grams[p] = P @ grams[p] @ P
        Rc = np.column_stack(chosen_u)  # orthogonal, by the deflation
        R[sel, lo:hi] = Rc
        clusters.append((sel, np.arange(lo, hi), np.abs(Rc)))

    M = np.column_stack([np.sum(R * (Gp @ R), axis=0) for Gp in G])
    point_of_rep = _min_cost_assignment(-M)

    rep_of_branch = np.empty(len(pool), dtype=int)
    tie_group = {}  # the group of each branch that no overlap determines
    for sel, rep, absR in clusters:
        hit = absR >= tol.overlap_min  # at most one per row and column
        a, b = np.nonzero(hit)
        rep_of_branch[sel[a]] = rep[b]
        tied = np.sort(sel[~hit.any(axis=1)])
        free = rep[~hit.any(axis=0)]
        rep_of_branch[tied] = free[np.argsort(point_of_rep[free])]
        points_left = sorted(point_of_rep[free].tolist())
        tie_group.update((i, points_left) for i in tied.tolist())

    pkg.assignment_warnings = []
    for i, b in enumerate(pool):
        rep = rep_of_branch[i]
        pt = int(point_of_rep[rep])
        b.critical_point, b.mass = pt, float(M[rep, pt])
        b.tie_group = list(tie_group.get(i, [pt]))
        if b.mass < tol.mass_min:
            pkg.assignment_warnings.append((i, pt, b.mass))
    return pkg
