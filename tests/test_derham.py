import numpy as np
import pytest
import scipy.sparse as sp

from wittenlab.derham import (CSR, build_circle_complex,
                              build_torus_complex, check_duality_identities,
                              LaplacianFamily, d_squared_residual,
                              graded_kronecker_defect, laplacian_family,
                              mult_matrix_2d)
from wittenlab.errors import ConfigError
from wittenlab.branches import _eig_smallest_sparse, lowest_eigenvalues
from wittenlab.trigpoly import TrigPoly, circle_sin2, torus_sin2_product

import oracles


FP = lambda th: 2 * np.cos(2 * th)


def test_circle_flat_spectrum(circle_cx8):
    w = np.linalg.eigvalsh(laplacian_family(circle_cx8, 0).at(0.0).toarray())
    want = np.sort([0.0] + [float(k * k) for k in range(1, 9)
                            for _ in range(2)])
    assert np.max(np.abs(w - want)) < 1e-11


def test_circle_operator_matches_collocation(circle_cx8):
    """Coefficient-algebra assembly against pointwise quadrature assembly."""
    for q in (0, 1):
        fam = laplacian_family(circle_cx8, q)
        for t in (0.0, 0.7, 3.0):
            A = fam.at(t).toarray()
            B = oracles.collocation_circle_operator(8, t, FP, q)
            assert np.max(np.abs(A - B)) < 1e-11


def test_torus_flat_spectrum_start(torus_cx6):
    w = np.linalg.eigvalsh(laplacian_family(torus_cx6, 0).at(0.0).toarray())
    assert np.max(np.abs(w[:6] - np.array([0, 1, 1, 1, 1, 2]))) < 1e-11


@pytest.mark.parametrize("t", [0.0, 1.3, 4.0])
def test_torus_function_spectrum_is_sum_of_circle_spectra(torus_cx6, t):
    """The product structure survives the cutoff exactly for the square
    mode set: every degree-0 eigenvalue is a sum of two circle ones."""
    cx1 = build_circle_complex(6, circle_sin2())
    w0 = np.linalg.eigvalsh(laplacian_family(cx1, 0).at(t).toarray())
    w = np.linalg.eigvalsh(laplacian_family(torus_cx6, 0).at(t).toarray())
    want = oracles.sum_spectrum(w0, w0)
    assert np.max(np.abs(w - want)) < 1e-9


@pytest.mark.parametrize("t", [0.0, 1.3])
def test_torus_one_form_spectrum_tensor(torus_cx6, t):
    cx1 = build_circle_complex(6, circle_sin2())
    w0 = np.linalg.eigvalsh(laplacian_family(cx1, 0).at(t).toarray())
    w1 = np.linalg.eigvalsh(laplacian_family(cx1, 1).at(t).toarray())
    w = np.linalg.eigvalsh(laplacian_family(torus_cx6, 1).at(t).toarray())
    want = oracles.torus_spectrum_from_circle(w0, w1, 1)
    assert np.max(np.abs(w - want)) < 1e-9


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 7.0])
def test_d_squared_vanishes(circle_cx8, torus_cx6, t):
    assert d_squared_residual(circle_cx8, t) < 1e-12
    assert d_squared_residual(torus_cx6, t) < 1e-12


def test_laplacians_symmetric(circle_cx8, torus_cx6):
    for cx in (circle_cx8, torus_cx6):
        for q in range(cx.n + 1):
            A = laplacian_family(cx, q).at(1.7)
            assert (A - A.T).nnz == 0  # exact zeros are not stored


def test_duality_identities_smallness(circle_cx8, torus_cx6):
    for cx in (circle_cx8, torus_cx6):
        res = check_duality_identities(cx)
        worst = max(res.values())
        assert worst < 1e-12, res


def test_star_is_isometry(torus_cx6):
    for q in (0, 1, 2):
        S = torus_cx6.S[q]
        v = np.linspace(-1, 1, torus_cx6.dims[q])
        assert np.linalg.norm(S @ v) == pytest.approx(np.linalg.norm(v),
                                                           rel=1e-12)


# a potential whose frequencies (1, -2) and (2, -1) mix signs, so the
# sine-sine Kronecker terms enter with both signs
MIXED = TrigPoly.cosine((1, -2)) + TrigPoly.sine((2, -1), 0.7)


@pytest.mark.parametrize("f, partials", [
    (torus_sin2_product(),
     (lambda x, y: 2 * np.cos(2 * x), lambda x, y: 2 * np.cos(2 * y))),
    (MIXED,
     (lambda x, y: -np.sin(x - 2 * y) + 1.4 * np.cos(2 * x - y),
      lambda x, y: 2 * np.sin(x - 2 * y) - 0.7 * np.cos(2 * x - y))),
], ids=["sin2-product", "mixed-sign"])
def test_mult_matrix_2d_matches_collocation(f, partials):
    """Kronecker assembly of the multipliers df/dtheta_i against the
    trapezoid-rule Galerkin entries of the pointwise derivatives."""
    for i, dfi in enumerate(partials):
        M = mult_matrix_2d(6, f.partial(i))
        assert isinstance(M, CSR)
        want = oracles.collocation_torus_multiplier(6, dfi)
        assert np.max(np.abs(M.toarray() - want)) < 1e-12


def test_torus_operators_are_sparse(circle_cx8, torus_cx6):
    """One storage on both manifolds: every operator, star and Laplacian
    coefficient is the package's CSR type."""
    for cx in (circle_cx8, torus_cx6):
        fams = [laplacian_family(cx, q) for q in range(cx.n + 1)]
        ops = cx.D + cx.E + cx.S + [fam.term(j) for fam in fams
                                    for j in range(3)]
        for A in ops + [fam.at(1.3) for fam in fams]:
            assert isinstance(A, CSR)


def _scipy_copy(A):
    """The scipy CSR matrix of the same entries, the oracle storage."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _bitwise(got, want):
    """got (package CSR or dense) equals scipy's result bit for bit."""
    if isinstance(got, CSR):
        got, want = got.toarray(), want.toarray()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _scipy_terms(cx, q):
    """A0, A1, A2 of degree q as laplacian_family sums them, formed in
    scipy, and symmetrised as the family does it."""
    parts = [[], [], []]
    if q < cx.n:
        B0, B1 = _scipy_copy(cx.D[q]), _scipy_copy(cx.E[q])
        parts[0].append(B0.T @ B0)
        parts[1].append(B0.T @ B1 + B1.T @ B0)
        parts[2].append(B1.T @ B1)
    if q > 0:
        C0, C1 = _scipy_copy(cx.D[q - 1]), _scipy_copy(cx.E[q - 1])
        parts[0].append(C0 @ C0.T)
        parts[1].append(C0 @ C1.T + C1 @ C0.T)
        parts[2].append(C1 @ C1.T)
    terms = [sum(ps[1:], ps[0]) for ps in parts]
    return [0.5 * (T + T.T) for T in terms]


def test_csr_arithmetic_matches_scipy_bitwise(circle_cx8, torus_cx6, rng):
    """Against scipy CSR copies of the same entries: every operator, its
    transpose, d(t), and each family term(j) and at(t), their products
    with dense blocks, and the products, sums and differences that
    laplacian_family and check_duality_identities form are bit-for-bit
    equal.  The circle D has an empty first row (the constant mode has
    no derivative), and its products there are exactly 0."""
    for cx in (circle_cx8, torus_cx6):
        n = cx.n
        fams = [laplacian_family(cx, q) for q in range(n + 1)]
        d = cx.witten_d(0.7)
        ops = (cx.D + cx.E + cx.S + d
               + [fam.term(j) for fam in fams for j in range(3)]
               + [fam.at(t) for fam in fams for t in (1.3, -2.0)])
        pairs = [(A, _scipy_copy(A)) for A in ops]
        pairs += [(A.T, S.T) for A, S in pairs]
        for A, S in pairs:
            _bitwise(A, S)
            X = rng.standard_normal((A.shape[1], 5))
            X[::3, 1] = 0.0
            _bitwise(A @ X, S @ X)
            _bitwise(A @ X[:, 0], S @ X[:, 0])
        for q in range(n):
            _bitwise(d[q], _scipy_copy(cx.D[q]) + 0.7 * _scipy_copy(cx.E[q]))
        for q, fam in enumerate(fams):
            for j, T in enumerate(_scipy_terms(cx, q)):
                assert fam.term(j).toarray().tobytes() == T.toarray().tobytes()
        for q in range(n + 1):
            S_q, S_dual = _scipy_copy(cx.S[q]), _scipy_copy(cx.S[n - q])
            _bitwise(cx.S[n - q] @ cx.S[q], S_dual @ S_q)
            conj = cx.S[q] @ fams[q].at(1.3) @ cx.S[n - q]
            want = S_q @ _scipy_copy(fams[q].at(1.3)) @ S_dual
            _bitwise(conj, want)
            _bitwise(conj - fams[n - q].at(1.3),
                     want - _scipy_copy(fams[n - q].at(1.3)))
        if n == 2:
            _bitwise(d[1] @ d[0], _scipy_copy(d[1]) @ _scipy_copy(d[0]))
    D = circle_cx8.D[0]
    assert D.indptr[1] == 0
    assert not np.any((D @ rng.standard_normal((D.shape[1], 3)))[0])


def _groups(labels):
    """Components as node sets, ordered by their first node."""
    return sorted(tuple(np.flatnonzero(labels == b)) for b in np.unique(labels))


def test_components_match_scipy(circle_cx8, torus_cx6, rng):
    """Connected components of a pattern against scipy's csgraph: the
    same node sets, numbered by their first node, on a graph with
    isolated nodes, a path through 3000 nodes in random order, a random
    bipartite graph laid out as rebasing lays out its branch-cluster
    graph, and the pattern of every family of both complexes."""
    from scipy.sparse.csgraph import connected_components

    path = rng.permutation(3000)
    adj = CSR.from_dense(rng.random((40, 25)) < 0.04)
    graphs = [CSR.from_entries(np.array([1, 4]), np.array([4, 1]),
                               np.ones(2), (6, 6)),
              CSR.from_entries(path[:-1], path[1:], np.ones(2999),
                               (3000, 3000)),
              CSR.blocks([[None, adj], [adj.T, None]])]
    graphs += [laplacian_family(cx, q).pattern
               for cx in (circle_cx8, torus_cx6) for q in range(cx.n + 1)]
    for G in graphs:
        count, labels = G.components()
        want_count, want = connected_components(_scipy_copy(G),
                                                directed=False)
        assert count == want_count
        groups = _groups(labels)
        assert groups == _groups(want)
        assert np.array_equal(labels[[g[0] for g in groups]],
                              np.arange(count))


def test_sparse_eigensolve_matches_dense(torus_cx6):
    for q, t, k in ((0, 1.1, 12), (1, 0.6, 10)):
        A = laplacian_family(torus_cx6, q).at(t)
        ws, _ = _eig_smallest_sparse(A, k)
        wd = np.linalg.eigvalsh(A.toarray())[:k]
        assert np.max(np.abs(ws - wd)) < 1e-9


def test_degenerate_cluster_completeness_sparse():
    # cycle-graph Laplacian: all interior eigenvalues doubly degenerate;
    # an iterative solver must return both copies of each pair
    n = 40
    A = CSR.from_dense(2.0 * np.eye(n) - np.roll(np.eye(n), 1, axis=0)
                       - np.roll(np.eye(n), -1, axis=0))
    k = 9
    w, _ = _eig_smallest_sparse(A, k)
    wd = np.linalg.eigvalsh(A.toarray())[:k]
    assert np.max(np.abs(w - wd)) < 1e-10


def test_cutoff_guard_rejects_small_mode_count():
    with pytest.raises(ConfigError):
        build_circle_complex(2, circle_sin2())


def test_nonpolynomial_free_cutoff_is_exactly_closed(circle_cx8):
    # multiplication by df maps the retained modes within range when the
    # potential frequency fits, so the composition identities are exact
    # rather than asymptotic
    res = d_squared_residual(circle_cx8, 11.0)
    assert res < 1e-11


def test_stars_are_signed_permutations(circle_cx8, torus_cx6):
    """Each star has entries in {-1, 0, 1}, one nonzero per row and per
    column, and its transpose is its inverse exactly."""
    for cx in (circle_cx8, torus_cx6):
        for S in cx.S:
            A = S.toarray()
            assert set(np.unique(A)) <= {-1.0, 0.0, 1.0}
            assert np.all(np.count_nonzero(A, axis=0) == 1)
            assert np.all(np.count_nonzero(A, axis=1) == 1)
            assert np.array_equal(A.T @ A, np.eye(A.shape[0]))


@pytest.mark.parametrize("sparse", [False, True])
def test_split_blocks_are_exactly_invariant(circle_cx8, torus_cx6, sparse):
    """Invariance certificate: every entry of A0, A1, A2 coupling two
    blocks is exactly 0.0, and each sub-family is the restriction, for
    a family built from CSR terms and for one rebuilt from dense copies
    of them (which must give the same shared pattern and data)."""
    for cx in (circle_cx8, torus_cx6):
        for q in range(cx.n + 1):
            fam = laplacian_family(cx, q)
            if not sparse:
                dense = LaplacianFamily.from_terms(
                    *(fam.term(j).toarray() for j in range(3)))
                assert np.array_equal(dense.pattern.indptr, fam.pattern.indptr)
                assert np.array_equal(dense.pattern.indices,
                                      fam.pattern.indices)
                assert np.array_equal(dense.coef, fam.coef)
                fam = dense
            blocks = fam.split()
            label = np.full(fam.dim, -1)
            for b, (idx, _) in enumerate(blocks):
                label[idx] = b
            assert np.all(label >= 0)
            coupling = label[:, None] != label[None, :]
            for j in range(3):
                A = fam.term(j).toarray()
                assert np.all(A[coupling] == 0.0)
                for idx, sub in blocks:
                    assert np.array_equal(sub.term(j).toarray(),
                                          A[np.ix_(idx, idx)])


@pytest.mark.parametrize("t", [0.0, 2.3])
def test_merged_block_spectra_match_full_solve(circle_cx8, torus_cx6, t):
    for cx, want in ((circle_cx8, (3, 3)), (torus_cx6, (9, 18, 9))):
        for q in range(cx.n + 1):
            fam = laplacian_family(cx, q)
            blocks = fam.split()
            assert len(blocks) == want[q]
            w, owner = lowest_eigenvalues(blocks, t, fam.dim)
            full = np.linalg.eigvalsh(fam.at(t).toarray())
            assert np.max(np.abs(w - full)) < 1e-10
            assert np.array_equal(np.bincount(owner),
                                  [len(idx) for idx, _ in blocks])


def test_potential_without_frequency_structure_gives_one_block():
    f = (TrigPoly.cosine((1, 0)) + TrigPoly.sine((1, 0), 0.7)
         + TrigPoly.cosine((0, 1), 0.4) + TrigPoly.sine((0, 1))
         + TrigPoly.cosine((1, 1), 0.3) + TrigPoly.sine((1, 1), 0.2))
    cx = build_torus_complex(6, f)
    for q in range(3):
        blocks = laplacian_family(cx, q).split()
        assert len(blocks) == 1
        assert np.array_equal(blocks[0][0], np.arange(cx.dims[q]))


@pytest.mark.parametrize("N", [12, 24])
def test_separable_degree1_cross_block_is_exactly_zero(N):
    """On the preset potential sin 2th1 + sin 2th2 the dth1 and dth2
    components of a 1-form do not couple: the cross block of A0, A1
    and A2 is exactly 0.0, so the split keeps their blocks apart."""
    cx = build_torus_complex(N, torus_sin2_product())
    fam = laplacian_family(cx, 1)
    m = cx.dims[0]
    for j in range(3):
        A = fam.term(j)
        assert not np.any(A.data[(A.rows < m) & (A.indices >= m)])
    assert [len(laplacian_family(cx, q).split()) for q in range(3)] \
        == [9, 18, 9]


def test_separable_operators_are_graded_kronecker_products():
    """On the separable sin 2th1 + 0.4 cos th1 + sin 2th2 + 0.25 sin th2
    the torus D_q and E_q are the graded Kronecker assembly of the circle
    complexes of the two summands: graded_kronecker_defect gives 0 for D
    and rounding for E, and each equals the largest entry of the
    difference to a dense np.kron assembly.  The factors swapped, or D_1
    with the opposite sign rule, give defects of order one."""
    h1 = TrigPoly.sine((2,)) + TrigPoly.cosine((1,), 0.4)
    h2 = TrigPoly.sine((2,)) + TrigPoly.sine((1,), 0.25)
    f = TrigPoly.zero(2)
    for (k,), (c, s_) in h1.terms.items():
        f = f + TrigPoly.cosine((k, 0), c) + TrigPoly.sine((k, 0), s_)
    for (k,), (c, s_) in h2.terms.items():
        f = f + TrigPoly.cosine((0, k), c) + TrigPoly.sine((0, k), s_)
    cx = build_torus_complex(8, f)
    c1, c2 = build_circle_complex(8, h1), build_circle_complex(8, h2)
    I = np.eye(c1.dims[0])

    def dense(X1, X2):
        return [np.vstack([np.kron(X1, I), np.kron(I, X2)]),
                np.hstack([-np.kron(I, X2), np.kron(X1, I)])]

    want = [max(np.abs(A.toarray() - K).max() for A, K in zip(
        ops, dense(x1.toarray(), x2.toarray())))
        for ops, x1, x2 in ((cx.D, c1.D[0], c2.D[0]),
                            (cx.E, c1.E[0], c2.E[0]))]
    got = graded_kronecker_defect(cx, c1, c2)
    assert got[0] == want[0] == 0.0
    assert got[1] == want[1] <= 1e-14
    assert graded_kronecker_defect(cx, c2, c1)[1] > 0.1
    flipped = cx._replace(D=[cx.D[0], -cx.D[1]])
    assert graded_kronecker_defect(flipped, c1, c2)[0] >= 1.0
