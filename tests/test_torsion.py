import math

import numpy as np
import pytest

from wittenlab.errors import ConfigError, NumericalError
from wittenlab.experiments import (morse_finite_complex, random_based_complex,
                                   random_chain_iso)
from wittenlab.morse import flow_complex
from wittenlab.torsion import (ComplexMorphism, FiniteComplex, alternating_log,
                               branch_term_from_values, check_anomaly,
                               cohomology_volumes, det_prime, evaluate_theorem,
                               harmonic_basis, harmonic_volumes, torsion_T,
                               vol_of_iso)
from wittenlab.trigpoly import TWO_PI, TrigPoly, circle_sin2

import oracles


def test_finite_complex_validation():
    with pytest.raises(ConfigError):
        FiniteComplex(dims=(2, 2), d=[])  # missing coboundary
    with pytest.raises(ConfigError):
        FiniteComplex(dims=(2, 3), d=[np.zeros((2, 2))])  # wrong shape
    # d following d must vanish
    d0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    d1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        FiniteComplex(dims=(2, 2, 2), d=[d0, d1])


def test_betti_of_model_complexes():
    d = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fc = FiniteComplex(dims=(2, 2), d=[d])
    assert fc.betti() == (1, 1)


def test_torsion_matches_svd_oracle(rng):
    for _ in range(6):
        base = random_based_complex(rng)
        _, fc = random_chain_iso(rng, base)
        got = torsion_T(fc)
        ref = oracles.torsion_log_svd(fc.dims, fc.d)
        assert got == pytest.approx(ref, abs=1e-8)


def test_det_prime_known_values():
    ld, gap = det_prime(np.diag([0.0, 2.0, 3.0]), 1)
    assert ld == pytest.approx(math.log(6.0), abs=1e-12)
    assert gap == math.inf
    ld2, _ = det_prime(np.diag([2.0, 3.0]), 0)
    assert ld2 == pytest.approx(math.log(6.0), abs=1e-12)
    assert det_prime(np.zeros((2, 2)), 2) == (0.0, math.inf)
    with pytest.raises(ConfigError):
        det_prime(np.eye(2), 3)
    with pytest.raises(NumericalError):
        det_prime(np.diag([-1.0, 2.0]), 0)
    # declared nullity not separated from the live spectrum
    with pytest.raises(NumericalError):
        det_prime(np.diag([1e-8, 5e-8, 1.0]), 1)


def test_vol_of_iso_properties(rng):
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    va, vb, vab = (vol_of_iso(M) for M in (A, B, A @ B))
    assert vab == pytest.approx(va + vb, abs=1e-10)
    with pytest.raises(ConfigError):
        vol_of_iso(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        vol_of_iso(np.zeros((2, 2)))


def test_harmonic_basis_kernel_property():
    d = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fc = FiniteComplex(dims=(2, 2), d=[d])
    H = harmonic_basis(fc, 0, 1)
    L = fc.laplacians()[0]
    assert np.max(np.abs(L @ H)) < 1e-12
    assert H.T @ H == pytest.approx(np.eye(1), abs=1e-12)
    assert harmonic_basis(fc, 0, 0).shape == (2, 0)


def test_harmonic_basis_gap_guard():
    eps = 1e-8
    d = np.array([[eps, 0.0], [0.0, 2e-8]])
    fc = FiniteComplex(dims=(2, 2), d=[d])
    with pytest.raises(NumericalError):
        harmonic_basis(fc, 0, 1)


def test_cohomology_volumes_circle_is_two():
    mc = flow_complex(circle_sin2(), "circle")
    fc = morse_finite_complex(mc)
    vols = cohomology_volumes(fc, mc.classes)
    # covolume of the constant cochain over two minima is sqrt 2; the
    # single-maximum indicator projects to 1/sqrt 2
    assert vols[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert vols[1] == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)
    assert alternating_log(vols) == pytest.approx(math.log(2.0), abs=1e-12)


def sin2_rotated(amp1, amp2):
    """Sum over axes i of c_i cos(2 theta_i) + s_i sin(2 theta_i)."""
    f = TrigPoly.zero(2)
    for key, (c, s) in (((2, 0), amp1), ((0, 2), amp2)):
        f = f + TrigPoly.cosine(key, c) + TrigPoly.sine(key, s)
    return f


def test_cohomology_volumes_torus_is_one():
    """The flow-complex classes are integer cocycles with the product
    supports (4 minima; 2 + 2 saddles; 1 maximum) and alternating
    covolume 1, for every rotation of the factors."""
    for amps in oracles.TORUS_FACTOR_AMPLITUDES:
        mc = flow_complex(sin2_rotated(*amps), "torus")
        fc = morse_finite_complex(mc)
        for q, C in mc.classes.items():
            if q < len(mc.d):
                assert not np.any(mc.d[q] @ C), amps
        sums = {q: C.sum(axis=0).tolist() for q, C in mc.classes.items()}
        assert sums == {0: [4], 1: [2, 2], 2: [1]}, amps
        vols = cohomology_volumes(fc, mc.classes)
        assert alternating_log(vols) == pytest.approx(0.0, abs=1e-12), amps


def test_cohomology_volumes_rejects_non_cocycle():
    mc = flow_complex(circle_sin2(), "circle")
    fc = morse_finite_complex(mc)
    bad = {0: np.array([[1.0], [0.0]]), 1: np.array([[1.0], [0.0]])}
    with pytest.raises(ConfigError):
        cohomology_volumes(fc, bad)


def test_continuum_lattice_volumes_circle(circle_cx8):
    vols, total = harmonic_volumes(circle_cx8)
    lv0, lv1 = oracles.lattice_volume_logs_circle()
    assert vols[0] == pytest.approx(lv0, abs=1e-12)
    assert vols[1] == pytest.approx(lv1, abs=1e-12)
    assert total == pytest.approx(math.log(TWO_PI), abs=1e-12)


def test_continuum_lattice_volumes_torus(torus_cx6):
    vols, total = harmonic_volumes(torus_cx6)
    ref = oracles.lattice_volume_logs_torus()
    for q in range(3):
        assert vols[q] == pytest.approx(ref[q], abs=1e-12)
    assert total == pytest.approx(0.0, abs=1e-12)
    assert math.exp(vols[0]) == pytest.approx(TWO_PI, abs=1e-10)
    assert math.exp(vols[1]) == pytest.approx(1.0, abs=1e-12)
    assert math.exp(vols[2]) == pytest.approx(1.0 / TWO_PI, abs=1e-12)


def test_branch_term_arithmetic():
    vals = {0: [math.exp(9.0)], 1: [math.exp(2.0), math.exp(4.0)],
            2: [math.exp(1.0)]}
    want = 0.5 * (2.0 + 4.0) - 1.0  # degree 0 carries weight zero
    assert branch_term_from_values(vals) == pytest.approx(want, abs=1e-12)
    with pytest.raises(NumericalError):
        branch_term_from_values({1: [0.0]})
    with pytest.raises(NumericalError):
        branch_term_from_values({2: [-1.0]})


def test_check_anomaly_arithmetic():
    ok, r = check_anomaly(1.0, 0.3, 0.1, 0.8)
    assert ok and r == pytest.approx(0.0, abs=1e-15)
    ok2, r2 = check_anomaly(1.0, 0.3, 0.1, 0.8 + 5e-3, tol_abs=1e-3)
    assert not ok2 and r2 == pytest.approx(5e-3, abs=1e-12)


def test_evaluate_theorem_assembly():
    rep = evaluate_theorem("circle", branch_term=2.0, log_a0=0.25,
                           log_lattice_volume=1.5, log_T_morse=0.9,
                           log_W_morse=0.25)
    assert rep.working == pytest.approx(2.0 - 0.25 - 1.5)
    assert rep.printed == pytest.approx(2.0 + 0.25 - 1.5)
    assert rep.target == pytest.approx(0.65)
    assert rep.residual_working == pytest.approx(abs(rep.working - rep.target))
    assert rep.residual_printed == pytest.approx(abs(rep.printed - rep.target))
    assert not rep.working_matches
    exact = evaluate_theorem("circle", branch_term=1.0, log_a0=0.0,
                             log_lattice_volume=0.5, log_T_morse=0.75,
                             log_W_morse=0.25)
    assert exact.working_matches and exact.printed_matches


def test_complex_morphism_validation(rng):
    d = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fc = FiniteComplex(dims=(2, 2), d=[d.copy()])
    fd = FiniteComplex(dims=(2, 2), d=[d.copy()])
    with pytest.raises(ConfigError):
        ComplexMorphism(domain=fc, codomain=fd, maps=[np.eye(2)])
    with pytest.raises(ConfigError):
        ComplexMorphism(domain=fc, codomain=fd,
                        maps=[np.eye(2), np.zeros((3, 2))])
    good = ComplexMorphism(domain=fc, codomain=fd,
                           maps=[np.eye(2), np.eye(2)])
    assert good.chain_residual < 1e-15
    good.require_chain_map()
    skew = ComplexMorphism(domain=fc, codomain=fd,
                           maps=[np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(NumericalError):
        skew.require_chain_map()
