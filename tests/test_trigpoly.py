import numpy as np
import pytest
from hypothesis import given, strategies as st

from wittenlab.trigpoly import TWO_PI, TrigPoly, circle_sin2, torus_sin2_product

import oracles


def random_poly(rng, arity=1, max_freq=4, nterms=4):
    p = TrigPoly.const(arity, float(rng.standard_normal()))
    for _ in range(nterms):
        key = tuple(int(k) for k in rng.integers(-max_freq, max_freq + 1,
                                                 size=arity))
        p = p + TrigPoly.cosine(key, float(rng.standard_normal()))
        p = p + TrigPoly.sine(key, float(rng.standard_normal()))
    return p


coeff = st.floats(-3, 3, allow_nan=False)
freq = st.integers(-4, 4)
angle = st.floats(0, TWO_PI, allow_nan=False)


@given(st.integers(0, 2**32 - 1), st.lists(angle, min_size=1, max_size=4))
def test_product_evaluates_pointwise(seed, thetas):
    rng = np.random.default_rng(seed)
    p = random_poly(rng)
    q = random_poly(rng)
    pq = p * q
    for th in thetas:
        assert pq(th) == pytest.approx(p(th) * q(th), abs=1e-9)


@given(st.integers(0, 2**32 - 1), angle)
def test_sum_and_scalar_algebra(seed, th):
    rng = np.random.default_rng(seed)
    p = random_poly(rng)
    q = random_poly(rng)
    assert (p + q)(th) == pytest.approx(p(th) + q(th), abs=1e-10)
    assert (p - q)(th) == pytest.approx(p(th) - q(th), abs=1e-10)
    assert (-p)(th) == pytest.approx(-p(th), abs=1e-12)
    assert (2.5 * p)(th) == pytest.approx(2.5 * p(th), abs=1e-10)
    assert (p + 1.0)(th) == pytest.approx(p(th) + 1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1), angle)
def test_partial_matches_finite_difference(seed, th):
    rng = np.random.default_rng(seed)
    p = random_poly(rng)
    h = 1e-6
    fd = (p(th + h) - p(th - h)) / (2 * h)
    assert p.partial(0)(th) == pytest.approx(fd, abs=1e-5)


def test_zero_frequency_sine_collapses():
    assert TrigPoly.sine((0,), 2.0).terms == {}
    # sin(-k x) = -sin(k x), cos(-k x) = cos(k x)
    th = 0.917
    assert TrigPoly.sine((-3,), 1.0)(th) == pytest.approx(-np.sin(3 * th))
    assert TrigPoly.cosine((-3,), 1.0)(th) == pytest.approx(np.cos(3 * th))


def test_circle_potential_shape():
    f = circle_sin2()
    assert f.arity == 1
    assert f.max_freq() == (2,)
    for th in np.linspace(0, TWO_PI, 17):
        assert f(th) == pytest.approx(np.sin(2 * th), abs=1e-12)


def test_torus_potential_separable():
    f = torus_sin2_product()
    assert f.arity == 2
    assert f.is_separable()
    for a, b in [(0.3, 1.2), (4.0, 5.5)]:
        assert f(a, b) == pytest.approx(np.sin(2 * a) + np.sin(2 * b),
                                        abs=1e-12)
    f1, f2, const = f.factor_parts()
    th = 2.13
    assert f1(th) + f2(th) + const == pytest.approx(f(th, th), abs=1e-12)


def test_max_freq_tracks_products():
    p = TrigPoly.cosine((2,), 1.0) * TrigPoly.sine((3,), 1.0)
    assert p.max_freq() == (5,)
