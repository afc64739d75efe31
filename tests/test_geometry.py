"""Minkowski algebra and light-front coordinate maps."""

import numpy as np
import pytest

from confdyn.geometry import (METRIC, FourVector, from_lightfront,
                              lf_gradient, lf_momenta, lower_index,
                              minkowski_dot, momenta_from_lf, raise_index)


def test_dot_signature():
    e0 = FourVector(1.0, 0.0, 0.0, 0.0)
    assert minkowski_dot(e0, e0) == 1.0
    n = FourVector(1.0, 0.0, 0.0, 1.0)
    assert minkowski_dot(n, n) == 0.0
    a = FourVector(2.0, 1.0, 1.0, 1.0)
    b = FourVector(1.0, 1.0, 0.0, 0.0)
    assert minkowski_dot(a, b) == pytest.approx(1.0, abs=0.0)


def test_metric_matrix():
    assert np.array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_lower_raise_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=4)
        assert np.allclose(raise_index(lower_index(v)), v, atol=0.0)


def test_lightfront_examples():
    x = FourVector(1.0, 0.0, 0.0, 1.0)
    assert (x.xplus, x.xminus, x.x, x.y) == (2.0, 0.0, 0.0, 0.0)
    x = FourVector(1.0, 0.0, 0.0, 0.0)
    assert (x.xplus, x.xminus) == (1.0, 1.0)


def test_lightfront_roundtrip():
    x = FourVector(0.3, -1.2, 0.7, 2.5)
    back = from_lightfront(x.xplus, x.xminus, x.x, x.y)
    for a, b in zip((x.t, x.x, x.y, x.z), (back.t, back.x, back.y, back.z)):
        assert a == pytest.approx(b, abs=1e-15)


def test_dot_in_lightfront_variables():
    # x.x = x+ x- - xperp.xperp on random draws
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = FourVector(*rng.uniform(-2, 2, size=4))
        expect = x.xplus * x.xminus - x.x ** 2 - x.y ** 2
        assert minkowski_dot(x, x) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_lf_momenta_conventions():
    # p+- = (p0 +- p3)/2 on lower-index momenta, and back
    p = np.array([1.3, 0.2, -0.4, 0.5])
    pplus, pminus, p1, p2 = lf_momenta(p)
    assert pplus == pytest.approx((1.3 + 0.5) / 2)
    assert pminus == pytest.approx((1.3 - 0.5) / 2)
    assert (p1, p2) == (0.2, -0.4)
    assert np.allclose(momenta_from_lf(pplus, pminus, p1, p2), p)


def test_lf_pairing_matches_cartesian():
    # p.x = p+ x+ + p- x- + p_perp x^perp reproduces p_mu x^mu
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = rng.normal(size=4)          # lower-index components
        x = FourVector(*rng.normal(size=4))
        pplus, pminus, p1, p2 = lf_momenta(p)
        pairing = pplus * x.xplus + pminus * x.xminus + p1 * x.x + p2 * x.y
        direct = p @ np.array([x.t, x.x, x.y, x.z])
        assert pairing == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_lf_gradient_pairing():
    # lf components (d+, d-, d1, d2) of a lower-index gradient g satisfy
    # g.dx = d+ dx+ + d- dx- + d_perp dx^perp for any displacement
    rng = np.random.default_rng(5)
    g = rng.normal(size=4)
    d = lf_gradient(g)
    dx = FourVector(*rng.normal(size=4))
    lhs = g @ np.array([dx.t, dx.x, dx.y, dx.z])
    rhs = d[0] * dx.xplus + d[1] * dx.xminus + d[2] * dx.x + d[3] * dx.y
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_shifted_batch_leaves_the_original_and_shifts_each_point():
    t, z = np.array([1.0, 2.0]), np.array([-0.5, 0.25])
    batch = FourVector(t, 0.5, np.array([0.0, -0.0]), z)
    for mu, delta in ((0, 0.5), (2, -1e-3), (3, 0.125)):
        moved = batch.shifted(mu, delta)
        assert batch.t.tolist() == [1.0, 2.0] and batch.z.tolist() == [-0.5, 0.25]
        for i in range(2):
            one = FourVector(float(t[i]), 0.5, float(batch.y[i]), float(z[i]))
            want = one.shifted(mu, delta)
            got = (moved.t[i], moved.x, moved.y[i], moved.z[i])
            assert np.array_equal(got, (want.t, want.x, want.y, want.z))
            assert np.array_equal(np.signbit(got),
                                  np.signbit((want.t, want.x, want.y, want.z)))
