"""Squared-mass families: values, analytic gradients, switch surfaces."""

import numpy as np
import pytest
from scipy.integrate import quad

from confdyn import backgrounds
from confdyn.errors import RealityError, SingularityError
from confdyn.geometry import FourVector


def fd_grad(bg, x, h=1e-5):
    g = np.zeros(4)
    for mu in range(4):
        g[mu] = (bg.m2(x.shifted(mu, +h)) - bg.m2(x.shifted(mu, -h))) / (2 * h)
    return g


def test_constant():
    bg = backgrounds.constant(1.7)
    x = FourVector(0.3, 1.0, -2.0, 0.5)
    assert bg.m2(x) == 1.7
    assert np.all(bg.grad_m2(x) == 0.0)


def test_linear_z_values():
    bg = backgrounds.linear_z(B=1.0, m0sq=1.0, switched=True)
    assert bg.m2(FourVector(0, 0, 0, -1.0)) == 1.0          # outside the field
    assert bg.m2(FourVector(0, 0, 0, 2.0)) == 3.0
    assert np.allclose(bg.grad_m2(FourVector(0, 0, 0, 1.0)), [0, 0, 0, 1.0])
    assert np.all(bg.grad_m2(FourVector(0, 0, 0, -1.0)) == 0.0)


def test_linear_z_switch_surface():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    assert len(bg.events) == 1
    name, fn = bg.events[0]
    assert fn(FourVector(0, 0, 0, 0.5)) * fn(FourVector(0, 0, 0, -0.5)) < 0
    assert not bg.smooth_at(FourVector(0, 0, 0, 0.0))
    assert bg.smooth_at(FourVector(0, 0, 0, 0.3))


def test_linear_z_reality_violation():
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    with pytest.raises(RealityError):
        bg.m2(FourVector(0, 0, 0, -2.0))


def test_timelike():
    bg = backgrounds.timelike(lambda t: t, lambda t: 1.0, m0sq=1.0,
                              switched=False)
    assert bg.m2(FourVector(2.0, 0.4, -0.1, 0.9)) == pytest.approx(3.0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = FourVector(rng.uniform(0.5, 2.0), *rng.uniform(-1, 1, size=3))
        g = bg.grad_m2(x)
        assert np.all(g[1:] == 0.0)          # purely timelike gradient
        assert g[0] == pytest.approx(1.0, rel=1e-12)


def test_plane_wave_sin2_values():
    bg = backgrounds.plane_wave_sin2(m0sq=1.0, amp=1.0, k=1.0)
    x = FourVector(np.pi / 4, 0.7, -0.3, np.pi / 4)    # x+ = pi/2
    assert bg.m2(x) == pytest.approx(2.0, rel=1e-12)
    g = bg.grad_m2(x)
    assert g[1] == 0.0 and g[2] == 0.0                 # transverse independence


def test_plane_wave_antiderivative_matches_quad():
    bg = backgrounds.plane_wave_sin2(m0sq=1.3, amp=0.6, k=1.4)
    for w in (0.5, 2.0, 7.0):
        direct, _ = quad(lambda s: 1.3 * (1 + 0.6 * np.sin(1.4 * s) ** 2), 0, w,
                         epsabs=1e-13, epsrel=1e-13)
        assert bg.m2_integral(w) == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_plane_wave_tabulated_tracks_smooth_profile():
    w = np.linspace(-1.0, 12.0, 800)
    ref = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    tab = backgrounds.plane_wave_tabulated(w, [1.0 * (1 + 0.5 * np.sin(s) ** 2) for s in w])
    for xp in (0.3, 2.5, 9.0):
        x = FourVector(xp / 2, 0.2, -0.4, xp / 2)
        assert tab.m2(x) == pytest.approx(ref.m2(x), abs=1e-7)
        assert np.allclose(tab.grad_m2(x), ref.grad_m2(x), atol=1e-5)
    assert tab.m2_integral(5.0) == pytest.approx(ref.m2_integral(5.0), abs=1e-7)


def test_special_conformal_switched_region():
    bg = backgrounds.special_conformal_switched(m0sq=1.0, L=1.0, k=1.0)
    inside = FourVector(0.25, 0.1, -0.2, 0.25)   # x+ = 0.5 < L
    assert bg.m2(inside) == pytest.approx(1.0)
    assert np.all(bg.grad_m2(inside) == 0.0)
    # at x+ = 2L on the u=0 surface: (L/x+)^2 prefactor only
    x = FourVector(1.0, 0.0, 0.0, 1.0)
    assert bg.m2(x) == pytest.approx(0.25, rel=1e-12)


def test_special_conformal_gaussian_value():
    bg = backgrounds.special_conformal_gaussian(m0sq=1.0, L=1.0, k=1.0)
    x = FourVector(1.0, 0.0, 0.0, 1.0)           # x+ = 2, u = 0
    assert bg.m2(x) == pytest.approx(0.25, rel=1e-12)


def test_special_conformal_singular_surface():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    with pytest.raises(SingularityError):
        bg.m2(FourVector(0.5, 0.0, 0.0, -0.5))   # x+ = 0


def test_dilation_mass():
    bg = backgrounds.dilation_mass(1.0)
    assert bg.m2(FourVector(1.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)
    x = FourVector(2.0, 0.3, -0.1, 0.5)
    xx = x.norm2()
    expect = -2.0 * x.lowered() / xx ** 2
    assert np.allclose(bg.grad_m2(x), expect, rtol=1e-12)
    with pytest.raises(SingularityError):
        bg.m2(FourVector(1.0, 1.0, 0.0, 0.0))    # on the light cone


def test_gradient_fd_consistency_smooth_families():
    # O(h^2) convergence of |analytic - FD| for the curved families
    rng = np.random.default_rng(17)
    fams = [backgrounds.plane_wave_sin2(1.0, 0.5, 1.2),
            backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0),
            backgrounds.dilation_mass(0.8)]
    points = {
        0: [FourVector(*rng.uniform(-2, 2, size=4)) for _ in range(30)],
        1: [FourVector(rng.uniform(1.0, 2.0), rng.uniform(-0.3, 0.3),
                       rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            for _ in range(30)],
        2: [FourVector(rng.uniform(1.5, 2.5), rng.uniform(-0.4, 0.4),
                       rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            for _ in range(30)],
    }
    for i, bg in enumerate(fams):
        for x in points[i]:
            e1 = np.max(np.abs(bg.grad_m2(x) - fd_grad(bg, x, 1e-3)))
            e2 = np.max(np.abs(bg.grad_m2(x) - fd_grad(bg, x, 5e-4)))
            if e1 < 1e-11:        # FD is exact here (locally linear); skip ratio
                continue
            assert e1 / e2 == pytest.approx(4.0, abs=0.7)


def test_gradient_exact_for_polynomial_families():
    bg = backgrounds.linear_z(0.7, 1.0, switched=False)
    x = FourVector(0.1, 0.2, 0.3, 0.9)
    assert np.allclose(bg.grad_m2(x), fd_grad(bg, x), atol=1e-9)


def test_from_callable_fd_fallback():
    user = backgrounds.from_callable(lambda x: 1.0 + 0.1 * np.sin(x.t) * np.cos(x.z))
    ref_grad = lambda x: np.array([0.1 * np.cos(x.t) * np.cos(x.z), 0.0, 0.0,
                                   -0.1 * np.sin(x.t) * np.sin(x.z)])
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = FourVector(*rng.uniform(-1, 1, size=4))
        assert np.allclose(user.grad_m2(x), ref_grad(x), atol=1e-9)


def test_from_params_dispatch_and_errors():
    bg = backgrounds.from_params({"family": "linear_z", "B": "1.0",
                                  "switched": "false"})
    assert bg.params["switched"] is False
    with pytest.raises(ValueError):
        backgrounds.from_params({"family": "nope"})


@pytest.mark.parametrize("make", [
    lambda: backgrounds.constant(1.3),
    lambda: backgrounds.linear_z(0.7, 1.2, switched=True),
    lambda: backgrounds.linear_z(0.7, 1.2, switched=False),
    lambda: backgrounds.plane_wave_sin2(1.1, 0.4, 1.5, argument="xminus"),
    lambda: backgrounds.special_conformal_switched(1.2, 1.5, 0.8),
    lambda: backgrounds.special_conformal_gaussian(1.2, 1.5, 0.8),
    lambda: backgrounds.dilation_mass(0.9),
], ids=["constant", "linear_z-switched", "linear_z", "plane_wave", "sc-switched",
        "sc-gaussian", "dilation"])
def test_from_params_round_trip(make):
    # a background's params rebuild the same field (the CLI dispatches on them)
    bg = make()
    again = backgrounds.from_params(bg.params)
    assert again.label == bg.label
    assert again.params == bg.params
    for x in (FourVector(2.0, 0.1, -0.2, 0.3), FourVector(1.7, -0.3, 0.2, -0.1)):
        assert again.m2(x) == bg.m2(x)
        assert np.array_equal(again.grad_m2(x), bg.grad_m2(x))


@pytest.mark.parametrize("raw, value", [(" Yes", True), ("ON", True), (True, True),
                                        ("0", False), ("off ", False), (False, False)])
def test_from_params_switched_spellings(raw, value):
    bg = backgrounds.from_params({"family": "linear_z", "B": "1", "switched": raw})
    assert bg.params["switched"] is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "y", "none"])
def test_from_params_switched_typo_rejected(raw):
    # a misspelt boolean must not build the unswitched field
    with pytest.raises(ValueError, match="not a boolean"):
        backgrounds.from_params({"family": "linear_z", "B": "1", "switched": raw})


def test_m2_integral_quadrature_fallback():
    # a family without a stored antiderivative integrates the profile
    user = backgrounds.from_callable(lambda x: 1.0 + 0.2 * x.xplus ** 2)
    assert user.m2_integral(3.0) == pytest.approx(3.0 + 0.2 * 9.0, rel=1e-10)
