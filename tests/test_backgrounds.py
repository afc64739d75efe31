"""Squared-mass families: values, analytic gradients, switch surfaces."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from confdyn import backgrounds, cli, ode
from confdyn.dynamics import extended_state_on_shell, front_state
from confdyn.errors import ConfigError, DomainError, RealityError, SingularityError
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
    assert fn(0, 0, 0, 0.5) * fn(0, 0, 0, -0.5) < 0
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
    bg = backgrounds.plane_wave_sin2(m0sq=1.0, amp=1.0, k=1.0, argument="xplus")
    x = FourVector(np.pi / 4, 0.7, -0.3, np.pi / 4)    # x+ = pi/2
    assert bg.m2(x) == pytest.approx(2.0, rel=1e-12)
    g = bg.grad_m2(x)
    assert g[1] == 0.0 and g[2] == 0.0                 # transverse independence


def test_plane_wave_sin2_overflow_is_refused():
    # a 2 k that overflows is refused; at k = 1e300, x+ = 1.5e8 keeps k w
    # finite but overflows 2 k w: m^2's slope and the antiderivative raise
    # DomainError naming k and w (on an array, the first such w)
    with pytest.raises(ValueError, match="k = 1e\\+308 overflows 2 k"):
        backgrounds.plane_wave_sin2(1.0, 0.5, 1e308, "xplus")
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1e300, "xplus")
    assert bg.m2(FourVector(0.0, 0.0, 0.0, 0.0)) == 1.0
    assert bg.m2_integral(0.0) == 0.0
    err = "k = 1e+300, w = 1.5e+08: 2 k w is not finite in the sin^2 profile"
    with pytest.raises(DomainError, match=re.escape(err)):
        bg.grad_m2(FourVector(0.75e8, 0.0, 0.0, 0.75e8))
    with pytest.raises(DomainError, match=re.escape(err)):
        bg.m2_integral(1.5e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(err)):
            bg.m2_integral(np.array([0.0, 1.5e8, 2e8]))


def test_plane_wave_antiderivative_matches_quad():
    bg = backgrounds.plane_wave_sin2(m0sq=1.3, amp=0.6, k=1.4, argument="xplus")
    for w in (0.5, 2.0, 7.0):
        direct, _ = quad(lambda s: 1.3 * (1 + 0.6 * np.sin(1.4 * s) ** 2), 0, w,
                         epsabs=1e-13, epsrel=1e-13)
        assert bg.m2_integral(w) == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_plane_wave_tabulated_tracks_smooth_profile():
    w = np.linspace(-1.0, 12.0, 800)
    ref = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    tab = backgrounds.plane_wave_tabulated(
        w, [1.0 * (1 + 0.5 * np.sin(s) ** 2) for s in w], "xplus")
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


@pytest.mark.parametrize("L", [1e-13, 0.0, -1.0, float("nan")])
def test_special_conformal_switched_refuses_a_switch_near_x_plus_zero(L):
    # x+ = L within _SING_EPS of x+ = 0 would put the switch surface on the
    # singular one, where the kernel raises SingularityError
    with pytest.raises(ValueError, match="switch position L must be at least 1e-12"):
        backgrounds.special_conformal_switched(1.0, L, 1.0)
    with pytest.raises(ValueError, match="switch position L"):
        backgrounds.from_params({"family": "special_conformal_switched", "L": L})


def test_special_conformal_switched_smallest_switch():
    # at L = _SING_EPS the switch surface holds the vacuum value, with the
    # field side's gradient, and just before it the constant field
    bg = backgrounds.special_conformal_switched(1.0, 1e-12, 1.0)
    v, g = bg.field_at(0.5e-12, 0.0, 0.0, 0.5e-12)
    assert v == 1.0 and g == (-2e+12, 0.0, 0.0, -2e+12)
    assert bg.field_at(0.49e-12, 0.0, 0.0, 0.5e-12) == (1.0, (0.0, 0.0, 0.0, 0.0))


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
    fams = [backgrounds.plane_wave_sin2(1.0, 0.5, 1.2, "xplus"),
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
    bg = backgrounds.from_params({"family": "linear_z", "B": 1.0,
                                  "switched": False})
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
    # a spelling is parsed once, by the command line's schema; from_params
    # takes the typed value
    assert _linear_z(raw).params["switched"] is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "y", "none"])
def test_from_params_switched_typo_rejected(raw):
    # a misspelt boolean must not build the unswitched field
    with pytest.raises(ConfigError, match="not a boolean"):
        _linear_z(raw)


def _linear_z(switched):
    """linear_z with B = 1 and the given switched: a string through the
    command line's schema, a bool straight to from_params."""
    if isinstance(switched, bool):
        return backgrounds.from_params({"family": "linear_z", "B": 1.0,
                                        "switched": switched})
    return cli._background(cli._parse(
        {"background": {"family": "linear_z", "B": "1", "switched": switched}}))


@pytest.mark.parametrize("family, required, defaults", [
    ("constant", {}, {"m0sq": 1.0}),
    ("linear_z", {"B": 0.7}, {"m0sq": 1.0, "switched": True}),
    ("plane_wave", {}, {"argument": "xplus", "profile": "sin2", "m0sq": 1.0,
                        "amp": 0.5, "k": 1.0}),
    ("special_conformal_switched", {}, {"m0sq": 1.0, "L": 1.0, "k": 1.0}),
    ("special_conformal_gaussian", {}, {"m0sq": 1.0, "L": 1.0, "k": 1.0}),
    ("dilation", {}, {"csq": 1.0}),
])
def test_from_params_defaults_are_the_readme_column(family, required, defaults):
    # every family built from its required keys alone: from_params writes
    # the only copy of the family constants' defaults
    bg = backgrounds.from_params({"family": family} | required)
    assert bg.params == {"family": family} | required | defaults
    for key, value in defaults.items():
        assert type(bg.params[key]) is type(value), key


# ---------------------------------------------------------------------------
# the fused kernel against the per-family formulas, written out
# ---------------------------------------------------------------------------

E_LIGHT, DE_LIGHT = (lambda t: 0.3 * t * t - 0.2 * t), (lambda t: 0.6 * t - 0.2)
W_TAB = np.linspace(-3.0, 6.0, 61)
M2_TAB = 1.0 + 0.4 * np.sin(0.8 * W_TAB) ** 2


def _user_m2(x):
    return 1.0 + 0.1 * np.sin(x.t) * np.cos(x.z) + 0.05 * x.x * x.y


def _user_grad(x):
    return np.array([0.1 * np.cos(x.t) * np.cos(x.z), 0.05 * x.y, 0.05 * x.x,
                     -0.1 * np.sin(x.t) * np.sin(x.z)])


def _ref_user_fd(x, h=1e-5):
    g = np.zeros(4)
    for mu in range(4):
        f2p = _user_m2(x.shifted(mu, 2 * h))
        f1p = _user_m2(x.shifted(mu, h))
        f1m = _user_m2(x.shifted(mu, -h))
        f2m = _user_m2(x.shifted(mu, -2 * h))
        g[mu] = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
    return g


def _ref_inverse_square(f, df):
    # powers as products, as the kernel takes them
    def r2_of(x):
        return x.x * x.x + x.y * x.y

    def m2(x):
        u = x.xminus - r2_of(x) / x.xplus
        return f(u) / (x.xplus * x.xplus)

    def grad(x):
        xp = x.xplus
        r2 = r2_of(x)
        u = x.xminus - r2 / xp
        grad_u = np.array([1.0 + r2 / (xp * xp), -2.0 * x.x / xp, -2.0 * x.y / xp,
                           -1.0 + r2 / (xp * xp)])
        return (df(u) / (xp * xp) * grad_u
                - 2.0 * f(u) / (xp * xp * xp) * np.array([1.0, 0.0, 0.0, 1.0]))
    return m2, grad


def _ref_gaussian(m0sq, L, k):
    # libm's exp on a float, and (k u)^2 a product
    return (lambda u: m0sq * L * L * math.exp(-((k * u) * (k * u))),
            lambda u: -2.0 * k * k * u * (m0sq * L * L * math.exp(-((k * u) * (k * u)))))


def _ref_sin2(m0sq, amp, k, direction):
    # libm's sin on a float, and sin^2 a product
    return (lambda w: m0sq * (1.0 + amp * (math.sin(k * w) * math.sin(k * w))),
            lambda w: m0sq * amp * k * math.sin(2.0 * k * w) * direction)


def _refs():
    """name -> (background, m^2 formula, gradient formula, points)."""
    rng = np.random.default_rng(2024)

    def pts(n, lo=-1.0, hi=1.0, **fixed):
        out = []
        for _ in range(n):
            c = dict(zip("txyz", rng.uniform(lo, hi, 4)))
            c.update(fixed)
            out.append(FourVector(c["t"], c["x"], c["y"], c["z"]))
        return out

    def lf(xplus_lo, xplus_hi, n):
        # x+ in a range, x- nonzero, x_perp zero at every third point, both
        # float types
        out = []
        for i in range(n):
            xp, xm = rng.uniform(xplus_lo, xplus_hi), rng.uniform(-0.8, 0.8)
            x, y = (0.0, 0.0) if i % 3 == 0 else rng.uniform(-0.6, 0.6, 2)
            c = (0.5 * (xp + xm), x, y, 0.5 * (xp - xm))
            out.append(FourVector(*(map(np.float64, c) if i % 2 else c)))
        return out

    on_xplus = [FourVector(1.5 - z, x, y, z) for z, x, y in
                ((0.25, 0.3, -0.2), (0.5, 0.0, 0.0), (-0.25, -0.1, 0.4))]
    assert all(x.xplus == 1.5 for x in on_xplus)
    plus, minus = np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, -1.0])
    from scipy.interpolate import CubicSpline
    spl = CubicSpline(W_TAB, M2_TAB)
    dspl = spl.derivative()
    sq_f, sq_df = (lambda u: 1.0 + u * u), (lambda u: 2.0 * u)
    sq_F = lambda u: u + u ** 3 / 3.0
    g_f, g_df = _ref_gaussian(1.2, 1.5, 0.8)
    sw_m2, sw_grad = _ref_inverse_square(g_f, g_df)
    zero = np.zeros(4)

    def switched(m2_field, grad_field, coord, m0sq, at):
        return (lambda x: m0sq if coord(x) <= at else m2_field(x),
                lambda x: zero if coord(x) < at else grad_field(x))

    lz_m2, lz_grad = switched(lambda x: 1.2 + 0.7 * x.z,
                              lambda x: np.array([0.0, 0.0, 0.0, 0.7]),
                              lambda x: x.z, 1.2, 0.0)
    tl_m2, tl_grad = switched(lambda x: 1.1 + E_LIGHT(x.t),
                              lambda x: np.array([DE_LIGHT(x.t), 0.0, 0.0, 0.0]),
                              lambda x: x.t, 1.1, 0.0)
    scsw_m2, scsw_grad = switched(sw_m2, sw_grad, lambda x: x.xplus, 1.2, 1.5)
    sinp, dsinp = _ref_sin2(1.1, 0.4, 1.5, plus)
    sinm, dsinm = _ref_sin2(1.1, 0.4, 1.5, minus)
    dil_c = 0.9
    return {
        "constant": (backgrounds.constant(1.3), lambda x: 1.3, lambda x: zero,
                     pts(6)),
        "linear_z-switched": (
            backgrounds.linear_z(0.7, 1.2, switched=True), lz_m2, lz_grad,
            pts(6, 0.1, 1.0) + pts(6, -1.0, -0.1) + pts(3, z=0.0) + pts(1, z=-0.0)),
        "linear_z": (backgrounds.linear_z(0.7, 1.2, switched=False),
                     lambda x: 1.2 + 0.7 * x.z,
                     lambda x: np.array([0.0, 0.0, 0.0, 0.7]), pts(6, -1.0, 1.0)),
        "timelike-switched": (
            backgrounds.timelike(E_LIGHT, DE_LIGHT, 1.1, switched=True), tl_m2, tl_grad,
            pts(6, 0.1, 1.0) + pts(6, -1.0, -0.1) + pts(3, t=0.0)),
        "timelike": (backgrounds.timelike(E_LIGHT, DE_LIGHT, 1.1, switched=False),
                     lambda x: 1.1 + E_LIGHT(x.t),
                     lambda x: np.array([DE_LIGHT(x.t), 0.0, 0.0, 0.0]), pts(6)),
        "plane_wave-xplus": (backgrounds.plane_wave_sin2(1.1, 0.4, 1.5, "xplus"),
                             lambda x: sinp(x.xplus), lambda x: dsinp(x.xplus),
                             pts(12, -3.0, 3.0)),
        "plane_wave-xminus": (
            backgrounds.plane_wave_sin2(1.1, 0.4, 1.5, argument="xminus"),
            lambda x: sinm(x.xminus), lambda x: dsinm(x.xminus), pts(12, -3.0, 3.0)),
        "plane_wave-tabulated": (
            backgrounds.plane_wave_tabulated(W_TAB, M2_TAB, "xplus"),
            lambda x: float(spl(x.xplus)),
            lambda x: float(dspl(x.xplus)) * plus, pts(12, -1.4, 2.9)),
        "special_conformal": (backgrounds.special_conformal_mass(sq_f, sq_df, sq_F),
                              *_ref_inverse_square(sq_f, sq_df),
                              lf(0.3, 2.0, 8) + lf(-2.0, -0.3, 6)),
        "sc-switched": (backgrounds.special_conformal_switched(1.2, 1.5, 0.8),
                        scsw_m2, scsw_grad, lf(0.3, 1.4, 6) + lf(1.6, 3.0, 8) + on_xplus),
        "sc-gaussian": (backgrounds.special_conformal_gaussian(1.2, 1.5, 0.8),
                        sw_m2, sw_grad, lf(0.3, 3.0, 8) + lf(-2.0, -0.3, 6) + on_xplus),
        "dilation": (backgrounds.dilation_mass(dil_c),
                     lambda x: dil_c / (x.t * x.t - x.x * x.x - x.y * x.y - x.z * x.z),
                     lambda x: -2.0 * dil_c / ((x.t * x.t - x.x * x.x - x.y * x.y - x.z * x.z)
                                               * (x.t * x.t - x.x * x.x - x.y * x.y
                                                  - x.z * x.z)) * x.lowered(),
                     pts(6, -0.5, 0.5, t=2.0) + pts(6, -0.5, 0.5, t=-1.7)),
        "user-grad": (backgrounds.from_callable(_user_m2, _user_grad), _user_m2,
                      _user_grad, pts(6)),
        "user-fd": (backgrounds.from_callable(_user_m2), _user_m2, _ref_user_fd,
                    pts(6)),
    }


REFS = _refs()


def _same(a, b):
    # equal, with the same sign on every zero (the outputs print signed zeros)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", list(REFS))
def test_kernel_matches_family_formulas(name):
    bg, m2_ref, grad_ref, points = REFS[name]
    assert len(points) >= 6
    for x in points:
        v, g = bg.field_at(x.t, x.x, x.y, x.z)
        assert type(v) is float and len(g) == 4
        assert v == float(m2_ref(x)) and bg.m2(x) == v
        assert _same(g, grad_ref(x)) and _same(bg.grad_m2(x), g)
    batch = FourVector(*(np.array(c) for c in zip(*[(x.t, x.x, x.y, x.z)
                                                  for x in points])))
    assert _same(bg.m2(batch), [bg.m2(x) for x in points])
    assert _same(bg.grad_m2(batch), np.array([bg.grad_m2(x) for x in points]).T)


# the point at signed distance s from the switch surface of each switched
# family of REFS (z = 0, t = 0, x+ = 1.5)
_SURFACE = {"linear_z-switched": lambda s: FourVector(0.3, 0.1, -0.2, s),
            "timelike-switched": lambda s: FourVector(s, 0.1, -0.2, 0.3),
            "sc-switched": lambda s: FourVector(1.25 + s, 0.3, -0.2, 0.25)}


@pytest.mark.parametrize("name", list(REFS))
def test_smooth_at_is_false_only_near_switch_surfaces(name):
    bg, _, _, points = REFS[name]
    assert bool(bg.events) == (name in _SURFACE)
    if name in _SURFACE:
        at = _SURFACE[name]
        for s in (0.0, -0.0, 1e-13, -1e-13):
            assert not bg.smooth_at(at(s))
        for s in (1e-6, -1e-6):
            assert bg.smooth_at(at(s))
    else:
        for x in points + [at(0.0) for at in _SURFACE.values()]:
            assert bg.smooth_at(x)


@pytest.mark.parametrize("name", list(REFS))
def test_smooth_at_gives_a_mask_on_a_batch(name):
    bg, _, _, points = REFS[name]
    pts = points + [at(s) for at in _SURFACE.values()
                    for s in (0.0, 1e-6, -1e-13, -1e-6)]
    batch = FourVector(*np.array([(p.t, p.x, p.y, p.z) for p in pts]).T.copy())
    mask = bg.smooth_at(batch)
    assert mask.dtype == bool and mask.shape == (len(pts),)
    assert mask.tolist() == [bg.smooth_at(p) for p in pts]
    assert mask.all() == (name not in _SURFACE)


def test_profile_is_set_by_the_inverse_square_families_alone():
    ref_f, ref_df = _ref_gaussian(1.2, 1.5, 0.8)
    # int_0^u m0^2 L^2 exp(-k^2 s^2) ds, written out
    ref_F = lambda u: 1.2 * 1.5 * 1.5 * math.sqrt(math.pi) / (2.0 * 0.8) * math.erf(0.8 * u)
    _, fdf = backgrounds._gaussian(1.2, 1.5, 0.8)   # the kernel both fields call
    for bg in (backgrounds.special_conformal_switched(1.2, 1.5, 0.8),
               backgrounds.special_conformal_gaussian(1.2, 1.5, 0.8)):
        f, F = bg.profile
        for u in np.linspace(-2.5, 2.5, 41).tolist() + [-0.0, 1e-3]:
            assert _same(f(u), ref_f(u)) and _same(fdf(u), (ref_f(u), ref_df(u)))
            assert F(u) == pytest.approx(ref_F(u), rel=1e-15, abs=1e-300)
    f, df = (lambda u: 1.0 + u * u), (lambda u: 2.0 * u)
    F = lambda u: u + u ** 3 / 3.0
    assert backgrounds.special_conformal_mass(f, df, F).profile == (f, F)
    for name, (bg, *_) in REFS.items():
        if name not in ("special_conformal", "sc-switched", "sc-gaussian"):
            assert bg.profile is None, name


_COEF = st.floats(-3.0, 3.0, allow_nan=False)
_ENDS = st.floats(-5.0, 5.0, allow_nan=False)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(m0sq=st.floats(0.0, 4.0), L=st.floats(0.1, 2.0),
       k=st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -0.7]), _COEF), a=_ENDS, b=_ENDS)
def test_gaussian_antiderivative_matches_quadrature(m0sq, L, k, a, b):
    f, F = backgrounds.special_conformal_gaussian(m0sq, L, k).profile
    ref = ode.quad(f, a, b)
    assert abs((F(b) - F(a)) - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", [1.0, -0.7, 0.0, 3.0, 30.0])
def test_gaussian_profile_takes_arrays_in_the_bits_of_its_float_calls(k):
    f, F = backgrounds.special_conformal_gaussian(1.3, 0.8, k).profile
    rng = np.random.default_rng(7)
    u = np.concatenate([rng.normal(0.0, 2.0, 3000), rng.uniform(-40.0, 40.0, 1000),
                        [0.0, -0.0, 1e-300, 27.5]])
    # f refuses an infinite u (test_steep_gaussian_slope_is_finite); F takes it
    for fn, u in ((f, u), (F, np.r_[u, np.inf, -np.inf])):
        batch = fn(u)
        assert batch.shape == u.shape
        assert _same(batch, [fn(w) for w in u.tolist()])
        assert _same(fn(u[:0]), [])


def test_steep_gaussian_profile_array_raises_for_its_first_refused_u():
    f, F = backgrounds.special_conformal_gaussian(1.0, 1.0, 1e200).profile
    for u, first in (([0.0, 1e-250, 0.5, np.inf], "0.5"), ([0.0, np.inf, 0.5], "inf"),
                     ([-1e110, 2.0], "-1e+110")):
        with pytest.raises(DomainError, match=rf"k = 1e\+200, u = {re.escape(first)}:"):
            f(np.array(u))
    # the antiderivative saturates instead
    assert F(np.array([0.5, np.inf])).tolist() == [F(0.5), F(np.inf)]


def test_steep_gaussian_raises_domain_error_naming_k_and_u():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1e200)
    f, F = bg.profile
    _, fdf = backgrounds._gaussian(1.0, 1.0, 1e200)
    msg = "k = 1e+200, u = 0.5: (k u)^2 overflows in the Gaussian profile"
    for call in (lambda: f(0.5), lambda: fdf(0.5),
                 lambda: bg.m2(FourVector(1.0, 0.0, 0.0, 0.5)),
                 lambda: bg.field_at(1.0, 0.0, 0.0, 0.5)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == msg
    # on u = 0 (k u)^2 does not overflow, and the antiderivative saturates
    assert f(0.0) == 1.0
    assert F(0.5) == F(np.inf) == math.sqrt(math.pi) / 2e200


def test_point_of_numpy_floats_raises_as_a_batch_of_one():
    # a state's position holds numpy floats, whose ** gives inf (and m^2 = 0)
    # where the kernel's float ** raises
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1e200)
    x = front_state(1.0, 0.3, [0.1, 0.2], 0.5, [0, 0]).position()
    assert isinstance(x.t, np.float64)
    batch = FourVector(*(np.array([c]) for c in (x.t, x.x, x.y, x.z)))
    msg = "k = 1e+200, u = 0.25: (k u)^2 overflows in the Gaussian profile"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: bg.m2(x), lambda: bg.m2(batch), lambda: bg.grad_m2(x),
                     lambda: bg.grad_m2(batch),
                     # p+ on shell reads m^2 at the state's position
                     lambda: extended_state_on_shell(bg, 1.0, 0.3, [0.1, 0.2], 0.5,
                                                     [0, 0])):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == msg


def test_steep_gaussian_slope_is_finite():
    # once k^2 overflows, k * k * u * f is nan on u = 0 and -inf near it
    bg = backgrounds.special_conformal_switched(1.0, 1.0, 1e200)
    f, _ = bg.profile
    _, fdf = backgrounds._gaussian(1.0, 1.0, 1e200)   # the kernel the field calls
    df = lambda u: fdf(u)[1]
    assert df(0.0) == 0.0
    assert df(1e-250) == pytest.approx(-2e150, rel=1e-15)
    assert df(-1e-250) == pytest.approx(2e150, rel=1e-15)
    assert df(1e-100) == 0.0                   # f(u) underflows to 0
    for call in (f, df):                       # k u itself overflows
        with pytest.raises(DomainError, match=r"k = 1e\+200, u = 1e\+110: \(k u\)\^2"):
            call(1e110)
    # the kernel on u = 0, the slice every fig. 2 orbit rides, at x+ = L
    m2, grad = bg.field_at(0.5, 0.0, 0.0, 0.5)
    assert m2 == 1.0 and grad == (-2.0, 0.0, 0.0, -2.0)
    m2, grad = backgrounds.special_conformal_gaussian(1.0, 1.0, 1e200).field_at(
        1.0, 0.0, 0.0, 1.0)
    assert m2 == 0.25 and grad == (-0.25, 0.0, 0.0, -0.25)
    # wherever 4 k^2 is finite, the slope is -2 k k u f to the bit
    for k in (1.0, -0.7, 3.0, 6e153):
        _, fdf = backgrounds._gaussian(1.3, 0.8, k)
        for u in (0.0, -0.0, 1e-160, 0.37, -1.9):
            fu, dfu = fdf(u)
            assert _same(dfu, -2.0 * k * k * u * fu)


def test_kernel_raises_as_the_separate_formulas():
    lz = backgrounds.linear_z(1.0, 1.0, switched=False)
    x = FourVector(0.3, 0.1, 0.2, -2.0)
    for call in (lz.m2, lambda x: lz.field_at(x.t, x.x, x.y, x.z)):
        with pytest.raises(RealityError):
            call(x)
    assert _same(lz.grad_m2(x), [0.0, 0.0, 0.0, 1.0])   # the gradient alone is real
    for bg, x in ((backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0),
                   FourVector(0.5, 0.2, 0.1, -0.5)),
                  (backgrounds.special_conformal_mass(lambda u: 1.0, lambda u: 0.0,
                                                     lambda u: u),
                   FourVector(-0.25, 0.0, 0.0, 0.25)),
                  (backgrounds.dilation_mass(1.0), FourVector(1.0, 0.6, 0.0, 0.8))):
        for call in (bg.m2, bg.grad_m2, lambda x: bg.field_at(x.t, x.x, x.y, x.z)):
            with pytest.raises(SingularityError):
                call(x)


def test_from_callable_m2_calls_user_function_once_per_point():
    calls = {"m2": 0, "grad": 0}

    def m2_fn(x):
        calls["m2"] += 1
        return _user_m2(x)

    def grad_fn(x):
        calls["grad"] += 1
        return _user_grad(x)

    # m2 reads the kernel as field_at does: per point the value and the
    # gradient, the 16-call finite-difference stencil without grad_fn
    fd = backgrounds.from_callable(m2_fn)
    x = FourVector(0.3, 0.1, -0.2, 0.4)
    assert fd.m2(x) == _user_m2(x) and calls["m2"] == 1 + 16
    batch = FourVector(np.array([0.3, 0.5, 0.7]), np.array([0.1, 0.0, -0.1]),
                       np.array([-0.2, 0.2, 0.0]), np.array([0.4, -0.4, 0.1]))
    fd.m2(batch)
    assert calls["m2"] == 4 * (1 + 16)
    fd.field_at(x.t, x.x, x.y, x.z)
    assert calls["m2"] == 5 * (1 + 16)        # the value, then the stencil
    exact = backgrounds.from_callable(m2_fn, grad_fn)
    exact.m2(x)
    assert calls["m2"] == 85 + 1 and calls["grad"] == 1
    exact.m2(batch)
    assert calls["m2"] == 86 + 3 and calls["grad"] == 4
    exact.field_at(x.t, x.x, x.y, x.z)
    assert calls["m2"] == 90 and calls["grad"] == 5


_GAUSS = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
_DIL = backgrounds.dilation_mass(1.0)


# |x+| < 1e-12 and |x.x| < 1e-12 are singular; the values on and just
# outside the thresholds are pinned to the FourVector kernels' output
@pytest.mark.parametrize("bg, point, expected", [
    (_GAUSS, (1e-12, 0.0, 0.0, 0.0), (1.0000000000000001e+24, (-2e+36, 0.0, 0.0, -2e+36))),
    (_GAUSS, (-1e-12, 0.0, 0.0, 0.0), (1.0000000000000001e+24, (2e+36, 0.0, 0.0, 2e+36))),
    (_GAUSS, (0.0, 0.0, 0.0, 1e-12), (1.0000000000000001e+24, (-2e+36, -0.0, -0.0, -2e+36))),
    (_GAUSS, (9.99e-13, 0.0, 0.0, 0.0),
     "x+ = 9.99e-13 on the singular surface of special_conformal_gaussian"),
    (_GAUSS, (-9.99e-13, 0.0, 0.0, 0.0),
     "x+ = -9.99e-13 on the singular surface of special_conformal_gaussian"),
    (_DIL, (1e-06, 0.0, 0.0, 0.0), (1000000000000.0, (-2.0000000000000003e+18, 0.0, 0.0, 0.0))),
    (_DIL, (1.0000001e-06, 0.0, 0.0, 0.0),
     (999999800000.0298, (-1.9999994000001196e+18, 0.0, 0.0, 0.0))),
    (_DIL, (9.99999e-07, 0.0, 0.0, 0.0), "x.x = 9.99998e-13 on the light cone"),
    (_DIL, (1.0, 0.5, 0.5, 0.7071067811866476), "x.x = -1.41553e-13 on the light cone"),
], ids=["x+=1e-12", "x+=-1e-12", "z=1e-12", "x+<1e-12", "x+>-1e-12", "x.x=1e-12",
        "x.x>1e-12", "x.x<1e-12", "x.x>-1e-12"])
def test_kernel_thresholds_as_pinned(bg, point, expected):
    x = FourVector(*point)
    if isinstance(expected, str):
        for call in (lambda: bg.m2(x), lambda: bg.grad_m2(x), lambda: bg.field_at(*point)):
            with pytest.raises(SingularityError) as err:
                call()
            assert str(err.value) == expected
        return
    v, g = bg.field_at(*point)
    assert v == expected[0] and _same(g, expected[1])
    assert bg.m2(x) == expected[0] and _same(bg.grad_m2(x), expected[1])
