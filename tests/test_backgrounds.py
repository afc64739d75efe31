"""Squared-mass families: values, analytic gradients, switch surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from confdyn import backgrounds, ode
from confdyn.errors import DomainError, RealityError, SingularityError
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
    def r2_of(x):
        # numpy's dot, as the kernel takes it
        perp = np.array([x.x, x.y])
        return float(perp @ perp)

    def m2(x):
        u = x.xminus - r2_of(x) / x.xplus
        return f(u) / x.xplus ** 2

    def grad(x):
        xp = x.xplus
        r2 = r2_of(x)
        u = x.xminus - r2 / xp
        grad_u = np.array([1.0 + r2 / xp ** 2, -2.0 * x.x / xp, -2.0 * x.y / xp,
                           -1.0 + r2 / xp ** 2])
        return (df(u) / xp ** 2 * grad_u
                - 2.0 * f(u) / xp ** 3 * np.array([1.0, 0.0, 0.0, 1.0]))
    return m2, grad


def _ref_gaussian(m0sq, L, k):
    return (lambda u: m0sq * L * L * np.exp(-(k * u) ** 2),
            lambda u: -2.0 * k * k * u * (m0sq * L * L * np.exp(-(k * u) ** 2)))


def _ref_sin2(m0sq, amp, k, direction):
    return (lambda w: m0sq * (1.0 + amp * np.sin(k * w) ** 2),
            lambda w: m0sq * amp * k * np.sin(2.0 * k * w) * direction)


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
        "plane_wave-xplus": (backgrounds.plane_wave_sin2(1.1, 0.4, 1.5),
                             lambda x: sinp(x.xplus), lambda x: dsinp(x.xplus),
                             pts(12, -3.0, 3.0)),
        "plane_wave-xminus": (
            backgrounds.plane_wave_sin2(1.1, 0.4, 1.5, argument="xminus"),
            lambda x: sinm(x.xminus), lambda x: dsinm(x.xminus), pts(12, -3.0, 3.0)),
        "plane_wave-tabulated": (
            backgrounds.plane_wave_tabulated(W_TAB, M2_TAB),
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
                     lambda x: -2.0 * dil_c / (x.t * x.t - x.x * x.x - x.y * x.y
                                               - x.z * x.z) ** 2 * x.lowered(),
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
        v, g = bg.m2_and_grad(x)
        assert type(v) is float and len(g) == 4
        assert v == float(m2_ref(x)) and bg.m2(x) == v
        assert _same(g, grad_ref(x)) and _same(bg.grad_m2(x), g)
    batch = FourVector(*(np.array(c) for c in zip(*[(x.t, x.x, x.y, x.z)
                                                  for x in points])))
    assert _same(bg.m2(batch), [bg.m2(x) for x in points])


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


def test_profile_is_set_by_the_inverse_square_families_alone():
    ref_f, ref_df = _ref_gaussian(1.2, 1.5, 0.8)
    # int_0^u m0^2 L^2 exp(-k^2 s^2) ds, written out
    ref_F = lambda u: 1.2 * 1.5 * 1.5 * math.sqrt(math.pi) / (2.0 * 0.8) * math.erf(0.8 * u)
    for bg in (backgrounds.special_conformal_switched(1.2, 1.5, 0.8),
               backgrounds.special_conformal_gaussian(1.2, 1.5, 0.8)):
        f, df, F = bg.profile
        for u in np.linspace(-2.5, 2.5, 41).tolist() + [-0.0, 1e-3]:
            assert _same(f(u), ref_f(u)) and _same(df(u), ref_df(u))
            assert F(u) == pytest.approx(ref_F(u), rel=1e-15, abs=1e-300)
    f, df = (lambda u: 1.0 + u * u), (lambda u: 2.0 * u)
    F = lambda u: u + u ** 3 / 3.0
    assert backgrounds.special_conformal_mass(f, df, F).profile == (f, df, F)
    for name, (bg, *_) in REFS.items():
        if name not in ("special_conformal", "sc-switched", "sc-gaussian"):
            assert bg.profile is None, name


_COEF = st.floats(-3.0, 3.0, allow_nan=False)
_ENDS = st.floats(-5.0, 5.0, allow_nan=False)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(m0sq=st.floats(0.0, 4.0), L=st.floats(0.1, 2.0),
       k=st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -0.7]), _COEF), a=_ENDS, b=_ENDS)
def test_gaussian_antiderivative_matches_quadrature(m0sq, L, k, a, b):
    f, _, F = backgrounds.special_conformal_gaussian(m0sq, L, k).profile
    ref = ode.quad(f, a, b)
    assert abs((F(b) - F(a)) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_steep_gaussian_raises_domain_error_naming_k_and_u():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1e200)
    f, df, F = bg.profile
    msg = "k = 1e+200, u = 0.5: (k u)^2 overflows in the Gaussian profile"
    for call in (lambda: f(0.5), lambda: df(0.5),
                 lambda: bg.m2(FourVector(1.0, 0.0, 0.0, 0.5)),
                 lambda: bg.field_at(1.0, 0.0, 0.0, 0.5)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == msg
    # on u = 0 (k u)^2 does not overflow, and the antiderivative saturates
    assert f(0.0) == 1.0
    assert F(0.5) == F(np.inf) == math.sqrt(math.pi) / 2e200


def test_steep_gaussian_slope_is_finite():
    # once k^2 overflows, k * k * u * f is nan on u = 0 and -inf near it
    bg = backgrounds.special_conformal_switched(1.0, 1.0, 1e200)
    f, df, _ = bg.profile
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
        f, df, _ = backgrounds.special_conformal_gaussian(1.3, 0.8, k).profile
        for u in (0.0, -0.0, 1e-160, 0.37, -1.9):
            assert _same(df(u), -2.0 * k * k * u * f(u))


def test_kernel_raises_as_the_separate_formulas():
    lz = backgrounds.linear_z(1.0, 1.0, switched=False)
    x = FourVector(0.3, 0.1, 0.2, -2.0)
    for call in (lz.m2, lz.m2_and_grad):
        with pytest.raises(RealityError):
            call(x)
    assert _same(lz.grad_m2(x), [0.0, 0.0, 0.0, 1.0])   # the gradient alone is real
    for bg, x in ((backgrounds.special_conformal_gaussian(), FourVector(0.5, 0.2, 0.1, -0.5)),
                  (backgrounds.special_conformal_mass(lambda u: 1.0, lambda u: 0.0,
                                                     lambda u: u),
                   FourVector(-0.25, 0.0, 0.0, 0.25)),
                  (backgrounds.dilation_mass(1.0), FourVector(1.0, 0.6, 0.0, 0.8))):
        for call in (bg.m2, bg.m2_and_grad, bg.grad_m2):
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

    fd = backgrounds.from_callable(m2_fn)
    x = FourVector(0.3, 0.1, -0.2, 0.4)
    assert fd.m2(x) == _user_m2(x) and calls["m2"] == 1
    batch = FourVector(np.array([0.3, 0.5, 0.7]), np.array([0.1, 0.0, -0.1]),
                       np.array([-0.2, 0.2, 0.0]), np.array([0.4, -0.4, 0.1]))
    fd.m2(batch)
    assert calls["m2"] == 4                   # never the 16-call fallback gradient
    fd.m2_and_grad(x)
    assert calls["m2"] == 4 + 1 + 16          # the value, then the stencil
    exact = backgrounds.from_callable(m2_fn, grad_fn)
    exact.m2(x)
    exact.m2(batch)
    assert calls["m2"] == 21 + 4 and calls["grad"] == 0
    exact.m2_and_grad(x)
    assert calls["m2"] == 26 and calls["grad"] == 1


_GAUSS = backgrounds.special_conformal_gaussian()
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
        for call in (lambda: bg.m2(x), lambda: bg.m2_and_grad(x), lambda: bg.grad_m2(x),
                     lambda: bg.field_at(*point)):
            with pytest.raises(SingularityError) as err:
                call()
            assert str(err.value) == expected
        return
    for v, g in (bg.m2_and_grad(x), bg.field_at(*point)):
        assert v == expected[0] and _same(g, expected[1])
    assert bg.m2(x) == expected[0] and _same(bg.grad_m2(x), expected[1])
