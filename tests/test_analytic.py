"""Closed-form orbits against frozen quadrature values and the integrator."""

import warnings

import numpy as np
import pytest
from scipy.special import erf

from confdyn import analytic, backgrounds, conformal
from confdyn.analytic import (
    conformal_orbit,
    planewave_orbit,
    planewave_quantities,
    planewave_xminus,
    spacelike_orbit,
    timelike_orbit,
)
from confdyn.dynamics import (
    EvolveOptions,
    evolve,
    front_state,
    hamiltonian_instant,
    instant_state,
)
from confdyn.errors import DomainError
from oracles import (
    brentq_inversion,
    erf_orbit_asymptote,
    erf_orbit_entry_state,
    erf_orbit_reciprocal,
    erf_orbit_xplus,
    gaussian_kappa,
    pminus_for_kappa,
    quad_antiderivative,
)

_TIGHT = EvolveOptions(rtol=1e-12, atol=1e-12)
# f(u) = exp(-u^2) with its erf antiderivative: the fig. 2 profile in k = L = 1 units
_GAUSS = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# spacelike linear field
# ---------------------------------------------------------------------------

def test_spacelike_orbit_frozen_values():
    orb = spacelike_orbit(1.0, instant_state(0.0, (0, 0, 0), (0, 0, -0.5)))
    c = orb.constants
    # 40-digit quadrature oracle
    assert c["Q5"] == pytest.approx(1.1180339887498948482, abs=1e-15)
    assert c["t_exit"] == pytest.approx(2.2360679774997896964, abs=1e-14)
    assert c["z_max"] == pytest.approx(0.25, abs=1e-15)
    assert c["Lz"] == 0.0
    assert orb.domain == (0.0, c["t_exit"])
    assert orb.momentum(1.0)[3] == pytest.approx(-0.052786404500042060718,
                                                 abs=1e-15)
    x = orb.position(1.0)
    assert x.z == pytest.approx(0.24721359549995793928, abs=1e-15)
    assert x.t == 1.0
    # turning point halfway through, exit back on the interface
    assert orb.position(c["t_turn"]).z == pytest.approx(0.25, abs=1e-14)
    assert orb.position(c["t_exit"]).z == pytest.approx(0.0, abs=1e-13)


def test_spacelike_orbit_matches_evolve():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    init = instant_state(0.0, (0.3, -0.2, 0.0), (0.1, -0.2, -0.45))
    orb = spacelike_orbit(1.0, init)
    traj = evolve(init, bg, (0.0, 0.98 * orb.constants["t_exit"]), _TIGHT)
    xs, ps = orb.sample(traj.times)
    assert np.max(np.abs(xs[:, 1:] - traj.q)) < 1e-8
    assert np.max(np.abs(ps[:, 1:] - traj.p)) < 1e-8
    h = np.array([hamiltonian_instant(s, bg) for s in traj.states()])
    assert np.max(np.abs(ps[:, 0] - h)) < 1e-8


def test_spacelike_orbit_no_bounce_without_entry():
    orb = spacelike_orbit(1.0, instant_state(0.0, (0, 0, 0), (0, 0, 0.3)))
    assert "t_exit" not in orb.constants
    assert orb.domain == (0.0, np.inf)


def test_spacelike_orbit_validation():
    with pytest.raises(ValueError):
        spacelike_orbit(0.0, instant_state(0.0, (0, 0, 0), (0, 0, -0.5)))
    with pytest.raises(ValueError):
        spacelike_orbit(1.0, instant_state(0.0, (0, 0, 0.1), (0, 0, -0.5)))
    with pytest.raises(ValueError):
        spacelike_orbit(1.0, front_state(0.0, 0.0, (0, 0), 0.5, (0, 0)))


def test_spacelike_quantities_frozen_state():
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    st = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    q1, q2, q3, q4, q5 = [q(st, bg) for q in conformal.spacelike_set(1.0)]
    assert q3 == pytest.approx(0.42, abs=1e-15)
    assert q4 == pytest.approx(-0.14, abs=1e-15)
    assert q5 == pytest.approx(1.1874342087037917235, abs=1e-15)
    # the quadratic combination collapses to B Lz
    lz = st.q[0] * st.p[1] - st.q[1] * st.p[0]
    assert q3 * q2 - q4 * q1 == pytest.approx(1.0 * lz, abs=1e-15)
    assert q3 * q2 - q4 * q1 == pytest.approx(-0.07, abs=1e-15)


# ---------------------------------------------------------------------------
# timelike field
# ---------------------------------------------------------------------------

def test_timelike_uniform_motion_zero_profile():
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    orb = timelike_orbit(lambda t: 0.0, init)
    h = np.sqrt(1.21)
    for t in (0.5, 1.0, 2.5):
        x = orb.position(t)
        assert np.allclose([x.x, x.y, x.z], init.q - init.p * t / h, atol=1e-12)
        assert orb.momentum(t)[0] == pytest.approx(h, abs=1e-14)
    assert orb.constants["p.L"] == pytest.approx(0.0, abs=1e-15)


def test_timelike_quadrature_frozen():
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    orb = timelike_orbit(lambda t: 0.5 * t, init)
    x = orb.position(2.0)
    assert x.x == pytest.approx(0.3453572501072597791, abs=1e-12)
    assert x.y == pytest.approx(0.009285499785480441809, abs=1e-12)
    assert x.z == pytest.approx(0.81857099957096088362, abs=1e-12)
    assert orb.momentum(2.0)[0] == pytest.approx(1.4866068747318505523,
                                                 abs=1e-14)


def test_timelike_matches_evolve():
    bg = backgrounds.timelike(lambda t: 0.5 * t, lambda t: 0.5, switched=False)
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    orb = timelike_orbit(lambda t: 0.5 * t, init)
    traj = evolve(init, bg, (0.0, 2.0), _TIGHT)
    xs, ps = orb.sample(traj.times)
    assert np.max(np.abs(xs[:, 1:] - traj.q)) < 1e-8
    assert np.max(np.abs(ps[:, 1:] - traj.p)) < 1e-12


# ---------------------------------------------------------------------------
# plane wave
# ---------------------------------------------------------------------------

def test_planewave_quantities_on_shell():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    st = front_state(0.4, -0.2, (0.3, 0.1), 0.7, (0.15, -0.25))
    q = planewave_quantities(st, bg)
    assert sorted(q) == [f"Q{i}" for i in range(1, 8)]
    assert q["Q1"] == 0.15 and q["Q2"] == -0.25 and q["Q3"] == 0.7
    # lifting a front state puts p+ on shell, so the mass-shell charge is 0
    assert abs(q["Q6"]) < 1e-14
    # the cubic charge inverts back to x-
    assert planewave_xminus(bg, 0.4, q) == pytest.approx(-0.2, abs=1e-14)


def test_planewave_orbit_matches_evolve():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    st = front_state(0.0, 0.1, (0.2, -0.3), 0.7, (0.1, -0.2))
    orb = planewave_orbit(bg, st)
    traj = evolve(st, bg, (0.0, 6.0), _TIGHT)
    for i in range(0, len(traj.times), 40):
        xp = traj.times[i]
        x = orb.position(xp)
        s = traj.state(i)
        assert x.xminus == pytest.approx(s.q[0], abs=1e-8)
        assert np.allclose((x.x, x.y), s.q[1:], atol=1e-9)
        p = orb.momentum(xp)
        pm = 0.5 * (p[0] - p[3])
        assert pm == pytest.approx(s.p[0], abs=1e-12)
        assert np.allclose(p[1:3], s.p[1:], atol=1e-12)


def test_planewave_quantities_reject_other_arguments():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, argument="xminus")
    st = front_state(0.0, 0.1, (0.0, 0.0), 0.6, (0.0, 0.0))
    with pytest.raises(DomainError):
        planewave_quantities(st, bg)


# ---------------------------------------------------------------------------
# special conformal orbit
# ---------------------------------------------------------------------------

def test_erf_orbit_entry_oracle():
    # frozen 40-digit entry momenta for the four plotted steepness values
    oracle = {
        0.3: 0.29090967246237008378,
        0.5: 0.37556277223247124143,
        0.7: 0.44437186481787379293,
        0.9: 0.50387033311804568787,
    }
    for kappa, pm in oracle.items():
        assert pminus_for_kappa(kappa) == pytest.approx(pm, abs=1e-15)
        assert gaussian_kappa(pm) == pytest.approx(kappa, abs=1e-15)
        st = erf_orbit_entry_state(kappa)
        assert st.form == "front" and st.time == 1.0
        assert st.p[0] == pytest.approx(pm, abs=1e-15)
        assert np.all(st.q == 0.0) and np.all(st.p[1:] == 0.0)


def test_erf_helper_functions():
    assert erf_orbit_reciprocal(0.3, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert erf_orbit_asymptote(0.9) == pytest.approx(10.0, rel=1e-12)
    assert erf_orbit_asymptote(1.0) == np.inf
    # past the sign change of the reciprocal the orbit never arrives
    vals = erf_orbit_xplus(2.0, [0.0, 5.0])
    assert vals[0] == pytest.approx(1.0) and vals[1] == np.inf
    # frozen endpoint of the plotted window for kappa = 0.5
    assert erf_orbit_xplus(0.5, 3.75) == pytest.approx(1.9999997725455127282,
                                                       rel=1e-14)


def test_conformal_orbit_reproduces_erf_curve():
    kappa = 0.5
    st = erf_orbit_entry_state(kappa)
    orb = conformal_orbit(_GAUSS, st)
    assert orb.constants["xplus_asymptote"] == pytest.approx(2.0, rel=1e-9)
    q3 = orb.constants["Q3"]
    assert q3 == pytest.approx(-1.0 / (4.0 * st.p[0]), rel=1e-14)
    for xm in np.linspace(0.1, 3.5, 12):
        xp = float(erf_orbit_xplus(kappa, xm))
        x = orb.position(xp)
        assert x.xminus == pytest.approx(xm, abs=1e-9)
        assert (x.x, x.y) == pytest.approx([0.0, 0.0], abs=1e-15)
        p = orb.momentum(xp)
        pm = 0.5 * (p[0] - p[3])
        assert pm == pytest.approx(np.exp(-xm * xm) / (4.0 * abs(q3)),
                                   rel=1e-9)


def test_conformal_orbit_mass_shell_closure():
    st = erf_orbit_entry_state(0.7)
    f = _GAUSS.profile[0]
    orb = conformal_orbit(_GAUSS, st)
    for xp in (1.1, 1.5, 2.2, 3.0):
        x = orb.position(xp)
        p = orb.momentum(xp)
        pp, pm = 0.5 * (p[0] + p[3]), 0.5 * (p[0] - p[3])
        m2 = f(x.xminus) / xp ** 2
        assert 4.0 * pp * pm - p[1] ** 2 - p[2] ** 2 == pytest.approx(
            m2, rel=1e-9)


def test_conformal_orbit_transverse_matches_evolve():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    st = front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05))
    orb = conformal_orbit(bg, st, xplus_max=3.0)
    traj = evolve(st, bg, (1.0, 3.0), _TIGHT)
    for i in range(0, len(traj.times), 50):
        xp = traj.times[i]
        x = orb.position(xp)
        s = traj.state(i)
        assert x.xminus == pytest.approx(s.q[0], abs=1e-7)
        assert np.allclose((x.x, x.y), s.q[1:], atol=1e-7)
        p = orb.momentum(xp)
        assert 0.5 * (p[0] - p[3]) == pytest.approx(s.p[0], abs=1e-7)


def test_conformal_orbit_transverse_needs_range():
    st = front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05))
    with pytest.raises(DomainError):
        conformal_orbit(_GAUSS, st)
    # the transverse ODE runs forward from x0+ = 1: its domain is empty here
    for xplus_max in (1.0, 0.5):
        with pytest.raises(DomainError):
            conformal_orbit(_GAUSS, st, xplus_max=xplus_max)


class _SolveIvpSteps:
    """Stands in for ode.RK45 in analytic: runs scipy's solve_ivp once, at
    the transverse sector's tolerances, and replays its steps, each step's
    dense output being the whole solution, so that every read of the orbit
    goes through scipy's own segment choice."""

    ends = []

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        from scipy.integrate import solve_ivp
        res = solve_ivp(fun, (t0, t_bound), y0, method="RK45", rtol=1e-11,
                        atol=1e-13, dense_output=True)
        assert res.success
        self.sol = res.sol
        self._ends = iter(res.t[1:])
        self.status = "running"
        _SolveIvpSteps.ends = list(res.t)

    def step(self):
        self.t = next(self._ends)
        if self.t == _SolveIvpSteps.ends[-1]:
            self.status = "finished"

    def dense_output(self):
        return self.sol


def test_conformal_transverse_orbit_equals_solve_ivp(monkeypatch):
    def build():
        return conformal_orbit(_GAUSS,
                               front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05)),
                               xplus_max=3.0)

    orb = build()
    with monkeypatch.context() as m:
        m.setattr(analytic, "RK45", _SolveIvpSteps)
        ref = build()
        ends = np.array(_SolveIvpSteps.ends)
        assert ends[0] == 1.0 and ends[-1] == 3.0 and len(ends) > 5
        # x0+, every step end and the middle of every step
        ws = np.sort(np.concatenate([ends, 0.5 * (ends[1:] + ends[:-1])]))
        rxs, rps = ref.sample(ws)
    xs, ps = orb.sample(ws)
    assert np.array_equal(xs, rxs) and np.array_equal(ps, rps)


def test_conformal_orbit_validation():
    zero = backgrounds.special_conformal_mass(lambda u: 0.0, lambda u: 0.0,
                                              lambda u: 0.0)
    negative = backgrounds.special_conformal_mass(lambda u: -1.0, lambda u: 0.0,
                                                  lambda u: -u)
    with pytest.raises(DomainError):
        conformal_orbit(_GAUSS, front_state(-1.0, 0.0, (0, 0), 0.5, (0, 0)))
    with pytest.raises(DomainError):
        # f = 0 kills the special conformal charge for trivial entries
        conformal_orbit(zero, front_state(1.0, 0.0, (0, 0), 0.5, (0, 0)))
    with pytest.raises(DomainError):
        conformal_orbit(negative, front_state(1.0, 0.0, (0, 0), 0.5, (0, 0)))


def test_conformal_orbit_beyond_asymptote():
    orb = conformal_orbit(_GAUSS, erf_orbit_entry_state(0.5))
    with pytest.raises(DomainError):
        orb.position(2.5)  # asymptote sits at x+ = 2


def test_erf_curve_consistent_with_background():
    # the Gaussian background family evaluates to f(u)/x+^2 on the orbit
    orb = conformal_orbit(_GAUSS, erf_orbit_entry_state(0.3))
    for xp in (1.05, 1.2, 1.38):
        x = orb.position(xp)
        assert _GAUSS.m2(x) == pytest.approx(np.exp(-x.xminus ** 2) / xp ** 2,
                                         rel=1e-12)


# ---------------------------------------------------------------------------
# joint evaluation: one (position, momentum) point per parameter value
# ---------------------------------------------------------------------------

def _erf_orbit(kappa=0.5, bg=_GAUSS):
    return conformal_orbit(bg, erf_orbit_entry_state(kappa))


# x+ on both sides of the entry at x+ = 1, so both bracket directions run
_ERF_WS = np.concatenate([np.linspace(0.7, 0.95, 6), np.linspace(1.05, 1.95, 19)])


def test_conformal_sample_inverts_once_per_point(monkeypatch):
    f, df, F = _GAUSS.profile
    newton_calls = []   # (start, lo, hi, the F(u) arguments it made)
    edges = []  # arguments of the F calls made outside newton
    inner = None

    def counting_F(u):
        (edges if inner is None else inner).append(u)
        return F(u)

    orb = _erf_orbit(bg=backgrounds.special_conformal_mass(f, df, counting_F))
    real_newton = analytic.newton

    def counting_newton(f, fprime, x, fx, lo, hi, xtol, rtol):
        nonlocal inner
        inner = []
        newton_calls.append((x, lo, hi, inner))
        try:
            return real_newton(f, fprime, x, fx, lo, hi, xtol, rtol)
        finally:
            inner = None

    monkeypatch.setattr(analytic, "newton", counting_newton)
    xs, _ = orb.sample(_ERF_WS)
    # one u(x+) inversion per sample off the entry point
    assert len(newton_calls) == len(_ERF_WS)
    # each starts from a bracket edge already evaluated, and does not
    # evaluate G there again
    for x, lo, hi, inner_us in newton_calls:
        assert x in (lo, hi) and x in edges and x not in inner_us
    # each bracket edge G(u0 +- 2^k) is evaluated once per orbit (so are
    # F(u0) and the asymptote's F(inf))
    assert edges and len(edges) == len(set(edges))
    assert min(edges) < 0.0 < max(edges)
    # the orbit still sits on the error-function curve
    xminus = xs[:, 0] - xs[:, 3]
    assert np.allclose(erf_orbit_xplus(0.5, xminus), _ERF_WS, rtol=1e-9)


# fig. 2's window: from the entry at x+ = 1 to k x- = 3.75
@pytest.mark.parametrize("build, ws", [
    *[((lambda k=kappa: _erf_orbit(k)),
       np.linspace(1.0, 1.0 / (1.0 - kappa * erf(3.75)), 101))
      for kappa in (0.3, 0.5, 0.7, 0.9)],
    (lambda: conformal_orbit(_GAUSS,
                             front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05)),
                             xplus_max=3.0),
     np.linspace(1.0, 3.0, 41)),
], ids=["kappa0.3", "kappa0.5", "kappa0.7", "kappa0.9", "transverse"])
def test_newton_inversion_matches_brentq(monkeypatch, build, ws):
    xs, ps = build().sample(ws)
    monkeypatch.setattr(analytic, "newton", brentq_inversion)
    rxs, rps = build().sample(ws)
    # x- = t - z; toward k x- = 3.75 the weight falls to ~1e-6, which
    # magnifies the rounding of G(u) into u
    assert np.max(np.abs((xs[:, 0] - xs[:, 3]) - (rxs[:, 0] - rxs[:, 3]))) <= 1e-9
    assert np.all(np.linalg.norm(ps - rps, axis=1)
                  <= 1e-12 * np.linalg.norm(rps, axis=1))


@pytest.mark.parametrize("build, ws", [
    (lambda: spacelike_orbit(1.0, instant_state(0.0, (0.3, -0.2, 0.0),
                                                (0.1, -0.2, -0.45))),
     np.linspace(0.0, 2.0, 9)),
    (lambda: timelike_orbit(lambda t: 0.5 * t,
                            instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))),
     np.linspace(0.0, 2.0, 7)),
    (lambda: planewave_orbit(backgrounds.plane_wave_sin2(1.0, 0.5, 1.0),
                             front_state(0.0, 0.1, (0.2, -0.3), 0.7, (0.1, -0.2))),
     np.linspace(0.0, 6.0, 9)),
    (_erf_orbit, _ERF_WS),
    (lambda: conformal_orbit(_GAUSS,
                             front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05)),
                             xplus_max=3.0),
     np.linspace(1.0, 3.0, 9)),
], ids=["spacelike", "timelike", "plane_wave", "conformal", "conformal-transverse"])
def test_sample_rows_equal_pointwise_reads(build, ws):
    xs, ps = build().sample(ws)
    assert xs.shape == ps.shape == (len(ws), 4)
    # a second orbit read point by point in reverse: no row may depend on
    # which points were evaluated before it
    other = build()
    for w, x, p in zip(ws[::-1], xs[::-1], ps[::-1]):
        assert np.all(other.position(w).as_array() == x)
        assert np.all(other.momentum(w) == p)


# ---------------------------------------------------------------------------
# the Gaussian profile's integral in closed form
# ---------------------------------------------------------------------------

def _quadrature_gauss():
    """The fig. 2 profile with its antiderivative by adaptive quadrature."""
    f, df, _ = _GAUSS.profile
    return backgrounds.special_conformal_mass(f, df, quad_antiderivative(f))


# fig. 2's window and the transverse start, as in the Newton-vs-brentq check
@pytest.mark.parametrize("state, kwargs, ws", [
    *[(erf_orbit_entry_state(kappa), {},
       np.linspace(1.0, 1.0 / (1.0 - kappa * erf(3.75)), 101))
      for kappa in (0.3, 0.5, 0.7, 0.9)],
    (front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05)), {"xplus_max": 3.0},
     np.linspace(1.0, 3.0, 101)),
    # entry off u = 0, so F(u0) != 0; the asymptote lies at x+ = 3.31
    (front_state(1.0, 0.4, (0, 0), 0.5, (0, 0)), {}, np.linspace(0.8, 3.2, 101)),
], ids=["kappa0.3", "kappa0.5", "kappa0.7", "kappa0.9", "transverse", "offset"])
def test_closed_form_integral_matches_quadrature(state, kwargs, ws):
    closed = conformal_orbit(_GAUSS, state, **kwargs)
    quadrature = conformal_orbit(_quadrature_gauss(), state, **kwargs)
    xs, ps = closed.sample(ws)
    rxs, rps = quadrature.sample(ws)
    assert np.max(np.abs((xs[:, 0] - xs[:, 3]) - (rxs[:, 0] - rxs[:, 3]))) <= 1e-9
    assert np.all(np.linalg.norm(ps - rps, axis=1)
                  <= 1e-12 * np.linalg.norm(rps, axis=1))
    assert closed.constants["xplus_asymptote"] == pytest.approx(
        quadrature.constants["xplus_asymptote"], rel=1e-12)


def test_closed_form_orbit_takes_no_quadrature(monkeypatch):
    def no_quad(*args):
        raise AssertionError("quad called")

    monkeypatch.setattr(analytic, "quad", no_quad)
    xs, _ = _erf_orbit().sample(_ERF_WS)
    assert np.allclose(erf_orbit_xplus(0.5, xs[:, 0] - xs[:, 3]), _ERF_WS, rtol=1e-9)


def test_weight_negative_beyond_the_entry_raises():
    # Q_perp^2 + f = 0.9 - u is negative at the bracket edge u = 1 that
    # Newton's method starts from: the inversion raises, it returns no u
    bg = backgrounds.special_conformal_mass(lambda u: 0.9 - u, lambda u: -1.0,
                                            lambda u: 0.9 * u - 0.5 * u * u)
    orb = conformal_orbit(bg, front_state(1.0, 0.0, (0, 0), 0.5, (0, 0)))
    with pytest.raises(DomainError, match="non-monotone"):
        orb.position(1.5)


def test_divergent_weight_integral_has_no_asymptote():
    # f = 1: int_0^inf f diverges, and the asymptote is read without a warning
    flat = backgrounds.special_conformal_gaussian(1.0, 1.0, 0.0)
    state = front_state(1.0, 0.0, (0, 0), 0.5, (0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = conformal_orbit(flat, state)
        assert orb.constants["xplus_asymptote"] == np.inf
        # 4 Q3^2 = 1 at p- = 0.5, f = 1: 1/x+ = 1 - u
        assert orb.position(4.0).xminus == pytest.approx(0.75, rel=1e-12)
