"""Closed-form orbits against frozen quadrature values and the integrator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    quantity_values,
)
from confdyn.errors import DomainError
from oracles import (
    brentq_inversion,
    conformal_points,
    erf_orbit_asymptote,
    erf_orbit_entry_state,
    erf_orbit_reciprocal,
    erf_orbit_xplus,
    gaussian_kappa,
    gaussian_slope,
    orbit_at,
    planewave_point,
    pminus_for_kappa,
    points,
    quad_antiderivative,
    sample_points,
    spacelike_point,
)

_TIGHT = EvolveOptions(rtol=1e-12, atol=1e-12)
# f(u) = exp(-u^2) with its erf antiderivative: the fig. 2 profile in k = L = 1 units
_GAUSS = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
# fig. 1's field, m^2 = 1 + z switched on at z = 0
_FIG1 = backgrounds.linear_z(1.0, 1.0, switched=True)


# ---------------------------------------------------------------------------
# spacelike linear field
# ---------------------------------------------------------------------------

def test_spacelike_orbit_frozen_values():
    orb = spacelike_orbit(_FIG1, instant_state(0.0, (0, 0, 0), (0, 0, -0.5)))
    c = orb.constants
    # 40-digit quadrature oracle
    assert c["Q5"] == pytest.approx(1.1180339887498948482, abs=1e-15)
    assert c["t_exit"] == pytest.approx(2.2360679774997896964, abs=1e-14)
    assert c["z_max"] == pytest.approx(0.25, abs=1e-15)
    assert c["Lz"] == 0.0
    assert orb.domain == (0.0, c["t_exit"])
    x, p = orbit_at(orb, 1.0)
    assert p[3] == pytest.approx(-0.052786404500042060718, abs=1e-15)
    assert x.z == pytest.approx(0.24721359549995793928, abs=1e-15)
    assert x.t == 1.0
    # turning point halfway through, exit back on the interface
    assert orbit_at(orb, c["t_turn"])[0].z == pytest.approx(0.25, abs=1e-14)
    assert orbit_at(orb, c["t_exit"])[0].z == pytest.approx(0.0, abs=1e-13)


def test_spacelike_orbit_matches_evolve():
    bg = _FIG1
    init = instant_state(0.0, (0.3, -0.2, 0.0), (0.1, -0.2, -0.45))
    orb = spacelike_orbit(bg, init)
    traj = evolve(init, bg, (0.0, 0.98 * orb.constants["t_exit"]), _TIGHT)
    xs, ps = orb.sample(traj.times)
    assert np.max(np.abs(xs[:, 1:] - traj.q)) < 1e-8
    assert np.max(np.abs(ps[:, 1:] - traj.p)) < 1e-8
    h = np.array([hamiltonian_instant(s, bg) for s in points(traj.batch_state())])
    assert np.max(np.abs(ps[:, 0] - h)) < 1e-8


def test_spacelike_orbit_no_bounce_without_entry():
    orb = spacelike_orbit(_FIG1, instant_state(0.0, (0, 0, 0), (0, 0, 0.3)))
    assert "t_exit" not in orb.constants
    assert orb.domain == (0.0, np.inf)


def test_spacelike_orbit_validation():
    with pytest.raises(ValueError):
        spacelike_orbit(backgrounds.linear_z(0.0, 1.0, switched=True),
                        instant_state(0.0, (0, 0, 0), (0, 0, -0.5)))
    with pytest.raises(ValueError):
        spacelike_orbit(_FIG1, instant_state(0.0, (0, 0, 0.1), (0, 0, -0.5)))
    with pytest.raises(ValueError):
        spacelike_orbit(_FIG1, front_state(0.0, 0.0, (0, 0), 0.5, (0, 0)))


_ZEROS = st.sampled_from((0.0, -0.0))
_COMPONENTS = _ZEROS | st.floats(-2.0, 2.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(B=st.floats(0.05, 3.0), sign=st.sampled_from((1.0, -1.0)),
       m0sq=st.floats(0.1, 2.0), switched=st.booleans(), t=_ZEROS, z=_ZEROS,
       xy=st.tuples(_COMPONENTS, _COMPONENTS),
       p=st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS))
def test_spacelike_orbit_constants_are_the_charges(B, sign, m0sq, switched, t, z,
                                                   xy, p):
    # the orbit's Q1-Q5 are spacelike_set(B)'s values on the entry: the
    # hidden Q3, Q4 and the energy Q5 in their bits; the momenta Q1 = p1 and
    # Q2 = p2 equal the generator charges, whose sum 0 H + p1 + ... may turn
    # a -0.0 into 0.0
    bg = backgrounds.linear_z(sign * B, m0sq, switched=switched)
    init = instant_state(t, (*xy, z), p)
    consts = spacelike_orbit(bg, init).constants
    values = quantity_values(conformal.spacelike_set(sign * B), init, bg)
    got = [consts[f"Q{i}"] for i in range(1, 6)]
    assert got == values
    assert [float(v).hex() for v in got[2:]] == [float(v).hex() for v in values[2:]]


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
    orb = timelike_orbit(lambda t: 0.0, init, 1.0)
    h = np.sqrt(1.21)
    for t in (0.5, 1.0, 2.5):
        x, p = orbit_at(orb, t)
        assert np.allclose([x.x, x.y, x.z], init.q - init.p * t / h, atol=1e-12)
        assert p[0] == pytest.approx(h, abs=1e-14)
    assert orb.constants["p.L"] == pytest.approx(0.0, abs=1e-15)


def test_timelike_quadrature_frozen():
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    orb = timelike_orbit(lambda t: 0.5 * t, init, 1.0)
    x, p = orbit_at(orb, 2.0)
    assert x.x == pytest.approx(0.3453572501072597791, abs=1e-12)
    assert x.y == pytest.approx(0.009285499785480441809, abs=1e-12)
    assert x.z == pytest.approx(0.81857099957096088362, abs=1e-12)
    assert p[0] == pytest.approx(1.4866068747318505523, abs=1e-14)


def test_timelike_matches_evolve():
    bg = backgrounds.timelike(lambda t: 0.5 * t, lambda t: 0.5, switched=False)
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4))
    orb = timelike_orbit(lambda t: 0.5 * t, init, 1.0)
    traj = evolve(init, bg, (0.0, 2.0), _TIGHT)
    xs, ps = orb.sample(traj.times)
    assert np.max(np.abs(xs[:, 1:] - traj.q)) < 1e-8
    assert np.max(np.abs(ps[:, 1:] - traj.p)) < 1e-12


# ---------------------------------------------------------------------------
# plane wave
# ---------------------------------------------------------------------------

def test_planewave_quantities_on_shell():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = front_state(0.4, -0.2, (0.3, 0.1), 0.7, (0.15, -0.25))
    q = planewave_quantities(st, bg)
    assert sorted(q) == [f"Q{i}" for i in range(1, 8)]
    assert q["Q1"] == 0.15 and q["Q2"] == -0.25 and q["Q3"] == 0.7
    # lifting a front state puts p+ on shell, so the mass-shell charge is 0
    assert abs(q["Q6"]) < 1e-14
    # the cubic charge inverts back to x-
    assert planewave_xminus(bg, 0.4, q) == pytest.approx(-0.2, abs=1e-14)


def test_planewave_orbit_matches_evolve():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = front_state(0.0, 0.1, (0.2, -0.3), 0.7, (0.1, -0.2))
    orb = planewave_orbit(bg, st)
    traj = evolve(st, bg, (0.0, 6.0), _TIGHT)
    states = points(traj.batch_state())
    for i in range(0, len(traj.times), 40):
        xp = traj.times[i]
        x, p = orbit_at(orb, xp)
        s = states[i]
        assert x.xminus == pytest.approx(s.q[0], abs=1e-8)
        assert np.allclose((x.x, x.y), s.q[1:], atol=1e-9)
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
        x, p = orbit_at(orb, xp)
        assert x.xminus == pytest.approx(xm, abs=1e-9)
        assert (x.x, x.y) == pytest.approx([0.0, 0.0], abs=1e-15)
        pm = 0.5 * (p[0] - p[3])
        assert pm == pytest.approx(np.exp(-xm * xm) / (4.0 * abs(q3)),
                                   rel=1e-9)


def test_conformal_orbit_mass_shell_closure():
    st = erf_orbit_entry_state(0.7)
    f = _GAUSS.profile[0]
    orb = conformal_orbit(_GAUSS, st)
    for xp in (1.1, 1.5, 2.2, 3.0):
        x, p = orbit_at(orb, xp)
        pp, pm = 0.5 * (p[0] + p[3]), 0.5 * (p[0] - p[3])
        m2 = f(x.xminus) / xp ** 2
        assert 4.0 * pp * pm - p[1] ** 2 - p[2] ** 2 == pytest.approx(
            m2, rel=1e-9)


# a start with x_perp, p_perp and Q_perp all nonzero
_TRANSVERSE = front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05))
_TIGHTER = EvolveOptions(rtol=1e-13, atol=1e-13)


def _front_row(orb, xp):
    """(x-, x1, x2, p-, p1, p2) of the orbit at x+, the front-form slots."""
    x, p = orbit_at(orb, xp)
    return np.array([x.xminus, x.x, x.y, 0.5 * (p[0] - p[3]), p[1], p[2]])


def test_conformal_orbit_transverse_matches_evolve():
    orb = conformal_orbit(_GAUSS, _TRANSVERSE)
    traj = evolve(_TRANSVERSE, _GAUSS, (1.0, 3.0), _TIGHTER)
    for xp, s in zip(traj.times, points(traj.batch_state())):
        assert np.max(np.abs(_front_row(orb, xp) - np.r_[s.q, s.p])) <= 2e-12


def test_conformal_orbit_reads_before_its_start():
    # the closed form holds on both sides of x0+: the state it gives at
    # x+ = 0.7, evolved forward, comes back to the start at x0+ = 1
    orb = conformal_orbit(_GAUSS, _TRANSVERSE)
    row = _front_row(orb, 0.7)
    early = front_state(0.7, row[0], row[1:3], row[3], row[4:])
    traj = evolve(early, _GAUSS, (0.7, 1.0), _TIGHTER)
    end = points(traj.batch_state())[-1]
    assert end.time == 1.0
    assert np.max(np.abs(np.r_[end.q - _TRANSVERSE.q, end.p - _TRANSVERSE.p])) <= 1e-12


def test_conformal_orbit_without_transverse_charge_has_an_asymptote():
    # Q_perp = 2 p- x_perp + x+ p_perp = 0 with x_perp, p_perp != 0: G(u) is
    # F(u) - F(u0) alone, bounded, so the orbit reaches a finite x+
    st = front_state(1.0, 0.0, (0.2, 0.0), 0.5, (-0.2, 0.0))
    orb = conformal_orbit(_GAUSS, st)
    c = orb.constants
    assert c["Q1"] == c["Q2"] == 0.0
    asym = c["xplus_asymptote"]
    assert np.isfinite(asym) and asym == pytest.approx(14.11915017, rel=1e-9)
    assert orb.domain == (1.0, asym)
    # x_perp/x+ stays at its start, and the orbit starts where the state does
    assert orbit_at(orb, 5.0)[0].x == pytest.approx(5.0 * 0.2, rel=1e-14)
    assert np.allclose(_front_row(orb, 1.0), np.r_[st.q, st.p], rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):
        orbit_at(orb, 1.01 * asym)


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
        orbit_at(orb, 2.5)  # asymptote sits at x+ = 2


def test_erf_curve_consistent_with_background():
    # the Gaussian background family evaluates to f(u)/x+^2 on the orbit
    orb = conformal_orbit(_GAUSS, erf_orbit_entry_state(0.3))
    for xp in (1.05, 1.2, 1.38):
        x = orbit_at(orb, xp)[0]
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
    f, F = _GAUSS.profile
    df = gaussian_slope(f, 1.0)
    edges = []   # the u of the float F calls: bracket edges, u0 and inf
    starts = []  # Newton's start and bracket per point, one entry per sample
    seen = {}    # point -> the u at which Newton's method evaluates G

    def counting_F(u):
        if not np.ndim(u):
            edges.append(u)
        return F(u)

    orb = _erf_orbit(bg=backgrounds.special_conformal_mass(f, df, counting_F))
    real_newton = analytic.masked_newton

    def counting_newton(f, fprime, x, fx, lo, hi, xtol, rtol):
        starts.append((x.copy(), lo.copy(), hi.copy(), len(edges)))

        def counting_f(u, i):
            for point, v in zip(i.tolist(), u.tolist()):
                seen.setdefault(point, []).append(v)
            return f(u, i)
        return real_newton(counting_f, fprime, x, fx, lo, hi, xtol, rtol)

    monkeypatch.setattr(analytic, "masked_newton", counting_newton)
    xs, _ = orb.sample(_ERF_WS)
    # one batch inversion per sample
    assert len(starts) == 1
    x, lo, hi, made = starts[0]
    assert len(x) == len(_ERF_WS) and made == len(edges)
    # each starts from a bracket edge already evaluated, and does not
    # evaluate G there again
    for i, start in enumerate(x.tolist()):
        assert start in (lo[i], hi[i]) and start in edges
        assert start not in seen.get(i, [])
    # each bracket edge G(u0 +- 2^k) is evaluated once per orbit, a second
    # sample included (so are F(u0) and the asymptote's F(inf))
    orb.sample(_ERF_WS[::-1])
    assert len(starts) == 2 and len(edges) == made
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
    (lambda: conformal_orbit(_GAUSS, _TRANSVERSE),
     np.linspace(1.0, 3.0, 41)),
], ids=["kappa0.3", "kappa0.5", "kappa0.7", "kappa0.9", "transverse"])
def test_newton_inversion_matches_brentq(build, ws):
    orb = build()
    xs, ps = orb.sample(ws)
    # Brent's method on each point's bracket, one point at a time
    point = conformal_points(_GAUSS, _entry_of(orb), root=brentq_inversion)
    rxs, rps = sample_points(point, ws)
    # x- = t - z; toward k x- = 3.75 the weight falls to ~1e-6, which
    # magnifies the rounding of G(u) into u
    assert np.max(np.abs((xs[:, 0] - xs[:, 3]) - (rxs[:, 0] - rxs[:, 3]))) <= 1e-9
    assert np.all(np.linalg.norm(ps - rps, axis=1)
                  <= 1e-12 * np.linalg.norm(rps, axis=1))


def _entry_of(orb):
    """The front-form state a conformal orbit starts from."""
    row = _front_row(orb, orb.constants["xplus0"])
    return front_state(orb.constants["xplus0"], row[0], row[1:3], row[3], row[4:])


# ---------------------------------------------------------------------------
# the batch evaluators against the per-point oracles, byte for byte
# ---------------------------------------------------------------------------

def _kappa_ws(kappa):
    """fig. 2's window for kappa, from its entry at x+ = 1 to k x- = 3.75,
    and x+ before the entry, where the bracket doubles the other way."""
    return np.concatenate([np.linspace(0.85, 1.0, 16),
                           np.linspace(1.0, 1.0 / (1.0 - kappa * erf(3.75)), 500)])


_OFFSET = front_state(1.0, 0.4, (0, 0), 0.5, (0, 0))


@pytest.mark.parametrize("state, ws", [
    *[(erf_orbit_entry_state(kappa), _kappa_ws(kappa)) for kappa in (0.3, 0.5, 0.7, 0.9)],
    # the benchmark's fig2 draws: kappa uniform in [0.3, 0.9]
    *[(erf_orbit_entry_state(kappa), _kappa_ws(kappa))
      for kappa in np.random.default_rng(37).uniform(0.3, 0.9, size=6)],
    (_TRANSVERSE, np.linspace(0.5, 3.0, 251)),
    (_OFFSET, np.linspace(0.8, 3.2, 241)),
], ids=["kappa0.3", "kappa0.5", "kappa0.7", "kappa0.9",
        *[f"draw{i}" for i in range(6)], "transverse", "offset"])
def test_conformal_sample_is_the_per_point_oracle(state, ws):
    xs, ps = conformal_orbit(_GAUSS, state).sample(ws)
    rxs, rps = sample_points(conformal_points(_GAUSS, state), ws)
    assert xs.tobytes() == rxs.tobytes() and ps.tobytes() == rps.tobytes()


def test_spacelike_sample_is_the_per_point_oracle():
    rng = np.random.default_rng(38)
    for i in range(20):
        init = instant_state(0.0, (*rng.uniform(-1, 1, 2), 0.0), rng.uniform(-1, 1, 3))
        B, m0sq = rng.uniform(0.2, 2.0) * rng.choice((-1, 1)), rng.uniform(0.1, 2.0)
        ws = np.sort(rng.uniform(0.0, 5.0, 50))
        # every other field switched: the entry on z = 0 reads m0^2 on either
        bg = backgrounds.linear_z(B, m0sq, switched=bool(i % 2))
        xs, ps = spacelike_orbit(bg, init).sample(ws)
        rxs, rps = sample_points(spacelike_point(B, init, m0sq), ws)
        assert xs.tobytes() == rxs.tobytes() and ps.tobytes() == rps.tobytes()


def _planewave_draws():
    """40 random sin^2 waves in x+, two of them tabulated, with a random
    front-form start and a grid of x+ on either side of it."""
    rng = np.random.default_rng(39)
    out = []
    for i in range(40):
        if i < 2:
            w = np.linspace(-8.0, 12.0, 41)
            bg = backgrounds.plane_wave_tabulated(w, 1.0 + 0.5 * np.sin(w) ** 2, "xplus")
        else:
            bg = backgrounds.plane_wave_sin2(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 1.0),
                                             rng.uniform(0.3, 3.0), "xplus")
        st = front_state(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1, 2),
                         rng.uniform(0.2, 1.5), rng.uniform(-1, 1, 2))
        out.append((bg, st, np.linspace(st.time - 3.0, st.time + 7.0, 60)))
    return out


def test_planewave_sample_is_the_per_point_oracle():
    for bg, st, ws in _planewave_draws():
        xs, ps = planewave_orbit(bg, st).sample(ws)
        rxs, rps = sample_points(planewave_point(bg, st), ws)
        assert xs.tobytes() == rxs.tobytes() and ps.tobytes() == rps.tobytes()


def _raised(fn):
    with pytest.raises(Exception) as err:
        fn()
    return type(err.value), str(err.value)


# f = 0.9 - u: the weight Q_perp^2 + f turns negative at u = 0.9, and G
# turns back down past it, so no edge brackets a target beyond its top
_BENT = backgrounds.special_conformal_mass(lambda u: 0.9 - u, lambda u: -1.0 + 0.0 * u,
                                          lambda u: 0.9 * u - 0.5 * u * u)
_BENT_START = front_state(1.0, 0.0, (0, 0), 0.5, (0, 0))
# a Gaussian so steep that f(1) underflows to 0: on the asymptote, u(x+) is
# the edge u = 1 itself, where p- = -(Q_perp^2 + f)/(4 Q3) vanishes
_STEEP = backgrounds.special_conformal_gaussian(1.0, 1.0, 30.0)
_STEEP_START = front_state(1.0, 0.0, (0, 0), 2.0, (0, 0))
_STEEP_ASYMPTOTE = conformal_orbit(_STEEP, _STEEP_START).constants["xplus_asymptote"]


@pytest.mark.parametrize("bg, state, ws, error", [
    # the weight is negative at the edge u = 1 that Newton's method starts
    # from, for a point after one that lies before x+ = 0
    (_BENT, _BENT_START, [1.5, -1.0], "non-monotone"),
    (_BENT, _BENT_START, [0.8, -1.0, 1.5], "x+ must stay positive"),
    (_BENT, _BENT_START, [0.8, 2.0, 1.5], "failed to bracket"),
    (_STEEP, _STEEP_START, [1.01, _STEEP_ASYMPTOTE, -1.0], "p- vanishes"),
    (_STEEP, _STEEP_START, [1.01, 2.0, _STEEP_ASYMPTOTE], "bracketing stalled"),
    # the fig2 preset's base orbit (p- = 0.4), sampled as the orbit
    # command samples it to run.tend = 12: its asymptote lies at x+ ~ 2.31
    (backgrounds.special_conformal_switched(1.0, 1.0, 1.0),
     front_state(1.0, 0.0, (0, 0), 0.4, (0, 0)), np.linspace(1.0, 12.0, 500),
     "bracketing stalled"),
], ids=["weight", "positive", "bracket", "vanishing-pminus", "stalled", "fig2-past-asymptote"])
def test_conformal_sample_raises_as_the_per_point_oracle(bg, state, ws, error):
    # a loop over the points raises for the first point that fails, even
    # where a later point fails at an earlier stage
    batch = _raised(lambda: conformal_orbit(bg, state).sample(ws))
    assert batch == _raised(lambda: sample_points(conformal_points(bg, state), ws))
    assert batch[0] is DomainError and error in batch[1]


@pytest.mark.parametrize("build, ws", [
    (lambda: spacelike_orbit(_FIG1, instant_state(0.0, (0.3, -0.2, 0.0),
                                                  (0.1, -0.2, -0.45))),
     np.linspace(0.0, 2.0, 9)),
    (lambda: timelike_orbit(lambda t: 0.5 * t,
                            instant_state(0.0, (0.5, -0.3, 0.2), (0.1, -0.2, -0.4)),
                            1.0),
     np.linspace(0.0, 2.0, 7)),
    (lambda: planewave_orbit(backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus"),
                             front_state(0.0, 0.1, (0.2, -0.3), 0.7, (0.1, -0.2))),
     np.linspace(0.0, 6.0, 9)),
    (_erf_orbit, _ERF_WS),
    (lambda: conformal_orbit(_GAUSS, _TRANSVERSE),
     np.linspace(1.0, 3.0, 9)),
], ids=["spacelike", "timelike", "plane_wave", "conformal", "conformal-transverse"])
def test_sample_rows_equal_pointwise_reads(build, ws):
    xs, ps = build().sample(ws)
    assert xs.shape == ps.shape == (len(ws), 4)
    # a second orbit read point by point in reverse: no row may depend on
    # which points were evaluated before it
    other = build()
    for w, x, p in zip(ws[::-1], xs[::-1], ps[::-1]):
        x_w, p_w = orbit_at(other, w)
        assert np.all(x_w.as_array() == x)
        assert np.all(p_w == p)


def test_sample_refuses_the_first_row_that_is_not_finite():
    # p- = 1e-300 squares to 0: the plane-wave orbit's x- is inf or nan at
    # every x+, and the grid fails at its first value, not at exit 0
    orbit = planewave_orbit(backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus"),
                            front_state(0.0, 0.1, (0.2, -0.3), 1e-300, (0.1, -0.2)))
    with pytest.raises(DomainError) as err:
        orbit.sample(np.linspace(0.5, 6.0, 9))
    assert str(err.value) == "the plane_wave orbit is not finite at xplus = 0.5"


# ---------------------------------------------------------------------------
# the Gaussian profile's integral in closed form
# ---------------------------------------------------------------------------

def _quadrature_gauss():
    """The fig. 2 profile with its antiderivative by adaptive quadrature."""
    f, _ = _GAUSS.profile
    return backgrounds.special_conformal_mass(f, gaussian_slope(f, 1.0),
                                              quad_antiderivative(f))


# fig. 2's window and the transverse start, as in the Newton-vs-brentq check
@pytest.mark.parametrize("state, ws", [
    *[(erf_orbit_entry_state(kappa),
       np.linspace(1.0, 1.0 / (1.0 - kappa * erf(3.75)), 101))
      for kappa in (0.3, 0.5, 0.7, 0.9)],
    (_TRANSVERSE, np.linspace(1.0, 3.0, 101)),
    # entry off u = 0, so F(u0) != 0; the asymptote lies at x+ = 3.31
    (front_state(1.0, 0.4, (0, 0), 0.5, (0, 0)), np.linspace(0.8, 3.2, 101)),
], ids=["kappa0.3", "kappa0.5", "kappa0.7", "kappa0.9", "transverse", "offset"])
def test_closed_form_integral_matches_quadrature(state, ws):
    closed = conformal_orbit(_GAUSS, state)
    quadrature = conformal_orbit(_quadrature_gauss(), state)
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
        orbit_at(orb, 1.5)


def test_divergent_weight_integral_has_no_asymptote():
    # f = 1: int_0^inf f diverges, and the asymptote is read without a warning
    flat = backgrounds.special_conformal_gaussian(1.0, 1.0, 0.0)
    state = front_state(1.0, 0.0, (0, 0), 0.5, (0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = conformal_orbit(flat, state)
        assert orb.constants["xplus_asymptote"] == np.inf
        # 4 Q3^2 = 1 at p- = 0.5, f = 1: 1/x+ = 1 - u
        assert orbit_at(orb, 4.0)[0].xminus == pytest.approx(0.75, rel=1e-12)
