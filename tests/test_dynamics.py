"""Phase-space flows: Hamiltonians, brackets, integration, conversions."""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies
from hypothesis.extra.numpy import arrays

from confdyn import backgrounds, conformal, ode
from confdyn.dynamics import (
    FORMS,
    EvolveOptions,
    PhaseSpaceState,
    Trajectory,
    _make_rhs,
    covariant_state,
    evolve,
    extended_state,
    extended_state_on_shell,
    front_state,
    front_to_extended,
    hamiltonian_extended,
    hamiltonian_front,
    hamiltonian_instant,
    hamiltonian_partials,
    instant_state,
    instant_to_covariant,
    instant_to_front,
    covariant_to_instant,
    monitor,
    poisson_bracket,
    quantity_partials,
)
from confdyn.errors import RealityError, SingularityError
from confdyn.geometry import FourVector, lf_gradient, lf_momenta, raise_index
from oracles import (erf_orbit_entry_state, fd_partials, fd_quantity, newton_per_point,
                     points, rms_norm, scipy_ordered_sums)


def _random_instant_state(rng, bg):
    t = rng.uniform(-0.5, 0.5)
    xyz = rng.uniform(-1.0, 1.0, 3)
    p = rng.uniform(-0.5, 0.5, 3)
    st = instant_state(t, xyz, p)
    # keep clear of the switch surface and of m^2 <= 0
    assert bg.m2(st.position()) > 0.05
    return st


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_hamiltonian_instant_rest():
    bg = backgrounds.constant(2.25)
    st = instant_state(0.0, (0.3, -0.1, 0.7), (0.0, 0.0, 0.0))
    assert hamiltonian_instant(st, bg) == pytest.approx(1.5, abs=1e-15)


def test_hamiltonian_instant_linear_entry():
    # on the switch surface z=0 the field is m0^2, so H = sqrt(m0^2 + p3^2)
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    assert hamiltonian_instant(st, bg) == pytest.approx(np.sqrt(1.25), rel=1e-14)


def test_hamiltonian_front_rest_frame():
    bg = backgrounds.constant(1.0)
    st = front_state(0.0, 0.0, (0.0, 0.0), 0.5, (0.0, 0.0))
    assert hamiltonian_front(st, bg) == pytest.approx(0.5, abs=1e-15)


def test_hamiltonian_cross_form_consistency():
    rng = np.random.default_rng(7)
    bg = backgrounds.linear_z(0.7, 1.3, switched=False)
    for _ in range(10):
        st = _random_instant_state(rng, bg)
        h = hamiltonian_instant(st, bg)
        fr = instant_to_front(st, bg)
        # p+ = (p0 + p3)/2 with p0 = H on shell
        assert hamiltonian_front(fr, bg) == pytest.approx(
            0.5 * (h + st.p[2]), rel=1e-12)
        cov = instant_to_covariant(st, bg)
        # H = m xdot^0 for the unit-velocity lift
        m = bg.mass(st.position())
        assert m * cov.p[0] == pytest.approx(h, rel=1e-12)


def test_hamiltonian_extended_is_constraint():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = extended_state_on_shell(bg, 0.3, -0.2, (0.1, 0.4), 0.6, (0.05, -0.1))
    # K = H_front - p+ vanishes on shell by construction
    assert abs(hamiltonian_extended(st, bg)) < 1e-14


# ---------------------------------------------------------------------------
# brackets and flow orientation
# ---------------------------------------------------------------------------

def test_poisson_canonical_pair():
    bg = backgrounds.constant(1.0)
    st = instant_state(0.2, (0.3, -0.4, 0.5), (0.1, 0.2, 0.3))
    x1 = fd_quantity("x1", lambda s, b: s.q[0])
    p1 = fd_quantity("p1", lambda s, b: s.p[0])
    assert poisson_bracket(x1, p1, st, bg) == pytest.approx(1.0, rel=1e-8)
    assert poisson_bracket(p1, x1, st, bg) == pytest.approx(-1.0, rel=1e-8)


def test_poisson_rejects_covariant_form():
    bg = backgrounds.constant(1.0)
    st = covariant_state(FourVector(0, 0, 0, 0), FourVector(1, 0, 0, 0))
    with pytest.raises(ValueError):
        poisson_bracket(lambda s, b: s.q[0], lambda s, b: s.p[0], st, bg)


def test_partials_of_a_quantity_without_them_name_it():
    # the Lz monitor extra has no closed-form partials: its partials and its
    # brackets raise, naming it
    bg = backgrounds.constant(1.0)
    st = instant_state(0.2, (0.3, -0.4, 0.5), (0.1, 0.2, 0.3))
    lz = conformal.angular_momentum_z_quantity()
    p1 = conformal.generator_quantity(conformal.translation_axis(1), "Q1")
    with pytest.raises(ValueError, match="quantity 'Lz' has no closed-form partials"):
        quantity_partials([lz], st, bg)
    for f, g in ((lz, p1), (p1, lz)):
        with pytest.raises(ValueError, match="'Lz'"):
            poisson_bracket(f, g, st, bg)


def test_generator_charges_share_one_frame_per_state(monkeypatch):
    # the charges of a set share the state's on-shell four-momentum (one m^2)
    # and its Hamiltonian partials (one flow evaluation): two kernel calls
    # however many charges, both for the set's partials and for a bracket
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    st = instant_state(0.2, (0.3, -0.4, 0.5), (0.1, 0.2, -0.3))
    calls = []
    field = bg._field
    monkeypatch.setattr(bg, "_field", lambda *c: calls.append(c) or field(*c))
    quantities = conformal.spacelike_set(1.0)
    assert sum(q.generator is not None for q in quantities) == 3
    parts = quantity_partials(quantities, st, bg)
    assert len(parts) == len(quantities) and len(calls) == 2
    calls.clear()
    poisson_bracket(quantities[0], quantities[4], st, bg)
    assert len(calls) == 2


def test_flow_matches_flipped_bracket():
    # dQ/dt = -{Q, H}: finite-difference the sampled p3 against the bracket
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    st = instant_state(0.0, (0.0, 0.0, 0.1), (0.0, 0.0, -0.4))
    opts = EvolveOptions(rtol=1e-12, atol=1e-12, samples=801)
    traj = evolve(st, bg, (0.0, 2.0), opts)
    dt = traj.times[1] - traj.times[0]
    ham = fd_quantity("H", hamiltonian_instant)
    p3 = fd_quantity("p3", lambda s, b: s.p[2])
    states = points(traj.batch_state())
    for i in (100, 400, 700):
        slope = (traj.p[i + 1, 2] - traj.p[i - 1, 2]) / (2.0 * dt)
        br = poisson_bracket(p3, ham, states[i], bg)
        assert slope == pytest.approx(-br, abs=5e-6)
        # and the bracket itself is B/(2H) up to sign bookkeeping
        h = hamiltonian_instant(states[i], bg)
        assert -br == pytest.approx(1.0 / (2.0 * h), rel=1e-6)


# ---------------------------------------------------------------------------
# free motion and conservation audits
# ---------------------------------------------------------------------------

def test_free_particle_straight_line():
    bg = backgrounds.constant(1.0)
    p = np.array([0.1, -0.2, 0.3])
    x0 = np.array([0.4, 0.0, -0.6])
    st = instant_state(0.0, x0, p)
    h = hamiltonian_instant(st, bg)
    traj = evolve(st, bg, (0.0, 5.0), EvolveOptions(rtol=1e-12, atol=1e-12),
                  monitors=conformal.poincare_set())
    # lower-index momenta: velocity is -p_j / H
    expect = x0[None, :] - traj.times[:, None] * p[None, :] / h
    assert np.max(np.abs(traj.q - expect)) < 1e-10
    assert np.max(np.abs(traj.p - p[None, :])) < 1e-13
    for label, d in traj.drifts.items():
        assert d < 1e-10, label


def test_free_particle_front_form_poincare():
    bg = backgrounds.constant(1.0)
    st = front_state(0.0, 0.3, (0.1, -0.2), 0.7, (0.15, -0.05))
    traj = evolve(st, bg, (0.0, 4.0), EvolveOptions(rtol=1e-12, atol=1e-12),
                  monitors=conformal.poincare_set())
    for label, d in traj.drifts.items():
        assert d < 1e-10, label


def test_energy_conserved_autonomous_instant():
    bg = backgrounds.linear_z(0.8, 1.0, switched=False)
    st = instant_state(0.0, (0.2, -0.1, 0.3), (0.1, 0.2, -0.3))
    traj = evolve(st, bg, (0.0, 3.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    h = np.array([hamiltonian_instant(s, bg) for s in points(traj.batch_state())])
    assert np.max(np.abs(h - h[0])) < 1e-10


def test_front_hamiltonian_conserved_xminus_profile():
    # m^2(x-) has no x+ dependence, so the front Hamiltonian p+ is constant
    bg = backgrounds.plane_wave_sin2(1.0, 0.6, 1.2, argument="xminus")
    st = front_state(0.0, 0.2, (0.1, -0.1), 0.6, (0.1, 0.2))
    # p1, p2, the Hamiltonian p+ and the null-rotation charges
    # 2 x_perp p+ + x- p_perp
    gens = [conformal.translation_axis(1), conformal.translation_axis(2),
            conformal.translation_xplus(), conformal.null_rotation_u(1),
            conformal.null_rotation_u(2)]
    quantities = [conformal.generator_quantity(g, label)
                  for g, label in zip(gens, ("Q1", "Q2", "H", "Q4", "Q5"))]
    traj = evolve(st, bg, (0.0, 5.0), EvolveOptions(rtol=1e-12, atol=1e-12),
                  monitors=quantities)
    h = np.array([hamiltonian_front(s, bg) for s in points(traj.batch_state())])
    assert np.max(np.abs(h - h[0])) < 1e-10
    for label, d in traj.drifts.items():
        assert d < 1e-8, label


def test_on_shell_closure_along_flow():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    traj = evolve(st, bg, (0.0, 4.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    for s in points(traj.batch_state()):
        h = hamiltonian_instant(s, bg)
        # p.p - m^2 with lower-index p = (H, p1, p2, p3)
        gap = (h ** 2 - s.p[0] ** 2 - s.p[1] ** 2 - s.p[2] ** 2
               - bg.m2(s.position()))
        assert abs(gap) < 1e-8


def test_p3_secular_growth_matches_linear_field():
    # inside the field dp3/dt = B/(2H) with H constant, so p3 grows linearly
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    h = hamiltonian_instant(st, bg)
    traj = evolve(st, bg, (0.0, 2.0),
                  EvolveOptions(rtol=1e-12, atol=1e-12, samples=401))
    expect = -0.5 + traj.times / (2.0 * h)
    assert np.max(np.abs(traj.p[:, 2] - expect)) < 1e-10
    # frozen midpoint value, 40-digit arithmetic
    i = np.searchsorted(traj.times, 1.0)
    assert traj.times[i] == pytest.approx(1.0, abs=1e-12)
    assert traj.p[i, 2] == pytest.approx(-0.052786404500042060718, abs=1e-10)


def test_extended_flow_time_coordinate():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = extended_state_on_shell(bg, 0.0, 0.1, (0.2, -0.3), 0.7, (0.1, -0.2))
    traj = evolve(st, bg, (0.0, 6.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    # x+ runs with the flow parameter exactly
    assert np.max(np.abs(traj.q[:, 0] - traj.times)) < 1e-9


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def test_event_restart_and_exit():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    traj = evolve(st, bg, (0.0, 4.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    assert traj.stats["event_crossings"] >= 1
    names = [name for name, _ in traj.events_log]
    assert "z=0" in names
    t_exit = [t for name, t in traj.events_log if name == "z=0"][0]
    assert t_exit == pytest.approx(2.2360679774997896964, abs=1e-9)
    # after exit the motion is free again: p3 mirrored to +0.5
    assert traj.p[-1, 2] == pytest.approx(0.5, abs=1e-9)
    tail = traj.times > t_exit + 0.05
    assert np.max(np.abs(traj.p[tail, 2] - 0.5)) < 1e-9


def test_events_disabled_skips_log():
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    st = instant_state(0.0, (0.0, 0.0, 0.2), (0.0, 0.0, -0.3))
    traj = evolve(st, bg, (0.0, 1.0), EvolveOptions())
    assert traj.events_log == []


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def test_evolve_validation():
    bg = backgrounds.constant(1.0)
    st = instant_state(0.0, (0, 0, 0), (0.1, 0, 0))
    with pytest.raises(ValueError):
        evolve(st, bg, (1.0, 0.0), EvolveOptions())
    with pytest.raises(ValueError):
        evolve(st, bg, (0.5, 1.0), EvolveOptions())  # state carries time 0


@pytest.mark.parametrize("span", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                  (-np.inf, 1.0)])
def test_evolve_refuses_a_span_that_is_not_finite(span):
    # a NaN end fails no comparison and an infinite one fits no step grid; the
    # span is refused before the state is read or a step is taken
    st = instant_state(span[0], (0, 0, 0), (0.1, 0, 0))
    with pytest.raises(ValueError, match="is not finite"):
        evolve(st, backgrounds.constant(1.0), span, EvolveOptions())


def test_singularity_past_conformal_asymptote():
    bg = backgrounds.special_conformal_switched(1.0, 1.0, 1.0)
    st = erf_orbit_entry_state(0.9)
    with pytest.raises(SingularityError):
        evolve(st, bg, (1.0, 11.0), EvolveOptions(samples=100))


def test_bounce_exit_keeps_charges_past_the_kink():
    # fig. 1 orbit run well past its exit through z = 0: the restart after
    # the exit crossing comes from an integrated state, so every charge of
    # the spacelike set stays within the simulate gate afterwards too
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.54))
    traj = evolve(st, bg, (0.0, 4.0), EvolveOptions(samples=500),
                  monitors=conformal.spacelike_set(1.0))
    t_exit = [t for name, t in traj.events_log if name == "z=0"][-1]
    assert t_exit < 3.0
    assert max(traj.drifts.values()) <= 1e-8


# the fig1 start whose grid puts a sample 5.74e-8 before the exit through
# z = 0: sampled on the step that straddles the kink, its Q5 was off by
# 1.11e-8
_STRADDLED = (0.0, 0.0, -0.5482573890107849)


def _fig1_straddled(monkeypatch):
    """The fig1 run from _STRADDLED, and the steps every solver took as
    (solver, t_old, t, its float dense output)."""
    steps, real_step = [], ode.RK45.step

    def step(self):
        message = real_step(self)
        steps.append((self, self.t_old, self.t, self.dense_output()))
        return message
    monkeypatch.setattr(ode.RK45, "step", step)
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), _STRADDLED)
    return evolve(st, bg, (0.0, 4.0), EvolveOptions(samples=500)), bg, steps


def test_sample_before_a_crossing_keeps_its_charge(monkeypatch):
    traj, bg, _ = _fig1_straddled(monkeypatch)
    (_, te), = traj.events_log
    k = np.searchsorted(traj.times, te) - 1
    assert te - traj.times[k] == pytest.approx(5.74e-8, rel=1e-3)
    q5 = hamiltonian_instant(traj.batch_state(), bg)
    assert abs(q5[k] - q5[0]) < 1e-8


def test_samples_before_a_crossing_are_the_redone_steps(monkeypatch):
    # every sample from the straddling step's start to the crossing is the
    # dense output of the redo that ends at the crossing, bit for bit, and
    # the row at the crossing is the redo's end
    traj, _, steps = _fig1_straddled(monkeypatch)
    rows = np.hstack([traj.q, traj.p])
    (_, te), = traj.events_log
    redo = [s for s in steps if s[0].t_bound == te]
    t_old = redo[0][1]
    inside = np.flatnonzero((traj.times > t_old) & (traj.times < te))
    assert inside.size
    for k in inside:
        s = traj.times[k]
        dense, = [d for _, a, b, d in redo if a < s <= b]
        assert rows[k].tobytes() == np.array(dense(s)).tobytes()
    k, = np.flatnonzero(traj.times == te)
    assert rows[k].tolist() == redo[-1][0].y


@pytest.mark.parametrize("case", ["instant-dilation", "extended-planewave"])
def test_rk45_loop_takes_solve_ivp_steps(case):
    # without a crossing the loop reproduces solve_ivp's samples bit for bit,
    # with scipy's products taken as the same ordered sums
    from scipy.integrate import solve_ivp
    if case == "instant-dilation":
        bg = backgrounds.dilation_mass(1.0)
        st = instant_state(2.0, (0.1, -0.1, 0.3), (0.05, 0.02, -0.04))
        span = (2.0, 6.0)
    else:
        bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
        st = extended_state_on_shell(bg, 0.0, 0.0, (0.0, 0.0), 0.5, (0.1, -0.05))
        span = (0.0, 10.0)
    traj = evolve(st, bg, span, EvolveOptions(samples=57))
    form = FORMS[st.form]
    events = None
    if form.pminus is not None:
        def guard(t, y):
            return y[form.dof + form.pminus]
        guard.terminal = True
        events = [guard]
    with scipy_ordered_sums():
        sol = solve_ivp(_make_rhs(st.form, bg, False), span, np.concatenate([st.q, st.p]),
                        rtol=1e-10, atol=1e-10, t_eval=np.linspace(*span, 57),
                        events=events)
    assert np.array_equal(traj.times, sol.t)
    assert np.array_equal(np.hstack([traj.q, traj.p]), sol.y.T)
    assert traj.stats == {"nfev": sol.nfev, "segments": 1, "event_crossings": 0}


def test_start_near_the_pminus_guard_is_not_stepped_off():
    # p- = 0.4 lies within 1e-13 * span of the p- = 0 guard, which is no
    # switch surface: the flow is one plain RK45 solve from its start
    bg = backgrounds.constant(1.0)
    st = front_state(0.0, 0.0, (0.0, 0.0), 0.4, (0.0, 0.0))
    traj = evolve(st, bg, (0.0, 5e12), EvolveOptions())
    solver = ode.RK45(_make_rhs("front", bg, False), 0.0,
                      np.concatenate([st.q, st.p]), 5e12, rtol=1e-10, atol=1e-10)
    while solver.status == "running":
        solver.step()
    assert traj.stats == {"nfev": solver.nfev, "segments": 1, "event_crossings": 0}


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_long_free_flow_grows_its_steps_past_the_span_resolution(tol):
    # the first steps of the free flow, ~4e-3 at tol = 1e-10 and ~1e-3 at
    # 1e-13, lie below EPS * 5e13 ~ 1.1e-2; they grow tenfold a step, so the
    # flow makes progress and runs as one plain RK45 solve
    bg = backgrounds.constant(1.0)
    st = front_state(0.0, 0.0, (0.0, 0.0), 0.4, (0.0, 0.0))
    traj = evolve(st, bg, (0.0, 5e13), EvolveOptions(rtol=tol, atol=tol))
    solver = ode.RK45(_make_rhs("front", bg, False), 0.0,
                      np.concatenate([st.q, st.p]), 5e13, rtol=tol, atol=tol)
    h_first = None
    while solver.status == "running":
        solver.step()
        h_first = h_first or solver.t - solver.t_old
    assert h_first < ode.EPS * 5e13
    assert traj.stats == {"nfev": solver.nfev, "segments": 1, "event_crossings": 0}


def _bump_rhs(t, y):
    # the step grows along the flat start and is rejected at the bump
    return np.array([1.0 / (1.0 + 1e4 * (t - 0.5) ** 2), -y[0]])


def _oracle_flow(case):
    """(rhs, t0, y0, t1) of a flow for comparing RK45 with scipy's."""
    if case == "instant-dilation":
        bg = backgrounds.dilation_mass(1.0)
        st = instant_state(2.0, (0.1, -0.1, 0.3), (0.05, 0.02, -0.04))
        return _make_rhs("instant", bg, False), 2.0, np.concatenate([st.q, st.p]), 6.0
    if case == "extended-planewave":
        bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
        st = extended_state_on_shell(bg, 0.0, 0.0, (0.0, 0.0), 0.5, (0.1, -0.05))
        return _make_rhs("extended", bg, False), 0.0, np.concatenate([st.q, st.p]), 10.0
    if case == "front-fig2-switched":
        # fig. 2's flow, started in the vacuum so that it meets x+ = L = 1 at
        # x- = 0 and steps across the switch without an event stop
        bg = backgrounds.special_conformal_switched(1.0, 1.0, 1.0)
        st = front_state(0.5, -0.78125, (0.0, 0.0), 0.4, (0.0, 0.0))
        return _make_rhs("front", bg, False), 0.5, np.concatenate([st.q, st.p]), 2.0
    if case == "instant-fig1-switched":
        # fig. 1's flow: into the switched linear_z field at z = 0, the bounce
        # and the exit across z = 0 again
        bg = backgrounds.linear_z(1.0, 1.0, switched=True)
        st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
        return _make_rhs("instant", bg, False), 0.0, np.concatenate([st.q, st.p]), 4.0
    return _bump_rhs, 0.0, np.array([0.0, 1.0]), 1.0


def _assert_steps_as_scipy(rhs, t0, y0, t1, tol):
    """Step RK45 and scipy's RK45, with scipy's products taken as the same
    ordered sums, side by side from (t0, y0) to t1 at rtol = atol = tol:
    every status, t, t_old, h_abs, nfev, y, dense Q = K^T P and dense
    output value in equal bits.  Returns (our finished solver, its count of
    accepted steps)."""
    import scipy.integrate
    ours = ode.RK45(rhs, t0, y0, t1, rtol=tol, atol=tol)
    with scipy_ordered_sums():
        ref = scipy.integrate.RK45(rhs, t0, np.asarray(y0), t1, rtol=tol, atol=tol)
        assert (ours.h_abs, ours.nfev) == (ref.h_abs, ref.nfev)
        steps = 0
        while ref.status == "running":
            assert ours.step() == ref.step()
            steps += 1
            assert (ours.status, ours.t, ours.t_old, ours.h_abs, ours.nfev) == (
                ref.status, ref.t, ref.t_old, ref.h_abs, ref.nfev)
            assert np.array(ours.y).tobytes() == ref.y.tobytes()
            assert np.array(ours.dense_step()[3]).tobytes() == ref.dense_output().Q.tobytes()
            a, b = ours.dense_output(), ref.dense_output()
            mid = ours.t_old + 0.37 * (ours.t - ours.t_old)
            ts = np.linspace(ours.t_old, ours.t, 5)
            assert np.array_equal(a(mid), b(mid))
            assert np.array_equal(a(float(mid)), b(mid))
            assert np.array_equal(a(ts), b(ts))
    assert ours.status == "finished"
    return ours, steps


@pytest.mark.parametrize("case", ["instant-dilation", "extended-planewave",
                                  "front-fig2-switched", "instant-fig1-switched", "bump"])
def test_rk45_port_steps_as_scipy(case):
    ours, steps = _assert_steps_as_scipy(*_oracle_flow(case), 1e-10)
    if case == "bump":
        # two calls to start, six an accepted step: the rest are rejections
        assert ours.nfev > 2 + 6 * steps


def test_rk45_tableau_is_scipys():
    # C, A (each row padded with zeros to the 6 x 5 of scipy's), B, E and P,
    # every entry in scipy's bits
    import scipy.integrate
    ref = scipy.integrate.RK45
    A = [row + (0.0,) * (5 - len(row)) for row in ode.A]
    for ours, theirs in ((ode.C, ref.C), (A, ref.A), (ode.B, ref.B), (ode.E, ref.E),
                         (ode.P, ref.P)):
        ours = np.array(ours, dtype=float)
        assert ours.shape == theirs.shape
        assert [v.tobytes() for v in ours.flat] == [v.tobytes() for v in theirs.flat]


def _smooth_rhs(c, w, d):
    """y_i' = c_i sin(w_i y_(i+1 mod n) + d_i t) - y_i / 2 on floats, with the
    bits of each element whether y is a list of floats or an array."""
    n = len(c)

    def rhs(t, y):
        return np.array([c[i] * math.sin(w[i] * y[(i + 1) % n] + d[i] * t) - 0.5 * y[i]
                         for i in range(n)])
    return rhs


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(data=strategies.data())
def test_rk45_kernel_steps_as_scipy_at_every_state_size(n, data):
    # the straight-line kernel of each state size takes scipy's steps
    unit = strategies.floats(-1.0, 1.0)
    c, w, d, y0 = (data.draw(strategies.lists(unit, min_size=n, max_size=n))
                   for _ in range(4))
    t1 = data.draw(strategies.floats(0.5, 4.0))
    tol = data.draw(strategies.sampled_from((1e-6, 1e-10)))
    _assert_steps_as_scipy(_smooth_rhs(c, [3.0 * v for v in w], d), 0.0, y0, t1, tol)


def test_importing_the_cli_builds_no_kernel(tmp_path):
    # the kernels are compiled by the first solver of each state size, never
    # at import
    code = ("import confdyn.cli\n"
            "from confdyn import ode\n"
            "print(ode._kernels.cache_info().currsize)\n"
            "ode.RK45(lambda t, y: [-v for v in y], 0.0, [1.0, 2.0], 1.0, 1e-8, 1e-8)\n"
            "print(ode._kernels.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ode.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stdout.split()) == (0, ["0", "1"]), proc.stderr


def test_dense_output_takes_scipys_powers():
    # y' = 4 t^3 from y = 0: the first step's dense output is h Q (x, x^2,
    # x^3, x^4) with the x^4 term dominant, so another product for x^4
    # (x^2 x^2, say) shows in the last bit
    import scipy.integrate
    rhs = lambda t, y: np.array([4.0 * t ** 3])
    ours = ode.RK45(rhs, 0.0, [0.0], 1.0, rtol=1e-10, atol=1e-10)
    with scipy_ordered_sums():
        ref = scipy.integrate.RK45(rhs, 0.0, [0.0], 1.0, rtol=1e-10, atol=1e-10)
        ours.step()
        ref.step()
        a, b = ours.dense_output(), ref.dense_output()
        ts = np.linspace(ours.t_old, ours.t, 1001)
        assert np.array_equal(a(ts), b(ts))
        assert all(np.array_equal(a(t), b(t)) for t in ts)
        assert all(np.array_equal(a(t), b(t)) for t in ts.tolist())


_SAMPLED_FLOWS = ("instant-fig1-switched", "front-fig2-switched", "extended-planewave")


@functools.lru_cache(maxsize=None)
def _accepted_steps(case):
    """Every accepted step of an oracle flow, or of y' = 4 t^3 ("quartic",
    whose dense output the x^4 term dominates), as (RK45.dense_step, its
    RK45.dense_output, whether rejected attempts preceded it)."""
    if case == "quartic":
        rhs, t0, y0, t1 = (lambda t, y: [4.0 * t ** 3]), 0.0, [0.0], 1.0
    else:
        rhs, t0, y0, t1 = _oracle_flow(case)
    solver = ode.RK45(rhs, t0, y0, t1, rtol=1e-10, atol=1e-10)
    steps = []
    while solver.status == "running":
        nfev = solver.nfev
        solver.step()
        steps.append((solver.dense_step(), solver.dense_output(),
                      solver.nfev - nfev > 6))
    return steps


def _assert_sampled_as_floats(steps, fractions):
    """dense_sample over the steps (dense_step, dense_output, ...), at
    fractions[k] of step k's width past its start, equals the float dense
    output at every sample, with ==."""
    ts = [step[0] + f * step[1] for (step, *_), fs in zip(steps, fractions)
          for f in fs]
    rows = ode.dense_sample([step for step, *_ in steps], [len(fs) for fs in fractions],
                            ts)
    floats = [dense(step[0] + f * step[1])
              for (step, dense, *_), fs in zip(steps, fractions) for f in fs]
    assert rows.tolist() == floats


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=strategies.data())
def test_dense_sample_equals_the_float_dense_output(data):
    # one array pass over a segment's steps, as _segment makes it, gives
    # every sample the bits of the float call brentq takes at its time
    steps = _accepted_steps(data.draw(strategies.sampled_from((*_SAMPLED_FLOWS,
                                                               "quartic"))))
    picked = data.draw(strategies.lists(strategies.integers(0, len(steps) - 1),
                                        min_size=1, max_size=6, unique=True))
    fractions = [sorted(data.draw(strategies.lists(strategies.floats(0.0, 1.0),
                                                   min_size=1, max_size=8)))
                 for _ in picked]
    _assert_sampled_as_floats([steps[i] for i in sorted(picked)], fractions)


@pytest.mark.parametrize("case", _SAMPLED_FLOWS)
def test_dense_sample_on_one_sample_and_after_rejections(case):
    steps = _accepted_steps(case)
    rejected = [s for s in steps if s[2]]
    assert rejected
    _assert_sampled_as_floats([steps[len(steps) // 2]], [[0.37]])
    _assert_sampled_as_floats(rejected, [[0.0, 0.25, 0.5, 1.0]] * len(rejected))


def test_dense_sample_on_the_step_across_fig1s_surface():
    # the step that straddles z = 0, whose samples evolve keeps up to the
    # crossing, sampled on both sides of it and at the crossing itself
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.01), (0.0, 0.0, -0.5))
    solver = _straddling_step(_make_rhs("instant", bg, False), 0.0,
                              np.concatenate([st.q, st.p]), 4.0, lambda t, y: y[2], 1e-10)
    dense = solver.dense_output()
    root = _ode_brentq(lambda s: dense(s)[2], solver.t_old, solver.t)
    step = solver.dense_step()
    x_root = (root - step[0]) / step[1]
    _assert_sampled_as_floats([(step, dense)], [[0.0, 0.5 * x_root, x_root,
                                                 0.5 + 0.5 * x_root, 1.0]])


def test_rms_norm_equals_numpys():
    # sqrt(x.x) / sqrt(n) with x.x numpy's left-to-right accumulate of the
    # squares: equal on lengths 1-8, magnitudes 1e-300 to 1e300 (so squares
    # that underflow and overflow) and zeros of both signs, on an array and
    # on its floats
    rng = np.random.default_rng(20261018)
    cases = [np.array(x) for x in ([0.0], [-0.0], [0.0, -0.0], [1e300, 1e300],
                                   [1e-300, -1e-300])]
    for _ in range(4000):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        x[rng.random(n) < 0.15] = 0.0
        x[rng.random(n) < 0.15] = -0.0
        cases.append(x)
    with np.errstate(over="ignore"):
        for x in cases:
            assert ode.norm(x) == ode.norm(x.tolist()) == rms_norm(x)


def test_rk45_port_fails_as_scipy_on_a_blow_up():
    # y' = y^2 from y = 1 blows up at t = 1: both give up at the same point
    import scipy.integrate
    rhs = lambda t, y: [v * v for v in y]
    ours = ode.RK45(rhs, 0.0, [1.0], 2.0, rtol=1e-10, atol=1e-10)
    with scipy_ordered_sums():
        ref = scipy.integrate.RK45(rhs, 0.0, [1.0], 2.0, rtol=1e-10, atol=1e-10)
        while ref.status == "running":
            assert ours.step() == ref.step()
    assert ours.status == "failed"
    assert (ours.t, ours.nfev) == (ref.t, ref.nfev)
    assert ode.RK45.TOO_SMALL_STEP == scipy.integrate.OdeSolver.TOO_SMALL_STEP
    with pytest.raises(RuntimeError):
        ours.step()
    # the message reaches the flow's error text
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    with pytest.raises(SingularityError, match="integration failed: Required "
                       "step size is less than spacing between numbers") as err:
        evolve(erf_orbit_entry_state(0.9), bg, (1.0, 11.0), EvolveOptions())
    # it names where the flow stopped: the front form's time, just past the
    # asymptote at x+ = 10, and p- all but zero
    msg = str(err.value)
    assert "(xplus = 10.0000000" in msg
    assert 0.0 < float(msg.rpartition(", p- = ")[2].rstrip(")")) < 1e-12


@pytest.mark.parametrize("case", ["fig1", "fig2"])
def test_rhs_takes_python_float_times(case, monkeypatch):
    # every time the flow hands the RHS is a float, not an np.float64: the
    # stage times of every step, the nudge off a surface, the redo solver up
    # to a crossing and the restart from it (a brentq root)
    from confdyn import dynamics
    seen = []

    def recording(form, bg, nonrel):
        rhs = _make_rhs(form, bg, nonrel)

        def wrapped(t, y):
            seen.append(type(t))
            return rhs(t, y)
        return wrapped

    monkeypatch.setattr(dynamics, "_make_rhs", recording)
    if case == "fig1":
        # starts on z = 0 (a nudge), crosses it on the way out (a redo); the
        # last step of this crossing's brentq is a tolerance step
        bg = backgrounds.linear_z(1.0, 1.0, switched=True)
        st, span = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.6)), (0.0, 4.0)
    else:
        # crosses x+ = L = 1 (a redo), then restarts on it (a nudge)
        bg = backgrounds.special_conformal_switched(1.0, 1.0, 1.0)
        st, span = front_state(0.5, -0.78125, (0.0, 0.0), 0.4, (0.0, 0.0)), (0.5, 2.0)
    traj = evolve(st, bg, span, EvolveOptions(samples=50))
    assert traj.stats["event_crossings"] >= 1 and traj.stats["segments"] >= 2
    assert all(type(te) is float for _, te in traj.events_log)
    # nfev calls, and one more per solver: its start is checked to be finite
    stats = traj.stats
    assert len(seen) == stats["nfev"] + stats["segments"] + stats["event_crossings"]
    assert set(seen) == {float}
    # a root whose last step is the tolerance itself
    assert type(ode.brentq(lambda x: x * x - 0.08, np.float64(0.0), np.float64(1.0),
                           4 * ode.EPS, 4 * ode.EPS)) is float


def test_rk45_integrates_forward_only():
    # a bound before t0 is refused; one equal to t0 finishes on the first step
    rhs = lambda t, y: [-v for v in y]
    with pytest.raises(ValueError, match="t_bound"):
        ode.RK45(rhs, 1.0, [1.0], 0.5, rtol=1e-10, atol=1e-10)
    solver = ode.RK45(rhs, 1.0, [1.0], 1.0, rtol=1e-10, atol=1e-10)
    assert solver.h_abs == 0.0
    assert solver.step() is None
    assert (solver.status, solver.t, solver.nfev) == ("finished", 1.0, 1)


def test_rk45_port_starts_as_scipy_when_the_first_norm_overflows():
    # a finite RHS of 1e300 over the scale 2e-10 of y = 1 overflows the
    # starting norm d1 to inf, so the first guess h0 = 0.01 d0/d1 is 0:
    # scipy divides by it in numpy (d2 = nan) and starts from h = 0, and so
    # does the port, without a ZeroDivisionError
    import scipy.integrate
    rhs = lambda t, y: np.array([1e300])
    with np.errstate(over="ignore", invalid="ignore"), scipy_ordered_sums():
        ours = ode.RK45(rhs, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-10)
        ref = scipy.integrate.RK45(rhs, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-10)
        assert (ours.h_abs, ours.nfev) == (ref.h_abs, ref.nfev) == (0.0, 2)
        for _ in range(3):
            assert ours.step() == ref.step()
            assert (ours.t, ours.h_abs, ours.nfev) == (ref.t, ref.h_abs, ref.nfev)
            assert np.array_equal(ours.y, ref.y)


def _scipy_brentq(f, a, b):
    from scipy.optimize import brentq
    return brentq(f, a, b, xtol=4 * ode.EPS, rtol=4 * ode.EPS)


def _ode_brentq(f, a, b):
    return ode.brentq(f, a, b, 4 * ode.EPS, 4 * ode.EPS)


def test_brentq_port_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(11)
    families = [
        lambda c: (lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]),
        lambda c: (lambda x: np.sin(3.0 * c[0] * x + c[1]) - 0.5 * c[2]),
        lambda c: (lambda x: np.exp(c[0] * x) - 1.0 - c[1] * x - 0.3 * c[2]),
    ]
    compared = 0
    for i in range(600):
        f = families[i % 3](rng.uniform(-2.0, 2.0, size=4))
        if i % 5 == 0:
            # values so small that the extrapolation's denominator underflows
            f = (lambda g: lambda x: 1e-150 * g(x))(f)
        a, b = np.sort(rng.uniform(-3.0, 3.0, size=2)).tolist()
        if np.sign(f(a)) == np.sign(f(b)):
            continue
        assert _ode_brentq(f, a, b) == _scipy_brentq(f, a, b)
        compared += 1
    assert compared > 150


def _straddling_step(rhs, t0, y0, t1, g, tol):
    """The first RK45 step over which g(t, y) changes sign."""
    solver = ode.RK45(rhs, t0, y0, t1, rtol=tol, atol=tol)
    g_old = g(t0, solver.y)
    while solver.status == "running":
        solver.step()
        g_new = g(solver.t, solver.y)
        if (g_old <= 0 <= g_new) or (g_new <= 0 <= g_old):
            return solver
        g_old = g_new
    raise AssertionError("no crossing")


@pytest.mark.parametrize("case", ["fig1-z", "fig2-xplus", "pminus-guard"])
def test_brentq_port_matches_scipy_on_surfaces(case):
    if case == "fig1-z":
        # fig. 1's orbit exits the linear field through z = 0
        bg = backgrounds.linear_z(1.0, 1.0, switched=True)
        st = instant_state(0.0, (0.0, 0.0, 0.01), (0.0, 0.0, -0.5))
        span, (_, fn), tol = (0.0, 4.0), bg.events[0], 1e-10
    elif case == "fig2-xplus":
        # a front-form orbit from x+ = 1/2 enters the field at x+ = L
        bg = backgrounds.special_conformal_switched(1.0, 1.0, 1.0)
        st = front_state(0.5, 0.0, (0.0, 0.0), 0.4, (0.0, 0.0))
        span, (_, fn), tol = (0.5, 2.0), bg.events[0], 1e-10
    else:
        # past the Gaussian asymptote p- runs to zero like a square root;
        # at tight tolerances the steps shrink to nothing before it, at
        # loose ones a step jumps across and the guard fires
        bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
        st = erf_orbit_entry_state(0.9)
        span, fn, tol = (1.0, 11.0), None, 1e-3
        with pytest.raises(SingularityError, match="p-=0"):
            evolve(st, bg, span, EvolveOptions(rtol=tol, atol=tol, samples=100))
    form = FORMS[st.form]
    if fn is None:
        def g(t, y):
            return y[form.dof + form.pminus]
    else:
        def g(t, y):
            return fn(*form.coords(t, y))
    rhs = _make_rhs(st.form, bg, False)
    solver = _straddling_step(rhs, span[0], np.concatenate([st.q, st.p]),
                              span[1], g, tol)
    dense = solver.dense_output()

    def f(s):
        return g(s, dense(s))
    root = _ode_brentq(f, solver.t_old, solver.t)
    assert root == _scipy_brentq(f, solver.t_old, solver.t)
    assert solver.t_old < root < solver.t


def test_brentq_port_edge_cases():
    f = lambda x: x - 1.0
    assert _ode_brentq(f, 1.0, 3.0) == _scipy_brentq(f, 1.0, 3.0) == 1.0
    assert _ode_brentq(f, -2.0, 1.0) == _scipy_brentq(f, -2.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        _ode_brentq(f, 2.0, 3.0)
    nan_past_half = lambda x: float("nan") if x > 0.5 else -1.0
    with pytest.raises(ValueError, match="NaN"):
        _ode_brentq(nan_past_half, 0.0, 2.0)
    # no tolerance: the iteration runs out of its 100 steps
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        ode.brentq(lambda x: x * x - 2.0, 0.0, 2.0, 0.0, 0.0)


def _random_brackets():
    """(f, fprime, lo, hi) of 300 random draws of three nondecreasing
    families, on brackets [lo, hi] around a root, as scalar functions."""
    rng = np.random.default_rng(12)
    families = [   # nondecreasing, with their slopes
        lambda c: (lambda x: x ** 3 + c[0] ** 2 * x - c[1], lambda x: 3 * x * x + c[0] ** 2),
        lambda c: (lambda x: np.arctan(4.0 * x) - c[1], lambda x: 4.0 / (1 + 16 * x * x)),
        lambda c: (lambda x: np.exp(c[0] * x) - 1.0 - c[1],
                   lambda x: c[0] * np.exp(c[0] * x)),
    ]
    out = []
    for i in range(300):
        c = rng.uniform(0.1, 1.5, size=2) * (1, rng.choice((-1, 1)))
        f, fprime = families[i % 3](c)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, size=2)).tolist()
        if f(lo) < 0.0 < f(hi):
            out.append((f, fprime, lo, hi))
    return out


def _each(fns):
    """A batch callable f(x, i) that evaluates point i's own scalar
    function fns[i] on its float."""
    return lambda x, i: np.array([float(fns[k](v)) for v, k in zip(x.tolist(), i.tolist())])


def _batch_newton(fs, fprimes, starts, los, his):
    """masked_newton on one batch whose point i has its own f and fprime,
    called through first_error: it raises the error a loop over the points
    meets first."""
    def newton(fs, fprimes, starts, los, his):
        return ode.masked_newton(_each(fs), _each(fprimes), np.array(starts, dtype=float),
                                 np.array([float(f(x)) for f, x in zip(fs, starts)]),
                                 np.array(los, dtype=float), np.array(his, dtype=float),
                                 1e-12, 4 * ode.EPS)
    return ode.first_error(newton, fs, fprimes, starts, los, his)


def test_newton_finds_brentqs_root_on_random_brackets():
    brackets = _random_brackets()
    for f, fprime, lo, hi in brackets:
        ref = ode.brentq(f, lo, hi, 1e-12, 4 * ode.EPS)
        tol = 1e-12 + 4 * ode.EPS * abs(ref)
        for start in (lo, hi):
            root = _batch_newton([f], [fprime], [start], [lo], [hi])[0]
            assert abs(root - ref) <= 2 * tol
    assert len(brackets) > 100


def test_newton_batch_is_bitwise_the_per_point_iteration():
    # each of the random brackets from both ends in one batch: every root
    # has the bits of Newton's method on that bracket alone, in a batch of
    # one and in Python floats
    brackets = _random_brackets()
    fs, fprimes, starts, los, his = zip(*[(f, fp, start, lo, hi)
                                          for f, fp, lo, hi in brackets
                                          for start in (lo, hi)])
    roots = _batch_newton(fs, fprimes, starts, los, his)
    alone = [_batch_newton([f], [fp], [x], [lo], [hi])[0]
             for f, fp, x, lo, hi in zip(fs, fprimes, starts, los, his)]
    floats = [newton_per_point(f, fp, x, float(f(x)), lo, hi, 1e-12, 4 * ode.EPS)
              for f, fp, x, lo, hi in zip(fs, fprimes, starts, los, his)]
    assert roots.tobytes() == np.array(alone).tobytes() == np.array(floats).tobytes()


def test_newton_safeguards():
    # in one batch: a step that leaves the bracket, and a zero slope,
    # bisect; a start on the root returns it
    roots = _batch_newton(
        [lambda x: np.arctan(x) - 0.2, lambda x: x ** 3 - 0.5, lambda x: x - 1.0],
        [lambda x: 1 / (1 + x * x), lambda x: 3 * x * x, lambda x: 1.0],
        [10.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [10.0, 2.0, 1.0])
    assert abs(roots[0] - np.tan(0.2)) <= 1e-12
    assert abs(roots[1] - 0.5 ** (1 / 3)) <= 1e-12
    assert roots[2] == 1.0
    # rounding that puts f on the wrong side within a tolerance of the root:
    # the converged step is taken, not a bisection of the whole bracket
    calls = []

    def biased(x):
        calls.append(x)
        return 1e-18 if abs(x - 0.3) < 1e-13 else x - 0.3
    roots = _batch_newton([biased, lambda x: x - 0.7], [lambda x: 1.0] * 2,
                          [0.0, 0.0], [0.0, 0.0], [2.0, 2.0])
    assert np.all(np.abs(roots - [0.3, 0.7]) < 1e-13)
    assert len(calls) <= 4
    # a failing point fails the batch, whatever the other points do
    with pytest.raises(ValueError, match="NaN"):
        _batch_newton([lambda x: x - 0.5, lambda x: float("nan") if x > 0.5 else x - 1.0],
                      [lambda x: 1.0] * 2, [0.0, 0.0], [0.0, 0.0], [2.0, 2.0])
    with pytest.raises(RuntimeError):   # halving from 1e300 down to x = 1
        _batch_newton([lambda x: x - 0.5, lambda x: x - 1.0],
                      [lambda x: 1.0, lambda x: 0.0], [0.0, 1e300],
                      [0.0, -1e300], [2.0, 1e300])


def test_newton_raises_for_the_first_point_a_loop_meets():
    # point 0 runs out of its 100 iterations; point 1 meets a NaN on its
    # first step and point 2 an error of fprime at its start: a loop over
    # the points raises point 0's error, and so does the batch
    fs = [lambda x: x - 1.0, lambda x: float("nan") if x > 0.5 else x - 1.0,
          lambda x: x - 1.0]

    def refuse(x):
        raise ZeroDivisionError(f"no slope at {x}")
    fprimes = [lambda x: 0.0, lambda x: 1.0, refuse]
    starts, los, his = [1e300, 0.0, 0.0], [-1e300, 0.0, 0.0], [1e300, 2.0, 2.0]
    for n, (err, match) in zip((3, 2), [(RuntimeError, "after 100 iterations")] * 2):
        with pytest.raises(err, match=match):
            _batch_newton(fs[:n], fprimes[:n], starts[:n], los[:n], his[:n])
    with pytest.raises(ValueError, match="NaN"):
        _batch_newton(fs[1:], fprimes[1:], starts[1:], los[1:], his[1:])
    with pytest.raises(ZeroDivisionError, match="no slope at 0.0"):
        _batch_newton(fs[2:], fprimes[2:], starts[2:], los[2:], his[2:])
    # a NaN that point 0 meets on its seventh value comes before an error
    # of fprime that point 1 meets at once; the text names point 0's x, as
    # the iteration on point 0 alone does
    slow = lambda x: float("nan") if x < 0.4 else x - 0.2
    with pytest.raises(ValueError) as alone:
        newton_per_point(slow, lambda x: 3.0, 2.0, 1.8, 0.0, 2.0, 1e-12, 4 * ode.EPS)
    with pytest.raises(ValueError) as batch:
        _batch_newton([slow, fs[2]], [lambda x: 3.0, refuse], [2.0, 0.0],
                      [0.0, 0.0], [2.0, 2.0])
    assert str(batch.value) == str(alone.value)
    assert str(alone.value).startswith("The function value at x=0.358")


# ---------------------------------------------------------------------------
# covariant and nonrelativistic flows
# ---------------------------------------------------------------------------

def test_covariant_free_motion():
    bg = backgrounds.constant(1.0)
    u = np.array([np.sqrt(1.29), 0.2, -0.3, 0.4])
    traj = evolve(covariant_state(FourVector(0, 0, 0, 0), FourVector(*u)), bg,
                  (0.0, 3.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    expect = traj.times[:, None] * u[None, :]
    assert np.max(np.abs(traj.q - expect)) < 1e-10
    assert np.max(np.abs(traj.p - u[None, :])) < 1e-12


def test_covariant_momentum_on_a_massless_background_is_singular():
    # m = 0 is the covariant chart's singular surface: the momentum m u vanishes
    state = covariant_state(FourVector(0, 0, 0, 0), FourVector(np.sqrt(1.29), 0.2, -0.3, 0.4))
    with pytest.raises(SingularityError, match="covariant momentum needs m > 0"):
        state.four_momentum(backgrounds.constant(0.0))


def test_covariant_unit_norm_and_orthogonality():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = instant_state(0.0, (0.1, -0.2, 0.3), (0.2, 0.1, -0.3))
    cov = instant_to_covariant(st, bg)
    traj = evolve(cov, bg, (0.0, 4.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    from confdyn.geometry import METRIC_DIAG
    dot = lambda a, b: float(a @ (METRIC_DIAG * b))
    for s in points(traj.batch_state()):
        u = s.p
        assert dot(u, u) == pytest.approx(1.0, abs=1e-10)
        # acceleration from the force law stays orthogonal to the velocity
        g = bg.grad_m2(s.position())
        g_up = np.array([g[0], -g[1], -g[2], -g[3]])
        m2 = bg.m2(s.position())
        acc = (g_up - u * dot(u, g_up)) / (2.0 * m2)
        assert abs(dot(u, acc)) < 1e-10


def test_covariant_planewave_momenta_conserved():
    # p_mu = m(x) u_mu on shell; the plane-wave charges p-, p1, p2 survive
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    st = instant_state(0.0, (0.1, -0.2, 0.3), (0.2, 0.1, -0.3))
    cov = instant_to_covariant(st, bg)
    traj = evolve(cov, bg, (0.0, 4.0), EvolveOptions(rtol=1e-12, atol=1e-12))
    charges = []
    for s in points(traj.batch_state()):
        m = bg.mass(s.position())
        u_lower = np.array([s.p[0], -s.p[1], -s.p[2], -s.p[3]])
        pplus, pminus, p1, p2 = lf_momenta(m * u_lower)
        charges.append((pminus, p1, p2))
    charges = np.array(charges)
    assert np.max(np.abs(charges - charges[0])) < 1e-9


def test_nonrelativistic_flow():
    bg = backgrounds.constant(4.0)  # m = 2
    p = np.array([0.02, -0.01, 0.03])
    st = instant_state(0.0, (0.0, 0.0, 0.0), p)
    traj = evolve(st, bg, (0.0, 5.0),
                  EvolveOptions(rtol=1e-12, atol=1e-12, nonrelativistic=True))
    expect = -traj.times[:, None] * p[None, :] / 2.0
    assert np.max(np.abs(traj.q - expect)) < 1e-10
    with pytest.raises(ValueError):
        fr = front_state(0.0, 0.0, (0, 0), 0.5, (0, 0))
        evolve(fr, bg, (0.0, 1.0), EvolveOptions(nonrelativistic=True))


# ---------------------------------------------------------------------------
# conversions, monitors, serialization
# ---------------------------------------------------------------------------

def test_conversion_roundtrips():
    rng = np.random.default_rng(11)
    bg = backgrounds.linear_z(0.5, 1.2, switched=False)
    for _ in range(8):
        st = _random_instant_state(rng, bg)
        h = hamiltonian_instant(st, bg)
        cov = instant_to_covariant(st, bg)
        back = covariant_to_instant(cov, bg)
        assert np.allclose(back.q, st.q, atol=1e-12)
        assert np.allclose(back.p, st.p, atol=1e-12)
        assert back.time == pytest.approx(st.time, abs=1e-12)
        fr = instant_to_front(st, bg)
        assert fr.time == pytest.approx(st.time + st.q[2], abs=1e-12)  # x+ = t+z
        assert fr.q[0] == pytest.approx(st.time - st.q[2], abs=1e-12)  # x- = t-z
        assert fr.p[0] == pytest.approx(0.5 * (h - st.p[2]), rel=1e-12)
        ex = front_to_extended(fr, bg, s=0.25)
        assert ex.q[0] == pytest.approx(fr.time)
        assert ex.p[0] == pytest.approx(hamiltonian_front(fr, bg), rel=1e-12)
        assert ex.time == 0.25


def test_monitor_recompute_matches_trajectory():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    qs = conformal.spacelike_set(1.0)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    traj = evolve(st, bg, (0.0, 2.0), EvolveOptions(rtol=1e-12, atol=1e-12),
                  monitors=qs)
    vals, drifts = monitor(traj, qs, bg)
    for q in qs:
        assert np.array_equal(vals[q.label], traj.quantities[q.label])
        assert drifts[q.label] == traj.drifts[q.label]
        assert drifts[q.label] < 1e-8


def test_trajectory_io_roundtrip(tmp_path):
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    st = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -0.5))
    traj = evolve(st, bg, (0.0, 3.0), EvolveOptions(samples=60),
                  monitors=conformal.spacelike_set(1.0))
    csv = tmp_path / "run.csv"
    traj.to_csv(csv)
    with open(csv) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    # event restarts append the crossing samples to the requested grid
    assert data.shape[0] == len(traj.times) >= 60
    assert header[0] == "t"
    it = header.index("z")
    assert np.max(np.abs(data[:, it] - traj.q[:, 2])) < 1e-15
    iq = header.index("Q5")
    assert np.max(np.abs(data[:, iq] - traj.quantities["Q5"])) < 1e-15

    js = tmp_path / "run.json"
    traj.to_json(js)
    blob = json.loads(js.read_text())
    assert blob["form"] == "instant"
    assert blob["stats"]["event_crossings"] >= 1
    assert blob["drifts"]["Q5"] == traj.drifts["Q5"]
    assert any(name == "z=0" for name, _ in blob["events"])


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseSpaceState("weird", 0.0, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        PhaseSpaceState("instant", 0.0, np.zeros(4), np.zeros(3))
    # component-first batches: q, p of shape (n, N) with N times
    batch = PhaseSpaceState("front", np.ones(5), np.zeros((3, 5)), np.ones((3, 5)))
    assert batch.time.shape == (5,)
    with pytest.raises(ValueError):
        PhaseSpaceState("front", 1.0, np.zeros((3, 5)), np.ones((3, 5)))
    with pytest.raises(ValueError):
        PhaseSpaceState("front", np.ones(5), np.zeros((3, 5)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        PhaseSpaceState("front", np.ones(5), np.zeros((5, 3)), np.ones((5, 3)))
    with pytest.raises(SingularityError):
        front_state(0.0, 0.0, (0, 0), 0.0, (0.1, 0.2))
    with pytest.raises(ValueError):
        covariant_state(FourVector(0, 0, 0, 0), FourVector(1, 0.5, 0, 0))


# ---------------------------------------------------------------------------
# the form table
# ---------------------------------------------------------------------------

_LF_BACKGROUNDS = {
    "gaussian": backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0),
    "planewave_xminus": backgrounds.plane_wave_sin2(1.0, 0.5, 1.3, "xminus"),
    "linear_z": backgrounds.linear_z(0.7, 1.0, switched=False),
}


@pytest.mark.parametrize("name", sorted(_LF_BACKGROUNDS))
def test_front_kernel_is_extended_kernel_with_xplus_as_time(name):
    bg = _LF_BACKGROUNDS[name]
    front = _make_rhs("front", bg, False)
    extended = _make_rhs("extended", bg, False)
    rng = np.random.default_rng(41)
    for _ in range(40):
        xplus, pplus, s = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), 0.3
        pminus = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        y = np.array([*rng.uniform(-1.0, 1.0, 3), pminus, *rng.uniform(-0.5, 0.5, 2)])
        full = np.array(extended(s, [xplus, *y[:3].tolist(), pplus, *y[3:].tolist()]))
        assert full[0] == 1.0
        assert (np.array(front(xplus, y.tolist())) == full[[1, 2, 3, 5, 6, 7]]).all()
        # and both are Hamilton's equations dq/ds = -dK/dp, dp/ds = dK/dq
        st = PhaseSpaceState("extended", s, np.array([xplus, *y[:3]]),
                             np.array([pplus, *y[3:]]))
        dq, dp = fd_partials(hamiltonian_extended, st, bg, 1e-6)
        assert np.allclose(full, np.concatenate([-dp, dq]), rtol=1e-6, atol=1e-8)


_POSITIONS = {  # form: (time, q, (t, x, y, z))
    "instant": (5.0, [1.0, 2.0, 3.0], (5.0, 1.0, 2.0, 3.0)),
    "front": (5.0, [1.0, 2.0, 3.0], (3.0, 2.0, 3.0, 2.0)),
    "extended": (9.0, [5.0, 1.0, 2.0, 3.0], (3.0, 2.0, 3.0, 2.0)),
    "covariant": (9.0, [1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0, 4.0)),
}

_COLUMNS = {
    "instant": ("t", ["x", "y", "z"], ["p1", "p2", "p3"]),
    "front": ("xplus", ["xminus", "x1", "x2"], ["pminus", "p1", "p2"]),
    "extended": ("s", ["xplus", "xminus", "x1", "x2"],
                 ["pplus", "pminus", "p1", "p2"]),
    "covariant": ("tau", ["x0", "x1", "x2", "x3"], ["u0", "u1", "u2", "u3"]),
}


def _components(x):
    return (x.t, x.x, x.y, x.z)


@pytest.mark.parametrize("form", sorted(_POSITIONS))
def test_form_position_pinned_and_batched(form):
    layout = FORMS[form]
    time, q, expected = _POSITIONS[form]
    assert _components(layout.position(time, np.array(q))) == expected
    # an integrator's flat y = (q, p): only q[:dof] is read
    assert _components(layout.position(time, np.array(q + [7.0] * len(q)))) == expected
    rng = np.random.default_rng(5)
    times, qs = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, (layout.dof, 9))
    batch = _components(layout.position(times, qs))
    for i in range(9):
        point = _components(layout.position(times[i], qs[:, i]))
        assert tuple(c[i] for c in batch) == point


@pytest.mark.parametrize("form", sorted(_COLUMNS))
def test_form_columns_pminus_slot_and_bracket(form):
    layout = FORMS[form]
    n = layout.dof
    traj = Trajectory(form, np.zeros(2), np.zeros((2, n)), np.zeros((2, n)), "none")
    assert traj.column_names() == _COLUMNS[form]
    assert len(layout.p_names) == n
    slot = "pminus" if form in ("front", "extended") else None
    assert (None if layout.pminus is None else layout.p_names[layout.pminus]) == slot
    assert layout.canonical == (form != "covariant")


# ---------------------------------------------------------------------------
# the flows against their expressions with m^2 and its gradient read apart
# ---------------------------------------------------------------------------

def _two_call_rhs(form, bg, nonrel=False):
    """Each flow as written with bg.m2 and bg.grad_m2 as two calls, on a y
    array, its dot products summed left to right and p-^2 a product."""
    position = FORMS[form].position

    def instant(t, y):
        pos = position(t, y)
        p = y[3:6]
        pp = p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
        m2 = bg.m2(pos)
        g = bg.grad_m2(pos)
        if nonrel:
            m = np.sqrt(m2)
            fac = (1.0 - pp / (2.0 * m2)) / (2.0 * m)
            return np.concatenate([-p / m, g[1:4] * fac])
        H = np.sqrt(pp + m2)
        return np.concatenate([-p / H, g[1:4] / (2.0 * H)])

    def lightfront(t, y):
        pos = position(t, y)
        pminus, p1, p2 = y[-3], y[-2], y[-1]
        m2 = bg.m2(pos)
        lfg = lf_gradient(bg.grad_m2(pos))
        pp = p1 * p1 + p2 * p2
        w = 4.0 * pminus
        flow = ((pp + m2) / (4.0 * (pminus * pminus)), -p1 / (2.0 * pminus),
                -p2 / (2.0 * pminus), lfg[1] / w, lfg[2] / w, lfg[3] / w)
        if form == "extended":
            return np.array((1.0, *flow[:3], lfg[0] / w, *flow[3:]))
        return np.array(flow)

    def covariant(tau, y):
        pos = position(tau, y)
        u = y[4:8]
        m2 = bg.m2(pos)
        g = bg.grad_m2(pos)
        gu = raise_index(g)
        ug = u[0] * g[0] + u[1] * g[1] + u[2] * g[2] + u[3] * g[3]
        udot = (gu - u * ug) / (2.0 * m2)
        return np.concatenate([u, udot])

    return {"instant": instant, "front": lightfront, "extended": lightfront,
            "covariant": covariant}[form]


def _flow_states(form, kind, rng, n=40):
    """n seeded (time, y) pairs inside the field's real, regular region;
    every fourth one has x_perp = p_perp = 0 exactly, and the switched
    light-front field gets states on x+ = L = 1.2."""
    out = []
    for i in range(n):
        perp = np.zeros(2) if i % 4 == 0 else rng.uniform(-0.4, 0.4, 2)
        pperp = np.zeros(2) if i % 4 == 0 else rng.uniform(-0.3, 0.3, 2)
        if form == "instant":
            if kind == "dilation":
                t, z = rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5)
            else:
                t, z = rng.uniform(-0.5, 0.5), (0.0 if i % 5 == 1 else rng.uniform(-0.8, 0.8))
            out.append((t, np.array([*perp, z, *pperp, rng.uniform(-0.5, 0.5)])))
        elif form == "covariant":
            x = np.array([rng.uniform(1.5, 2.5), *perp, rng.uniform(-0.5, 0.5)])
            v = np.array([0.0, *rng.uniform(-0.4, 0.4, 3)])
            v[0] = np.sqrt(1.0 + v[1:] @ v[1:])
            out.append((rng.uniform(0.0, 1.0), np.concatenate([x, v])))
        else:
            xplus = 1.2 if (kind == "switched" and i % 5 == 1) else rng.uniform(0.4, 2.5)
            xminus, pminus = rng.uniform(-0.6, 0.6), rng.uniform(0.2, 0.8)
            if form == "front":
                out.append((xplus, np.array([xminus, *perp, pminus, *pperp])))
            else:
                out.append((rng.uniform(0.0, 2.0),
                            np.array([xplus, xminus, *perp, rng.uniform(0.1, 1.0),
                                      pminus, *pperp])))
    return out


_FLOW_FIELDS = {
    "linear_z": lambda: backgrounds.linear_z(0.8, 1.1, switched=True),
    "dilation": lambda: backgrounds.dilation_mass(1.3),
    "switched": lambda: backgrounds.special_conformal_switched(1.1, 1.2, 0.9),
    "gaussian": lambda: backgrounds.special_conformal_gaussian(1.1, 1.2, 0.9),
    "plane_wave": lambda: backgrounds.plane_wave_sin2(1.0, 0.5, 1.3, "xplus"),
}


@pytest.mark.parametrize("form, nonrel, kind", [
    ("instant", False, "linear_z"), ("instant", True, "linear_z"),
    ("instant", False, "dilation"), ("instant", True, "dilation"),
    ("front", False, "switched"), ("front", False, "gaussian"),
    ("front", False, "plane_wave"), ("extended", False, "switched"),
    ("extended", False, "gaussian"), ("extended", False, "plane_wave"),
    ("covariant", False, "dilation"),
])
def test_rhs_equals_two_call_expressions(form, nonrel, kind):
    bg = _FLOW_FIELDS[kind]()
    rhs = _make_rhs(form, bg, nonrel)
    ref = _two_call_rhs(form, bg, nonrel)
    rng = np.random.default_rng(606)
    for t, y in _flow_states(form, kind, rng):
        # the flow takes the floats the stepper hands it
        got, want = np.array(rhs(t, y.tolist())), ref(t, y)
        assert all(type(v) is float for v in rhs(t, y.tolist()))
        assert got.shape == want.shape and np.array_equal(got, want)
        # signed zeros too: the output files print them
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _hamiltonian_state(form, kind, v):
    """A state of the form inside the field's real, regular region, from
    eight numbers in [-1, 1]: instant z >= 0.1 clear of linear_z's switch,
    instant t >= 1.5 clear of the dilation field's x.x = 0, x+ in [0.4, 2.5]
    and p- in [0.2, 0.8]."""
    if form == "instant":
        if kind == "dilation":
            t, z = 2.0 + 0.5 * v[0], 0.5 * v[3]
        else:
            t, z = 0.5 * v[0], 0.5 + 0.4 * v[3]
        return instant_state(t, [0.5 * v[1], 0.5 * v[2], z], 0.5 * v[4:7])
    xplus, xminus, xperp = 1.45 + 1.05 * v[0], 0.6 * v[1], 0.4 * v[2:4]
    pminus, pperp = 0.5 + 0.3 * v[4], 0.3 * v[5:7]
    if form == "front":
        return front_state(xplus, xminus, xperp, pminus, pperp)
    return extended_state(xplus, xminus, xperp, 0.55 + 0.45 * v[7], pminus, pperp)


_HAMILTONIANS = {"instant": hamiltonian_instant, "front": hamiltonian_front,
                 "extended": hamiltonian_extended}


@pytest.mark.parametrize("form, kind", [
    ("instant", "linear_z"), ("instant", "dilation"), ("front", "switched"),
    ("front", "gaussian"), ("front", "plane_wave"), ("extended", "switched"),
    ("extended", "gaussian"), ("extended", "plane_wave"),
])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(v=arrays(np.float64, 8, elements=strategies.floats(-1.0, 1.0)))
def test_rhs_is_the_hamiltonian_partials(form, kind, v):
    # hamiltonian_partials reads the flow back as (dH/dq, dH/dp): to the bit
    # the written-out flow of test_rhs_equals_two_call_expressions (the
    # extended dx+/ds = 1 being -dK/dp+), and the central differences of the
    # form's Hamiltonian, p+ on shell and K = p+ on shell - p+ sharing one
    # expression
    bg, state = _FLOW_FIELDS[kind](), _hamiltonian_state(form, kind, v)
    assume(kind != "switched" or abs(state.position().xplus - 1.2) > 0.05)
    dHq, dHp = hamiltonian_partials(state, bg)
    y = np.concatenate([state.q, state.p])
    want = _two_call_rhs(form, bg)(state.time, y)
    assert np.array_equal(np.concatenate([-dHp, dHq]), want)
    fdq, fdp = fd_partials(_HAMILTONIANS[form], state, bg, 1e-6)
    scale = max(1.0, np.abs(want).max())
    assert np.allclose(dHq, fdq, rtol=1e-6, atol=1e-7 * scale)
    assert np.allclose(dHp, fdp, rtol=1e-6, atol=1e-7 * scale)


@pytest.mark.parametrize("form, bg, t, y, err", [
    ("instant", backgrounds.linear_z(1.0, 1.0, switched=False), 0.3,
     [0.1, 0.2, -2.0, 0.1, 0.0, 0.0], RealityError),
    ("front", backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0), 0.0,
     [0.3, 0.1, 0.2, 0.5, 0.0, 0.0], SingularityError),
    ("extended", backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0), 0.7,
     [0.0, 0.3, 0.1, 0.2, 0.4, 0.5, 0.0, 0.0], SingularityError),
    ("covariant", backgrounds.dilation_mass(1.0), 0.0,
     [1.0, 0.6, 0.0, 0.8, 1.0, 0.0, 0.0, 0.0], SingularityError),
    ("instant", backgrounds.dilation_mass(1.0), 1.0,
     [0.6, 0.0, 0.8, 0.1, 0.0, 0.0], SingularityError),
])
def test_rhs_raises_as_the_field(form, bg, t, y, err):
    y = np.array(y)
    with pytest.raises(err):
        bg.m2(FORMS[form].position(t, y))
    with pytest.raises(err):
        _make_rhs(form, bg, False)(t, y)


# the RHS at p- = 0 exactly, pinned to the values of the FourVector kernels:
# numpy's division (inf/nan with a RuntimeWarning), no exception
@pytest.mark.parametrize("form, y, expected", [
    ("front", [0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
     [np.inf, np.nan, np.nan, -np.inf, np.nan, np.nan]),
    ("extended", [1.5, 0.3, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
     [1.0, np.inf, np.nan, np.nan, -np.inf, -np.inf, np.nan, np.nan]),
    ("front", [0.3, 0.1, -0.2, -0.0, 0.2, -0.1],
     [np.inf, np.inf, -np.inf, np.inf, -np.inf, np.inf]),
])
def test_lightfront_rhs_at_pminus_zero_as_pinned(form, y, expected):
    # on an array, and on the floats the stepper hands the flow
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    for arg in (np.array(y), y):
        with pytest.warns(RuntimeWarning):
            out = np.asarray(_make_rhs(form, bg, False)(1.5, arg))
        assert out.shape == (len(expected),)
        assert np.array_equal(out, expected, equal_nan=True)


def test_lightfront_rhs_at_extreme_pminus():
    # p- = 1e200: (p-)^2 overflows to inf as a product, and no float **
    # raises OverflowError; p- = 1e-300: (p-)^2 underflows to 0, and the
    # quotient is numpy's inf with a RuntimeWarning, not ZeroDivisionError
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    for form, y in (("front", [0.3, 0.1, -0.2, 1e200, 0.2, -0.1]),
                    ("extended", [1.5, 0.3, 0.1, -0.2, 1.0, 1e200, 0.2, -0.1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.asarray(_make_rhs(form, bg, False)(1.5, y))
        assert np.isfinite(out).all()
    with pytest.warns(RuntimeWarning):
        out = _make_rhs("front", bg, False)(1.5, [0.3, 0.1, -0.2, 1e-300, 0.2, -0.1])
    assert out[0] == np.inf


# a massless field at rest: H = 0, m = 0 and m^2 = 0 divide as numpy does
@pytest.mark.parametrize("form, nonrel, y, expected", [
    ("instant", False, [0.1, 0.2, 0.3, 0.0, 0.0, 0.0], [np.nan] * 6),
    ("instant", True, [0.1, 0.2, 0.3, 0.0, 0.1, 0.0],
     [np.nan, -np.inf, np.nan, np.nan, np.nan, np.nan]),
    ("covariant", False, [2.0, 0.1, 0.2, 0.1, 1.0, 0.0, 0.0, 0.0],
     [1.0, 0.0, 0.0, 0.0, np.nan, np.nan, np.nan, np.nan]),
])
def test_rhs_at_zero_mass_as_pinned(form, nonrel, y, expected):
    for arg in (np.array(y), y):
        with pytest.warns(RuntimeWarning):
            out = _make_rhs(form, backgrounds.constant(0.0), nonrel)(0.5, arg)
        assert np.array_equal(np.asarray(out), expected, equal_nan=True)
