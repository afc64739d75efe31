"""Acceptance gate: the ten headline claims, one verdict line apiece.

Each test prints a single PASS/FAIL line (visible under pytest -s or in the
captured output) and then asserts, so the suite both reports and gates.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import erf

from confdyn import backgrounds, conformal, kgverify
from confdyn.analytic import conformal_orbit, spacelike_orbit
from confdyn.dynamics import (
    EvolveOptions,
    evolve,
    extended_state_on_shell,
    hamiltonian_instant,
    instant_state,
    instant_to_covariant,
)
from confdyn.geometry import METRIC_DIAG, FourVector, LightFrontCoords, from_lightfront
from confdyn.integrability import classify, involution_table, random_states
from confdyn.kgverify import (
    eigen_defect,
    make_conformal_solution,
    make_dilation_solution,
    make_planewave_solution,
    residual_convergence,
)
from oracles import erf_orbit_asymptote, erf_orbit_entry_state

_TIGHT = EvolveOptions(rtol=1e-12, atol=1e-12)

# entry speeds from the bounce figure; the flipped bracket runs positions
# against the momenta, so penetration into z > 0 needs p3(0) = -v
_ENTRY_SPEEDS = (0.25, 0.4, 0.5, 0.6)
_KAPPAS = (0.3, 0.5, 0.7, 0.9)


def _verdict(name: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


def _reshell(bg, states):
    return [extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4],
                                    st.p[1], st.p[2:4], s=st.time)
            for st in states]


def _fig1_runs():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    runs = []
    for v in _ENTRY_SPEEDS:
        init = instant_state(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, -v))
        orb = spacelike_orbit(1.0, init)
        traj = evolve(init, bg, (0.0, 1.05 * orb.constants["t_exit"]), _TIGHT,
                      monitors=conformal.spacelike_set(1.0))
        runs.append((v, orb, traj, bg))
    return runs


def test_criterion_01_bounce_orbits_match_closed_form():
    worst = 0.0
    ok = True
    for v, orb, traj, bg in _fig1_runs():
        t_exit = orb.constants["t_exit"]
        inside = traj.times <= t_exit
        xs, ps = orb.sample(traj.times[inside])
        h = np.array([hamiltonian_instant(s, bg)
                      for s, m in zip(traj.states(), inside) if m])
        scale_x = np.maximum(1.0, np.abs(xs[:, 1:]))
        scale_p = np.maximum(1.0, np.abs(ps[:, 1:]))
        err = max(np.max(np.abs(xs[:, 1:] - traj.q[inside]) / scale_x),
                  np.max(np.abs(ps[:, 1:] - traj.p[inside]) / scale_p),
                  np.max(np.abs(ps[:, 0] - h) / np.maximum(1.0, ps[:, 0])))
        worst = max(worst, err)
        ok &= err <= 1e-8
        # the orbit must actually enter the field and leave it again
        zmax = np.max(traj.q[:, 2])
        ok &= zmax > 0.5 * orb.constants["z_max"]
        ok &= traj.q[-1, 2] < -1e-3
    _verdict("criterion 1: four linear-field bounce orbits match the closed "
             "form to 1e-8", ok, f"worst rel err {worst:.2e}")


def test_criterion_02_five_charges_survive_p3_does_not():
    worst_q = 0.0
    worst_p3 = 0.0
    ok = True
    for v, orb, traj, bg in _fig1_runs():
        for label, d in traj.drifts.items():
            worst_q = max(worst_q, d)
            ok &= d <= 1e-8
        # p3 is deliberately not conserved: it climbs as B t / (2 Q5)
        t_exit = orb.constants["t_exit"]
        q5 = orb.constants["Q5"]
        inside = traj.times <= t_exit
        predicted = -v + traj.times[inside] / (2.0 * q5)
        gap = np.max(np.abs(traj.p[inside, 2] - predicted))
        total_swing = t_exit / (2.0 * q5)
        worst_p3 = max(worst_p3, gap)
        ok &= gap <= 1e-8 and total_swing > 0.4
    _verdict("criterion 2: the five charges drift below 1e-8 while p3 "
             "follows B t/(2 Q5)", ok,
             f"max charge drift {worst_q:.2e}, max p3 gap {worst_p3:.2e}")


def test_criterion_03_spacelike_maximal_superintegrability():
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    states = random_states("instant", 24, np.random.default_rng(101),
                           accept=lambda st: bg.m2(st.position()) > 0.05)
    cert = classify(conformal.spacelike_set(1.0), states, bg)
    ok = (cert.rank == 5 and cert.independence.unanimous
          and cert.label == "maximally superintegrable")
    _verdict("criterion 3: five spacelike charges are independent at 24 "
             "random states and certify maximal superintegrability", ok,
             f"rank {cert.rank}, label '{cert.label}'")


def test_criterion_04_planewave_seven_constants():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    qs = conformal.planewave_extended_set()
    st = extended_state_on_shell(bg, 0.0, 0.0, (0.0, 0.0), 0.5, (0.1, -0.05))
    traj = evolve(st, bg, (0.0, 10.0), _TIGHT, monitors=qs)
    drift = max(traj.drifts.values())
    ok = drift <= 1e-8
    # mass-shell charge vanishes identically along the flow
    q6 = np.abs(traj.quantities["Q6"])
    ok &= np.max(q6) <= 1e-10
    states = _reshell(bg, random_states("extended", 20,
                                        np.random.default_rng(102)))
    tab = involution_table(qs, states, bg, tol=1e-9)
    sub = [0, 1, 2, 5]  # Q1, Q2, Q3, Q6
    br = max(tab.brackets[i, j] for i in sub for j in sub if i < j)
    ok &= br <= 1e-9
    cert = classify(qs, states, bg)
    ok &= cert.rank == 7
    _verdict("criterion 4: plane-wave constants drift below 1e-8, "
             "{Q1,Q2,Q3,Q6} is involutive and the set has rank 7", ok,
             f"drift {drift:.2e}, bracket {br:.2e}, rank {cert.rank}")


def test_criterion_05_error_function_orbit():
    bg = backgrounds.special_conformal_switched(1.0, 1.0, 1.0)
    worst_curve = 0.0
    worst_asym = 0.0
    ok = True
    for kappa in _KAPPAS:
        st = erf_orbit_entry_state(kappa)
        xp_end = 1.0 / (1.0 - kappa * erf(3.75))
        traj = evolve(st, bg, (1.0, xp_end), _TIGHT)
        recip = 1.0 / traj.times
        target = 1.0 - kappa * erf(traj.q[:, 0])
        gap = np.max(np.abs(recip - target))
        worst_curve = max(worst_curve, gap)
        ok &= gap <= 1e-6
        orb = conformal_orbit(bg, st)
        a_gap = abs(orb.constants["xplus_asymptote"]
                    - erf_orbit_asymptote(kappa))
        worst_asym = max(worst_asym, a_gap)
        ok &= a_gap <= 1e-4
    _verdict("criterion 5: 1/x+ = 1 - kappa Erf(x-) holds to 1e-6 for four "
             "steepness values, asymptote 1/(1-kappa) to 1e-4", ok,
             f"curve gap {worst_curve:.2e}, asymptote gap {worst_asym:.2e}")


def test_criterion_06_conformal_charge_algebra():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    qs = conformal.conformal_extended_set()
    states = _reshell(bg, random_states("extended", 20,
                                        np.random.default_rng(103)))
    tab = involution_table(qs, states, bg, tol=1e-9)
    sub = [0, 1, 2, 4]  # Q1, Q2, Q3, K
    br = max(tab.brackets[i, j] for i in sub for j in sub if i < j)
    cert = classify(qs, states, bg)
    ok = (br <= 1e-9 and cert.rank == 5
          and cert.label.endswith("superintegrable"))
    _verdict("criterion 6: conformal charges close in involution on shell "
             "and certify superintegrability", ok,
             f"bracket {br:.2e}, rank {cert.rank}, label '{cert.label}'")


def _kg_points(rng, kind, n):
    if kind == "cartesian":
        return [FourVector(rng.uniform(-1, 1), *rng.uniform(-1, 1, 3))
                for _ in range(n)]
    if kind == "lightfront":
        return [from_lightfront(LightFrontCoords(
            rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5),
            rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)))
            for _ in range(n)]
    return [FourVector(rng.uniform(1.8, 2.6), *rng.uniform(-0.4, 0.4, 3))
            for _ in range(n)]


def _kg_cases():
    pw_bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    cf_bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    dl_bg = backgrounds.dilation_mass(1.0)
    return [
        ("planewave", pw_bg, make_planewave_solution((0.25, -0.15), 0.6, pw_bg),
         "cartesian"),
        ("conformal", cf_bg,
         make_conformal_solution((0.25, -0.15), 0.8, cf_bg),
         "lightfront"),
        ("dilation", dl_bg, make_dilation_solution((0.25, -0.15), 0.8, 1.0),
         "cone"),
    ]


def test_criterion_07_kg_convergence_ratios():
    rng = np.random.default_rng(104)
    ok = True
    details = []
    for name, bg, phi, kind in _kg_cases():
        rows = residual_convergence(phi, bg, _kg_points(rng, kind, 50), h=5e-3)
        ratios = np.array([r[4] for r in rows])
        good = np.all(np.abs(ratios - 4.0) <= 0.5)
        ok &= bool(good)
        details.append(f"{name} ratio [{ratios.min():.2f},{ratios.max():.2f}]")
    # the off-shell control must NOT pass the same gate
    ctrl_bg = backgrounds.constant(1.0)
    p = (1.3, 0.2, -0.1, 0.3)
    ctrl = kgverify.Wavefunction("offshell", lambda x: np.exp(
        -1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y + p[3] * x.z)))
    rows = residual_convergence(ctrl, ctrl_bg, _kg_points(rng, "cartesian", 50),
                                h=5e-3)
    ctrl_ratios = np.array([r[4] for r in rows])
    ok &= bool(np.all(np.abs(ctrl_ratios - 4.0) > 0.5))
    details.append(f"control ratio ~{np.median(ctrl_ratios):.2f}")
    _verdict("criterion 7: h-halving ratios sit at 4 +- 0.5 for 50 points "
             "per exact family and the off-shell control fails the gate",
             ok, "; ".join(details))


def test_criterion_08_symmetry_eigenvalues():
    rng = np.random.default_rng(105)
    triples = {
        "planewave": [(conformal.translation_axis(1), 0.25),
                      (conformal.translation_axis(2), -0.15),
                      (conformal.translation_xminus(), 0.6)],
        "conformal": [(conformal.special_conformal_lf(), 0.8),
                      (conformal.null_rotation_t(1), 0.25),
                      (conformal.null_rotation_t(2), -0.15)],
        "dilation": [(conformal.dilation(), 0.8),
                     (conformal.null_rotation_t(1), 0.25),
                     (conformal.null_rotation_t(2), -0.15)],
    }
    ok = True
    worst_ratio_gap = 0.0
    for name, bg, phi, kind in _kg_cases():
        pts = _kg_points(rng, kind, 8)
        for gen, Q in triples[name]:
            d1 = eigen_defect(gen, phi, Q, pts, h=1e-3)
            d2 = eigen_defect(gen, phi, Q, pts, h=5e-4)
            ok &= d1 < 1e-4 and 2.5 < d1 / d2 < 6.0  # O(h^2) decay
            worst_ratio_gap = max(worst_ratio_gap, abs(d1 / d2 - 4.0))
            ok &= eigen_defect(gen, phi, Q + 0.5, pts, h=1e-3) > 0.1
    _verdict("criterion 8: each mode is an eigenvector of its three charges "
             "with O(h^2) defects; shifted eigenvalues are rejected", ok,
             f"worst decay-ratio gap {worst_ratio_gap:.2f}")


def test_criterion_09_covariant_matches_instant():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    init = instant_state(0.0, (0.1, -0.2, 0.3), (0.2, 0.1, -0.3))
    inst = evolve(init, bg, (0.0, 4.0), _TIGHT)
    cov0 = instant_to_covariant(init, bg)
    cov = evolve(cov0, bg, (0.0, 4.5), _TIGHT)
    # reparameterize tau -> t through the monotone x0(tau)
    spl = [CubicSpline(cov.q[:, 0], cov.q[:, i]) for i in (1, 2, 3)]
    tmax = cov.q[-1, 0]
    sel = inst.times <= tmax
    gap = max(np.max(np.abs(spl[i](inst.times[sel]) - inst.q[sel, i]))
              for i in range(3))
    norm = np.array([u @ (METRIC_DIAG * u) for u in cov.p])
    norm_drift = np.max(np.abs(norm - 1.0))
    worst_orth = 0.0
    for s in cov.states():
        u = s.p
        g = bg.grad_m2(s.position())
        g_up = np.array([g[0], -g[1], -g[2], -g[3]])
        m2 = bg.m2(s.position())
        udot = (g_up - u * float(u @ (METRIC_DIAG * g_up))) / (2.0 * m2)
        worst_orth = max(worst_orth, abs(float(u @ (METRIC_DIAG * udot))))
    ok = gap <= 1e-7 and norm_drift <= 1e-8 and worst_orth <= 1e-10
    _verdict("criterion 9: the covariant flow reproduces the instant "
             "worldline to 1e-7 with unit-norm velocity and orthogonal "
             "acceleration", ok,
             f"worldline gap {gap:.2e}, |u.u-1| {norm_drift:.2e}, "
             f"|u.udot| {worst_orth:.2e}")


def test_criterion_10_nonrelativistic_limit():
    bg = backgrounds.linear_z(0.001, 1.0, switched=False)
    init = instant_state(0.0, (0.5, -0.3, 0.2), (0.02, 0.03, -0.03))
    lz = conformal.angular_momentum_z_quantity(0.001)
    rel = evolve(init, bg, (0.0, 20.0), _TIGHT, monitors=[lz])
    nr = evolve(init, bg, (0.0, 20.0),
                EvolveOptions(rtol=1e-12, atol=1e-12, nonrelativistic=True),
                monitors=[lz])
    speed = max(np.max(np.linalg.norm(rel.p, axis=1)),
                np.max(np.linalg.norm(nr.p, axis=1)))
    gap = np.max(np.abs(rel.q - nr.q))
    # velocities agree to O((p/m)^2) relative, i.e. (p/m)^3 absolute, so the
    # separation over T = 20 stays within ~T (p/m)^3
    bound = 20.0 * speed ** 3
    drift = max(rel.drifts["B.Lz"], nr.drifts["B.Lz"])
    ok = speed <= 0.05 and gap <= bound and drift <= 1e-8
    _verdict("criterion 10: slow linear-field motion matches the "
             "nonrelativistic flow to O((p/m)^2) and both conserve B Lz", ok,
             f"|p|/m <= {speed:.3f}, position gap {gap:.2e} <= {bound:.2e}, "
             f"B Lz drift {drift:.2e}")
