"""Wave-equation residuals, symmetry eigenmodes, and convergence ratios."""

import math

import numpy as np
import pytest

from confdyn import backgrounds, conformal
from confdyn.analytic import planewave_orbit
from confdyn.dynamics import (
    extended_state,
    front_state,
    hamiltonian_extended,
    hamiltonian_front,
    instant_state,
)
from confdyn.errors import DomainError, SingularityError
from confdyn.geometry import (
    METRIC,
    METRIC_DIAG,
    FourVector,
    LightFrontCoords,
    from_lightfront,
    lower_index,
)
from confdyn.kgverify import (
    Wavefunction,
    eigen_defect,
    kg_residual,
    make_conformal_solution,
    make_dilation_solution,
    make_planewave_solution,
    phase_gradient,
    residual_convergence,
    symmetry_apply,
    write_convergence_csv,
)
from oracles import (
    commutator_identity_defect,
    fd_partials,
    killing_residual_fd,
    ode_residual_conformal,
    ode_residual_planewave,
)

# residuals are dominated by evaluator roundoff amplified by 1/h^2 once the
# truncation term drops near 1e-8, so the stencil stays at 5e-3
_H = 5e-3
# f(u) = exp(-u^2) with its erf antiderivative
_GAUSS = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)


def _cartesian_points(rng, n, t_range=(-1.0, 1.0), r=1.0):
    pts = []
    for _ in range(n):
        t = rng.uniform(*t_range)
        x, y, z = rng.uniform(-r, r, 3)
        pts.append(FourVector(t, x, y, z))
    return pts


def _conformal_points(rng, n):
    pts = []
    for _ in range(n):
        lf = LightFrontCoords(rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5),
                              rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        pts.append(from_lightfront(lf))
    return pts


def _cone_points(rng, n):
    pts = []
    for _ in range(n):
        t = rng.uniform(1.8, 2.6)
        x, y, z = rng.uniform(-0.4, 0.4, 3)
        pts.append(FourVector(t, x, y, z))
    return pts


# ---------------------------------------------------------------------------
# free modes and the off-shell control
# ---------------------------------------------------------------------------

def test_free_mode_second_order_convergence():
    bg = backgrounds.constant(1.69)
    phi = make_planewave_solution((0.3, -0.2), 0.8, bg)
    rng = np.random.default_rng(41)
    rows = residual_convergence(phi, bg, _cartesian_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert r1 < 1e-4
        assert 3.9 < ratio < 4.1


def test_free_mode_fourth_order_stencil():
    bg = backgrounds.constant(1.0)
    phi = make_planewave_solution((0.1, 0.2), 0.6, bg)
    x = FourVector(0.3, -0.2, 0.4, 0.1)
    r2 = abs(kg_residual(phi, bg, x, h=0.02, order=2))
    r4 = abs(kg_residual(phi, bg, x, h=0.02, order=4))
    assert r4 < r2 / 50.0
    with pytest.raises(ValueError):
        kg_residual(phi, bg, x, order=3)


def test_off_shell_control_plateaus():
    bg = backgrounds.constant(1.0)
    p = np.array([1.3, 0.2, -0.1, 0.3])  # p.p = 1.55 != 1
    gap = 1.0 - (p[0] ** 2 - p[1] ** 2 - p[2] ** 2 - p[3] ** 2)
    phi = Wavefunction("offshell", lambda x: np.exp(
        -1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y + p[3] * x.z)))
    rng = np.random.default_rng(42)
    rows = residual_convergence(phi, bg, _cartesian_points(rng, 6), h=_H)
    for _, h, r1, r2, ratio in rows:
        # residual sits at |m^2 - p.p| instead of shrinking
        assert r1 == pytest.approx(abs(gap), rel=1e-3)
        assert 0.95 < ratio < 1.05


# ---------------------------------------------------------------------------
# plane-wave family
# ---------------------------------------------------------------------------

def test_planewave_mode_on_profile():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    phi = make_planewave_solution((0.25, -0.15), 0.6, bg)
    rng = np.random.default_rng(43)
    rows = residual_convergence(phi, bg, _cartesian_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5
    chi = phi.params["chi"]
    m2 = lambda w: 1.0 * (1.0 + 0.5 * np.sin(w) ** 2)
    res = ode_residual_planewave(chi, (0.25, -0.15), 0.6, m2,
                                 np.linspace(-1.0, 1.0, 9))
    assert res < 1e-7


def test_planewave_mode_validation():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        make_planewave_solution((0.1, 0.2), 0.0, bg)


def test_planewave_eigen_defects():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    q1, q2, qm = 0.25, -0.15, 0.6
    phi = make_planewave_solution((q1, q2), qm, bg)
    rng = np.random.default_rng(44)
    pts = _cartesian_points(rng, 6)
    triples = [(conformal.translation_axis(1), q1),
               (conformal.translation_axis(2), q2),
               (conformal.translation_xminus(), qm)]
    for gen, Q in triples:
        d1 = eigen_defect(gen, phi, Q, pts, h=1e-3)
        d2 = eigen_defect(gen, phi, Q, pts, h=5e-4)
        assert d1 < 1e-5
        assert d1 / d2 == pytest.approx(4.0, abs=1.0)  # O(h^2) decay
    # a wrong eigenvalue cannot be talked away by refining the stencil
    bad = eigen_defect(conformal.translation_axis(1), phi, q1 + 0.5, pts,
                       h=1e-3)
    assert bad > 0.1


# ---------------------------------------------------------------------------
# conformal family
# ---------------------------------------------------------------------------

def test_conformal_mode_on_gaussian():
    bg = _GAUSS
    f = bg.profile[0]
    phi = make_conformal_solution((0.25, -0.15), 0.8, bg)
    rng = np.random.default_rng(45)
    rows = residual_convergence(phi, bg, _conformal_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5
    res = ode_residual_conformal(phi.params["g"], (0.25, -0.15), 0.8, f,
                                 np.linspace(-0.6, 0.6, 9))
    assert res < 1e-7


def test_conformal_mode_eigen_defects():
    q1, q2, q3 = 0.25, -0.15, 0.8
    phi = make_conformal_solution((q1, q2), q3, _GAUSS)
    rng = np.random.default_rng(46)
    pts = _conformal_points(rng, 5)
    triples = [(conformal.special_conformal_lf(), q3),
               (conformal.null_rotation_t(1), q1),
               (conformal.null_rotation_t(2), q2)]
    for gen, Q in triples:
        d1 = eigen_defect(gen, phi, Q, pts, h=1e-3)
        d2 = eigen_defect(gen, phi, Q, pts, h=5e-4)
        assert d1 < 1e-4
        assert d1 / d2 == pytest.approx(4.0, abs=1.0)
        assert eigen_defect(gen, phi, Q + 0.5, pts, h=1e-3) > 0.1


def test_conformal_mode_validation():
    bg = _GAUSS
    with pytest.raises(ValueError):
        make_conformal_solution((0.1, 0.2), 0.0, bg)
    phi = make_conformal_solution((0.1, 0.2), 0.5, bg)
    with pytest.raises(SingularityError):
        phi(FourVector(0.0, 0.0, 0.0, -0.5))  # x+ < 0
    with pytest.raises(DomainError) as err:
        # the stencil would cross x+ = 0
        kg_residual(phi, bg, FourVector(0.0025, 0.3, -0.2, 0.0025), h=_H)
    assert "leaves the domain" in str(err.value)


# ---------------------------------------------------------------------------
# dilation family
# ---------------------------------------------------------------------------

def test_dilation_mode_bessel_branch():
    bg = backgrounds.dilation_mass(1.0)
    phi = make_dilation_solution((0.25, -0.15), 0.8, 1.0)
    assert phi.params["alpha"] == pytest.approx(0.6)
    rng = np.random.default_rng(47)
    rows = residual_convergence(phi, bg, _cone_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5


def test_dilation_mode_complex_order():
    # csq < Q3^2 sends the Bessel order imaginary; the mode must still solve
    bg = backgrounds.dilation_mass(0.04)
    phi = make_dilation_solution((0.25, -0.15), 0.8, 0.04)
    assert abs(phi.params["alpha"].real) < 1e-12
    rng = np.random.default_rng(48)
    rows = residual_convergence(phi, bg, _cone_points(rng, 2), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5


def test_bessel_pair_binds_scipy_once(monkeypatch):
    # jv and yv are bound on the first real order and serve every later call
    from scipy.special import jv, yv
    from confdyn import kgverify
    monkeypatch.setattr(kgverify, "_jv", None)
    monkeypatch.setattr(kgverify, "_yv", None)
    z = -0.3j
    assert kgverify._bessel_pair(0.6 + 0j, z) == (complex(jv(0.6, z)), complex(yv(0.6, z)))
    assert (kgverify._jv, kgverify._yv) == (jv, yv)
    monkeypatch.setattr(kgverify, "_jv", lambda a, z: 2.0)
    monkeypatch.setattr(kgverify, "_yv", lambda a, z: 3.0)
    assert kgverify._bessel_pair(0.6, z) == (2.0, 3.0)


def test_dilation_mode_euler_limit():
    # Q_perp = 0 collapses the radial equation to an Euler power law
    phi = make_dilation_solution((0.0, 0.0), 0.8, 1.0)
    alpha = 0.6
    q3 = 0.8
    for x in (FourVector(2.0, 0.1, -0.2, 0.3), FourVector(2.4, 0.0, 0.0, -0.5)):
        v = np.sqrt(x.norm2()) / x.xplus
        direct = x.xplus ** (-(1.0 + 1j * q3)) * v ** (-1j * q3) * v ** alpha
        assert phi(x) == pytest.approx(direct, rel=1e-12)


def test_dilation_eigen_defect():
    phi = make_dilation_solution((0.25, -0.15), 0.8, 1.0)
    rng = np.random.default_rng(49)
    pts = _cone_points(rng, 5)
    d = eigen_defect(conformal.dilation(), phi, 0.8, pts, h=1e-3)
    assert d < 1e-4
    assert eigen_defect(conformal.dilation(), phi, 1.3, pts, h=1e-3) > 0.1


def test_dilation_mode_validation():
    with pytest.raises(ValueError):
        make_dilation_solution((0.1, 0.2), 0.8, -1.0)
    phi = make_dilation_solution((0.1, 0.2), 0.8, 1.0)
    with pytest.raises(SingularityError):
        phi(FourVector(0.1, 1.0, 0.0, 0.0))  # spacelike point
    assert not phi.in_domain(FourVector(0.1, 1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# operator identity, phase transport, reporting
# ---------------------------------------------------------------------------

def test_commutator_identity_any_generator():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    phi = make_planewave_solution((0.25, -0.15), 0.6, bg)
    x = FourVector(0.3, -0.1, 0.2, 0.4)
    # the identity holds for symmetries and non-symmetries alike
    for gen in (conformal.translation_xminus(), conformal.translation_xplus()):
        assert commutator_identity_defect(gen, bg, phi, x, h=_H) < 5e-3
    # but only the x- translation has a vanishing symmetry defect
    assert conformal.symmetry_defect(conformal.translation_xminus(), bg, x) < 1e-12
    assert conformal.symmetry_defect(conformal.translation_xplus(), bg, x) > 0.1


def test_phase_gradient_matches_orbit_momentum():
    # Hamilton-Jacobi transport: the mode's phase gradient is the classical
    # four-momentum along the orbit with the same charges
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    q1, q2, qm = 0.25, -0.15, 0.6
    phi = make_planewave_solution((q1, q2), qm, bg)
    orb = planewave_orbit(bg, front_state(0.2, 0.1, (0.3, -0.2), qm, (q1, q2)))
    for xp in (0.5, 1.3, 2.2):
        x = orb.position(xp)
        grad = phase_gradient(phi, x, h=1e-4)
        assert np.max(np.abs(grad - orb.momentum(xp))) < 1e-6


def test_symmetry_apply_is_linear():
    bg = backgrounds.constant(1.0)
    a = make_planewave_solution((0.1, 0.2), 0.5, bg)
    b = make_planewave_solution((-0.2, 0.1), 0.7, bg)
    comb = Wavefunction("combo", lambda x: 2.0 * a(x) - 1j * b(x))
    gen = conformal.boost_axis(3)
    x = FourVector(0.2, 0.4, -0.3, 0.1)
    lhs = symmetry_apply(gen, comb, x)
    rhs = 2.0 * symmetry_apply(gen, a, x) - 1j * symmetry_apply(gen, b, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_kg_residual_refuses_switch_surface():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = Wavefunction("anything", lambda x: np.exp(-1j * x.t))
    with pytest.raises(DomainError) as err:
        kg_residual(phi, bg, FourVector(0.5, 0.1, 0.2, 0.0))
    assert "switch surface" in str(err.value)


def test_convergence_csv_roundtrip(tmp_path):
    bg = backgrounds.constant(1.0)
    phi = make_planewave_solution((0.1, -0.2), 0.5, bg)
    rng = np.random.default_rng(50)
    rows = residual_convergence(phi, bg, _cartesian_points(rng, 3), h=_H)
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "point,h,residual_h,residual_h2,ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == _H
    assert float(first[4]) == pytest.approx(rows[0][2] / rows[0][3], rel=1e-12)


# ---------------------------------------------------------------------------
# central-difference sites against their written-out formulas
# ---------------------------------------------------------------------------
# Frozen copies of the formulas each site wrote out before the stencil table.

def _written_kg_residual(phi, bg, x, h, order):
    f0 = phi(x)
    box = 0.0 + 0.0j
    for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0)):
        if order == 2:
            d2 = (phi(x.shifted(mu, h)) - 2.0 * f0 + phi(x.shifted(mu, -h))) / h ** 2
        else:
            d2 = (-phi(x.shifted(mu, 2 * h)) + 16.0 * phi(x.shifted(mu, h))
                  - 30.0 * f0 + 16.0 * phi(x.shifted(mu, -h))
                  - phi(x.shifted(mu, -2 * h))) / (12.0 * h ** 2)
        box += sign * d2
    return box + bg.m2(x) * f0


def _written_symmetry_apply(gen, phi, x, h):
    xi = gen.killing(x)
    out = 0.25 * gen.divergence(x) * phi(x)
    for mu in range(4):
        dphi = (phi(x.shifted(mu, h)) - phi(x.shifted(mu, -h))) / (2.0 * h)
        out += xi[mu] * dphi
    return complex(out)


def _written_ode_residual_conformal(g, qperp, q3, f, u_grid, h=1e-5):
    q1, q2 = float(qperp[0]), float(qperp[1])
    qp2 = q1 * q1 + q2 * q2
    num, den = 0.0, 1e-30
    for u in np.atleast_1d(u_grid):
        gp = (g(u + h) - g(u - h)) / (2.0 * h)
        r = 4j * float(q3) * gp + (qp2 + float(f(u))) * g(u)
        num = max(num, abs(r))
        den = max(den, abs(g(u)))
    return num / den


def _written_ode_residual_planewave(chi, qperp, qminus, m2_of_xplus, xplus_grid,
                                    h=1e-5):
    q1, q2 = float(qperp[0]), float(qperp[1])
    qp2 = q1 * q1 + q2 * q2
    num, den = 0.0, 1e-30
    for w in np.atleast_1d(xplus_grid):
        cp = (chi(w + h) - chi(w - h)) / (2.0 * h)
        r = 4j * float(qminus) * cp - (qp2 + float(m2_of_xplus(w))) * chi(w)
        num = max(num, abs(r))
        den = max(den, abs(chi(w)))
    return num / den


def _written_killing_residual_fd(field, x, h=1e-5):
    jl = np.zeros((4, 4))
    for nu in range(4):
        fp = lower_index(field(x.shifted(nu, +h)))
        fm = lower_index(field(x.shifted(nu, -h)))
        jl[:, nu] = (fp - fm) / (2.0 * h)
    div = float(np.sum(METRIC_DIAG * np.diag(jl)))
    return jl + jl.T - 0.5 * METRIC * div


def _written_fd_partials(fn, state, bg, h_scale):
    dq = np.zeros(state.q.size)
    dp = np.zeros(state.p.size)
    for k in range(state.q.size):
        h = h_scale * max(1.0, abs(state.q[k]))
        qp, qm = state.q.copy(), state.q.copy()
        qp[k] += h
        qm[k] -= h
        dq[k] = (fn(state.replace(q=qp), bg) - fn(state.replace(q=qm), bg)) / (2 * h)
    for k in range(state.p.size):
        h = h_scale * max(1.0, abs(state.p[k]))
        pp_, pm = state.p.copy(), state.p.copy()
        pp_[k] += h
        pm[k] -= h
        dp[k] = (fn(state.replace(p=pp_), bg) - fn(state.replace(p=pm), bg)) / (2 * h)
    return dq, dp


def _same_bits(a, b):
    """Equal values and equal signs of every zero (real results)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _kg_cases():
    rng = np.random.default_rng(61)
    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    return [
        (make_planewave_solution((0.25, -0.15), 0.6, wave), wave,
         _cartesian_points(rng, 5)),
        (make_conformal_solution((0.25, -0.15), 0.8, _GAUSS), _GAUSS,
         _conformal_points(rng, 5)),
        (make_dilation_solution((0.25, -0.15), 0.8, 1.0),
         backgrounds.dilation_mass(1.0), _cone_points(rng, 5)),
    ]


def test_central_difference_sites_equal_written_formulas():
    gens = [conformal.translation_xminus(), conformal.boost_axis(3),
            conformal.dilation(), conformal.special_conformal_lf()]
    for phi, bg, pts in _kg_cases():
        for x in pts:
            for h in (_H, 1e-3):
                for order in (2, 4):
                    assert (kg_residual(phi, bg, x, h, order)
                            == _written_kg_residual(phi, bg, x, h, order))
                for gen in gens:
                    assert (symmetry_apply(gen, phi, x, h)
                            == _written_symmetry_apply(gen, phi, x, h))

    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0)
    chi = make_planewave_solution((0.25, -0.15), 0.6, wave).params["chi"]
    m2 = lambda w: 1.0 * (1.0 + 0.5 * np.sin(w) ** 2)
    gauss = lambda u: np.exp(-u * u)
    g = make_conformal_solution((0.25, -0.15), 0.8, _GAUSS).params["g"]
    rng = np.random.default_rng(62)
    for h in (1e-5, 1e-3):
        grid = rng.uniform(-1.0, 1.0, 7)
        assert _same_bits(
            ode_residual_planewave(chi, (0.25, -0.15), 0.6, m2, grid, h),
            _written_ode_residual_planewave(chi, (0.25, -0.15), 0.6, m2, grid, h))
        assert _same_bits(
            ode_residual_conformal(g, (0.25, -0.15), 0.8, gauss, grid, h),
            _written_ode_residual_conformal(g, (0.25, -0.15), 0.8, gauss, grid, h))

    # a conformal generator and a field outside the family, with zero slots
    fields = [conformal.special_conformal_lf().killing,
              lambda x: np.array([0.0, x.x * x.y, -x.t * x.t, np.sin(x.z)])]
    for x in _cartesian_points(np.random.default_rng(63), 6):
        for field in fields:
            for h in (1e-5, 1e-3):
                assert _same_bits(killing_residual_fd(field, x, h),
                                  _written_killing_residual_fd(field, x, h))

    states = [instant_state(0.2, [0.3, -0.5, 0.0], [0.2, 0.0, -0.3]),
              front_state(1.2, 0.1, [0.2, -0.1], 0.8, [0.0, 0.4]),
              extended_state(1.0, 0.3, [-0.2, 0.0], 0.9, 0.6, [0.2, -0.3])]
    quantities = [conformal.generator_quantity(gen).func
                  for gen in gens + [conformal.translation_axis(2),
                                     conformal.null_rotation_t(1)]]
    for st in states:
        for fn in quantities:
            for h_scale in (1e-6, 1e-4):
                got = fd_partials(fn, st, wave, h_scale)
                want = _written_fd_partials(fn, st, wave, h_scale)
                assert all(_same_bits(a, b) for a, b in zip(got, want))
    for fn in (hamiltonian_front, hamiltonian_extended):
        st = states[1] if fn is hamiltonian_front else states[2]
        got = fd_partials(fn, st, wave, 1e-6)
        want = _written_fd_partials(fn, st, wave, 1e-6)
        assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_stencils_evaluate_phi_once_at_the_centre():
    bg = backgrounds.constant(1.0)
    mode = make_planewave_solution((0.1, 0.2), 0.6, bg)
    calls = []
    x = FourVector(0.3, -0.2, 0.4, 0.1)
    for order, n in ((2, 1 + 8), (4, 1 + 16)):
        calls.clear()
        # a fresh wavefunction, so no point is kept from the stencil before
        phi = Wavefunction("counted", lambda x: calls.append(x) or mode(x))
        kg_residual(phi, bg, x, _H, order)
        assert len(calls) == n
    calls.clear()
    phi = Wavefunction("counted", lambda x: calls.append(x) or mode(x))
    symmetry_apply(conformal.boost_axis(3), phi, x, _H)
    assert len(calls) == 1 + 8


def test_kg_job_evaluates_each_point_once(tmp_path, monkeypatch):
    from confdyn import kgverify
    from confdyn.cli import main
    made, runs, calls = kgverify.make_planewave_solution, [], []

    def counted_mode(*args):
        mode = made(*args)
        return Wavefunction(mode.label, lambda x: runs.append(x) or mode.evaluator(x),
                            mode.domain, mode.params)

    real_call = Wavefunction.__call__
    monkeypatch.setattr(kgverify, "make_planewave_solution", counted_mode)
    monkeypatch.setattr(Wavefunction, "__call__",
                        lambda self, x: calls.append(x) or real_call(self, x))
    assert main(["kg", "--preset", "planewave", "--out-dir", str(tmp_path)]) == 0
    # 60 points: 1 + 8 + 8 distinct points each at h and h/2, read 19 times
    # by residual_convergence; eigen_defect's 3 generators at h and h/2 on
    # the first 10 points read 600 more, all of them points already seen
    assert (len(runs), len(calls)) == (60 * 17, 60 * 19 + 600)


def test_kept_value_is_the_evaluators():
    def ev(x):
        # signed zeros and a sign that follows the sign of zero of x.t
        return complex(-0.0, math.copysign(0.0, x.t)) + math.copysign(1.0, x.t) * x.x
    runs = []
    phi = Wavefunction("signed", lambda x: runs.append(x) or ev(x))
    points = [FourVector(0.0, 0.25, 0.0, 1.0), FourVector(-0.0, 0.25, 0.0, 1.0),
              FourVector(0.0, 0.25, -0.0, 1.0)]
    first = [phi(x) for x in points]
    again = [phi(x) for x in points]
    assert len(runs) == 3      # 0.0 and -0.0 are different points
    for x, a, b in zip(points, first, again):
        want = complex(ev(x))
        assert a is b
        assert (math.copysign(1.0, a.real), math.copysign(1.0, a.imag), a) == (
            math.copysign(1.0, want.real), math.copysign(1.0, want.imag), want)
