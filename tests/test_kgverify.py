"""Wave-equation residuals, symmetry eigenmodes, and convergence ratios."""

import warnings

import numpy as np
import pytest

from confdyn import backgrounds, conformal
from confdyn.analytic import conformal_orbit, planewave_orbit
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
    from_lightfront,
    lower_index,
)
from confdyn.kgverify import (
    Wavefunction,
    clear_points,
    eigen_defect,
    first_rows,
    kg_residual,
    make_conformal_solution,
    make_dilation_solution,
    make_planewave_solution,
    offshell_control,
    phase_gradient,
    read_stencils,
    residual_convergence,
    symmetry_apply,
    write_convergence_csv,
)
from oracles import (
    commutator_identity_defect,
    fd_partials,
    fourvector_batch,
    kg_points_one_by_one,
    killing_residual_fd,
    ode_residual_conformal,
    ode_residual_planewave,
)

# residuals are dominated by evaluator roundoff amplified by 1/h^2 once the
# truncation term drops near 1e-8, so the stencil stays at 5e-3
_H = 5e-3
# f(u) = exp(-u^2) with its erf antiderivative
_GAUSS = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)


def _convergence(phi, bg, points, h):
    """residual_convergence at h and h/2 from phi's one read of the points
    on {0, +-h/2, +-h}, as kg reads them."""
    x = fourvector_batch(points)
    return residual_convergence(bg, read_stencils(phi, bg, x, h / 2, 2), h)


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
        pts.append(from_lightfront(rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)))
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
    rows = _convergence(phi, bg, _cartesian_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert r1 < 1e-4
        assert 3.9 < ratio < 4.1


def test_free_mode_fourth_order_stencil():
    bg = backgrounds.constant(1.0)
    phi = make_planewave_solution((0.1, 0.2), 0.6, bg)
    x = fourvector_batch([FourVector(0.3, -0.2, 0.4, 0.1)])
    r2 = abs(kg_residual(phi, bg, x, h=0.02, order=2)[0])
    r4 = abs(kg_residual(phi, bg, x, h=0.02, order=4)[0])
    assert r4 < r2 / 50.0
    with pytest.raises(ValueError):
        kg_residual(phi, bg, x, 1e-3, order=3)


def test_off_shell_control_plateaus():
    bg = backgrounds.constant(1.0)
    p = np.array([1.3, 0.2, -0.1, 0.3])  # p.p = 1.55 != 1
    gap = 1.0 - (p[0] ** 2 - p[1] ** 2 - p[2] ** 2 - p[3] ** 2)
    phi = Wavefunction("offshell", lambda x: np.exp(
        -1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y + p[3] * x.z)))
    rng = np.random.default_rng(42)
    rows = _convergence(phi, bg, _cartesian_points(rng, 6), h=_H)
    for _, h, r1, r2, ratio in rows:
        # residual sits at |m^2 - p.p| instead of shrinking
        assert r1 == pytest.approx(abs(gap), rel=1e-3)
        assert 0.95 < ratio < 1.05


# ---------------------------------------------------------------------------
# plane-wave family
# ---------------------------------------------------------------------------

def test_planewave_mode_on_profile():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    phi = make_planewave_solution((0.25, -0.15), 0.6, bg)
    rng = np.random.default_rng(43)
    rows = _convergence(phi, bg, _cartesian_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5
    chi = phi.params["chi"]
    m2 = lambda w: 1.0 * (1.0 + 0.5 * np.sin(w) ** 2)
    res = ode_residual_planewave(chi, (0.25, -0.15), 0.6, m2,
                                 np.linspace(-1.0, 1.0, 9))
    assert res < 1e-7


def test_planewave_mode_validation():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    with pytest.raises(ValueError):
        make_planewave_solution((0.1, 0.2), 0.0, bg)


def test_planewave_eigen_defects():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    q1, q2, qm = 0.25, -0.15, 0.6
    phi = make_planewave_solution((q1, q2), qm, bg)
    rng = np.random.default_rng(44)
    pts = fourvector_batch(_cartesian_points(rng, 6))
    triples = [(conformal.translation_axis(1), q1),
               (conformal.translation_axis(2), q2),
               (conformal.translation_xminus(), qm)]
    read = read_stencils(phi, None, pts, 5e-4, 2)
    for gen, Q in triples:
        d1, d2 = (eigen_defect(gen, Q, read, h) for h in (1e-3, 5e-4))
        assert d1 < 1e-5
        assert d1 / d2 == pytest.approx(4.0, abs=1.0)  # O(h^2) decay
    # a wrong eigenvalue cannot be talked away by refining the stencil
    bad = eigen_defect(conformal.translation_axis(1), q1 + 0.5, read, 1e-3)
    assert bad > 0.1


# ---------------------------------------------------------------------------
# conformal family
# ---------------------------------------------------------------------------

def test_conformal_mode_on_gaussian():
    bg = _GAUSS
    f = bg.profile[0]
    phi = make_conformal_solution((0.25, -0.15), 0.8, bg)
    rng = np.random.default_rng(45)
    rows = _convergence(phi, bg, _conformal_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5
    res = ode_residual_conformal(phi.params["g"], (0.25, -0.15), 0.8, f,
                                 np.linspace(-0.6, 0.6, 9))
    assert res < 1e-7


def test_conformal_mode_eigen_defects():
    q1, q2, q3 = 0.25, -0.15, 0.8
    phi = make_conformal_solution((q1, q2), q3, _GAUSS)
    rng = np.random.default_rng(46)
    pts = fourvector_batch(_conformal_points(rng, 5))
    triples = [(conformal.special_conformal_lf(), q3),
               (conformal.null_rotation_t(1), q1),
               (conformal.null_rotation_t(2), q2)]
    read = read_stencils(phi, None, pts, 5e-4, 2)
    for gen, Q in triples:
        d1, d2 = (eigen_defect(gen, Q, read, h) for h in (1e-3, 5e-4))
        assert d1 < 1e-4
        assert d1 / d2 == pytest.approx(4.0, abs=1.0)
        assert eigen_defect(gen, Q + 0.5, read, 1e-3) > 0.1


def test_conformal_mode_validation():
    bg = _GAUSS
    with pytest.raises(ValueError):
        make_conformal_solution((0.1, 0.2), 0.0, bg)
    phi = make_conformal_solution((0.1, 0.2), 0.5, bg)
    with pytest.raises(SingularityError):
        phi(fourvector_batch([FourVector(0.0, 0.0, 0.0, -0.5)]))  # x+ < 0
    with pytest.raises(DomainError) as err:
        # the stencil would cross x+ = 0
        kg_residual(phi, bg, fourvector_batch([FourVector(0.0025, 0.3, -0.2, 0.0025)]),
                    h=_H)
    assert "leaves the domain" in str(err.value)


# ---------------------------------------------------------------------------
# dilation family
# ---------------------------------------------------------------------------

def test_dilation_mode_bessel_branch():
    bg = backgrounds.dilation_mass(1.0)
    phi = make_dilation_solution((0.25, -0.15), 0.8, 1.0, 1.0, 0.0)
    assert phi.params["alpha"] == pytest.approx(0.6)
    rng = np.random.default_rng(47)
    rows = _convergence(phi, bg, _cone_points(rng, 8), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5


def test_dilation_mode_complex_order():
    # csq < Q3^2 sends the Bessel order imaginary; the mode must still solve
    bg = backgrounds.dilation_mass(0.04)
    phi = make_dilation_solution((0.25, -0.15), 0.8, 0.04, 1.0, 0.0)
    assert abs(phi.params["alpha"].real) < 1e-12
    rng = np.random.default_rng(48)
    rows = _convergence(phi, bg, _cone_points(rng, 2), h=_H)
    for _, h, r1, r2, ratio in rows:
        assert 3.5 < ratio < 4.5


# the orders 1 +- 1/64 go through mpmath, 1 +- 1/16 through the series
_BESSEL_ORDERS = (1 / 16, 0.1, 0.3, 0.6, 0.8, 1.5, 1.7, 2.5, 3.3, 5.5,
                  1 - 1 / 64, 1 + 1 / 64, 1 - 1 / 16, 1 + 1 / 16)
_BESSEL_Y = (1e-3, 0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)


def test_bessel_pair_matches_mpmath_at_40_digits():
    # J_alpha(-i y) and Y_alpha(-i y) within 2e-14 of mpmath at 40 digits, and
    # no farther than scipy's jv and yv; at the preset's alpha = 0.8 and
    # y <= 1 within 2e-15
    import mpmath
    from scipy.special import jv, yv
    from confdyn import kgverify
    worst = {"pair": 0.0, "scipy": 0.0, "preset": 0.0}
    y = np.array(_BESSEL_Y)
    with mpmath.workdps(40):
        for a in _BESSEL_ORDERS:
            pair = kgverify._bessel_pair(complex(a), y)
            scipy = (jv(a, -1j * y), yv(a, -1j * y))
            for i, w in enumerate(_BESSEL_Y):
                for fn, got, other in zip((mpmath.besselj, mpmath.bessely), pair, scipy):
                    want = fn(a, mpmath.mpc(0, -w))
                    err = float(abs(mpmath.mpc(got[i]) - want) / abs(want))
                    worst["pair"] = max(worst["pair"], err)
                    worst["scipy"] = max(worst["scipy"], float(
                        abs(mpmath.mpc(other[i]) - want) / abs(want)))
                    if a == 0.8 and w <= 1.0:
                        worst["preset"] = max(worst["preset"], err)
    assert worst["pair"] <= min(2e-14, worst["scipy"]), worst
    assert worst["preset"] <= 2e-15, worst


def test_dilation_mode_euler_limit():
    # Q_perp = 0 collapses the radial equation to an Euler power law
    phi = make_dilation_solution((0.0, 0.0), 0.8, 1.0, 1.0, 0.0)
    alpha = 0.6
    q3 = 0.8
    for x in (FourVector(2.0, 0.1, -0.2, 0.3), FourVector(2.4, 0.0, 0.0, -0.5)):
        v = np.sqrt(x.norm2()) / x.xplus
        direct = x.xplus ** (-(1.0 + 1j * q3)) * v ** (-1j * q3) * v ** alpha
        assert phi(fourvector_batch([x]))[0] == pytest.approx(direct, rel=1e-12)


def test_dilation_eigen_defect():
    phi = make_dilation_solution((0.25, -0.15), 0.8, 1.0, 1.0, 0.0)
    rng = np.random.default_rng(49)
    pts = fourvector_batch(_cone_points(rng, 5))
    read = read_stencils(phi, None, pts, 1e-3, 1)
    assert eigen_defect(conformal.dilation(), 0.8, read, 1e-3) < 1e-4
    assert eigen_defect(conformal.dilation(), 1.3, read, 1e-3) > 0.1


def test_dilation_mode_validation():
    with pytest.raises(ValueError):
        make_dilation_solution((0.1, 0.2), 0.8, -1.0, 1.0, 0.0)
    phi = make_dilation_solution((0.1, 0.2), 0.8, 1.0, 1.0, 0.0)
    spacelike = fourvector_batch([FourVector(0.1, 1.0, 0.0, 0.0)])
    with pytest.raises(SingularityError):
        phi(spacelike)
    assert not phi.in_domain(spacelike)[0]


def test_dilation_order_must_be_finite():
    # Q3^2 overflows: csq - Q3^2 = -inf and the order sqrt(csq - Q3^2) is
    # infinite, which no Bessel function takes
    with pytest.raises(ValueError, match="is not finite"):
        make_dilation_solution((0.25, -0.15), 1e200, 1.0, 1.0, 0.0)


def test_bessel_pair_mpmath_cannot_evaluate_is_a_domain_error():
    # the integer order 1e150 goes to mpmath, which divides by zero there
    phi = make_dilation_solution((0.25, -0.15), 0.8, 1e300, 1.0, 0.0)
    with pytest.raises(DomainError) as err:
        phi(fourvector_batch([FourVector(2.0, 0.0, 0.0, 1.0)]))
    assert str(err.value) == ("mpmath cannot evaluate the Bessel pair of order "
                              "1e+150+0j (ZeroDivisionError)")


def test_bessel_series_leaves_once_every_term_is_zero():
    # at the order 1.2e8 every term is 0 after a few hundred, long before
    # k > |a|: the series leaves there, its I_a underflowing to 0 and its
    # I_-a overflowing for the caller to report
    from confdyn import kgverify
    big = kgverify._bessel_i(1.2e8 + 0.3, np.array([0.5, 2.0]))
    assert big[0].tolist() == [0.0, 0.0] and np.isinf(big[1]).all()
    # values whose terms vanish by k ~ 11 keep their bits beside one whose
    # terms run on past k > |a| = 20.3
    alone = kgverify._bessel_i(20.3, np.array([1e-14, 2e-14]))
    beside = kgverify._bessel_i(20.3, np.array([1e-14, 2e-14, 5.0]))
    assert np.isfinite(alone).all() and _same_bits(alone, beside[:, :2])


# ---------------------------------------------------------------------------
# operator identity, phase transport, reporting
# ---------------------------------------------------------------------------

def test_commutator_identity_any_generator():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
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
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    q1, q2, qm = 0.25, -0.15, 0.6
    phi = make_planewave_solution((q1, q2), qm, bg)
    orb = planewave_orbit(bg, front_state(0.2, 0.1, (0.3, -0.2), qm, (q1, q2)))
    xs, ps = orb.sample([0.5, 1.3, 2.2])
    grad = phase_gradient(phi, FourVector(*xs.T.copy()), h=1e-4)
    assert np.max(np.abs(grad.T - ps)) < 1e-6


# front starts with transverse data, both signs of p- and of Q3, one with
# Q_perp = 0 though x_perp and p_perp are not
_HJ_STARTS = [front_state(1.0, 0.1, (0.2, -0.1), 0.5, (0.1, 0.05)),
              front_state(1.0, 0.0, (0.2, 0.0), 0.5, (-0.2, 0.0)),
              front_state(0.8, -0.3, (-0.1, 0.3), 0.7, (0.0, -0.2)),
              front_state(1.5, 0.4, (0.0, 0.25), -0.6, (0.15, 0.1)),
              front_state(1.2, 0.2, (0.3, 0.1), -0.4, (-0.1, 0.2))]


def _hj_error(orb, qperp, q3):
    """max |dS - p| of the conformal mode (qperp, q3) along the orbit, on
    both sides of its start."""
    phi = make_conformal_solution(qperp, q3, _GAUSS)
    xs, ps = orb.sample(orb.constants["xplus0"] * np.array([0.9, 1.0, 1.4, 2.0]))
    grad = phase_gradient(phi, FourVector(*xs.T.copy()), h=1e-4)
    return np.max(np.abs(grad.T - ps))


@pytest.mark.parametrize("start", _HJ_STARTS, ids=range(len(_HJ_STARTS)))
def test_conformal_phase_gradient_matches_orbit_momentum(start):
    # Hamilton-Jacobi transport for m^2 = f(u)/(x+)^2: the mode built from
    # the orbit's (Q1, Q2, Q3) has dS = p along it.  The largest error,
    # 1.3e-8 over these starts, is the stencil's O(h^2) truncation
    orb = conformal_orbit(_GAUSS, start)
    q1, q2, q3 = (orb.constants[k] for k in ("Q1", "Q2", "Q3"))
    assert _hj_error(orb, (q1, q2), q3) <= 3e-8
    # the mode with Q_perp flipped misses the orbit by 0.3 or more
    if q1 * q1 + q2 * q2 > 0.0:
        assert _hj_error(orb, (-q1, -q2), q3) > 1e-2


def test_symmetry_apply_is_linear():
    bg = backgrounds.constant(1.0)
    a = make_planewave_solution((0.1, 0.2), 0.5, bg)
    b = make_planewave_solution((-0.2, 0.1), 0.7, bg)
    comb = Wavefunction("combo", lambda x: 2.0 * a(x) - 1j * b(x))
    gen = conformal.boost_axis(3)
    x = fourvector_batch([FourVector(0.2, 0.4, -0.3, 0.1)])
    lhs = symmetry_apply(gen, comb, x, 1e-3)
    rhs = 2.0 * symmetry_apply(gen, a, x, 1e-3) - 1j * symmetry_apply(gen, b, x, 1e-3)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_kg_residual_refuses_switch_surface():
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = Wavefunction("anything", lambda x: np.exp(-1j * x.t))
    with pytest.raises(DomainError) as err:
        kg_residual(phi, bg, fourvector_batch([FourVector(0.5, 0.1, 0.2, 0.0)]), 1e-3)
    assert "switch surface" in str(err.value)


def test_convergence_csv_roundtrip(tmp_path):
    bg = backgrounds.constant(1.0)
    phi = make_planewave_solution((0.1, -0.2), 0.5, bg)
    rng = np.random.default_rng(50)
    rows = _convergence(phi, bg, _cartesian_points(rng, 3), h=_H)
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
    """(mode, background, 5 points in its domain) per family."""
    rng = np.random.default_rng(61)
    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    return [
        (make_planewave_solution((0.25, -0.15), 0.6, wave), wave,
         _cartesian_points(rng, 5)),
        (make_conformal_solution((0.25, -0.15), 0.8, _GAUSS), _GAUSS,
         _conformal_points(rng, 5)),
        (make_dilation_solution((0.25, -0.15), 0.8, 1.0, 1.0, 0.0),
         backgrounds.dilation_mass(1.0), _cone_points(rng, 5)),
    ]


def _recorded(phi):
    """phi, and the value its evaluator gave at a point, looked up by the
    point's coordinates."""
    seen = {}

    def ev(x):
        values = phi.evaluator(x)
        points = zip(x.t.tolist(), x.x.tolist(), x.y.tolist(), x.z.tolist())
        seen.update(zip(points, values.tolist()))
        return values
    return (Wavefunction(phi.label, ev, phi.domain, phi.params),
            lambda y: seen[y.t, y.x, y.y, y.z])


def test_central_difference_sites_equal_written_formulas():
    # the written formulas, applied point by point to the values the batch
    # read, give every batched stencil's result
    gens = [conformal.translation_xminus(), conformal.boost_axis(3),
            conformal.dilation(), conformal.special_conformal_lf()]
    for phi, bg, pts in _kg_cases():
        for h in (_H, 1e-3):
            for order in (2, 4):
                rec, value = _recorded(phi)
                got = kg_residual(rec, bg, fourvector_batch(pts), h, order)
                for i, x in enumerate(pts):
                    assert got[i] == _written_kg_residual(value, bg, x, h, order)
            for gen in gens:
                rec, value = _recorded(phi)
                got = symmetry_apply(gen, rec, fourvector_batch(pts), h)
                for i, x in enumerate(pts):
                    assert got[i] == _written_symmetry_apply(gen, value, x, h)

    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
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
    quantities = [conformal.generator_quantity(gen)
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


def _rows(x):
    """The points of a batch as (t, x, y, z) rows."""
    return np.array([x.t, x.x, x.y, x.z]).T


def test_stencils_evaluate_phi_once_at_the_centre():
    bg = backgrounds.constant(1.0)
    mode = make_planewave_solution((0.1, 0.2), 0.6, bg)
    batches = []
    phi = Wavefunction("counted", lambda x: batches.append(_rows(x)) or mode(x))
    x = fourvector_batch([FourVector(0.3, -0.2, 0.4, 0.1)])
    kg_residual(phi, bg, x, _H, 2)
    kg_residual(phi, bg, x, _H, 4)
    symmetry_apply(conformal.boost_axis(3), phi, x, _H)
    # one evaluator call per stencil, on each of its points once, the centre
    # first
    assert [len(rows) for rows in batches] == [1 + 8, 1 + 16, 1 + 8]
    for rows in batches:
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert rows[0].tolist() == [0.3, -0.2, 0.4, 0.1]


def test_kg_job_evaluates_each_point_once(tmp_path, monkeypatch):
    from confdyn import kgverify
    from confdyn.cli import main
    made, runs, calls, margins = kgverify.make_planewave_solution, [], [], []
    real_margin = kgverify._margin

    def counted_mode(*args):
        mode = made(*args)
        return Wavefunction(mode.label,
                            lambda x: runs.append(_rows(x)) or mode.evaluator(x),
                            mode.domain, mode.params)

    real_call = Wavefunction.__call__
    monkeypatch.setattr(kgverify, "make_planewave_solution", counted_mode)
    monkeypatch.setattr(Wavefunction, "__call__",
                        lambda self, x: calls.append(x) or real_call(self, x))
    monkeypatch.setattr(kgverify, "_margin", lambda phi, x, h, steps, bg: margins.append(
        (_rows(x), h, steps)) or real_margin(phi, x, h, steps, bg))
    assert main(["kg", "--preset", "planewave", "--out-dir", str(tmp_path)]) == 0
    # one read of the 1 + 16 stencil points {0, +-h/2, +-h} of all 60 points:
    # one call, no point twice; the residuals and the 3 generators'
    # eigen-defects at h and h/2 share it
    assert [len(rows) for rows in runs] == [60 * 17]
    assert len(calls) == len(runs)
    assert len(np.unique(runs[0], axis=0)) == len(runs[0])
    # the draw checks each drawn point's 2 h margin once; the read checks
    # the points it reads, +-h/2 and +-h, of the 60 points it keeps
    *draws, (kept, half, steps) = margins
    assert {(h, s) for _, h, s in draws} == {(2 * half, 2)} and steps == 2
    drawn = np.concatenate([rows for rows, _, _ in draws])
    assert len(np.unique(drawn, axis=0)) == len(drawn) and len(kept) == 60
    assert set(map(tuple, kept)) <= set(map(tuple, drawn))


def test_kg_job_builds_each_stencil_once(tmp_path, monkeypatch):
    # the draw's 2 h margin stencil and the read's stencil at h/2 of two
    # steps, whose domain mask and margin check serve the read's phi call:
    # two stencils and two domain calls, the points' own mask read off the
    # stencil's centre column
    from confdyn import kgverify
    from confdyn.cli import main
    real_stencil, real_in_domain = kgverify._stencil, Wavefunction.in_domain
    stencils, domains = [], []
    monkeypatch.setattr(kgverify, "_stencil", lambda x, h, offsets: stencils.append(
        (h, len(offsets))) or real_stencil(x, h, offsets))
    monkeypatch.setattr(Wavefunction, "in_domain", lambda self, x: domains.append(
        len(x.t)) or real_in_domain(self, x))
    assert main(["kg", "--preset", "planewave", "--out-dir", str(tmp_path)]) == 0
    (h, margin), (half, read) = stencils
    assert h == 2 * half and margin == read == 16
    assert domains == [60 * 17, 60 * 17]


def test_kgcontrol_job_evaluates_each_point_once(tmp_path, monkeypatch):
    from confdyn.cli import main
    calls = []
    real_call = Wavefunction.__call__
    monkeypatch.setattr(Wavefunction, "__call__",
                        lambda self, x: calls.append(_rows(x)) or real_call(self, x))
    # the control fails the ratio gate, after the same one read
    assert main(["kg", "--preset", "kgcontrol", "--out-dir", str(tmp_path)]) == 1
    assert [len(rows) for rows in calls] == [60 * 17]
    assert len(np.unique(calls[0], axis=0)) == len(calls[0])


@pytest.mark.parametrize("preset", ["planewave", "conformal", "dilation", "kgcontrol"])
def test_kg_draws_the_points_of_one_by_one_draws(tmp_path, monkeypatch, preset):
    # one (1000, 4) draw through the box's chart keeps the points that a draw
    # of one point, or one coordinate, at a time kept, element for element
    from confdyn import kgverify
    from confdyn.cli import main, preset_config
    made, reads = kgverify.read_stencils, []

    def recorded(phi, bg, x, h, steps):
        reads.append((phi, x))
        return made(phi, bg, x, h, steps)
    monkeypatch.setattr(kgverify, "read_stencils", recorded)
    solution = preset_config(preset)["kg"]["solution"]
    for seed in range(1, 6):
        reads.clear()
        main(["kg", "--preset", preset, "--seed", str(seed), "--out-dir", str(tmp_path)])
        (phi, x), = reads
        want = np.array([(p.t, p.x, p.y, p.z)
                         for p in kg_points_one_by_one(solution, phi, seed, 60)])
        assert _same_bits(_rows(x), want)


def _modes():
    """(mode, points in its domain): each family, and every dilation branch."""
    rng = np.random.default_rng(64)
    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    cone = _cone_points(rng, 7)
    return [
        (make_planewave_solution((0.25, -0.15), 0.6, wave), _cartesian_points(rng, 7)),
        (make_conformal_solution((0.25, -0.15), 0.8, _GAUSS), _conformal_points(rng, 7)),
        # real-order Bessel, complex order (mpmath) and the Q_perp = 0 Euler limit
        (make_dilation_solution((0.25, -0.15), 0.8, 1.0, 1.0, 0.5), cone),
        (make_dilation_solution((0.25, -0.15), 0.8, 0.04, 1.0, 0.5), cone[:3]),
        (make_dilation_solution((0.0, 0.0), 0.8, 1.0, 1.0, 0.5), cone),
        # alpha = sqrt(3 - 0.64) > 1, where the series' terms change sign while
        # k < alpha, and the integer order alpha = 1 (mpmath)
        (make_dilation_solution((0.25, -0.15), 0.8, 3.0, 1.0, 0.5), cone),
        (make_dilation_solution((0.25, -0.15), 0.0, 1.0, 1.0, 0.5), cone[:3]),
    ]


def test_first_rows_of_a_read_are_the_read_of_the_first_points():
    # cmd_kg's eigen-defects take the first 10 rows of its 60-point read:
    # they must be what a read of those 10 points alone gives, bit for bit,
    # whatever the batch length
    rng = np.random.default_rng(65)
    wave = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    kinds = {"planewave_mode": (_cartesian_points, lambda phi: wave),
             "conformal_mode": (_conformal_points, lambda phi: _GAUSS),
             "dilation_mode": (_cone_points, lambda phi: backgrounds.dilation_mass(
                 phi.params["csq"]))}
    for phi, _ in _modes():
        draw, bg_of = kinds[phi.label]
        pts, bg = draw(rng, 60), bg_of(phi)
        whole = read_stencils(phi, bg, fourvector_batch(pts), _H / 2, 2)
        part = read_stencils(phi, bg, fourvector_batch(pts[:10]), _H / 2, 2)
        head = first_rows(whole, 10)
        assert _same_bits(_rows(head[0]), _rows(part[0]))
        assert head[2].keys() == part[2].keys()
        for got, want in zip([head[1], *head[2].values()], [part[1], *part[2].values()]):
            assert _same_bits(got.real, want.real) and _same_bits(got.imag, want.imag)
        for gen, Q, _ in phi.params["eigen"]:
            for h in (_H, _H / 2):
                assert eigen_defect(gen, Q, head, h) == eigen_defect(gen, Q, part, h)
        assert residual_convergence(bg, whole, _H)[:10] == residual_convergence(bg, part, _H)


def test_batch_values_are_the_per_point_values():
    for phi, pts in _modes():
        got = phi(fourvector_batch(pts))
        assert got.shape == (len(pts),)
        for i, x in enumerate(pts):
            want = phi(fourvector_batch([x]))[0]
            assert abs(got[i] - want) <= 2e-15 * abs(want)


def _first_margin_error(phi, points, h, steps):
    """The DomainError text of the old point-by-point margin check."""
    for x in points:
        for mu in range(4):
            for k in range(1, steps + 1):
                for s in (k * h, -k * h):
                    y = x.shifted(mu, s)
                    if not phi.in_domain(fourvector_batch([y]))[0]:
                        return (f"stencil point (t,x,y,z) = ({y.t:g}, {y.x:g}, "
                                f"{y.y:g}, {y.z:g}) leaves the domain of "
                                f"{phi.label!r}")
    return None


def test_batch_margin_names_the_first_stencil_point_out():
    phi = make_conformal_solution((0.25, -0.15), 0.8, _GAUSS)
    # the second and third points sit closer to x+ = 0 than two steps along
    # t or z, the third closer still; the first is well inside
    pts = [from_lightfront(1.2, 0.1, 0.2, -0.1), from_lightfront(0.008, 0.1, 0.2, -0.1),
           from_lightfront(0.002, 0.3, 0.0, 0.1)]
    h = _H
    want = _first_margin_error(phi, pts, h, 2)
    assert "(t,x,y,z) = (0.0" in want
    # kg's one read at 2 h reads the 2 h margin that kg_residual checks at h
    for run in (lambda: kg_residual(phi, _GAUSS, fourvector_batch(pts), h),
                lambda: _convergence(phi, _GAUSS, pts, 2 * h)):
        with pytest.raises(DomainError) as err:
            run()
        assert str(err.value) == want
    with pytest.raises(DomainError) as err:
        symmetry_apply(conformal.dilation(), phi, fourvector_batch(pts), 0.006)
    assert str(err.value) == _first_margin_error(phi, pts, 0.006, 1)


def test_batch_reports_the_point_a_loop_meets_first():
    # a kink at the second point comes before a margin failure at the third
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = Wavefunction("cone", lambda x: np.exp(-1j * x.t), domain=lambda x: x.t > 0.0)
    pts = [FourVector(0.5, 0.0, 0.0, 0.3), FourVector(0.5, 0.1, 0.2, 0.0),
           FourVector(0.001, 0.0, 0.0, 0.3)]
    # at 2e-3 the read's stencil is the 2 h margin of h = 1e-3
    with pytest.raises(DomainError) as err:
        _convergence(phi, bg, pts, 2e-3)
    assert str(err.value) == ("(t,x,y,z) = (0.5, 0.1, 0.2, 0) touches a switch "
                              "surface of background 'linear_z'")
    with pytest.raises(DomainError) as err:
        _convergence(phi, bg, [pts[0], pts[2], pts[1]], 2e-3)
    assert str(err.value) == _first_margin_error(phi, [pts[2]], 1e-3, 2)


def test_margin_stencil_on_or_across_a_switch_surface_is_refused():
    # at z = +-h/2 the margin stencil (2 h) reaches the other side of z = 0,
    # at z = 2 h it ends on it; at z = 3 h it stays on the field side
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = offshell_control([1.3, 0.2, -0.1, 0.3])
    h = 1e-3
    for z, reached in ((h / 2, "-0.0005"), (-h / 2, "0.0005"), (2 * h, "0")):
        with pytest.raises(DomainError) as err:
            read_stencils(phi, bg, fourvector_batch([FourVector(0.5, 0.1, 0.2, z)]), h, 1)
        assert str(err.value) == (
            f"stencil point (t,x,y,z) = (0.5, 0.1, 0.2, {reached}) of (t,x,y,z) = "
            f"(0.5, 0.1, 0.2, {z:g}) lies on or across a switch surface of "
            "background 'linear_z'")
    x = fourvector_batch([FourVector(0.5, 0.1, 0.2, 3 * h)])
    rows = residual_convergence(bg, read_stencils(phi, bg, x, h / 2, 2), h)
    assert len(rows) == 1 and np.isfinite(rows[0][4])


def test_batch_reports_the_crossing_a_loop_meets_first():
    # per point its stencil's domain, then its touch, then its stencil's
    # crossing; over the batch, the first point that fails (at 2e-3 the
    # read's stencil is the 2 h margin of h = 1e-3)
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = Wavefunction("cone", lambda x: np.exp(-1j * x.t), domain=lambda x: x.t > 0.0)
    fine, touching = FourVector(0.5, 0.0, 0.0, 0.3), FourVector(0.5, 0.1, 0.2, 0.0)
    near, both = FourVector(0.5, 0.1, 0.2, 0.0015), FourVector(0.001, 0.0, 0.0, 0.0015)
    crossing = ("stencil point (t,x,y,z) = (0.5, 0.1, 0.2, -0.0005) of (t,x,y,z) = "
                "(0.5, 0.1, 0.2, 0.0015) lies on or across a switch surface of "
                "background 'linear_z'")
    touch = ("(t,x,y,z) = (0.5, 0.1, 0.2, 0) touches a switch surface of background "
             "'linear_z'")
    for pts, want in (([fine, near, touching], crossing), ([fine, touching, near], touch),
                      ([fine, both, near], _first_margin_error(phi, [both], 1e-3, 2)),
                      ([near, both], crossing)):
        with pytest.raises(DomainError) as err:
            _convergence(phi, bg, pts, 2e-3)
        assert str(err.value) == want


def test_clear_points_are_those_both_reads_accept():
    # kg's draw keeps a point where the mask holds: exactly the points in
    # phi's domain that the read at h accepts alone, each of which kg's read
    # at h/2 of two steps accepts too
    bg = backgrounds.linear_z(1.0, 1.0, switched=True)
    phi = Wavefunction("cone", lambda x: np.exp(-1j * x.t), domain=lambda x: x.t > 0.0)
    h = 1e-3
    pts = [FourVector(t, 0.1, 0.2, z) for t in (-0.001, 0.0005, 0.0015, 0.0025, 0.5)
           for z in (-0.003, -0.002, -0.0015, -0.0005, 0.0, 1e-13, 0.0015, 0.002, 0.0025)]
    mask = clear_points(phi, bg, fourvector_batch(pts), h)

    def reads(x, step, steps=1):
        try:
            read_stencils(phi, bg, fourvector_batch([x]), step, steps)
        except DomainError:
            return False
        return True

    want = [x.t > 0.0 and reads(x, h) for x in pts]
    assert mask.tolist() == want and 0 < sum(want) < len(pts)
    assert all(reads(x, h / 2, 2) for x, ok in zip(pts, want) if ok)


def test_bessel_overflow_names_its_v():
    phi = make_dilation_solution((1000.0, 0.0), 0.8, 1.0, 1.0, 0.0)
    # v = sqrt(x.x)/x+ is 0.16, 1 and 1.73: Q_perp v = 1000 overflows I_alpha
    pts = [FourVector(2.0, 0.0, 0.0, 1.9), FourVector(2.0, 0.0, 0.0, 0.0),
           FourVector(2.0, 0.0, 0.0, -1.0)]
    assert np.isfinite(phi(fourvector_batch(pts[:1]))).all()
    with pytest.raises(DomainError) as err:
        phi(fourvector_batch(pts))
    assert str(err.value) == "Bessel evaluation overflowed at v = 1"


@pytest.mark.parametrize("q3", [0.8, 0.0])
def test_bessel_overflow_stops_without_a_warning(q3):
    # an overflowing sum leaves the series' loop (inf < inf 2^-54 never holds)
    # and only the DomainError reports it, at the series' order and at alpha = 1
    phi = make_dilation_solution((1000.0, 0.0), q3, 1.0, 1.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            phi(fourvector_batch([FourVector(2.0, 0.0, 0.0, 1.9),
                                  FourVector(2.0, 0.0, 0.0, 0.0)]))
    assert str(err.value) == "Bessel evaluation overflowed at v = 1"
