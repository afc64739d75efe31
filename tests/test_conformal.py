"""Conformal algebra: Killing fields, brackets, defects, and charges."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from confdyn import backgrounds
from confdyn.conformal import (ConformalGenerator, boost_axis, dilation,
                               generator_quantity, lie_bracket,
                               null_rotation_t, null_rotation_u, rotation_x,
                               rotation_y, rotation_z,
                               special_conformal, special_conformal_lf,
                               symmetry_defect, time_translation, translation,
                               translation_axis, translation_xminus)
from confdyn.dynamics import (extended_state, front_state, instant_state,
                              poisson_bracket, quantity_partials)
from confdyn.geometry import FourVector
from oracles import (charge_gradient_written_out, conformal_killing_residual,
                     fd_partials, jacobian_written_out, killing_residual_fd,
                     killing_written_out)


def random_generator(rng):
    om = rng.normal(size=(4, 4))
    return ConformalGenerator(rng.normal(size=4), om - om.T,
                              rng.normal(), rng.normal(size=4))


def random_point(rng, scale=2.0):
    return FourVector(*rng.uniform(-scale, scale, size=4))


def parameters(g):
    """All 15 parameters (a, omega, lam, c) of a generator in one array."""
    return np.concatenate([g.a, g.omega.ravel(), [g.lam], g.c])


# -------------------------------------------------------------- fields

def test_killing_translation_constant():
    g = translation([1.0, 0.0, 0.0, 0.0])
    for x in (FourVector(0, 0, 0, 0), FourVector(1.0, -2.0, 0.3, 4.0)):
        assert np.allclose(g.killing(x), [1.0, 0.0, 0.0, 0.0], atol=0.0)


def _generators_and_combinations(rng):
    named = [translation([0.3, -1.0, 2.0, 0.5]), time_translation(),
             translation_axis(1), translation_xminus(), rotation_z(),
             boost_axis(3), null_rotation_t(1), null_rotation_u(2),
             0.7 * dilation(), -0.5 * dilation(),
             special_conformal([0.2, -0.4, 1.1, 0.3]), special_conformal_lf()]
    drawn = [random_generator(rng) for _ in range(6)]
    return (named + drawn + [drawn[0] + drawn[1], 0.3 * drawn[2],
                             drawn[3] * -1.7, drawn[4] - drawn[5],
                             named[4] + named[10], named[8] - drawn[0]])


def test_killing_and_jacobian_equal_the_written_out_formulas():
    # the constants built once per generator give the floats of raising
    # omega and c, and of np.eye, on every call; the charge gradient is p
    # times the written-out Jacobian, its sums in their own order
    def bits(a):
        return a.shape, a.tobytes()     # signed zeros included

    rng = np.random.default_rng(21)
    batch = FourVector(*rng.uniform(-2.0, 2.0, size=(4, 7)))
    pb = rng.uniform(-2.0, 2.0, size=(4, 7))
    for g in _generators_and_combinations(rng):
        for x in [random_point(rng) for _ in range(5)] + [FourVector(0.0, -0.0, 0.0, 0.0)]:
            p = rng.uniform(-2.0, 2.0, size=4)
            assert bits(g.killing(x)) == bits(killing_written_out(g, x))
            w = g.charge_gradient(x, p)
            assert bits(w) == bits(charge_gradient_written_out(g, x, p))
            assert np.allclose(w, p @ jacobian_written_out(g, x), rtol=0.0,
                               atol=1e-13 * (1.0 + np.abs(parameters(g)).max()))
        assert bits(g.killing(batch)) == bits(killing_written_out(g, batch))
        assert bits(g.charge_gradient(batch, pb)) == bits(
            charge_gradient_written_out(g, batch, pb))
        points = [FourVector(*c) for c in batch.as_array().T]
        assert bits(g.charge_gradient(batch, pb)) == bits(np.array(
            [g.charge_gradient(x, p) for x, p in zip(points, pb.T)]).T)


def test_killing_dilation_is_x():
    x = FourVector(2.0, 0.0, 0.0, 1.0)
    assert np.allclose(dilation().killing(x), [2.0, 0.0, 0.0, 1.0])


def test_killing_special_conformal_frozen():
    # xi^mu = c^mu x.x - 2 (c.x) x^mu with c_mu = (1/2,0,0,1/2):
    # at x = (1,2,-1,3): x.x = -13, c.x = 2, hand evaluation gives
    g = special_conformal_lf()
    xi = g.killing(FourVector(1.0, 2.0, -1.0, 3.0))
    assert np.allclose(xi, [-10.5, -8.0, 4.0, -5.5], rtol=0, atol=1e-14)


def test_special_conformal_lf_components():
    # xi+ = -(x+)^2, xi- = -xperp.xperp, xi^perp = -x+ x^perp
    rng = np.random.default_rng(2)
    g = special_conformal_lf()
    for _ in range(20):
        x = random_point(rng)
        xi = g.killing(x)
        xiplus, ximinus = xi[0] + xi[3], xi[0] - xi[3]
        assert xiplus == pytest.approx(-x.xplus ** 2, rel=1e-12, abs=1e-12)
        assert ximinus == pytest.approx(-(x.x ** 2 + x.y ** 2), rel=1e-12, abs=1e-12)
        assert np.allclose(xi[1:3], -x.xplus * np.array([x.x, x.y]), atol=1e-12)
        assert g.divergence(x) == pytest.approx(-4.0 * x.xplus, rel=1e-12, abs=1e-12)


def test_divergence_values():
    x = FourVector(1.0, 0.0, 0.0, 0.0)
    assert translation([1, 0, 0, 0]).divergence(x) == 0.0
    assert rotation_z().divergence(x) == 0.0
    assert boost_axis(3).divergence(x) == 0.0
    assert dilation().divergence(x) == 4.0
    # c_mu = (1,0,0,0): d.xi = -8 c.x = -8 at x = (1,0,0,0)
    assert special_conformal([1.0, 0.0, 0.0, 0.0]).divergence(x) == -8.0


def test_divergence_matches_fd_exactly():
    # the field is quadratic in x, so the central difference of the closed
    # form divergence is exact up to roundoff; an h-ratio test is vacuous here
    rng = np.random.default_rng(8)
    h = 1e-3
    for _ in range(10):
        g = random_generator(rng)
        x = random_point(rng)
        fd = sum((g.killing(x.shifted(mu, +h))[mu]
                  - g.killing(x.shifted(mu, -h))[mu]) / (2 * h)
                 for mu in range(4))
        assert fd == pytest.approx(g.divergence(x), rel=1e-9, abs=1e-9)


def test_killing_residual_zero_for_generators():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_generator(rng)
        res = conformal_killing_residual(g, random_point(rng))
        assert np.max(np.abs(res)) <= 1e-12 * max(1.0, np.max(np.abs(g.c)) * 10)


def test_killing_residual_nonsolution_field():
    # xi = (0, x^1, 0, 0) is not conformal: residual = diag(-1/2,-3/2,1/2,1/2)
    def field(x):
        return np.array([0.0, x.x, 0.0, 0.0])

    res = killing_residual_fd(field, FourVector(0.3, -0.7, 1.1, 0.2))
    assert np.allclose(res, np.diag([-0.5, -1.5, 0.5, 0.5]), atol=1e-9)


# -------------------------------------------------------------- brackets

def test_bracket_translations_commute():
    b = lie_bracket(translation([1, 0, 0, 0]), translation([0, 1.0, 2.0, 0]))
    assert np.all(parameters(b) == 0.0)


def test_bracket_dilation_translation():
    a = np.array([0.3, -1.0, 0.5, 2.0])
    b = lie_bracket(dilation(), translation(a))
    assert np.allclose(b.a, -a, atol=0.0)
    assert b.lam == 0.0 and np.all(b.omega == 0.0) and np.all(b.c == 0.0)


def test_bracket_null_rotations_commute():
    b = lie_bracket(null_rotation_t(1), null_rotation_t(2))
    assert np.max(np.abs(parameters(b))) <= 1e-15


def test_bracket_matches_fd_commutator():
    # oracle: [xi1, xi2]^mu = xi1.d xi2^mu - xi2.d xi1^mu by central
    # differences of the fields alone (exact for quadratic fields)
    rng = np.random.default_rng(12)
    h = 1e-3
    for _ in range(10):
        g1, g2 = random_generator(rng), random_generator(rng)
        br = lie_bracket(g1, g2)
        x = random_point(rng, scale=1.0)
        xi1 = g1.killing(x)
        xi2 = g2.killing(x)
        fd = np.zeros(4)
        for nu in range(4):
            d2 = (g2.killing(x.shifted(nu, +h))
                  - g2.killing(x.shifted(nu, -h))) / (2 * h)
            d1 = (g1.killing(x.shifted(nu, +h))
                  - g1.killing(x.shifted(nu, -h))) / (2 * h)
            fd += xi1[nu] * d2 - xi2[nu] * d1
        assert np.allclose(br.killing(x), fd, rtol=1e-7, atol=1e-7)


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        g1, g2, g3 = (random_generator(rng) for _ in range(3))
        total = (lie_bracket(g1, lie_bracket(g2, g3))
                 + lie_bracket(g2, lie_bracket(g3, g1))
                 + lie_bracket(g3, lie_bracket(g1, g2)))
        x = random_point(rng)
        assert np.max(np.abs(total.killing(x))) <= 1e-10 * 100


def test_charge_bracket_identity_extended():
    # {xi1.p, xi2.p} = -[xi1,xi2].p with the paper's bracket sign; on the
    # extended form all four momenta are independent coordinates, so the
    # identity is exact for every generator pair, symmetry or not
    rng = np.random.default_rng(31)
    bg = backgrounds.constant(1.0)
    gens = [translation_axis(1), rotation_z(), boost_axis(3), null_rotation_t(2),
            dilation(), special_conformal_lf()]
    st = extended_state(1.1, -0.2, [0.3, 0.4], 0.8, 0.7, [0.05, -0.1])
    for _ in range(12):
        g1, g2 = rng.choice(gens, size=2, replace=False)
        lhs = poisson_bracket(generator_quantity(g1), generator_quantity(g2), st, bg)
        rhs = -generator_quantity(lie_bracket(g1, g2))(st, bg)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_charge_bracket_identity_reduced_forms():
    # on instant/front states p0 (resp. p+) is eliminated on shell, so the
    # closure survives only for generators that are symmetries of the
    # background: the Poincare charges of a constant mass
    bg = backgrounds.constant(1.0)
    gens = [translation_axis(1), time_translation(), rotation_z(), boost_axis(3),
            null_rotation_t(1), null_rotation_t(2), null_rotation_u(2)]
    states = [instant_state(0.3, [0.4, -0.2, 0.7], [0.1, 0.3, -0.5]),
              front_state(0.9, 0.2, [0.1, -0.3], 0.6, [0.2, 0.1])]
    for st in states:
        for i, g1 in enumerate(gens):
            for g2 in gens[i + 1:]:
                lhs = poisson_bracket(generator_quantity(g1),
                                      generator_quantity(g2), st, bg)
                rhs = -generator_quantity(lie_bracket(g1, g2))(st, bg)
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


# -------------------------------------------------------------- defects

def test_defect_plane_wave_transverse_translation():
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = random_point(rng)
        assert symmetry_defect(translation_axis(1), bg, x) == pytest.approx(0.0, abs=1e-12)
        assert symmetry_defect(translation_xminus(), bg, x) == pytest.approx(0.0, abs=1e-12)


def test_defect_linear_z_translation():
    bg = backgrounds.linear_z(B=0.7, m0sq=1.0, switched=False)
    x = FourVector(0.1, 0.2, 0.3, 1.5)
    # Lie derivative along z-translation is exactly B
    assert symmetry_defect(translation([0, 0, 0, 1.0]), bg, x) == pytest.approx(0.7, abs=1e-14)
    assert symmetry_defect(time_translation(), bg, x) == pytest.approx(0.0, abs=1e-14)


def test_defect_special_conformal_mass():
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = FourVector(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.5, 0.5), 0.0)
        x = FourVector(x.t + x.z, x.x, x.y, x.t - 0.0)  # keep x+ > 0
        if x.xplus <= 0.2:
            continue
        for g in (special_conformal_lf(), null_rotation_t(1), null_rotation_t(2)):
            assert abs(symmetry_defect(g, bg, x)) <= 1e-10


def test_defect_dilation_mass():
    bg = backgrounds.dilation_mass(1.0)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = FourVector(rng.uniform(1.5, 2.5), *rng.uniform(-0.5, 0.5, size=3))
        for g in (dilation(), null_rotation_t(1), null_rotation_t(2)):
            assert abs(symmetry_defect(g, bg, x)) <= 1e-10
        # a plain translation is NOT a symmetry here
        assert abs(symmetry_defect(time_translation(), bg, x)) > 1e-3


@pytest.mark.parametrize("bg, gens, lo, hi", [
    (backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0),
     (special_conformal_lf(), null_rotation_t(1), null_rotation_t(2), dilation()),
     (0.6, -0.5, -0.5, 0.1), (2.0, 0.5, 0.5, 0.5)),
    (backgrounds.dilation_mass(1.0),
     (dilation(), null_rotation_t(1), null_rotation_t(2), time_translation()),
     (1.5, -0.5, -0.5, -0.5), (2.5, 0.5, 0.5, 0.5)),
    (backgrounds.linear_z(B=0.7, m0sq=1.0, switched=False),
     (translation([0, 0, 0, 1.0]), time_translation(), translation_axis(1),
      rotation_z()),
     (-1.0, -1.0, -1.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
], ids=["gaussian", "dilation", "linear_z"])
def test_defect_of_a_batch_is_the_per_point_defect(bg, gens, lo, hi):
    cols = np.random.default_rng(11).uniform(lo, hi, size=(9, 4))
    batch = FourVector(*cols.T)
    for g in gens:
        got = symmetry_defect(g, bg, batch)
        assert got.shape == (9,)
        assert np.array_equal(got, [symmetry_defect(g, bg, FourVector.from_array(c))
                                    for c in cols])


# -------------------------------------------------------------- charges

def test_charge_null_rotation_front_form():
    st = front_state(1.3, 0.4, [0.2, -0.6], 0.7, [0.15, 0.25])
    bg = backgrounds.constant(1.0)
    for j in (1, 2):
        xperp = st.q[1 + j - 1 + 0]  # q = (x-, x1, x2)
        expect = 2.0 * st.q[j] * st.p[0] + st.time * st.p[j]
        got = generator_quantity(null_rotation_t(j))(st, bg)
        assert got == pytest.approx(expect, rel=1e-12)


def test_charge_boost_z_front_form():
    # true boost field gives x+ p+ - x- p-; p+ reconstructed on shell
    st = front_state(0.9, -0.3, [0.1, 0.2], 0.55, [0.3, -0.1])
    bg = backgrounds.constant(1.0)
    pplus = (st.p[1] ** 2 + st.p[2] ** 2 + 1.0) / (4.0 * st.p[0])
    expect = st.time * pplus - st.q[0] * st.p[0]
    assert generator_quantity(boost_axis(3))(st, bg) == pytest.approx(expect, rel=1e-12)


def test_charge_u_null_rotation():
    # U_j = 2 x^j p+ + x- p_j on front states
    st = front_state(1.1, 0.6, [-0.2, 0.5], 0.4, [0.2, 0.3])
    bg = backgrounds.constant(1.0)
    pplus = (st.p[1] ** 2 + st.p[2] ** 2 + 1.0) / (4.0 * st.p[0])
    for j in (1, 2):
        expect = 2.0 * st.q[j] * pplus + st.q[0] * st.p[j]
        got = generator_quantity(null_rotation_u(j))(st, bg)
        assert got == pytest.approx(expect, rel=1e-12)


def test_quantity_partials_match_fd():
    bg = backgrounds.plane_wave_sin2(1.0, 0.4, 0.9, "xplus")
    states = [instant_state(0.2, [0.3, -0.5, 0.4], [0.2, 0.1, -0.3]),
              front_state(1.2, 0.1, [0.2, -0.1], 0.8, [0.1, 0.4]),
              extended_state(1.0, 0.3, [-0.2, 0.2], 0.9, 0.6, [0.2, -0.3])]
    gens = [translation_axis(2), rotation_z(), boost_axis(3), null_rotation_t(1),
            dilation(), special_conformal_lf()]
    for st in states:
        for g in gens:
            q = generator_quantity(g)
            dq, dp = quantity_partials([q], st, bg)[0]
            fdq, fdp = fd_partials(q, st, bg, 1e-6)
            assert np.allclose(dq, fdq, rtol=1e-5, atol=1e-7)
            assert np.allclose(dp, fdp, rtol=1e-5, atol=1e-7)


# -------------------------------------------------------------- properties

_BACKGROUNDS = {"plane_wave_sin2": backgrounds.plane_wave_sin2(1.0, 0.4, 0.9, "xplus"),
                "special_conformal_gaussian":
                    backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)}
_UNITS = arrays(np.float64, 15, elements=st.floats(-1.0, 1.0))
_STATES = arrays(np.float64, 8, elements=st.floats(-1.0, 1.0))


def _generator(v):
    """The generator with the 15 parameters a = v[:4], omega's upper
    triangle v[4:10], lam = v[10] and c = v[11:]."""
    om = np.zeros((4, 4))
    om[np.triu_indices(4, 1)] = v[4:10]
    return ConformalGenerator(v[:4], om - om.T, v[10], v[11:])


def _canonical_state(form, v):
    """A state of the form with x+ in [0.5, 2], clear of the inverse-square
    fields' singular x+ = 0, and p- in [0.3, 1.5]."""
    xplus, xminus = 1.25 + 0.75 * v[0], 0.5 * v[1]
    xperp, pperp, pminus = 0.5 * v[2:4], 0.5 * v[4:6], 0.9 + 0.6 * v[6]
    if form == "instant":
        return instant_state(0.5 * (xplus + xminus), [*xperp, 0.5 * (xplus - xminus)],
                             [*pperp, v[7]])
    if form == "front":
        return front_state(xplus, xminus, xperp, pminus, pperp)
    return extended_state(xplus, xminus, xperp, v[7], pminus, pperp)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(form=st.sampled_from(["instant", "front", "extended"]),
       bg=st.sampled_from(sorted(_BACKGROUNDS)), g=_UNITS, v=_STATES)
def test_generator_partials_match_fd_everywhere(form, bg, g, v):
    # the one chain rule against finite differences of xi.p, for any of the
    # 15 parameters at any state; the front form is reached by no certify
    # preset, so this is its guard
    bg, state = _BACKGROUNDS[bg], _canonical_state(form, v)
    q = generator_quantity(_generator(g))
    dq, dp = quantity_partials([q], state, bg)[0]
    fdq, fdp = fd_partials(q, state, bg, 1e-6)
    scale = max(1.0, np.abs(np.concatenate([dq, dp])).max())
    assert np.allclose(dq, fdq, rtol=1e-6, atol=1e-7 * scale)
    assert np.allclose(dp, fdp, rtol=1e-6, atol=1e-7 * scale)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(bg=st.sampled_from(sorted(_BACKGROUNDS)), g1=_UNITS, g2=_UNITS, v=_STATES)
def test_charge_bracket_identity_any_pair(bg, g1, g2, v):
    # {xi1.p, xi2.p} = -[xi1, xi2].p holds for every pair on the extended
    # phase space, where no momentum is eliminated
    bg, state = _BACKGROUNDS[bg], _canonical_state("extended", v)
    g1, g2 = _generator(g1), _generator(g2)
    q1, q2 = generator_quantity(g1), generator_quantity(g2)
    lhs = poisson_bracket(q1, q2, state, bg)
    rhs = -generator_quantity(lie_bracket(g1, g2))(state, bg)
    (dq1, dp1), (dq2, dp2) = quantity_partials([q1, q2], state, bg)
    scale = max(1.0, np.abs(dq1) @ np.abs(dp2) + np.abs(dp1) @ np.abs(dq2))
    assert abs(lhs - rhs) <= 1e-13 * scale


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(g1=_UNITS, g2=_UNITS)
def test_lie_bracket_antisymmetric(g1, g2):
    # [xi1, xi2] = -[xi2, xi1] for any pair, to rounding of the terms
    g1, g2 = _generator(g1), _generator(g2)
    terms = parameters(lie_bracket(g1, g2)), parameters(lie_bracket(g2, g1))
    scale = max(1.0, *(np.abs(t).max() for t in terms))
    assert np.abs(terms[0] + terms[1]).max() <= 1e-13 * scale


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(g1=_UNITS, g2=_UNITS, g3=_UNITS)
def test_lie_bracket_jacobi_identity(g1, g2, g3):
    # [xi1, [xi2, xi3]] + [xi2, [xi3, xi1]] + [xi3, [xi1, xi2]] = 0
    g1, g2, g3 = _generator(g1), _generator(g2), _generator(g3)
    terms = [parameters(lie_bracket(a, lie_bracket(b, c)))
             for a, b, c in ((g1, g2, g3), (g2, g3, g1), (g3, g1, g2))]
    scale = max(1.0, *(np.abs(t).max() for t in terms))
    assert np.abs(terms[0] + terms[1] + terms[2]).max() <= 1e-13 * scale


def test_generator_deserialization_rejects_nonantisymmetric():
    bad = np.zeros((4, 4))
    bad[0, 1] = bad[1, 0] = 1.0
    with pytest.raises(ValueError):
        ConformalGenerator(np.zeros(4), bad, 0.0, np.zeros(4))


def test_zero_generator_field():
    g = ConformalGenerator(np.zeros(4), np.zeros((4, 4)), 0.0, np.zeros(4))
    assert np.all(g.killing(FourVector(1.0, 2.0, 3.0, 4.0)) == 0.0)


# omega_{mu nu} of each Lorentz constructor as it was once filled in by hand
_LORENTZ_OMEGA = {
    "Lx": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "Ly": [[0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 1, 0, 0]],
    "Lz": [[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 0]],
    "K1": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "K2": [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]],
    "K3": [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]],
    "T1": [[0, 1, 0, 0], [-1, 0, 0, -1], [0, 0, 0, 0], [0, 1, 0, 0]],
    "T2": [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, -1], [0, 0, 1, 0]],
    "U1": [[0, 1, 0, 0], [-1, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]],
    "U2": [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]],
}


def test_lorentz_constructors_keep_their_omega():
    gens = ([rotation_x(), rotation_y(), rotation_z()] + [boost_axis(j) for j in (1, 2, 3)]
            + [null_rotation_t(j) for j in (1, 2)] + [null_rotation_u(j) for j in (1, 2)])
    assert [g.label for g in gens] == list(_LORENTZ_OMEGA)
    for g in gens:
        want = np.array(_LORENTZ_OMEGA[g.label], dtype=float)
        assert (g.omega == want).all()
        assert (np.signbit(g.omega) == np.signbit(want)).all()   # no -0.0
        assert g.a.tolist() == [0.0] * 4 and g.lam == 0.0 and g.c.tolist() == [0.0] * 4
    for make in (null_rotation_t, null_rotation_u):
        for j in (0, 3):
            with pytest.raises(ValueError, match="^transverse axis must be 1 or 2$"):
                make(j)
