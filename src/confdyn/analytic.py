"""Closed-form orbits for the exactly solvable background families, used as
oracles against numerical evolution.

Families covered
----------------
spacelike   m^2 = m0^2 + B z: the in-field orbit is algebraic in
            p3(t) = p3(0) + B t/(2 Q5); the particle penetrates z > 0,
            turns around at z_max = p3(0)^2/B and exits again.
timelike    m^2 = m0^2 + E(t): momenta are constant and coordinates follow
            from one adaptive quadrature of 1/H(t).
plane wave  m^2 = m^2(x+): the seven extended-phase-space constants make
            the front-form orbit algebraic, x- following from the cubic
            constant 4 p-^2 x- - p_perp.p_perp x+ - int m^2.
conformal   m^2 = f(u)/(x+)^2, u = x- - x_perp.x_perp/x+: u(x+) inverts the
            monotone Q_perp^2 (u - u0) + F(u) - F(u0), F the antiderivative
            of f the background's profile carries, p-(u) =
            -(Q_perp^2 + f(u))/(4 Q3), the transverse coordinates integrate
            a linear ODE, and x- = u + x_perp.x_perp/x+.

For the Gaussian conformal profile with vanishing transverse data the orbit
collapses to the error-function relation 1/x+ = 1 - kappa Erf(x-) in units
where x+ is measured in L and x- in 1/k, with the dimensionless
kappa = 2 sqrt(pi) p-^2/(k m0^2 L), which reduces to 2 sqrt(pi) (p-/m0)^2 in
the k = L = 1 units used by the checks.  That relation is a test oracle
(tests/oracles.py), checked against conformal_orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

import numpy as np

from .conformal import planewave_extended_set
from .dynamics import PhaseSpaceState, front_to_extended
from .errors import DomainError, RealityError
from .geometry import (FourVector, LightFrontCoords, from_lightfront,
                       momenta_from_lf)
# brentq stays importable from here; perfbench/bench_trace.py wraps it
from .ode import EPS, RK45, brentq, newton, quad  # noqa: F401


@dataclass
class ClosedFormOrbit:
    """An orbit given by an evaluator rather than integration.

    _point maps the family's evolution parameter (t for instant-form
    families, x+ for front-form ones) to the spacetime point and the
    lower-index four-momentum together, so work they share (the u(x+)
    inversion of the conformal family) is done once per parameter value.
    constants stores the conserved values and derived scales (turning
    points, exit times, asymptotes)."""

    family: str
    time_name: str
    domain: tuple
    constants: dict
    _point: Callable = field(repr=False)

    def position(self, w: float) -> FourVector:
        return self._point(float(w))[0]

    def momentum(self, w: float) -> np.ndarray:
        return self._point(float(w))[1]

    def sample(self, ws):
        """Positions and momenta on a grid: arrays (N, 4) of upper-index
        coordinates and lower-index momenta, one evaluation per point."""
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        points = [self._point(float(w)) for w in ws]
        xs = np.array([x.as_array() for x, _ in points])
        ps = np.array([p for _, p in points])
        return xs, ps


# ---------------------------------------------------------------------------
# spacelike: m^2 = m0^2 + B z
# ---------------------------------------------------------------------------

def spacelike_orbit(B: float, init: PhaseSpaceState, m0sq: float = 1.0) -> ClosedFormOrbit:
    """Closed-form in-field orbit for m^2 = m0^2 + B z from entry data on the
    interface: init must be an instant-form state at t = 0, z = 0.

    With Q1 = p1, Q2 = p2, Q3 = 2 p1 p3 + B x, Q4 = 2 p2 p3 + B y and
    Q5 = H, the orbit is

        p3(t) = p3(0) + B t/(2 Q5),
        x(t) = (Q3 - 2 Q1 p3(t))/B,   y(t) = (Q4 - 2 Q2 p3(t))/B,
        z(t) = (Q5^2 - Q1^2 - Q2^2 - m0^2 - p3(t)^2)/B.
    """
    if B == 0.0:
        raise ValueError("spacelike family needs B != 0")
    if init.form != "instant":
        raise ValueError("entry data must be an instant-form state")
    if abs(init.time) > 1e-12 or abs(init.q[2]) > 1e-12:
        raise ValueError("entry data must sit on z = 0 at t = 0")

    x0, y0 = init.q[0], init.q[1]
    p1, p2, p30 = init.p
    q5 = float(np.sqrt(p1 * p1 + p2 * p2 + p30 * p30 + m0sq))
    q3 = 2.0 * p1 * p30 + B * x0
    q4 = 2.0 * p2 * p30 + B * y0
    c = q5 * q5 - p1 * p1 - p2 * p2 - m0sq  # = p3(t)^2 + B z(t)

    def point(t):
        pt = p30 + B * t / (2.0 * q5)
        return (FourVector(t, (q3 - 2.0 * p1 * pt) / B, (q4 - 2.0 * p2 * pt) / B,
                           (c - pt * pt) / B),
                np.array([q5, p1, p2, pt]))

    consts = {"Q1": p1, "Q2": p2, "Q3": q3, "Q4": q4, "Q5": q5,
              "p3(0)": p30, "B": B, "m0sq": m0sq,
              "Lz": x0 * p2 - y0 * p1}
    # bounce data exists when the particle actually enters the field
    if B > 0 and p30 < 0:
        consts["t_exit"] = -4.0 * q5 * p30 / B
        consts["t_turn"] = -2.0 * q5 * p30 / B
        consts["z_max"] = c / B
        domain = (0.0, consts["t_exit"])
    else:
        domain = (0.0, np.inf)

    return ClosedFormOrbit("spacelike", "t", domain, consts, point)


# ---------------------------------------------------------------------------
# timelike: m^2 = m0^2 + E(t)
# ---------------------------------------------------------------------------

def timelike_orbit(E: Callable[[float], float], init: PhaseSpaceState,
                   m0sq: float = 1.0) -> ClosedFormOrbit:
    """Quadrature orbit for a purely time-dependent squared mass: momenta are
    constant and x(t) = x(0) - p int_0^t ds / sqrt(p.p + m0^2 + E(s))."""
    if init.form != "instant":
        raise ValueError("initial data must be an instant-form state")
    if abs(init.time) > 1e-12:
        raise ValueError("initial data must be given at t = 0")
    x0 = init.q.copy()
    p = init.p.copy()
    psq = float(p @ p)

    def Hval(s):
        rad = psq + m0sq + E(s)
        if rad <= 0.0:
            raise RealityError(f"p.p + m^2(t) = {rad:g} <= 0 at t = {s:g}")
        return np.sqrt(rad)

    def point(t):
        I = quad(lambda s: 1.0 / Hval(s), 0.0, t)
        xyz = x0 - p * I
        return (FourVector(t, xyz[0], xyz[1], xyz[2]),
                np.array([Hval(t), p[0], p[1], p[2]]))

    L = np.cross(x0, p)  # constant since x(t) - x(0) is parallel to p
    consts = {"p": p, "L": L, "p.L": float(p @ L), "m0sq": m0sq}
    return ClosedFormOrbit("timelike", "t", (0.0, np.inf), consts, point)


# ---------------------------------------------------------------------------
# plane wave: m^2 = m^2(x+)
# ---------------------------------------------------------------------------

def planewave_quantities(state: PhaseSpaceState, bg) -> dict:
    """The seven constants of m^2 = m^2(x+), conformal.planewave_extended_set
    evaluated on the state (a front-form state lifted on shell):

    Q1 = p1, Q2 = p2, Q3 = p-, Q4 = 2 x1 p- + x+ p1, Q5 = 2 x2 p- + x+ p2,
    Q6 = 4 p+ p- - p_perp.p_perp - m^2(x+),
    Q7 = 4 p-^2 x- - p_perp.p_perp x+ - int_0^{x+} m^2.
    """
    if bg.m2_antiderivative is None:
        raise DomainError("the seven-constant set needs a wave in x+, one "
                          "with an x+ antiderivative of m^2")
    s = state if state.form == "extended" else front_to_extended(state, bg)
    return {q.label: q(s, bg) for q in planewave_extended_set()}


def planewave_xminus(bg, xplus: float, q: dict) -> float:
    """x-(x+) solved from the cubic constant:
    x- = (Q7 + (Q1^2 + Q2^2) x+ + int_0^{x+} m^2)/(4 Q3^2)."""
    pp = q["Q1"] * q["Q1"] + q["Q2"] * q["Q2"]
    return (q["Q7"] + pp * xplus + bg.m2_integral(xplus)) / (4.0 * q["Q3"] ** 2)


def planewave_orbit(bg, init: PhaseSpaceState) -> ClosedFormOrbit:
    """Algebraic front-form orbit of a plane wave m^2(x+), reconstructed
    entirely from the conserved set: transverse coordinates from the null
    rotation charges, x- from Q7."""
    q = planewave_quantities(init, bg)
    q1, q2, q3 = q["Q1"], q["Q2"], q["Q3"]
    pp = q1 * q1 + q2 * q2

    def point(xplus):
        x1 = (q["Q4"] - xplus * q1) / (2.0 * q3)
        x2 = (q["Q5"] - xplus * q2) / (2.0 * q3)
        xminus = planewave_xminus(bg, xplus, q)
        x = from_lightfront(LightFrontCoords(xplus, xminus, x1, x2))
        pplus = (pp + bg.m2(x)) / (4.0 * q3)
        return x, momenta_from_lf(pplus, q3, q1, q2)

    return ClosedFormOrbit("plane_wave", "xplus", (-np.inf, np.inf), dict(q),
                           point)


# ---------------------------------------------------------------------------
# special conformal: m^2 = f(u)/(x+)^2
# ---------------------------------------------------------------------------

def conformal_orbit(bg, init: PhaseSpaceState,
                    xplus_max: Optional[float] = None) -> ClosedFormOrbit:
    """Orbit of the inverse-square light-front mass from front-form initial
    data at x+ = x0+ > 0.

    The longitudinal motion inverts the monotone relation

        int_{u0}^{u} ds (Q_perp^2 + f(s))/(4 Q3^2) = 1/x0+ - 1/x+

    by bracketed root finding; p-(u) = -(Q_perp^2 + f(u))/(4 Q3).  The
    integral is Q_perp^2 (u - u0) + F(u) - F(u0), with f, f' and the
    antiderivative F read from bg.profile.  When the transverse charges do
    not vanish, p_perp(x+) integrates a linear ODE driven by the inverted
    u(x+) (pass xplus_max > x0+ to set its range); the x_perp = p_perp = 0
    branch needs no extra input.
    """
    if init.form != "front":
        raise ValueError("initial data must be a front-form state")
    xp0 = float(init.time)
    if xp0 <= 0.0:
        raise DomainError("initial x+ must be positive (smooth region)")
    f, df, F = bg.profile
    xm0, x10, x20 = init.q
    pm0, p10, p20 = init.p
    u0 = xm0 - (x10 * x10 + x20 * x20) / xp0
    f_u0 = float(f(u0))
    pplus0 = (p10 * p10 + p20 * p20 + f_u0 / xp0 ** 2) / (4.0 * pm0)

    q1 = 2.0 * pm0 * x10 + xp0 * p10
    q2 = 2.0 * pm0 * x20 + xp0 * p20
    qperp2 = q1 * q1 + q2 * q2
    # charge of the special conformal field (-x+^2, -x_perp.x_perp, -x+ x_perp)
    q3 = (-xp0 ** 2 * pplus0 - (x10 ** 2 + x20 ** 2) * pm0
          - xp0 * (x10 * p10 + x20 * p20))
    if q3 == 0.0:
        raise DomainError("the special conformal charge vanishes; the "
                          "longitudinal quadrature degenerates")
    if qperp2 + f_u0 <= 0.0:
        raise DomainError("Q_perp^2 + f(u0) <= 0: the quadrature is not monotone")

    def weight(s):
        # nonnegative by assumption; underflowed tails may round to 0.0,
        # which keeps G monotone and is not an error
        w = qperp2 + float(f(s))
        if w < 0.0:
            raise DomainError(f"Q_perp^2 + f({s:g}) = {w:g} < 0: "
                              "non-monotone inversion")
        return w

    F_u0 = F(u0)

    def G(u):
        return qperp2 * (u - u0) + (F(u) - F_u0)

    four_q3sq = 4.0 * q3 * q3
    # G at the doubling bracket's edges u0 +- 2^k, the same for every x+
    G_edge = cache(G)

    def u_of_xplus(xp):
        if xp <= 0.0:
            raise DomainError("x+ must stay positive")
        target = four_q3sq * (1.0 / xp0 - 1.0 / xp)
        if target == 0.0:
            return u0
        # bracket by doubling; G is monotone nondecreasing
        lo, hi = (u0, u0 + 1.0) if target > 0 else (u0 - 1.0, u0)
        prev = None
        for _ in range(200):
            end = G_edge(hi) if target > 0 else G_edge(lo)
            if (target > 0 and end >= target) or (target < 0 and end <= target):
                break
            if prev is not None and end == prev:
                raise DomainError("u(x+) bracketing stalled: x+ lies beyond "
                                  "the orbit's asymptote")
            prev = end
            width = hi - lo
            if target > 0:
                hi += width
            else:
                lo -= width
        else:
            raise DomainError("failed to bracket u(x+); x+ may lie beyond "
                              "the orbit's asymptote")
        # Newton from the edge just integrated, G' being the weight
        edge = hi if target > 0 else lo
        return newton(lambda u: G(u) - target, weight, edge, end - target,
                      lo, hi, 1e-12, 4 * EPS)

    def pminus_of_u(u):
        w = qperp2 + float(f(u))
        if w == 0.0:
            raise DomainError("p- vanishes here: the orbit has left the "
                              "front-form chart")
        return -w / (4.0 * q3)

    # transverse sector
    trivial = (qperp2 == 0.0 and p10 == 0.0 and p20 == 0.0)
    if not trivial:
        if xplus_max is None:
            raise DomainError("transverse data present: pass xplus_max so the "
                              "transverse ODE can be integrated once")
        if not xplus_max > xp0:
            raise DomainError(f"xplus_max = {xplus_max:g} must exceed the "
                              f"initial x+ = {xp0:g}")

        def perp_rhs(xp, pvec):
            u = u_of_xplus(xp)
            pm = pminus_of_u(u)
            x1 = (q1 - xp * pvec[0]) / (2.0 * pm)
            x2 = (q2 - xp * pvec[1]) / (2.0 * pm)
            fac = -float(df(u)) / (2.0 * pm * xp ** 3)
            return [fac * x1, fac * x2]

        solver = RK45(perp_rhs, xp0, [p10, p20], float(xplus_max),
                      rtol=1e-11, atol=1e-13)
        ends, steps = [xp0], []
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise DomainError(f"transverse integration failed: {message}")
            ends.append(solver.t)
            steps.append(solver.dense_output())
        ends = np.array(ends)

    def pperp_of(xp):
        if trivial:
            return 0.0, 0.0
        # the step holding xp, the earlier one at a shared end, the first or
        # last outside the range: the step scipy's OdeSolution picks
        i = np.searchsorted(ends, xp, side="left") - 1
        v = steps[min(max(i, 0), len(steps) - 1)](xp)
        return float(v[0]), float(v[1])

    def point(xp):
        u = u_of_xplus(xp)
        pm = pminus_of_u(u)
        pp1, pp2 = pperp_of(xp)
        x1 = (q1 - xp * pp1) / (2.0 * pm)
        x2 = (q2 - xp * pp2) / (2.0 * pm)
        xminus = u + (x1 * x1 + x2 * x2) / xp
        pplus = (pp1 * pp1 + pp2 * pp2 + float(f(u)) / xp ** 2) / (4.0 * pm)
        return (from_lightfront(LightFrontCoords(xp, xminus, x1, x2)),
                momenta_from_lf(pplus, pm, pp1, pp2))

    # asymptote: finite limiting x+ when the weight integral converges
    xplus_asym = np.inf
    if trivial:
        Ginf = F(np.inf) - F_u0
        recip = 1.0 / xp0 - Ginf / four_q3sq
        if recip > 0.0 and np.isfinite(Ginf):
            xplus_asym = 1.0 / recip

    hi = xplus_asym if xplus_max is None else min(xplus_max, xplus_asym)
    consts = {"Q1": q1, "Q2": q2, "Q3": q3, "Lz": x10 * p20 - x20 * p10,
              "u0": u0, "xplus0": xp0, "pminus0": pm0,
              "xplus_asymptote": xplus_asym}
    return ClosedFormOrbit("special_conformal", "xplus", (xp0, hi), consts,
                           point)
