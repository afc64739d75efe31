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
            of f the background's profile carries, and p-(u) =
            -(Q_perp^2 + f(u))/(4 Q3).  The special conformal map
            x -> (-1/x+, x_perp/x+, u) turns the field into a plane wave in
            u, where the transverse motion is free: x_perp/x+ is linear in
            u, p_perp = (Q_perp - 2 p- x_perp)/x+ and x- = u +
            x_perp.x_perp/x+.  The orbit is algebraic up to u(x+).

An orbit evaluates a whole grid of its parameter in one call
(ClosedFormOrbit.sample).  The spacelike, plane-wave and conformal
evaluators are array arithmetic, with each row in the bits of the same
formula on one float; the conformal one inverts u(x+) for the whole grid
in one masked Newton iteration.  The timelike evaluator runs its
quadrature point by point.

For the Gaussian conformal profile with vanishing transverse data the orbit
collapses to the error-function relation 1/x+ = 1 - kappa Erf(x-) in units
where x+ is measured in L and x- in 1/k, with the dimensionless
kappa = 2 sqrt(pi) p-^2/(k m0^2 L), which reduces to 2 sqrt(pi) (p-/m0)^2 in
the k = L = 1 units used by the checks.  That relation is a test oracle
(tests/oracles.py), checked against conformal_orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conformal import planewave_extended_set, spacelike_hidden_quantity
from .dynamics import (PhaseSpaceState, front_to_extended, hamiltonian_instant,
                       pplus_on_shell, starts_at)
from .errors import DomainError, RealityError
from .geometry import FourVector, contract, from_lightfront
# brentq stays importable from here; perfbench/bench_trace.py wraps it
from .ode import EPS, brentq, first_error, masked_newton, quad  # noqa: F401


@dataclass
class ClosedFormOrbit:
    """An orbit given by an evaluator rather than integration.

    _evaluate maps an (N,) array of the family's evolution parameter (t for
    instant-form families, x+ for front-form ones) to the spacetime points
    and the lower-index four-momenta together, (N, 4) arrays each, in one
    call on the whole grid.  Each row has the bits that the evaluator gives
    that parameter value alone.  constants stores the conserved values and
    derived scales (turning points, exit times, asymptotes)."""

    family: str
    time_name: str
    domain: tuple
    constants: dict
    _evaluate: Callable = field(repr=False)

    def sample(self, ws):
        """Positions and momenta on a grid: arrays (N, 4) of upper-index
        coordinates and lower-index momenta.  A grid that fails raises the
        error of its first point that fails alone; a row that is not finite
        fails its point (DomainError)."""
        def rows(w):
            xs, ps = self._evaluate(w)
            bad = ~np.isfinite(np.column_stack([xs, ps])).all(axis=1)
            if bad.any():
                raise DomainError(f"the {self.family} orbit is not finite at "
                                  f"{self.time_name} = {w[bad.argmax()]:g}")
            return xs, ps
        # a float product overflows to inf, a quotient by 0 is inf and inf *
        # 0 is nan, silently, in the evaluators' arrays; rows reports them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return first_error(rows, np.atleast_1d(np.asarray(ws, dtype=float)))


def _columns(*cols) -> np.ndarray:
    """The (N, k) array of k columns, each an (N,) array or a constant."""
    return np.column_stack(np.broadcast_arrays(*cols))


def _rows(x: FourVector, p: tuple) -> tuple:
    """(xs, ps) of a batch FourVector and the four momentum columns."""
    return _columns(x.t, x.x, x.y, x.z), _columns(*p)


# ---------------------------------------------------------------------------
# spacelike: m^2 = m0^2 + B z
# ---------------------------------------------------------------------------

def spacelike_orbit(bg, init: PhaseSpaceState) -> ClosedFormOrbit:
    """Closed-form in-field orbit for m^2 = m0^2 + B z, B and m0^2 read from
    the linear_z background bg, from entry data on the interface: init must
    be an instant-form state at t = 0, z = 0.

    With Q1 = p1, Q2 = p2, the hidden charges Q3 = 2 p1 p3 + B x and
    Q4 = 2 p2 p3 + B y (conformal.spacelike_hidden_quantity) and Q5 = H
    (dynamics.hamiltonian_instant), each evaluated on init, the orbit is

        p3(t) = p3(0) + B t/(2 Q5),
        x(t) = (Q3 - 2 Q1 p3(t))/B,   y(t) = (Q4 - 2 Q2 p3(t))/B,
        z(t) = (Q5^2 - Q1^2 - Q2^2 - m0^2 - p3(t)^2)/B.
    """
    B, m0sq = bg.params["B"], bg.params["m0sq"]
    if B == 0.0:
        raise ValueError("spacelike family needs B != 0")
    if init.form != "instant":
        raise ValueError("entry data must be an instant-form state")
    if not starts_at(init, 0.0) or abs(init.q[2]) > 1e-12:
        raise ValueError("entry data must sit on z = 0 at t = 0")

    x0, y0 = init.q[0], init.q[1]
    p1, p2, p30 = init.p
    q3, q4 = (spacelike_hidden_quantity(i, B)(init, bg) for i in (3, 4))
    q5 = hamiltonian_instant(init, bg)
    c = q5 * q5 - p1 * p1 - p2 * p2 - m0sq  # = p3(t)^2 + B z(t)

    def evaluate(t):
        pt = p30 + B * t / (2.0 * q5)
        return _rows(FourVector(t, (q3 - 2.0 * p1 * pt) / B,
                                (q4 - 2.0 * p2 * pt) / B, (c - pt * pt) / B),
                     (q5, p1, p2, pt))

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

    return ClosedFormOrbit("spacelike", "t", domain, consts, evaluate)


# ---------------------------------------------------------------------------
# timelike: m^2 = m0^2 + E(t)
# ---------------------------------------------------------------------------

def timelike_orbit(E: Callable[[float], float], init: PhaseSpaceState,
                   m0sq: float) -> ClosedFormOrbit:
    """Quadrature orbit for a purely time-dependent squared mass: momenta are
    constant and x(t) = x(0) - p int_0^t ds / sqrt(p.p + m0^2 + E(s))."""
    if init.form != "instant":
        raise ValueError("initial data must be an instant-form state")
    if not starts_at(init, 0.0):
        raise ValueError("initial data must be given at t = 0")
    x0 = init.q.copy()
    p = init.p.copy()
    # a momentum near the float limit overflows p.p, L and p.L to inf or nan
    # silently here; sample reports the orbit that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        psq = contract(p, p)
        # constant since x(t) - x(0) is parallel to p
        L = np.array([x0[1] * p[2] - x0[2] * p[1], x0[2] * p[0] - x0[0] * p[2],
                      x0[0] * p[1] - x0[1] * p[0]])
        pL = contract(p, L)

    def Hval(s):
        rad = psq + m0sq + E(s)
        if rad <= 0.0:
            raise RealityError(f"p.p + m^2(t) = {rad:g} <= 0 at t = {s:g}")
        return np.sqrt(rad)

    def evaluate(ts):
        # one adaptive quadrature per point
        rows = []
        for t in ts.tolist():
            xyz = x0 - p * quad(lambda s: 1.0 / Hval(s), 0.0, t)
            rows.append((t, *xyz, Hval(t), *p))
        rows = np.array(rows).reshape(-1, 8)
        return rows[:, :4], rows[:, 4:]

    consts = {"p": p, "L": L, "p.L": pL, "m0sq": m0sq}
    return ClosedFormOrbit("timelike", "t", (0.0, np.inf), consts, evaluate)


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


def planewave_xminus(bg, xplus, q: dict):
    """x-(x+) solved from the cubic constant:
    x- = (Q7 + (Q1^2 + Q2^2) x+ + int_0^{x+} m^2)/(4 Q3^2), elementwise
    on an array of x+."""
    pp = q["Q1"] * q["Q1"] + q["Q2"] * q["Q2"]
    return (q["Q7"] + pp * xplus + bg.m2_integral(xplus)) / (4.0 * (q["Q3"] * q["Q3"]))


def planewave_orbit(bg, init: PhaseSpaceState) -> ClosedFormOrbit:
    """Algebraic front-form orbit of a plane wave m^2(x+), reconstructed
    entirely from the conserved set: transverse coordinates from the null
    rotation charges, x- from Q7."""
    q = planewave_quantities(init, bg)
    q1, q2, q3 = q["Q1"], q["Q2"], q["Q3"]

    def evaluate(xplus):
        x1 = (q["Q4"] - xplus * q1) / (2.0 * q3)
        x2 = (q["Q5"] - xplus * q2) / (2.0 * q3)
        xminus = planewave_xminus(bg, xplus, q)
        x = from_lightfront(xplus, xminus, x1, x2)
        pplus = pplus_on_shell(q3, q1, q2, bg.m2(x))
        return _rows(x, (pplus + q3, q1, q2, pplus - q3))

    return ClosedFormOrbit("plane_wave", "xplus", (-np.inf, np.inf), dict(q),
                           evaluate)


# ---------------------------------------------------------------------------
# special conformal: m^2 = f(u)/(x+)^2
# ---------------------------------------------------------------------------

def conformal_orbit(bg, init: PhaseSpaceState) -> ClosedFormOrbit:
    """Orbit of the inverse-square light-front mass from front-form initial
    data at x+ = x0+ > 0.

    The longitudinal motion inverts the monotone relation

        int_{u0}^{u} ds (Q_perp^2 + f(s))/(4 Q3^2) = 1/x0+ - 1/x+

    by bracketed root finding; p-(u) = -(Q_perp^2 + f(u))/(4 Q3).  The
    integral is G(u) = Q_perp^2 (u - u0) + F(u) - F(u0), with f and the
    antiderivative F read from bg.profile; both are called on arrays.

    The evaluator inverts a whole grid of x+ at once.  The doubling
    bracket's far edges u0 +- 2^k, and G there, are the same for every x+:
    they are made once per orbit, as far as the grid needs, and each point
    picks the first edge that brackets its target.  One masked Newton
    iteration (ode.masked_newton) then runs every point from its edge, in
    the floats a point alone would see.

    Under the special conformal map x -> (-1/x+, x_perp/x+, u) the field
    becomes a plane wave in u, in which the transverse motion is free.  Back
    in the original chart that reads

        x_perp(x+) = x+ (x0_perp/x0+ + Q_perp (u - u0)/(2 Q3)),
        p_perp(x+) = (Q_perp - 2 p-(u) x_perp)/x+,

    on either side of x0+, with u = u(x+); the second line is the null
    rotation charge Q_perp = 2 p- x_perp + x+ p_perp solved for p_perp.
    """
    if init.form != "front":
        raise ValueError("initial data must be a front-form state")
    xp0 = float(init.time)
    if xp0 <= 0.0:
        raise DomainError("initial x+ must be positive (smooth region)")
    f, F = bg.profile
    xm0, x10, x20 = init.q
    pm0, p10, p20 = init.p
    u0 = xm0 - (x10 * x10 + x20 * x20) / xp0
    f_u0 = float(f(u0))
    pplus0 = pplus_on_shell(pm0, p10, p20, f_u0 / (xp0 * xp0))

    q1 = 2.0 * pm0 * x10 + xp0 * p10
    q2 = 2.0 * pm0 * x20 + xp0 * p20
    qperp2 = q1 * q1 + q2 * q2
    # charge of the special conformal field (-x+^2, -x_perp.x_perp, -x+ x_perp)
    q3 = (-(xp0 * xp0) * pplus0 - (x10 * x10 + x20 * x20) * pm0
          - xp0 * (x10 * p10 + x20 * p20))
    if q3 == 0.0:
        raise DomainError("the special conformal charge vanishes; the "
                          "longitudinal quadrature degenerates")
    if qperp2 + f_u0 <= 0.0:
        raise DomainError("Q_perp^2 + f(u0) <= 0: the quadrature is not monotone")

    def weight(s, _):
        # nonnegative by assumption; underflowed tails may round to 0.0,
        # which keeps G monotone and is not an error
        w = qperp2 + f(s)
        negative = w < 0.0
        if negative.any():
            i = negative.argmax()
            raise DomainError(f"Q_perp^2 + f({s[i]:g}) = {w[i]:g} < 0: "
                              "non-monotone inversion")
        return w

    F_u0 = F(u0)

    def G(u):
        return qperp2 * (u - u0) + (F(u) - F_u0)

    four_q3sq = 4.0 * q3 * q3
    # the doubling bracket's far edges u0 +- 2^k (in floats) and G there,
    # the same for every x+: each is evaluated once per orbit
    ladders = {1.0: _Ladder(G, u0, 1.0), -1.0: _Ladder(G, u0, -1.0)}

    # the special conformal map x -> (-1/x+, x_perp/x+, u) takes the field to
    # a plane wave in u, where x_perp/x+ moves linearly in u
    c1, c2 = x10 / xp0, x20 / xp0
    d1, d2 = q1 / (2.0 * q3), q2 / (2.0 * q3)

    def rows(xp, u):
        f_u = f(u)
        w = qperp2 + f_u
        if (w == 0.0).any():
            raise DomainError("p- vanishes here: the orbit has left the "
                              "front-form chart")
        pm = -w / (4.0 * q3)
        x1 = xp * (c1 + d1 * (u - u0))
        x2 = xp * (c2 + d2 * (u - u0))
        pp1 = (q1 - 2.0 * pm * x1) / xp
        pp2 = (q2 - 2.0 * pm * x2) / xp
        xminus = u + (x1 * x1 + x2 * x2) / xp
        pplus = pplus_on_shell(pm, pp1, pp2, f_u / (xp * xp))
        return _rows(from_lightfront(xp, xminus, x1, x2),
                     (pplus + pm, pp1, pp2, pplus - pm))

    def evaluate(xp):
        if (xp <= 0.0).any():
            raise DomainError("x+ must stay positive")
        target = four_q3sq * (1.0 / xp0 - 1.0 / xp)
        # Newton's start, its G - target, and the bracket of each point; a
        # point on the entry's x+ starts at its root u0, with G - target = 0
        start, lo, hi = (np.full(xp.size, u0) for _ in range(3))
        gap = np.zeros(xp.size)
        up = target > 0.0
        for sign, side in ((1.0, up), (-1.0, ~up & (target != 0.0))):
            ours = np.flatnonzero(side)
            k = ladders[sign].reach(target[ours])
            edges = np.asarray(ladders[sign].edges)[k]
            start[ours] = edges
            gap[ours] = np.asarray(ladders[sign].values)[k] - target[ours]
            (hi if sign > 0.0 else lo)[ours] = edges
        # Newton from the edge just integrated, G' being the weight
        u = masked_newton(lambda u, i: G(u) - target[i], weight, start, gap,
                          lo, hi, 1e-12, 4 * EPS)
        return rows(xp, u)

    # asymptote: finite limiting x+ when G(u) stays bounded as u grows
    xplus_asym = np.inf
    if qperp2 == 0.0:
        Ginf = F(np.inf) - F_u0
        recip = 1.0 / xp0 - Ginf / four_q3sq
        if recip > 0.0 and np.isfinite(Ginf):
            xplus_asym = 1.0 / recip

    consts = {"Q1": q1, "Q2": q2, "Q3": q3, "Lz": x10 * p20 - x20 * p10,
              "u0": u0, "xplus0": xp0, "pminus0": pm0,
              "xplus_asymptote": xplus_asym}
    return ClosedFormOrbit("special_conformal", "xplus", (xp0, xplus_asym),
                           consts, evaluate)


class _Ladder:
    """The far edges of the u(x+) bracket on one side of u0, u0 + sign 2^k
    in floats, with G there; they grow, once per orbit, as far as some
    target needs.

    A point's bracket runs from u0 to the first edge where sign G reaches
    sign target.  The edges stop at the first G equal to the one before
    (past it no target is met: the bracketing stalled) and at 200."""

    def __init__(self, G, u0, sign):
        self.G, self.u0, self.sign = G, u0, sign
        self.edges, self.values = [], []
        self.top = -np.inf        # the largest sign G so far
        self.stalled = False

    def _grow(self, need):
        # until sign G meets need, G stalls or 200 edges are made
        while not (self.top >= need or self.stalled or len(self.edges) == 200):
            e = (self.u0 + self.sign * 1.0 if not self.edges
                 else self.edges[-1] + (self.edges[-1] - self.u0))
            end = self.G(e)
            self.stalled = bool(self.values) and end == self.values[-1]
            self.edges.append(e)
            self.values.append(end)
            if self.sign * end > self.top:     # a NaN G meets nothing
                self.top = self.sign * end

    def reach(self, targets):
        """The index into edges of each target's bracket edge.  Where no
        edge brackets a target (G stalled or 200 edges made) this raises
        DomainError, and where G raises at the next edge, G's error."""
        self._grow(np.max(self.sign * targets, initial=-np.inf))
        met = self.sign * np.asarray(self.values, dtype=float)
        met = np.maximum.accumulate(np.where(np.isnan(met), -np.inf, met))
        k = np.searchsorted(met, self.sign * targets)
        if (k == len(self.edges)).any():
            raise DomainError(
                "u(x+) bracketing stalled: x+ lies beyond the orbit's "
                "asymptote" if self.stalled else "failed to bracket u(x+); "
                "x+ may lie beyond the orbit's asymptote")
        return k
