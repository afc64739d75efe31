"""Reference implementations that the tests compare confdyn against.

No command calls these; they are independent routes to facts the package
computes another way:

* the error-function orbit of the Gaussian conformal profile (kappa, its
  entry state, x+(x-) and the asymptote), against analytic.conformal_orbit
  and the integrated front-form flow;
* the conformal Killing residual, closed-form and by finite differences;
* the reduced ODE residuals of the plane-wave and conformal modes, and the
  commutator identity that makes L = xi.grad + (1/4) d.xi a wave-operator
  symmetry;
* the closed-form orbits (spacelike, plane wave, conformal) evaluated
  one point at a time, with Newton's method on one bracket in Python
  floats or, for the conformal u(x+), Brent's method, against the batch
  evaluators of analytic and ode.masked_newton;
* a generator's Killing vector and Jacobian written out from its
  parameters on every call, against the constants ConformalGenerator
  builds once;
* a quantity's partials by central differences, against the closed-form
  partials the quantities carry;
* the kg command's sample points drawn lazily, one point per draw, against
  its one batched draw, and single points stacked into the batch
  FourVector that kgverify reads;
* certify's sample drawn and accepted one state at a time, against
  integrability.random_states' batch, and the split of a batch state into
  single states and back;
* momenta whose numpy array square rounds apart from a float's **, found
  by a seeded search, against the batch paths that square them;
* an antiderivative by adaptive quadrature, the F that a generic profile f
  hands special_conformal_mass, and the Gaussian profile's slope, the f'
  a test that rebuilds the Gaussian profile hands it;
* scipy's own RK45 and solve_ivp with their products taken as ordered
  sums (scipy_ordered_sums), against ode.RK45 and the stepping loop;
* each flow's right-hand side reading the field at FORMS[form].coords(t, y),
  against the flows that compute those coordinates inline;
* the CSV writer that formats every number of every row, against
  jsonio.write_csv, which formats each constant column once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from typing import Callable
from unittest import mock

import numpy as np

from confdyn.conformal import (ConformalGenerator, ConservedQuantity,
                               symmetry_defect)
from confdyn.analytic import planewave_quantities
from confdyn.dynamics import FORMS, PhaseSpaceState, front_state
from confdyn.errors import DomainError
from confdyn.geometry import (METRIC, METRIC_DIAG, FourVector,
                              central_difference, contract, from_lightfront, lower_index,
                              minkowski_dot, momenta_from_lf, raise_index)
from confdyn.kgverify import Wavefunction, kg_residual, symmetry_apply
from confdyn.ode import EPS, brentq

_EPS = 1e-30


# ---------------------------------------------------------------------------
# Gaussian-profile nondimensionalization (error-function orbit)
# ---------------------------------------------------------------------------

def gaussian_kappa(pminus: float, m0sq: float = 1.0, L: float = 1.0,
                   k: float = 1.0) -> float:
    """Dimensionless steepness of the error-function orbit,
    kappa = 2 sqrt(pi) p-^2 / (k m0^2 L), for entry at x+ = L, u = 0 with
    f(u) = m0^2 L^2 exp(-k^2 u^2) and vanishing transverse data."""
    return 2.0 * np.sqrt(np.pi) * pminus ** 2 / (k * m0sq * L)


def pminus_for_kappa(kappa: float, m0sq: float = 1.0, L: float = 1.0,
                     k: float = 1.0) -> float:
    """Entry p- > 0 that realizes a given kappa."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(np.sqrt(kappa * k * m0sq * L / (2.0 * np.sqrt(np.pi))))


def erf_orbit_reciprocal(kappa: float, xminus_scaled) -> np.ndarray:
    """L/x+ = 1 - kappa Erf(k x-) for the Gaussian branch; arguments are the
    dimensionless k x- values."""
    from scipy.special import erf
    return 1.0 - kappa * erf(np.asarray(xminus_scaled, dtype=float))


def erf_orbit_xplus(kappa: float, xminus_scaled) -> np.ndarray:
    """x+/L as a function of k x-; infinite past the orbit's asymptote."""
    recip = erf_orbit_reciprocal(kappa, xminus_scaled)
    out = np.full_like(np.atleast_1d(recip), np.inf, dtype=float)
    pos = np.atleast_1d(recip) > 0.0
    out[pos] = 1.0 / np.atleast_1d(recip)[pos]
    return out if np.ndim(recip) else float(out[0])


def erf_orbit_asymptote(kappa: float) -> float:
    """Limiting x+/L as x- -> infinity: 1/(1 - kappa) for kappa < 1."""
    if kappa >= 1.0:
        return np.inf
    return 1.0 / (1.0 - kappa)


def erf_orbit_entry_state(kappa: float, m0sq: float = 1.0, L: float = 1.0,
                          k: float = 1.0) -> PhaseSpaceState:
    """Front-form entry data (x+ = L, x- = 0, vanishing transverse sector)
    realizing the error-function orbit with the given kappa."""
    return front_state(L, 0.0, [0.0, 0.0], pminus_for_kappa(kappa, m0sq, L, k),
                       [0.0, 0.0])


def brentq_inversion(f, fprime, x, fx, lo, hi, xtol, rtol):
    """The u(x+) inversion analytic.conformal_orbit made before Newton's
    method: Brent's method on the doubling bracket [lo, hi] of
    f = G(u) - target.  It takes newton_per_point's arguments, so
    conformal_points can take it in newton's place; the start x, its value
    fx and the slope fprime go unused."""
    return brentq(f, lo, hi, xtol=xtol, rtol=rtol)


# ---------------------------------------------------------------------------
# closed-form orbits evaluated one point at a time
# ---------------------------------------------------------------------------

def newton_per_point(f, fprime, x, fx, lo, hi, xtol, rtol):
    """ode.masked_newton on one bracket in Python floats: a root of the
    nondecreasing f in [lo, hi] from the bracket end x, f(x) = fx, to
    within xtol + rtol |x|, bisecting where a step would leave the bracket
    or the slope is zero."""
    for _ in range(100):
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        slope = fprime(x)
        xnew = x - fx / slope if slope else math.nan
        done = abs(xnew - x) <= xtol + rtol * abs(xnew)
        if not (done or lo < xnew < hi):
            xnew = lo + 0.5 * (hi - lo)
            done = abs(xnew - x) <= xtol + rtol * abs(xnew)
        if done:
            return xnew
        x, fx = xnew, float(f(xnew))
    raise RuntimeError("Failed to converge after 100 iterations.")


def orbit_at(orbit, w: float) -> tuple:
    """(FourVector, (4,) lower-index momentum) of a closed-form orbit at one
    parameter value: the one row of its sample."""
    xs, ps = orbit.sample(w)
    return FourVector.from_array(xs[0]), ps[0]


def sample_points(point, ws) -> tuple:
    """(xs, ps), (N, 4) arrays, of an evaluator point(w) -> (FourVector,
    (4,) lower-index momentum) called on each float of ws in order."""
    points = [point(w) for w in np.atleast_1d(np.asarray(ws, dtype=float)).tolist()]
    return (np.array([x.as_array() for x, _ in points]),
            np.array([p for _, p in points]))


def spacelike_point(B: float, init: PhaseSpaceState, m0sq: float):
    """The in-field orbit of m^2 = m0^2 + B z at one t, from entry data on
    z = 0 at t = 0: p3(t) = p3(0) + B t/(2 Q5), x = (Q3 - 2 Q1 p3)/B,
    y = (Q4 - 2 Q2 p3)/B, z = (Q5^2 - Q1^2 - Q2^2 - m0^2 - p3^2)/B."""
    x0, y0 = init.q[0], init.q[1]
    p1, p2, p30 = init.p
    q5 = float(np.sqrt(p1 * p1 + p2 * p2 + p30 * p30 + m0sq))
    q3 = 2.0 * p1 * p30 + B * x0
    q4 = 2.0 * p2 * p30 + B * y0
    c = q5 * q5 - p1 * p1 - p2 * p2 - m0sq

    def point(t):
        pt = p30 + B * t / (2.0 * q5)
        return (FourVector(t, (q3 - 2.0 * p1 * pt) / B, (q4 - 2.0 * p2 * pt) / B,
                           (c - pt * pt) / B),
                np.array([q5, p1, p2, pt]))
    return point


def planewave_point(bg, init: PhaseSpaceState):
    """The front-form orbit of a wave m^2(x+) at one x+, from the seven
    constants: x_perp from the null rotation charges, x- from Q7, p+ on
    shell through bg.m2 at the point."""
    q = planewave_quantities(init, bg)
    q1, q2, q3 = q["Q1"], q["Q2"], q["Q3"]
    pp = q1 * q1 + q2 * q2

    def point(xplus):
        x1 = (q["Q4"] - xplus * q1) / (2.0 * q3)
        x2 = (q["Q5"] - xplus * q2) / (2.0 * q3)
        xminus = (q["Q7"] + pp * xplus + bg.m2_integral(xplus)) / (4.0 * (q3 * q3))
        x = from_lightfront(xplus, xminus, x1, x2)
        pplus = (pp + bg.m2(x)) / (4.0 * q3)
        return x, momenta_from_lf(pplus, q3, q1, q2)
    return point


def conformal_points(bg, init: PhaseSpaceState, root=newton_per_point):
    """The orbit of m^2 = f(u)/(x+)^2 at one x+ from a front-form state at
    x0+ > 0: u(x+) inverts Q_perp^2 (u - u0) + F(u) - F(u0) =
    4 Q3^2 (1/x0+ - 1/x+) on a bracket doubled from u0, by root (with
    newton_per_point's arguments) from the bracket's far edge; G at each
    edge is evaluated once, for the first x+ that reaches it.  Raises as
    analytic.conformal_orbit's evaluator does, one point at a time."""
    xp0 = float(init.time)
    f, F = bg.profile
    xm0, x10, x20 = init.q
    pm0, p10, p20 = init.p
    u0 = xm0 - (x10 * x10 + x20 * x20) / xp0
    f_u0 = float(f(u0))
    pplus0 = (p10 * p10 + p20 * p20 + f_u0 / (xp0 * xp0)) / (4.0 * pm0)
    q1 = 2.0 * pm0 * x10 + xp0 * p10
    q2 = 2.0 * pm0 * x20 + xp0 * p20
    qperp2 = q1 * q1 + q2 * q2
    q3 = (-(xp0 * xp0) * pplus0 - (x10 * x10 + x20 * x20) * pm0
          - xp0 * (x10 * p10 + x20 * p20))

    def weight(s):
        w = qperp2 + float(f(s))
        if w < 0.0:
            raise DomainError(f"Q_perp^2 + f({s:g}) = {w:g} < 0: "
                              "non-monotone inversion")
        return w

    F_u0 = F(u0)

    def G(u):
        return qperp2 * (u - u0) + (F(u) - F_u0)

    four_q3sq = 4.0 * q3 * q3
    G_edge = functools.cache(G)

    def u_of_xplus(xp):
        if xp <= 0.0:
            raise DomainError("x+ must stay positive")
        target = four_q3sq * (1.0 / xp0 - 1.0 / xp)
        if target == 0.0:
            return u0
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
        edge = hi if target > 0 else lo
        return root(lambda u: G(u) - target, weight, edge, end - target,
                    lo, hi, 1e-12, 4 * EPS)

    c1, c2 = x10 / xp0, x20 / xp0
    d1, d2 = q1 / (2.0 * q3), q2 / (2.0 * q3)

    def point(xp):
        u = u_of_xplus(xp)
        f_u = float(f(u))
        w = qperp2 + f_u
        if w == 0.0:
            raise DomainError("p- vanishes here: the orbit has left the "
                              "front-form chart")
        pm = -w / (4.0 * q3)
        x1 = xp * (c1 + d1 * (u - u0))
        x2 = xp * (c2 + d2 * (u - u0))
        pp1 = (q1 - 2.0 * pm * x1) / xp
        pp2 = (q2 - 2.0 * pm * x2) / xp
        xminus = u + (x1 * x1 + x2 * x2) / xp
        pplus = (pp1 * pp1 + pp2 * pp2 + f_u / (xp * xp)) / (4.0 * pm)
        return (from_lightfront(xp, xminus, x1, x2),
                momenta_from_lf(pplus, pm, pp1, pp2))
    return point


# ---------------------------------------------------------------------------
# conformal Killing vectors and residuals
# ---------------------------------------------------------------------------

def killing_written_out(g: ConformalGenerator, x: FourVector) -> np.ndarray:
    """xi^mu(x) with omega^mu_nu and c^mu raised from g's parameters on the
    call: (4,) at a point, (4, N) for (N,) components."""
    xu = x.as_array()
    cx = contract(xu, g.c)
    xx = minkowski_dot(x, x)
    omega_mixed = METRIC_DIAG[:, None] * g.omega
    a, cu = g.a, raise_index(g.c)
    if xu.ndim > 1:
        a, cu = a[:, None], cu[:, None]
    # omega^mu_nu x^nu row by row, its four products added left to right
    ox = np.array([om[0] * xu[0] + om[1] * xu[1] + om[2] * xu[2] + om[3] * xu[3]
                   for om in omega_mixed])
    return a + ox + g.lam * xu + cu * xx - 2.0 * cx * xu


def jacobian_written_out(g: ConformalGenerator, x: FourVector) -> np.ndarray:
    """d_nu xi^mu(x) with omega^mu_nu and c^mu raised from g's parameters
    on the call, and np.eye/np.outer built on the call."""
    xu = x.as_array()
    xl = x.lowered()
    cx = contract(xu, g.c)
    return (METRIC_DIAG[:, None] * g.omega + g.lam * np.eye(4)
            + 2.0 * np.outer(raise_index(g.c), xl)
            - 2.0 * np.outer(xu, g.c)
            - 2.0 * cx * np.eye(4))


def charge_gradient_written_out(g: ConformalGenerator, x: FourVector, p) -> np.ndarray:
    """p_mu d_nu xi^mu(x) at fixed lower-index p, with J0 = omega^mu_nu +
    lam delta^mu_nu and c^mu raised from g's parameters on the call and
    every sum over a component written out: (4,) at a point, (4, N) for
    (N,) components and p of shape (4, N)."""
    xu, xl = x.as_array(), x.lowered()
    p = np.asarray(p, dtype=float)
    j0 = METRIC_DIAG[:, None] * g.omega + g.lam * np.eye(4)
    cu = raise_index(g.c)
    c = g.c[:, None] if xu.ndim > 1 else g.c
    pj = np.array([p[0] * j0[0, nu] + p[1] * j0[1, nu] + p[2] * j0[2, nu]
                   + p[3] * j0[3, nu] for nu in range(4)])
    cp = cu[0] * p[0] + cu[1] * p[1] + cu[2] * p[2] + cu[3] * p[3]
    xp = xu[0] * p[0] + xu[1] * p[1] + xu[2] * p[2] + xu[3] * p[3]
    cx = xu[0] * g.c[0] + xu[1] * g.c[1] + xu[2] * g.c[2] + xu[3] * g.c[3]
    return pj + 2.0 * cp * xl - 2.0 * xp * c - 2.0 * cx * p


def conformal_killing_residual(g: ConformalGenerator, x: FourVector) -> np.ndarray:
    """S_{mu nu} = d_mu xi_nu + d_nu xi_mu - (1/2) eta_{mu nu} d.xi
    from closed-form derivatives; identically zero for every generator."""
    jl = METRIC @ jacobian_written_out(g, x)       # jl[mu, nu] = d_nu xi_mu
    sym = jl.T + jl
    return sym - 0.5 * METRIC * g.divergence(x)


def killing_residual_fd(field: Callable[[FourVector], np.ndarray], x: FourVector,
                        h: float = 1e-5) -> np.ndarray:
    """Finite-difference conformal Killing residual of an arbitrary vector
    field (upper-index components).  Exists for negative tests: fields outside
    the conformal family produce a nonzero residual."""
    jl = np.zeros((4, 4))                # jl[mu, nu] = d_nu xi_mu
    for nu in range(4):
        jl[:, nu] = central_difference(
            lambda s: lower_index(field(x.shifted(nu, s))), h, 1, 2)
    # d_mu xi^mu = eta^{mu mu} d_mu xi_mu for the diagonal metric
    div = float(np.sum(METRIC_DIAG * np.diag(jl)))
    return jl + jl.T - 0.5 * METRIC * div


# ---------------------------------------------------------------------------
# reduced-ODE residuals (dimensional-reduction checks)
# ---------------------------------------------------------------------------

def _ode_residual(prof, qperp, q: float, source, grid, h: float,
                  sign: float) -> float:
    """max_w |4i q prof'(w) + sign (Q_perp^2 + source(w)) prof(w)| / max_w
    |prof(w)| with prof' by central differences."""
    q1, q2 = float(qperp[0]), float(qperp[1])
    qp2 = q1 * q1 + q2 * q2
    num = 0.0
    den = _EPS
    for w in np.atleast_1d(grid):
        v = prof(w)
        drift = 4j * float(q) * central_difference(lambda s: prof(w + s), h, 1, 2)
        src = (qp2 + float(source(w))) * v
        num = max(num, abs(drift + sign * src))
        den = max(den, abs(v))
    return num / den


def ode_residual_conformal(g: Callable[[float], complex], qperp, q3: float,
                           f: Callable[[float], float], u_grid,
                           h: float = 1e-5) -> float:
    """max_u |4i Q3 g'(u) + (Q_perp^2 + f(u)) g(u)| / max_u |g(u)| with g'
    by central differences: the reduced equation any conformal eigenmode's
    longitudinal profile must satisfy."""
    return _ode_residual(g, qperp, q3, f, u_grid, h, 1.0)


def ode_residual_planewave(chi: Callable[[float], complex], qperp,
                           qminus: float, m2_of_xplus: Callable[[float], float],
                           xplus_grid, h: float = 1e-5) -> float:
    """max |4i Q- chi'(x+) - (Q_perp^2 + m^2(x+)) chi| / max |chi|: the
    reduced plane-wave equation."""
    return _ode_residual(chi, qperp, qminus, m2_of_xplus, xplus_grid, h, -1.0)


def commutator_identity_defect(gen: ConformalGenerator, bg, phi: Wavefunction,
                               x: FourVector, h: float = 1e-3) -> float:
    """|[d^2+m^2, L] phi - (1/2)(div xi)(d^2+m^2) phi + (defect) phi| at the
    point x, with defect = xi.grad m^2 + (1/2) m^2 div xi: the operator
    identity that makes L a wave-equation symmetry exactly when the defect
    vanishes.  All operators are applied by nested central differences, on
    x as a batch of one."""
    Aphi = Wavefunction("A.phi", lambda y: kg_residual(phi, bg, y, h),
                        domain=phi.domain)
    Lphi = Wavefunction("L.phi", lambda y: symmetry_apply(gen, phi, y, h),
                        domain=phi.domain)
    xs = fourvector_batch([x])
    lhs = (kg_residual(Lphi, bg, xs, h) - symmetry_apply(gen, Aphi, xs, h))[0]
    rhs = (0.5 * gen.divergence(x) * Aphi(xs)[0]
           - symmetry_defect(gen, bg, x) * phi(xs)[0])
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# the kg command's sample points
# ---------------------------------------------------------------------------

def kg_points_one_by_one(solution: str, phi: Wavefunction, seed: int,
                         npts: int) -> list:
    """The first npts points in phi's domain among at most 1000 draws from the
    rng of seed, drawn one point, and for a light-front or cone box one
    coordinate, at a time, as long as they are needed: the kg command's
    sample points for the solution of that name."""
    rng = np.random.default_rng(seed)

    def box():
        return FourVector(*rng.uniform(-1.0, 1.0, size=4))

    draws = {"planewave": box, "offshell": box,
             "conformal": lambda: from_lightfront(
                 rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
             "dilation": lambda: FourVector(
                 rng.uniform(1.8, 2.6), rng.uniform(-0.4, 0.4),
                 rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))}
    drawn = (draws[solution]() for _ in range(1000))
    inside = (x for x in drawn if phi.in_domain(fourvector_batch([x]))[0])
    return list(itertools.islice(inside, npts))


def fourvector_batch(points) -> FourVector:
    """Single-point FourVectors as one batch FourVector whose (N,)
    components list them in order, each component contiguous."""
    rows = np.array([(p.t, p.x, p.y, p.z) for p in points], dtype=float)
    return FourVector(*rows.reshape(-1, 4).T.copy())


# ---------------------------------------------------------------------------
# certify's sample, state by state
# ---------------------------------------------------------------------------

def points(batch: PhaseSpaceState) -> list:
    """The points of a batch state as single states, each q and p
    contiguous as a single state's are."""
    return [PhaseSpaceState(batch.form, t, q, p) for t, q, p in
            zip(batch.time.tolist(), np.ascontiguousarray(batch.q.T),
                np.ascontiguousarray(batch.p.T))]


def batch_of(states) -> PhaseSpaceState:
    """Single states of one form as one component-first batch state."""
    return PhaseSpaceState(states[0].form, np.array([st.time for st in states]),
                           np.array([st.q for st in states]).T,
                           np.array([st.p for st in states]).T)


def split_squares(rng: np.random.Generator, lo: float, hi: float,
                  count: int) -> np.ndarray:
    """count draws of uniform(lo, hi) whose float square v ** 2 rounds apart
    from numpy's array square v * v (about 1 draw in 1 300)."""
    found = []
    while len(found) < count:
        v = rng.uniform(lo, hi, 4096)
        found += v[v ** 2 != [w ** 2 for w in v.tolist()]].tolist()
    return np.array(found[:count])


def with_split_squares(states: PhaseSpaceState,
                       rng: np.random.Generator) -> PhaseSpaceState:
    """A front or extended batch state with p-, p1 and p2 (the last three
    momenta) replaced by split_squares draws, p- keeping its sign."""
    n = states.time.size
    pminus, p1, p2 = (split_squares(rng, lo, 0.6, n) for lo in (0.1, -0.6, -0.6))
    p = states.p.copy()
    p[-3:] = np.sign(p[-3]) * pminus, p1, p2
    return states.replace(p=p)


def random_states_one_by_one(form: str, count: int, rng: np.random.Generator,
                             q_range: tuple = (-1.0, 1.0),
                             t_range: tuple = (-1.0, 1.0), *, accept) -> list:
    """integrability.random_states drawn and accepted one state at a time:
    accept(state) -> bool on each single state; raises once 1000 draws are
    rejected."""
    out = []
    rejected = 0
    while len(out) < count:
        if form == "instant":
            st = PhaseSpaceState("instant", rng.uniform(*t_range),
                                 rng.uniform(*q_range, size=3),
                                 rng.uniform(-0.5, 0.5, size=3))
        elif form == "front":
            q = rng.uniform(*q_range, size=3)
            p = np.concatenate([[rng.uniform(0.2, 1.0)],
                                rng.uniform(-0.5, 0.5, size=2)])
            st = PhaseSpaceState("front", rng.uniform(0.5, 1.5), q, p)
        elif form == "extended":
            q = np.concatenate([[rng.uniform(0.5, 1.5)],
                                rng.uniform(*q_range, size=3)])
            p = np.concatenate([rng.uniform(-0.5, 0.5, size=1),
                                [rng.uniform(0.2, 1.0)],
                                rng.uniform(-0.5, 0.5, size=2)])
            st = PhaseSpaceState("extended", 0.0, q, p)
        else:
            raise ValueError(f"no sampler for form {form!r}")
        if accept(st):
            out.append(st)
            continue
        rejected += 1
        if rejected == 1000:
            raise ValueError("accept predicate rejected too many samples")
    return out


# ---------------------------------------------------------------------------
# finite-difference partials, quadrature antiderivatives
# ---------------------------------------------------------------------------

def fd_partials(f, state: PhaseSpaceState, bg, h_scale: float):
    """(dQ/dq, dQ/dp) of a quantity, or of a plain function of (state, bg),
    by second-order central differences with step h_scale max(1, |v|) in
    each canonical variable v."""
    out = []
    for block in ("q", "p"):
        base = getattr(state, block)
        d = np.zeros(base.size)
        for k in range(base.size):
            def at(s):
                v = base.copy()
                v[k] += s
                return f(state.replace(**{block: v}), bg)
            d[k] = central_difference(at, h_scale * max(1.0, abs(base[k])), 1, 2)
        out.append(d)
    return tuple(out)


def fd_quantity(label: str, fn) -> ConservedQuantity:
    """fn(state, bg) as a quantity whose partials are fd_partials at step
    scale 1e-6, for brackets of functions written without closed-form
    partials."""
    return ConservedQuantity(
        label, fn, partials=lambda state, bg: fd_partials(fn, state, bg, 1e-6))


def quad_antiderivative(f: Callable[[float], float]) -> Callable[[float], float]:
    """F(u) = int_0^u f by adaptive quadrature (u may be infinite), to
    within max(1e-12, 1e-12 |F|), on a float or elementwise on an array:
    the antiderivative of a profile with no closed-form one."""
    from scipy.integrate import quad

    def F(u):
        if np.ndim(u):
            return np.array([F(w) for w in u.tolist()])
        return quad(lambda s: float(f(s)), 0.0, u, epsabs=1e-12, epsrel=1e-12,
                    limit=200)[0]
    return F


def gaussian_slope(f: Callable[[float], float], k: float) -> Callable[[float], float]:
    """f'(u) = -2 k^2 u f(u) of a Gaussian profile f(u) = A exp(-k^2 u^2)."""
    return lambda u: -2.0 * k * k * u * f(u)


# ---------------------------------------------------------------------------
# scipy's RK45 on ordered sums
# ---------------------------------------------------------------------------

def ordered_sum(rows, coefs):
    """sum_s coefs[s] rows[s] over the nonzero coefs, added in order by
    numpy's accumulate, which runs left to right; rows[s] is an array."""
    terms = [r * c for r, c in zip(rows, coefs) if c != 0]
    return np.add.accumulate(terms, axis=0)[-1]


def rms_norm(x):
    """sqrt(x.x) / sqrt(n) with x.x accumulated left to right, a numpy
    scalar as np.linalg.norm's is, so that scipy may divide it by 0."""
    return np.sqrt(np.add.accumulate(x * x)[-1]) / x.size ** 0.5


@contextlib.contextmanager
def scipy_ordered_sums():
    """scipy 1.17.1's RK45 (and so solve_ivp) with every product it takes
    through np.dot written as ordered_sum or rms_norm: the stages and the
    solution in rk_step, the error estimate, the RMS norm of rk and common,
    the dense output's Q = K^T P and its powers of x.  The step control
    stays scipy's own."""
    from scipy.integrate._ivp import common, rk

    def rk_step(fun, t, y, f, h, A, B, C, K):
        K[0] = f
        for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
            dy = ordered_sum(K[:s], a[:s]) * h
            K[s] = fun(t + c * h, y + dy)
        y_new = y + h * ordered_sum(K[:-1], B)
        f_new = fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def estimate_error(self, K, h):
        return ordered_sum(K, self.E) * h

    def dense_output_impl(self):
        Q = np.stack([ordered_sum(self.K, col) for col in self.P.T], axis=1)
        return rk.RkDenseOutput(self.t_old, self.t, self.y_old, Q)

    def call_impl(self, t):
        x = (t - self.t_old) / self.h
        x2 = x * x
        x3 = x2 * x
        q = self.Q if t.ndim == 0 else self.Q[:, :, None]
        y = self.h * (((q[:, 0] * x + q[:, 1] * x2) + q[:, 2] * x3) + q[:, 3] * (x3 * x))
        return y + (self.y_old if t.ndim == 0 else self.y_old[:, None])

    with contextlib.ExitStack() as stack:
        for owner, name, new in ((rk, "rk_step", rk_step), (rk, "norm", rms_norm),
                                 (common, "norm", rms_norm),
                                 (rk.RungeKutta, "_estimate_error", estimate_error),
                                 (rk.RungeKutta, "_dense_output_impl", dense_output_impl),
                                 (rk.RkDenseOutput, "_call_impl", call_impl)):
            stack.enter_context(mock.patch.object(owner, name, new))
        yield


# ---------------------------------------------------------------------------
# the flows through Form.coords, the CSV writer row by row
# ---------------------------------------------------------------------------

def rhs_through_coords(form: str, bg, nonrel: bool = False):
    """The flow of form (the nonrelativistic instant flow where nonrel) as
    dynamics writes it, with the field read at FORMS[form].coords(t, y)."""
    coords, field_at = FORMS[form].coords, bg.field_at

    def instant(t, y):
        _, _, _, p1, p2, p3 = y
        m2, (_, g1, g2, g3) = field_at(*coords(t, y))
        pp = p1 * p1 + p2 * p2 + p3 * p3
        if nonrel:
            m = math.sqrt(m2)
            if not m2:
                m2, m = np.float64(m2), np.float64(m)
            fac = (1.0 - pp / (2.0 * m2)) / (2.0 * m)
            return (-p1 / m, -p2 / m, -p3 / m, g1 * fac, g2 * fac, g3 * fac)
        H = math.sqrt(pp + m2)
        if not H:
            H = np.float64(H)
        w = 2.0 * H
        return (-p1 / H, -p2 / H, -p3 / H, g1 / w, g2 / w, g3 / w)

    def lightfront(t, y):
        pminus, p1, p2 = y[-3:]
        m2, (g0, g1, g2, g3) = field_at(*coords(t, y))
        pm2 = pminus * pminus
        if not pm2:
            pminus, pm2 = np.float64(pminus), np.float64(pm2)
        w = 4.0 * pminus
        flow = ((p1 * p1 + p2 * p2 + m2) / (4.0 * pm2), -p1 / (2.0 * pminus),
                -p2 / (2.0 * pminus), 0.5 * (g0 - g3) / w, g1 / w, g2 / w)
        if form == "extended":
            return (1.0, *flow[:3], 0.5 * (g0 + g3) / w, *flow[3:])
        return flow

    def covariant(tau, y):
        _, _, _, _, u0, u1, u2, u3 = y
        m2, (g0, g1, g2, g3) = field_at(*coords(tau, y))
        ug = u0 * g0 + u1 * g1 + u2 * g2 + u3 * g3
        if not m2:
            m2 = np.float64(m2)
        w = 2.0 * m2
        return (u0, u1, u2, u3, (g0 - u0 * ug) / w, (-g1 - u1 * ug) / w,
                (-g2 - u2 * ug) / w, (-g3 - u3 * ug) / w)

    return {"instant": instant, "front": lightfront, "extended": lightfront,
            "covariant": covariant}[form]


def write_csv_per_number(path, header, rows) -> None:
    """The header line, then each row's numbers as %.17g, every number of
    every row formatted by one % over them all in one tuple."""
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row_fmt * len(rows) % tuple(itertools.chain.from_iterable(rows)))
