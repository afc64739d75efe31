"""Hamiltonian flows for a relativistic particle in a scalar background.

Forms of dynamics and their canonical variables; the layout of each (time
and column names, the point of (t, q), the on-shell momentum, the p- slot,
the bracket and its chain rule) lives in one Form record of FORMS:

instant    time t,  q = (x, y, z),          p = (p1, p2, p3),  H = sqrt(p.p + m^2)
front      time x+, q = (x-, x1, x2),       p = (p-, p1, p2),  H = (p_perp.p_perp + m^2)/(4 p-)
extended   time s,  q = (x+, x-, x1, x2),   p = (p+, p-, p1, p2), K = H - p+
covariant  time tau, q = x^mu,              p slot holds dx/dtau (upper index)

All momenta carry lower indices.  Evolution follows the convention

    dQ/dt = dQ/dt|_explicit - {Q, H},   {A, B} = dA/dq.dB/dp - dA/dp.dB/dq,

so coordinates obey dq/dt = -dH/dp and momenta dp/dt = +dH/dq (each form's
flow is the one place these partials are written out; hamiltonian_partials
reads them back); in the instant form dx^j/dt = -p_j/H, p_j lower-index.
The extended form adds (x+, p+) as a canonical pair, evolves in an affine
parameter with dx+/ds = 1, and uses the same bracket over all four pairs.
The covariant form integrates m (d^2x_mu/dtau^2) = (eta_{mu nu} -
xdot_mu xdot_nu) d^nu m with xdot.xdot = 1.

A set of quantities is evaluated at a state, or at a component-first batch
of states, by quantity_values and, in a form with a bracket,
quantity_partials; the generator charges xi.p among them share one
position, on-shell momentum and Hamiltonian partials per state.  On a batch
quantity_values returns one value per point and quantity_partials (n, N)
partials, every point in the bits of that point's own call: every product
is an IEEE product, a square included, and every sum of products adds left
to right, elementwise over the batch, so no BLAS kernel enters.  monitor,
poisson_bracket and integrability's tables read these two (integrability
with one quantity_partials call per table).  brackets turns a table of
partials into Poisson brackets by the same ordered sums, and
poisson_bracket reads a table of one state.

One stepping loop drives the embedded Runge-Kutta 5(4) pair of ode.RK45,
locates switch surfaces and the p- = 0 guard on each step's dense output with
ode.brentq, and restarts each segment on the far side of a C0 kink from an
integrated state.  A segment samples the output grid in one ode.dense_sample
pass over the dense coefficients of the steps that span the grid's times,
and a trajectory is the concatenation of its segments' arrays.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SingularityError
from .geometry import (FourVector, contract, lf_momenta, lower_index,
                       momenta_from_lf, pair_rows, raise_index, scalar_or_array)
from .jsonio import write_csv, write_json
from .ode import EPS, RK45, brentq, dense_sample


@dataclass(frozen=True)
class Form:
    """Layout of one phase space (see the module docstring).  A form with a
    bracket has a constant chain rule: coords is linear in q, so dx_dq[k] =
    dx^mu/dq_k is one matrix, and the on-shell momentum is p4 = S^T p + H n,
    H the form's own Hamiltonian, whose partials its flow writes out; n is
    zero in the extended form, which eliminates no momentum."""

    time_name: str
    q_names: tuple
    p_names: tuple
    coords: Callable         # (time, q) -> (t, x, y, z); reads only q[:dof]
    momentum: Callable       # (state, bg) -> lower-index (p0, p1, p2, p3)
    split: Optional[tuple]   # (S, n) of a form with a Poisson bracket, else None

    def __post_init__(self):
        eye = np.eye(self.dof)
        object.__setattr__(self, "dx_dq", np.array([self.coords(0.0, e) for e in eye]))
        # slot of p- in p, None where it is no coordinate
        object.__setattr__(self, "pminus", self.p_names.index("pminus")
                           if "pminus" in self.p_names else None)

    @property
    def dof(self) -> int:
        return len(self.q_names)

    @property
    def canonical(self) -> bool:
        """Whether the form carries a Poisson bracket."""
        return self.split is not None

    def position(self, time, q) -> FourVector:
        """The spacetime point of (time, q) as a FourVector."""
        return FourVector(*self.coords(time, q))


def _covariant_momentum(state: PhaseSpaceState, bg) -> np.ndarray:
    m = bg.mass(state.position())
    if np.any(m <= 0.0):
        raise SingularityError("covariant momentum needs m > 0")
    return m * lower_index(state.p)


FORMS = {
    "instant": Form(
        "t", ("x", "y", "z"), ("p1", "p2", "p3"),
        lambda t, q: (t, q[0], q[1], q[2]),
        lambda st, bg: np.array([hamiltonian_instant(st, bg), st.p[0], st.p[1],
                                 st.p[2]]),
        (np.eye(4)[1:], np.array([1.0, 0.0, 0.0, 0.0]))),
    "front": Form(
        "xplus", ("xminus", "x1", "x2"), ("pminus", "p1", "p2"),
        lambda t, q: (0.5 * (t + q[0]), q[1], q[2], 0.5 * (t - q[0])),
        lambda st, bg: momenta_from_lf(hamiltonian_front(st, bg), *st.p),
        (np.array([momenta_from_lf(0.0, *e) for e in np.eye(3)]),
         momenta_from_lf(1.0, 0.0, 0.0, 0.0))),
    "extended": Form(
        "s", ("xplus", "xminus", "x1", "x2"), ("pplus", "pminus", "p1", "p2"),
        lambda s, q: (0.5 * (q[0] + q[1]), q[2], q[3], 0.5 * (q[0] - q[1])),
        lambda st, bg: momenta_from_lf(*st.p),
        (np.array([momenta_from_lf(*e) for e in np.eye(4)]), np.zeros(4))),
    "covariant": Form(
        "tau", ("x0", "x1", "x2", "x3"), ("u0", "u1", "u2", "u3"),
        lambda tau, q: (q[0], q[1], q[2], q[3]),
        _covariant_momentum, None),
}


class _BatchTimes(np.ndarray):
    """A batch state's (N,) times, hashable by identity: perfbench's
    bench_trace.py keys each quantity_partials call by its state's time,
    which a single state holds as a float (ROADMAP item 1).  Arithmetic on
    it gives plain arrays."""

    __hash__ = object.__hash__

    def __array_wrap__(self, arr, context, return_scalar):
        return arr[()] if return_scalar else arr.view(np.ndarray)


@dataclass(frozen=True)
class PhaseSpaceState:
    """A point of one of the four phase spaces; see the module docstring for
    the layout of q and p per form.

    A component-first batch of N points of one form has q and p of shape
    (n, N) and time of shape (N,) (kept as _BatchTimes); positions, momenta
    and Hamiltonians of a batch come out with one value per point (see
    Trajectory.batch_state).
    """

    form: str
    time: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        n = FORMS[self.form].dof
        if q.ndim > 2 or q.shape[:1] != (n,) or p.shape != q.shape:
            raise ValueError(f"form {self.form!r} needs q, p of shape ({n},) "
                             f"or ({n}, N)")
        time = np.asarray(self.time, dtype=float)
        if time.shape != q.shape[1:]:
            raise ValueError(f"time of shape {time.shape} does not match q, p "
                             f"of shape {q.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "time", scalar_or_array(
            time.view(_BatchTimes) if time.ndim else time))

    def position(self) -> FourVector:
        """Spacetime point of the state (upper-index components)."""
        return FORMS[self.form].position(self.time, self.q)

    def four_momentum(self, bg) -> np.ndarray:
        """Lower-index (p0, p1, p2, p3), reconstructed on shell where the
        form eliminates a component."""
        return FORMS[self.form].momentum(self, bg)

    def replace(self, **kw) -> "PhaseSpaceState":
        return dataclasses.replace(self, **kw)


def instant_state(t: float, xyz, p) -> PhaseSpaceState:
    return PhaseSpaceState("instant", t, np.asarray(xyz, float), np.asarray(p, float))


def front_state(xplus: float, xminus: float, xperp, pminus: float,
                pperp) -> PhaseSpaceState:
    if pminus == 0.0:
        raise SingularityError("front form requires p- != 0")
    xperp = np.asarray(xperp, float)
    pperp = np.asarray(pperp, float)
    return PhaseSpaceState("front", xplus, np.array([xminus, xperp[0], xperp[1]]),
                           np.array([pminus, pperp[0], pperp[1]]))


# the default s = 0 and tau = 0 serve the form conversions (ROADMAP items 8 and 14)
def extended_state(xplus: float, xminus: float, xperp, pplus: float,
                   pminus: float, pperp, s: float = 0.0) -> PhaseSpaceState:
    xperp = np.asarray(xperp, float)
    pperp = np.asarray(pperp, float)
    return PhaseSpaceState("extended", s,
                           np.array([xplus, xminus, xperp[0], xperp[1]]),
                           np.array([pplus, pminus, pperp[0], pperp[1]]))


def extended_state_on_shell(bg, xplus: float, xminus: float, xperp,
                            pminus: float, pperp, s: float = 0.0) -> PhaseSpaceState:
    """Extended state with p+ fixed by the mass shell, p+ = (p_perp^2 + m^2)/(4 p-)."""
    fr = front_state(xplus, xminus, xperp, pminus, pperp)
    return extended_state(xplus, xminus, xperp, hamiltonian_front(fr, bg),
                          pminus, pperp, s=s)


def covariant_state(x: FourVector, xdot: FourVector,
                    tau: float = 0.0) -> PhaseSpaceState:
    n2 = xdot.norm2()
    if abs(n2 - 1.0) > 1e-8:
        raise ValueError(f"xdot.xdot = {n2:.3e} must equal 1 for a covariant state")
    return PhaseSpaceState("covariant", tau, x.as_array(), xdot.as_array())


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def hamiltonian_instant(state: PhaseSpaceState, bg):
    """Positive root H = sqrt(p.p + m^2(t, x))."""
    m2 = bg.m2(state.position())
    return scalar_or_array(np.sqrt(contract(state.p, state.p) + m2))


def pplus_on_shell(pminus, p1, p2, m2):
    """p+ on the mass shell, (p1 p1 + p2 p2 + m^2)/(4 p-): floats, or arrays
    elementwise.  The one copy of the formula; the closed-form orbits read
    it too."""
    return (p1 * p1 + p2 * p2 + m2) / (4.0 * pminus)


def hamiltonian_front(state: PhaseSpaceState, bg):
    """p+ on shell (pplus_on_shell), from the (p-, p1, p2) that end p in the
    front and extended forms: the front form's H."""
    pminus, p1, p2 = state.p[-3:]
    if np.any(pminus == 0.0):
        raise SingularityError(f"{state.form} Hamiltonian undefined at p- = 0")
    return scalar_or_array(pplus_on_shell(pminus, p1, p2, bg.m2(state.position())))


def hamiltonian_extended(state: PhaseSpaceState, bg):
    """K = p+ on shell - p+; vanishes on shell."""
    return scalar_or_array(hamiltonian_front(state, bg) - state.p[0])


def hamiltonian_partials(state: PhaseSpaceState, bg):
    """(dH/dq, dH/dp) of the state's own Hamiltonian (H, p+ on shell, K in
    the instant, front, extended form), read back from the form's flow, the
    one place they are written out, as (-dH/dp, dH/dq); of shape (n,), or
    (n, N) for a batch state.  Every point, a single state being the batch
    of one, takes the flow's own call on its (q, p) as floats."""
    if not FORMS[state.form].canonical:
        raise ValueError(f"the {state.form} form has no Hamiltonian partials")
    n = FORMS[state.form].dof
    rhs = _make_rhs(state.form, bg, False)
    y = np.concatenate([state.q, state.p])
    rows = y.reshape(2 * n, -1).T.tolist()
    f = np.array([rhs(t, row) for t, row in
                  zip(np.ravel(state.time).tolist(), rows)]).T.reshape(y.shape)
    return f[n:], -f[:n]


# ---------------------------------------------------------------------------
# quantity sets at a state
# ---------------------------------------------------------------------------

def quantity_values(quantities: Sequence, state: PhaseSpaceState, bg) -> list:
    """One value per quantity at a state, or one array of values per point
    for a batch state.  A generator charge is xi^mu(x) p_mu with p
    reconstructed on shell where the form requires it."""
    values, x = [], None
    for quant in quantities:
        gen = quant.generator
        if gen is None:
            values.append(quant.func(state, bg))
            continue
        if x is None:
            x, p4 = state.position(), state.four_momentum(bg)
        values.append(contract(gen.killing(x), p4))
    return values


def quantity_partials(quantities: Sequence, state: PhaseSpaceState, bg) -> list:
    """One (dQ/dq, dQ/dp) per quantity at a state of a form with a bracket,
    each of shape (n,), or (n, N) for a batch state.  A generator charge's
    partials are one chain rule through the form's constant data: with x(q)
    linear, E = dx/dq, and p4 = S^T p + H n,

        dQ/dq = E w + (xi.n) dH/dq,   dQ/dp = S xi + (xi.n) dH/dp,

    w = p4_mu d_nu xi^mu the generator's charge_gradient; the H terms
    vanish where the form eliminates no momentum (n = 0).  E w and S xi add
    their four products left to right, elementwise over a batch.  Any
    other quantity gives its own closed-form partials, and one without them
    raises ValueError before any field is read.  Those partials and dH take
    the batch as it is, each point in the bits of its own call."""
    form = FORMS[state.form]
    if not form.canonical:
        raise ValueError(f"the {state.form} form carries no canonical bracket")
    for quant in quantities:
        if quant.generator is None and quant.partials is None:
            raise ValueError(f"quantity {quant.label!r} has no closed-form "
                             "partials")
    S, n = form.split
    out, x = [], None
    for quant in quantities:
        gen = quant.generator
        if gen is None:
            out.append(quant.partials(state, bg))
            continue
        if x is None:
            x, p4 = state.position(), state.four_momentum(bg)
            dH = hamiltonian_partials(state, bg) if n.any() else None
        xi, w = gen.killing(x), gen.charge_gradient(x, p4)
        dq, dp = pair_rows(form.dx_dq, w), pair_rows(S, xi)
        if dH is not None:
            xin = contract(xi, n)
            dq, dp = dq + xin * dH[0], dp + xin * dH[1]
        out.append((dq, dp))
    return out


def brackets(jacobians: np.ndarray) -> np.ndarray:
    """The brackets {Qi, Qj} per state, shape (N, K, K), from stacked
    Jacobians of shape (N, K, 2n) whose rows are (dQ/dq, dQ/dp): X - X^T,
    X_ij = dQi/dq_k dQj/dp_k added over k left to right, elementwise.
    Every bracket the package takes is this sum, so a state's brackets have
    the same bits in a table of one as in a table of many."""
    n = jacobians.shape[-1] // 2
    dq, dp = jacobians[..., :, None, :n], jacobians[..., None, :, n:]
    x = dq[..., 0] * dp[..., 0]
    for k in range(1, n):
        x = x + dq[..., k] * dp[..., k]
    return x - np.swapaxes(x, -1, -2)


def poisson_bracket(f, g, state: PhaseSpaceState, bg) -> float:
    """{f, g} = df/dq.dg/dp - df/dp.dg/dq at a single state, over the
    canonical pairs of its form (pairs are matched by position in q and p;
    the extended form includes the (x+, p+) pair): entry (0, 1) of the
    bracket table of the one state."""
    parts = quantity_partials([f, g], state, bg)
    return float(brackets(np.array([[np.concatenate(qp) for qp in parts]]))[0, 0, 1])


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------
# Each RHS takes y as a sequence of floats and returns a tuple of floats: it
# unpacks y once, computes the form's (t, x, y, z) from it with the float
# operations of its Form.coords, reads the field there through
# ScalarBackground.field_at (the one m^2 < 0 check), building no FourVector,
# and writes every sum of products out left to right and every square as a
# product.  A denominator that vanishes (p-, p-^2, H, m, m^2) is made a
# numpy scalar first, so that dividing by it gives inf or nan with a
# RuntimeWarning, as numpy does, not ZeroDivisionError.

def _rhs_instant(bg, nonrel: bool):
    field_at = bg.field_at

    def rhs(t, y):
        x1, x2, x3, p1, p2, p3 = y
        m2, (_, g1, g2, g3) = field_at(t, x1, x2, x3)
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
    return rhs


def _rhs_lightfront(bg, extended: bool):
    """Front and extended flows.  The front form is the extended form with x+
    as its time: it drops dx+/ds = 1 and the p+ equation, and both end their
    y with (p-, p1, p2).  The light-front partials of m^2 are
    d/dx+- = (g0 +- g3)/2 and d/dx1,2 = g1,2 (geometry.lf_gradient)."""
    field_at = bg.field_at

    def rhs(t, y):
        if extended:
            xplus, xminus, x1, x2, _, pminus, p1, p2 = y
        else:
            xminus, x1, x2, pminus, p1, p2 = y
            xplus = t
        m2, (g0, g1, g2, g3) = field_at(0.5 * (xplus + xminus), x1, x2,
                                        0.5 * (xplus - xminus))
        pm2 = pminus * pminus
        if not pm2:
            pminus, pm2 = np.float64(pminus), np.float64(pm2)
        w = 4.0 * pminus
        flow = ((p1 * p1 + p2 * p2 + m2) / (4.0 * pm2), -p1 / (2.0 * pminus),
                -p2 / (2.0 * pminus), 0.5 * (g0 - g3) / w, g1 / w, g2 / w)
        if extended:
            return (1.0, *flow[:3], 0.5 * (g0 + g3) / w, *flow[3:])
        return flow
    return rhs


def _rhs_covariant(bg):
    field_at = bg.field_at

    def rhs(tau, y):
        x0, x1, x2, x3, u0, u1, u2, u3 = y
        m2, (g0, g1, g2, g3) = field_at(x0, x1, x2, x3)
        ug = u0 * g0 + u1 * g1 + u2 * g2 + u3 * g3
        if not m2:
            m2 = np.float64(m2)
        w = 2.0 * m2
        # d^mu m^2 = (g0, -g1, -g2, -g3)
        return (u0, u1, u2, u3, (g0 - u0 * ug) / w, (-g1 - u1 * ug) / w,
                (-g2 - u2 * ug) / w, (-g3 - u3 * ug) / w)
    return rhs


def check_flow(form: str, nonrel: bool) -> None:
    """Raise ValueError for a nonrelativistic flow outside the instant form."""
    if nonrel and form != "instant":
        raise ValueError(f"the nonrelativistic flow applies to the instant form, "
                         f"not {form!r}")


def _make_rhs(form: str, bg, nonrel: bool):
    check_flow(form, nonrel)
    if form == "instant":
        return _rhs_instant(bg, nonrel)
    if form == "covariant":
        return _rhs_covariant(bg)
    return _rhs_lightfront(bg, form == "extended")


@dataclass
class EvolveOptions:
    rtol: float = 1e-10
    atol: float = 1e-10
    samples: int = 400
    nonrelativistic: bool = False


@dataclass
class Trajectory:
    """Sampled flow output with monitored quantities and drift statistics."""

    form: str
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    background: str
    quantities: dict = field(default_factory=dict)
    drifts: dict = field(default_factory=dict)
    events_log: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    nonrelativistic: bool = False

    def __len__(self):
        return self.times.size

    def batch_state(self) -> PhaseSpaceState:
        """All samples as one component-first batch state (q, p of shape
        (n, N)); point i holds sample i's time, q and p."""
        return PhaseSpaceState(self.form, self.times, self.q.T, self.p.T)

    def column_names(self):
        form = FORMS[self.form]
        return form.time_name, list(form.q_names), list(form.p_names)

    def to_csv(self, path):
        tname, qn, pn = self.column_names()
        rows = np.column_stack([self.times, self.q, self.p, *self.quantities.values()])
        write_csv(path, [tname, *qn, *pn, *self.quantities], rows)

    def to_json(self, path):
        tname, qn, pn = self.column_names()
        doc = {
            "form": self.form,
            "background": self.background,
            "nonrelativistic": self.nonrelativistic,
            "columns": [tname] + qn + pn,
            "samples": np.column_stack([self.times, self.q, self.p]).tolist(),
            "quantities": {k: v.tolist() for k, v in self.quantities.items()},
            "drifts": {k: float(v) for k, v in self.drifts.items()},
            "events": [[name, float(t)] for name, t in self.events_log],
            "stats": self.stats,
        }
        write_json(path, doc, sort_keys=False)


def monitor(traj: Trajectory, quantities: Sequence, bg):
    """Evaluate quantities along a trajectory's samples; returns (values,
    drifts) where drift = max_t |Q(t) - Q(0)| / max(1, |Q(0)|).  Pure: the
    report only depends on the stored samples.

    The values are quantity_values on the whole trajectory as one batch
    state (Trajectory.batch_state), so the generator charges share one
    position and on-shell four-momentum per trajectory; every quantity must
    give one value per sample.  A value that overflows is inf or NaN
    without a warning, and its NaN drift fails the run's gate."""
    values = {}
    drifts = {}
    batch = traj.batch_state()
    with np.errstate(over="ignore", invalid="ignore"):
        for quant, vals in zip(quantities, quantity_values(quantities, batch, bg)):
            lab, vals = quant.label, np.asarray(vals, dtype=float)
            if vals.shape != (len(traj),):
                raise ValueError(f"quantity {lab!r} returned shape {vals.shape} "
                                 f"for a batch of {len(traj)} samples")
            values[lab] = vals
            drifts[lab] = float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
    return values, drifts


MAX_SEGMENTS = 64   # event restarts before a flow counts as stuck on a surface


def _rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step on floats; moves a segment's start off
    a surface."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, [v + 0.5 * h * a for v, a in zip(y, k1)])
    k3 = rhs(t + 0.5 * h, [v + 0.5 * h * b for v, b in zip(y, k2)])
    k4 = rhs(t + h, [v + h * c for v, c in zip(y, k3)])
    return [v + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _where(form: Form, t, y) -> str:
    """The time, and p- where the form has one, of a flow's state."""
    where = f"{form.time_name} = {t:.12g}"
    if form.pminus is not None:
        where += f", p- = {y[form.dof + form.pminus]:.2g}"
    return where


def _solver(rhs, t, y, t_bound, rtol, atol, form: Form) -> RK45:
    """An RK45 solver from (t, y), once the state and the RHS there are
    finite; a non-finite start raises SingularityError naming its time and
    p-, where a solver would refuse the state or divide by a zero first
    step."""
    if not (np.isfinite(y).all() and np.isfinite(rhs(t, y)).all()):
        raise SingularityError(f"the flow is not finite at its start "
                               f"({_where(form, t, y)})")
    return RK45(rhs, t, y, t_bound, rtol=rtol, atol=atol)


def _segment(solver, ev_fns, t_eval, form: Form, resolution: float):
    """Step a solver to its bound or to its first event, sampling the sorted
    floats t_eval on the dense output of the step that spans each, in one
    ode.dense_sample pass at the end; the step that hits an event spans the
    kink and samples none (_integrate's redo of it does).
    Returns (sampled times, (m, n) array of sampled states, None or (event
    index, event time)).  A failed step's error names the time and p-
    reached, as does a flow that stalls: a step that leaves the solver
    running, is shorter than resolution, the flow's span times EPS, and is
    no longer than the step before it.  RK45's own floor follows the
    spacing of t, which is far finer near t = 0, so a flow whose steps stay
    under the span's resolution would creep on without end; one whose
    steps grow, as they do from a short first step, goes on."""
    g = [fn(solver.t, solver.y) for fn in ev_fns]
    steps, counts, i_eval, hit, h = [], [], 0, None, 0.0
    while hit is None and solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise SingularityError(f"integration failed: {message} "
                                   f"({_where(form, solver.t, solver.y)})")
        h_old, h = h, solver.t - solver.t_old
        if solver.status == "running" and h < resolution and h <= h_old:
            raise SingularityError(
                f"integration failed: the flow stalls at steps of {h:.3g}, below "
                f"the span's float resolution {resolution:.3g} "
                f"({_where(form, solver.t, solver.y)})")
        t, g_old = solver.t, g
        g = [fn(t, solver.y) for fn in ev_fns]
        active = [i for i, (a, b) in enumerate(zip(g_old, g))
                  if a <= 0 <= b or b <= 0 <= a]
        if active:
            dense = solver.dense_output()
            t, i = min((brentq(lambda s, fn=ev_fns[i]: fn(s, dense(s)), solver.t_old,
                               solver.t, xtol=4 * EPS, rtol=4 * EPS), i)
                       for i in active)
            hit = (i, t)
        elif i_eval < len(t_eval) and t_eval[i_eval] <= t:
            j = bisect_right(t_eval, t, i_eval)
            steps.append(solver.dense_step())
            counts.append(j - i_eval)
            i_eval = j
    times = np.array(t_eval[:i_eval])
    ys = dense_sample(steps, counts, times) if steps else np.empty((0, solver.n))
    return times, ys, hit


def starts_at(state: PhaseSpaceState, t0: float) -> bool:
    """Whether the state's time is the span start t0, to rounding."""
    return abs(state.time - t0) <= 1e-12 * max(1.0, abs(t0))


def evolve(state0: PhaseSpaceState, bg, span, opts: EvolveOptions,
           monitors: Sequence = ()) -> Trajectory:
    """Integrate the state's form of dynamics over span = (t0, t1).

    A switch surface declared by the background ends the segment at the
    crossing, located by Brent's method on the dense output of the step that
    straddles it; that step is redone up to the crossing and the integration
    restarts on the far side from the redone step's end, so the integrated
    state never steps across a C0 kink.  Each grid time is sampled on the
    dense output of the step that spans it, every segment's samples in one
    array pass with the bits of the float dense output (ode.dense_sample);
    the times from the straddling step's start to the crossing are sampled
    on the redone step, which ends at the kink.
    A sign change of p- (front/extended) raises SingularityError; sampling
    m^2 < 0 raises RealityError from the background itself.
    """
    t0, t1 = float(span[0]), float(span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"span ({t0:g}, {t1:g}) is not finite")
    if t1 <= t0:
        raise ValueError("span must run forward")
    if not starts_at(state0, t0):
        raise ValueError("state0.time must equal span[0]")
    rhs = _make_rhs(state0.form, bg, opts.nonrelativistic)
    grid = np.linspace(t0, t1, opts.samples)
    times, ys, stats, elog = _integrate(state0, bg, (t0, t1), rhs, grid,
                                        opts.rtol, opts.atol)

    n = FORMS[state0.form].dof
    traj = Trajectory(form=state0.form, times=times,
                      q=ys[:, :n], p=ys[:, n:],
                      background=bg.label, events_log=elog, stats=stats,
                      nonrelativistic=opts.nonrelativistic)
    if monitors:
        traj.quantities, traj.drifts = monitor(traj, monitors, bg)
    return traj


def _integrate(state0, bg, span, rhs, grid, rtol: float, atol: float):
    """The stepping loop: one RK45 solver per segment between switch-surface
    crossings.  A crossing's straddling step is redone from its start to the
    crossing, sampling the grid times it left, and the next segment starts
    from its end.  Returns (times, (N, 2n) states, stats, event log), each
    array the concatenation of the rows of segments, restarts and crossings."""
    t0, t1 = span
    span_len = t1 - t0
    nudge = 1e-12 * span_len
    end = t1 - 1e-14 * span_len   # a flow that reaches end has reached t1
    resolution = EPS * span_len   # a running solver's least step

    form = FORMS[state0.form]
    events = [(name, lambda t, y, _fn=fn: _fn(*form.coords(t, y)))
              for name, fn in bg.events]
    if form.pminus is not None:
        events.append(("p-=0", lambda t, y, _i=form.dof + form.pminus: y[_i]))
    ev_fns = [fn for _, fn in events]
    surface_fns = ev_fns[:len(bg.events)]   # the p- = 0 guard is no surface

    tol = 1e-14 * max(1.0, span_len)
    y = np.concatenate([state0.q, state0.p]).tolist()
    times, ys, t = [np.array([t0])], [np.array([y])], t0   # no array is empty

    def keep(new_t, new_y):   # the rows more than tol after the last kept row
        k = np.searchsorted(new_t, times[-1][-1] + tol, side="right")
        if k < new_t.size:
            times.append(new_t[k:])
            ys.append(new_y[k:])

    elog, nfev, segments = [], 0, 0
    while t < t1:
        # step off a switch surface so the event does not refire at the
        # start; from a crossing within a nudge of t1, or past end, the step
        # goes to t1 and the run ends there
        last = t + nudge >= end
        if t >= end or any(abs(fn(t, y)) < 1e-13 * max(1.0, span_len)
                           for fn in surface_fns):
            y_off = _rk4_step(rhs, t, y, t1 - t if last else nudge)
            if not np.isfinite(y_off).all():
                raise SingularityError(f"the step off a surface at "
                                       f"{_where(form, t, y)} is not finite")
            y, t = y_off, t1 if last else t + nudge
            nfev += 4
            if last:
                times.append(np.array([t]))
                ys.append(np.array([y]))
                break
        seg_grid = grid[(grid > t + 1e-14 * span_len) & (grid <= t1)]
        t_eval = [t, *seg_grid.tolist()] if seg_grid.size else [t, t1]
        solver = _solver(rhs, t, y, t1, rtol, atol, form)
        seg_t, seg_y, hit = _segment(solver, ev_fns, t_eval, form, resolution)
        nfev += solver.nfev
        segments += 1
        if segments > MAX_SEGMENTS:
            raise SingularityError("too many event restarts; flow appears stuck "
                                   "on a switch surface")
        keep(seg_t, seg_y)
        if hit is None:
            break
        i, te = hit
        name = events[i][0]
        if i >= len(bg.events):
            raise SingularityError(
                f"guard {name} crossed at parameter {te:g}; the flow left "
                "its regular region")
        # the redo runs to te with no events and samples the times in
        # (t_old, te] that the straddling step left
        redo = _solver(rhs, solver.t_old, solver.y_old, te, rtol, atol, form)
        left = t_eval[seg_t.size:bisect_right(t_eval, te)]
        keep(*_segment(redo, (), left, form, resolution)[:2])
        nfev += redo.nfev
        elog.append((name, te))
        keep(np.array([te]), np.array([redo.y]))
        t, y = te, redo.y

    stats = {"nfev": int(nfev), "segments": int(segments),
             "event_crossings": len(elog)}
    return np.concatenate(times), np.concatenate(ys), stats, elog


# ---------------------------------------------------------------------------
# form conversions
# ---------------------------------------------------------------------------

# no command converts forms (front_to_extended aside); tests do, as items 8 and 14 will
def instant_to_covariant(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "instant":
        raise ValueError("expected an instant-form state")
    p4 = state.four_momentum(bg)
    m = bg.mass(state.position())
    u = raise_index(p4) / m
    return covariant_state(state.position(), FourVector.from_array(u), tau=0.0)


# no command calls it; tests do, and the round trips of items 8 and 14 will
def covariant_to_instant(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "covariant":
        raise ValueError("expected a covariant state")
    p4 = state.four_momentum(bg)
    x = state.position()
    return instant_state(x.t, [x.x, x.y, x.z], p4[1:4])


# no command calls it; tests do, and the round trips of items 8 and 14 will
def instant_to_front(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "instant":
        raise ValueError("expected an instant-form state")
    x = state.position()
    p4 = state.four_momentum(bg)
    return front_state(x.xplus, x.xminus, [x.x, x.y], lf_momenta(p4)[1], p4[1:3])


def front_to_extended(state: PhaseSpaceState, bg, s: float = 0.0) -> PhaseSpaceState:
    if state.form != "front":
        raise ValueError("expected a front-form state")
    return extended_state_on_shell(bg, state.time, state.q[0], state.q[1:3],
                                   state.p[0], state.p[1:3], s=s)
