"""Hamiltonian flows for a relativistic particle in a scalar background.

Forms of dynamics and their canonical variables; the layout of each (time
and column names, the point of (t, q), the on-shell momentum, the p- slot,
the bracket) lives in one Form record of FORMS:

instant    time t,  q = (x, y, z),          p = (p1, p2, p3),  H = sqrt(p.p + m^2)
front      time x+, q = (x-, x1, x2),       p = (p-, p1, p2),  H = (p_perp.p_perp + m^2)/(4 p-)
extended   time s,  q = (x+, x-, x1, x2),   p = (p+, p-, p1, p2), K = H - p+
covariant  time tau, q = x^mu,              p slot holds dx/dtau (upper index)

All momenta carry lower indices.  Evolution follows the convention

    dQ/dt = dQ/dt|_explicit - {Q, H},   {A, B} = dA/dq.dB/dp - dA/dp.dB/dq,

so coordinates obey dq/dt = -dH/dp and momenta dp/dt = +dH/dq; for the
instant form this is the familiar dx^j/dt = -p_j/H with lower-index p_j.
The extended form adds (x+, p+) as a canonical pair, evolves in an affine
parameter with dx+/ds = 1, and uses the same bracket over all four pairs.
The covariant form integrates m (d^2x_mu/dtau^2) = (eta_{mu nu} -
xdot_mu xdot_nu) d^nu m with xdot.xdot = 1.

The adaptive integrator is an embedded Runge-Kutta 5(4) pair with event
location for switch surfaces (the integration restarts cleanly on each C0
kink); a fixed-step classical Runge-Kutta scheme is available for
convergence studies.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ReconstructionError, SingularityError
from .geometry import (FourVector, contract, lower_index, momenta_from_lf,
                       raise_index, scalar_or_array)


@dataclass(frozen=True)
class Form:
    """Layout of one phase space (see the module docstring)."""

    time_name: str
    q_names: tuple
    p_names: tuple
    position: Callable       # (time, q) -> FourVector; reads only q[:dof]
    momentum: Callable       # (state, bg) -> lower-index (p0, p1, p2, p3)
    pminus: Optional[int]    # slot of p- in p, None where it is no coordinate
    canonical: bool          # carries a Poisson bracket

    @property
    def dof(self) -> int:
        return len(self.q_names)


def _covariant_momentum(state: PhaseSpaceState, bg) -> np.ndarray:
    m = bg.mass(state.position())
    if _any(m <= 0.0):
        raise ReconstructionError("covariant momentum needs m > 0")
    return m * lower_index(state.p)


FORMS = {
    "instant": Form(
        "t", ("x", "y", "z"), ("p1", "p2", "p3"),
        lambda t, q: FourVector(t, q[0], q[1], q[2]),
        lambda st, bg: np.array([hamiltonian_instant(st, bg), st.p[0], st.p[1],
                                 st.p[2]]),
        None, True),
    "front": Form(
        "xplus", ("xminus", "x1", "x2"), ("pminus", "p1", "p2"),
        lambda t, q: FourVector(0.5 * (t + q[0]), q[1], q[2], 0.5 * (t - q[0])),
        lambda st, bg: momenta_from_lf(hamiltonian_front(st, bg), *st.p),
        0, True),
    "extended": Form(
        "s", ("xplus", "xminus", "x1", "x2"), ("pplus", "pminus", "p1", "p2"),
        lambda s, q: FourVector(0.5 * (q[0] + q[1]), q[2], q[3],
                                0.5 * (q[0] - q[1])),
        lambda st, bg: momenta_from_lf(*st.p),
        1, True),
    "covariant": Form(
        "tau", ("x0", "x1", "x2", "x3"), ("u0", "u1", "u2", "u3"),
        lambda tau, q: FourVector(q[0], q[1], q[2], q[3]),
        _covariant_momentum, None, False),
}


@dataclass(frozen=True)
class PhaseSpaceState:
    """A point of one of the four phase spaces; see the module docstring for
    the layout of q and p per form.

    A component-first batch of N points of one form has q and p of shape
    (n, N) and time of shape (N,); positions, momenta and Hamiltonians of a
    batch come out with one value per point (see Trajectory.batch_state).
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
        object.__setattr__(self, "time", scalar_or_array(time))

    def position(self) -> FourVector:
        """Spacetime point of the state (upper-index components)."""
        return FORMS[self.form].position(self.time, self.q)

    def four_momentum(self, bg) -> np.ndarray:
        """Lower-index (p0, p1, p2, p3), reconstructed on shell where the
        form eliminates a component."""
        return FORMS[self.form].momentum(self, bg)

    def xdot(self) -> FourVector:
        if self.form != "covariant":
            raise ValueError("xdot is defined for the covariant form only")
        return FourVector(*self.p)

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


def covariant_state(x: FourVector, xdot: FourVector, tau: float = 0.0,
                    require_unit: bool = True) -> PhaseSpaceState:
    n2 = xdot.norm2()
    if require_unit and abs(n2 - 1.0) > 1e-8:
        raise ValueError(f"xdot.xdot = {n2:.3e} must equal 1 for a covariant state")
    return PhaseSpaceState("covariant", tau, x.as_array(), xdot.as_array())


def _any(cond) -> bool:
    """True if a condition holds at a point or at any point of a batch
    (np.any would cost microseconds on the single-point path)."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def hamiltonian_instant(state: PhaseSpaceState, bg):
    """Positive root H = sqrt(p.p + m^2(t, x))."""
    m2 = bg.m2(state.position())
    return scalar_or_array(np.sqrt(contract(state.p, state.p) + m2))


def hamiltonian_front(state: PhaseSpaceState, bg):
    """H = p+ on shell = (p_perp.p_perp + m^2)/(4 p-)."""
    pminus = state.p[0]
    if _any(pminus == 0.0):
        raise SingularityError("front-form Hamiltonian undefined at p- = 0")
    m2 = bg.m2(state.position())
    pp = state.p[1] ** 2 + state.p[2] ** 2
    return scalar_or_array((pp + m2) / (4.0 * pminus))


def hamiltonian_extended(state: PhaseSpaceState, bg):
    """K = (p_perp.p_perp + m^2(x))/(4 p-) - p+; vanishes on shell."""
    pplus, pminus = state.p[0], state.p[1]
    if _any(pminus == 0.0):
        raise SingularityError("extended Hamiltonian undefined at p- = 0")
    m2 = bg.m2(state.position())
    pp = state.p[2] ** 2 + state.p[3] ** 2
    return scalar_or_array((pp + m2) / (4.0 * pminus) - pplus)


def hamiltonian_nonrel(state: PhaseSpaceState, bg):
    """Nonrelativistic reduction H = p.p/(2 m) + m of the instant form."""
    m = bg.mass(state.position())
    return scalar_or_array(contract(state.p, state.p) / (2.0 * m) + m)


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def _value_fn(f) -> Callable:
    return f.func if hasattr(f, "func") else f


def _fd_partials(f, state: PhaseSpaceState, bg, h_scale: float):
    fn = _value_fn(f)
    nq, npp = state.q.size, state.p.size
    dq = np.zeros(nq)
    dp = np.zeros(npp)
    for k in range(nq):
        h = h_scale * max(1.0, abs(state.q[k]))
        qp, qm = state.q.copy(), state.q.copy()
        qp[k] += h
        qm[k] -= h
        dq[k] = (fn(state.replace(q=qp), bg) - fn(state.replace(q=qm), bg)) / (2 * h)
    for k in range(npp):
        h = h_scale * max(1.0, abs(state.p[k]))
        pp_, pm = state.p.copy(), state.p.copy()
        pp_[k] += h
        pm[k] -= h
        dp[k] = (fn(state.replace(p=pp_), bg) - fn(state.replace(p=pm), bg)) / (2 * h)
    return dq, dp


def quantity_partials(f, state: PhaseSpaceState, bg, h_scale: float = 1e-6):
    """(dQ/dq, dQ/dp) of a quantity at a state: closed form when the quantity
    provides it, second-order central differences otherwise."""
    pf = getattr(f, "partials", None)
    if pf is not None:
        return pf(state, bg)
    return _fd_partials(f, state, bg, h_scale)


def poisson_bracket(f, g, state: PhaseSpaceState, bg, h_scale: float = 1e-6) -> float:
    """{f, g} = df/dq.dg/dp - df/dp.dg/dq over the canonical pairs of the
    state's form (pairs are matched by position in q and p; the extended form
    includes the (x+, p+) pair)."""
    if not FORMS[state.form].canonical:
        raise ValueError(f"the {state.form} form carries no canonical bracket here")
    dqf, dpf = quantity_partials(f, state, bg, h_scale)
    dqg, dpg = quantity_partials(g, state, bg, h_scale)
    return float(dqf @ dpg - dpf @ dqg)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _rhs_instant(bg, nonrel: bool):
    position = FORMS["instant"].position

    def rhs(t, y):
        pos = position(t, y)
        p = y[3:6]
        m2, g = bg.m2_and_grad(pos)
        gs = np.array(g[1:4])
        if nonrel:
            m = np.sqrt(m2)
            fac = (1.0 - (p @ p) / (2.0 * m2)) / (2.0 * m)
            return np.concatenate([-p / m, gs * fac])
        H = np.sqrt(p @ p + m2)
        return np.concatenate([-p / H, gs / (2.0 * H)])
    return rhs


def _rhs_lightfront(bg, extended: bool):
    """Front and extended flows.  The front form is the extended form with x+
    as its time: it drops dx+/ds = 1 and the p+ equation, and both end their
    y with (p-, p1, p2).  The light-front partials of m^2 are
    d/dx+- = (g0 +- g3)/2 and d/dx1,2 = g1,2 (geometry.lf_gradient)."""
    position = FORMS["extended" if extended else "front"].position

    def rhs(t, y):
        pos = position(t, y)
        pminus, p1, p2 = y[-3], y[-2], y[-1]
        m2, (g0, g1, g2, g3) = bg.m2_and_grad(pos)
        pp = p1 * p1 + p2 * p2
        w = 4.0 * pminus
        flow = ((pp + m2) / (4.0 * pminus ** 2), -p1 / (2.0 * pminus),
                -p2 / (2.0 * pminus), 0.5 * (g0 - g3) / w, g1 / w, g2 / w)
        if extended:
            return np.array((1.0, *flow[:3], 0.5 * (g0 + g3) / w, *flow[3:]))
        return np.array(flow)
    return rhs


def _rhs_covariant(bg):
    position = FORMS["covariant"].position

    def rhs(tau, y):
        pos = position(tau, y)
        u = y[4:8]
        m2, g = bg.m2_and_grad(pos)
        g = np.array(g)
        gu = raise_index(g)
        udot = (gu - u * float(u @ g)) / (2.0 * m2)
        return np.concatenate([u, udot])
    return rhs


def _make_rhs(form: str, bg, nonrel: bool):
    if form == "instant":
        return _rhs_instant(bg, nonrel)
    if nonrel:
        raise ValueError("the nonrelativistic flow applies to the instant form")
    if form == "covariant":
        return _rhs_covariant(bg)
    return _rhs_lightfront(bg, form == "extended")


@dataclass
class EvolveOptions:
    rtol: float = 1e-10
    atol: float = 1e-10
    method: str = "rk45"           # "rk45" (adaptive 5(4)) or "rk4" (fixed step)
    step: Optional[float] = None   # fixed step for rk4
    samples: int = 400
    max_step: float = np.inf
    events: bool = True
    nonrelativistic: bool = False
    max_segments: int = 64


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

    def state(self, i: int) -> PhaseSpaceState:
        return PhaseSpaceState(self.form, self.times[i], self.q[i], self.p[i])

    def batch_state(self) -> PhaseSpaceState:
        """All samples as one component-first batch state (q, p of shape
        (n, N)); point i holds the same numbers as state(i)."""
        return PhaseSpaceState(self.form, self.times, self.q.T, self.p.T)

    def states(self):
        return [self.state(i) for i in range(len(self))]

    def column_names(self):
        form = FORMS[self.form]
        return form.time_name, list(form.q_names), list(form.p_names)

    def to_csv(self, path):
        tname, qn, pn = self.column_names()
        labels = list(self.quantities)
        rows = np.column_stack([self.times, self.q, self.p]
                               + [self.quantities[l] for l in labels])
        row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join([tname] + qn + pn + labels) + "\n")
            fh.write("".join(row_fmt % tuple(row) for row in rows.tolist()))

    def to_json(self, path):
        tname, qn, pn = self.column_names()
        doc = {
            "form": self.form,
            "background": self.background,
            "nonrelativistic": self.nonrelativistic,
            "columns": [tname] + qn + pn,
            "samples": [[self.times[i]] + list(map(float, self.q[i]))
                        + list(map(float, self.p[i])) for i in range(len(self))],
            "quantities": {k: list(map(float, v)) for k, v in self.quantities.items()},
            "drifts": {k: float(v) for k, v in self.drifts.items()},
            "events": [[name, float(t)] for name, t in self.events_log],
            "stats": self.stats,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


def monitor(traj: Trajectory, quantities: Sequence, bg):
    """Evaluate quantities along a trajectory's samples; returns (values,
    drifts) where drift = max_t |Q(t) - Q(0)| / max(1, |Q(0)|).  Pure: the
    report only depends on the stored samples.

    Each quantity is called once, on the whole trajectory as a batch state
    (Trajectory.batch_state), and must return one value per sample."""
    values = {}
    drifts = {}
    batch = traj.batch_state()
    for quant in quantities:
        fn = _value_fn(quant)
        lab = getattr(quant, "label", getattr(quant, "__name__", "Q"))
        vals = np.asarray(fn(batch, bg), dtype=float)
        if vals.shape != (len(traj),):
            raise ValueError(f"quantity {lab!r} returned shape {vals.shape} "
                             f"for a batch of {len(traj)} samples")
        values[lab] = vals
        drifts[lab] = float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
    return values, drifts


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evolve_rk4(state0, bg, span, opts, rhs, grid):
    if opts.step is None:
        raise ValueError("fixed-step integration needs opts.step")
    if bg.events and opts.events:
        raise ValueError("the fixed-step integrator does not locate events; "
                         "disable them or use the adaptive method")
    t0, t1 = span
    ts = [t0]
    ys = [np.asarray(np.concatenate([state0.q, state0.p]), float)]
    t, y = t0, ys[0]
    nsteps = int(np.ceil((t1 - t0) / opts.step))
    h = (t1 - t0) / nsteps
    for _ in range(nsteps):
        y = _rk4_step(rhs, t, y, h)
        t = t + h
        ts.append(t)
        ys.append(y)
    ts = np.asarray(ts)
    ys = np.asarray(ys)
    # subsample onto the requested grid by nearest step time
    idx = np.searchsorted(ts, grid)
    idx = np.clip(idx, 0, ts.size - 1)
    return ts[idx], ys[idx], {"nfev": 4 * nsteps, "segments": 1}, []


def starts_at(state: PhaseSpaceState, t0: float) -> bool:
    """Whether the state's time is the span start t0, to rounding."""
    return abs(state.time - t0) <= 1e-12 * max(1.0, abs(t0))


def evolve(state0: PhaseSpaceState, bg, span, opts: Optional[EvolveOptions] = None,
           monitors: Sequence = ()) -> Trajectory:
    """Integrate the state's form of dynamics over span = (t0, t1).

    Switch surfaces declared by the background terminate the step, are located
    by bisection, and the integration restarts on the far side, so C0 kinks
    never sit inside an accepted step.  A sign change of p- (front/extended)
    raises SingularityError; sampling m^2 < 0 raises RealityError from the
    background itself.
    """
    opts = opts or EvolveOptions()
    t0, t1 = float(span[0]), float(span[1])
    if t1 <= t0:
        raise ValueError("span must run forward")
    if not starts_at(state0, t0):
        raise ValueError("state0.time must equal span[0]")
    rhs = _make_rhs(state0.form, bg, opts.nonrelativistic)
    grid = np.linspace(t0, t1, opts.samples)

    if opts.method == "rk4":
        times, ys, stats, elog = _evolve_rk4(state0, bg, span, opts, rhs, grid)
    elif opts.method == "rk45":
        times, ys, stats, elog = _evolve_rk45(state0, bg, (t0, t1), opts, rhs, grid)
    else:
        raise ValueError(f"unknown method {opts.method!r}")

    n = FORMS[state0.form].dof
    traj = Trajectory(form=state0.form, times=np.asarray(times),
                      q=ys[:, :n], p=ys[:, n:],
                      background=bg.label, events_log=elog, stats=stats,
                      nonrelativistic=opts.nonrelativistic)
    if monitors:
        traj.quantities, traj.drifts = monitor(traj, monitors, bg)
    return traj


def _evolve_rk45(state0, bg, span, opts, rhs, grid):
    t0, t1 = span
    span_len = t1 - t0
    nudge = 1e-12 * span_len

    form = FORMS[state0.form]
    surface_events = []
    if opts.events:
        for name, fn in bg.events:
            def ev(t, y, _fn=fn):
                return _fn(form.position(t, y))
            ev.terminal = True
            surface_events.append((name, ev))

    guard_events = []
    if form.pminus is not None:
        def pminus_guard(t, y, _i=form.dof + form.pminus):
            return y[_i]
        pminus_guard.terminal = True
        guard_events.append(("p-=0", pminus_guard))

    all_events = surface_events + guard_events
    ev_fns = [e for _, e in all_events]

    times = [t0]
    ys = [np.asarray(np.concatenate([state0.q, state0.p]), float)]
    t, y = t0, ys[0]
    elog = []
    nfev = 0
    segments = 0

    while t < t1 - 1e-14 * span_len:
        # step off a switch surface so the event does not refire at the start
        on_surface = any(abs(fn(t, y)) < 1e-13 * max(1.0, span_len)
                         for _, fn in all_events)
        if on_surface:
            y = _rk4_step(rhs, t, y, nudge)
            t = t + nudge
            nfev += 4
        seg_grid = grid[(grid > t + 1e-14 * span_len) & (grid <= t1)]
        t_eval = np.concatenate([[t], seg_grid]) if seg_grid.size else np.array([t, t1])
        sol = solve_ivp(rhs, (t, t1), y, method="RK45", rtol=opts.rtol,
                        atol=opts.atol, max_step=opts.max_step,
                        t_eval=t_eval, events=ev_fns, dense_output=False)
        nfev += sol.nfev
        segments += 1
        if segments > opts.max_segments:
            raise SingularityError("too many event restarts; flow appears stuck "
                                   "on a switch surface")
        keep = sol.t > times[-1] + 1e-14 * max(1.0, span_len)
        for ti, yi in zip(sol.t[keep], sol.y[:, keep].T):
            times.append(ti)
            ys.append(yi)
        if sol.status == 1:  # terminated by an event
            hit = [i for i, te in enumerate(sol.t_events) if te.size > 0]
            i0 = hit[int(np.argmin([sol.t_events[i][0] for i in hit]))]
            name = all_events[i0][0]
            te = float(sol.t_events[i0][0])
            ye = sol.y_events[i0][0]
            if i0 >= len(surface_events):
                raise SingularityError(
                    f"guard {name} crossed at parameter {te:g}; the flow left "
                    "its regular region")
            elog.append((name, te))
            if te > times[-1] + 1e-14 * max(1.0, span_len):
                times.append(te)
                ys.append(ye)
            t, y = te, ye
        elif sol.status == 0:
            t = t1
            if times[-1] < t1 - 1e-14 * span_len:
                times.append(sol.t[-1])
                ys.append(sol.y[:, -1])
            break
        else:
            raise SingularityError(f"integration failed: {sol.message}")

    stats = {"nfev": int(nfev), "segments": int(segments),
             "event_crossings": len(elog)}
    return np.asarray(times), np.asarray(ys), stats, elog


def evolve_covariant(x0: FourVector, xdot0: FourVector, bg, span,
                     opts: Optional[EvolveOptions] = None,
                     monitors: Sequence = ()) -> Trajectory:
    """Covariant flow from initial position and unit four-velocity."""
    st = covariant_state(x0, xdot0, tau=float(span[0]))
    return evolve(st, bg, span, opts, monitors)


# ---------------------------------------------------------------------------
# form conversions
# ---------------------------------------------------------------------------

def instant_to_covariant(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "instant":
        raise ValueError("expected an instant-form state")
    p4 = state.four_momentum(bg)
    m = bg.mass(state.position())
    u = raise_index(p4) / m
    return covariant_state(state.position(), FourVector.from_array(u), tau=0.0)


def covariant_to_instant(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "covariant":
        raise ValueError("expected a covariant state")
    p4 = state.four_momentum(bg)
    x = state.position()
    return instant_state(x.t, [x.x, x.y, x.z], p4[1:4])


def instant_to_front(state: PhaseSpaceState, bg) -> PhaseSpaceState:
    if state.form != "instant":
        raise ValueError("expected an instant-form state")
    x = state.position()
    p4 = state.four_momentum(bg)
    pplus, pminus = 0.5 * (p4[0] + p4[3]), 0.5 * (p4[0] - p4[3])
    return front_state(x.xplus, x.xminus, [x.x, x.y], pminus, p4[1:3])


def front_to_extended(state: PhaseSpaceState, bg, s: float = 0.0) -> PhaseSpaceState:
    if state.form != "front":
        raise ValueError("expected a front-form state")
    return extended_state_on_shell(bg, state.time, state.q[0], state.q[1:3],
                                   state.p[0], state.p[1:3], s=s)
