"""Exact Klein-Gordon solutions in scalar backgrounds and their verification.

The wave equation is (d^2 + m^2(x)) phi = 0 with d^2 the d'Alembertian of
signature (+,-,-,-).  Each conformal symmetry of the background lifts to the
operator L = xi.grad + (1/4)(div xi), and solutions are built as L
eigenvectors, L phi = -i Q phi, which reduces the PDE to an ODE per imposed
eigenvalue.  Everything here is verified numerically:

* kg_residual      central-difference (d^2 + m^2) phi, O(h^2) or O(h^4)
* symmetry_apply   L phi by central differences plus the closed-form
                   divergence
* eigen_defect     max |L phi + i Q phi| / max |phi| over sample points, for
                   each mode's params["eigen"] (generator, Q, label) triples
* phase_gradient   d_mu of the phase of phi = exp(-i S); along a classical
                   orbit this must reproduce the canonical momenta
                   (Hamilton-Jacobi)

Points are batches: a FourVector with (N,) components, one point the batch
of one.  A read (read_stencils) calls phi once, on the stencils of the N
points at once, and holds no step; the stencils above are arithmetic on a
read, at a step given to each.  One read on {0, +-h/2, +-h} per axis serves
residual_convergence and, through its first rows, eigen_defect at h and h/2.

Solution families: the plane-wave mode (phase integral of the dynamical
mass over x+), the inverse-square conformal mode, and the dilation mode
built from Bessel functions of imaginary argument, beside the off-shell
plane wave that controls their checks.  Phase-integral lower limits are
fixed at 0; any other choice rescales phi by a constant, which the wave
equation cannot see.

The dilation mode's Bessel pair at y = |Q_perp| v takes no scipy: for a
real order alpha, J_{+-alpha}(-i y) = e^{-+i pi alpha/2} I_{+-alpha}(y)
(DLMF 10.27.6), Y_alpha = (J_alpha cos(pi alpha) - J_{-alpha}) /
sin(pi alpha) (10.2.3) and I_{+-alpha} is its power series (10.25.2),
summed in order over the batch.  Orders within 1/32 of an integer and
complex orders go through mpmath, value by value (_bessel_pair).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import conformal
from .errors import DomainError, SingularityError
from .geometry import FourVector, central_difference
from .jsonio import write_csv
# quad stays importable from here; perfbench/bench_trace.py wraps it
from .ode import quad  # noqa: F401

_EPS = 1e-30


@dataclass
class Wavefunction:
    """Complex scalar field with a declared domain.

    evaluator: FourVector with (N,) components -> (N,) complex values;
    domain: FourVector -> bool, elementwise on a batch (True on the open set
    where the evaluator is finite and smooth); params records the
    eigenvalues and constants that built the solution, and params["eigen"]
    the (generator, Q, label) triples with L phi = -i Q phi.

    phi(x) takes a FourVector with (N,) components and gives an (N,)
    array.  A read calls phi once, on all of its stencils' points."""

    label: str
    evaluator: Callable = field(repr=False)
    domain: Callable = field(default=lambda x: True, repr=False)
    params: dict = field(default_factory=dict)

    def __call__(self, x: FourVector):
        return self.evaluator(x)

    def in_domain(self, x: FourVector):
        """The (N,) mask of the points of x that lie in the domain."""
        return np.broadcast_to(self.domain(x), np.shape(x.t))


def _modulus(z):
    # |z| by hypot, as abs() of one complex takes it: numpy's complex abs
    # rounds apart from it on about a third of arrays' values
    return np.hypot(z.real, z.imag)


def _at(x: FourVector, i: int) -> str:
    return f"(t,x,y,z) = ({x.t[i]:g}, {x.x[i]:g}, {x.y[i]:g}, {x.z[i]:g})"


def _offsets(steps: int) -> list:
    """(mu, k) of the axis neighbours x + k h e_mu, 0 < |k| <= steps, by axis,
    then step, then sign."""
    return [(mu, s) for mu in range(4) for k in range(1, steps + 1) for s in (k, -k)]


def _stencil(x: FourVector, h: float, offsets) -> FourVector:
    """Each point of the batch x followed by its neighbours x + k h e_mu,
    (mu, k) in offsets: N (1 + len(offsets)) points, point by point.  A
    neighbour adds k h to one coordinate, as FourVector.shifted does."""
    comps = np.repeat(np.array([x.t, x.x, x.y, x.z])[:, :, None],
                      1 + len(offsets), axis=2)
    for j, (mu, k) in enumerate(offsets, 1):
        comps[mu, :, j] += k * h
    return FourVector(*comps.reshape(4, -1))


def _margin(phi: Wavefunction, x: FourVector, h: float, steps: int, bg) -> tuple:
    """The masks a read's margin check raises from: (ys, inside, touches,
    across, failing), ys the stencils of half-width steps h about the batch
    x, inside the (N, 1 + 8 steps) mask of their points in phi's domain
    (column 0 the x themselves), across the (N, 8 steps) mask of the
    neighbours on or across a switch surface of bg (none if bg is None)
    from their x, touches the (N,) mask of the x on one, and failing that
    of the x that fail a check on their neighbours or touch a surface."""
    offsets = _offsets(steps)
    ys = _stencil(x, h, offsets)
    shape = (len(x.t), 1 + len(offsets))
    inside = phi.in_domain(ys).reshape(shape)
    touches, across = np.zeros(shape[0], bool), np.zeros((shape[0], len(offsets)), bool)
    if bg is not None:
        touches = ~bg.smooth_at(x)
        for _, fn in bg.events:
            v = fn(ys.t, ys.x, ys.y, ys.z).reshape(shape)
            across |= (v[:, 1:] == 0.0) | ((v[:, 1:] > 0.0) != (v[:, :1] > 0.0))
    failing = ~inside[:, 1:].all(axis=1) | touches | across.any(axis=1)
    return ys, inside, touches, across, failing


def clear_points(phi: Wavefunction, bg, x: FourVector, h: float):
    """The (N,) mask of the points of the batch x in phi's domain that a
    read with bg at step h accepts (its 2 h margin stencil).  That stencil
    holds the read at h/2 of two steps on the same axis segments, so on
    planar switch surfaces and convex domains that read accepts them too."""
    _, inside, *_, failing = _margin(phi, x, h, 2, bg)
    return inside[:, 0] & ~failing


def read_stencils(phi: Wavefunction, bg, x: FourVector, h: float,
                  steps: int) -> tuple:
    """One read of phi about the batch x: the plain tuple (x, phi(x),
    {(mu, k h): phi(x + k h e_mu)}) for 0 < |k| <= steps, each value an
    (N,) array, from one call of phi.  First each margin stencil must stay
    in phi's domain; with bg, the wave operator's check, the margin is 2 h
    whatever steps is, and no x may touch a switch surface of bg nor any
    point of its margin stencil reach one.  The first point that fails
    raises DomainError naming its first stencil point out of phi's domain
    (by axis, step and sign), else its touch, else its first stencil point
    on or across a surface: the error a loop over the points would meet
    first.  phi is read on the margin stencil itself where the read's steps
    are the margin's.  Row i depends on point i alone (see first_rows)."""
    margin = steps if bg is None else 2
    ys, inside, touches, across, failing = _margin(phi, x, h, margin, bg)
    # the first failing point, or point 0 when none fails
    i = int(failing.argmax())
    width = inside.shape[1]
    if not inside[i, 1:].all():
        j = i * width + 1 + int(inside[i, 1:].argmin())
        raise DomainError(f"stencil point {_at(ys, j)} leaves the domain of "
                          f"{phi.label!r}")
    if touches[i]:
        raise DomainError(f"{_at(x, i)} touches a switch surface of background "
                          f"{bg.label!r}")
    if across[i].any():
        j = i * width + 1 + int(across[i].argmax())
        raise DomainError(f"stencil point {_at(ys, j)} of {_at(x, i)} lies on or "
                          f"across a switch surface of background {bg.label!r}")
    offsets = _offsets(steps)
    if steps != margin:
        ys = _stencil(x, h, offsets)
    values = phi(ys).reshape(len(x.t), 1 + len(offsets))
    return x, values[:, 0], {(mu, k * h): values[:, j]
                             for j, (mu, k) in enumerate(offsets, 1)}


def first_rows(read, n: int) -> tuple:
    """The read of the first n points of a read."""
    x, f0, at = read
    return (FourVector(x.t[:n], x.x[:n], x.y[:n], x.z[:n]), f0[:n],
            {key: values[:n] for key, values in at.items()})


def _box(read, m2, h: float, order: int):
    """(d^2 + m^2) phi at step h from a read and its points' m^2."""
    _, f0, at = read
    box = 0.0 + 0.0j
    for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0)):
        box += sign * central_difference(lambda s: at[mu, s], h, 2, order, f0)
    return box + m2 * f0


def _symmetry(gen: conformal.ConformalGenerator, read, h: float):
    """L phi at step h from a read holding +-h."""
    x, f0, at = read
    xi = gen.killing(x)
    out = 0.25 * gen.divergence(x) * f0
    for mu in range(4):
        out += xi[mu] * central_difference(lambda s: at[mu, s], h, 1, 2)
    return out


# tests and tests/oracles.py call it; order=4 is for the steep profiles of ROADMAP item 13
def kg_residual(phi: Wavefunction, bg, x: FourVector, h: float,
                order: int = 2):
    """(d^2 + m^2) phi by central differences, per point of the batch x:
    an (N,) array.

    order=2 uses the 3-point second derivative per axis (error O(h^2)),
    order=4 the 5-point one (O(h^4)) for steep profiles; phi is read once,
    on the 1 + 8 (order 4: 1 + 16) stencil points of every point.  Each
    stencil must stay inside phi's domain and each x in the smooth region
    of bg.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    return _box(read_stencils(phi, bg, x, h, order // 2), bg.m2(x), h, order)


# no command calls this; tests and tests/oracles.py do
def symmetry_apply(gen: conformal.ConformalGenerator, phi: Wavefunction, x: FourVector,
                   h: float):
    """(L phi)(x) = xi^mu d_mu phi + (1/4)(div xi) phi, the gradient by
    central differences from one read of phi on the 1 + 8 stencil points,
    the divergence in closed form; an (N,) array, per point of the batch
    x."""
    return _symmetry(gen, read_stencils(phi, None, x, h, 1), h)


def eigen_defect(gen: conformal.ConformalGenerator, Q: complex, read, h: float) -> float:
    """max_x |L phi + i Q phi| / max_x |phi| over the points of a read
    holding +-h, L phi at step h; zero (to O(h^2)) exactly when phi is an L
    eigenvector with eigenvalue Q.  A NaN drops out of either maximum."""
    Lphi, v = _symmetry(gen, read, h), read[1]
    num = np.fmax.reduce(_modulus(Lphi + 1j * Q * v), initial=0.0)
    return float(num / np.fmax.reduce(_modulus(v), initial=_EPS))


# no command calls this yet; tests do, and checking each mode's phase against
# the classical orbit's momenta (Hamilton-Jacobi) along the orbit will
def phase_gradient(phi: Wavefunction, x: FourVector, h: float) -> np.ndarray:
    """d_mu S for phi = exp(-i S): the lower-index phase gradient, computed
    from the argument of phi(x+h)/phi(x-h), of shape (4, N) for the batch
    x.  Valid while |S| varies by less than pi across the stencil."""
    at = read_stencils(phi, None, x, h, 1)[2]
    return np.array([-np.angle(at[mu, h] / at[mu, -h]) / (2.0 * h) for mu in range(4)])


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

def make_planewave_solution(qperp, qminus: float, bg) -> Wavefunction:
    """Mode of m^2 = m^2(x+):

        phi = exp(-i Q_perp.x_perp - i Q- x- - i int_0^{x+} ds
                  (Q_perp^2 + m^2(s))/(4 Q-)).

    Exact for any profile with an integrable m^2; reduces to exp(-i p.x) for
    a constant mass."""
    q1, q2 = float(qperp[0]), float(qperp[1])
    qm = float(qminus)
    if qm == 0.0:
        raise ValueError("Q- must be nonzero")
    qp2 = q1 * q1 + q2 * q2

    def chi(xplus):
        # the reduced x+ profile: solves 4i Q- chi' = (Q_perp^2 + m^2) chi
        return np.exp(-1j * (qp2 * xplus + bg.m2_integral(xplus)) / (4.0 * qm))

    def ev(x: FourVector):
        return np.exp(-1j * (q1 * x.x + q2 * x.y + qm * x.xminus)) * chi(x.xplus)

    eigen = [(conformal.translation_axis(1), q1, "P1"),
             (conformal.translation_axis(2), q2, "P2"),
             (conformal.translation_xminus(), qm, "P-")]
    return Wavefunction("planewave_mode", ev, params={
        "Qperp": (q1, q2), "Qminus": qm, "chi": chi, "eigen": eigen})


def make_conformal_solution(qperp, q3: float, bg) -> Wavefunction:
    """Eigenmode of the special conformal charge on m^2 = f(u)/(x+)^2:

        phi = (1/x+) exp(-i (Q3 + Q_perp.x_perp)/x+
                         + i int_0^u ds (Q_perp^2 + f(s))/(4 Q3)),

    with u = x- - x_perp.x_perp/x+, on the branch x+ > 0.  The integral is
    Q_perp^2 u + F(u), F(u) = int_0^u f the antiderivative in bg.profile,
    read once on a batch's (N,) array of u."""
    q1, q2 = float(qperp[0]), float(qperp[1])
    qc = float(q3)
    if qc == 0.0:
        raise ValueError("Q3 must be nonzero")
    qp2 = q1 * q1 + q2 * q2
    _, F = bg.profile

    def g(u):
        # solves 4i Q3 g' + (Q_perp^2 + f) g = 0
        return np.exp(1j * (qp2 * u + F(u)) / (4.0 * qc))

    def ev(x: FourVector):
        xp = x.xplus
        off = xp <= 0.0
        if off.any():
            raise SingularityError(f"x+ = {xp[off.argmax()]:g} outside the x+ > 0 "
                                   "branch")
        u = x.xminus - (x.x * x.x + x.y * x.y) / xp
        return np.exp(-1j * (qc + q1 * x.x + q2 * x.y) / xp) / xp * g(u)

    eigen = [(conformal.special_conformal_lf(), qc, "C-"),
             (conformal.null_rotation_t(1), q1, "T1"),
             (conformal.null_rotation_t(2), q2, "T2")]
    return Wavefunction("conformal_mode", ev, domain=lambda x: x.xplus > 1e-6,
                        params={"Qperp": (q1, q2), "Q3": qc, "g": g, "eigen": eigen})


def _power(w: float, a: float) -> float:
    """w^a by math.pow, inf where it overflows or has a pole."""
    try:
        return math.pow(w, a)
    except (OverflowError, ValueError):
        return math.inf


def _gamma(x: float) -> float:
    """Gamma(x) by math.gamma, inf where it overflows."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _bessel_i(a: float, y) -> np.ndarray:
    """The (2, N) rows I_a(y), I_{-a}(y) for the (N,) array y >= 0 and a real
    order a that is no integer: I_{+-a}(y) = (y/2)^{+-a} / Gamma(1 +- a)
    sum_k t_k, t_0 = 1 and t_k = t_{k-1} (y^2/4) / (k (k +- a)) (DLMF
    10.25.2).  The terms are added in order over the whole batch until every
    term is 0, or until, at every value whose sum S is finite, k > |a|, y^2/4
    < k (k - |a|) and |t_k| < 2^-54 |S|: from there on the terms are 0 or
    shrink below half an ulp of S, so no later term moves any sum and each
    value keeps the bits of its batch of one.  An overflowing sum or power
    leaves inf (or NaN), for the caller to report."""
    signed = np.array([[a], [-a]])
    t = np.ones((2, len(y)))
    s = t.copy()
    k = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = 0.25 * (y * y)
        while True:
            k += 1
            t *= q
            t /= k * (k + signed)
            s += t
            # a zero term keeps every later one 0; |t_k / S| is NaN or 0
            # where S is not finite
            if not t.any() or (
                    k > abs(a) and not (np.abs(t / s) >= 2.0 ** -54).any()
                    and not ((q >= k * (k - abs(a))) & np.isfinite(s)).any()):
                break
        halves = (0.5 * y).tolist()
        powers = np.fromiter(map(_power, halves + halves, [a] * len(y) + [-a] * len(y)),
                             float, 2 * len(y)).reshape(2, -1)
        return s * (powers / np.array([[_gamma(1.0 + a)], [_gamma(1.0 - a)]]))


def _bessel_pair(alpha: complex, y):
    """J_alpha(-i y), Y_alpha(-i y) for the (N,) array y >= 0.

    A real order alpha more than 1/32 from an integer is read off the
    power series of I_{+-alpha}(y) (_bessel_i) over the whole array by
    J_alpha(-i y) = e^{-i pi alpha/2} I_alpha(y), J_{-alpha}(-i y) =
    e^{i pi alpha/2} I_{-alpha}(y) (DLMF 10.27.6) and Y_alpha = (J_alpha
    cos(pi alpha) - J_{-alpha}) / sin(pi alpha) (10.2.3), the phase
    constants taken once.  Orders nearer an integer, where 1/|sin(pi
    alpha)| exceeds 10 and Gamma(1 - alpha) has poles, and complex orders
    go through mpmath, value by value."""
    a = float(np.real(alpha))
    if np.imag(alpha) == 0.0 and abs(a - round(a)) >= 1.0 / 32.0:
        half = 0.5 * math.pi * a
        phase = complex(math.cos(half), -math.sin(half))
        plus, minus = _bessel_i(a, y)
        J = phase * plus
        with np.errstate(invalid="ignore"):     # inf - inf; reported by the caller
            Y = ((J * math.cos(math.pi * a) - phase.conjugate() * minus)
                 / math.sin(math.pi * a))
        return J, Y
    import mpmath
    aa = mpmath.mpc(alpha)
    zs = [mpmath.mpc(0.0, -w) for w in y.tolist()]
    try:
        return tuple(np.array([complex(fn(aa, w)) for w in zs])
                     for fn in (mpmath.besselj, mpmath.bessely))
    except (ArithmeticError, ValueError, mpmath.libmp.NoConvergence) as exc:
        raise DomainError(f"mpmath cannot evaluate the Bessel pair of order "
                          f"{alpha:g} ({type(exc).__name__})") from None


def make_dilation_solution(qperp, q3: float, csq: float, c1: complex,
                           c2: complex) -> Wavefunction:
    """Dilation eigenmode on m^2 = csq/(x.x), inside the forward light cone:

        phi = (x+)^{-(1+i Q3)} v^{-i Q3} exp(-i Q_perp.x_perp / x+) y(v),
        v = sqrt(x.x)/x+,
        y(v) = c1 J_alpha(-i |Q_perp| v) + c2 Y_alpha(-i |Q_perp| v),
        alpha = sqrt(csq - Q3^2),

    the radial factor solving v^2 y'' + v y' - (Q_perp^2 v^2 + csq - Q3^2) y
    = 0.  For Q_perp = 0 this degenerates to the Euler equation and y is the
    power-law pair c1 v^alpha + c2 v^{-alpha}.  alpha is imaginary when
    csq < Q3^2 (complex-order evaluation).  The branch cut of the complex
    powers lies on the negative real axis, which v = sqrt(x.x)/x+ > 0 never
    touches."""
    q1, q2 = float(qperp[0]), float(qperp[1])
    if csq < 0.0:
        raise ValueError("csq must be nonnegative")
    qc = float(q3)
    qnorm = float(np.hypot(q1, q2))
    alpha = complex(np.sqrt(complex(csq - qc * qc)))
    if not np.isfinite(alpha):
        raise ValueError(f"the order sqrt(csq - Q3^2) = {alpha} is not finite")

    def y_of(v):
        if qnorm == 0.0:
            what = "power law c1 v^alpha + c2 v^-alpha"
            with np.errstate(over="ignore", invalid="ignore"):   # reported below
                out = c1 * v ** alpha + c2 * v ** (-alpha)
        else:
            what = "Bessel evaluation"
            y = qnorm * v
            tiny = (y > 0.0) & (y < sys.float_info.min)
            if tiny.any():
                raise DomainError(f"Bessel argument |Q_perp| v = {y[tiny.argmax()]:g} "
                                  f"is subnormal at v = {v[tiny.argmax()]:g}")
            J, Y = _bessel_pair(alpha, y)
            with np.errstate(invalid="ignore"):    # 0 * inf; reported below
                out = c1 * J + c2 * Y
        overflow = ~np.isfinite(out)
        if overflow.any():
            raise DomainError(f"{what} overflowed at v = {v[overflow.argmax()]:g}")
        return out

    def ev(x: FourVector):
        xx = x.norm2()
        xp = x.xplus
        off = (xx <= 0.0) | (xp <= 0.0)
        if off.any():
            raise SingularityError(f"{_at(x, off.argmax())} is outside the "
                                   "forward light cone")
        v = np.sqrt(xx) / xp
        return (xp ** (-(1.0 + 1j * qc)) * v ** (-1j * qc)
                * np.exp(-1j * (q1 * x.x + q2 * x.y) / xp) * y_of(v))

    def dom(x: FourVector):
        return (x.norm2() > 1e-8) & (x.xplus > 1e-8)

    eigen = [(conformal.dilation(), qc, "D"), (conformal.null_rotation_t(1), q1, "T1"),
             (conformal.null_rotation_t(2), q2, "T2")]
    return Wavefunction("dilation_mode", ev, domain=dom,
                        params={"Qperp": (q1, q2), "Q3": qc, "csq": csq, "alpha": alpha,
                                "c1": c1, "c2": c2, "eigen": eigen})


def offshell_control(p) -> Wavefunction:
    """exp(-i p_mu x^mu), off shell: the control whose h-halving residual
    ratios plateau near 1 where a mode's approach 4."""
    p = np.asarray(p)
    return Wavefunction("offshell_control", lambda x: np.exp(
        -1j * (p[0] * x.t + p[1] * x.x + p[2] * x.y + p[3] * x.z)),
        params={"p": list(p)})


# ---------------------------------------------------------------------------
# convergence reporting
# ---------------------------------------------------------------------------

def residual_convergence(bg, read, h: float):
    """Normalized second-order KG residuals per point at h and h/2 from one
    read of the points at h/2 (read_stencils with bg, two steps: its +-h
    keys are 2 (h/2), which is h), with their ratio; m^2 is read once.

    Returns a list of rows (index, h, |res(h)|, |res(h/2)|, ratio), residuals
    normalized by max(|phi(x)|, eps).  The expected ratio is 4 for a true
    solution and ~1 for an off-shell control."""
    m2, f0 = bg.m2(read[0]), read[1]
    box, box2 = (_box(read, m2, s, 2) for s in (h, h / 2.0))
    scale = np.maximum(_modulus(f0), _EPS)
    r1 = _modulus(box) / scale
    r2 = _modulus(box2) / scale
    rows = zip(r1.tolist(), r2.tolist(), (r1 / np.maximum(r2, _EPS)).tolist())
    return [(i, h, *row) for i, row in enumerate(rows)]


# perfbench/bench_trace.py wraps it as the span kgverify.write
def write_convergence_csv(path, rows):
    write_csv(path, ("point", "h", "residual_h", "residual_h2", "ratio"), rows)
