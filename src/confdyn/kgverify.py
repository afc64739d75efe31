"""Exact Klein-Gordon solutions in scalar backgrounds and their verification.

The wave equation is (d^2 + m^2(x)) phi = 0 with d^2 the d'Alembertian of
signature (+,-,-,-).  Each conformal symmetry of the background lifts to the
operator L = xi.grad + (1/4)(div xi), and solutions are built as L
eigenvectors, L phi = -i Q phi, which reduces the PDE to an ODE per imposed
eigenvalue.  Everything here is verified numerically:

* kg_residual      central-difference (d^2 + m^2) phi, O(h^2) or O(h^4)
* symmetry_apply   L phi by central differences plus the closed-form
                   divergence
* eigen_defect     max |L phi + i Q phi| / max |phi| over sample points
* phase_gradient   d_mu of the phase of phi = exp(-i S); along a classical
                   orbit this must reproduce the canonical momenta
                   (Hamilton-Jacobi)

Solution families: the plane-wave mode (phase integral of the dynamical
mass over x+), the inverse-square conformal mode, and the dilation mode
built from Bessel functions of imaginary argument.  Phase-integral lower
limits are fixed at 0; any other choice rescales phi by a constant, which
the wave equation cannot see.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .conformal import ConformalGenerator
from .errors import DomainError, SingularityError
from .geometry import FourVector, central_difference
from .jsonio import write_csv
# quad stays importable from here; perfbench/bench_trace.py wraps it
from .ode import quad  # noqa: F401

_EPS = 1e-30
_PACK = struct.Struct("4d").pack   # a point's coordinates as their bit patterns


@dataclass
class Wavefunction:
    """Complex scalar field with a declared domain.

    evaluator: FourVector -> complex; domain: FourVector -> bool (True on the
    open set where the evaluator is finite and smooth); params records the
    eigenvalues and constants that built the solution.

    A call evaluates each point once: the stencils of kg_residual and
    eigen_defect share their points, so the value is kept, keyed by the bit
    patterns of the point's coordinates (0.0 and -0.0, equal as floats, are
    different points to the evaluator).  The evaluator must be a pure
    function of the point."""

    label: str
    evaluator: Callable = field(repr=False)
    domain: Callable = field(default=lambda x: True, repr=False)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self._values = {}

    def __call__(self, x: FourVector) -> complex:
        key = _PACK(x.t, x.x, x.y, x.z)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = complex(self.evaluator(x))
        return value

    def in_domain(self, x: FourVector) -> bool:
        return bool(self.domain(x))


def _require_margin(phi: Wavefunction, x: FourVector, h: float, steps: int):
    for mu in range(4):
        for k in range(1, steps + 1):
            for s in (k * h, -k * h):
                y = x.shifted(mu, s)
                if not phi.in_domain(y):
                    raise DomainError(
                        f"stencil point (t,x,y,z) = ({y.t:g}, {y.x:g}, "
                        f"{y.y:g}, {y.z:g}) leaves the domain of {phi.label!r}")


def kg_residual(phi: Wavefunction, bg, x: FourVector, h: float = 1e-3,
                order: int = 2) -> complex:
    """(d^2 + m^2) phi at x by central differences.

    order=2 uses the 3-point second derivative per axis (error O(h^2)),
    order=4 the 5-point one (O(h^4)) for steep profiles.  The stencil must
    stay inside phi's domain and x itself in the smooth region of bg.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    _require_margin(phi, x, h, 2)
    if not bg.smooth_at(x):
        raise DomainError(
            f"(t,x,y,z) = ({x.t:g}, {x.x:g}, {x.y:g}, {x.z:g}) touches a "
            f"switch surface of background {bg.label!r}")
    f0 = phi(x)
    box = 0.0 + 0.0j
    for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0)):
        box += sign * central_difference(lambda s: phi(x.shifted(mu, s)), h,
                                         2, order, f0)
    return box + bg.m2(x) * f0


def symmetry_apply(gen: ConformalGenerator, phi: Wavefunction, x: FourVector,
                   h: float = 1e-3) -> complex:
    """(L phi)(x) = xi^mu d_mu phi + (1/4)(div xi) phi, the gradient by
    central differences, the divergence in closed form."""
    _require_margin(phi, x, h, 1)
    xi = gen.killing(x)
    out = 0.25 * gen.divergence(x) * phi(x)
    for mu in range(4):
        out += xi[mu] * central_difference(lambda s: phi(x.shifted(mu, s)), h, 1, 2)
    return complex(out)


def eigen_defect(gen: ConformalGenerator, phi: Wavefunction, Q: complex,
                 points: Sequence[FourVector], h: float = 1e-3) -> float:
    """max_x |L phi + i Q phi| / max_x |phi| over the sample points; zero (to
    O(h^2)) exactly when phi is an L eigenvector with eigenvalue Q."""
    num = 0.0
    den = _EPS
    for x in points:
        v = phi(x)
        num = max(num, abs(symmetry_apply(gen, phi, x, h) + 1j * Q * v))
        den = max(den, abs(v))
    return num / den


# no command calls this yet; tests do, and checking each mode's phase against
# the classical orbit's momenta (Hamilton-Jacobi) along the orbit will
def phase_gradient(phi: Wavefunction, x: FourVector, h: float = 1e-3) -> np.ndarray:
    """d_mu S for phi = exp(-i S): the lower-index phase gradient, computed
    from the argument of phi(x+h)/phi(x-h).  Valid while |S| varies by less
    than pi across the stencil."""
    _require_margin(phi, x, h, 1)
    g = np.zeros(4)
    for mu in range(4):
        ratio = phi(x.shifted(mu, h)) / phi(x.shifted(mu, -h))
        g[mu] = -np.angle(ratio) / (2.0 * h)
    return g


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

    def chi(xplus: float) -> complex:
        # the reduced x+ profile: solves 4i Q- chi' = (Q_perp^2 + m^2) chi
        return np.exp(-1j * (qp2 * xplus + bg.m2_integral(xplus)) / (4.0 * qm))

    def ev(x: FourVector) -> complex:
        return np.exp(-1j * (q1 * x.x + q2 * x.y + qm * x.xminus)) * chi(x.xplus)

    return Wavefunction("planewave_mode", ev,
                        params={"Qperp": (q1, q2), "Qminus": qm, "chi": chi})


def make_conformal_solution(qperp, q3: float, bg) -> Wavefunction:
    """Eigenmode of the special conformal charge on m^2 = f(u)/(x+)^2:

        phi = (1/x+) exp(-i (Q3 + Q_perp.x_perp)/x+
                         + i int_0^u ds (Q_perp^2 + f(s))/(4 Q3)),

    with u = x- - x_perp.x_perp/x+, on the branch x+ > 0.  The integral is
    Q_perp^2 u + F(u), F(u) = int_0^u f the antiderivative in bg.profile."""
    q1, q2 = float(qperp[0]), float(qperp[1])
    qc = float(q3)
    if qc == 0.0:
        raise ValueError("Q3 must be nonzero")
    qp2 = q1 * q1 + q2 * q2
    _, _, F = bg.profile

    def g(u: float) -> complex:
        # solves 4i Q3 g' + (Q_perp^2 + f) g = 0
        return np.exp(1j * (qp2 * u + F(u)) / (4.0 * qc))

    def ev(x: FourVector) -> complex:
        xp = x.xplus
        if xp <= 0.0:
            raise SingularityError(f"x+ = {xp:g} outside the x+ > 0 branch")
        u = x.xminus - (x.x ** 2 + x.y ** 2) / xp
        return np.exp(-1j * (qc + q1 * x.x + q2 * x.y) / xp) / xp * g(u)

    return Wavefunction("conformal_mode", ev,
                        domain=lambda x: x.xplus > 1e-6,
                        params={"Qperp": (q1, q2), "Q3": qc, "g": g})


_jv = _yv = None   # scipy.special's jv and yv, once _bessel_pair has needed them


def _bessel_pair(alpha: complex, z: complex):
    """J_alpha(z), Y_alpha(z) for complex argument; real orders go through
    scipy (which evaluates imaginary arguments via the modified-Bessel
    connection), complex orders through mpmath.  scipy.special is imported
    on the first real order, and so stays off every other path."""
    global _jv, _yv
    if abs(np.imag(alpha)) == 0.0:
        if _jv is None:
            from scipy.special import jv as _jv, yv as _yv
        a = float(np.real(alpha))
        return complex(_jv(a, z)), complex(_yv(a, z))
    import mpmath
    zz = mpmath.mpc(z)
    aa = mpmath.mpc(alpha)
    return (complex(mpmath.besselj(aa, zz)), complex(mpmath.bessely(aa, zz)))


def make_dilation_solution(qperp, q3: float, csq: float, c1: complex = 1.0,
                           c2: complex = 0.0) -> Wavefunction:
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

    def y_of(v: float) -> complex:
        if qnorm == 0.0:
            return c1 * v ** alpha + c2 * v ** (-alpha)
        z = -1j * qnorm * v
        J, Y = _bessel_pair(alpha, z)
        out = c1 * J + c2 * Y
        if not np.isfinite(out.real) or not np.isfinite(out.imag):
            raise DomainError(f"Bessel evaluation overflowed at v = {v:g}")
        return out

    def ev(x: FourVector) -> complex:
        xx = x.norm2()
        xp = x.xplus
        if xx <= 0.0 or xp <= 0.0:
            raise SingularityError(
                f"(t,x,y,z) = ({x.t:g}, {x.x:g}, {x.y:g}, {x.z:g}) is outside "
                "the forward light cone")
        v = np.sqrt(xx) / xp
        return (xp ** (-(1.0 + 1j * qc)) * v ** (-1j * qc)
                * np.exp(-1j * (q1 * x.x + q2 * x.y) / xp) * y_of(v))

    def dom(x: FourVector) -> bool:
        return x.norm2() > 1e-8 and x.xplus > 1e-8

    return Wavefunction("dilation_mode", ev, domain=dom,
                        params={"Qperp": (q1, q2), "Q3": qc, "csq": csq,
                                "alpha": alpha, "c1": c1, "c2": c2})


# ---------------------------------------------------------------------------
# convergence reporting
# ---------------------------------------------------------------------------

def residual_convergence(phi: Wavefunction, bg, points: Sequence[FourVector],
                         h: float = 1e-3):
    """Normalized second-order KG residuals at h and h/2 per point, with
    their ratio.

    Returns a list of rows (index, h, |res(h)|, |res(h/2)|, ratio), residuals
    normalized by max(|phi(x)|, eps).  The expected ratio is 4 for a true
    solution and ~1 for an off-shell control."""
    rows = []
    for i, x in enumerate(points):
        scale = max(abs(phi(x)), _EPS)
        r1 = abs(kg_residual(phi, bg, x, h)) / scale
        r2 = abs(kg_residual(phi, bg, x, h / 2.0)) / scale
        rows.append((i, h, r1, r2, r1 / max(r2, _EPS)))
    return rows


# perfbench/bench_trace.py wraps it as the span kgverify.write
def write_convergence_csv(path, rows):
    write_csv(path, ("point", "h", "residual_h", "residual_h2", "ratio"), rows)
