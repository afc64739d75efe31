"""Scalar background fields m^2(x) with analytic lower-index gradients.

Each background packages one point kernel that takes the plain coordinates
(t, x, y, z) and returns the squared mass and its gradient d_mu m^2 together
(the plain tuple of coordinate partials, which carries a lower index), and
the switch surfaces where the field turns on; a point is smooth off them.
Sampling a negative squared mass raises RealityError; sampling on a singular
surface (x+ = 0 for the inverse-square light-front families, the light cone
for the dilation family) raises SingularityError.

Families
--------
constant            m^2 = m0^2
linear_z            m^2 = m0^2 + B z   (optionally only for z > 0)
timelike            m^2 = m0^2 + E(t)  (optionally only for t > 0)
plane_wave          m^2 = g(x+) or g(x-)
special_conformal   m^2 = f(u)/(x+)^2,  u = x- - x_perp.x_perp/x+
special_conformal_switched
                    m0^2 for x+ < L, then (m0^2 L^2/(x+)^2) exp(-k^2 u^2)
dilation            m^2 = csq/(x.x)

On the switch surface of a switched family (z = 0, t = 0, x+ = L) m^2 takes
the vacuum value and the gradient the field-side slope.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, RealityError, SingularityError
from .geometry import FourVector, central_difference, scalar_or_array

_SING_EPS = 1e-12
_ZERO = (0.0, 0.0, 0.0, 0.0)


class ScalarBackground:
    """A squared-mass field with gradient, domain data and switch surfaces.

    Parameters
    ----------
    label : family name
    field : the family's kernel, field(t, x, y, z) -> (m^2, (g0, g1, g2, g3))
        at one point, the gradient as plain floats (lower index); it raises
        SingularityError on singular surfaces
    value_fn : value_fn(t, x, y, z) -> m^2 alone, for a field whose gradient
        costs far more than its value (default: the kernel's m^2)
    events : list of (name, fn) switch surfaces, fn(t, x, y, z) -> signed value;
        the flows stop at their sign changes, and smooth_at is False where
        any of them is within _SING_EPS of zero
    m2_antiderivative : for m^2 of x+ alone (an x+ wave, a constant),
        x+ -> int_0^{x+} m^2
    profile : for the inverse-square families m^2 = f(u)/(x+)^2, the triple
        (f, f', F) of callables of u, F(u) = int_0^u f the antiderivative
    params : family parameters, kept for serialization and dispatch
    """

    def __init__(self, label: str, field: Callable,
                 value_fn: Optional[Callable] = None, events=(),
                 m2_antiderivative: Optional[Callable] = None,
                 profile: Optional[tuple] = None,
                 params: Optional[dict] = None):
        self.label = label
        self._field = field
        self._value = value_fn or (lambda t, x, y, z: field(t, x, y, z)[0])
        self.events = list(events)
        self.m2_antiderivative = m2_antiderivative
        self.profile = profile
        self.params = dict(params or {})

    def m2(self, x: FourVector):
        """m^2 at a point, or an (N,) array for a FourVector with (N,)
        components.  A batch is evaluated point by point through the family
        kernel, so every point raises exactly as it would alone."""
        if isinstance(x.t, np.ndarray):
            comps = (x.t.tolist(), x.x.tolist(), x.y.tolist(), x.z.tolist())
            return np.array([self._m2_at(*c) for c in zip(*comps)])
        return self._m2_at(x.t, x.x, x.y, x.z)

    def _m2_at(self, t, x, y, z) -> float:
        return self._real(self._value(t, x, y, z), t, x, y, z)

    def m2_and_grad(self, x: FourVector):
        """(m^2, (g0, g1, g2, g3)) at one point from one kernel call; raises
        as m2 does."""
        return self.field_at(x.t, x.x, x.y, x.z)

    def field_at(self, t, x, y, z):
        """m2_and_grad at the plain coordinates of one point, for callers
        that hold them unpacked (the flows' right-hand sides)."""
        v, g = self._field(t, x, y, z)
        v = float(v)
        if v < 0.0:
            self._real(v, t, x, y, z)     # raises RealityError
        return v, g

    def grad_m2(self, x: FourVector) -> np.ndarray:
        return np.array(self._field(x.t, x.x, x.y, x.z)[1], dtype=float)

    def _real(self, v, t, x, y, z) -> float:
        v = float(v)
        if v < 0.0:
            raise RealityError(
                f"m^2 = {v:g} < 0 sampled at (t,x,y,z) = "
                f"({t:g}, {x:g}, {y:g}, {z:g}) on background {self.label!r}")
        return v

    def mass(self, x: FourVector):
        return scalar_or_array(np.sqrt(self.m2(x)))

    def smooth_at(self, x: FourVector) -> bool:
        """False within _SING_EPS of a switch surface (a C0 kink)."""
        return all(abs(fn(x.t, x.x, x.y, x.z)) > _SING_EPS for _, fn in self.events)

    def m2_integral(self, w: float) -> float:
        """int_0^w m^2 along the x+ axis, from the stored antiderivative of a
        field of x+ alone."""
        return float(self.m2_antiderivative(w))

    def __repr__(self):
        return f"ScalarBackground({self.label!r}, params={self.params})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant(m0sq: float = 1.0) -> ScalarBackground:
    if m0sq < 0:
        raise ValueError("m0sq must be nonnegative")
    return ScalarBackground("constant", lambda t, x, y, z: (m0sq, _ZERO),
                            m2_antiderivative=lambda w: m0sq * w,
                            params={"family": "constant", "m0sq": m0sq})


def linear_z(B: float, m0sq: float = 1.0, switched: bool = True) -> ScalarBackground:
    """m^2 = m0^2 + B z; with switched=True the field occupies z > 0 only and
    matches the constant vacuum value continuously across z = 0 (C0 kink)."""
    slope = (0.0, 0.0, 0.0, float(B))

    def field(t, x, y, z):
        if switched and z <= 0.0:
            return m0sq, (_ZERO if z < 0.0 else slope)
        return m0sq + B * z, slope

    return ScalarBackground(
        "linear_z", field,
        events=[("z=0", lambda t, x, y, z: z)] if switched else (),
        params={"family": "linear_z", "B": B, "m0sq": m0sq, "switched": switched},
    )


def timelike(E: Callable[[float], float], dE: Callable[[float], float],
             m0sq: float = 1.0, switched: bool = True) -> ScalarBackground:
    """m^2 = m0^2 + E(t), turned on at t = 0 when switched."""

    def field(t, x, y, z):
        if switched and t <= 0.0:
            return m0sq, (_ZERO if t < 0.0 else (dE(t), 0.0, 0.0, 0.0))
        return m0sq + E(t), (dE(t), 0.0, 0.0, 0.0)

    return ScalarBackground(
        "timelike", field,
        events=[("t=0", lambda t, x, y, z: t)] if switched else (),
        params={"family": "timelike", "m0sq": m0sq, "switched": switched},
    )


def plane_wave(profile: Callable[[float], float], dprofile: Callable[[float], float],
               antiderivative: Optional[Callable[[float], float]] = None,
               argument: str = "xplus", label: str = "plane_wave",
               params: Optional[dict] = None) -> ScalarBackground:
    """m^2 = profile(x+) (argument="xplus") or profile(x-) (argument="xminus").

    The gradient follows from the chain rule: d_mu x+ = (1, 0, 0, 1) and
    d_mu x- = (1, 0, 0, -1)."""
    if argument not in ("xplus", "xminus"):
        raise ValueError("argument must be 'xplus' or 'xminus'")
    sign = 1.0 if argument == "xplus" else -1.0

    def field(t, x, y, z):
        w = t + z if argument == "xplus" else t - z
        d = dprofile(w)
        zero = 0.0 * d        # d * (1, 0, 0, +-1) carries d's sign onto its zeros
        return profile(w), (d, zero, zero, sign * d)

    base = {"family": "plane_wave", "argument": argument}
    return ScalarBackground(
        label, field,
        m2_antiderivative=antiderivative if argument == "xplus" else None,
        params=base | (params or {}),
    )


def plane_wave_sin2(m0sq: float = 1.0, amp: float = 0.5, k: float = 1.0,
                    argument: str = "xplus") -> ScalarBackground:
    """Smooth oscillating profile m^2 = m0^2 (1 + amp sin^2(k w)) with an
    exact antiderivative; amp > -1 keeps the field positive."""
    if amp <= -1.0:
        raise ValueError("amp must exceed -1 to keep m^2 positive")

    def prof(w):
        return m0sq * (1.0 + amp * float(np.sin(k * w)) ** 2)

    def dprof(w):
        return m0sq * amp * k * float(np.sin(2.0 * k * w))

    def anti(w):
        # int_0^w m0^2 (1 + amp sin^2(k s)) ds
        return m0sq * (w + amp * (0.5 * w - np.sin(2.0 * k * w) / (4.0 * k)))

    return plane_wave(prof, dprof, anti, argument=argument, label="plane_wave_sin2",
                      params={"profile": "sin2", "m0sq": m0sq, "amp": amp, "k": k})


def plane_wave_tabulated(w_samples, m2_samples, argument: str = "xplus") -> ScalarBackground:
    """Plane-wave profile interpolated from samples with a cubic spline; the
    derivative and antiderivative come from the spline itself."""
    from scipy.interpolate import CubicSpline
    w = np.asarray(w_samples, dtype=float)
    v = np.asarray(m2_samples, dtype=float)
    if np.any(v < 0):
        raise ValueError("tabulated m^2 samples must be nonnegative")
    spl = CubicSpline(w, v)
    dspl = spl.derivative()
    ispl = spl.antiderivative()
    i0 = float(ispl(0.0)) if w[0] <= 0.0 <= w[-1] else float(ispl(w[0]))

    return plane_wave(lambda s: float(spl(s)), lambda s: float(dspl(s)),
                      lambda s: scalar_or_array(ispl(s) - i0), argument=argument,
                      label="plane_wave_tabulated",
                      params={"profile": "tabulated", "n": len(w)})


def _inverse_square(fdf: Callable, label: str, L: float, m0sq: float) -> Callable:
    """Kernel of m^2 = f(u)/(x+)^2 with u = x- - x_perp.x_perp/x+, from the
    profile kernel fdf(u) -> (f(u), f'(u)), switched on at x+ = L: before
    x+ = L, m^2 is the constant m0sq and its gradient zero; on x+ = L, m^2 is
    m0sq and the gradient the field side's.  With _NO_SWITCH, L is nan, every
    comparison with it is false and the field covers all x+."""

    def field(t, x, y, z):
        xp = t + z
        if xp < L:
            return m0sq, _ZERO
        if abs(xp) < _SING_EPS:
            raise SingularityError(f"x+ = {xp:g} on the singular surface of {label}")
        perp = np.array([x, y])
        r2 = float(perp @ perp)       # numpy's dot, not x*x + y*y: it rounds apart
        u = (t - z) - r2 / xp
        fu, dfu = fdf(u)
        # df(u) d_mu u - 2 f(u) d_mu x+ / x+, over (x+)^2, with d_mu x+- =
        # (1, 0, 0, +-1); b * 0.0 keeps the sign of zero of the vector form
        try:
            xp2 = xp ** 2
            b = 2.0 * fu / xp ** 3
        except OverflowError:         # float ** raises where numpy gives inf
            raise DomainError(f"x+ = {xp:g} is too large: (x+)^3 overflows "
                              f"in {label}") from None
        a = dfu / xp2
        s = r2 / xp2
        return (m0sq if xp == L else fu / xp2), (
            a * (1.0 + s) - b, a * (-2.0 * x / xp) - b * 0.0,
            a * (-2.0 * y / xp) - b * 0.0, a * (-1.0 + s) - b)

    return field


_NO_SWITCH = (math.nan, math.nan)   # (L, m0sq) of an inverse-square field on all x+


# the paper's general f(u)/(x+)^2 family; no command builds it, but exact
# checks with a generic profile f need it
def special_conformal_mass(f: Callable[[float], float],
                           df: Callable[[float], float],
                           F: Callable[[float], float]) -> ScalarBackground:
    """m^2 = f(u)/(x+)^2 with u = x- - x_perp.x_perp/x+, f' = df and
    F(u) = int_0^u f; singular at x+ = 0."""
    label = "special_conformal"
    return ScalarBackground(
        label, _inverse_square(lambda u: (f(u), df(u)), label, *_NO_SWITCH),
        profile=(f, df, F), params={"family": label})


def _gaussian(m0sq: float, L: float, k: float):
    """(f, df, F) of f(u) = m0^2 L^2 exp(-k^2 u^2), F(u) = int_0^u f =
    m0^2 L^2 sqrt(pi)/(2k) erf(k u) (m0^2 L^2 u at k = 0), and the profile
    kernel u -> (f, df), which evaluates the exponential once; f and df are
    read from it.  A k u or (k u)^2 that overflows raises DomainError."""
    A = m0sq * L * L

    def too_steep(u):
        return DomainError(f"k = {k:g}, u = {u:g}: (k u)^2 overflows in the "
                           "Gaussian profile")

    # once 4 k^2 overflows, -2 k ((k u) f) keeps the slope finite (|x e^-x^2| < 0.43)
    steep = not math.isfinite(4.0 * k * k)

    def fdf(u):
        ku = k * u
        if math.isinf(ku):            # inf ** 2 raises nothing
            raise too_steep(u)
        try:
            fu = A * float(np.exp(-ku ** 2))
        except OverflowError:         # float ** raises where numpy gives inf
            raise too_steep(u) from None
        if steep:
            return fu, -2.0 * k * (ku * fu)
        return fu, -2.0 * k * k * u * fu

    if k == 0.0:
        def F(u):
            return A * u
    else:
        c = A * math.sqrt(math.pi) / (2.0 * k)

        def F(u):
            return c * math.erf(k * u)

    return (lambda u: fdf(u)[0], lambda u: fdf(u)[1], F), fdf


def special_conformal_switched(m0sq: float = 1.0, L: float = 1.0,
                               k: float = 1.0) -> ScalarBackground:
    """Constant m0^2 before the light front x+ = L, then the inverse-square
    profile (m0^2 L^2/(x+)^2) exp(-k^2 u^2).

    The two pieces join continuously only on the u = 0 slice; orbits used for
    quantitative checks should cross x+ = L there (the x_perp = p_perp = 0
    branch entering at x- = 0 does).  L must be at least _SING_EPS, so that
    the switch surface lies off the singular one at x+ = 0."""
    if not L >= _SING_EPS:
        raise ValueError(f"switch position L must be at least {_SING_EPS:g}, "
                         "off the singular surface x+ = 0")
    profile, fdf = _gaussian(m0sq, L, k)
    return ScalarBackground(
        "special_conformal_switched",
        _inverse_square(fdf, "special_conformal", L, m0sq),
        events=[("xplus=L", lambda t, x, y, z: t + z - L)], profile=profile,
        params={"family": "special_conformal_switched", "m0sq": m0sq,
                "L": L, "k": k},
    )


def special_conformal_gaussian(m0sq: float = 1.0, L: float = 1.0,
                               k: float = 1.0) -> ScalarBackground:
    """The unswitched inverse-square Gaussian profile f(u) = m0^2 L^2 e^{-k^2 u^2}."""
    label = "special_conformal_gaussian"
    profile, fdf = _gaussian(m0sq, L, k)
    return ScalarBackground(
        label, _inverse_square(fdf, label, *_NO_SWITCH), profile=profile,
        params={"family": label, "m0sq": m0sq, "L": L, "k": k})


def dilation_mass(csq: float = 1.0) -> ScalarBackground:
    """m^2 = csq/(x.x); real only inside the light cone (x.x > 0 given csq > 0),
    singular on it."""
    if csq <= 0:
        raise ValueError("csq must be positive")

    def field(t, x, y, z):
        xx = t * t - x * x - y * y - z * z
        if abs(xx) < _SING_EPS:
            raise SingularityError(f"x.x = {xx:g} on the light cone")
        try:
            c = -2.0 * csq / xx ** 2      # times the lowered x_mu
        except OverflowError:         # float ** raises where numpy gives inf
            raise DomainError(f"x.x = {xx:g} is too large: (x.x)^2 overflows "
                              "in dilation") from None
        return csq / xx, (c * t, c * -x, c * -y, c * -z)

    return ScalarBackground("dilation", field,
                            params={"family": "dilation", "csq": csq})


# no command builds it yet: a field given only as a function has no hand-written
# charge set, and finding its symmetry algebra from the field will certify one
def from_callable(m2_fn: Callable[[FourVector], float],
                  grad_fn: Optional[Callable] = None) -> ScalarBackground:
    """Wrap a user-supplied squared mass.  Without grad_fn the gradient falls
    back to fourth-order central differences with step 1e-5; m2 alone calls
    m2_fn once and never the gradient."""

    def fd_grad(x):
        return [central_difference(lambda s: m2_fn(x.shifted(mu, s)), 1e-5, 1, 4)
                for mu in range(4)]

    grad = grad_fn or fd_grad

    def field(t, x, y, z):
        p = FourVector(t, x, y, z)
        return m2_fn(p), tuple(map(float, grad(p)))

    return ScalarBackground("user", field,
                            value_fn=lambda t, x, y, z: m2_fn(FourVector(t, x, y, z)),
                            params={"family": "user"})


# ---------------------------------------------------------------------------
# config-driven construction (used by the command line layer)
# ---------------------------------------------------------------------------

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def parse_bool(raw) -> bool:
    """A bool or any case of 1/0, true/false, yes/no, on/off; else ValueError."""
    key = str(raw).strip().lower()
    if key not in _BOOLS:
        raise ValueError(f"{raw!r} is not a boolean")
    return _BOOLS[key]


def from_params(params: dict) -> ScalarBackground:
    """Build a background from a flat parameter dictionary with a 'family' key."""
    fam = params.get("family")
    if fam == "constant":
        return constant(float(params.get("m0sq", 1.0)))
    if fam == "linear_z":
        return linear_z(float(params["B"]), float(params.get("m0sq", 1.0)),
                        parse_bool(params.get("switched", True)))
    if fam == "plane_wave":
        prof = params.get("profile", "sin2")
        arg = params.get("argument", "xplus")
        if prof == "sin2":
            return plane_wave_sin2(float(params.get("m0sq", 1.0)),
                                   float(params.get("amp", 0.5)),
                                   float(params.get("k", 1.0)), argument=arg)
        if prof == "tabulated":
            path = params["path"]
            try:
                with warnings.catch_warnings():   # an empty file warns, then fails below
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(path, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read the table {path!r}: {exc}") from None
            if table.shape[1] < 2 or not table.size:
                raise ValueError(f"the table {path!r} of shape {table.shape} has no (w, m^2)")
            return plane_wave_tabulated(table[:, 0], table[:, 1], argument=arg)
        raise ValueError(f"unknown plane-wave profile {prof!r}")
    if fam == "special_conformal_switched":
        return special_conformal_switched(float(params.get("m0sq", 1.0)),
                                          float(params.get("L", 1.0)),
                                          float(params.get("k", 1.0)))
    if fam == "special_conformal_gaussian":
        return special_conformal_gaussian(float(params.get("m0sq", 1.0)),
                                          float(params.get("L", 1.0)),
                                          float(params.get("k", 1.0)))
    if fam == "dilation":
        return dilation_mass(float(params.get("csq", 1.0)))
    raise ValueError(f"unknown background family {fam!r}")
