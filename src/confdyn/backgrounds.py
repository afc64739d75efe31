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

import itertools
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
    events : list of (name, fn) switch surfaces, fn(t, x, y, z) -> signed value;
        the flows stop at their sign changes, and smooth_at is False where
        any of them is within _SING_EPS of zero
    m2_antiderivative : for m^2 of x+ alone (an x+ wave, a constant),
        x+ -> int_0^{x+} m^2
    profile : for the inverse-square families m^2 = f(u)/(x+)^2, the pair
        (f, F) of callables of u, a float or an (N,) array, F(u) =
        int_0^u f the antiderivative
    params : family parameters, kept for serialization and dispatch
    """

    def __init__(self, label: str, field: Callable, events=(),
                 m2_antiderivative: Optional[Callable] = None,
                 profile: Optional[tuple] = None, *, params: dict):
        self.label = label
        self._field = field
        self.events = list(events)
        self.m2_antiderivative = m2_antiderivative
        self.profile = profile
        self.params = dict(params)

    def m2(self, x: FourVector):
        """m^2 at a point, or an (N,) array for a FourVector with (N,)
        components, every point read by field_at (see _each)."""
        vals = [v for v, _ in self._each(x, self.field_at)]
        return np.array(vals) if np.ndim(x.t) else vals[0]

    def field_at(self, t, x, y, z):
        """(m^2, (g0, g1, g2, g3)) at the plain coordinates of one point from
        one kernel call, for callers that hold them unpacked (the flows'
        right-hand sides, certify's sampling predicate); RealityError where
        m^2 < 0."""
        v, g = self._field(t, x, y, z)
        v = float(v)
        if v < 0.0:
            raise RealityError(
                f"m^2 = {v:g} < 0 sampled at (t,x,y,z) = "
                f"({t:g}, {x:g}, {y:g}, {z:g}) on background {self.label!r}")
        return v, g

    def grad_m2(self, x: FourVector) -> np.ndarray:
        """(g0, g1, g2, g3) at a point, or (4, N) for a FourVector with (N,)
        components, every point read by the family kernel (see _each)."""
        g = np.array(list(self._each(x, lambda *c: self._field(*c)[1])), dtype=float)
        return g.T if np.ndim(x.t) else g[0]

    @staticmethod
    def _each(x: FourVector, read):
        """read(t, x, y, z) at every point of x in turn, on plain floats (a
        float ** raises where numpy's gives inf), a single point being the
        batch of one: every point of a batch has the bits, and raises the
        error, of its own call.  An iterator, so that a caller keeping part
        of each result holds no more."""
        comps = (np.asarray(c, dtype=float).ravel().tolist()
                 for c in (x.t, x.x, x.y, x.z))
        return itertools.starmap(read, zip(*comps, strict=True))

    def mass(self, x: FourVector):
        return scalar_or_array(np.sqrt(self.m2(x)))

    def smooth_at(self, x: FourVector):
        """False within _SING_EPS of a switch surface (a C0 kink): a bool at
        a point, an (N,) mask for a FourVector with (N,) components."""
        smooth = np.ones(np.shape(x.t), dtype=bool)
        for _, fn in self.events:
            smooth &= np.abs(fn(x.t, x.x, x.y, x.z)) > _SING_EPS
        return smooth if smooth.ndim else bool(smooth)

    def m2_integral(self, w):
        """int_0^w m^2 along the x+ axis, from the stored antiderivative of a
        field of x+ alone; an array for an array of w."""
        return scalar_or_array(self.m2_antiderivative(w))

    def __repr__(self):
        return f"ScalarBackground({self.label!r}, params={self.params})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant(m0sq: float) -> ScalarBackground:
    if m0sq < 0:
        raise ValueError("m0sq must be nonnegative")
    return ScalarBackground("constant", lambda t, x, y, z: (m0sq, _ZERO),
                            m2_antiderivative=lambda w: m0sq * w,
                            params={"family": "constant", "m0sq": m0sq})


def linear_z(B: float, m0sq: float, switched: bool) -> ScalarBackground:
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


# no command builds it yet; the time-dependent field of ROADMAP item 6 will
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
               antiderivative: Callable[[float], float], argument: str,
               label: str, params: dict) -> ScalarBackground:
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
        params=base | params,
    )


def plane_wave_sin2(m0sq: float, amp: float, k: float,
                    argument: str) -> ScalarBackground:
    """Smooth oscillating profile m^2 = m0^2 (1 + amp sin^2(k w)) with an
    exact antiderivative; amp > -1 keeps the field positive, and a finite
    2 k keeps the argument 2 k w of m^2' finite at w = 0.  Where k w or
    2 k w overflows at a w, the profile, its slope and its antiderivative
    raise DomainError."""
    if amp <= -1.0:
        raise ValueError("amp must exceed -1 to keep m^2 positive")
    if not math.isfinite(2.0 * k):
        raise ValueError(f"k = {k:g} overflows 2 k in the sin^2 profile")

    def overflow(w):
        return DomainError(f"k = {k:g}, w = {w:g}: 2 k w is not finite in the "
                           "sin^2 profile")

    def sin(a, w):
        # math.sin raises ValueError at an infinite argument
        try:
            return math.sin(a)
        except ValueError:
            raise overflow(w) from None

    def prof(w):
        s = sin(k * w, w)
        return m0sq * (1.0 + amp * (s * s))

    def dprof(w):
        return m0sq * amp * k * sin(2.0 * k * w, w)

    def anti(w):
        # int_0^w m0^2 (1 + amp sin^2(k s)) ds, on a float or an array of w;
        # an array's overflow to inf is reported here, not warned
        with np.errstate(over="ignore"):
            a = 2.0 * k * w
        inf = np.isinf(a)
        if inf.any():
            raise overflow(np.asarray(w).flat[inf.argmax()])
        return m0sq * (w + amp * (0.5 * w - np.sin(a) / (4.0 * k)))

    return plane_wave(prof, dprof, anti, argument=argument, label="plane_wave_sin2",
                      params={"profile": "sin2", "m0sq": m0sq, "amp": amp, "k": k})


def plane_wave_tabulated(w_samples, m2_samples, argument: str) -> ScalarBackground:
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
    comparison with it is false and the field covers all x+.  Powers are
    products; a finite x+ whose cube overflows raises DomainError."""

    def field(t, x, y, z):
        xp = t + z
        if xp < L:
            return m0sq, _ZERO
        if abs(xp) < _SING_EPS:
            raise SingularityError(f"x+ = {xp:g} on the singular surface of {label}")
        r2 = x * x + y * y
        u = (t - z) - r2 / xp
        fu, dfu = fdf(u)
        # df(u) d_mu u - 2 f(u) d_mu x+ / x+, over (x+)^2, with d_mu x+- =
        # (1, 0, 0, +-1); b * 0.0 keeps the sign of zero of the vector form
        xp2 = xp * xp
        xp3 = xp2 * xp
        if math.isinf(xp3) and not math.isinf(xp):
            raise DomainError(f"x+ = {xp:g} is too large: (x+)^3 overflows "
                              f"in {label}")
        b = 2.0 * fu / xp3
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
    F(u) = int_0^u f; singular at x+ = 0.  The kernel calls f and df on
    one float u; the conformal orbit and mode also call f and F on (N,)
    arrays of u, so both must take arrays too."""
    label = "special_conformal"
    return ScalarBackground(
        label, _inverse_square(lambda u: (f(u), df(u)), label, *_NO_SWITCH),
        profile=(f, F), params={"family": label})


def _gaussian(m0sq: float, L: float, k: float):
    """(f, F) of f(u) = m0^2 L^2 exp(-k^2 u^2), F(u) = int_0^u f =
    m0^2 L^2 sqrt(pi)/(2k) erf(k u) (m0^2 L^2 u at k = 0), and the profile
    kernel u -> (f, f'), which evaluates the exponential once.  f and F
    take a float or an (N,) array, each element by math.exp or math.erf on
    its float, so in the bits of its float call.  A (k u)^2 that overflows
    raises DomainError, on an array for its first such u."""
    A = m0sq * L * L

    # once 4 k^2 overflows, -2 k ((k u) f) keeps the slope finite (|x e^-x^2| < 0.43)
    steep = not math.isfinite(4.0 * k * k)

    def f_at(u):
        ku = k * u
        sq = ku * ku
        if math.isinf(sq):
            raise DomainError(f"k = {k:g}, u = {u:g}: (k u)^2 overflows in the "
                              "Gaussian profile")
        return A * math.exp(-sq)

    def fdf(u):
        fu = f_at(u)
        if steep:
            return fu, -2.0 * k * ((k * u) * fu)
        return fu, -2.0 * k * k * u * fu

    def f(u):
        if not np.ndim(u):
            return f_at(u)
        return np.array([f_at(w) for w in u.tolist()])

    if k == 0.0:
        def F(u):
            return A * u
    else:
        c = A * math.sqrt(math.pi) / (2.0 * k)

        def F(u):
            if not np.ndim(u):
                return c * math.erf(k * u)
            return c * np.array([math.erf(k * v) for v in u.tolist()])

    return (f, F), fdf


def special_conformal_switched(m0sq: float, L: float, k: float) -> ScalarBackground:
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


def special_conformal_gaussian(m0sq: float, L: float, k: float) -> ScalarBackground:
    """The unswitched inverse-square Gaussian profile f(u) = m0^2 L^2 e^{-k^2 u^2}."""
    label = "special_conformal_gaussian"
    profile, fdf = _gaussian(m0sq, L, k)
    return ScalarBackground(
        label, _inverse_square(fdf, label, *_NO_SWITCH), profile=profile,
        params={"family": label, "m0sq": m0sq, "L": L, "k": k})


def dilation_mass(csq: float) -> ScalarBackground:
    """m^2 = csq/(x.x); real only inside the light cone (x.x > 0 given csq > 0),
    singular on it."""
    if csq <= 0:
        raise ValueError("csq must be positive")

    def field(t, x, y, z):
        xx = t * t - x * x - y * y - z * z
        if abs(xx) < _SING_EPS:
            raise SingularityError(f"x.x = {xx:g} on the light cone")
        xx2 = xx * xx
        if math.isinf(xx2) and not math.isinf(xx):
            raise DomainError(f"x.x = {xx:g} is too large: (x.x)^2 overflows "
                              "in dilation")
        c = -2.0 * csq / xx2          # times the lowered x_mu
        return csq / xx, (c * t, c * -x, c * -y, c * -z)

    return ScalarBackground("dilation", field,
                            params={"family": "dilation", "csq": csq})


# no command builds it yet: a field given only as a function has no hand-written
# charge set, and finding its symmetry algebra from the field will certify one;
# grad_fn stays optional for that search (ROADMAP item 11)
def from_callable(m2_fn: Callable[[FourVector], float],
                  grad_fn: Optional[Callable] = None) -> ScalarBackground:
    """Wrap a user-supplied squared mass.  Without grad_fn the gradient falls
    back to fourth-order central differences with step 1e-5.  Every read
    (m2 too) calls m2_fn once and grad_fn once per point, or m2_fn 1 + 16
    times without grad_fn."""

    def fd_grad(x):
        return [central_difference(lambda s: m2_fn(x.shifted(mu, s)), 1e-5, 1, 4)
                for mu in range(4)]

    grad = grad_fn or fd_grad

    def field(t, x, y, z):
        p = FourVector(t, x, y, z)
        return m2_fn(p), tuple(map(float, grad(p)))

    return ScalarBackground("user", field, params={"family": "user"})


# ---------------------------------------------------------------------------
# config-driven construction (used by the command line layer)
# ---------------------------------------------------------------------------

# the family constants a config may leave out, each written once
_FAMILY_DEFAULTS = {"m0sq": 1.0, "switched": True, "profile": "sin2",
                    "argument": "xplus", "amp": 0.5, "k": 1.0, "L": 1.0,
                    "csq": 1.0}


def from_params(params: dict) -> ScalarBackground:
    """Build a background from a flat dictionary of typed parameters, as
    the command line's schema parses them, with a 'family' key.  A family
    constant left out takes its default from _FAMILY_DEFAULTS, the one place
    the defaults are written."""
    p = _FAMILY_DEFAULTS | params
    fam = p.get("family")
    if fam == "constant":
        return constant(p["m0sq"])
    if fam == "linear_z":
        return linear_z(p["B"], p["m0sq"], p["switched"])
    if fam == "plane_wave":
        prof, arg = p["profile"], p["argument"]
        if prof == "sin2":
            return plane_wave_sin2(p["m0sq"], p["amp"], p["k"], argument=arg)
        if prof == "tabulated":
            path = p["path"]
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
    if fam in ("special_conformal_switched", "special_conformal_gaussian"):
        build = (special_conformal_switched if fam == "special_conformal_switched"
                 else special_conformal_gaussian)
        return build(p["m0sq"], p["L"], p["k"])
    if fam == "dilation":
        return dilation_mass(p["csq"])
    raise ValueError(f"unknown background family {fam!r}")
