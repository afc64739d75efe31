"""Minkowski four-vector algebra and light-front coordinate maps.

Conventions used everywhere in this package:

* metric signature (+, -, -, -), natural units, default mass scale m0 = 1
  (lengths and times in units of 1/m0);
* positions and velocities carry upper indices, momenta and gradients carry
  lower indices, so spatial components obey p_j = -p^j and the gradient of a
  scalar is the plain tuple of coordinate partials;
* light-front coordinates x+ = t + z and x- = t - z with the transverse pair
  (x1, x2) untouched;
* light-front momentum components p+ = (p0 + p3)/2 and p- = (p0 - p3)/2, so
  the invariant pairing is p.x = p+ x+ + p- x- + p_perp . x_perp and the mass
  shell reads p.p = 4 p+ p- - p_perp . p_perp = m^2.
* component arrays may be batches: the component index comes first, so a
  (4, N) array holds N points, and a FourVector may carry (N,) components;
* every product of components is one IEEE product, a square being v * v,
  and every sum of products adds left to right (contract), elementwise over
  a batch: a batch has each point's bits by construction, on any BLAS
  kernel, since none enters.

A particle whose squared mass m^2(x) varies over spacetime moves on geodesics
of the conformally flat metric (m^2/m0^2) eta; everything here stays on flat
spacetime and that equivalence is kept as a remark only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
METRIC = np.diag(METRIC_DIAG)


@dataclass(frozen=True)
class FourVector:
    """Contravariant spacetime vector with components (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    @staticmethod
    def from_array(arr) -> "FourVector":
        a = np.asarray(arr, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {a.shape}")
        return FourVector(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def lowered(self) -> np.ndarray:
        """Covariant components eta_{mu nu} v^nu."""
        return np.array([self.t, -self.x, -self.y, -self.z])

    def norm2(self) -> float:
        """Invariant square v.v."""
        return minkowski_dot(self, self)

    @property
    def xplus(self) -> float:
        return self.t + self.z

    @property
    def xminus(self) -> float:
        return self.t - self.z

    def shifted(self, mu: int, delta: float) -> "FourVector":
        """Return a copy displaced by delta along coordinate axis mu; a
        batch's component arrays are left as they are."""
        comps = [self.t, self.x, self.y, self.z]
        comps[mu] = comps[mu] + delta
        return FourVector(*comps)


# Every central difference the package takes, keyed by (derivative, order):
# the (offset in units of h, weight) pairs and the denominator of
# d^n f/ds^n = sum_k w_k f(k h) / (den h^n) + O(h^order).
_STENCILS = {
    (1, 2): (((1, 1), (-1, -1)), 2),
    (1, 4): (((2, -1), (1, 8), (-1, -8), (-2, 1)), 12),
    (2, 2): (((1, 1), (0, -2), (-1, 1)), 1),
    (2, 4): (((2, -1), (1, 16), (0, -30), (-1, 16), (-2, -1)), 12),
}


def central_difference(f, h, deriv: int, order: int, f0=None):
    """d^deriv f/ds^deriv at s = 0 from f(s), the value at displacement s;
    f0, when given, stands in for f(0).  The terms add left to right from
    the first, so a real result is bit for bit the written-out formula (w v
    is its product up to sign, a + (-b) is a - b); a complex one may differ
    from it only in the sign of a zero component.  Values may be arrays, one
    derivative per element."""
    terms, den = _STENCILS[deriv, order]
    total = None
    for k, w in terms:
        v = w * (f0 if k == 0 and f0 is not None else f(k * h))
        total = v if total is None else total + v
    scale = den * h ** deriv
    if isinstance(total, np.ndarray) and total.dtype.kind == "c":
        # numpy divides a complex array by a real one through its reciprocal;
        # dividing each part is the quotient a complex scalar gets
        return (total.view(float) / scale).view(complex)
    return total / scale


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    """Invariant product a.b = a^0 b^0 - a^1 b^1 - a^2 b^2 - a^3 b^3.

    The same value written in light-front variables is
    (a+ b- + a- b+)/2 - a_perp . b_perp, so a.a = a+ a- - a_perp . a_perp.
    """
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def lower_index(v_upper: np.ndarray) -> np.ndarray:
    """eta_{mu nu} v^nu for a 4-array (or component-first (4, N) batch) of
    upper components."""
    # transposing puts the component axis last, where METRIC_DIAG broadcasts
    return (METRIC_DIAG * np.asarray(v_upper, dtype=float).T).T


raise_index = lower_index   # eta^{mu nu} v_nu: for diagonal eta, the same arithmetic


def contract(v_upper: np.ndarray, w_lower: np.ndarray):
    """Natural pairing v^mu w_mu of an upper vector with a covector.

    No metric factor enters: both arguments must already carry the stated
    index positions.  Two vectors give a float; when either is a
    component-first batch the result is one pairing per point.  The
    products add left to right, elementwise over a batch, so a batch
    reproduces the per-point values bit for bit and no BLAS kernel enters.
    """
    v = np.asarray(v_upper, dtype=float)
    w = np.asarray(w_lower, dtype=float)
    if len(v) != len(w):
        raise ValueError(f"cannot pair {len(v)} components with {len(w)}")
    total = v[0] * w[0]
    for a, b in zip(v[1:], w[1:]):
        total = total + a * b
    return scalar_or_array(total)


def pair_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """contract of each row of a constant (k, 4) matrix m with v: shape (k,)
    for a 4-vector v, (k, N) for a component-first (4, N) batch, every sum
    added left to right as contract adds it."""
    cols = np.asarray(m, dtype=float).T
    return contract(cols if np.ndim(v) == 1 else cols[..., None], v)


def scalar_or_array(v):
    """A float for a single point, the array itself for a batch."""
    return float(v) if np.ndim(v) == 0 else v


def from_lightfront(xplus: float, xminus: float, x1: float, x2: float) -> FourVector:
    """The point (x+, x-, x1, x2), read back by xplus, xminus, x and y."""
    return FourVector(0.5 * (xplus + xminus), x1, x2, 0.5 * (xplus - xminus))


def lf_momenta(v_lower: np.ndarray) -> np.ndarray:
    """Map lower-index Cartesian components (v0, v1, v2, v3) to their
    light-front ones (v+, v-, v1, v2) with v+- = (v0 +- v3)/2: momenta
    (p0, p1, p2, p3) to (p+, p-, p1, p2), and a scalar's gradient to its
    partials along (x+, x-, x1, x2) at fixed other coordinates."""
    v = np.asarray(v_lower, dtype=float)
    return np.array([0.5 * (v[0] + v[3]), 0.5 * (v[0] - v[3]), v[1], v[2]])


lf_gradient = lf_momenta   # d/dx+- = (g0 +- g3)/2: the same map on a gradient


def momenta_from_lf(pplus: float, pminus: float, p1: float, p2: float) -> np.ndarray:
    """Inverse of lf_momenta: (p0, p1, p2, p3) = (p+ + p-, p1, p2, p+ - p-)."""
    return np.array([pplus + pminus, p1, p2, pplus - pminus])
