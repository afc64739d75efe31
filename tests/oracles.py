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
* the conformal orbit's u(x+) inversion by Brent's method, against the
  Newton inversion of analytic.conformal_orbit;
* a generator's Killing vector and Jacobian written out from its
  parameters on every call, against the constants ConformalGenerator
  builds once;
* a quantity's partials by central differences, against the closed-form
  partials the quantities carry;
* an antiderivative by adaptive quadrature, the F that a generic profile f
  hands special_conformal_mass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from confdyn.conformal import (ConformalGenerator, ConservedQuantity,
                               symmetry_defect)
from confdyn.dynamics import PhaseSpaceState, front_state
from confdyn.geometry import (METRIC, METRIC_DIAG, FourVector,
                              central_difference, contract, lower_index,
                              minkowski_dot, raise_index)
from confdyn.kgverify import Wavefunction, kg_residual, symmetry_apply
from confdyn.ode import brentq

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
    f = G(u) - target.  It takes ode.newton's
    arguments, so a test can put it in newton's place; the start x, its
    value fx and the slope fprime go unused."""
    return brentq(f, lo, hi, xtol=xtol, rtol=rtol)


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
    return a + omega_mixed @ xu + g.lam * xu + cu * xx - 2.0 * cx * xu


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


def conformal_killing_residual(g: ConformalGenerator, x: FourVector) -> np.ndarray:
    """S_{mu nu} = d_mu xi_nu + d_nu xi_mu - (1/2) eta_{mu nu} d.xi
    from closed-form derivatives; identically zero for every generator."""
    jl = METRIC @ g.jacobian(x)       # jl[mu, nu] = d_nu xi_mu
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
    """|[d^2+m^2, L] phi - (1/2)(div xi)(d^2+m^2) phi + (defect) phi| at x,
    with defect = xi.grad m^2 + (1/2) m^2 div xi: the operator identity that
    makes L a wave-equation symmetry exactly when the defect vanishes.
    All operators are applied by nested central differences."""
    Aphi = Wavefunction("A.phi", lambda y: kg_residual(phi, bg, y, h),
                        domain=phi.domain)
    Lphi = Wavefunction("L.phi", lambda y: symmetry_apply(gen, phi, y, h),
                        domain=phi.domain)
    lhs = (kg_residual(Lphi, bg, x, h) - symmetry_apply(gen, Aphi, x, h))
    rhs = (0.5 * gen.divergence(x) * Aphi(x)
           - symmetry_defect(gen, bg, x) * phi(x))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# finite-difference partials, quadrature antiderivatives
# ---------------------------------------------------------------------------

def fd_partials(f, state: PhaseSpaceState, bg, h_scale: float):
    """(dQ/dq, dQ/dp) of a quantity, or of a plain function of (state, bg),
    by second-order central differences with step h_scale max(1, |v|) in
    each canonical variable v."""
    fn = f.func if hasattr(f, "func") else f
    out = []
    for block in ("q", "p"):
        base = getattr(state, block)
        d = np.zeros(base.size)
        for k in range(base.size):
            def at(s):
                v = base.copy()
                v[k] += s
                return fn(state.replace(**{block: v}), bg)
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
    within max(1e-12, 1e-12 |F|): the antiderivative of a profile with no
    closed-form one."""
    from scipy.integrate import quad
    return lambda u: quad(lambda s: float(f(s)), 0.0, u, epsabs=1e-12,
                          epsrel=1e-12, limit=200)[0]
