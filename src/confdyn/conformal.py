"""Conformal transformation generators and the conserved quantities they induce.

A generator is the parameter set (a, omega, lam, c) of the vector field

    xi^mu(x) = a^mu + omega^mu_nu x^nu + lam x^mu + c^mu (x.x) - 2 (c.x) x^mu

which is the general solution of the flat-space conformal Killing equation
d_mu xi_nu + d_nu xi_mu = (1/2) eta_{mu nu} (d.xi), with divergence

    d.xi = 4 lam - 8 (c.x).

Index conventions: the translation a is stored with an upper index, the
rotation/boost matrix omega_{mu nu} (antisymmetric) and the acceleration
parameter c_mu with lower indices.

A generator is a symmetry of the background m^2(x) when the defect

    xi.grad(m^2) + (1/2) m^2 (d.xi)

vanishes; along any orbit of the matching dynamics the charge Q = xi.p is
then conserved, and L = xi.grad + (1/4)(d.xi) maps Klein-Gordon solutions to
solutions.

Charges of the light-front generator family, written in the momentum
conventions of :mod:`confdyn.geometry` (p+- = (p0 +- p3)/2, all momentum
indices lower):

    translations            p0, p1, p2, p3 (equivalently p+, p-, p_perp)
    rotation about z        Lz = x p2 - y p1
    boost along z           x+ p+ - x- p-
    null rotations T_perp   2 x_perp p- + x+ p_perp
    null rotations U_perp   2 x_perp p+ + x- p_perp
    dilation                x.p
    special conformal       (c x.x - 2 (c.x) x).p

A charge is a ConservedQuantity that carries only its generator; its value
and, in every form with a bracket, its partials (one chain rule through the
form's constant data and its Hamiltonian's partials) are evaluated in
dynamics.quantity_values and dynamics.quantity_partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import hamiltonian_extended, hamiltonian_partials, quantity_values
from .geometry import (METRIC, METRIC_DIAG, FourVector, contract, lf_gradient,
                       lower_index, minkowski_dot, raise_index)

_ANTISYM_TOL = 1e-12
_EYE4 = np.eye(4)


@dataclass(frozen=True)
class ConformalGenerator:
    """Parameter set of a conformal Killing vector field.

    Fields
    ------
    a : upper-index translation four-vector (4,)
    omega : lower-index antisymmetric matrix omega_{mu nu} (4, 4)
    lam : dilation weight
    c : lower-index special conformal parameter c_mu (4,)
    label : optional human-readable name
    """

    a: np.ndarray
    omega: np.ndarray
    lam: float
    c: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(4)
        om = np.asarray(self.omega, dtype=float).reshape(4, 4)
        c = np.asarray(self.c, dtype=float).reshape(4)
        asym = np.max(np.abs(om + om.T))
        if asym > _ANTISYM_TOL * max(1.0, np.max(np.abs(om))):
            raise ValueError(f"omega is not antisymmetric (defect {asym:g})")
        # exact antisymmetrisation; a no-op for already antisymmetric input
        om = 0.5 * (om - om.T)
        lam = float(self.lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", c)
        # constants of killing and jacobian, built once per generator:
        # omega^mu_nu = eta^{mu alpha} omega_{alpha nu}, c^mu, and the
        # x-independent part omega^mu_nu + lam delta^mu_nu of d_nu xi^mu
        omega_mixed = METRIC_DIAG[:, None] * om
        object.__setattr__(self, "omega_mixed", omega_mixed)
        object.__setattr__(self, "c_upper", raise_index(c))
        object.__setattr__(self, "jacobian_at_origin", omega_mixed + lam * _EYE4)

    # -- field evaluation ----------------------------------------------
    def killing(self, x: FourVector) -> np.ndarray:
        """Upper-index components xi^mu(x): shape (4,) at a point, (4, N)
        for a FourVector with (N,) components."""
        xu = x.as_array()
        cx = contract(xu, self.c)
        xx = minkowski_dot(x, x)
        a, cu = self.a, self.c_upper
        if xu.ndim > 1:
            # constant vectors as columns, so they never broadcast along the
            # point axis of a batch (which for N = 4 would go unnoticed)
            a, cu = a[:, None], cu[:, None]
        return a + self.omega_mixed @ xu + self.lam * xu + cu * xx - 2.0 * cx * xu

    def jacobian(self, x: FourVector) -> np.ndarray:
        """Mixed Jacobian J[mu, nu] = d_nu xi^mu(x), closed form: shape
        (4, 4) at a point, and for a FourVector with (N,) components the
        (N, 4, 4) stack of one matrix per point, as np.matmul stacks them."""
        xu = x.as_array()
        cx = np.asarray(contract(xu, self.c))
        # points first; c[:, None] * x is np.outer's own product, so every
        # entry is the single point's product
        xu, xl = xu.T, x.lowered().T
        return (self.jacobian_at_origin
                + 2.0 * (self.c_upper[:, None] * xl[..., None, :])
                - 2.0 * (xu[..., :, None] * self.c)
                - 2.0 * cx[..., None, None] * _EYE4)

    def divergence(self, x: FourVector) -> float:
        """d.xi = 4 lam - 8 c.x, exact."""
        return 4.0 * self.lam - 8.0 * contract(x.as_array(), self.c)

    # -- linear structure ------------------------------------------------
    def __add__(self, other: "ConformalGenerator") -> "ConformalGenerator":
        return ConformalGenerator(self.a + other.a, self.omega + other.omega,
                                  self.lam + other.lam, self.c + other.c)

    def __mul__(self, s: float) -> "ConformalGenerator":
        return ConformalGenerator(s * self.a, s * self.omega, s * self.lam,
                                  s * self.c, label=self.label)

    __rmul__ = __mul__

    def __sub__(self, other: "ConformalGenerator") -> "ConformalGenerator":
        return self + (-1.0) * other


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def _zeros_gen(**kw):
    return dict(a=np.zeros(4), omega=np.zeros((4, 4)), lam=0.0, c=np.zeros(4)) | kw


def translation(a, label: str = "translation") -> ConformalGenerator:
    """Translation along the upper-index four-vector a; charge Q = a^mu p_mu."""
    return ConformalGenerator(**_zeros_gen() | {"a": np.asarray(a, dtype=float)},
                              label=label)


def time_translation() -> ConformalGenerator:
    """Charge p0 (the instant-form Hamiltonian on shell)."""
    return translation([1.0, 0.0, 0.0, 0.0], label="P0")


def translation_axis(j: int) -> ConformalGenerator:
    """Spatial translation along axis j in {1,2,3}; charge p_j."""
    a = np.zeros(4)
    a[j] = 1.0
    return translation(a, label=f"P{j}")


# no command uses it; tests do, and item 11's basis decides if it stays
def translation_xplus() -> ConformalGenerator:
    """Translation in x+ (a^+ = 1); charge p+ = (p0 + p3)/2, the front-form
    Hamiltonian on shell."""
    return translation([0.5, 0.0, 0.0, 0.5], label="P+")


def translation_xminus() -> ConformalGenerator:
    """Translation in x- (a^- = 1); charge p- = (p0 - p3)/2."""
    return translation([0.5, 0.0, 0.0, -0.5], label="P-")


def _lorentz(omega_lower: np.ndarray, label: str) -> ConformalGenerator:
    return ConformalGenerator(**_zeros_gen() | {"omega": omega_lower}, label=label)


def rotation_x() -> ConformalGenerator:
    """Charge Lx = y p3 - z p2."""
    om = np.zeros((4, 4))
    om[2, 3], om[3, 2] = 1.0, -1.0
    return _lorentz(om, "Lx")


def rotation_y() -> ConformalGenerator:
    """Charge Ly = z p1 - x p3."""
    om = np.zeros((4, 4))
    om[3, 1], om[1, 3] = 1.0, -1.0
    return _lorentz(om, "Ly")


def rotation_z() -> ConformalGenerator:
    """Charge Lz = x p2 - y p1."""
    om = np.zeros((4, 4))
    om[1, 2], om[2, 1] = 1.0, -1.0
    return _lorentz(om, "Lz")


def boost_axis(j: int) -> ConformalGenerator:
    """Boost along spatial axis j; charge x^j p0 + t p_j.

    Along z the charge in light-front variables is x+ p+ - x- p-.
    """
    om = np.zeros((4, 4))
    om[0, j], om[j, 0] = 1.0, -1.0
    return _lorentz(om, f"K{j}")


def null_rotation_t(j: int) -> ConformalGenerator:
    """Null rotation fixing the x+ direction, transverse axis j in {1,2};
    charge T_j = 2 x^j p- + x+ p_j."""
    if j not in (1, 2):
        raise ValueError("transverse axis must be 1 or 2")
    om = np.zeros((4, 4))
    om[0, j], om[j, 0] = 1.0, -1.0
    om[j, 3], om[3, j] = -1.0, 1.0
    return _lorentz(om, f"T{j}")


# no command uses it; tests do, and item 11's basis decides if it stays
def null_rotation_u(j: int) -> ConformalGenerator:
    """Null rotation fixing the x- direction, transverse axis j in {1,2};
    charge U_j = 2 x^j p+ + x- p_j."""
    if j not in (1, 2):
        raise ValueError("transverse axis must be 1 or 2")
    om = np.zeros((4, 4))
    om[0, j], om[j, 0] = 1.0, -1.0
    om[j, 3], om[3, j] = 1.0, -1.0
    return _lorentz(om, f"U{j}")


def dilation() -> ConformalGenerator:
    """Dilation xi = x; charge x.p."""
    return ConformalGenerator(**_zeros_gen() | {"lam": 1.0}, label="D")


def special_conformal(c_lower, label: str = "C") -> ConformalGenerator:
    """Special conformal generator with lower-index parameter c_mu."""
    return ConformalGenerator(**_zeros_gen() | {"c": np.asarray(c_lower, dtype=float)},
                              label=label)


def special_conformal_lf() -> ConformalGenerator:
    """The special conformal generator with unit upper light-front minus
    component, c^- = 1 and c^+ = c_perp = 0, i.e. c_mu = (1/2, 0, 0, 1/2).

    Its light-front field components are
    xi^+ = -(x+)^2, xi^- = -x_perp.x_perp, xi^perp = -x+ x^perp, and
    c.x = x+/2, so d.xi = -4 x+.  It generates the symmetry of squared
    masses of the form f(u)/(x+)^2 with u = x- - x_perp.x_perp/x+.
    """
    return special_conformal([0.5, 0.0, 0.0, 0.5], label="C-")


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

# no command calls this; tests do, and ROADMAP item 11 checks closure with it
def lie_bracket(g1: ConformalGenerator, g2: ConformalGenerator) -> ConformalGenerator:
    """Vector-field commutator [xi1, xi2] = xi1.grad xi2 - xi2.grad xi1,
    returned as a generator (the conformal family closes under it).

    Orientation check: lie_bracket(dilation(), translation(a)) is the
    translation by -a.  For the induced charges the matching identity is
    {xi1.p, xi2.p} = -[xi1, xi2].p in every canonical form.
    """
    j1 = g1.jacobian_at_origin
    j2 = g2.jacobian_at_origin

    def hess_contract(g: ConformalGenerator, avec: np.ndarray) -> np.ndarray:
        # a^alpha d_nu d_alpha xi^mu, constant in x for quadratic fields
        al = lower_index(avec)
        ca = contract(avec, g.c)
        return (2.0 * np.outer(g.c_upper, al) - 2.0 * ca * np.eye(4)
                - 2.0 * np.outer(avec, g.c))

    a_new = j2 @ g1.a - j1 @ g2.a
    j_new = (j2 @ j1 - j1 @ j2) + hess_contract(g2, g1.a) - hess_contract(g1, g2.a)
    lam_new = 0.25 * float(np.trace(j_new))
    omega_new = METRIC @ j_new - lam_new * METRIC
    c_new = g2.c @ j1 - g1.c @ j2
    lbl = f"[{g1.label},{g2.label}]" if (g1.label and g2.label) else ""
    return ConformalGenerator(a_new, omega_new, lam_new, c_new, label=lbl)


# no command calls it yet; tests do, and items 3 (conservation check) and 11 will
def symmetry_defect(g: ConformalGenerator, bg, x: FourVector) -> float:
    """xi.grad(m^2) + (1/2) m^2 (d.xi); zero iff xi.p is conserved along the
    background's orbits and L = xi.grad + (1/4) d.xi is a wave-operator
    symmetry.  Raises the background's own errors on singular surfaces."""
    xi = g.killing(x)
    m2, grad = bg.m2_and_grad(x)
    return contract(xi, grad) + 0.5 * m2 * g.divergence(x)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservedQuantity:
    """A scalar phase-space function Q(state; background).

    A generator charge xi.p carries only its generator; dynamics evaluates
    its value and closed-form partials from it (quantity_values,
    quantity_partials), sharing one frame per state among the charges of a
    set.  Any other quantity sets func and, optionally, partials.

    func(state, bg) evaluates the quantity on the background bg of the
    call, the only field data it reads.  It must also accept a
    component-first batch state (q, p of shape (n, N), time of shape (N,);
    see dynamics.Trajectory.batch_state) and then return an array of shape
    (N,), one value per point: dynamics.monitor calls it once per
    trajectory.  partials(state, bg), when provided, returns closed-form
    gradients (dQ/dq, dQ/dp) with respect to the canonical variables of the
    state's form, used by Poisson brackets and independence ranks.  It is
    called on single states only: on a batch state,
    dynamics.quantity_partials calls it once per point and stacks the
    results to (n, N).  A quantity without partials is monitored only
    (dynamics.quantity_partials raises ValueError).
    """

    label: str
    func: Optional[Callable] = None
    partials: Optional[Callable] = None
    generator: Optional[ConformalGenerator] = None

    def __call__(self, state, bg):
        return quantity_values([self], state, bg)[0]


def generator_quantity(g: ConformalGenerator, label: str = "") -> ConservedQuantity:
    """The charge xi.p of a generator as a ConservedQuantity, with
    closed-form partials in the instant, front and extended forms."""
    return ConservedQuantity(label or (g.label or "xi.p"), generator=g)


# -- hidden (non-geometric) quantities --------------------------------------

def spacelike_hidden_quantity(which: int, B: float) -> ConservedQuantity:
    """The quadratic-in-momentum constants of m^2 = m0^2 + B z in the instant
    form: which=3 gives 2 p1 p3 + B x, which=4 gives 2 p2 p3 + B y."""
    if which not in (3, 4):
        raise ValueError("which must be 3 or 4")
    i = which - 3   # transverse index 0 or 1

    def val(state, bg):
        if state.form != "instant":
            raise ValueError("spacelike hidden quantities live in the instant form")
        return 2.0 * state.p[i] * state.p[2] + B * state.q[i]

    def parts(state, bg):
        dq = np.zeros(3)
        dq[i] = B
        dp = np.zeros(3)
        dp[i] = 2.0 * state.p[2]
        dp[2] = 2.0 * state.p[i]
        return dq, dp

    return ConservedQuantity(label=f"Q{which}", func=val, partials=parts)


def spacelike_set(B: float) -> list[ConservedQuantity]:
    """The five constants of motion of m^2 = m0^2 + B z (instant form):
    p1, p2, the two hidden quadratics, and the Hamiltonian p0."""
    q1 = generator_quantity(translation_axis(1), "Q1")
    q2 = generator_quantity(translation_axis(2), "Q2")
    q3 = spacelike_hidden_quantity(3, B)
    q4 = spacelike_hidden_quantity(4, B)
    q5 = generator_quantity(time_translation(), "Q5")
    return [q1, q2, q3, q4, q5]


def momentum_p3_quantity() -> ConservedQuantity:
    """z-momentum p3 as an instant-form quantity (generically not conserved
    on z-dependent backgrounds; monitored for its predicted drift)."""
    return generator_quantity(translation_axis(3), "p3")


def angular_momentum_z_quantity(scale: float = 1.0) -> ConservedQuantity:
    """scale * (x p2 - y p1) in the instant form.  With scale = B this equals
    the combination Q3 Q2 - Q4 Q1 of the spacelike hidden quantities, and it
    is conserved by both the relativistic and the nonrelativistic flows."""

    def val(state, bg):
        return scale * (state.q[0] * state.p[1] - state.q[1] * state.p[0])

    return ConservedQuantity(label="B.Lz" if scale != 1.0 else "Lz", func=val)


def mass_shell_quantity() -> ConservedQuantity:
    """Extended-form Q = 4 p+ p- - p_perp.p_perp - m^2(x); vanishes on shell
    and is conserved because the extended Hamiltonian is K = H - p+."""

    def val(state, bg):
        pplus, pminus, p1, p2 = state.p
        return 4.0 * pplus * pminus - p1 * p1 - p2 * p2 - bg.m2(state.position())

    def parts(state, bg):
        lfg = lf_gradient(bg.grad_m2(state.position()))
        dq = np.array([-lfg[0], -lfg[1], -lfg[2], -lfg[3]])
        pplus, pminus, p1, p2 = state.p
        dp = np.array([4.0 * pminus, 4.0 * pplus, -2.0 * p1, -2.0 * p2])
        return dq, dp

    return ConservedQuantity(label="Q6", func=val, partials=parts)


def planewave_cubic_quantity() -> ConservedQuantity:
    """Extended-form Q = 4 p-^2 x- - p_perp.p_perp x+ - int_0^{x+} m^2, the
    cubic constant of plane-wave backgrounds m^2(x+); the background it is
    evaluated on must provide m2_antiderivative."""

    def val(state, bg):
        xplus, xminus = state.q[0], state.q[1]
        pplus, pminus, p1, p2 = state.p
        return (4.0 * pminus ** 2 * xminus - (p1 * p1 + p2 * p2) * xplus
                - bg.m2_antiderivative(xplus))

    def parts(state, bg):
        xplus, xminus = state.q[0], state.q[1]
        pplus, pminus, p1, p2 = state.p
        m2 = bg.m2(state.position())
        dq = np.array([-(p1 * p1 + p2 * p2) - m2, 4.0 * pminus ** 2, 0.0, 0.0])
        dp = np.array([0.0, 8.0 * pminus * xminus, -2.0 * p1 * xplus,
                       -2.0 * p2 * xplus])
        return dq, dp

    return ConservedQuantity(label="Q7", func=val, partials=parts)


def extended_hamiltonian_quantity() -> ConservedQuantity:
    """K = (p_perp.p_perp + m^2(x))/(4 p-) - p+ on the extended phase space."""
    return ConservedQuantity(label="K", func=hamiltonian_extended,
                             partials=hamiltonian_partials)


def planewave_extended_set() -> list[ConservedQuantity]:
    """The seven constants of plane-wave backgrounds m^2(x+) on the extended
    front-form phase space: p1, p2, p-, the two null-rotation charges
    2 x_perp p- + x+ p_perp, the mass-shell quantity and the cubic one."""
    return [
        generator_quantity(translation_axis(1), "Q1"),
        generator_quantity(translation_axis(2), "Q2"),
        generator_quantity(translation_xminus(), "Q3"),
        generator_quantity(null_rotation_t(1), "Q4"),
        generator_quantity(null_rotation_t(2), "Q5"),
        mass_shell_quantity(),
        planewave_cubic_quantity(),
    ]


def conformal_extended_set() -> list[ConservedQuantity]:
    """The five constants of inverse-square light-front masses f(u)/(x+)^2 on
    the extended phase space: the generator charges of conformal_front_set
    and the extended Hamiltonian K."""
    return conformal_front_set() + [extended_hamiltonian_quantity()]


def conformal_front_set() -> list[ConservedQuantity]:
    """The generator charges of f(u)/(x+)^2 masses evaluated on plain
    front-form states (p+ reconstructed on shell): the two null-rotation
    charges, the special conformal charge, and Lz.  The extended Hamiltonian
    is omitted since it vanishes identically on shell."""
    return [
        generator_quantity(null_rotation_t(1), "Q1"),
        generator_quantity(null_rotation_t(2), "Q2"),
        generator_quantity(special_conformal_lf(), "Q3"),
        generator_quantity(rotation_z(), "Q4"),
    ]


def poincare_set() -> list[ConservedQuantity]:
    """The ten free-particle charges: four translations, three rotations,
    three boosts."""
    gens = [time_translation(), translation_axis(1), translation_axis(2),
            translation_axis(3), rotation_x(), rotation_y(), rotation_z(),
            boost_axis(1), boost_axis(2), boost_axis(3)]
    return [generator_quantity(g) for g in gens]


def dilation_mass_set() -> list[ConservedQuantity]:
    """Charges conserved on m^2 = const/(x.x): the two null rotations fixing
    x+ and the dilation charge."""
    return [
        generator_quantity(null_rotation_t(1), "T1.p"),
        generator_quantity(null_rotation_t(2), "T2.p"),
        generator_quantity(dilation(), "D.p"),
    ]
