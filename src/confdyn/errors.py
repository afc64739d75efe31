"""Exception types shared across the package."""


class ConfdynError(Exception):
    """Base class for all package-specific errors."""


class RealityError(ConfdynError):
    """A squared mass was sampled at a negative value.

    Backgrounds must satisfy m^2(x) >= 0 wherever they are evaluated; a
    negative sample means the state has left the physical region.
    """


class SingularityError(ConfdynError):
    """Evaluation hit a singular surface of a background or a flow.

    Examples: the x+ = 0 surface of inverse-square light-front masses,
    the light cone x.x = 0 of the dilation-symmetric mass, p- = 0 in the
    front form where the Hamiltonian degenerates, or m = 0 in the covariant
    form, where the momentum m u vanishes.
    """


class DomainError(ConfdynError):
    """A point (or a finite-difference stencil around it) left the
    declared domain of a background or wavefunction."""


class ConfigError(ConfdynError):
    """Invalid or inconsistent run configuration."""
