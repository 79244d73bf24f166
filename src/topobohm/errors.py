"""Exception hierarchy.

The three failure families map onto the batch runner's exit codes:
config/schema problems (2), physics incompatibilities (3), and numerical
tolerance breaches (4).  Any other exception is an internal error (5).
"""


class TopobohmError(Exception):
    pass


class ConfigError(TopobohmError):
    """Bad scenario config: schema violation, unknown field, bad value."""

    def __init__(self, message, field_path=None):
        super().__init__(message)
        self.field_path = field_path


class PhysicsError(TopobohmError):
    """The requested setup is not a valid dynamics (not a numerics issue)."""


class NonUnimodularFactorError(PhysicsError):
    """A phase factor off the unit circle has no equivariant |psi|^2 density."""


class IncompatibleFactorError(PhysicsError):
    """Factor fails the gate: it must commute with the potential at every
    configuration point, else the periodicity condition is not preserved."""


class ToleranceError(TopobohmError):
    """A numerical invariant was violated beyond its tolerance."""

    def __init__(self, invariant, residual, tolerance):
        super().__init__(
            f"invariant '{invariant}' violated: residual {residual:.3e} "
            f"exceeds tolerance {tolerance:.3e}"
        )
        self.invariant = invariant
        self.residual = residual
        self.tolerance = tolerance
