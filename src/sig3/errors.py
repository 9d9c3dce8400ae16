"""Exception types shared across the package."""


class Sig3Error(Exception):
    """Base class for all errors raised by this package."""


class DomainError(Sig3Error, ValueError):
    """Argument outside the mathematical domain of the operation."""


class ConfigError(Sig3Error, ValueError):
    """Invalid grid or configuration request."""


class NonConvergence(Sig3Error, ArithmeticError):
    """An iteration or an adaptive quadrature failed to meet its tolerance within budget."""


class PoleError(Sig3Error, ArithmeticError):
    """Evaluation point is too close to a pole of the function."""
