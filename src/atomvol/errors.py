"""Exception types shared across the library."""


class AtomvolError(Exception):
    """Base class for all library errors."""


class DomainError(AtomvolError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class DomainBelowError(DomainError):
    """Argument fell below the lower edge of an inverse-function domain.

    For the strike-dependent inverse this signals that the requested
    probability level is not reachable at the given depth.
    """


class DomainAboveError(DomainError):
    """Argument reached or exceeded the upper edge of an inverse-function domain."""


class NoSolutionError(AtomvolError, ValueError):
    """A quoted price admits no Black-Scholes volatility.

    Raised when the price sits at or outside the static no-arbitrage
    bounds, including prices that underflow to the intrinsic value.
    """


class QuadratureError(AtomvolError, RuntimeError):
    """An oracle integral failed: a quadrature missed its tolerance or a
    series would need more terms than allowed."""


class ConfigError(AtomvolError, ValueError):
    """Invalid run configuration."""
