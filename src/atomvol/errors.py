"""Exception types shared across the library, and the input rules that
raise them: each rule is stated here once and called by every public
entry point it applies to."""

import math
import operator


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


def positive(name: str, v):
    """v, checked finite and > 0; DomainError otherwise, nan included."""
    if not 0.0 < v < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {v}")
    return v


def positive_check(name: str, v):
    """The rule of positive over a flat float array v, as a (mask, error) check for refuse."""
    return ~((0.0 < v) & (v < math.inf)), lambda: positive(name, v[0])


def integer(name: str, v):
    """v as an int, checked to be an integer (a value operator.index takes,
    bool excluded); DomainError otherwise, so 1.5 and nan never truncate."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {v!r}")


def unit(name: str, v):
    """v, checked inside the open interval (0, 1): DomainBelowError at or
    below 0, DomainAboveError at or above 1, DomainError for nan."""
    if not 0.0 < v < 1.0:
        error = DomainBelowError if v <= 0.0 else DomainAboveError if v >= 1.0 else DomainError
        raise error(f"{name} must lie in (0, 1), got {v}")
    return v


def refuse(shape, out, checks):
    """The flat array out in the caller's shape, NaN where the mask of a (mask,
    error) check holds; a 0-d call (shape ()) raises the first such error."""
    if shape == ():
        for bad, error in checks:
            if bad[0]:
                raise error()
        return float(out[0])
    for bad, _ in checks:
        out[bad] = math.nan
    return out.reshape(shape)
