"""Special functions used by the pricing and asymptotics layers.

Thin, guarded wrappers around the mature scipy.special implementations:
standard normal CDF and its inverse, and the regularized lower and upper
incomplete gamma functions.  The wing formulas subtract nearly equal
quantities, so everything here is kept at full double accuracy.
"""

from __future__ import annotations

import math

from scipy import special as _sp

from atomvol.errors import DomainAboveError, DomainBelowError, DomainError

__all__ = [
    "norm_cdf",
    "norm_cdf_inv",
    "log_norm_cdf",
    "reg_inc_gamma",
    "reg_inc_gamma_upper",
]


def norm_cdf(x):
    """Standard normal cumulative distribution function N(x).

    Evaluated through the complementary error function; saturates at 0
    and 1 in the extreme tails instead of raising.
    """
    return _sp.ndtr(x)


def log_norm_cdf(x):
    """log N(x), accurate far into the left tail where N(x) underflows."""
    return _sp.log_ndtr(x)


def norm_cdf_inv(p: float) -> float:
    """Inverse of the standard normal CDF.

    Raises DomainBelowError / DomainAboveError outside the open unit
    interval and DomainError for nan.  Round-trips through norm_cdf to
    better than 1e-12 in p.
    """
    p = float(p)
    if math.isnan(p):
        raise DomainError("norm_cdf_inv requires a level, got nan")
    if p <= 0.0:
        raise DomainBelowError(f"norm_cdf_inv requires p > 0, got {p}")
    if p >= 1.0:
        raise DomainAboveError(f"norm_cdf_inv requires p < 1, got {p}")
    return float(_sp.ndtri(p))


def _check_gamma_args(name: str, a: float, y: float) -> tuple[float, float]:
    a = float(a)
    y = float(y)
    if a <= 0.0:
        raise DomainError(f"{name} requires shape a > 0, got {a}")
    if y < 0.0:
        raise DomainError(f"{name} requires y >= 0, got {y}")
    return a, y


def reg_inc_gamma(a: float, y: float) -> float:
    """Regularized lower incomplete gamma function P(a, y).

    P(a, y) = (1/Gamma(a)) * integral_0^y t^(a-1) e^(-t) dt, nondecreasing
    in y with limit 1 as y -> infinity.
    """
    a, y = _check_gamma_args("reg_inc_gamma", a, y)
    return float(_sp.gammainc(a, y))


def reg_inc_gamma_upper(a: float, y: float) -> float:
    """Regularized upper incomplete gamma function Q(a, y) = 1 - P(a, y).

    Evaluated directly, not as 1 - reg_inc_gamma(a, y), so it keeps full
    relative accuracy where Q is far below the double epsilon.
    """
    a, y = _check_gamma_args("reg_inc_gamma_upper", a, y)
    return float(_sp.gammaincc(a, y))
