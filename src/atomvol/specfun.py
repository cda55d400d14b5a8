"""Special functions used by the pricing and asymptotics layers.

Thin, guarded wrappers around the mature scipy.special implementations:
standard normal CDF and its inverse, the regularized lower and upper
incomplete gamma functions, and the modified Bessel function of the
first kind in exponentially scaled form.  The wing formulas subtract nearly equal
quantities, so everything here is kept at full double accuracy and the
Bessel function is always exposed through its scaled product to avoid
overflow at large argument.
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
    "bessel_i_scaled",
    "bessel_i",
    "log_bessel_i",
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
    interval.  Round-trips through norm_cdf to better than 1e-12 in p.
    """
    p = float(p)
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


def _check_bessel_order(order: float) -> float:
    order = float(order)
    if order < 0.0 and order == math.floor(order):
        raise DomainError(
            f"bessel order must not be a negative integer, got {order}"
        )
    return order


def bessel_i_scaled(order: float, argument: float) -> float:
    """Exponentially scaled modified Bessel function e^(-x) * I_order(x).

    The scaled product stays bounded as x grows, which is what the CEV
    density needs; the unscaled value is recoverable via bessel_i when
    it does not overflow.
    """
    order = _check_bessel_order(order)
    argument = float(argument)
    if argument < 0.0:
        raise DomainError(f"bessel argument must be >= 0, got {argument}")
    if argument == 0.0:
        # ive(0, 0) = 1; positive orders vanish, negative fractional blow up
        if order == 0.0:
            return 1.0
        if order > 0.0:
            return 0.0
        return math.inf
    return float(_sp.ive(order, argument))


def bessel_i(order: float, argument: float) -> float:
    """Unscaled modified Bessel function I_order(x); may overflow for large x."""
    return bessel_i_scaled(order, argument) * math.exp(float(argument))


def log_bessel_i(order: float, argument: float) -> float:
    """log I_order(x) for x > 0, computed from the scaled form."""
    order = _check_bessel_order(order)
    argument = float(argument)
    if argument <= 0.0:
        raise DomainError(f"log_bessel_i requires argument > 0, got {argument}")
    scaled = _sp.ive(order, argument)
    if scaled <= 0.0:
        return -math.inf
    return math.log(scaled) + argument
