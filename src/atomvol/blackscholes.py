"""Black-Scholes pricing and robust implied-volatility inversion.

Zero rates and dividends throughout.  Deep out-of-the-money prices are
handled in log space so that strikes many orders of magnitude below spot
still price and invert with full relative accuracy; this is the regime
the small-strike asymptotics live in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from atomvol.errors import DomainError, NoSolutionError
from atomvol.specfun import log_norm_cdf

__all__ = [
    "MarketSlice",
    "OptionQuote",
    "d1_d2",
    "bs_price",
    "vega",
    "implied_vol",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SIGMA_LO = 1e-9
_SIGMA_HI_START = 10.0
_SIGMA_HI_MAX = 1e9


@dataclass(frozen=True)
class MarketSlice:
    """Fixed pricing context: spot x0 and maturity T (years)."""

    x0: float
    T: float

    def __post_init__(self):
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise DomainError(f"spot must be positive, got {self.x0}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"maturity must be positive, got {self.T}")


@dataclass(frozen=True)
class OptionQuote:
    """A strike, an option kind ('call' or 'put') and an observed price."""

    strike: float
    kind: str
    price: float

    def __post_init__(self):
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive, got {self.strike}")
        if self.kind not in ("call", "put"):
            raise DomainError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if not (self.price >= 0.0 and math.isfinite(self.price)):
            raise DomainError(f"price must be nonnegative, got {self.price}")


def d1_d2(market: MarketSlice, strike: float, sigma: float) -> tuple[float, float]:
    """The d1, d2 arguments of the Black-Scholes formula; d1 - d2 = sigma*sqrt(T)."""
    if not 0.0 < strike < math.inf:  # also refuses nan
        raise DomainError(f"strike must be positive and finite, got {strike}")
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    st = sigma * math.sqrt(market.T)
    d1 = (math.log(market.x0 / strike) + 0.5 * st * st) / st
    return d1, d1 - st


def _log_otm_price(market: MarketSlice, strike: float, sigma: float) -> float:
    """log of the out-of-the-money option price (put if K <= x0, else call).

    Both Gaussian tails enter through log_norm_cdf and the near-equal
    difference is taken with expm1, so the result keeps full relative
    accuracy even when the price itself is far below double underflow.
    Returns -inf when the price underflows the expm1 step entirely.
    """
    d1, d2 = d1_d2(market, strike, sigma)
    if strike <= market.x0:
        # put: K N(-d2) - x0 N(-d1)
        lead = math.log(strike) + log_norm_cdf(-d2)
        other = math.log(market.x0) + log_norm_cdf(-d1)
    else:
        # call: x0 N(d1) - K N(d2)
        lead = math.log(market.x0) + log_norm_cdf(d1)
        other = math.log(strike) + log_norm_cdf(d2)
    gap = other - lead
    if gap >= 0.0:
        return -math.inf
    return lead + math.log(-math.expm1(gap))


def bs_price(market: MarketSlice, strike: float, sigma: float, kind: str = "call") -> float:
    """Black-Scholes price x0*N(d1) - K*N(d2) for calls, puts via parity."""
    if kind not in ("call", "put"):
        raise DomainError(f"kind must be 'call' or 'put', got {kind!r}")
    otm = math.exp(_log_otm_price(market, strike, sigma))
    if strike <= market.x0:
        return otm + market.x0 - strike if kind == "call" else otm
    return otm if kind == "call" else otm + strike - market.x0


def vega(market: MarketSlice, strike: float, sigma: float) -> float:
    """dPrice/dsigma = x0 * phi(d1) * sqrt(T); same for calls and puts."""
    d1, _ = d1_d2(market, strike, sigma)
    return market.x0 * math.sqrt(market.T) * math.exp(-0.5 * d1 * d1 - 0.5 * _LOG_2PI)


def _log_vega(market: MarketSlice, strike: float, sigma: float) -> float:
    d1, _ = d1_d2(market, strike, sigma)
    return math.log(market.x0 * math.sqrt(market.T)) - 0.5 * d1 * d1 - 0.5 * _LOG_2PI


def implied_vol(market: MarketSlice, quote: OptionQuote) -> float:
    """Invert a call or put price to its Black-Scholes volatility.

    Root-finding runs on the log of the out-of-the-money price, which is
    strictly increasing in sigma; Brent over a bracket expanded from
    [1e-9, 10] is followed by a few Newton polish steps in log space.
    Raises NoSolutionError for prices at or outside the no-arbitrage
    interval (at/below intrinsic, at/above the x0 or K upper bound).
    """
    K, price = quote.strike, quote.price
    if quote.kind == "call":
        intrinsic, upper = max(market.x0 - K, 0.0), market.x0
    else:
        intrinsic, upper = max(K - market.x0, 0.0), K
    if price <= intrinsic:
        raise NoSolutionError(
            f"{quote.kind} price {price} at or below intrinsic {intrinsic}"
        )
    if price >= upper:
        raise NoSolutionError(
            f"{quote.kind} price {price} at or above upper bound {upper}"
        )

    # move to the OTM side (parity leaves the implied volatility unchanged)
    if K <= market.x0:
        target = price if quote.kind == "put" else price - (market.x0 - K)
    else:
        target = price if quote.kind == "call" else price - (K - market.x0)
    if target <= 0.0:
        raise NoSolutionError(
            f"{quote.kind} price {price} is at intrinsic after parity transfer"
        )
    log_target = math.log(target)

    def objective(sigma: float) -> float:
        return _log_otm_price(market, K, sigma) - log_target

    lo, hi = _SIGMA_LO, _SIGMA_HI_START
    if objective(lo) >= 0.0:
        raise NoSolutionError("price is not attainable above sigma = 1e-9")
    f_hi = objective(hi)
    while f_hi < 0.0:
        hi *= 2.0
        if hi > _SIGMA_HI_MAX:
            raise NoSolutionError("price is not attainable below sigma = 1e9")
        f_hi = objective(hi)

    # scipy.optimize is imported here, off the CLI's import path
    from scipy.optimize import brentq

    sigma = brentq(objective, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)

    # Newton polish in log-price space recovers the last couple of digits
    # that the bracketing tolerance leaves on the table.
    for _ in range(3):
        resid = objective(sigma)
        if abs(resid) < 1e-14:
            break
        step = -resid * math.exp(
            _log_otm_price(market, K, sigma) - _log_vega(market, K, sigma)
        )
        candidate = sigma + step
        if not (0.0 < candidate < _SIGMA_HI_MAX) or not math.isfinite(candidate):
            break
        sigma = candidate
    return sigma
