"""Black-Scholes pricing and robust implied-volatility inversion.

Zero rates and dividends throughout.  Deep out-of-the-money prices are
handled in log space so that strikes many orders of magnitude below spot
still price and invert with full relative accuracy; this is the regime
the small-strike asymptotics live in.

The inversion is one safeguarded Newton loop on the log price, seeded by
the leading-order wing formula, so pricing and inversion load
scipy.special alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import log_ndtr

from atomvol.errors import DomainError, NoSolutionError, positive

__all__ = [
    "MarketSlice",
    "OptionQuote",
    "d1_d2",
    "bs_price",
    "vega",
    "implied_vol",
    "log_norm_cdf",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SIGMA_LO = 1e-9
_SIGMA_HI_START = 10.0
_SIGMA_HI_MAX = 1e9
_MAX_STEPS = 100


@dataclass(frozen=True)
class MarketSlice:
    """Fixed pricing context: spot x0 and maturity T (years)."""

    x0: float
    T: float

    def __post_init__(self):
        positive("spot", self.x0)
        positive("maturity", self.T)


@dataclass(frozen=True)
class OptionQuote:
    """A strike, an option kind ('call' or 'put') and an observed price."""

    strike: float
    kind: str
    price: float

    def __post_init__(self):
        positive("strike", self.strike)
        if self.kind not in ("call", "put"):
            raise DomainError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if not (self.price >= 0.0 and math.isfinite(self.price)):
            raise DomainError(f"price must be nonnegative, got {self.price}")


def log_norm_cdf(x):
    """log N(x), accurate far into the left tail where N(x) underflows."""
    return log_ndtr(x)


def d1_d2(market: MarketSlice, strike: float, sigma: float) -> tuple[float, float]:
    """The d1, d2 arguments of the Black-Scholes formula; d1 - d2 = sigma*sqrt(T).

    log(x0/K) is taken as log(x0) - log(K) only where x0/K under- or
    overflows, so that every other moneyness keeps its bits.
    """
    K = positive("strike", strike)
    st = positive("sigma", sigma) * math.sqrt(market.T)
    ratio = market.x0 / K
    log_m = math.log(ratio) if 0.0 < ratio < math.inf else math.log(market.x0) - math.log(K)
    d1 = (log_m + 0.5 * st * st) / st
    return d1, d1 - st


def _log_otm_price(market: MarketSlice, strike: float, sigma: float) -> float:
    """log of the out-of-the-money option price (put if K <= x0, else call).

    Both Gaussian tails enter through log_norm_cdf and the near-equal
    difference is taken with expm1, so the result keeps full relative
    accuracy even when the price itself is far below double underflow.
    Returns -inf when the price underflows: when both tails are -inf, or
    when the expm1 step underflows entirely.
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
    if lead == -math.inf:
        # both tails underflow, and -inf - -inf would be nan
        return -math.inf
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
    strictly increasing in sigma.  After a bracket expanded from [1e-9, 10],
    one safeguarded Newton loop (rtsafe, Numerical Recipes 9.4) starts from
    the leading-order wing formula: each step prices once, narrows the
    bracket by the sign of the residual, and bisects where the Newton step
    would leave it.  It stops at a log-price residual below 1e-14 or a step
    below 1e-15 sigma.
    Raises NoSolutionError for prices at or outside the no-arbitrage
    interval (at/below intrinsic, at/above the x0 or K upper bound), for a
    price not attainable inside [1e-9, 1e9] and for a search that does not
    converge in 100 steps.
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

    lo, hi = _SIGMA_LO, _SIGMA_HI_START
    if _log_otm_price(market, K, lo) >= log_target:
        raise NoSolutionError("price is not attainable above sigma = 1e-9")
    while _log_otm_price(market, K, hi) < log_target:
        hi *= 2.0
        if hi > _SIGMA_HI_MAX:
            raise NoSolutionError("price is not attainable below sigma = 1e9")

    # seed: sqrt(2/T) [sqrt(log(max(x0, K)/P)) - sqrt(log(min(x0, K)/P))]
    near, far = sorted((math.log(market.x0) - log_target, math.log(K) - log_target))
    sigma = math.sqrt(2.0 / market.T) * (math.sqrt(far) - math.sqrt(near))
    if not lo < sigma < hi:
        sigma = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        log_price = _log_otm_price(market, K, sigma)
        resid = log_price - log_target
        if abs(resid) < 1e-14:
            return sigma
        if resid < 0.0:
            lo = sigma
        else:
            hi = sigma
        # the step -resid P / vega; a capped exponent still steps past any
        # bracket, so a vanishing vega bisects instead of overflowing
        step = -resid * math.exp(min(log_price - _log_vega(market, K, sigma), 700.0))
        new = sigma + step if lo < sigma + step < hi else 0.5 * (lo + hi)
        if abs(new - sigma) <= 1e-15 * new:
            return new
        sigma = new
    raise NoSolutionError(f"no implied volatility within {_MAX_STEPS} steps; last sigma = {sigma}")
