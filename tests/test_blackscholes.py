"""Pricing layer: d1/d2 algebra, price limits, parity, and the inversion
contract down to strikes twelve log-units below spot."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

import atomvol.blackscholes as blackscholes
from atomvol.blackscholes import _log_otm_price

from atomvol import (
    MarketSlice,
    OptionQuote,
    bs_price,
    d1_d2,
    implied_vol,
    norm_cdf,
    vega,
)
from atomvol.errors import DomainError, NoSolutionError


def lognormal_call_quadrature(x0, K, T, sigma):
    """Independent call price: quadrature of the lognormal payoff."""
    z_star = (math.log(K / x0) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))

    def integrand(z):
        xt = x0 * math.exp(sigma * math.sqrt(T) * z - 0.5 * sigma * sigma * T)
        return (xt - K) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    value, _ = quad(integrand, z_star, 40.0, epsabs=1e-14, epsrel=1e-12, limit=300)
    return value


class TestD1D2:
    def test_at_the_money(self):
        market = MarketSlice(x0=2.0, T=0.7)
        sigma = 0.4
        d1, d2 = d1_d2(market, 2.0, sigma)
        st = sigma * math.sqrt(0.7)
        assert d1 == pytest.approx(st / 2.0, rel=1e-15)
        assert d2 == pytest.approx(-st / 2.0, rel=1e-15)

    def test_difference_identity(self):
        market = MarketSlice(x0=1.0, T=2.3)
        for K in [0.01, 0.4, 1.0, 3.0]:
            for sigma in [0.05, 0.6, 2.0]:
                d1, d2 = d1_d2(market, K, sigma)
                assert d1 - d2 == pytest.approx(sigma * math.sqrt(2.3), rel=1e-14)

    def test_direct_evaluation(self):
        # frozen: d1 = 3.2733140653659365886, d2 = 3.0542250423638701432
        d1, d2 = d1_d2(MarketSlice(x0=1.0, T=1.2), 0.5, 0.2)
        assert d1 == pytest.approx(3.2733140653659366, rel=1e-14)
        assert d2 == pytest.approx(3.0542250423638701, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            d1_d2(MarketSlice(1.0, 1.0), -1.0, 0.2)

    @pytest.mark.parametrize("fn", [d1_d2, bs_price, vega])
    @pytest.mark.parametrize(
        "strike, sigma",
        [(math.nan, 0.2), (math.inf, 0.2), (0.5, math.nan), (0.5, math.inf)],
    )
    def test_non_finite_input_raises(self, fn, strike, sigma):
        with pytest.raises(DomainError):
            fn(MarketSlice(1.0, 1.0), strike, sigma)


class TestBsPrice:
    def test_small_sigma_limit(self):
        market = MarketSlice(x0=1.0, T=1.0)
        assert bs_price(market, 0.4, 1e-8, "call") == pytest.approx(0.6, abs=1e-12)
        assert bs_price(market, 0.4, 1e-8, "put") == pytest.approx(0.0, abs=1e-12)

    def test_at_the_money_closed_form(self):
        market = MarketSlice(x0=1.7, T=0.9)
        sigma = 0.45
        expected = 1.7 * (2.0 * norm_cdf(sigma * math.sqrt(0.9) / 2.0) - 1.0)
        assert bs_price(market, 1.7, sigma, "call") == pytest.approx(expected, rel=1e-13)

    def test_value_vs_payoff_quadrature(self):
        # frozen from the quadrature oracle: 0.4391992288543793696
        price = bs_price(MarketSlice(x0=1.0, T=1.2), 0.6, 0.5, "call")
        assert price == pytest.approx(0.43919922885437937, rel=1e-13)
        assert price == pytest.approx(
            lognormal_call_quadrature(1.0, 0.6, 1.2, 0.5), rel=1e-10
        )

    def test_deep_in_the_money_put_where_moneyness_underflows(self):
        # x0/K = 1e-400 underflows to 0, so d1 takes log(x0) - log(K)
        market = MarketSlice(1e-200, 1.0)
        assert bs_price(market, 1e200, 0.2, "put") == pytest.approx(1e200 - 1e-200, rel=1e-15)
        assert vega(market, 1e200, 0.2) == 0.0

    def test_put_call_parity(self):
        market = MarketSlice(x0=1.3, T=2.0)
        for K in [0.2, 0.9, 1.3, 2.5]:
            for sigma in [0.1, 0.7, 1.9]:
                c = bs_price(market, K, sigma, "call")
                p = bs_price(market, K, sigma, "put")
                assert c - p == pytest.approx(1.3 - K, rel=1e-14, abs=1e-14)

    def test_monotone_in_sigma(self):
        # checked on the out-of-the-money side, which is what the
        # bracketed inversion runs on; the in-the-money side saturates
        # at intrinsic once the OTM component underflows
        market = MarketSlice(x0=1.0, T=1.0)
        sigmas = np.linspace(0.01, 3.0, 80)
        prices = [bs_price(market, 0.8, s, "put") for s in sigmas]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_call_inside_static_bounds(self):
        market = MarketSlice(x0=1.0, T=1.5)
        for K in [0.3, 1.0, 2.0]:
            c = bs_price(market, K, 0.6, "call")
            assert max(1.0 - K, 0.0) < c < 1.0


class TestImpliedVol:
    def test_round_trip_grid(self):
        for T in [0.1, 1.2, 5.0]:
            market = MarketSlice(x0=1.0, T=T)
            for log_m in [-8.0, -3.0, -0.1, 0.0]:
                K = math.exp(log_m)
                for sigma in [0.05, 0.3, 1.0, 2.5]:
                    price = bs_price(market, K, sigma, "put")
                    if not (0.0 < price < K):
                        continue
                    result = implied_vol(market, OptionQuote(K, "put", price))
                    assert result == pytest.approx(sigma, abs=1e-9)

    def test_call_side_round_trip(self):
        market = MarketSlice(x0=1.0, T=0.8)
        for K in [1.5, 4.0, 30.0]:
            for sigma in [0.2, 1.1]:
                for kind in ("call", "put"):
                    price = bs_price(market, K, sigma, kind)
                    intrinsic = max(1.0 - K, 0.0) if kind == "call" else max(K - 1.0, 0.0)
                    upper = 1.0 if kind == "call" else K
                    if not (intrinsic < price < upper):
                        continue  # ITM price saturated at intrinsic in floats
                    result = implied_vol(market, OptionQuote(K, kind, price))
                    assert result == pytest.approx(sigma, abs=1e-9)

    @given(k=st.floats(-50.0, 5.0), vol_t=st.floats(1e-3, 10.0), T=st.floats(0.1, 5.0))
    def test_round_trip_property(self, k, vol_t, T):
        # the out-of-the-money side: a put at or below spot, a call above it
        market, K, sigma = MarketSlice(x0=1.0, T=T), math.exp(k), vol_t / math.sqrt(T)
        kind = "put" if k <= 0.0 else "call"
        price = bs_price(market, K, sigma, kind)
        # a subnormal price has already lost bits: at k = -4.40 and
        # sigma sqrt(T) = 0.115 the put is 5e-324, the smallest subnormal,
        # and its inverse misses sigma by 5.5e-5 relative
        assume(price >= sys.float_info.min)
        result = implied_vol(market, OptionQuote(K, kind, price))
        assert result == pytest.approx(sigma, rel=1e-9, abs=0.0), (k, vol_t, T, price)

    def test_deep_wing_tiny_price(self):
        # worst case from the sampling study: price ~ 3e-183
        market = MarketSlice(x0=1.0, T=0.1)
        sigma = 0.5375713593610776
        K = 0.007764269433022561
        price = bs_price(market, K, sigma, "put")
        assert 0.0 < price < 1e-150
        assert implied_vol(market, OptionQuote(K, "put", price)) == pytest.approx(
            sigma, abs=1e-10
        )

    def test_no_solution_at_boundaries(self):
        market = MarketSlice(x0=1.0, T=1.0)
        with pytest.raises(NoSolutionError):
            implied_vol(market, OptionQuote(2.0, "put", 1.0))  # intrinsic exactly
        with pytest.raises(NoSolutionError):
            implied_vol(market, OptionQuote(0.5, "call", 0.5))  # at intrinsic
        with pytest.raises(NoSolutionError):
            implied_vol(market, OptionQuote(0.5, "put", 0.5))  # at upper bound K
        with pytest.raises(NoSolutionError):
            implied_vol(market, OptionQuote(0.5, "call", 1.0))  # at upper bound x0
        with pytest.raises(NoSolutionError):
            implied_vol(market, OptionQuote(0.9, "put", 0.0))

    def test_both_tails_underflowing_is_no_solution_without_warning(self):
        # at sigma*sqrt(T) ~ 1e-159 both log tails of the put are -inf;
        # their difference was nan, with a numpy RuntimeWarning
        market = MarketSlice(1.0, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _log_otm_price(market, 0.5, 1e-9) == -math.inf
            with pytest.raises(NoSolutionError):
                implied_vol(market, OptionQuote(0.5, "put", 0.1))

    def test_scale_invariance(self):
        base = MarketSlice(x0=1.0, T=1.2)
        K, sigma = 0.05, 0.8
        price = bs_price(base, K, sigma, "put")
        reference = implied_vol(base, OptionQuote(K, "put", price))
        for lam in [1e-3, 7.0, 1e4]:
            scaled = implied_vol(
                MarketSlice(x0=lam, T=1.2),
                OptionQuote(lam * K, "put", lam * price),
            )
            assert scaled == pytest.approx(reference, abs=1e-10)

    def test_reprice_accuracy(self):
        market = MarketSlice(x0=1.0, T=1.2)
        K = 0.05
        price = 0.0031  # strictly inside (0, K)
        sigma = implied_vol(market, OptionQuote(K, "put", price))
        assert bs_price(market, K, sigma, "put") == pytest.approx(price, rel=1e-12)

    def test_round_trip_grid_prices_fewer_times(self, monkeypatch):
        # test_round_trip_grid's 42 quotes took 606 prices with Brent and its
        # Newton polish; the safeguarded Newton loop takes 421
        quotes = []
        for T in [0.1, 1.2, 5.0]:
            market = MarketSlice(x0=1.0, T=T)
            for log_m in [-8.0, -3.0, -0.1, 0.0]:
                K = math.exp(log_m)
                for sigma in [0.05, 0.3, 1.0, 2.5]:
                    price = bs_price(market, K, sigma, "put")
                    if 0.0 < price < K:
                        quotes.append((market, OptionQuote(K, "put", price)))
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_otm_price(*args)

        monkeypatch.setattr(blackscholes, "_log_otm_price", counted)
        for market, quote in quotes:
            implied_vol(market, quote)
        assert len(quotes) == 42
        assert len(calls) < 606

    @pytest.mark.parametrize(
        "market, quote, message",
        [
            (MarketSlice(1.0, 1.0), OptionQuote(1.0, "put", 1e-12), "above sigma = 1e-9"),
            (MarketSlice(1.0, 1e-20), OptionQuote(1.0, "put", 0.9999999), "below sigma = 1e9"),
            (MarketSlice(1.0, 1e-20), OptionQuote(1.0, "call", 0.9999999), "below sigma = 1e9"),
        ],
    )
    def test_price_not_attainable(self, market, quote, message):
        with pytest.raises(NoSolutionError, match=f"not attainable {message}"):
            implied_vol(market, quote)

    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_long_maturity_steps_where_vega_vanishes(self, K):
        # the at-the-money seed is 0, so the loop starts at the bracket's
        # midpoint 5, where sigma sqrt(T) = 500 and P / vega overflows a double
        market = MarketSlice(x0=1.0, T=1e4)
        price = bs_price(market, K, 0.01, "put")
        assert implied_vol(market, OptionQuote(K, "put", price)) == pytest.approx(0.01, rel=1e-12)


class TestVega:
    def test_matches_finite_difference(self):
        market = MarketSlice(x0=1.0, T=1.2)
        K, sigma, h = 0.6, 0.5, 1e-6
        fd = (
            bs_price(market, K, sigma + h, "call") - bs_price(market, K, sigma - h, "call")
        ) / (2.0 * h)
        assert vega(market, K, sigma) == pytest.approx(fd, rel=1e-8)
