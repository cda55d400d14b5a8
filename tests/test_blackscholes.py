"""Pricing layer: d1/d2 algebra, price limits, parity, and the inversion
contract down to strikes twelve log-units below spot."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

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


class TestVega:
    def test_matches_finite_difference(self):
        market = MarketSlice(x0=1.0, T=1.2)
        K, sigma, h = 0.6, 0.5, 1e-6
        fd = (
            bs_price(market, K, sigma + h, "call") - bs_price(market, K, sigma - h, "call")
        ) / (2.0 * h)
        assert vega(market, K, sigma) == pytest.approx(fd, rel=1e-8)
