"""CEV distribution backend against high-precision frozen oracles
(40-digit quadrature and Bessel series) and its own consistency laws:
normalization, martingale property, and small-strike asymptotes.  The
Poisson-Gamma series behind put_price and p_tilde is also checked
against the independent density quadrature."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import atomvol.cev as cev
from atomvol import CevModel, CevParams, g_from_put, sigma_for_mass
from atomvol.errors import DomainError, QuadratureError

# configuration B: moderate parameters with closed-form mass e^{-8}
PARAMS_B = CevParams(s0=1.0, sigma=0.5, rho=0.5, T=1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            CevParams(s0=-1.0, sigma=0.2, rho=0.6, T=1.2)
        with pytest.raises(DomainError):
            CevParams(s0=1.0, sigma=0.2, rho=1.0, T=1.2)
        with pytest.raises(DomainError):
            CevParams(s0=1.0, sigma=-0.1, rho=0.5, T=1.2)
        with pytest.raises(DomainError):
            CevParams(s0=1.0, sigma=0.2, rho=0.5, T=0.0)

    def test_beta_alias(self):
        params = CevParams.from_mapping(
            {"s0": 0.05, "sigma": 0.2, "beta": 0.6, "T": 1.2}
        )
        assert params.rho == 0.6
        with pytest.raises(DomainError):
            CevParams.from_mapping(
                {"s0": 0.05, "sigma": 0.2, "beta": 0.6, "rho": 0.5, "T": 1.2}
            )

    def test_sigma_zero_allowed_but_not_for_distribution(self):
        params = CevParams(s0=1.0, sigma=0.0, rho=0.5, T=1.0)
        with pytest.raises(DomainError):
            CevModel(params)

    def test_sigma_whose_square_underflows(self):
        # sigma**2 rounds to 0, so the exponent scale 1/(2 T sigma^2 (1-rho)^2) has no value
        params = CevParams(s0=0.05, sigma=1e-200, rho=0.6, T=1.2)
        with pytest.raises(DomainError):
            CevModel(params)

    def test_sigma_whose_square_overflows(self):
        # sigma**2 raises OverflowError; the scale is refused as infinite
        params = CevParams(s0=0.05, sigma=1e200, rho=0.6, T=1.2)
        with pytest.raises(DomainError, match="CEV scale"):
            CevModel(params)

    def test_spot_whose_power_overflows(self):
        # s0**(2(1-rho)) raises OverflowError, refused as a domain error
        params = CevParams(s0=1e308, sigma=626.77, rho=0.2504, T=4.93e-5)
        with pytest.raises(DomainError, match="overflows"):
            CevModel(params)


class TestMass:
    def test_documented_parameter_set(self, printed_model):
        # frozen 40-digit value for (0.05, 0.2, 0.6, 1.2): 0.00476747762811308294
        assert printed_model.mass == pytest.approx(4.76747762811308294e-3, rel=1e-11)

    def test_short_maturity_limit(self):
        params = CevParams(s0=0.05, sigma=0.2, rho=0.6, T=1e-4)
        assert CevModel(params).mass < 1e-12

    def test_unit_shape_closed_form(self):
        # rho = 1/2 makes the gamma shape 1, so the mass is exp(-argument)
        assert CevModel(PARAMS_B).mass == pytest.approx(math.exp(-8.0), rel=1e-12)
        params = CevParams(s0=1.0, sigma=1.0, rho=0.5, T=1.0)
        assert CevModel(params).mass == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_mass_in_unit_interval(self, reference_model):
        assert 0.0 < reference_model.mass < 1.0

    def test_tiny_mass_without_cancellation(self):
        # 60-digit oracles of Q(nu, lambda); 1 - P(nu, lambda) loses them
        params = CevParams(s0=1.0, sigma=0.3, rho=0.8, T=1.0)
        assert CevModel(params).mass == pytest.approx(
            5.9754262674746354e-58, rel=1e-13, abs=0.0
        )
        params = CevParams(s0=1.0, sigma=0.3, rho=0.5, T=1.0)
        assert CevModel(params).mass == pytest.approx(
            2.2336314362031661e-10, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize(
        "mass, rho, s0, T", [(0.0707, 0.6, 0.05, 1.2), (0.3, 0.45, 0.05, 1.2), (1e-6, 0.8, 2.0, 0.5)]
    )
    def test_sigma_for_mass_round_trip(self, mass, rho, s0, T):
        sigma = sigma_for_mass(mass, rho, s0, T)
        assert CevModel(CevParams(s0=s0, sigma=sigma, rho=rho, T=T)).mass == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize("mass, rho", [(0.0, 0.6), (1.0, 0.6), (math.nan, 0.6), (0.1, 1.0)])
    def test_sigma_for_mass_domain(self, mass, rho):
        with pytest.raises(DomainError):
            sigma_for_mass(mass, rho)


class TestDensity:
    def test_frozen_values_at_spot(self, printed_model):
        # 40-digit oracles: 10.369872585853168 and 0.77879691805174466
        assert printed_model.density(0.05) == pytest.approx(
            10.369872585853168, rel=1e-11
        )
        assert CevModel(PARAMS_B).density(1.0) == pytest.approx(
            0.77879691805174466, rel=1e-11
        )

    def test_positive_and_continuous(self, printed_model):
        xs = np.geomspace(1e-10, 1.0, 200)
        values = printed_model.density(xs)
        assert np.all(values > 0.0)
        assert np.all(np.isfinite(values))

    def test_small_x_asymptote(self, printed_model):
        c_tilde = printed_model.small_x_constant()
        rho = printed_model.params.rho
        x = 1e-8
        ratio = printed_model.density(x) / (c_tilde * x ** (1.0 - 2.0 * rho))
        assert abs(ratio - 1.0) <= 1e-4

    def test_rho_half_flat_near_zero(self):
        model = CevModel(PARAMS_B)
        c_tilde = model.small_x_constant()
        for x in [1e-8, 1e-10]:
            assert model.density(x) == pytest.approx(c_tilde, rel=1e-4)

    def test_domain(self, printed_model):
        with pytest.raises(DomainError):
            printed_model.density(0.0)
        with pytest.raises(DomainError):
            printed_model.density(-1.0)
        for x in [math.nan, np.array([1e-3, math.nan])]:
            with pytest.raises(DomainError):
                printed_model.density(x)
            with pytest.raises(DomainError):
                printed_model.log_density(x)


class TestSmallXConstant:
    def test_frozen_values(self, printed_model):
        # 40-digit oracles: 1.1341811485318493 and 0.0214696081857607577
        assert printed_model.small_x_constant() == pytest.approx(
            1.1341811485318493, rel=1e-12
        )
        assert CevModel(PARAMS_B).small_x_constant() == pytest.approx(
            0.0214696081857607577, rel=1e-12
        )

    def test_consistency_with_density(self, reference_model):
        rho = reference_model.params.rho
        x = 1e-8
        limit = reference_model.density(x) / x ** (1.0 - 2.0 * rho)
        assert limit == pytest.approx(reference_model.small_x_constant(), rel=1e-4)


class TestPTilde:
    def test_frozen_value(self, printed_model):
        # 40-digit oracle: p_tilde(0.01) = 0.0867606277783507101
        assert printed_model.p_tilde(0.01) == pytest.approx(
            0.0867606277783507, rel=1e-10
        )

    def test_complement_of_atom(self, printed_model):
        assert printed_model.mass + printed_model.continuous_mass() == pytest.approx(
            1.0, abs=1e-10
        )

    def test_monotone(self, printed_model):
        ks = np.geomspace(1e-4, 0.5, 25)
        values = [printed_model.p_tilde(k) for k in ks]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_strike_asymptote(self, printed_model):
        rho = printed_model.params.rho
        c_tilde = printed_model.small_x_constant()
        K = 1e-8
        predicted = c_tilde / (2.0 * (1.0 - rho)) * K ** (2.0 * (1.0 - rho))
        assert printed_model.p_tilde(K) == pytest.approx(predicted, rel=1e-4)

    def test_decay_beats_log_power(self, printed_model):
        # p_tilde(K) (log 1/K)^{3/2} -> 0 along a deep-strike sequence
        values = [
            printed_model.p_tilde(math.exp(-L)) * L**1.5 for L in (5.0, 10.0, 20.0)
        ]
        assert values[2] < values[1] < values[0]
        assert values[2] < 1e-4


class TestPutPrice:
    def test_frozen_values(self, printed_model):
        # 40-digit oracles: 6.66023411029997695e-7 and 1.02966700687673586e-5
        K6 = 0.05 * math.exp(-6.0)
        assert printed_model.put_price(K6) == pytest.approx(
            6.66023411029997695e-7, rel=1e-9
        )
        assert CevModel(PARAMS_B).put_price(math.exp(-4.0)) == pytest.approx(
            1.02966700687673586e-5, rel=1e-9
        )

    def test_atom_floor(self, printed_model):
        for k in (-2.0, -6.0, -10.0):
            K = 0.05 * math.exp(k)
            price = printed_model.put_price(K)
            assert K * printed_model.mass < price < K

    def test_small_strike_ratio(self, printed_model):
        K = 0.05 * math.exp(-30.0)
        assert printed_model.put_price(K) / K == pytest.approx(
            printed_model.mass, rel=1e-8
        )

    def test_martingale_property(self, printed_model):
        assert printed_model.first_moment() == pytest.approx(0.05, abs=1e-6 * 0.05)
        model_b = CevModel(PARAMS_B)
        assert model_b.first_moment() == pytest.approx(1.0, abs=1e-6)


class TestSeriesOracle:
    def test_frozen_values_tight(self, printed_model):
        # the same 40-digit oracles as above, at the series' accuracy
        K6 = 0.05 * math.exp(-6.0)
        assert printed_model.put_price(K6) == pytest.approx(
            6.66023411029997695e-7, rel=1e-13, abs=0.0
        )
        assert printed_model.p_tilde(0.01) == pytest.approx(
            0.0867606277783507101, rel=1e-13, abs=0.0
        )
        assert printed_model.exact_smile(K6) == pytest.approx(
            1.72920231805430213, rel=1e-12
        )

    def test_against_quadrature_grid(self):
        # sigma is drawn as an effective lognormal vol sigma * s0^(rho-1) so
        # that every spot sees a comparable law
        rng = np.random.default_rng(2026)
        compared = 0
        for i in range(48):
            rho = rng.uniform(0.05, 0.95)
            vol = rng.uniform(0.1, 1.0)
            T = rng.uniform(0.25, 2.0)
            s0 = (0.05, 1.0, 100.0)[i % 3]
            k = rng.uniform(-12.0, -0.5)
            sigma = vol * s0 ** (1.0 - rho)
            model = CevModel(CevParams(s0=s0, sigma=sigma, rho=rho, T=T))
            K = s0 * math.exp(k)
            series = model.put_price(K)
            # the scale only lifts the quadrature's absolute tolerance to
            # the size of the integral; any scale gives the same value
            scale = series - K * model.mass
            u_hi = min(K ** (2.0 * (1.0 - rho)), model._u_tail())
            try:
                cont = scale * model._quad(lambda x: (K - x) / scale, 0.0, u_hi, "put")
            except QuadratureError:
                continue
            quadrature = K * model.mass + cont
            assert series == pytest.approx(quadrature, rel=1e-9, abs=0.0), (
                rho, sigma, T, s0, k
            )
            compared += 1
        assert compared >= 40

    @given(
        rho=st.floats(0.05, 0.95),
        vol=st.floats(0.1, 1.0),
        T=st.floats(0.25, 2.0),
        s0=st.sampled_from([0.05, 1.0, 100.0]),
        ks=st.lists(st.one_of(st.floats(-12.0, -0.5), st.sampled_from([-math.inf, math.nan])),
                    min_size=1, max_size=4),
        bad=st.lists(st.sampled_from([0.0, -1.0, math.inf, math.nan]), max_size=2),
    )
    # mass and put underflow to 0 and p_tilde to 1e-318
    @example(rho=0.5, vol=0.1015625, T=0.25, s0=0.05, ks=[-7.0], bad=[])
    def test_vector_against_quadrature_and_scalar_calls(self, rho, vol, T, s0, ks, bad):
        # k = -inf is the strike 0; bad strikes are refused by a 0-d call
        # and give NaN in the vector
        model = CevModel(CevParams(s0=s0, sigma=vol * s0 ** (1.0 - rho), rho=rho, T=T))
        strikes = [s0 * math.exp(k) for k in ks] + bad
        puts, cdfs = model.put_price(np.array(strikes)), model.p_tilde(np.array(strikes))
        for K, put, cdf in zip(strikes, puts.tolist(), cdfs.tolist()):
            if not 0.0 < K < math.inf:
                assert math.isnan(put) and math.isnan(cdf)
                with pytest.raises(DomainError):
                    model.put_price(K)
                with pytest.raises(DomainError):
                    model.p_tilde(K)
                continue
            assert put == model.put_price(K) and cdf == model.p_tilde(K)
            # the integrands are scaled as in test_against_quadrature_grid,
            # by the size K p_tilde(K) of the continuous part; a part below
            # the smallest normal double has no relative accuracy left, so
            # it is integrated unscaled and compared to that absolute size
            tiny = sys.float_info.min
            scale = K * cdf if K * cdf >= tiny else 1.0
            u_hi = min(K ** (2.0 * (1.0 - rho)), model._u_tail())
            quad_put = K * model.mass + scale * model._quad(lambda x: (K - x) / scale, 0.0, u_hi, "put")
            quad_cdf = scale / K * model._quad(lambda x: K / scale, 0.0, u_hi, "p_tilde")
            assert put == pytest.approx(quad_put, rel=1e-9, abs=tiny)
            assert cdf == pytest.approx(quad_cdf, rel=1e-9, abs=tiny)

    def test_refused_strike_in_an_array_raises_no_warning(self):
        # the mass underflows to 0, and the put formula took inf * 0 at the
        # strike inf, warning before that cell was refused to NaN
        model = CevModel(CevParams(s0=100.0, sigma=0.125 * 100.0**0.25, rho=0.75, T=0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            put = model.put_price(np.array([100.0 * math.exp(-1.0), math.inf]))
        assert model.mass == 0.0 and math.isnan(put[1])

    def test_chunked_blocks_equal_scalar_calls(self, printed_model, monkeypatch):
        # blocks of two strikes: a chunk boundary moves no bit, and the
        # caller's shape comes back
        model = CevModel(printed_model.params)
        monkeypatch.setattr(cev, "_BLOCK_SIZE", 2 * model._series[1].size)
        strikes = 0.05 * np.exp(np.linspace(-12.0, -0.5, 7))
        for method in (model.put_price, model.p_tilde):
            assert method(strikes).tolist() == [method(K) for K in strikes.tolist()]
            assert method(strikes.reshape(7, 1)).shape == (7, 1)

    def test_near_unit_elasticity(self):
        # 60-digit oracle; the quadrature reads 3.28e-25 here
        params = CevParams(s0=1.0, sigma=0.3, rho=0.99, T=1.0)
        assert CevModel(params).put_price(math.exp(-3.0)) == pytest.approx(
            2.25764201145713e-25, rel=1e-9, abs=0.0
        )

    def test_weights_built_on_first_use(self, printed_model):
        model = CevModel(printed_model.params)
        assert model.mass > 0.0
        assert "_series" not in vars(model)
        model.put_price(0.01)
        assert "_series" in vars(model)

    def test_term_limit(self):
        # lambda = 2e8 would need 2e8 terms; refused before any allocation
        model = CevModel(CevParams(s0=1.0, sigma=1e-4, rho=0.5, T=1.0))
        with pytest.raises(QuadratureError):
            model.put_price(0.5)


class TestExactSmile:
    def test_frozen_values(self, printed_model):
        # independent 30-digit put + quantile inversion oracles
        assert printed_model.exact_smile(0.05 * math.exp(-6.0)) == pytest.approx(
            1.72920231805430213, rel=1e-9
        )
        assert CevModel(PARAMS_B).exact_smile(math.exp(-4.0)) == pytest.approx(
            1.164858236838021, rel=1e-9
        )

    def test_leading_order_trend(self, printed_model):
        ratios = []
        for L in (20.0, 40.0):
            K = 0.05 * math.exp(-L)
            iv = printed_model.exact_smile(K)
            ratios.append(iv * math.sqrt(1.2) / math.sqrt(2.0 * L))
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] > 0.7  # second-order term decays like 1/sqrt(L)

    def test_domain(self, printed_model):
        with pytest.raises(DomainError):
            printed_model.exact_smile(0.05)
        with pytest.raises(DomainError):
            printed_model.exact_smile(0.06)


class TestAtomModelAdapter:
    def test_normalized_consistency(self, printed_model):
        model = printed_model.atom_model()
        # G(K) = K * put(1/K) in normalized units; frozen G(e^6)
        assert g_from_put(model.put, math.exp(6.0)) == pytest.approx(
            5.37386042299495968e-3, rel=1e-9
        )
        assert model.mass == printed_model.mass
        assert model.p_tilde(0.2) == pytest.approx(
            printed_model.p_tilde(0.2 * 0.05), rel=1e-12
        )
