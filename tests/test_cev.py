"""CEV distribution backend against high-precision frozen oracles
(40-digit quadrature and Bessel series) and its own consistency laws:
normalization, martingale property, and small-strike asymptotes.  The
Poisson-Gamma series behind put_price and p_tilde is also checked
against the independent density quadrature."""

import math

import numpy as np
import pytest

from atomvol import CevModel, CevParams
from atomvol.cev import (
    density,
    exact_smile,
    mass_at_zero,
    p_tilde,
    put_price,
    small_x_constant,
)
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


class TestMass:
    def test_documented_parameter_set(self, printed_model):
        # frozen 40-digit value for (0.05, 0.2, 0.6, 1.2): 0.00476747762811308294
        assert printed_model.mass == pytest.approx(4.76747762811308294e-3, rel=1e-11)

    def test_short_maturity_limit(self):
        params = CevParams(s0=0.05, sigma=0.2, rho=0.6, T=1e-4)
        assert mass_at_zero(params) < 1e-12

    def test_unit_shape_closed_form(self):
        # rho = 1/2 makes the gamma shape 1, so the mass is exp(-argument)
        assert CevModel(PARAMS_B).mass == pytest.approx(math.exp(-8.0), rel=1e-12)
        params = CevParams(s0=1.0, sigma=1.0, rho=0.5, T=1.0)
        assert mass_at_zero(params) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_mass_in_unit_interval(self, reference_model):
        assert 0.0 < reference_model.mass < 1.0

    def test_tiny_mass_without_cancellation(self):
        # 60-digit oracles of Q(nu, lambda); 1 - P(nu, lambda) loses them
        params = CevParams(s0=1.0, sigma=0.3, rho=0.8, T=1.0)
        assert mass_at_zero(params) == pytest.approx(
            5.9754262674746354e-58, rel=1e-13, abs=0.0
        )
        params = CevParams(s0=1.0, sigma=0.3, rho=0.5, T=1.0)
        assert mass_at_zero(params) == pytest.approx(
            2.2336314362031661e-10, rel=1e-13, abs=0.0
        )


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


class TestSmallXConstant:
    def test_frozen_values(self, printed_model):
        # 40-digit oracles: 1.1341811485318493 and 0.0214696081857607577
        assert printed_model.small_x_constant() == pytest.approx(
            1.1341811485318493, rel=1e-12
        )
        assert small_x_constant(PARAMS_B) == pytest.approx(
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
        assert put_price(PARAMS_B, math.exp(-4.0)) == pytest.approx(
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

    def test_near_unit_elasticity(self):
        # 60-digit oracle; the quadrature reads 3.28e-25 here
        params = CevParams(s0=1.0, sigma=0.3, rho=0.99, T=1.0)
        assert put_price(params, math.exp(-3.0)) == pytest.approx(
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
        assert exact_smile(PARAMS_B, math.exp(-4.0)) == pytest.approx(
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


class TestFunctionalSurface:
    def test_wrappers_match_model(self, printed_model):
        params = printed_model.params
        assert mass_at_zero(params) == printed_model.mass
        assert density(params, 0.03) == pytest.approx(
            printed_model.density(0.03), rel=1e-14
        )
        assert p_tilde(params, 0.02) == pytest.approx(
            printed_model.p_tilde(0.02), rel=1e-12
        )


class TestAtomModelAdapter:
    def test_normalized_consistency(self, printed_model):
        model = printed_model.atom_model()
        # G(K) = K * put(1/K) in normalized units; frozen G(e^6)
        assert model.g_value(math.exp(6.0)) == pytest.approx(
            5.37386042299495968e-3, rel=1e-9
        )
        assert model.mass == printed_model.mass
        assert model.p_tilde(0.2) == pytest.approx(
            printed_model.p_tilde(0.2 * 0.05), rel=1e-12
        )
