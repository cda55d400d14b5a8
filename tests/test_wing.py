"""Wing-asymptotics layer: the perturbed quantile U_K and its inverse,
the three-term expansions, the two-sided bounds, and the diagnostics
that relate the perturbed and plain normal quantiles."""

import math

import numpy as np
import pytest

from atomvol import (
    AtomModel,
    BoundsConfig,
    MarketSlice,
    estims_ratio,
    g_from_put,
    norm_cdf,
    norm_cdf_inv,
    sign_classify,
    smile_bounds,
    smile_dmhj,
    smile_leading,
    smile_sqrt_form,
    smile_three_term_G,
    smile_three_term_atom,
    smile_three_term_pT,
    u_k,
    u_k_inv,
)
from atomvol.errors import DomainAboveError, DomainBelowError, DomainError
from atomvol.wing import dmhj_psi_envelope

SQRT_PI = math.sqrt(math.pi)


class TestUK:
    def test_direct_value_log4(self):
        # U_{e^4}(0) = 1/2 - 1/(4 sqrt(pi)) = 0.35895260411306092826
        expected = 0.5 - 1.0 / (4.0 * SQRT_PI)
        assert u_k(0.0, math.exp(4.0)) == pytest.approx(expected, rel=1e-15)
        assert u_k(0.0, math.exp(4.0)) == pytest.approx(0.35895260411306093, rel=1e-14)

    def test_below_normal_cdf(self):
        for x in np.linspace(-5.0, 5.0, 41):
            assert u_k(x, 50.0) < norm_cdf(x)

    def test_deep_index_limit(self):
        assert abs(u_k(0.0, log_k=1e6) - 0.5) < 1e-3

    def test_strictly_increasing_on_branch(self):
        # sample below x = 6, where the CDF has not yet saturated in floats
        rng = np.random.default_rng(42)
        for _ in range(1000):
            L = rng.uniform(0.5, 20.0)
            edge = -math.sqrt(2.0 * L)
            x1, x2 = sorted(rng.uniform(edge, min(edge + 12.0, 6.0), size=2))
            if x1 == x2:
                continue
            assert u_k(x1, log_k=L) < u_k(x2, log_k=L)

    def test_domain(self):
        with pytest.raises(DomainError):
            u_k(0.0, 0.9)
        with pytest.raises(DomainError):
            u_k(0.0)  # neither K nor log_k
        with pytest.raises(DomainError):
            u_k(0.0, 2.0, log_k=1.0)  # both


class TestUKInv:
    @pytest.mark.parametrize("log_K", [2.0, 4.0, 8.0, 16.0])
    def test_round_trip(self, log_K):
        for y in np.linspace(0.01, 0.99, 25):
            x = u_k_inv(y, log_k=log_K)
            assert u_k(x, log_k=log_K) == pytest.approx(y, abs=1e-12)
            assert x >= -math.sqrt(2.0 * log_K)

    def test_threshold_maps_to_zero(self):
        for log_K in [2.0, 5.0, 11.0]:
            y = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(log_K))
            assert abs(u_k_inv(y, log_k=log_K)) < 1e-9

    def test_frozen_root(self):
        # bisection oracle: (U_{e^8})^{-1}(0.0707) = -1.1699796203522415946
        root = u_k_inv(0.0707, math.exp(8.0))
        assert root == pytest.approx(-1.1699796203522416, abs=1e-11)
        assert u_k(root, log_k=8.0) == pytest.approx(0.0707, abs=1e-13)

    def test_sign_law_sampled(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            L = rng.uniform(0.3, 30.0)
            y = rng.uniform(1e-4, 1.0 - 1e-4)
            threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(L))
            if abs(y - threshold) < 1e-6:
                continue
            x = u_k_inv(y, log_k=L)
            assert (x > 0.0) == (y > threshold), (y, L, x)
            checked += 1

    def test_above_normal_quantile(self):
        # U_K < N pointwise, so the inverse exceeds the normal quantile
        for y in [0.05, 0.4, 0.8]:
            assert u_k_inv(y, log_k=6.0) > norm_cdf_inv(y)

    def test_domain_errors(self):
        with pytest.raises(DomainAboveError):
            u_k_inv(1.0, log_k=4.0)
        with pytest.raises(DomainBelowError):
            u_k_inv(-0.5, log_k=4.0)
        with pytest.raises(DomainError):
            u_k_inv(math.nan, log_k=4.0)


class TestGFromPut:
    def test_definition(self):
        put = lambda k: 0.07 * k + 0.5 * k * k
        assert g_from_put(put, 4.0) == pytest.approx(4.0 * put(0.25), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_from_put(lambda k: k, 1.0)

    def test_decays_to_mass(self, printed_model):
        # 0 <= G(K) - mass <= continuous CDF at 1/K
        model = printed_model.atom_model()
        K = math.exp(14.0)
        gap = model.g_value(K) - printed_model.mass
        assert -1e-13 <= gap <= model.p_tilde(1.0 / K) + 1e-13


class TestSmileLeading:
    def test_atom_floor_reduction(self):
        market = MarketSlice(x0=1.0, T=1.2)
        K, mass = 1e-3, 0.2
        value = smile_leading(market, K, K * mass)
        expected = (
            math.sqrt(2.0 / 1.2)
            * (math.sqrt(math.log(1.0 / (K * mass))) - math.sqrt(math.log(1.0 / mass)))
        )
        assert value == pytest.approx(expected, rel=1e-13)

    def test_leading_order_ratio(self):
        # ratio to sqrt(2 L / T) approaches 1 from below like sqrt(log(1/m)/L);
        # L=600 is the deepest strike representable in doubles
        market = MarketSlice(x0=1.0, T=1.2)
        mass = 0.07
        ratios = []
        for L in [20.0, 100.0, 600.0]:
            K = math.exp(-L)
            value = smile_leading(market, K, K * mass)
            ratios.append(value / (math.sqrt(2.0 / 1.2) * math.sqrt(L)))
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[2] - 1.0) < 0.07

    def test_domain(self):
        market = MarketSlice(x0=1.0, T=1.0)
        with pytest.raises(DomainError):
            smile_leading(market, 0.5, 0.6)  # price above strike
        with pytest.raises(DomainError):
            smile_leading(market, 1.5, 0.1)  # not a wing strike


class TestThreeTerm:
    def test_constant_g_equals_atom(self):
        market = MarketSlice(x0=1.0, T=1.2)
        mass = 0.0707
        model = AtomModel(mass=mass)
        K = math.exp(-5.0)
        assert smile_three_term_G(market, K, model) == pytest.approx(
            smile_three_term_atom(market, K, mass), rel=1e-15
        )

    def test_zero_ptilde_equals_atom(self):
        market = MarketSlice(x0=1.0, T=1.2)
        model = AtomModel(mass=0.0707, p_tilde=lambda u: 0.0)
        K = math.exp(-5.0)
        assert smile_three_term_pT(market, K, model) == pytest.approx(
            smile_three_term_atom(market, K, 0.0707), rel=1e-15
        )

    def test_reference_point_value(self):
        # frozen: 2.3087774831994550688 at mass 0.0707, T = 1.2, k = -6
        market = MarketSlice(x0=1.0, T=1.2)
        value = smile_three_term_atom(market, math.exp(-6.0), 0.0707)
        assert value == pytest.approx(2.3087774831994551, abs=1e-11)

    def test_variant_ordering_on_cev(self, reference_model):
        # G(x0/K) > p_T(K/x0) > mass, and the expansion is increasing in
        # its level, so atom < pT and atom < G; pT-vs-G order is reported.
        market = reference_model.market()
        model = reference_model.atom_model()
        K = 0.05 * math.exp(-8.0)
        atom = smile_three_term_atom(market, K, model.mass)
        pt = smile_three_term_pT(market, K, model)
        g = smile_three_term_G(market, K, model)
        assert atom < pt
        assert atom < g
        print(f"\nordering report at k=-8: atom={atom:.8f} pT={pt:.8f} G={g:.8f}")

    def test_g_variant_error_order_on_cev(self, reference_model):
        # |exact - three_term_G| * L^{3/2} stays bounded over the window
        market = reference_model.market()
        model = reference_model.atom_model()
        seq = []
        for k in range(-4, -11, -1):
            K = 0.05 * math.exp(k)
            err = abs(
                reference_model.exact_smile(K) - smile_three_term_G(market, K, model)
            )
            seq.append(err * abs(k) ** 1.5)
        assert max(seq) <= 2.0 * seq[0]

    def test_scale_invariance(self):
        mass = 0.0707
        base = smile_three_term_atom(MarketSlice(x0=1.0, T=1.2), math.exp(-6.0), mass)
        for lam in [1e-2, 5.0, 1e3]:
            scaled = smile_three_term_atom(
                MarketSlice(x0=lam, T=1.2), lam * math.exp(-6.0), mass
            )
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_nan_mass_raises(self):
        market = MarketSlice(x0=1.0, T=1.2)
        with pytest.raises(DomainError):
            smile_three_term_atom(market, math.exp(-6.0), math.nan)

    @pytest.mark.parametrize("mass", [0.0, -0.01])
    def test_nonpositive_mass_raises_below(self, mass):
        # at k = -6 the left-edge level of U_K is negative, so the
        # inversion alone would accept these levels (mass 0 used to give
        # 1.5907422358659007); the mass check refuses them, as
        # smile_dmhj does through the normal quantile
        market = MarketSlice(x0=1.0, T=1.2)
        with pytest.raises(DomainBelowError):
            smile_three_term_atom(market, math.exp(-6.0), mass)
        with pytest.raises(DomainBelowError):
            smile_dmhj(market, math.exp(-6.0), mass)

    def test_rejects_shallow_strikes(self):
        market = MarketSlice(x0=1.0, T=1.0)
        with pytest.raises(DomainError):
            smile_three_term_atom(market, 1.0, 0.1)
        with pytest.raises(DomainError):
            smile_three_term_atom(market, 1.7, 0.1)


class TestDmhj:
    def test_half_mass_reduces_to_leading(self):
        market = MarketSlice(x0=1.0, T=1.2)
        K = math.exp(-4.0)
        value = smile_dmhj(market, K, 0.5)
        assert value == pytest.approx(math.sqrt(2.0 * 4.0 / 1.2), rel=1e-14)

    def test_reference_point_value(self):
        # frozen: 2.1047670338430695178 at mass 0.0707, T = 1.2, k = -6
        market = MarketSlice(x0=1.0, T=1.2)
        value = smile_dmhj(market, math.exp(-6.0), 0.0707)
        assert value == pytest.approx(2.1047670338430695, abs=1e-12)

    def test_nan_mass_raises(self):
        market = MarketSlice(x0=1.0, T=1.2)
        with pytest.raises(DomainError):
            smile_dmhj(market, math.exp(-6.0), math.nan)

    def test_bridge_toward_three_term(self):
        # sqrt(2 L) * (u - N^{-1}(m)) -> 1 links the two expansions
        market = MarketSlice(x0=1.0, T=1.2)
        mass = 0.3
        L = 600.0  # deepest strike representable in doubles
        K = math.exp(-L)
        gap = smile_three_term_atom(market, K, mass) - smile_dmhj(market, K, mass)
        # first-order content of the gap: (u - A)/sqrt(T) ~ 1/(sqrt(2 L T))
        predicted = 1.0 / math.sqrt(2.0 * L * 1.2)
        assert gap == pytest.approx(predicted, rel=0.05)


class TestBounds:
    def test_lower_below_upper(self, reference_model):
        market = reference_model.market()
        model = reference_model.atom_model()
        for k in range(-4, -13, -1):
            lower, upper = smile_bounds(market, 0.05 * math.exp(k), model)
            assert lower < upper

    def test_upper_equals_sqrt_form(self, reference_model):
        market = reference_model.market()
        model = reference_model.atom_model()
        K = 0.05 * math.exp(-6.0)
        _, upper = smile_bounds(market, K, model)
        assert upper == pytest.approx(smile_sqrt_form(market, K, model), rel=1e-14)

    def test_epsilon_tightens_lower(self, reference_model):
        market = reference_model.market()
        model = reference_model.atom_model()
        K = 0.05 * math.exp(-8.0)
        lower_small, upper = smile_bounds(market, K, model, BoundsConfig(epsilon=1e-4))
        lower_big, _ = smile_bounds(market, K, model, BoundsConfig(epsilon=0.5))
        assert lower_big < lower_small < upper

    def test_shallow_small_mass_raises_below(self, printed_model):
        # tiny mass: the deflated level falls below the invertible range
        market = printed_model.market()
        model = printed_model.atom_model()
        with pytest.raises(DomainBelowError):
            smile_bounds(market, 0.05 * math.exp(-6.0), model)

    def test_upper_dominates_exact_everywhere(self, reference_model):
        market = reference_model.market()
        model = reference_model.atom_model()
        for k in [-1.0, -2.0, -4.0, -8.0]:
            K = 0.05 * math.exp(k)
            assert reference_model.exact_smile(K) <= smile_sqrt_form(market, K, model)

    def test_gap_decays_like_l_to_three_halves(self):
        # constant-G model with epsilon -> 0: the band width scales as L^{-3/2}
        market = MarketSlice(x0=1.0, T=1.2)
        mass = 0.2
        model = AtomModel(mass=mass)
        cfg = BoundsConfig(epsilon=1e-9)
        scaled = []
        for L in (8.0, 16.0, 32.0, 64.0):
            lower, upper = smile_bounds(market, math.exp(-L), model, cfg)
            scaled.append((upper - lower) * L**1.5)
        assert max(scaled) <= 2.0 * min(scaled)


class TestEstimsRatio:
    @pytest.mark.parametrize("mass", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_limit_and_monotone_approach(self, mass):
        values = [abs(estims_ratio(mass, depth=d) - 1.0) for d in (1e2, 1e3, 1e4)]
        assert values[2] <= 0.02
        assert values[2] < values[0]

    def test_existence_guard(self):
        # N(-1) = 0.1587 > 0.1, so depth 0.5 violates the condition
        with pytest.raises(DomainBelowError):
            estims_ratio(0.1, depth=0.5)

    def test_strike_form_matches_depth_form(self):
        assert estims_ratio(0.3, K=math.exp(-9.0)) == pytest.approx(
            estims_ratio(0.3, depth=9.0), rel=1e-12
        )


class TestSignClassify:
    def test_threshold_cases(self):
        depth = 6.0
        threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
        assert sign_classify(threshold, depth=depth) == "zero"
        assert sign_classify(threshold + 1e-6, depth=depth) == "positive"
        assert sign_classify(1e-6, depth=depth) == "negative"

    def test_opposite_signs_regime(self):
        depth = 4.0
        threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
        mass = threshold + 1e-4
        assert sign_classify(mass, depth=depth) == "positive"
        assert norm_cdf_inv(mass) < 0.0  # plain quantile disagrees in sign

    def test_agrees_with_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            depth = rng.uniform(1.0, 12.0)
            mass = rng.uniform(1e-3, 0.499)
            threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
            if abs(mass - threshold) < 1e-6:
                continue
            label = sign_classify(mass, depth=depth)
            root = u_k_inv(mass, log_k=depth)
            assert (root > 0.0) == (label == "positive")

    def test_domain(self):
        with pytest.raises(DomainError):
            sign_classify(0.5, depth=4.0)
        with pytest.raises(DomainError):
            sign_classify(0.7, depth=4.0)
        with pytest.raises(DomainError):
            sign_classify(0.3, depth=math.nan)


class TestAggregate:
    def test_psi_envelope_positive_and_reported(self, reference_model):
        model = reference_model.atom_model()
        log_k = 8.0
        psi = model.g_value(math.exp(log_k)) - model.mass
        envelope = dmhj_psi_envelope(1.2, model.mass, log_k, psi)
        assert envelope > 0.0
        market = reference_model.market()
        residual = abs(
            reference_model.exact_smile(0.05 * math.exp(-log_k))
            - smile_dmhj(market, 0.05 * math.exp(-log_k), model.mass)
        )
        print(f"\nDMHJ residual vs envelope at k=-8: {residual:.6f} / {envelope:.6f}")


class TestAtomModelValidation:
    def test_mass_bounds(self):
        with pytest.raises(DomainError):
            AtomModel(mass=0.0)
        with pytest.raises(DomainError):
            AtomModel(mass=1.0)

    def test_p_total_requires_evaluator(self):
        with pytest.raises(DomainError):
            AtomModel(mass=0.1).p_total(0.5)
