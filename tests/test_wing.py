"""Wing-asymptotics layer: the perturbed quantile U_K and its inverse,
the three-term expansions, the two-sided bounds, and the diagnostics
that relate the perturbed and plain normal quantiles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    smile_grid,
    smile_leading,
    smile_sqrt_form,
    smile_three_term_G,
    smile_three_term_atom,
    smile_three_term_pT,
    u_k,
    u_k_inv,
)
import atomvol.wing as wing
from atomvol.errors import DomainAboveError, DomainBelowError, DomainError
from atomvol.wing import _u_k_left_edge, dmhj_psi_envelope

SQRT_PI = math.sqrt(math.pi)


class TestUK:
    def test_direct_value_log4(self):
        # U_{e^4}(0) = 1/2 - 1/(4 sqrt(pi)) = 0.35895260411306092826
        expected = 0.5 - 1.0 / (4.0 * SQRT_PI)
        assert u_k(0.0, 4.0) == pytest.approx(expected, rel=1e-15)
        assert u_k(0.0, 4.0) == pytest.approx(0.35895260411306093, rel=1e-14)

    def test_below_normal_cdf(self):
        for x in np.linspace(-5.0, 5.0, 41):
            assert u_k(x, math.log(50.0)) < norm_cdf(x)

    def test_deep_index_limit(self):
        assert abs(u_k(0.0, 1e6) - 0.5) < 1e-3

    def test_strictly_increasing_on_branch(self):
        # sample below x = 6, where the CDF has not yet saturated in floats
        rng = np.random.default_rng(42)
        for _ in range(1000):
            L = rng.uniform(0.5, 20.0)
            edge = -math.sqrt(2.0 * L)
            x1, x2 = sorted(rng.uniform(edge, min(edge + 12.0, 6.0), size=2))
            if x1 == x2:
                continue
            assert u_k(x1, L) < u_k(x2, L)

    def test_domain(self):
        for L in (math.log(0.9), 0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                u_k(0.0, L)
        with pytest.raises(DomainError):
            u_k(math.nan, 4.0)

    def test_array_call_masks_bad_elements(self):
        x = np.array([[0.0, math.nan, 0.0, 0.0, 1.0]])
        L = np.array([4.0, 4.0, 0.0, math.inf, math.nan])
        values = u_k(x, L)
        assert values.shape == (1, 5)
        assert values[0, 0] == u_k(0.0, 4.0)
        assert np.isnan(values[0, 1:]).all()


class TestUKInv:
    @pytest.mark.parametrize("log_K", [2.0, 4.0, 8.0, 16.0])
    def test_round_trip(self, log_K):
        for y in np.linspace(0.01, 0.99, 25):
            x = u_k_inv(y, log_K)
            assert u_k(x, log_K) == pytest.approx(y, abs=1e-12)
            assert x >= -math.sqrt(2.0 * log_K)

    def test_threshold_maps_to_zero(self):
        for log_K in [2.0, 5.0, 11.0]:
            y = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(log_K))
            assert abs(u_k_inv(y, log_K)) < 1e-9

    def test_frozen_root(self):
        # bisection oracle: (U_{e^8})^{-1}(0.0707) = -1.1699796203522415946
        root = u_k_inv(0.0707, 8.0)
        assert root == pytest.approx(-1.1699796203522416, abs=1e-11)
        assert u_k(root, 8.0) == pytest.approx(0.0707, abs=1e-13)

    def test_sign_law_sampled(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            L = rng.uniform(0.3, 30.0)
            y = rng.uniform(1e-4, 1.0 - 1e-4)
            threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(L))
            if abs(y - threshold) < 1e-6:
                continue
            x = u_k_inv(y, L)
            assert (x > 0.0) == (y > threshold), (y, L, x)
            checked += 1

    def test_above_normal_quantile(self):
        # U_K < N pointwise, so the inverse exceeds the normal quantile
        for y in [0.05, 0.4, 0.8]:
            assert u_k_inv(y, 6.0) > norm_cdf_inv(y)

    def test_domain_errors(self):
        with pytest.raises(DomainAboveError):
            u_k_inv(1.0, 4.0)
        with pytest.raises(DomainBelowError):
            u_k_inv(-0.5, 4.0)
        with pytest.raises(DomainError):
            u_k_inv(math.nan, 4.0)
        for L in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                u_k_inv(0.3, L)

    @given(
        L=st.floats(1e-3, 1e300),
        a=st.one_of(st.integers(0, 8), st.floats(0.0, 1.0)),
        b=st.one_of(st.integers(0, 8), st.floats(0.0, 1.0)),
    )
    # the level one ulp above U_K(edge) must come back on the branch, next
    # to the edge where the derivative of U_K vanishes
    @example(L=0.1, a=1, b=2)
    # at L=1e300 the edge -sqrt(2L) is 1e150 below the root
    @example(L=1e300, a=0.3, b=1)
    def test_inverse_property(self, L, a, b):
        # a level is either a few ulps above U_K(edge) (an integer draw)
        # or a fraction of the way from U_K(edge) up to 1 (a float draw)
        edge, edge_value = _u_k_left_edge(L)

        def level(draw):
            if isinstance(draw, int):
                y = edge_value
                for _ in range(draw):
                    y = math.nextafter(y, 1.0)
                return y
            return min(edge_value + draw * (1.0 - edge_value), math.nextafter(1.0, 0.0))

        y1, y2 = sorted((level(a), level(b)))
        x1, x2 = u_k_inv(y1, L), u_k_inv(y2, L)
        for x, y in ((x1, y1), (x2, y2)):
            assert x >= edge
            assert abs(u_k(x, L) - y) <= 1e-12
        # monotone up to the bisection width
        assert x1 <= x2 + 1e-13


# levels for the grid property: a fraction of the way from U_K(edge) up
# to 1, U_K(edge) itself, or values outside the domain
_LEVELS = st.one_of(
    st.floats(0.0, 1.0), st.just("edge"), st.floats(-1.0, 1.5), st.sampled_from([math.nan, 1.0, -math.inf])
)
_DEPTHS = st.one_of(st.floats(1e-3, 1e4), st.sampled_from([0.0, -1.0, math.inf, math.nan]))


class TestUKInvGrid:
    @given(st.lists(st.tuples(_LEVELS, _DEPTHS), min_size=1, max_size=16), st.booleans())
    def test_grid_equals_scalar_calls(self, pairs, two_rows):
        ys, Ls = [], []
        for level, L in pairs:
            edge_value = _u_k_left_edge(L)[1] if 0.0 < L < math.inf else 0.0
            if level == "edge":
                level = edge_value
            elif 0.0 <= level <= 1.0 and 0.0 < L < math.inf:
                level = edge_value + level * (1.0 - edge_value)
            ys.append(float(level))
            Ls.append(L)
        shape = (2, -1) if two_rows and len(ys) % 2 == 0 else (-1,)
        grid = u_k_inv(np.reshape(ys, shape), np.reshape(Ls, shape))
        assert grid.shape == np.reshape(ys, shape).shape
        for y, L, x_grid in zip(ys, Ls, grid.ravel()):
            try:
                x = u_k_inv(y, L)
            except DomainError:
                assert math.isnan(x_grid), (y, L)
            else:
                assert np.float64(x).tobytes() == np.float64(x_grid).tobytes(), (y, L)

    def test_scalar_depth_broadcasts(self):
        ys = np.array([0.01, 0.07, 0.3, 0.9])
        grid = u_k_inv(ys, 8.0)
        assert grid.tolist() == [u_k_inv(y, 8.0) for y in ys]


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
        gap = g_from_put(model.put, K) - printed_model.mass
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

    @pytest.mark.parametrize("u, L", [(-20.0, 0.5), (-37.0, 2.0)])
    def test_sqrt_form_keeps_precision_far_left(self, u, L):
        # u + sqrt(u^2 + 2L) cancels for u << 0; the reference is the
        # radicand form sqrt(2/T) sqrt(L + u^2 + u sqrt(u^2 + 2L)) at 50 digits
        T = 1.2
        with mpmath.workdps(50):
            u_, L_ = mpmath.mpf(u), mpmath.mpf(L)
            exact = mpmath.sqrt(2 / mpmath.mpf(T)) * mpmath.sqrt(L_ + u_ * u_ + u_ * mpmath.sqrt(u_ * u_ + 2 * L_))
            value = wing._sqrt_form(T, L, u)
            assert isinstance(value, float)
            assert abs(value - exact) <= 1e-14 * exact

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


def _grid_reference(market, K, model, cfg):
    """The smile_grid columns built one strike at a time from the smile_*
    calls, None where a call raises DomainError."""

    def attempt(fn):
        try:
            return fn()
        except DomainError:
            return None

    band = attempt(lambda: smile_bounds(market, K, model, cfg)) or (None, None)
    cells = {
        "three_term_atom": attempt(lambda: smile_three_term_atom(market, K, model.mass)),
        "three_term_G": attempt(lambda: smile_three_term_G(market, K, model)),
        "dmhj": attempt(lambda: smile_dmhj(market, K, model.mass)),
        "lower": band[0],
        "upper": band[1],
    }
    if model.p_tilde is not None:
        cells["three_term_pT"] = attempt(lambda: smile_three_term_pT(market, K, model))
    if model.put is not None:
        put = attempt(lambda: model.put(K / market.x0) * market.x0)
        cells["leading"] = attempt(lambda: smile_leading(market, K, put))
        cells["put"] = put if 0.0 < K < market.x0 else None
    return cells


class TestSmileGrid:
    def test_matches_scalar_calls(self, reference_model):
        # shallow strikes leave the band empty; K = 0 (k = -800) and
        # K >= x0 are no wing strikes at all
        market = reference_model.market()
        model = reference_model.atom_model()
        cfg = BoundsConfig(epsilon=0.05)
        strikes = [0.05 * math.exp(k) for k in (-800.0, -30.0, -9.0, -6.0, -3.0, -1.0, -0.2)] + [0.05, 0.07]
        columns = smile_grid(market, strikes, model, {"approximations", "band"}, cfg)
        assert set(columns) == {
            "three_term_atom", "three_term_G", "three_term_pT", "dmhj", "leading", "lower", "upper", "put"
        }
        for j, K in enumerate(strikes):
            for name, want in _grid_reference(market, K, model, cfg).items():
                got = columns[name][j]
                assert (want is None) == math.isnan(got), (name, K)
                if want is not None:
                    assert got == want, (name, K)
        assert math.isnan(columns["lower"][4]) and not math.isnan(columns["lower"][2])

    def test_levels_match_their_scalar_definitions(self, reference_model, monkeypatch):
        # the level matrix smile_grid passes to u_k_inv: rows mass, G, p_T
        # and G_eps, each equal bit for bit to its scalar definition, NaN off
        # the wing; a reordered G rounds differently at only a few of these
        market, model = reference_model.market(), reference_model.atom_model()
        cfg, x0 = BoundsConfig(epsilon=0.05), market.x0
        strikes = [x0 * math.exp(k) for k in np.linspace(-30.0, -0.2, 60)] + [x0, 0.07]
        levels = []

        def recording(y, L):
            levels.append(np.array(y))
            return u_k_inv(y, L)

        monkeypatch.setattr(wing, "u_k_inv", recording)
        smile_grid(market, strikes, model, {"approximations", "band"}, cfg)

        def on_wing(level):
            return [level(K) if K < x0 else math.nan for K in strikes]

        a = norm_cdf_inv(model.mass)
        want = [
            [model.mass] * len(strikes),
            on_wing(lambda K: wing._g(market, K, model)),
            on_wing(lambda K: model.p_total(K / x0)),
            on_wing(lambda K: wing._deflated(wing._g(market, K, model), a, wing._wing_depth(market, K), cfg)),
        ]
        (got,) = levels
        assert got.shape == (4, len(strikes))
        for row, expected in zip(got, want):
            assert np.array_equal(row, expected, equal_nan=True)

    def test_groups_select_columns(self):
        market, model = MarketSlice(x0=1.0, T=1.2), AtomModel(mass=0.07)
        assert set(smile_grid(market, [0.01], model, {"band"})) == {"lower", "upper"}
        assert set(smile_grid(market, [0.01], model, {"approximations"})) == {
            "three_term_atom", "three_term_G", "dmhj"
        }

    @given(
        mass=st.floats(1e-6, 0.49),
        T=st.floats(0.05, 5.0),
        epsilon=st.floats(1e-4, 1.0),
        slope=st.floats(0.0, 1.0),
        ks=st.lists(st.floats(-400.0, -0.01), min_size=1, max_size=12),
    )
    def test_lower_below_upper(self, mass, T, epsilon, slope, ks):
        # put(k) = k (mass + slope k) gives G(x0/K) = mass + slope K/x0
        model = AtomModel(mass=mass, put=lambda k: k * (mass + slope * k))
        market = MarketSlice(x0=1.0, T=T)
        columns = smile_grid(market, [math.exp(k) for k in ks], model, {"band"}, BoundsConfig(epsilon))
        lower, upper = columns["lower"], columns["upper"]
        assert (np.isnan(lower) == np.isnan(upper)).all()
        band = ~np.isnan(lower)
        assert (lower[band] <= upper[band]).all()


class TestEstimsRatio:
    @pytest.mark.parametrize("mass", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_limit_and_monotone_approach(self, mass):
        values = [abs(estims_ratio(mass, d) - 1.0) for d in (1e2, 1e3, 1e4)]
        assert values[2] <= 0.02
        assert values[2] < values[0]

    def test_existence_guard(self):
        # N(-1) = 0.1587 > 0.1, so depth 0.5 violates the condition
        with pytest.raises(DomainBelowError):
            estims_ratio(0.1, 0.5)

    def test_domain(self):
        for L in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                estims_ratio(0.3, L)


class TestSignClassify:
    def test_threshold_cases(self):
        depth = 6.0
        threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
        assert sign_classify(threshold, depth) == "zero"
        assert sign_classify(threshold + 1e-6, depth) == "positive"
        assert sign_classify(1e-6, depth) == "negative"

    def test_opposite_signs_regime(self):
        depth = 4.0
        threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
        mass = threshold + 1e-4
        assert sign_classify(mass, depth) == "positive"
        assert norm_cdf_inv(mass) < 0.0  # plain quantile disagrees in sign

    def test_agrees_with_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            depth = rng.uniform(1.0, 12.0)
            mass = rng.uniform(1e-3, 0.499)
            threshold = 0.5 - 1.0 / (2.0 * SQRT_PI * math.sqrt(depth))
            if abs(mass - threshold) < 1e-6:
                continue
            label = sign_classify(mass, depth)
            root = u_k_inv(mass, depth)
            assert (root > 0.0) == (label == "positive")

    def test_domain(self):
        with pytest.raises(DomainError):
            sign_classify(0.5, 4.0)
        with pytest.raises(DomainError):
            sign_classify(0.7, 4.0)
        with pytest.raises(DomainError):
            sign_classify(0.3, math.nan)
        with pytest.raises(DomainError):
            sign_classify(0.3, math.inf)


class TestAggregate:
    def test_psi_envelope_positive_and_reported(self, reference_model):
        model = reference_model.atom_model()
        L = 8.0
        psi = g_from_put(model.put, math.exp(L)) - model.mass
        envelope = dmhj_psi_envelope(1.2, model.mass, L, psi)
        assert envelope > 0.0
        market = reference_model.market()
        residual = abs(
            reference_model.exact_smile(0.05 * math.exp(-L))
            - smile_dmhj(market, 0.05 * math.exp(-L), model.mass)
        )
        print(f"\nDMHJ residual vs envelope at k=-8: {residual:.6f} / {envelope:.6f}")

    @pytest.mark.parametrize(
        "T, L, psi",
        [(math.nan, 8.0, 1e-3), (1.2, math.nan, 1e-3), (1.2, 8.0, math.nan)],
    )
    def test_psi_envelope_refuses_nan(self, T, L, psi):
        with pytest.raises(DomainError):
            dmhj_psi_envelope(T, 0.07, L, psi)


class TestAtomModelValidation:
    def test_mass_bounds(self):
        with pytest.raises(DomainError):
            AtomModel(mass=0.0)
        with pytest.raises(DomainError):
            AtomModel(mass=1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -0.01, math.nan, math.inf])
    def test_bounds_epsilon_positive_and_finite(self, epsilon):
        with pytest.raises(DomainError):
            BoundsConfig(epsilon=epsilon)

    def test_p_total_requires_evaluator(self):
        with pytest.raises(DomainError):
            AtomModel(mass=0.1).p_total(0.5)
