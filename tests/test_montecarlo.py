"""Simulation harness: bit determinism, chunk invariance, absorption
statistics against the analytic law, and put estimates against the
quadrature oracle."""

import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from atomvol import CevParams, McConfig, mc_put_price, mc_smile, simulate_terminals
from atomvol.errors import DomainError
from atomvol import montecarlo
from atomvol.montecarlo import counter_normals

PRINTED = CevParams(s0=0.05, sigma=0.2, rho=0.6, T=1.2)
# about a third of the paths absorb within 64 steps
ABSORBING = CevParams(s0=0.05, sigma=0.4, rho=0.6, T=1.2)
# rho = 1/2, about a third absorbing under antithetic pairs
SQRT_ABSORBING = CevParams(s0=0.05, sigma=0.3, rho=0.5, T=1.0)


# under this seed the SplitMix64 state of stream 0 at step 1 mixes to
# 2^64 - 1, the top value, whose uniform rounds to 1 unless held below it
TOP_DRAW_SEED = 10604588701194827158
# the frozen configs where about a third of the paths absorb
ABSORBING_CASES = ("chunk_1", "chunk_173", "absorbing", "two_default_chunks", "absorbing_antithetic")


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _reference_terminals(params: CevParams, cfg: McConfig) -> np.ndarray:
    """Straight Euler loop over the live paths, one counter_normals call a step."""
    paths = np.arange(cfg.n_paths, dtype=np.uint64)
    streams = paths >> np.uint64(1) if cfg.antithetic else paths
    signs = np.where(paths & np.uint64(1), -1.0, 1.0) if cfg.antithetic else None
    sqdt = math.sqrt(params.T / cfg.n_steps)
    S = np.full(cfg.n_paths, params.s0)
    for step in range(cfg.n_steps):
        live = np.flatnonzero(S > 0.0)
        z = counter_normals(cfg.seed, streams[live], step, cfg.n_steps)
        if signs is not None:
            z = z * signs[live]
        Sa = S[live]
        Sa = Sa + params.sigma * Sa**params.rho * sqdt * z
        S[live] = np.where(Sa <= 0.0, 0.0, Sa)
    return S


# SHA-256 of simulate_terminals(...).tobytes(), frozen from the earlier
# Euler loop, which gathered and scattered the live paths every step
FROZEN_TERMINALS = [
    ("plain", PRINTED, McConfig(n_paths=5000, n_steps=40, seed=42), None,
     "84ab8c05b7a35b7b1b6ae11f9995bd4be3d5a1be6afb1bf2f988fe4649b564ca"),
    ("antithetic", PRINTED, McConfig(n_paths=5000, n_steps=40, seed=42, antithetic=True), None,
     "ed70ee2c5a0ad88b4f28a8d75bf55d187455d43f1b134daec960a0e8ad4123b2"),
    ("odd_paths", PRINTED, McConfig(n_paths=2999, n_steps=33, seed=7), None,
     "dcbf2a81d0d048718a9fc9f39d33ef23cd902c97bede1722c68afb2362d1cead"),
    ("odd_antithetic", PRINTED, McConfig(n_paths=2999, n_steps=33, seed=7, antithetic=True), None,
     "77a33c3b40454848513278865dc3fda277afb02bbda414d16b3f80ea59599f13"),
    ("chunk_1", ABSORBING, McConfig(n_paths=301, n_steps=64, seed=17), 1,
     "4c7983a52062d0a4966bb8839ef8621da90a685ff8d1c804034d57edebaf998a"),
    ("chunk_173", ABSORBING, McConfig(n_paths=3001, n_steps=64, seed=17), 173,
     "fa837ede3557f137161d388d734dea6da19cab0d0e149cf9be1a80b0e1577038"),
    ("absorbing", ABSORBING, McConfig(n_paths=3001, n_steps=64, seed=17), None,
     "fa837ede3557f137161d388d734dea6da19cab0d0e149cf9be1a80b0e1577038"),
    ("two_default_chunks", ABSORBING, McConfig(n_paths=66_537, n_steps=16, seed=5), None,
     "eb550b292670f9f069469baecd6792512aff9d326d4867873d64b245f9ea35d9"),
    ("absorbing_antithetic", SQRT_ABSORBING, McConfig(n_paths=2001, n_steps=64, seed=3, antithetic=True), None,
     "69a4cea4b043d9a46a191903a1ffa2fe0396fd731abf0fea1ae3817f0bbffca4"),
    ("zero_vol", CevParams(s0=0.05, sigma=0.0, rho=0.6, T=1.2), McConfig(n_paths=999, n_steps=20, seed=3), None,
     "5a0152a8c64b00b5aa268c96ee68c6bbbbe9126a03efbd218c9f2302f32c9ed8"),
]
FROZEN_NORMALS = "a7704b14ea36131315b427f42d9932510bc99d41d8bc3b59f5d09b0e787b80d3"


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, n_steps=10, seed=1)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=0, seed=1)

    @pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed"])
    @pytest.mark.parametrize("value", [2.5, 10.0, math.nan, math.inf, True, "10", None])
    def test_non_integer_is_refused(self, field, value):
        # a float seed would be truncated, a float size fail inside numpy
        kwargs = {"n_paths": 10, "n_steps": 4, "seed": 1, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            McConfig(**kwargs)

    def test_integer_types_are_accepted(self):
        cfg = McConfig(n_paths=np.int64(10), n_steps=np.uint32(4), seed=np.uint64(2**64 - 1))
        assert simulate_terminals(PRINTED, cfg).shape == (10,)


class TestCounterNormals:
    def test_pure_function(self):
        streams = np.arange(100, dtype=np.uint64)
        a = counter_normals(7, streams, 3, 100)
        b = counter_normals(7, streams, 3, 100)
        assert np.array_equal(a, b)

    def test_seed_and_step_sensitivity(self):
        streams = np.arange(100, dtype=np.uint64)
        base = counter_normals(7, streams, 3, 100)
        assert not np.array_equal(base, counter_normals(8, streams, 3, 100))
        assert not np.array_equal(base, counter_normals(7, streams, 4, 100))

    def test_frozen_digest(self):
        z = counter_normals(7, np.arange(1000), 3, 100)
        assert _sha256(z) == FROZEN_NORMALS

    def test_top_value_draw_is_finite(self):
        z = counter_normals(TOP_DRAW_SEED, np.arange(1), 1, 2)
        assert z[0] == ndtri(1.0 - 2.0**-53)

    @pytest.mark.parametrize(
        "seed, stream, step, n_steps",
        [
            (5, [0, 1], 4, 4),  # step n_steps is step 0 of the next stream
            (5, [0, 1], -1, 4),
            (5, [0, 1], 0, 0),
            (5, [0, 1], 0, -3),
            (1.5, [0, 1], 0, 4),
            (5, [0, 1], 2.0, 4),
            (5, [0, 1], 0, 4.5),
            (5, [-1, 0], 0, 4),  # wraps to stream 2^64 - 1
            (5, np.array([0, 2**62], dtype=np.uint64), 0, 4),  # index 2^64 + 1 wraps to stream 0
            (5, np.array([0.0, 1.5]), 0, 4),
            (5, np.array([True, False]), 0, 4),
        ],
    )
    def test_aliasing_arguments_are_refused(self, seed, stream, step, n_steps):
        with pytest.raises(DomainError):
            counter_normals(seed, stream, step, n_steps)

    def test_last_step_and_unsigned_streams_are_accepted(self):
        z = counter_normals(np.int64(5), np.arange(4, dtype=np.uint32), np.uint8(3), 4)
        assert np.array_equal(z, counter_normals(5, [0, 1, 2, 3], 3, 4))
        # the last stream at 4 steps: its last index, 2^64, wraps to the unused 0
        last = np.array([2**62 - 1], dtype=np.uint64)
        assert np.isfinite(counter_normals(5, last, 3, 4)).all()

    def test_moments_are_standard_normal(self):
        streams = np.arange(200_000, dtype=np.uint64)
        z = counter_normals(123, streams, 0, 1)
        assert abs(z.mean()) < 3.0 / math.sqrt(z.size)
        assert abs(z.std() - 1.0) < 3.0 / math.sqrt(z.size)
        assert abs((z**3).mean()) < 3.0 * math.sqrt(15.0 / z.size)


class TestFrozenTerminals:
    """Bit identity of the Euler kernel, independent of any benchmark."""

    @pytest.mark.parametrize(
        "params, cfg, chunk_size, digest",
        [case[1:] for case in FROZEN_TERMINALS],
        ids=[case[0] for case in FROZEN_TERMINALS],
    )
    def test_digest(self, params, cfg, chunk_size, digest):
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        assert _sha256(simulate_terminals(params, cfg, **kwargs)) == digest

    def test_absorbing_configs_absorb(self):
        # the absorbing digests check that the kernel keeps absorbed paths
        # at 0 only if a good share of their paths absorb
        cases = [case for case in FROZEN_TERMINALS if case[0] in ABSORBING_CASES]
        assert len(cases) == len(ABSORBING_CASES)
        for _, params, cfg, _, _ in cases:
            frac = np.mean(simulate_terminals(params, cfg) == 0.0)
            assert 0.25 < frac < 0.4


class TestSimulate:
    def test_bit_determinism(self):
        cfg = McConfig(n_paths=5000, n_steps=30, seed=42)
        a = simulate_terminals(PRINTED, cfg)
        b = simulate_terminals(PRINTED, cfg)
        assert a.tobytes() == b.tobytes()

    def test_chunk_invariance(self):
        cfg = McConfig(n_paths=3000, n_steps=25, seed=9)
        full = simulate_terminals(PRINTED, cfg, chunk_size=3000)
        odd = simulate_terminals(PRINTED, cfg, chunk_size=173)
        tiny = simulate_terminals(PRINTED, cfg, chunk_size=1)
        assert np.array_equal(full, odd)
        assert np.array_equal(full, tiny)

    @given(
        n_paths=st.integers(1, 48),
        n_steps=st.integers(1, 24),
        chunk_frac=st.floats(0.0, 1.0),
        antithetic=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        sigma=st.floats(0.0, 1.5),
        rho=st.floats(0.05, 0.95),
    )
    def test_chunk_invariance_property(
        self, n_paths, n_steps, chunk_frac, antithetic, seed, sigma, rho
    ):
        # sigma up to 1.5 at s0 = 0.05 absorbs most paths within a few steps
        params = CevParams(s0=0.05, sigma=sigma, rho=rho, T=1.0)
        cfg = McConfig(n_paths=n_paths, n_steps=n_steps, seed=seed, antithetic=antithetic)
        chunk_size = 1 + int(chunk_frac * (n_paths - 1))
        whole = simulate_terminals(params, cfg, chunk_size=n_paths)
        assert whole.tobytes() == simulate_terminals(params, cfg, chunk_size=chunk_size).tobytes()
        assert whole.tobytes() == _reference_terminals(params, cfg).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("chunk_size", [1, 173, None])
    def test_worker_count_invariance(self, monkeypatch, workers, antithetic, chunk_size):
        # 349 paths: the chunks of 1 and of 173 and the shares of 175 and
        # 117 paths of 2 and 3 workers all have odd sizes, so every chunk
        # boundary cuts an antithetic pair, and the last path is unpaired
        cfg = McConfig(n_paths=349, n_steps=19, seed=11, antithetic=antithetic)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        out = simulate_terminals(ABSORBING, cfg, chunk_size=chunk_size or cfg.n_paths)
        assert out.tobytes() == _reference_terminals(ABSORBING, cfg).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("chunk_size", [1, 173])
    def test_each_stream_is_drawn_once_per_chunk(
        self, monkeypatch, workers, antithetic, chunk_size
    ):
        # an antithetic pair shares one stream: a chunk draws each of its
        # distinct streams once a step, not once per path; the output of
        # these runs is checked by test_worker_count_invariance.  No chunk
        # holds more than chunk_size paths and no more than workers chunks
        # run at once, the memory bound simulate_terminals states
        cfg = McConfig(n_paths=349, n_steps=19, seed=11, antithetic=antithetic)
        euler_chunk, normals_into = montecarlo._euler_chunk, montecarlo._normals_into
        chunks, draws, running, lock = [], [], [0, 0], threading.Lock()

        def recording_chunk(params, cfg, start, stop, sqdt, S):
            with lock:
                chunks.append((start, stop))
                running[0] += 1
                running[1] = max(running)
            euler_chunk(params, cfg, start, stop, sqdt, S)
            with lock:
                running[0] -= 1

        def counting_normals(bits, tmp, out):
            draws.append(bits.size)
            return normals_into(bits, tmp, out)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_euler_chunk", recording_chunk)
        monkeypatch.setattr(montecarlo, "_normals_into", counting_normals)
        simulate_terminals(ABSORBING, cfg, chunk_size=chunk_size)
        chunks.sort()
        assert [start for start, _ in chunks] == [0, *(stop for _, stop in chunks[:-1])]
        assert chunks[-1][1] == cfg.n_paths
        assert max(stop - start for start, stop in chunks) <= chunk_size
        assert running[1] <= workers
        if antithetic:
            streams = sum(((stop - 1) >> 1) - (start >> 1) + 1 for start, stop in chunks)
        else:
            streams = cfg.n_paths
        assert sum(draws) == streams * cfg.n_steps

    @pytest.mark.parametrize("chunk_size", [2.5, math.nan, True, "10", None])
    def test_non_integer_chunk_size_is_refused(self, chunk_size):
        # 2.5 and nan failed inside range() with a TypeError, True ran as 1
        cfg = McConfig(n_paths=10, n_steps=4, seed=1)
        with pytest.raises(DomainError, match="chunk_size must be an integer"):
            simulate_terminals(PRINTED, cfg, chunk_size=chunk_size)

    def test_error_in_a_worker_chunk_reaches_the_caller(self, monkeypatch):
        euler_chunk = montecarlo._euler_chunk

        def failing(params, cfg, start, stop, sqdt, S):
            if start >= 200:
                raise RuntimeError("chunk failed")
            euler_chunk(params, cfg, start, stop, sqdt, S)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        monkeypatch.setattr(montecarlo, "_euler_chunk", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            simulate_terminals(PRINTED, McConfig(n_paths=300, n_steps=5, seed=1))
        assert threading.active_count() == before

    def test_top_value_draw_keeps_paths_finite(self):
        # the antithetic pair's path 1 absorbs at step 0; at step 1 path 0
        # draws the top value and path 1 its negative
        params = CevParams(s0=0.05, sigma=0.3, rho=0.5, T=1.0)
        cfg = McConfig(n_paths=2, n_steps=2, seed=TOP_DRAW_SEED, antithetic=True)
        out = simulate_terminals(params, cfg)
        assert out[1] == 0.0 and np.isfinite(out[0])
        assert out.tobytes() == _reference_terminals(params, cfg).tobytes()

    def test_zero_vol_is_frozen(self):
        params = CevParams(s0=0.05, sigma=0.0, rho=0.6, T=1.2)
        out = simulate_terminals(params, McConfig(n_paths=500, n_steps=20, seed=3))
        assert np.all(out == 0.05)
        assert np.count_nonzero(out == 0.0) == 0

    def test_antithetic_pairing(self):
        # one Euler step: paired paths move symmetrically around the spot
        cfg = McConfig(n_paths=6, n_steps=1, seed=5, antithetic=True)
        out = simulate_terminals(PRINTED, cfg)
        for even in range(0, 6, 2):
            pair_sum = out[even] + out[even + 1]
            assert pair_sum == pytest.approx(2.0 * 0.05, rel=1e-12)

    def test_antithetic_odd_path_count(self):
        # trailing unpaired path uses its pair's draw with positive sign
        odd = simulate_terminals(PRINTED, McConfig(n_paths=7, n_steps=4, seed=5, antithetic=True))
        even = simulate_terminals(PRINTED, McConfig(n_paths=8, n_steps=4, seed=5, antithetic=True))
        assert np.array_equal(odd, even[:7])

    def test_absorption_frequency_matches_analytic(self, printed_model):
        # enough steps that the discretization bias is inside the noise band
        cfg = McConfig(n_paths=20_000, n_steps=512, seed=2024)
        out = simulate_terminals(PRINTED, cfg)
        frac = np.mean(out == 0.0)
        se = math.sqrt(printed_model.mass * (1 - printed_model.mass) / cfg.n_paths)
        assert abs(frac - printed_model.mass) <= 3.0 * se

    def test_martingale_mean(self):
        cfg = McConfig(n_paths=40_000, n_steps=100, seed=77)
        out = simulate_terminals(PRINTED, cfg)
        se = out.std(ddof=1) / math.sqrt(out.size)
        assert abs(out.mean() - 0.05) <= 4.0 * se


class TestPutPrice:
    def test_strike_below_all_paths(self):
        sample = np.array([1.0, 2.0, 3.0])
        price, se = mc_put_price(sample, 0.5)
        assert price == 0.0 and se == 0.0

    def test_large_strike_dominance(self):
        sample = np.array([0.5, 1.5, 2.0])
        K = 1e6
        price, _ = mc_put_price(sample, K)
        assert price / K == pytest.approx(1.0, abs=1e-5)

    def test_against_quadrature_oracle(self, printed_model):
        cfg = McConfig(n_paths=50_000, n_steps=512, seed=31)
        sample = simulate_terminals(PRINTED, cfg)
        K = 0.05 * math.exp(-4.0)
        price, se = mc_put_price(sample, K)
        assert abs(price - printed_model.put_price(K)) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            mc_put_price(np.array([1.0]), 0.0)

    def test_empty_sample_is_refused(self):
        # the mean of no payoffs was nan, with two RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-empty sample"):
                mc_put_price(np.array([]), 0.05)

    def test_grid_buffer_matches_fresh_calls(self):
        # halved vol: no path absorbs, so a strike can sit below every path
        params = CevParams(s0=0.05, sigma=0.1, rho=0.6, T=1.2)
        cfg = McConfig(n_paths=40_000, n_steps=16, seed=21)
        grid = [-3.0, -1.0, -0.25]
        sample = simulate_terminals(params, cfg)
        strikes = [0.5 * sample.min(), *(0.05 * math.exp(k) for k in grid), 2.0 * sample.max()]
        fresh = [mc_put_price(sample, K) for K in strikes]
        assert montecarlo._put_prices(sample, strikes) == fresh
        assert fresh[0] == (0.0, 0.0)
        for K, (price, std_err) in zip(strikes, fresh):
            # bit for bit the payoff array's own mean and std(ddof=1)
            payoff = np.maximum(K - sample, 0.0)
            assert price == float(payoff.mean())
            assert std_err == float(payoff.std(ddof=1) / math.sqrt(payoff.size))
        # mc_smile prices its grid in one buffer from the same sample
        estimates = mc_smile(params, cfg, grid)
        assert [est.std_err for est in estimates] == [se for _, se in fresh[1:-1]]


class TestMcSmile:
    def test_deterministic_estimates(self):
        cfg = McConfig(n_paths=4000, n_steps=50, seed=8)
        grid = [-2.0, -3.0, -4.0]
        a = mc_smile(PRINTED, cfg, grid)
        b = mc_smile(PRINTED, cfg, grid)
        assert a == b

    def test_undefined_marker_when_no_mass_below_strike(self):
        # halved vol: absorption is essentially impossible, so the deep
        # put prices at exactly zero and the entry is undefined
        params = CevParams(s0=0.05, sigma=0.1, rho=0.6, T=1.2)
        cfg = McConfig(n_paths=50, n_steps=20, seed=12)
        estimates = mc_smile(params, cfg, [-8.0])
        assert estimates[0].normalized_iv is None
        assert estimates[0].n_absorbed == 0

    def test_normalized_value_matches_inversion(self, printed_model):
        from atomvol import MarketSlice, OptionQuote, implied_vol

        cfg = McConfig(n_paths=30_000, n_steps=100, seed=4)
        grid = [-3.0]
        est = mc_smile(PRINTED, cfg, grid)[0]
        sample = simulate_terminals(PRINTED, cfg)
        K = 0.05 * math.exp(-3.0)
        price, _ = mc_put_price(sample, K)
        iv = implied_vol(MarketSlice(0.05, 1.2), OptionQuote(K, "put", price))
        assert est.normalized_iv == pytest.approx(iv * math.sqrt(1.2) / 3.0, rel=1e-12)

    def test_rejects_nonnegative_moneyness(self):
        cfg = McConfig(n_paths=10, n_steps=5, seed=1)
        with pytest.raises(DomainError):
            mc_smile(PRINTED, cfg, [-1.0, 0.0])
