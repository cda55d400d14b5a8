"""Euler-Maruyama simulation of the CEV SDE with absorption at zero.

Randomness comes from a stateless counter-based construction: the
SplitMix64 output function (golden-gamma Weyl increment followed by
Stafford's mix13 finalizer) evaluated at an index composed from
(seed, stream, step), pushed through the inverse normal CDF.  Every
draw is a pure function of those coordinates, so results are bit
reproducible, independent of chunking, and safe to evaluate in
parallel in any order.

The uniform is (m + 1/2) * 2^-53 for the top 53 bits m of the mix;
at m = 2^53 - 1 it rounds to 1, so it is held at the largest double
below 1 and every draw is finite.

The Euler kernel does no index work and no allocation per step.  The
SplitMix64 state of stream i at step s is seed + GOLDEN*(i*n_steps + 1
+ s) modulo 2^64, so each path's key seed + GOLDEN*(i*n_steps + 1) is
computed once and a step adds the scalar GOLDEN*s.  The draws and the
update run in place through buffers allocated once per chunk.  The
update is applied to every path, absorbed or not, then clamped at 0:
for rho in (0, 1), 0**rho = 0, and with a finite draw the increment of
a path at 0 is 0, so it stays at 0.  The output is therefore
bit-identical to stepping only the live paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from atomvol.blackscholes import MarketSlice, OptionQuote, implied_vol
from atomvol.cev import CevParams
from atomvol.errors import DomainError, NoSolutionError, positive

__all__ = [
    "McConfig",
    "McSmileEstimate",
    "counter_normals",
    "simulate_terminals",
    "mc_put_price",
    "mc_smile",
]

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
# largest double below 1: the uniform's ceiling, so that ndtri stays finite
_U_MAX = 1.0 - 2.0**-53


@dataclass(frozen=True)
class McConfig:
    """Reproducible simulation spec; identical config means identical output."""

    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class McSmileEstimate:
    """One normalized-smile point: iv * sqrt(T) / |k| plus sampling info.

    normalized_iv is None where the sampled put price violates the
    no-arbitrage band (reported undefined rather than clamped).
    """

    k: float
    normalized_iv: Optional[float]
    std_err: float
    n_absorbed: int


def _counter_keys(seed: int, stream: np.ndarray, n_steps: int) -> np.ndarray:
    """SplitMix64 state of each stream at step 0: seed + GOLDEN*(stream*n_steps + 1).

    Step s of a stream reads index stream*n_steps + s, whose state is
    key + GOLDEN*s modulo 2^64; the key is computed once per stream.
    """
    with np.errstate(over="ignore"):
        seed_u = np.uint64(int(seed) % (1 << 64))
        idx = np.asarray(stream).astype(np.uint64) * np.uint64(n_steps) + np.uint64(1)
        return seed_u + _GOLDEN * idx


def _normals_into(
    keys: np.ndarray, step: int, bits: np.ndarray, tmp: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The counter normals of one step, written to out through caller buffers.

    out = ndtri of the 53-bit uniform built from Stafford's mix13
    finalizer of keys + GOLDEN*step, held below 1; bits and tmp are
    uint64 scratch of the same shape.  This is the one definition of
    the draw.
    """
    np.add(keys, np.uint64((_GOLDEN_INT * step) % (1 << 64)), out=bits)
    for shift, mult in ((30, _MIX_1), (27, _MIX_2)):
        np.bitwise_xor(bits, np.right_shift(bits, shift, out=tmp), out=bits)
        np.multiply(bits, mult, out=bits)
    np.bitwise_xor(bits, np.right_shift(bits, 31, out=tmp), out=bits)
    np.right_shift(bits, 11, out=bits)
    np.multiply(bits, 2.0**-53, out=out)
    np.add(out, 2.0**-54, out=out)
    np.minimum(out, _U_MAX, out=out)
    return ndtri(out, out=out)


def counter_normals(
    seed: int, stream: np.ndarray, step: int, n_steps: int
) -> np.ndarray:
    """Standard normal draws for the given streams at one time step.

    Pure function of (seed, stream, step): draw = ndtri of the 53-bit
    uniform built from SplitMix64 evaluated at index stream*n_steps+step.
    """
    keys = _counter_keys(seed, stream, n_steps)
    return _normals_into(
        keys, step, np.empty_like(keys), np.empty_like(keys), np.empty(keys.shape)
    )


def _euler_chunk(
    params: CevParams, cfg: McConfig, paths: np.ndarray, sqdt: float, S: np.ndarray
) -> None:
    """Euler-step the given paths in S, which ends holding their terminal values.

    Every step updates all the paths; absorbed ones sit at 0, where the
    update keeps them.
    """
    if cfg.antithetic:
        keys = _counter_keys(cfg.seed, paths >> np.uint64(1), cfg.n_steps)
        signs = np.where(paths & np.uint64(1), -1.0, 1.0)
    else:
        keys = _counter_keys(cfg.seed, paths, cfg.n_steps)
        signs = None
    S.fill(params.s0)
    bits, tmp = np.empty_like(keys), np.empty_like(keys)
    z, incr = np.empty_like(S), np.empty_like(S)
    for step in range(cfg.n_steps):
        _normals_into(keys, step, bits, tmp, z)
        if signs is not None:
            z *= signs
        # S + sigma * S**rho * sqdt * z, multiplied left to right as
        # written so every rounding is the formula's; for rho in (0, 1),
        # 0**rho = 0, so the update leaves 0 at 0
        np.power(S, params.rho, out=incr)
        incr *= params.sigma
        incr *= sqdt
        incr *= z
        S += incr
        np.maximum(S, 0.0, out=S)


def simulate_terminals(
    params: CevParams, cfg: McConfig, chunk_size: int = 65536
) -> np.ndarray:
    """Terminal CEV values under Euler stepping with full absorption.

    A path is absorbed the first time its Euler update lands at or below
    zero and stays at zero afterwards.  Each chunk is stepped with
    hoisted counter keys and in-place draws, and with an update of all
    its paths clamped at 0, which is absorbing for rho in (0, 1); see
    the module docstring.  chunk_size only bounds memory: the kernel's
    buffers are chunk-sized, and the output is bit-identical for any
    value.
    """
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    sqdt = math.sqrt(params.T / cfg.n_steps)
    out = np.empty(cfg.n_paths, dtype=np.float64)
    for start in range(0, cfg.n_paths, chunk_size):
        stop = min(start + chunk_size, cfg.n_paths)
        paths = np.arange(start, stop, dtype=np.uint64)
        _euler_chunk(params, cfg, paths, sqdt, out[start:stop])
    return out


def mc_put_price(sample: np.ndarray, K: float) -> tuple[float, float]:
    """Sample mean and standard error of the put payoff (K - S)^+."""
    positive("strike", K)
    payoff = np.maximum(K - np.asarray(sample, dtype=float), 0.0)
    price = float(payoff.mean())
    if payoff.size > 1:
        std_err = float(payoff.std(ddof=1) / math.sqrt(payoff.size))
    else:
        std_err = 0.0
    return price, std_err


def mc_smile(
    params: CevParams, cfg: McConfig, k_grid: Sequence[float]
) -> list[McSmileEstimate]:
    """Normalized Monte Carlo smile k -> iv(k) * sqrt(T) / |k| on the left wing.

    One terminal sample serves the whole grid.  Strikes are K = s0*e^k
    with k < 0; put prices outside (0, K) yield undefined entries.
    """
    k_grid = [float(k) for k in k_grid]
    if any(k >= 0.0 for k in k_grid):
        raise DomainError("mc_smile expects negative log-moneyness values")
    sample = simulate_terminals(params, cfg)
    n_absorbed = int(np.count_nonzero(sample == 0.0))
    market = MarketSlice(x0=params.s0, T=params.T)
    sqT = math.sqrt(params.T)
    estimates = []
    for k in k_grid:
        K = params.s0 * math.exp(k)
        price, std_err = mc_put_price(sample, K)
        normalized = None
        if 0.0 < price < K:
            try:
                iv = implied_vol(market, OptionQuote(K, "put", price))
                normalized = iv * sqT / abs(k)
            except NoSolutionError:
                normalized = None
        estimates.append(
            McSmileEstimate(
                k=k, normalized_iv=normalized, std_err=std_err, n_absorbed=n_absorbed
            )
        )
    return estimates
