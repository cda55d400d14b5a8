"""Euler-Maruyama simulation of the CEV SDE with absorption at zero.

Randomness comes from a stateless counter-based construction: the
SplitMix64 output function (golden-gamma Weyl increment followed by
Stafford's mix13 finalizer) evaluated at an index composed from
(seed, stream, step), pushed through the inverse normal CDF.  Every
draw is a pure function of those coordinates, so results are bit
reproducible, independent of how the paths are tiled, and safe to
evaluate in parallel in any order.

The uniform is (m + 1/2) * 2^-53 for the top 53 bits m of the mix;
at m = 2^53 - 1 it rounds to 1, so it is held at the largest double
below 1 and every draw is finite.

The Euler kernel does no index work and no allocation per step.  The
SplitMix64 state of stream i at step s is seed + GOLDEN*(i*n_steps + 1
+ s) modulo 2^64, so each stream's key seed + GOLDEN*(i*n_steps + 1) is
computed once and a step adds GOLDEN*s.  Path p reads stream p, or under
antithetic pairing stream p >> 1 with the sign + for even p and - for
odd p, so the two paths of a pair read one stream with opposite signs.

A request's paths are cut into contiguous tiles, and a pool of one
thread per CPU the process may run on steps them.  For the B = max(1,
min(n_steps, 2^15 // n)) steps of a block of a tile of n paths, the
states of the tile's m distinct streams (m = n, or about n/2 under
antithetic pairing) form one (B, m) array, and the hash, the uniform
and ndtri each run once over it.  Under antithetic pairing each draw is
then written to its even path and its negative to its odd path;
negation is exact, so a pair cut by a tile boundary draws its stream in
both tiles and gets the same bits.  The update then runs step by step
through buffers allocated once per tile.  It is applied to every path,
absorbed or not, then clamped at 0: for rho in (0, 1), 0**rho = 0, and
with a finite draw the increment of a path at 0 is 0, so it stays at 0.
The output is therefore bit-identical to stepping only the live paths.

Numpy ufuncs and ndtri release the interpreter lock while they run, and
each call takes it back; computing the draws in blocks leaves the
update's six calls per step, where one-step draws took about 17, so the
threads hand the lock over less often.  Each tile writes only its own
paths, and every draw and every update is a per-path, elementwise
computation, so the output is bit-identical for any tiling and any
number of threads.

mc_smile prices every strike of its grid from the one terminal sample,
in one payoff buffer allocated per call; mc_put_price is the one-strike
case of the same pricing, so the two give the same bits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from atomvol.blackscholes import MarketSlice, OptionQuote, implied_vol
from atomvol.cev import CevParams
from atomvol.errors import DomainError, NoSolutionError, integer, positive

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
# elements of a tile's draw block: the draws of up to _BLOCK // n_paths
# steps are computed in one pass
_BLOCK = 1 << 15


@dataclass(frozen=True)
class McConfig:
    """Reproducible simulation spec; identical config means identical output."""

    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            integer(name, getattr(self, name))
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


def _normals_into(bits: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The counter normals of the SplitMix64 states in bits, written to out.

    out = ndtri of the 53-bit uniform built from Stafford's mix13
    finalizer of each state, held below 1.  bits (consumed) and tmp are
    uint64 arrays of any one shape, out a float64 array of that shape;
    the result is elementwise, so it is the same whatever the shape.
    This is the one definition of the draw.
    """
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
    Arguments that would read another stream's draws raise DomainError:
    a non-integer seed, step or n_steps, n_steps < 1, a step outside
    [0, n_steps), or a stream array that is not of integer type or holds
    a value below 0 or one whose indices pass 2^64 and wrap.
    """
    seed, step, n_steps = integer("seed", seed), integer("step", step), integer("n_steps", n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if not 0 <= step < n_steps:
        raise DomainError(f"step must lie in [0, {n_steps}), got {step}")
    stream = np.asarray(stream)
    if stream.dtype.kind not in "iu":
        raise DomainError(f"stream must hold integers, got dtype {stream.dtype}")
    if stream.dtype.kind == "i" and np.any(stream < 0):
        raise DomainError("stream must hold no negative value")
    # the indices stream*n_steps + 1 + step stay distinct modulo 2^64 while
    # the last, stream*n_steps + n_steps, is at most 2^64 (index 0 is unused)
    if stream.size and int(stream.max()) > (1 << 64) // n_steps - 1:
        raise DomainError(f"stream must be at most 2^64 // n_steps - 1, got {int(stream.max())}")
    keys = _counter_keys(seed, stream, n_steps)
    bits = keys + np.uint64((_GOLDEN_INT * step) % (1 << 64))
    return _normals_into(bits, np.empty_like(bits), np.empty(bits.shape))


def _euler_chunk(
    params: CevParams, cfg: McConfig, start: int, stop: int, sqdt: float, S: np.ndarray
) -> None:
    """Euler-step paths start..stop-1 in S, which ends holding their terminal values.

    The draws of a block of steps are computed together, once per
    distinct stream, then the update runs step by step.  Every step
    updates all the paths; absorbed ones sit at 0, where the update
    keeps them.
    """
    n, pair = stop - start, 2 if cfg.antithetic else 1
    # paths start..stop-1 read the m streams start//pair..(stop-1)//pair;
    # the draw of stream first_stream + j sits in column pair*j of z, under
    # antithetic pairing its negative in the next, and path p in column
    # p - pair*first_stream
    first_stream, lead = divmod(start, pair)
    m = (stop - 1) // pair - first_stream + 1
    streams = np.arange(first_stream, first_stream + m, dtype=np.uint64)
    keys = _counter_keys(cfg.seed, streams, cfg.n_steps)
    block = max(1, min(cfg.n_steps, _BLOCK // n))
    # GOLDEN*s modulo 2^64 for every step s: uint64 arithmetic wraps
    offsets = (_GOLDEN * np.arange(cfg.n_steps, dtype=np.uint64))[:, None]
    bits, tmp = np.empty((block, m), np.uint64), np.empty((block, m), np.uint64)
    z = np.empty((block, pair * m))
    draws = z[:, ::pair]
    incr = np.empty_like(S)
    S.fill(params.s0)
    for first in range(0, cfg.n_steps, block):
        rows = min(block, cfg.n_steps - first)
        np.add(keys, offsets[first:first + rows], out=bits[:rows])
        _normals_into(bits[:rows], tmp[:rows], draws[:rows])
        if cfg.antithetic:
            np.negative(draws[:rows], out=z[:rows, 1::2])
        for zs in z[:rows, lead:lead + n]:
            # S + sigma * S**rho * sqdt * z, multiplied left to right as
            # written so every rounding is the formula's; for rho in (0, 1),
            # 0**rho = 0, so the update leaves 0 at 0
            np.power(S, params.rho, out=incr)
            incr *= params.sigma
            incr *= sqdt
            incr *= zs
            S += incr
            np.maximum(S, 0.0, out=S)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_terminals(
    params: CevParams, cfg: McConfig, chunk_size: int = 65536
) -> np.ndarray:
    """Terminal CEV values under Euler stepping with full absorption.

    A path is absorbed the first time its Euler update lands at or below
    zero and stays at zero afterwards.  The paths are cut into contiguous
    tiles of min(chunk_size, ceil(n_paths / W)) paths, W the number of
    CPUs the process may run on, and W threads step the tiles, each with
    tile-sized buffers, so chunk_size bounds a thread's memory.  An
    exception raised in any tile reaches the caller, and every thread
    has stopped before the call returns or raises.  The output is
    bit-identical for any chunk_size and any number of CPUs; see the
    module docstring.
    """
    if integer("chunk_size", chunk_size) < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    sqdt = math.sqrt(params.T / cfg.n_steps)
    out = np.empty(cfg.n_paths, dtype=np.float64)
    workers = _worker_count()
    tile = min(chunk_size, -(-cfg.n_paths // workers))

    def run(start):
        stop = min(start + tile, cfg.n_paths)
        _euler_chunk(params, cfg, start, stop, sqdt, out[start:stop])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() reads every tile's result, so any tile's exception reaches the caller
        list(pool.map(run, range(0, cfg.n_paths, tile)))
    return out


def _put_prices(sample: np.ndarray, strikes: Sequence[float]) -> list[tuple[float, float]]:
    """(price, std_err) of the put payoff (K - S)^+ for each strike K.

    Every strike is priced in one payoff buffer the size of sample,
    allocated once per call.  The mean and the standard error are those
    of payoff.mean() and payoff.std(ddof=1) / sqrt(n), bit for bit: the
    same sums over the same elements, with the deviations squared in the
    buffer in place of numpy's temporary.
    """
    n = sample.size
    buf = np.empty_like(sample)
    prices = []
    for K in strikes:
        positive("strike", K)
        np.subtract(K, sample, out=buf)
        np.maximum(buf, 0.0, out=buf)
        price = float(buf.mean())
        std_err = 0.0
        if n > 1:
            np.subtract(buf, price, out=buf)
            np.multiply(buf, buf, out=buf)
            std_err = math.sqrt(float(buf.sum()) / (n - 1)) / math.sqrt(n)
        prices.append((price, std_err))
    return prices


def mc_put_price(sample: np.ndarray, K: float) -> tuple[float, float]:
    """Sample mean and standard error of the put payoff (K - S)^+.

    The one-strike case of the grid pricing mc_smile uses, so both give
    the same bits.  An empty sample raises DomainError.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DomainError("mc_put_price needs a non-empty sample")
    return _put_prices(sample, [K])[0]


def mc_smile(
    params: CevParams, cfg: McConfig, k_grid: Sequence[float]
) -> list[McSmileEstimate]:
    """Normalized Monte Carlo smile k -> iv(k) * sqrt(T) / |k| on the left wing.

    One terminal sample serves the whole grid, and one payoff buffer
    prices every strike (see _put_prices).  Strikes are K = s0*e^k
    with k < 0; put prices outside (0, K) yield undefined entries.
    """
    k_grid = [float(k) for k in k_grid]
    if any(k >= 0.0 for k in k_grid):
        raise DomainError("mc_smile expects negative log-moneyness values")
    sample = simulate_terminals(params, cfg)
    n_absorbed = int(np.count_nonzero(sample == 0.0))
    market = MarketSlice(x0=params.s0, T=params.T)
    sqT = math.sqrt(params.T)
    strikes = [params.s0 * math.exp(k) for k in k_grid]
    estimates = []
    for k, K, (price, std_err) in zip(k_grid, strikes, _put_prices(sample, strikes)):
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
