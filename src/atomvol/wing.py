"""Small-strike implied-volatility asymptotics for models with an atom at zero.

The machinery lives in the depth variable L = log(x0/K) > 0.  Everything
is built around the strike-dependent perturbation of the normal CDF

    U_K(x) = N(x) - exp(-x^2/2) / (2 sqrt(pi) sqrt(log K)),   K > 1,

whose inverse replaces the plain normal quantile in the sharper
three-term expansions, in the two-sided bounds, and in the diagnostic
that bridges back to the De Marco-Hillairet-Jacquier formula.

Model input comes in normalized units (spot scaled to 1): an AtomModel
carries the mass at zero plus optional evaluators for the continuous
part.  All smile operations depend on the strike only through x0/K and
are therefore invariant under joint rescaling of spot and strike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from atomvol.blackscholes import MarketSlice
from atomvol.errors import (
    DomainAboveError,
    DomainBelowError,
    DomainError,
)
from atomvol.specfun import norm_cdf, norm_cdf_inv

__all__ = [
    "AtomModel",
    "BoundsConfig",
    "u_k",
    "u_k_inv",
    "g_from_put",
    "smile_leading",
    "smile_three_term_atom",
    "smile_three_term_pT",
    "smile_three_term_G",
    "smile_sqrt_form",
    "smile_bounds",
    "smile_dmhj",
    "estims_ratio",
    "sign_classify",
    "dmhj_psi_envelope",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)

_INV_TOL_X = 1e-13
_INV_MAX_ITER = 200


def _depth(K: Optional[float], log_k: Optional[float]) -> float:
    """Resolve the (K, log_k) calling convention into log K > 0."""
    if (K is None) == (log_k is None):
        raise DomainError("pass exactly one of K or log_k")
    if log_k is None:
        K = float(K)
        if not (K > 1.0 and math.isfinite(K)):
            raise DomainError(f"requires K > 1, got {K}")
        return math.log(K)
    log_k = float(log_k)
    if not (log_k > 0.0 and math.isfinite(log_k)):
        raise DomainError(f"requires log K > 0, got {log_k}")
    return log_k


def u_k(x: float, K: Optional[float] = None, *, log_k: Optional[float] = None) -> float:
    """U_K(x) = N(x) - exp(-x^2/2)/(2 sqrt(pi) sqrt(log K)) for K > 1.

    Strictly increasing on [-sqrt(2 log K), inf); accepts the depth as
    either the index K itself or log_k for indices too large to
    represent in floating point.
    """
    L = _depth(K, log_k)
    x = float(x)
    return norm_cdf(x) - math.exp(-0.5 * x * x) / (2.0 * _SQRT_PI * math.sqrt(L))


def _u_k_left_edge(L: float) -> tuple[float, float]:
    """Left endpoint of the monotone branch and the value of U_K there."""
    edge = -math.sqrt(2.0 * L)
    value = norm_cdf(edge) - math.exp(-L) / (2.0 * _SQRT_PI * math.sqrt(L))
    return edge, value


def u_k_inv(y: float, K: Optional[float] = None, *, log_k: Optional[float] = None) -> float:
    """Inverse of U_K on its increasing branch [-sqrt(2 log K), inf).

    Bisection against u_k: monotone, derivative-free, robust next to the
    left endpoint where the derivative of U_K vanishes.  Raises
    DomainBelowError for y below U_K(-sqrt(2 log K)) (the strike is not
    deep enough for that level), DomainAboveError for y >= 1 and
    DomainError for nan.
    """
    L = _depth(K, log_k)
    y = float(y)
    if math.isnan(y):
        raise DomainError("u_k_inv requires a level, got nan")
    if y >= 1.0:
        raise DomainAboveError(f"u_k_inv requires y < 1, got {y}")
    lo, lo_val = _u_k_left_edge(L)
    if y < lo_val:
        raise DomainBelowError(
            f"u_k_inv: y={y} below U_K at the left endpoint ({lo_val:.6g}) "
            f"for log K={L:.6g}"
        )
    if y == lo_val:
        return lo

    # U_K < N pointwise, so the root sits above N^{-1}(y); seed a bracket
    # from the normal quantile and expand until it straddles.
    seed = min(max(y + 0.1, 0.05), 1.0 - 1e-16)
    hi = norm_cdf_inv(seed) + 1.0
    while u_k(hi, log_k=L) < y:
        hi += 1.0

    for _ in range(_INV_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if u_k(mid, log_k=L) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < _INV_TOL_X:
            break
    return 0.5 * (lo + hi)


def g_from_put(put_evaluator: Callable[[float], float], K: float) -> float:
    """The transform G(K) = K * P(1/K) linking left-wing puts to a call-like
    function at large strikes (spot normalized to 1)."""
    if not (K > 1.0 and math.isfinite(K)):
        raise DomainError(f"g_from_put requires K > 1, got {K}")
    return K * put_evaluator(1.0 / K)


@dataclass(frozen=True)
class AtomModel:
    """Terminal-law summary in spot-normalized units (spot = 1).

    mass     -- probability of the price being exactly zero, in (0, 1)
    p_tilde  -- optional continuous-part CDF u -> P(0 < X <= u)
    put      -- optional normalized put price k -> E (k - X)^+, 0 < k < 1

    G comes from the put via g_from_put where there is one, and is the
    constant mass otherwise.
    """

    mass: float
    p_tilde: Optional[Callable[[float], float]] = None
    put: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not (0.0 < self.mass < 1.0):
            raise DomainError(f"mass must lie in (0, 1), got {self.mass}")

    def g_value(self, K: float) -> float:
        """G(K) from the put, or the mass without one."""
        if self.put is not None:
            return g_from_put(self.put, K)
        return self.mass

    def p_total(self, u: float) -> float:
        """Full CDF mass + p_tilde(u); requires the p_tilde evaluator."""
        if self.p_tilde is None:
            raise DomainError("model has no p_tilde evaluator")
        return self.mass + self.p_tilde(u)


@dataclass(frozen=True)
class BoundsConfig:
    """epsilon of the two-sided bound construction; smaller tightens the
    lower bound at the cost of pushing the validity threshold deeper."""

    epsilon: float = 0.01

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")


def _wing_depth(market: MarketSlice, K: float) -> float:
    """L = log(x0/K) > 0 for a left-wing strike; refuses K >= x0."""
    if not (K > 0.0 and math.isfinite(K)):
        raise DomainError(f"strike must be positive, got {K}")
    if K >= market.x0:
        raise DomainError(
            f"wing formulas require K < x0 (asymptotics as K -> 0); "
            f"got K={K}, x0={market.x0}"
        )
    return math.log(market.x0 / K)


def smile_leading(market: MarketSlice, K: float, put_price: float) -> float:
    """Leading-order left-wing formula from the put price alone:

        sqrt(2/T) * [sqrt(log(x0/P)) - sqrt(log(K/P))].

    The error term of the underlying expansion is not included.
    """
    _wing_depth(market, K)
    if not (0.0 < put_price < K):
        raise DomainError(f"put price must lie in (0, K), got {put_price}")
    a = math.log(market.x0 / put_price)
    b = math.log(K / put_price)
    if a <= 0.0 or b <= 0.0:
        raise DomainError("put price too large for the leading-order formula")
    return _SQRT2 / math.sqrt(market.T) * (math.sqrt(a) - math.sqrt(b))


def _three_term(T: float, L: float, u: float) -> float:
    sqT = math.sqrt(T)
    return (
        _SQRT2 / sqT * math.sqrt(L)
        + u / sqT
        + _SQRT2 / (4.0 * sqT) * u * u / math.sqrt(L)
    )


def smile_three_term_atom(market: MarketSlice, K: float, mass: float) -> float:
    """Three-term expansion with the atom mass as the inverted level:

        sqrt(2/T) L^(1/2) + u/sqrt(T) + sqrt(2)/(4 sqrt(T)) u^2 L^(-1/2),

    u = (U_{x0/K})^{-1}(mass), L = log(x0/K).  A mass at or below 0
    raises DomainBelowError, one at or above 1 DomainAboveError.
    """
    L = _wing_depth(market, K)
    if mass <= 0.0:
        raise DomainBelowError(f"mass must lie in (0, 1), got {mass}")
    u = u_k_inv(mass, log_k=L)
    return _three_term(market.T, L, u)


def smile_three_term_pT(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with the full CDF p_T(K/x0) as the level."""
    L = _wing_depth(market, K)
    u = u_k_inv(model.p_total(K / market.x0), log_k=L)
    return _three_term(market.T, L, u)


def smile_three_term_G(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with G(x0/K) as the level (the sharpest variant)."""
    L = _wing_depth(market, K)
    u = u_k_inv(model.g_value(market.x0 / K), log_k=L)
    return _three_term(market.T, L, u)


def _sqrt_form(T: float, L: float, u: float) -> float:
    """sqrt(2/T) * sqrt(L + H(u; L)), H(u; L) = u^2 + u sqrt(u^2 + 2L).

    H is increasing in u on the valid branch of the U_K inverse, where
    the radicand is nonnegative.
    """
    radicand = L + (u * u + u * math.sqrt(u * u + 2.0 * L))
    if radicand < 0.0:  # cannot happen on the valid branch
        raise AssertionError(f"negative radicand {radicand} in sqrt form")
    return _SQRT2 / math.sqrt(T) * math.sqrt(radicand)


def smile_sqrt_form(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Unexpanded sqrt form sqrt(2/T) * sqrt(L + H(u1; L)), u1 from G.

    This equals the upper bound of smile_bounds and carries the same
    one-sided O(L^(-3/2)) error as the three-term expansion.  Unlike
    smile_bounds it needs no deflated level, so it exists at shallow
    strikes where the lower bound raises DomainBelowError.
    """
    L = _wing_depth(market, K)
    u1 = u_k_inv(model.g_value(market.x0 / K), log_k=L)
    return _sqrt_form(market.T, L, u1)


def smile_bounds(
    market: MarketSlice,
    K: float,
    model: AtomModel,
    cfg: BoundsConfig = BoundsConfig(),
) -> tuple[float, float]:
    """Two-sided volatility bounds from the H transform.

    upper uses u1 = (U)^{-1}(G(x0/K)); lower uses u2 = (U)^{-1} of the
    epsilon-deflated level

        G_eps = G - (3 N^{-1}(mass)^2 + 2 + eps) / (8 sqrt(pi) L^(3/2)).

    The deflation must be subtracted: H is increasing in u, so only that
    sign keeps lower <= upper, and the shifted level is what absorbs the
    Gaussian-tail remainder of the construction.  The upper bound holds
    at every depth; the lower bound only beyond a model-dependent
    threshold and raises DomainBelowError above it.
    """
    L = _wing_depth(market, K)
    g = model.g_value(market.x0 / K)
    a = norm_cdf_inv(model.mass)
    deflation = (3.0 * a * a + 2.0 + cfg.epsilon) / (8.0 * _SQRT_PI * L**1.5)
    u1 = u_k_inv(g, log_k=L)
    u2 = u_k_inv(g - deflation, log_k=L)
    return _sqrt_form(market.T, L, u2), _sqrt_form(market.T, L, u1)


def smile_dmhj(market: MarketSlice, K: float, mass: float) -> float:
    """De Marco-Hillairet-Jacquier expansion using the plain normal quantile:

        sqrt(2/T) L^(1/2) + N^{-1}(mass)/sqrt(T)
            + sqrt(2) N^{-1}(mass)^2 / (4 sqrt(T)) L^(-1/2).

    The residual error function of that formula is not evaluated here.
    """
    L = _wing_depth(market, K)
    a = norm_cdf_inv(mass)
    sqT = math.sqrt(market.T)
    return (
        _SQRT2 / sqT * math.sqrt(L)
        + a / sqT
        + _SQRT2 * a * a / (4.0 * sqT) / math.sqrt(L)
    )


def _strike_depth(K: Optional[float], depth: Optional[float]) -> float:
    """Resolve the (K, depth) calling convention into depth = log(1/K) > 0."""
    if (K is None) == (depth is None):
        raise DomainError("pass exactly one of K or depth")
    if depth is None:
        K = float(K)
        if not (0.0 < K < 1.0):
            raise DomainError(f"requires 0 < K < 1, got {K}")
        depth = -math.log(K)
    depth = float(depth)
    if not depth > 0.0:  # also refuses nan
        raise DomainError(f"depth must be positive, got {depth}")
    return depth


def estims_ratio(
    mass: float, K: Optional[float] = None, *, depth: Optional[float] = None
) -> float:
    """sqrt(2 log(1/K)) * [(U_{1/K})^{-1}(mass) - N^{-1}(mass)]; tends to 1
    as the strike K -> 0.

    depth = log(1/K) may be passed instead of K for depths where K
    underflows.  Requires N(-sqrt(2 log(1/K))) < mass when mass < 1/2
    (the sufficient existence condition); below it DomainBelowError.
    """
    if not (0.0 < mass < 1.0):
        raise DomainError(f"mass must lie in (0, 1), got {mass}")
    depth = _strike_depth(K, depth)
    if mass < 0.5 and norm_cdf(-math.sqrt(2.0 * depth)) >= mass:
        raise DomainBelowError(
            f"existence condition fails: N(-sqrt(2*{depth:.6g})) >= {mass}"
        )
    u = u_k_inv(mass, log_k=depth)
    return _SQRT2 * math.sqrt(depth) * (u - norm_cdf_inv(mass))


def sign_classify(
    mass: float, K: Optional[float] = None, *, depth: Optional[float] = None
) -> str:
    """Sign trichotomy of (U_{1/K})^{-1}(mass) for mass < 1/2.

    Returns 'positive', 'zero' or 'negative' according to the position
    of mass relative to 1/2 - 1/(2 sqrt(pi) sqrt(log(1/K))).  In the
    positive case the perturbed quantile and the plain normal quantile
    have opposite signs.
    """
    depth = _strike_depth(K, depth)
    if not (0.0 < mass < 0.5):
        raise DomainError(
            f"trichotomy is stated for 0 < mass < 1/2, got {mass}"
        )
    _, lo_val = _u_k_left_edge(depth)
    if mass <= lo_val:
        raise DomainBelowError(
            f"mass {mass} at or below U at the left endpoint ({lo_val:.6g})"
        )
    threshold = 0.5 - 1.0 / (2.0 * _SQRT_PI * math.sqrt(depth))
    if mass > threshold:
        return "positive"
    if mass == threshold:
        return "zero"
    return "negative"


def dmhj_psi_envelope(T: float, mass: float, log_k: float, psi_value: float) -> float:
    """Envelope Psi of the DMHJ residual at index u = e^(log_k):

        Psi = sqrt(2)/(2 sqrt(T)) (log u)^(-1/2)
              + sqrt(2 pi)/sqrt(T) exp(N^{-1}(mass)^2 / 2) psi(u),

    where psi(u) = G(u) - mass.  Reporting-only: its limsup statement is
    not assertable at finite depth.
    """
    if T <= 0.0 or log_k <= 0.0:
        raise DomainError("requires T > 0 and log_k > 0")
    a = norm_cdf_inv(mass)
    sqT = math.sqrt(T)
    return _SQRT2 / (2.0 * sqT) / math.sqrt(log_k) + math.sqrt(
        2.0 * math.pi
    ) / sqT * math.exp(0.5 * a * a) * psi_value
