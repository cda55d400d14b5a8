"""Small-strike implied-volatility asymptotics for models with an atom at zero.

The machinery lives in the depth variable L = log(x0/K) > 0, and every
function below the smile_* layer takes L, never K.  Everything is built
around the strike-dependent perturbation of the normal CDF

    U_K(x) = N(x) - exp(-x^2/2) / (2 sqrt(pi) sqrt(L)),   L = log K > 0,

whose inverse replaces the plain normal quantile in the sharper
three-term expansions, in the two-sided bounds, and in the diagnostic
that bridges back to the De Marco-Hillairet-Jacquier formula.

u_k and u_k_inv broadcast: a scalar call raises a typed DomainError on
bad input, an array call gives NaN there.  smile_grid fills a strike
vector with one u_k_inv call, NaN exactly where the smile_* call at that
strike raises DomainError.

Model input comes in normalized units (spot scaled to 1): an AtomModel
carries the mass at zero plus optional evaluators for the continuous
part.  All smile operations depend on the strike only through x0/K and
are therefore invariant under joint rescaling of spot and strike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from atomvol.blackscholes import MarketSlice
from atomvol.errors import (
    DomainAboveError,
    DomainBelowError,
    DomainError,
)
from atomvol.specfun import norm_cdf, norm_cdf_inv

__all__ = [
    "AtomModel", "BoundsConfig", "u_k", "u_k_inv", "g_from_put",
    "smile_leading", "smile_three_term_atom", "smile_three_term_pT", "smile_three_term_G",
    "smile_sqrt_form", "smile_bounds", "smile_dmhj", "smile_grid",
    "estims_ratio", "sign_classify", "dmhj_psi_envelope",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)

_INV_TOL_X = 1e-13
_INV_MAX_ITER = 200


def _depth(L: float) -> float:
    """The depth L = log K (for U_K) or log(x0/K) (for a strike), checked
    finite and > 0; nan is refused as well."""
    L = float(L)
    if not 0.0 < L < math.inf:
        raise DomainError(f"depth must be finite and > 0, got {L}")
    return L


def _flat(x, L):
    """x and L as flat float vectors of their broadcast shape, L with a
    stand-in 1 where it is no depth (so no NaN warnings arise), and the
    depth check for _refuse."""
    x, L = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(L, dtype=float))
    shape, x, L = x.shape, x.ravel(), L.ravel()
    bad = ~((0.0 < L) & (L < math.inf))
    return shape, x, np.where(bad, 1.0, L), (bad, lambda: _depth(L[0]))


def _refuse(shape, out, checks):
    """out in the caller's shape, NaN where the mask of a (mask, error)
    check holds; a 0-d call raises the error of the first such check."""
    if shape == ():
        for bad, error in checks:
            if bad[0]:
                raise error()
        return float(out[0])
    for bad, _ in checks:
        out[bad] = math.nan
    return out.reshape(shape)


def _u(x, scale):
    """U_K(x) for scale = 2 sqrt(pi) sqrt(L), unchecked."""
    return norm_cdf(x) - np.exp(-0.5 * x * x) / scale


def u_k(x, L):
    """U_K(x) = N(x) - exp(-x^2/2)/(2 sqrt(pi) sqrt(L)) at depth L = log K > 0.

    Strictly increasing on [-sqrt(2L), inf).  Taking the depth rather
    than K keeps indices far beyond the floating-point range usable.
    x and L broadcast; a nan point or a bad depth raises DomainError in a
    scalar call and gives NaN in an array call.
    """
    shape, x, L, depth_check = _flat(x, L)
    nan_x = (np.isnan(x), lambda: DomainError("u_k requires a point, got nan"))
    return _refuse(shape, _u(x, 2.0 * _SQRT_PI * np.sqrt(L)), [depth_check, nan_x])


def _u_k_left_edge(L):
    """Left endpoint of the monotone branch and the value of U_K there."""
    edge = -np.sqrt(2.0 * L)
    return edge, norm_cdf(edge) - np.exp(-L) / (2.0 * _SQRT_PI * np.sqrt(L))


def u_k_inv(y, L):
    """Inverse of U_K at depth L on its increasing branch [-sqrt(2L), inf).

    Bisection against U_K: monotone, derivative-free, robust next to the
    left endpoint where the derivative of U_K vanishes.  y and L
    broadcast.  Every element bisects its own bracket and stops on its
    own (width below 1e-13, at most 200 halvings), so an array call
    equals the scalar calls bit for bit.  A scalar call raises
    DomainBelowError for y below U_K(-sqrt(2L)) (the strike is not deep
    enough for that level), DomainAboveError for y >= 1 and DomainError
    for a nan level or a bad depth; an array call gives NaN there.
    """
    shape, y, L, depth_check = _flat(y, L)
    lo, lo_val = _u_k_left_edge(L)
    checks = [depth_check, (np.isnan(y), lambda: DomainError("u_k_inv requires a level, got nan")),
              (y >= 1.0, lambda: DomainAboveError(f"u_k_inv requires y < 1, got {y[0]}")),
              (y < lo_val, lambda: DomainBelowError(f"u_k_inv: y={y[0]} below U_K at the left "
                                                    f"endpoint ({lo_val[0]:.6g}) for L={L[0]:.6g}"))]
    at_edge = y == lo_val
    active = ~np.logical_or.reduce([at_edge] + [bad for bad, _ in checks])

    # U_K < N pointwise, so the root sits above N^{-1}(y); seed a bracket
    # from the normal quantile (of a level inside (0, 1)), never left of
    # the branch, and expand until it straddles.
    scale = 2.0 * _SQRT_PI * np.sqrt(L)
    hi = np.maximum(ndtri(np.minimum(np.maximum(y + 0.1, 0.05), 1.0 - 1e-16)) + 1.0, lo)
    short = active & (_u(hi, scale) < y)
    while np.count_nonzero(short):
        np.add(hi, 1.0, out=hi, where=short)
        short &= _u(hi, scale) < y

    for _ in range(_INV_MAX_ITER):
        if not np.count_nonzero(active):
            break
        mid = 0.5 * (lo + hi)
        below = _u(mid, scale) < y
        np.copyto(lo, mid, where=active & below)
        np.copyto(hi, mid, where=active > below)  # active and not below
        active &= hi - lo >= _INV_TOL_X
    return _refuse(shape, np.where(at_edge, lo, 0.5 * (lo + hi)), checks)


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
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")


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


def _three_term(T: float, L, u):
    sqT = math.sqrt(T)
    return _SQRT2 / sqT * np.sqrt(L) + u / sqT + _SQRT2 / (4.0 * sqT) * u * u / np.sqrt(L)


def smile_three_term_atom(market: MarketSlice, K: float, mass: float) -> float:
    """Three-term expansion with the atom mass as the inverted level:

        sqrt(2/T) L^(1/2) + u/sqrt(T) + sqrt(2)/(4 sqrt(T)) u^2 L^(-1/2),

    u = (U_{x0/K})^{-1}(mass), L = log(x0/K).  A mass at or below 0
    raises DomainBelowError, one at or above 1 DomainAboveError.
    """
    L = _wing_depth(market, K)
    if mass <= 0.0:
        raise DomainBelowError(f"mass must lie in (0, 1), got {mass}")
    return _three_term(market.T, L, u_k_inv(mass, L))


def smile_three_term_pT(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with the full CDF p_T(K/x0) as the level."""
    L = _wing_depth(market, K)
    return _three_term(market.T, L, u_k_inv(model.p_total(K / market.x0), L))


def smile_three_term_G(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with G(x0/K) as the level (the sharpest variant)."""
    L = _wing_depth(market, K)
    return _three_term(market.T, L, u_k_inv(model.g_value(market.x0 / K), L))


def _sqrt_form(T: float, L, u):
    """sqrt(2/T) * sqrt(L + H(u; L)), H(u; L) = u^2 + u sqrt(u^2 + 2L).

    H is increasing in u on the valid branch of the U_K inverse, where
    the radicand is nonnegative.
    """
    radicand = L + (u * u + u * np.sqrt(u * u + 2.0 * L))
    if np.any(radicand < 0.0):  # cannot happen on the valid branch
        raise AssertionError(f"negative radicand {radicand} in sqrt form")
    return _SQRT2 / math.sqrt(T) * np.sqrt(radicand)


def smile_sqrt_form(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Unexpanded sqrt form sqrt(2/T) * sqrt(L + H(u1; L)), u1 from G.

    This equals the upper bound of smile_bounds and carries the same
    one-sided O(L^(-3/2)) error as the three-term expansion.  Unlike
    smile_bounds it needs no deflated level, so it exists at shallow
    strikes where the lower bound raises DomainBelowError.
    """
    L = _wing_depth(market, K)
    return _sqrt_form(market.T, L, u_k_inv(model.g_value(market.x0 / K), L))


def _deflated(g: float, a: float, L: float, cfg: BoundsConfig) -> float:
    """The level G_eps of the lower bound of smile_bounds, a = N^{-1}(mass)."""
    return g - (3.0 * a * a + 2.0 + cfg.epsilon) / (8.0 * _SQRT_PI * L**1.5)


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
    g_eps = _deflated(g, norm_cdf_inv(model.mass), L, cfg)
    u1 = u_k_inv(g, L)
    return _sqrt_form(market.T, L, u_k_inv(g_eps, L)), _sqrt_form(market.T, L, u1)


def _dmhj(T: float, L, a: float):
    sqT = math.sqrt(T)
    return _SQRT2 / sqT * np.sqrt(L) + a / sqT + _SQRT2 * a * a / (4.0 * sqT) / np.sqrt(L)


def smile_dmhj(market: MarketSlice, K: float, mass: float) -> float:
    """De Marco-Hillairet-Jacquier expansion using the plain normal quantile:

        sqrt(2/T) L^(1/2) + N^{-1}(mass)/sqrt(T)
            + sqrt(2) N^{-1}(mass)^2 / (4 sqrt(T)) L^(-1/2).

    The residual error function of that formula is not evaluated here.
    """
    L = _wing_depth(market, K)
    return _dmhj(market.T, L, norm_cdf_inv(mass))


def _or_nan(fn, *args) -> float:
    try:
        return fn(*args)
    except DomainError:
        return math.nan


def smile_grid(market: MarketSlice, K, model: AtomModel, groups,
               cfg: BoundsConfig = BoundsConfig()) -> dict[str, np.ndarray]:
    """The columns of the "approximations" group (leading with a put,
    three_term_atom, three_term_G, three_term_pT with a p_tilde, dmhj)
    and of the "band" group (lower, upper) at the strikes K, for the
    groups named, with all U_K inversions in one u_k_inv call.  Each is
    an array over K, equal to the smile_* call at each strike and NaN
    exactly where that call raises DomainError; other errors propagate.
    """
    approx, band = "approximations" in groups, "band" in groups
    wanted = {"mass": approx, "G": True, "p_T": approx and model.p_tilde is not None, "G_eps": band}
    names = [name for name, want in wanted.items() if want]
    a = norm_cdf_inv(model.mass)
    L, leading = np.full(len(K), math.nan), np.full(len(K), math.nan)
    levels = np.full((len(names), len(K)), math.nan)
    for j, strike in enumerate(K):
        L[j] = depth = _or_nan(_wing_depth, market, strike)
        if math.isnan(depth):
            continue
        g = _or_nan(model.g_value, market.x0 / strike)
        level = {"mass": model.mass, "G": g, "G_eps": _deflated(g, a, depth, cfg)}
        if wanted["p_T"]:
            level["p_T"] = _or_nan(model.p_total, strike / market.x0)
        if approx and model.put is not None:
            put = _or_nan(model.put, strike / market.x0) * market.x0
            leading[j] = _or_nan(smile_leading, market, strike, put)
        levels[:, j] = [level[name] for name in names]
    u = dict(zip(names, u_k_inv(levels, L)))

    T, out = market.T, {}
    if approx:
        out["three_term_atom"], out["three_term_G"] = _three_term(T, L, u["mass"]), _three_term(T, L, u["G"])
        out["dmhj"] = _dmhj(T, L, a)
        if model.put is not None:
            out["leading"] = leading
        if wanted["p_T"]:
            out["three_term_pT"] = _three_term(T, L, u["p_T"])
    if band:
        out["lower"], out["upper"] = _sqrt_form(T, L, u["G_eps"]), _sqrt_form(T, L, u["G"])
        gap = np.isnan(out["lower"] + out["upper"])
        out["lower"][gap] = out["upper"][gap] = math.nan
    return out


def estims_ratio(mass: float, L: float) -> float:
    """sqrt(2L) * [(U_{1/K})^{-1}(mass) - N^{-1}(mass)] at depth L = log(1/K);
    tends to 1 as L -> infinity (the strike K -> 0).

    Requires N(-sqrt(2L)) < mass when mass < 1/2 (the sufficient
    existence condition); below it DomainBelowError.
    """
    if not (0.0 < mass < 1.0):
        raise DomainError(f"mass must lie in (0, 1), got {mass}")
    L = _depth(L)
    if mass < 0.5 and norm_cdf(-math.sqrt(2.0 * L)) >= mass:
        raise DomainBelowError(
            f"existence condition fails: N(-sqrt(2*{L:.6g})) >= {mass}"
        )
    u = u_k_inv(mass, L)
    return _SQRT2 * math.sqrt(L) * (u - norm_cdf_inv(mass))


def sign_classify(mass: float, L: float) -> str:
    """Sign trichotomy of (U_{1/K})^{-1}(mass) for mass < 1/2, L = log(1/K).

    Returns 'positive', 'zero' or 'negative' according to the position
    of mass relative to 1/2 - 1/(2 sqrt(pi) sqrt(L)).  In the positive
    case the perturbed quantile and the plain normal quantile have
    opposite signs.
    """
    L = _depth(L)
    if not (0.0 < mass < 0.5):
        raise DomainError(
            f"trichotomy is stated for 0 < mass < 1/2, got {mass}"
        )
    _, lo_val = _u_k_left_edge(L)
    if mass <= lo_val:
        raise DomainBelowError(
            f"mass {mass} at or below U at the left endpoint ({lo_val:.6g})"
        )
    threshold = 0.5 - 1.0 / (2.0 * _SQRT_PI * math.sqrt(L))
    if mass > threshold:
        return "positive"
    if mass == threshold:
        return "zero"
    return "negative"


def dmhj_psi_envelope(T: float, mass: float, L: float, psi_value: float) -> float:
    """Envelope Psi of the DMHJ residual at index u = e^L:

        Psi = sqrt(2)/(2 sqrt(T)) L^(-1/2)
              + sqrt(2 pi)/sqrt(T) exp(N^{-1}(mass)^2 / 2) psi(u),

    where psi(u) = G(u) - mass.  Reporting-only: its limsup statement is
    not assertable at finite depth.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"requires finite T > 0, got {T}")
    L = _depth(L)
    if math.isnan(psi_value):
        raise DomainError("dmhj_psi_envelope requires psi, got nan")
    a = norm_cdf_inv(mass)
    sqT = math.sqrt(T)
    return _SQRT2 / (2.0 * sqT) / math.sqrt(L) + math.sqrt(
        2.0 * math.pi
    ) / sqT * math.exp(0.5 * a * a) * psi_value
