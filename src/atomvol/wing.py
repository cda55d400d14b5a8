"""Small-strike implied-volatility asymptotics for models with an atom at zero.

The machinery lives in the depth variable L = log(x0/K) > 0, and every
function below the smile_* layer takes L, never K.  Everything is built
around the strike-dependent perturbation of the normal CDF

    U_K(x) = N(x) - exp(-x^2/2) / (2 sqrt(pi) sqrt(L)),   L = log K > 0,

whose inverse replaces the plain normal quantile in the sharper
three-term expansions, in the two-sided bounds, and in the diagnostic
that bridges back to the De Marco-Hillairet-Jacquier formula.

u_k, u_k_inv and smile_leading broadcast: a scalar call raises a typed
DomainError on bad input, an array call gives NaN there.  smile_grid
fills a strike vector with one call of each evaluator and of u_k_inv,
NaN exactly where the smile_* call at that strike raises DomainError.

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
from scipy.special import erfcx, ndtr, ndtri

from atomvol.blackscholes import MarketSlice
from atomvol.errors import (
    DomainAboveError,
    DomainBelowError,
    DomainError,
    positive,
    positive_check,
    refuse,
    unit,
)

__all__ = [
    "AtomModel", "BoundsConfig", "norm_cdf", "norm_cdf_inv", "u_k", "u_k_inv", "g_from_put",
    "smile_leading", "smile_three_term_atom", "smile_three_term_pT", "smile_three_term_G",
    "smile_sqrt_form", "smile_bounds", "smile_dmhj", "smile_grid",
    "estims_ratio", "sign_classify", "dmhj_psi_envelope",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)


def norm_cdf(x):
    """Standard normal cumulative distribution function N(x).

    Evaluated through the complementary error function; saturates at 0
    and 1 in the extreme tails instead of raising.
    """
    return ndtr(x)


def norm_cdf_inv(p: float) -> float:
    """Inverse of the standard normal CDF.

    Raises DomainBelowError / DomainAboveError outside the open unit
    interval and DomainError for nan.  Round-trips through norm_cdf to
    better than 1e-12 in p.
    """
    return float(ndtri(unit("norm_cdf_inv level", float(p))))


def _flat(x, L):
    """x and L as flat float vectors of their broadcast shape, L with a
    stand-in 1 where it is no depth (so no NaN warnings arise), and the
    depth check for refuse."""
    x, L = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(L, dtype=float))
    shape, x, L = x.shape, x.ravel(), L.ravel()
    bad, error = positive_check("depth", L)
    return shape, x, np.where(bad, 1.0, L), (bad, error)


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
    return refuse(shape, _u(x, 2.0 * _SQRT_PI * np.sqrt(L)), [depth_check, nan_x])


def _u_k_left_edge(L):
    """Left endpoint of the monotone branch and the value of U_K there."""
    edge = -np.sqrt(2.0 * L)
    return edge, norm_cdf(edge) - np.exp(-L) / (2.0 * _SQRT_PI * np.sqrt(L))


def u_k_inv(y, L, *, exact=False):
    """Inverse of U_K at depth L on its increasing branch [-sqrt(2L), inf).

    Bisection, monotone and derivative-free, so robust next to the left
    endpoint where the derivative of U_K vanishes, on a closed-form
    bracket.  With a = N^{-1}(y) and c = 1/sqrt(2L), U_K = N - c phi.
    lo = max(-sqrt(2L), a) has U_K(lo) <= y, as U_K < N and a level
    below U_K(-sqrt(2L)) is refused.  hi = min(max(a, 0) + c, 40) has
    U_K(hi) >= y: for h = max(a, 0) + c, phi decreases on [h - c, h], so
    N(h) - N(a) >= c phi(h); and U_K(40) is 1 in double.  A level y > 0
    has a >= N^{-1}(5e-324), about -38.4, and one y <= 0 is bisected only
    above U_K(-sqrt(2L)) < 0, which needs exp(-L) > 0, so -sqrt(2L) >
    -38.7.  So 50 halvings leave a width below 7e-14 at every depth L > 0.
    Every element takes the same steps, so an array call equals the
    scalar calls bit for bit.  y and L broadcast.  A scalar call raises
    DomainBelowError for y below U_K(-sqrt(2L)) (the strike is not deep
    enough for that level), DomainAboveError for y >= 1 and DomainError
    for a nan level or a bad depth; an array call gives NaN there.

    exact, a mask broadcast with y and L, marks Black-Scholes put levels
    G = P/K at depth L = log(x0/K): they invert W = N - phi R(z), with
    the Mills ratio R(z) = N(-z)/phi(z), z = sqrt(x^2 + 2L), in place of
    c, and give sigma sqrt(T) = x + z (_sqrt_form).  W rises from 0 over
    the whole line and U_K < W < N, so lo = a with the same hi and width
    bound; an exact level outside (0, 1) is refused as above.
    """
    shape, y, L, depth_check = _flat(y, L)
    exact = np.broadcast_to(exact, shape).ravel()
    edge, edge_val = _u_k_left_edge(L)
    least = np.where(exact, 5e-324, edge_val)
    checks = [depth_check, (np.isnan(y), lambda: DomainError("u_k_inv requires a level, got nan")),
              (y >= 1.0, lambda: DomainAboveError(f"u_k_inv requires y < 1, got {y[0]}")),
              (y < least, lambda: DomainBelowError(f"u_k_inv: y={y[0]} below the least level "
                                                   f"({least[0]:.6g}) for L={L[0]:.6g}"))]
    a = ndtri(y)  # -inf or nan at a level y <= 0, where fmax picks the other side
    # an exact level has no edge; -40 and 40 stand in where it is refused
    lo = np.fmax(np.where(exact, -40.0, edge), np.minimum(a, 40.0))
    hi = np.minimum(np.fmax(a, 0.0) + 1.0 / np.sqrt(2.0 * L), 40.0)
    scale, rows = 2.0 * _SQRT_PI * np.sqrt(L), np.flatnonzero(exact)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if rows.size:  # phi(x) R(z) = exp(-x^2/2) erfcx(sqrt(x^2/2 + L))/2
            scale[rows] = 2.0 / erfcx(np.sqrt(0.5 * mid[rows] ** 2 + L[rows]))
        below = _u(mid, scale) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return refuse(shape, np.where((y == edge_val) & ~exact, edge, 0.5 * (lo + hi)), checks)


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

    The smile_* functions call an evaluator with a float, smile_grid
    once per grid with the array of wing strikes K/x0, needing an array
    back.  G(x0/K) = put(K/x0) x0/K with a put, the mass without one.
    """

    mass: float
    p_tilde: Optional[Callable[[float], float]] = None
    put: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        unit("mass", self.mass)

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
        positive("epsilon", self.epsilon)


def _wing_depth(market: MarketSlice, K: float) -> float:
    """L = log(x0/K) > 0 for a left-wing strike; refuses K >= x0."""
    if positive("strike", K) >= market.x0:
        raise DomainError(
            f"wing formulas require K < x0 (asymptotics as K -> 0); "
            f"got K={K}, x0={market.x0}"
        )
    return float(np.log(market.x0 / K))  # smile_grid's log: the two agree bit for bit


def _g(market: MarketSlice, K: float, model: AtomModel) -> float:
    """The level G(x0/K) = P(K)/K, P(K) = x0 put(K/x0); the mass without a put."""
    return model.put(K / market.x0) * market.x0 / K if model.put is not None else model.mass


def smile_leading(market: MarketSlice, K, put_price):
    """Leading-order left-wing formula from the put price alone:

        sqrt(2/T) * [sqrt(log(x0/P)) - sqrt(log(K/P))].

    The error term of the underlying expansion is not included.  K and
    put_price broadcast: off the wing, for a put price outside (0, K) or
    one too large for the formula a scalar call raises DomainError and
    an array call gives NaN.
    """
    K, P = np.broadcast_arrays(np.asarray(K, dtype=float), np.asarray(put_price, dtype=float))
    shape, K, P = K.shape, K.ravel(), P.ravel()
    with np.errstate(all="ignore"):
        a, b = np.log(market.x0 / P), np.log(K / P)
        out = _SQRT2 / math.sqrt(market.T) * (np.sqrt(a) - np.sqrt(b))
    return refuse(shape, out, [
        (~((0.0 < K) & (K < market.x0)), lambda: _wing_depth(market, K[0])),
        (~((0.0 < P) & (P < K)), lambda: DomainError(f"put price must lie in (0, K), got {P[0]}")),
        (~((a > 0.0) & (b > 0.0)), lambda: DomainError("put price too large for the leading-order formula")),
    ])


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
    return _three_term(market.T, L, u_k_inv(unit("mass", mass), L))


def smile_three_term_pT(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with the full CDF p_T(K/x0) as the level."""
    L = _wing_depth(market, K)
    return _three_term(market.T, L, u_k_inv(model.p_total(K / market.x0), L))


def smile_three_term_G(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Three-term expansion with G(x0/K) as the level (the sharpest variant)."""
    L = _wing_depth(market, K)
    return _three_term(market.T, L, u_k_inv(_g(market, K, model), L))


def _sqrt_form(T: float, L, u):
    """sqrt(2/T) * sqrt(L + H(u; L)), H(u; L) = u^2 + u sqrt(u^2 + 2L).

    The square root equals (u + z)/sqrt(2), z = sqrt(u^2 + 2L), so this
    is (u + z)/sqrt(T); where u < 0 that sum cancels, and 2L/(z + |u|),
    equal to it there, keeps full relative accuracy.  A 0-d call gives a
    float.
    """
    z = np.sqrt(u * u + 2.0 * L)
    return np.where(u < 0.0, 2.0 * L / (z + np.abs(u)), u + z) / math.sqrt(T)


def smile_sqrt_form(market: MarketSlice, K: float, model: AtomModel) -> float:
    """Unexpanded sqrt form sqrt(2/T) * sqrt(L + H(u1; L)), u1 from G.

    This equals the upper bound of smile_bounds and carries the same
    one-sided O(L^(-3/2)) error as the three-term expansion.  Unlike
    smile_bounds it needs no deflated level, so it exists at shallow
    strikes where the lower bound raises DomainBelowError.
    """
    L = _wing_depth(market, K)
    return _sqrt_form(market.T, L, u_k_inv(_g(market, K, model), L))


def _deflated(g: float, a: float, L: float, cfg: BoundsConfig) -> float:
    """The level G_eps of the lower bound of smile_bounds, a = N^{-1}(mass)."""
    with np.errstate(over="ignore"):  # a deflation past the double range gives -inf, refused
        return g - (3.0 * a * a + 2.0 + cfg.epsilon) / (8.0 * _SQRT_PI * np.power(L, 1.5))


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
    g = _g(market, K, model)
    g_eps = _deflated(g, norm_cdf_inv(model.mass), L, cfg)
    u1 = u_k_inv(g, L)
    return _sqrt_form(market.T, L, u_k_inv(g_eps, L)), _sqrt_form(market.T, L, u1)


def smile_dmhj(market: MarketSlice, K: float, mass: float) -> float:
    """De Marco-Hillairet-Jacquier expansion using the plain normal quantile:

        sqrt(2/T) L^(1/2) + N^{-1}(mass)/sqrt(T)
            + sqrt(2) N^{-1}(mass)^2 / (4 sqrt(T)) L^(-1/2),

    the three-term expansion with N^{-1}(mass) in place of u.  The
    residual error function of that formula is not evaluated here.
    """
    L = _wing_depth(market, K)
    return _three_term(market.T, L, norm_cdf_inv(mass))


def smile_grid(market: MarketSlice, K, model: AtomModel, groups,
               cfg: BoundsConfig = BoundsConfig()) -> dict[str, np.ndarray]:
    """The columns of the "approximations" group (leading with a put,
    three_term_atom, three_term_G, three_term_pT with a p_tilde, dmhj),
    of the "band" group (lower, upper) and, with a put, of the "exact"
    group (exact_iv) at the strikes K, for the groups named, from one
    call of each evaluator and one u_k_inv call.  Each approximation is
    an array over K, equal to the smile_* call at each strike and NaN
    exactly where that call raises DomainError; other errors propagate.
    With a put, "put" holds the put prices x0 put(K/x0) that feed leading
    and G, NaN off the wing; exact_iv inverts them in that u_k_inv call.
    """
    approx, band = "approximations" in groups, "band" in groups
    K = np.asarray(K, dtype=float)
    wing = (0.0 < K) & (K < market.x0)  # the strikes _wing_depth accepts
    L, P, p_T = np.full((3, K.size), math.nan)
    with np.errstate(over="ignore"):  # a subnormal strike is infinitely deep
        L[wing] = np.log(market.x0 / K[wing])
    if model.put is not None:
        P[wing] = model.put(K[wing] / market.x0) * market.x0
    wanted = {"mass": approx, "G": True, "p_T": approx and model.p_tilde is not None, "G_eps": band,
              "exact": "exact" in groups and model.put is not None}
    if wanted["p_T"]:
        p_T[wing] = model.mass + model.p_tilde(K[wing] / market.x0)
    g = P / K if model.put is not None else np.full(K.size, model.mass)
    a = norm_cdf_inv(model.mass)
    level = dict(mass=np.full(K.size, model.mass), G=g, p_T=p_T, G_eps=_deflated(g, a, L, cfg), exact=g)
    names = [name for name, want in wanted.items() if want]
    exact = {"exact": [[name == "exact"] for name in names]} if wanted["exact"] else {}
    u = dict(zip(names, u_k_inv(np.array([level[name] for name in names]), L, **exact)))

    T, out = market.T, {}
    if approx:
        out["three_term_atom"], out["three_term_G"] = _three_term(T, L, u["mass"]), _three_term(T, L, u["G"])
        out["dmhj"] = _three_term(T, L, a)
        if model.put is not None:
            out["leading"] = smile_leading(market, K, P)
        if wanted["p_T"]:
            out["three_term_pT"] = _three_term(T, L, u["p_T"])
    if band:
        out["lower"], out["upper"] = _sqrt_form(T, L, u["G_eps"]), _sqrt_form(T, L, u["G"])
        gap = np.isnan(out["lower"] + out["upper"])
        out["lower"][gap] = out["upper"][gap] = math.nan
    if wanted["exact"]:
        out["exact_iv"] = _sqrt_form(T, L, u["exact"])
    if model.put is not None:
        out["put"] = P
    return out


def estims_ratio(mass: float, L: float) -> float:
    """sqrt(2L) * [(U_{1/K})^{-1}(mass) - N^{-1}(mass)] at depth L = log(1/K);
    tends to 1 as L -> infinity (the strike K -> 0).

    Requires N(-sqrt(2L)) < mass when mass < 1/2 (the sufficient
    existence condition); below it DomainBelowError.
    """
    unit("mass", mass)
    L = positive("depth", float(L))
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
    L = positive("depth", float(L))
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
    positive("T", T)
    L = positive("depth", float(L))
    if math.isnan(psi_value):
        raise DomainError("dmhj_psi_envelope requires psi, got nan")
    a = norm_cdf_inv(mass)
    sqT = math.sqrt(T)
    return _SQRT2 / (2.0 * sqT) / math.sqrt(L) + math.sqrt(
        2.0 * math.pi
    ) / sqT * math.exp(0.5 * a * a) * psi_value
