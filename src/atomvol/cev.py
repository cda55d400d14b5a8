"""CEV backend: dS = sigma * S^rho dW with absorption at zero.

Provides the exact terminal law at a fixed maturity: the atom mass at
zero as the regularized upper incomplete gamma function, the Bessel-type
density of the continuous part, the continuous-part CDF and the put
price, and the implied-volatility oracle used as ground truth by every
approximation test.

The CDF and the put price come from Schroder's closed form (J. Finance
44, 1989): in y = khat * x^(2(1-rho)) the absorbed law is a Poisson
mixture of Gamma laws, so each strike costs two vectorized incomplete
gamma sums over weights that a model builds once, on first use.

An independent quadrature of the density checks that closed form: it
substitutes u = x^(2(1-rho)), which turns the integrable x^(1-2rho)
endpoint behavior into a bounded integrand for every rho in (0, 1), and
the density is assembled in log space through the scaled Bessel product
so that nothing overflows at large argument.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammainc, gammaln, ive

from atomvol.blackscholes import MarketSlice, OptionQuote, implied_vol
from atomvol.errors import DomainError, QuadratureError
# reg_inc_gamma stays importable from here: perfbench/layers.py wraps it
from atomvol.specfun import reg_inc_gamma, reg_inc_gamma_upper  # noqa: F401
from atomvol.wing import AtomModel

__all__ = [
    "CevParams",
    "CevModel",
    "mass_at_zero",
    "density",
    "small_x_constant",
    "p_tilde",
    "put_price",
    "exact_smile",
]

_EPSABS = 1e-14
_EPSREL = 1e-11
_TAIL_CUT = 64.0  # exp(-64) ~ 1.6e-28, far below every tolerance in use
# series terms past lambda + 12 sqrt(lambda) + 40 weigh below exp(-72)
_SERIES_SDS = 12.0
_SERIES_PAD = 40.0
_SERIES_MAX_TERMS = 1 << 20  # 8 MB per weight vector


@dataclass(frozen=True)
class CevParams:
    """CEV parameter set: spot s0, vol sigma, elasticity rho in (0,1), maturity T.

    sigma = 0 is admitted so that the degenerate (driftless, noiseless)
    case can be simulated; the distribution functions require sigma > 0.
    """

    s0: float
    sigma: float
    rho: float
    T: float

    def __post_init__(self):
        if not (self.s0 > 0.0 and math.isfinite(self.s0)):
            raise DomainError(f"s0 must be positive, got {self.s0}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be nonnegative, got {self.sigma}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie in (0, 1), got {self.rho}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"T must be positive, got {self.T}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CevParams":
        """Build from a config mapping; 'beta' is accepted as an alias of 'rho'."""
        data = dict(mapping)
        if "beta" in data:
            if "rho" in data and float(data["rho"]) != float(data["beta"]):
                raise DomainError("conflicting rho and beta values")
            data["rho"] = data.pop("beta")
        try:
            return cls(
                s0=float(data["s0"]),
                sigma=float(data["sigma"]),
                rho=float(data["rho"]),
                T=float(data["T"]),
            )
        except KeyError as exc:
            raise DomainError(f"missing CEV parameter: {exc.args[0]}") from exc


class CevModel:
    """Terminal distribution of the CEV price at maturity params.T."""

    def __init__(self, params: CevParams):
        if params.sigma <= 0.0:
            raise DomainError("CEV distribution functions require sigma > 0")
        self.params = params
        s0, sigma, rho, T = params.s0, params.sigma, params.rho, params.T
        self._one_m_rho = 1.0 - rho
        # exponent scale 1/(2 T sigma^2 (1-rho)^2) and Bessel order 1/(2(1-rho))
        self._khat = 1.0 / (2.0 * T * sigma**2 * self._one_m_rho**2)
        self.bessel_order = 1.0 / (2.0 * self._one_m_rho)
        self._u0 = s0 ** (2.0 * self._one_m_rho)
        self.gamma_args = (self.bessel_order, self._khat * self._u0)
        # Q(nu, lambda) directly: 1 - P(nu, lambda) cancels to 0 for tiny masses
        self.mass = reg_inc_gamma_upper(*self.gamma_args)
        # density prefactor c, kept in logs
        self._log_c = (
            0.5 * math.log(s0)
            - math.log(T * sigma**2 * self._one_m_rho)
            - self._khat * self._u0
        )

    # ------------------------------------------------------------------
    # density and its small-x constant
    # ------------------------------------------------------------------
    def log_density(self, x):
        """log of the continuous-part density at x > 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise DomainError("density requires x > 0")
        one = self._one_m_rho
        s0, sigma, T, rho = (
            self.params.s0,
            self.params.sigma,
            self.params.T,
            self.params.rho,
        )
        z = s0**one * x**one / (T * sigma**2 * one**2)
        scaled = ive(self.bessel_order, z)
        with np.errstate(divide="ignore"):
            log_bessel = np.where(scaled > 0.0, np.log(scaled) + z, -np.inf)
        out = (
            self._log_c
            + (0.5 - 2.0 * rho) * np.log(x)
            - self._khat * x ** (2.0 * one)
            + log_bessel
        )
        return float(out) if out.ndim == 0 else out

    def density(self, x):
        """Continuous-part density; positive on (0, inf)."""
        out = np.exp(self.log_density(x))
        return float(out) if np.ndim(out) == 0 else out

    def small_x_constant(self) -> float:
        """The constant c_tilde with density(x) ~ c_tilde * x^(1-2rho) as x -> 0.

        Derived from the density prefactor and the small-argument Bessel
        asymptote; carries the full exp(-s0^(2(1-rho)) * khat) factor.
        """
        s0, sigma, rho, T = (
            self.params.s0,
            self.params.sigma,
            self.params.rho,
            self.params.T,
        )
        one = self._one_m_rho
        return (
            s0
            * math.exp(-self._khat * self._u0)
            / (
                T * sigma**2 * one
                * (2.0 * T * sigma**2 * one**2) ** self.bessel_order
                * math.gamma((3.0 - 2.0 * rho) / (2.0 * one))
            )
        )

    # ------------------------------------------------------------------
    # Poisson-Gamma series: with y = khat * K^(2(1-rho)), lambda = khat *
    # s0^(2(1-rho)) and nu the Bessel order,
    #   p_tilde(K)        = sum_n w_n P(n + 1, y),
    #   E[S; 0 < S <= K]  = s0 sum_n p_n P(n + 1 + nu, y),
    # where w_n = e^-lambda lambda^(n+nu) / Gamma(n+nu+1) and p_n is the
    # Poisson(lambda) weight.
    # ------------------------------------------------------------------
    @cached_property
    def _series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gamma shapes n+1 and n+1+nu with their weights w_n and p_n.

        n runs from 0, because the low terms dominate at deep strikes, to
        a cut past which the Poisson(lambda) tail is negligible.
        """
        nu, lam = self.gamma_args
        n_max = math.ceil(lam + _SERIES_SDS * math.sqrt(lam) + _SERIES_PAD)
        if n_max >= _SERIES_MAX_TERMS:
            raise QuadratureError(
                f"CEV series needs {n_max + 1} terms at lambda={lam:.6g}; "
                f"the limit is {_SERIES_MAX_TERMS}"
            )
        n = np.arange(n_max + 1, dtype=float)
        log_lam = math.log(lam)
        w = np.exp((n + nu) * log_lam - lam - gammaln(n + nu + 1.0))
        p = np.exp(n * log_lam - lam - gammaln(n + 1.0))
        return n + 1.0, w, n + 1.0 + nu, p

    def _y(self, K: float, label: str) -> float:
        if not (K > 0.0 and math.isfinite(K)):
            raise DomainError(f"{label} requires K > 0, got {K}")
        return self._khat * K ** (2.0 * self._one_m_rho)

    def p_tilde(self, K: float) -> float:
        """Continuous-part CDF: integral of the density over (0, K]."""
        y = self._y(K, "p_tilde")
        shape_w, w, _, _ = self._series
        return float(np.sum(w * gammainc(shape_w, y)))

    def put_price(self, K: float) -> float:
        """Exact put price K * (mass + p_tilde(K)) - E[S; 0 < S <= K]."""
        y = self._y(K, "put_price")
        shape_w, w, shape_p, p = self._series
        cdf = np.sum(w * gammainc(shape_w, y))
        first = np.sum(p * gammainc(shape_p, y))
        return float(K * (self.mass + cdf) - self.params.s0 * first)

    # ------------------------------------------------------------------
    # independent quadratures in the substituted variable u = x^(2(1-rho))
    # ------------------------------------------------------------------
    def _x_of_u(self, u):
        return u ** (1.0 / (2.0 * self._one_m_rho))

    def _quad(self, weight, u_lo: float, u_hi: float, label: str) -> float:
        # scipy.integrate is imported here, off the CLI's import path
        from scipy import integrate as _integrate

        one = self._one_m_rho
        rho = self.params.rho

        def integrand(u):
            x = self._x_of_u(u)
            return weight(x) * self.density(x) * x ** (2.0 * rho - 1.0) / (2.0 * one)

        interior = [p for p in (self._u0,) if u_lo < p < u_hi]
        with warnings.catch_warnings():
            warnings.simplefilter("error", _integrate.IntegrationWarning)
            try:
                value, abserr = _integrate.quad(
                    integrand,
                    u_lo,
                    u_hi,
                    points=interior or None,
                    epsabs=_EPSABS,
                    epsrel=_EPSREL,
                    limit=300,
                )
            except _integrate.IntegrationWarning as exc:
                raise QuadratureError(
                    f"{label}: quadrature did not converge on "
                    f"u in [{u_lo:.6g}, {u_hi:.6g}]: {exc}"
                ) from exc
        if abserr > max(1e-8 * abs(value), 1e-10):
            raise QuadratureError(
                f"{label}: error estimate {abserr:.3g} too large "
                f"for value {value:.6g}"
            )
        return value

    def _u_tail(self) -> float:
        return (math.sqrt(self._u0) + math.sqrt(_TAIL_CUT / self._khat)) ** 2

    def continuous_mass(self) -> float:
        """Total mass of the continuous part; mass + this should be 1."""
        return self._quad(lambda x: 1.0, 0.0, self._u_tail(), "continuous_mass")

    def first_moment(self) -> float:
        """Integral of x against the density; equals s0 for the martingale."""
        return self._quad(lambda x: x, 0.0, self._u_tail(), "first_moment")

    # ------------------------------------------------------------------
    # oracle and model adapters
    # ------------------------------------------------------------------
    def market(self) -> MarketSlice:
        return MarketSlice(x0=self.params.s0, T=self.params.T)

    def exact_smile(self, K: float) -> float:
        """Ground-truth implied volatility: series put price inverted."""
        if not (0.0 < K < self.params.s0):
            raise DomainError(
                f"exact_smile requires 0 < K < s0, got K={K}, s0={self.params.s0}"
            )
        price = self.put_price(K)
        return implied_vol(self.market(), OptionQuote(K, "put", price))

    def atom_model(self) -> AtomModel:
        """Spot-normalized AtomModel exposing this distribution's evaluators."""
        s0 = self.params.s0
        return AtomModel(
            mass=self.mass,
            p_tilde=lambda u: self.p_tilde(u * s0),
            put=lambda k: self.put_price(k * s0) / s0,
        )


# ----------------------------------------------------------------------
# functional surface over a throwaway model instance
# ----------------------------------------------------------------------
def mass_at_zero(params: CevParams) -> float:
    """Probability that the CEV price is exactly zero at maturity."""
    return CevModel(params).mass


def density(params: CevParams, x):
    return CevModel(params).density(x)


def small_x_constant(params: CevParams) -> float:
    return CevModel(params).small_x_constant()


def p_tilde(params: CevParams, K: float) -> float:
    return CevModel(params).p_tilde(K)


def put_price(params: CevParams, K: float) -> float:
    return CevModel(params).put_price(K)


def exact_smile(params: CevParams, K: float) -> float:
    return CevModel(params).exact_smile(K)
