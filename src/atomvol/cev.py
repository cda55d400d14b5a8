"""CEV backend: dS = sigma * S^rho dW with absorption at zero.

Provides the exact terminal law at a fixed maturity: the atom mass at
zero as the regularized upper incomplete gamma function, the Bessel-type
density of the continuous part, the continuous-part CDF and the put
price, and the implied-volatility oracle used as ground truth by every
approximation test.

The CDF and the put price come from Schroder's closed form (J. Finance
44, 1989): in y = khat * x^(2(1-rho)) the absorbed law is a Poisson
mixture of Gamma laws, so a strike vector costs two incomplete gamma
blocks (strikes x terms) over weights that a model builds once.

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
from scipy.special import gammainc, gammaincc, gammainccinv, gammaln, ive

from atomvol.blackscholes import MarketSlice, OptionQuote, implied_vol
from atomvol.errors import DomainError, QuadratureError, positive, positive_check, refuse, unit
from atomvol.wing import AtomModel

__all__ = ["CevParams", "CevModel", "reg_inc_gamma", "reg_inc_gamma_upper", "sigma_for_mass"]

_EPSABS = 1e-14
_EPSREL = 1e-11
_TAIL_CUT = 64.0  # exp(-64) ~ 1.6e-28, far below every tolerance in use
# series terms past lambda + 12 sqrt(lambda) + 40 weigh below exp(-72)
_SERIES_SDS = 12.0
_SERIES_PAD = 40.0
_SERIES_MAX_TERMS = 1 << 20  # 8 MB per weight vector
_BLOCK_SIZE = 1 << 20  # strikes x terms per incomplete gamma block, 8 MB


def _gamma_args(name: str, a: float, y: float) -> tuple[float, float]:
    y = float(y)
    if not y >= 0.0:  # also refuses nan
        raise DomainError(f"{name} requires y >= 0, got {y}")
    return positive(f"{name} shape a", float(a)), y


def reg_inc_gamma(a: float, y: float) -> float:
    """Regularized lower incomplete gamma function P(a, y).

    P(a, y) = (1/Gamma(a)) * integral_0^y t^(a-1) e^(-t) dt, nondecreasing
    in y with limit 1 as y -> infinity.
    """
    return float(gammainc(*_gamma_args("reg_inc_gamma", a, y)))


def reg_inc_gamma_upper(a: float, y: float) -> float:
    """Regularized upper incomplete gamma function Q(a, y) = 1 - P(a, y).

    Evaluated directly, not as 1 - reg_inc_gamma(a, y), so it keeps full
    relative accuracy where Q is far below the double epsilon.
    """
    return float(gammaincc(*_gamma_args("reg_inc_gamma_upper", a, y)))


def sigma_for_mass(mass: float, rho: float = 0.6, s0: float = 0.05, T: float = 1.2) -> float:
    """The CEV sigma whose atom at zero has the given mass at T, in closed form:
    sigma = 1/sqrt(2 T khat (1-rho)^2), khat = Q^{-1}(nu, mass) / s0^{2(1-rho)},
    nu = 1/(2(1-rho)), Q the regularized upper incomplete gamma function.
    The defaults are the documented s0, rho and T of the comparisons."""
    one = 1.0 - unit("rho", rho)
    khat = float(gammainccinv(1.0 / (2.0 * one), unit("mass", mass))) / positive("s0", s0) ** (2.0 * one)
    return 1.0 / math.sqrt(2.0 * positive("T", T) * khat * one * one)


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
        positive("s0", self.s0)
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be nonnegative, got {self.sigma}")
        unit("rho", self.rho)
        positive("T", self.T)

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
        self.params = params
        s0, sigma, rho, T = params.s0, params.sigma, params.rho, params.T
        self._one_m_rho = 1.0 - rho
        try:
            sigma2 = sigma**2
        except OverflowError:  # refused as an infinite scale below
            sigma2 = math.inf
        # exponent scale 1/(2 T sigma^2 (1-rho)^2), refused at sigma = 0 and
        # where sigma**2 underflows to 0 or overflows, and Bessel order 1/(2(1-rho))
        self._khat = 1.0 / positive("CEV scale 2 T sigma^2 (1-rho)^2", 2.0 * T * sigma2 * self._one_m_rho**2)
        self.bessel_order = 1.0 / (2.0 * self._one_m_rho)
        self._u0 = s0 ** (2.0 * self._one_m_rho)
        self.gamma_args = (self.bessel_order, self._khat * self._u0)
        # Q(nu, lambda) directly: 1 - P(nu, lambda) cancels to 0 for tiny masses
        self.mass = reg_inc_gamma_upper(*self.gamma_args)
        # density prefactor c, kept in logs
        self._log_c = (
            0.5 * math.log(s0)
            - math.log(T * sigma2 * self._one_m_rho)
            - self._khat * self._u0
        )

    # ------------------------------------------------------------------
    # density and its small-x constant
    # ------------------------------------------------------------------
    def log_density(self, x):
        """log of the continuous-part density at x > 0."""
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0.0):  # also refuses nan
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

    def _series_sum(self, K, label: str, put: bool):
        """p_tilde, or with put the put price, at a strike or strike array
        K, as (strikes x terms) blocks summed along their last axis: a 0-d
        call is a one-row block, equal to its array element bit for bit.
        A bad K raises DomainError in a 0-d call, gives NaN in an array."""
        shape, K = np.shape(K), np.asarray(K, dtype=float).ravel()
        bad, error = positive_check(f"{label} strike", K)
        K = np.where(bad, 1.0, K)  # a stand-in strike, so a refused one raises no warning
        y = self._khat * K ** (2.0 * self._one_m_rho)
        shape_w, w, shape_p, p = self._series
        out, step = np.empty(K.size), max(1, _BLOCK_SIZE // w.size)
        for i in range(0, K.size, step):
            rows, block = slice(i, i + step), y[i:i + step, None]
            out[rows] = np.sum(w * gammainc(shape_w, block), axis=-1)
            if put:
                first = np.sum(p * gammainc(shape_p, block), axis=-1)
                out[rows] = K[rows] * (self.mass + out[rows]) - self.params.s0 * first
        return refuse(shape, out, [(bad, error)])

    def p_tilde(self, K):
        """Continuous-part CDF: integral of the density over (0, K]."""
        return self._series_sum(K, "p_tilde", put=False)

    def put_price(self, K):
        """Exact put price K * (mass + p_tilde(K)) - E[S; 0 < S <= K]."""
        return self._series_sum(K, "put_price", put=True)

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
        return self.put_implied_vol(K, self.put_price(K))

    def put_implied_vol(self, K: float, price: float) -> float:
        """Implied volatility of the put price at a strike 0 < K < s0."""
        if not (0.0 < K < self.params.s0):
            raise DomainError(f"exact_smile requires 0 < K < s0, got K={K}, s0={self.params.s0}")
        return implied_vol(self.market(), OptionQuote(K, "put", price))

    def atom_model(self) -> AtomModel:
        """Spot-normalized AtomModel exposing this distribution's evaluators."""
        s0 = self.params.s0
        return AtomModel(
            mass=self.mass,
            p_tilde=lambda u: self.p_tilde(u * s0),
            put=lambda k: self.put_price(k * s0) / s0,
        )
