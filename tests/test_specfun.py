"""Special-function contracts, checked against independent oracles:
quadrature for the normal CDF and incomplete gamma.  Frozen expected
values were produced with the same oracles at high precision."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from atomvol import (
    norm_cdf,
    norm_cdf_inv,
    reg_inc_gamma,
    reg_inc_gamma_upper,
)
from atomvol.errors import DomainAboveError, DomainBelowError, DomainError


def quadrature_norm_cdf(x: float) -> float:
    """Independent N(x): adaptive quadrature of the Gaussian density."""
    value, _ = quad(
        lambda y: math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi),
        -40.0,
        x,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    return value


def quadrature_reg_inc_gamma(a: float, y: float) -> float:
    """Independent P(a, y): quadrature of t^(a-1) e^(-t) over (0, y)."""
    value, _ = quad(
        lambda t: t ** (a - 1.0) * math.exp(-t),
        0.0,
        y,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    return value / math.gamma(a)


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.3, 1.7, 4.0])
    def test_reflection(self, x):
        assert norm_cdf(x) == pytest.approx(1.0 - norm_cdf(-x), abs=1e-15)

    def test_value_196_vs_quadrature(self):
        # frozen from the quadrature oracle: 0.97500210485177956586
        assert norm_cdf(1.96) == pytest.approx(0.9750021048517796, abs=1e-14)
        assert norm_cdf(1.96) == pytest.approx(quadrature_norm_cdf(1.96), abs=1e-12)

    def test_left_tail_value(self):
        # frozen: N(-3.7) = 1.07799733477388337e-4
        assert norm_cdf(-3.7) == pytest.approx(1.07799733477388337e-4, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(-8.0, 8.0, 401)
        values = norm_cdf(grid)
        assert np.all(np.diff(values) > 0.0)

    def test_gaussian_tail_sandwich(self):
        # (1/sqrt(2pi)) [1/x - 1/(x(x^2+1))] e^{-x^2/2} <= 1-N(x) <= (1/sqrt(2pi)) e^{-x^2/2}/x
        # the survival side is evaluated as N(-x): 1 - N(x) loses all
        # relative accuracy once N(x) is within a few ulp of 1
        for x in np.linspace(1.0, 10.0, 46):
            tail = norm_cdf(-x)
            phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            upper = phi / x
            lower = phi * (1.0 / x - 1.0 / (x * (x * x + 1.0)))
            assert lower <= tail <= upper

    def test_saturation(self):
        assert norm_cdf(50.0) == 1.0
        assert norm_cdf(-50.0) == 0.0


class TestNormCdfInv:
    def test_median(self):
        assert norm_cdf_inv(0.5) == 0.0

    def test_round_trip_in_x(self):
        assert norm_cdf_inv(norm_cdf(1.234)) == pytest.approx(1.234, abs=1e-10)

    def test_round_trip_in_p(self):
        for p in [1e-8, 1e-5, 0.0707, 0.3, 0.5, 0.9, 1.0 - 1e-5, 1.0 - 1e-8]:
            assert norm_cdf(norm_cdf_inv(p)) == pytest.approx(p, abs=1e-12)

    def test_bisection_oracle_value(self):
        # frozen from bisection on the quadrature CDF: -1.4705975016847813785
        assert norm_cdf_inv(0.0707) == pytest.approx(-1.4705975016847814, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainBelowError):
            norm_cdf_inv(0.0)
        with pytest.raises(DomainAboveError):
            norm_cdf_inv(1.0)
        with pytest.raises(DomainError):
            norm_cdf_inv(math.nan)


class TestRegIncGamma:
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    def test_empty_integral(self, a):
        assert reg_inc_gamma(a, 0.0) == 0.0

    @pytest.mark.parametrize("y", [0.1, 0.5, 2.0, 5.0])
    def test_shape_one_closed_form(self, y):
        assert reg_inc_gamma(1.0, y) == pytest.approx(1.0 - math.exp(-y), rel=1e-14)

    def test_value_vs_quadrature(self):
        # frozen: P(1.25, 2.0) = 0.80515304164051273335
        assert reg_inc_gamma(1.25, 2.0) == pytest.approx(0.8051530416405127, abs=1e-14)
        assert reg_inc_gamma(1.25, 2.0) == pytest.approx(
            quadrature_reg_inc_gamma(1.25, 2.0), abs=1e-12
        )
        # frozen: P(0.3, 5.0) = 0.999348681249281548
        assert reg_inc_gamma(0.3, 5.0) == pytest.approx(0.9993486812492815, abs=1e-14)

    def test_monotone_in_y_and_limit(self):
        ys = np.linspace(0.0, 30.0, 200)
        values = [reg_inc_gamma(0.8, y) for y in ys]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert reg_inc_gamma(0.8, 200.0) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma(1.0, -0.1)
        for a, y in [(math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(DomainError):
                reg_inc_gamma(a, y)


class TestRegIncGammaUpper:
    @pytest.mark.parametrize("a, y", [(0.3, 0.5), (1.25, 2.0), (2.5, 5.0)])
    def test_complement_of_lower(self, a, y):
        assert reg_inc_gamma_upper(a, y) + reg_inc_gamma(a, y) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("y", [1.0, 50.0, 700.0])
    def test_shape_one_closed_form_far_tail(self, y):
        # Q(1, y) = e^-y, which 1 - P(1, y) rounds to 0 past y ~ 37
        assert reg_inc_gamma_upper(1.0, y) == pytest.approx(
            math.exp(-y), rel=1e-13, abs=0.0
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_upper(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_upper(1.0, -0.1)
        for a, y in [(math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(DomainError):
                reg_inc_gamma_upper(a, y)

