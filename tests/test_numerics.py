import math
import random

import pytest

from notezipf.errors import DomainError, InsufficientSupport
from notezipf.numerics import (
    chi_square_sf,
    golden_minimize,
    loglog_ols,
    _gamma_q_contfrac,
    _gamma_q_series,
)

from _oracles import chi_square_sf_poisson, chi_square_sf_quadrature


class TestChiSquareSf:
    def test_zero_statistic_is_one(self):
        for k in (1, 2, 5, 10, 100):
            assert chi_square_sf(0.0, k) == 1.0

    def test_two_dof_closed_form(self):
        # at k=2 the tail is exactly exp(-x/2)
        for x in (0.1, 1.0, 2.0, 6.0, 20.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_one_dof_critical_value(self):
        # frozen from the quadrature oracle in _oracles.py
        assert chi_square_sf(3.841, 1) == pytest.approx(0.050013683763957595, abs=1e-10)

    def test_against_quadrature_oracle_grid(self):
        for k in (1, 2, 5, 10, 100):
            for x in (0.1, 1.0, float(k), 3.0 * k):
                expected = chi_square_sf_quadrature(x, k)
                assert chi_square_sf(x, k) == pytest.approx(expected, abs=1e-10)

    def test_negative_statistic_rejected(self):
        with pytest.raises(DomainError):
            chi_square_sf(-0.5, 3)

    @pytest.mark.parametrize("x, k", [(math.nan, 3), (5.0, math.nan), (5.0, math.inf)])
    def test_nan_or_infinite_arguments_rejected(self, x, k):
        # the pass cap is derived from k, so k must be finite before it is read
        with pytest.raises(DomainError):
            chi_square_sf(x, k)

    @pytest.mark.parametrize("k", [1, 3, 1e4, 1e6])
    def test_infinite_statistic_has_zero_tail(self, k):
        # the continued fraction never settles at x = inf; the tail is exactly 0,
        # as at the largest finite x
        assert chi_square_sf(math.inf, k) == 0.0 == chi_square_sf(1e308, k)

    def test_monotone_and_bounded(self):
        rng = random.Random(20240811)
        for _ in range(300):
            k = rng.randint(1, 200)
            x1 = rng.uniform(0.0, 4.0 * k)
            x2 = x1 + rng.uniform(0.0, k)
            p1 = chi_square_sf(x1, k)
            p2 = chi_square_sf(x2, k)
            assert 0.0 <= p2 <= p1 <= 1.0

    @pytest.mark.parametrize("k", [20_000, 100_000, 1_000_000])
    def test_large_dof_against_poisson_sum_oracle(self, k):
        # near x = k the series takes about 8.6 sqrt(k/2) terms, more than any
        # fixed cap: 600 runs out from k = 11,053 on
        for x in (0.98 * k, float(k), k + 0.5, 1.001 * k):
            assert chi_square_sf(x, k) == pytest.approx(chi_square_sf_poisson(x, k), rel=1e-8)

    def test_branches_agree_at_crossover(self):
        # at x = k + 1 either expansion must be valid
        for k in (1, 2, 3, 7, 20, 99, 150):
            x = k + 1.0
            a, xg = k / 2.0, x / 2.0
            assert _gamma_q_series(a, xg) == pytest.approx(_gamma_q_contfrac(a, xg), abs=1e-9)


class TestGoldenMinimize:
    def test_parabola(self):
        x = golden_minimize(lambda x: (x - 0.4) ** 2, 0.0, 1.0, x_tol=1e-4)
        assert x == pytest.approx(0.4, abs=1e-4)

    def test_absolute_value(self):
        x = golden_minimize(lambda x: abs(x - 0.7), 0.0, 1.0, x_tol=1e-5)
        assert x == pytest.approx(0.7, abs=1e-5)

    def test_never_evaluates_outside_interval(self):
        calls = []

        def g(x):
            calls.append(x)
            return (x - 2.0) ** 2

        golden_minimize(g, 1.5, 4.0, x_tol=1e-6)
        assert all(1.5 <= x <= 4.0 for x in calls)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_interval_rejected(self, lo, hi):
        with pytest.raises(DomainError, match="need lo < hi"):
            golden_minimize(lambda x: x, lo, hi)

    @pytest.mark.parametrize("hi", [1.0 + 1e-4, 1.0 + 5e-5])
    def test_interval_within_tolerance_gives_midpoint_without_evaluating(self, hi):
        def g(x):
            raise AssertionError(f"g evaluated at {x}")

        assert golden_minimize(g, 1.0, hi, x_tol=1e-4) == 0.5 * (1.0 + hi)


class TestLogLogOls:
    def test_exact_square_law(self):
        points = [(float(x), float(x) ** 2) for x in range(1, 30)]
        fit = loglog_ols(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_inverse_law_with_prefactor(self):
        points = [(float(x), 5.0 / x) for x in range(1, 20)]
        fit = loglog_ols(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)

    def test_noisy_slope_recovery(self):
        # +/-1% multiplicative noise, 50 points, fixed seed
        rng = random.Random(73)
        points = [(float(x), x**1.3 * (1.0 + rng.uniform(-0.01, 0.01))) for x in range(1, 51)]
        fit = loglog_ols(points)
        assert fit.slope == pytest.approx(1.3, abs=0.05)

    def test_too_few_points(self):
        with pytest.raises(InsufficientSupport):
            loglog_ols([(1.0, 1.0), (2.0, 4.0)])

    def test_nonpositive_coordinates(self):
        with pytest.raises(DomainError):
            loglog_ols([(1.0, 1.0), (2.0, 4.0), (0.0, 3.0)])
        with pytest.raises(DomainError):
            loglog_ols([(1.0, 1.0), (2.0, -4.0), (3.0, 3.0)])

    def test_equal_abscissae(self):
        with pytest.raises(DomainError, match="all abscissae equal"):
            loglog_ols([(2.0, 1.0), (2.0, 4.0), (2.0, 3.0)])
