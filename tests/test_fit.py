import math
import random
from dataclasses import asdict
from decimal import Decimal, localcontext
from itertools import groupby

import pytest

from notezipf import fit as fit_module
from notezipf.errors import DegenerateTable, DomainError, NoRoot
from notezipf.fit import (
    SimonFit,
    chi_square_gof,
    coefficients,
    fit_nu,
    predict_n,
    predicted_counts,
    solve_n0,
    _tv_ratio,
)
from notezipf.simulate import SimConfig, simulate
from notezipf.stats import RankTable, count_tokens

from _oracles import rank_law_counts


def table_from_counts(counts):
    return RankTable(entries=tuple((i, c) for i, c in enumerate(counts)))


def tv_residual(T, V, nu, n0):
    """Relative residual of the cap relation, written out independently."""
    lhs = nu * (n0 ** (1.0 - nu) - 1.0) / ((1.0 - nu) * (1.0 - n0**-nu))
    return abs(lhs - T / V) / (T / V)


class TestSolveN0:
    def test_closed_form_at_half(self):
        # at nu = 1/2 the relation collapses to T/V = sqrt(n0)
        assert solve_n0(1000, 100, 0.5) == pytest.approx(100.0, rel=1e-9)
        assert solve_n0(200, 100, 0.5) == pytest.approx(4.0, rel=1e-9)

    def test_near_degenerate_ratio(self):
        for V in (10, 1000, 100000):
            for nu in (0.1, 0.5, 0.9):
                n0 = solve_n0(V + 1, V, nu)
                assert n0 > 1.0
                assert tv_residual(V + 1, V, nu, n0) < 1e-10

    def test_no_root_when_t_equals_v(self):
        with pytest.raises(NoRoot):
            solve_n0(100, 100, 0.5)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            solve_n0(100, 10, 0.0)
        with pytest.raises(DomainError):
            solve_n0(100, 10, 1.0)
        with pytest.raises(DomainError):
            solve_n0(5, 10, 0.5)

    def test_cap_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            solve_n0(10**9 + 2, 3, 0.98)

    @pytest.mark.parametrize("nu", [1e-320, 5e-296, 0.99e-295])
    def test_nu_below_its_bound_is_a_domain_error(self, nu):
        # below the bound nu * log n0 underflows: at 1e-320 a root near 1 + 2e-9 read 1.021
        with pytest.raises(DomainError, match=r"nu must lie in \[1e-295, 1\)"):
            solve_n0(10 * (1 + 1e-9), 10, nu)

    @pytest.mark.parametrize("T, V", [(10 * (1 + 1e-9), 10), (15, 10), (1000, 10), (1e12, 7)])
    def test_root_at_the_lowest_nu(self, T, V):
        # at nu = 1e-295 the relation is its nu -> 0 limit, T/V = (n0 - 1) / log n0,
        # solved here by bisection on log n0 in 50-digit decimals
        with localcontext() as ctx:
            ctx.prec = 50
            target = Decimal(T) / Decimal(V)
            lo, hi = Decimal("1e-13"), Decimal(1)
            while hi.exp() - 1 < target * hi:
                lo, hi = hi, 2 * hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mid.exp() - 1 < target * mid else (lo, mid)
            expected = float(lo.exp())
        assert solve_n0(T, V, 1e-295) == pytest.approx(expected, rel=1e-12)

    def test_cap_of_huge_total_is_a_domain_error(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            solve_n0(1e308, 3, 0.5)

    def test_limit_branch_continuous_near_one(self):
        # one formula serves nu up to 1 - 2**-52: against a 50-digit decimal
        # evaluation of the T/V relation its worst error here is 1.3e-15, where
        # a three-term series in (1 - nu) errs by 1.1e-12 at (1 - 0.9999999e-6, 300)
        with localcontext() as ctx:
            ctx.prec = 50
            for nu in (0.02, 0.5, 0.98, 1.0 - 1.0000001e-6, 1.0 - 0.9999999e-6, 1.0 - 2.0**-52):
                d_nu = Decimal(nu)
                d_s = 1 - d_nu
                for log_n0 in (1e-12, 0.01, 1.0, 20.0, 300.0, 600.0):
                    d_log = Decimal(log_n0)
                    exact = (
                        d_nu * ((d_s * d_log).exp() - 1) / (d_s * (1 - (-d_nu * d_log).exp()))
                    )
                    error = abs(Decimal(_tv_ratio(log_n0, nu)) - exact) / exact
                    assert error < Decimal("1e-13"), (nu, log_n0, error)
        n_general = solve_n0(5000, 100, 1.0 - 1.0000001e-6)
        n_limit = solve_n0(5000, 100, 1.0 - 0.9999999e-6)
        assert n_limit == pytest.approx(n_general, rel=1e-5)

    def test_ratio_under_the_bracket_gives_its_lower_end(self):
        # T/V below 1 + 5e-13 puts the root under log n0 = 1e-12
        for V in (2, 1000, 10**6):
            assert 1.0 < solve_n0(V * (1.0 + 1e-13), V, 0.5) <= math.exp(2e-12)


class TestCoefficients:
    def test_worked_example(self):
        a, b = coefficients(100.0, 9, 0.5)
        assert a == pytest.approx(0.1, rel=1e-12)
        assert b == pytest.approx(0.1, rel=1e-12)

    def test_degenerate_cap(self):
        assert coefficients(1.0, 50, 0.3) == (1.0, 0.0)

    def test_nan_cap_is_a_domain_error(self):
        # it gave (1.0, 0.0), the coefficients of n0 = 1
        with pytest.raises(DomainError, match="n0 must be >= 1"):
            coefficients(math.nan, 50, 0.3)

    def test_sum_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            n0 = rng.uniform(1.0, 1e6)
            V = rng.randint(1, 10**6)
            nu = rng.uniform(0.02, 0.98)
            a, b = coefficients(n0, V, nu)
            assert a > 0.0
            assert b >= 0.0
            assert a + b * V == pytest.approx(1.0, abs=1e-12)


class TestPredictN:
    def _fit(self, nu, n0, V):
        a, b = coefficients(n0, V, nu)
        return SimonFit(
            nu=nu, z=1.0 / nu, n0=n0, a=a, b=b,
            sse_log=0.0, chi2=0.0, dof=1, p_value=1.0, boundary_warning=False,
        )

    def test_endpoints(self):
        fit = self._fit(0.5, 100.0, 9)
        assert predict_n(0, fit) == pytest.approx(100.0, rel=1e-9)
        assert predict_n(9, fit) == pytest.approx(1.0, rel=1e-9)

    def test_interior_value(self):
        fit = self._fit(0.5, 100.0, 9)
        # 1/(0.1 + 0.1*4)^2 = 1/0.25 = 4
        assert predict_n(4, fit) == pytest.approx(4.0, rel=1e-12)

    def test_predicted_counts_are_predict_n_at_each_rank(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.4, 500, 300.0)))
        assert predicted_counts(fit, 500) == [predict_n(r, fit) for r in range(1, 501)]


class TestFitNu:
    def test_recovers_forward_generated_exponent(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.40, 1000, 500.0)))
        assert 0.395 <= fit.nu <= 0.405
        assert fit.z == pytest.approx(1.0 / fit.nu)
        assert not fit.boundary_warning

    def test_recovers_high_exponent(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.70, 300, 500.0)))
        assert fit.nu == pytest.approx(0.70, abs=0.01)

    def test_recovers_mid_exponent_to_refinement_tolerance(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.55, 300, 500.0)))
        assert fit.nu == pytest.approx(0.55, abs=0.005)

    def test_rounding_noise_still_fits_cleanly(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.40, 1000, 500.0)))
        assert fit.p_value > 0.99

    def test_degenerate_all_equal(self):
        with pytest.raises(DegenerateTable):
            fit_nu(table_from_counts([4, 4, 4, 4]))

    def test_too_few_ranks(self):
        with pytest.raises(DegenerateTable):
            fit_nu(table_from_counts([5, 3]))

    def test_unknown_residuals(self):
        with pytest.raises(ValueError, match="residuals must be 'log' or 'linear', got 'bogus'"):
            fit_nu(table_from_counts([5, 3, 1]), residuals="bogus")

    def test_label_invariance(self):
        # the fit sees only the count multiset, not the token identities
        stream_a = ["x"] * 6 + ["y"] * 3 + ["z"] * 2 + ["w"]
        stream_b = [101] * 6 + [7] * 3 + [55] * 2 + [9]
        fit_a = fit_nu(count_tokens(stream_a))
        fit_b = fit_nu(count_tokens(stream_b))
        assert fit_a.nu == fit_b.nu
        assert fit_a.chi2 == fit_b.chi2

    def test_objective_unimodal_on_synthetic_data(self):
        counts = rank_law_counts(0.45, 400, 500.0)
        T, V = sum(counts), len(counts)
        log_obs = [math.log(c) for c in counts]

        def objective(nu):
            n0 = solve_n0(T, V, nu)
            a, b = coefficients(n0, V, nu)
            z = 1.0 / nu
            return sum(
                (obs + z * math.log(a + b * r)) ** 2
                for r, obs in enumerate(log_obs, start=1)
            )

        grid = [0.02 + 0.01 * i for i in range(97)]
        values = [objective(g) for g in grid]
        interior_minima = sum(
            1
            for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        )
        assert interior_minima == 1

    def test_identities_hold_at_fitted_parameters(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.3, 300, 500.0)))
        assert fit.a + fit.b * 300 == pytest.approx(1.0, abs=1e-12)
        assert predict_n(0, fit) == pytest.approx(fit.n0, rel=1e-9)

    def test_predicted_total_near_observed_total(self):
        # the cap relation comes from the continuum sum; the discrete sum
        # lands within 5% for V >= 200 as long as the curve does not pile
        # most of its mass below rank 1, i.e. while b stays small next to a
        # (equivalently n0**nu << V; far outside that regime the continuum
        # integral concentrates in r < 1 and the gap grows without bound)
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            V = rng.randint(200, 2000)
            nu = rng.uniform(0.1, 0.9)
            T = V * rng.uniform(2.0, 50.0)
            n0 = solve_n0(T, V, nu)
            a, b = coefficients(n0, V, nu)
            if b > 0.05 * a:
                continue
            checked += 1
            z = 1.0 / nu
            total = sum((a + b * r) ** -z for r in range(1, V + 1))
            assert abs(total - T) / T < 0.05

    def test_boundary_warning_on_flat_table(self):
        # nearly flat counts push the exponent into the upper clamp
        fit = fit_nu(table_from_counts([2] + [1] * 99))
        assert fit.boundary_warning
        assert fit.nu == pytest.approx(0.98, abs=0.001)

    def test_cap_beyond_float_range_scored_out(self):
        # at large nu the cap for T/V ~ 3e8 overflows a float; those trial
        # exponents must drop out of the search instead of raising
        fit = fit_nu(table_from_counts([10**9, 1, 1]))
        assert fit.nu == 0.02
        assert fit.boundary_warning
        assert math.isfinite(fit.n0)
        fit = fit_nu(table_from_counts([10**9, 10, 1, 1]))
        assert fit.nu == pytest.approx(0.0571, abs=1e-3)
        assert not fit.boundary_warning

    def test_total_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="T/V exceeds the float range"):
            fit_nu(table_from_counts([10**400, 2, 1]))

    def test_chi_square_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="chi-square statistic exceeds the float range"):
            fit_nu(table_from_counts([10**300, 1, 1]))

    def test_linear_residuals_beyond_float_range_are_a_domain_error(self):
        with pytest.raises(DomainError, match="squared residuals exceeds the float range"):
            fit_nu(table_from_counts([10**300, 1, 1]), residuals="linear")

    def test_closing_sums_are_the_per_rank_sums(self):
        # runs of equal counts, each summed with its log(count) taken once
        counts = rank_law_counts(0.6, 2000, 800.0)
        fit = fit_nu(table_from_counts(counts))
        a, b, z = fit.a, fit.b, fit.z
        logs = [math.log(a + b * r) for r in range(1, len(counts) + 1)]
        assert fit.sse_log == math.fsum(
            (math.log(c) + z * u) ** 2 for c, u in zip(counts, logs)
        )
        preds = [predict_n(r, fit) for r in range(1, len(counts) + 1)]
        assert fit.chi2 == math.fsum((c - p) ** 2 / p for c, p in zip(counts, preds))
        assert fit.chi2 == chi_square_gof(counts, a, b, z)[0]

    def test_serialization_round_trip(self):
        fit = fit_nu(table_from_counts(rank_law_counts(0.4, 300, 500.0)))
        payload = asdict(fit)
        assert set(payload) == {
            "nu", "z", "n0", "a", "b", "sse_log", "chi2", "dof", "p_value",
            "boundary_warning",
        }


class TestChiSquareGof:
    def test_perfect_agreement(self):
        a, b = coefficients(100.0, 9, 0.5)
        # observed counts equal to the curve exactly (floats on purpose)
        exact = [(a + b * r) ** -2.0 for r in range(1, 10)]
        chi2, dof, p = chi_square_gof(exact, a, b, 2.0)
        assert chi2 == pytest.approx(0.0, abs=1e-18)
        assert dof == 7
        assert p == 1.0

    def test_flat_counts_against_curved_fit(self):
        counts = rank_law_counts(0.4, 300, 500.0)
        fit = fit_nu(table_from_counts(counts))
        mean = max(1, round(sum(counts) / len(counts)))
        _, _, p = chi_square_gof([mean] * 300, fit.a, fit.b, fit.z)
        assert p < 0.05


class TestRunKernel:
    """The search sums long runs of equal counts by Euler-Maclaurin."""

    @pytest.mark.parametrize(
        "counts",
        [
            lambda: rank_law_counts(0.3, 5000, 500.0),
            lambda: rank_law_counts(0.6, 5000, 2000.0),
            lambda: count_tokens(simulate(SimConfig("sublinear", 50_000, 1, nu=0.5)).tokens).counts(),
            lambda: count_tokens(simulate(SimConfig("sublinear", 60_000, 2, nu=0.7)).tokens).counts(),
            lambda: count_tokens(simulate(SimConfig("sublinear", 8_000, 3, nu=0.9)).tokens).counts(),
            lambda: count_tokens(simulate(SimConfig("constant", 20_000, 4, alpha=0.2)).tokens).counts(),
        ],
        ids=["forward-0.3", "forward-0.6", "sublinear-0.5", "sublinear-0.7", "sublinear-0.9", "constant-0.2"],
    )
    def test_fit_equals_rank_by_rank_search(self, counts, monkeypatch):
        counts = counts()
        runs = [len(list(run)) for _, run in groupby(counts)]
        assert any(n >= fit_module._RUN_MIN for n in runs)
        fit = fit_nu(table_from_counts(counts))
        # with no run long enough for Euler-Maclaurin, every rank is summed
        # one by one, which is the search the run sums must reproduce
        monkeypatch.setattr(fit_module, "_RUN_MIN", len(counts) + 1)
        assert fit_nu(table_from_counts(counts)) == fit
