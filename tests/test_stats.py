import random

import pytest

from notezipf.errors import DomainError, EmptyCorpus, InsufficientSupport
from notezipf.fit import fit_nu
from notezipf.stats import (
    RankTable,
    count_tokens,
    fit_rank_slope,
    fit_spectrum_gamma,
    spectrum,
)


class TestCountTokens:
    def test_small_stream(self):
        table = count_tokens(["A", "B", "A"])
        assert table.V == 2
        assert table.T == 3
        assert table.counts() == [2, 1]

    def test_single_token(self):
        table = count_tokens(["A"])
        assert (table.V, table.T) == (1, 1)
        assert table.counts() == [1]

    def test_empty_stream(self):
        with pytest.raises(EmptyCorpus):
            count_tokens([])

    def test_counts_non_increasing_and_sum_to_t(self):
        rng = random.Random(11)
        for _ in range(50):
            stream = [rng.randint(0, 20) for _ in range(rng.randint(1, 200))]
            table = count_tokens(stream)
            counts = table.counts()
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert sum(counts) == len(stream)
            assert all(c >= 1 for c in counts)
            assert len(counts) == table.V

    def test_permutation_invariance(self):
        rng = random.Random(99)
        stream = [rng.choice("abcdef") for _ in range(300)]
        reference = count_tokens(stream)
        for _ in range(10):
            rng.shuffle(stream)
            table = count_tokens(stream)
            assert table.counts() == reference.counts()

    def test_unorderable_tokens_count(self):
        # tokens need only be hashable: tied counts are never ordered by token
        table = count_tokens([1, "a", (2,), "a", 1, (2,)])
        assert (table.V, table.T, table.counts()) == (3, 6, [2, 2, 2])
        assert not hasattr(table, "entries")


class TestRankTable:
    def test_runs_in_decreasing_count(self):
        table = RankTable([("a", 1), ("b", 5), ("c", 2), ("d", 1)])
        assert table.runs == ((5, 1), (2, 1), (1, 2))
        assert (table.V, table.T, table.counts()) == (4, 9, [5, 2, 1, 1])

    def test_entries_in_any_order(self):
        rng = random.Random(7)
        entries = [(i, c) for i, c in enumerate([40, 40, 9, 5, 5, 5, 3, 2, 2, 1, 1, 1, 1])]
        reference = RankTable(entries)
        reference_fit = fit_nu(reference)
        for _ in range(10):
            rng.shuffle(entries)
            table = RankTable(entries)
            assert table.runs == reference.runs
            assert table.counts() == reference.counts()
            assert (table.V, table.T) == (reference.V, reference.T)
            assert fit_nu(table) == reference_fit

    @pytest.mark.parametrize("smallest", [0, -1])
    def test_count_below_one_is_a_domain_error(self, smallest):
        with pytest.raises(DomainError):
            RankTable([("a", 3), ("b", 1), ("c", smallest)])


class TestSpectrum:
    def test_two_counts(self):
        spec = spectrum(count_tokens(["A", "A", "B"]))
        assert spec == {1: 1, 2: 1}

    def test_all_equal_counts(self):
        spec = spectrum(count_tokens(["A", "A", "A", "B", "B", "B", "C", "C", "C"]))
        assert spec == {3: 3}

    def test_sum_identities(self):
        rng = random.Random(4242)
        for _ in range(50):
            stream = [rng.randint(0, 30) for _ in range(rng.randint(1, 400))]
            table = count_tokens(stream)
            spec = spectrum(table)
            assert sum(spec.values()) == table.V
            assert sum(n * w for n, w in spec.items()) == table.T
            assert list(spec) == sorted(spec)


class TestFitSpectrumGamma:
    def test_exact_inverse_square(self):
        pairs = {n: 1000.0 / n**2 for n in range(1, 101)}
        fit = fit_spectrum_gamma(pairs, n_max=100)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.stderr == pytest.approx(0.0, abs=1e-8)

    def test_exact_exponent_1_5(self):
        pairs = {n: 500.0 / n**1.5 for n in range(1, 60)}
        fit = fit_spectrum_gamma(pairs, n_max=50)
        assert fit.slope == pytest.approx(1.5, abs=1e-10)

    def test_cutoff_respected(self):
        # points beyond n_max must not contribute
        pairs = {n: 1000.0 / n**2 for n in range(1, 20)}
        pairs[500] = 123456.0
        fit = fit_spectrum_gamma(pairs, n_max=19)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupport):
            fit_spectrum_gamma({1: 10, 2: 5}, n_max=50)
        with pytest.raises(InsufficientSupport):
            fit_spectrum_gamma({1: 10, 2: 5, 60: 1}, n_max=50)


class TestFitRankSlope:
    def _table_with_counts(self, counts):
        return RankTable(entries=tuple((i, c) for i, c in enumerate(counts)))

    def test_exact_power_law_over_default_window(self):
        # every count is >= 2, so the window is [3, 200]
        counts = [2000.0 * r**-1.2 for r in range(1, 201)]
        fit = fit_rank_slope(self._table_with_counts(counts))
        assert fit.slope == pytest.approx(1.2, abs=1e-10)

    def test_default_window_excludes_count_one_plateau(self):
        # power law down to 1, then a long flat tail of ones
        counts = [round(300.0 / r) for r in range(1, 301)] + [1] * 200
        fit = fit_rank_slope(self._table_with_counts(counts))
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_all_ones_is_insufficient(self):
        with pytest.raises(InsufficientSupport):
            fit_rank_slope(self._table_with_counts([1] * 50))
