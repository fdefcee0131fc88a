"""Rank-frequency tables and occurrence spectra for arbitrary token streams.

Tokens only need to be hashable.  A table keeps runs of equal counts alone,
so it is a pure function of the token multiset, independent of stream order.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from .errors import DomainError, EmptyCorpus, InsufficientSupport
from .numerics import LogLogFit, loglog_ols

DEFAULT_SPECTRUM_N_MAX = 50


class RankTable:
    """Occurrence counts of the distinct tokens, most frequent first.

    Built from (token, count) pairs in any order.  Only the runs are kept:
    ``runs`` holds one (count, ranks) pair per distinct count, in decreasing
    count, where ranks is how many tokens share that count.  No estimator and
    no output reads a token.
    """

    __slots__ = ("runs", "V", "T")

    def __init__(self, entries: Iterable[tuple[Hashable, int]]) -> None:
        self.runs = tuple(sorted(Counter(map(itemgetter(1), entries)).items(), reverse=True))
        if self.runs and self.runs[-1][0] <= 0:
            raise DomainError(f"counts must be positive, got {self.runs[-1][0]}")
        self.V = sum(ranks for _, ranks in self.runs)
        self.T = sum(count * ranks for count, ranks in self.runs)

    def counts(self) -> list[int]:
        """Occurrence counts by rank (rank 1 first)."""
        return [count for count, ranks in self.runs for _ in range(ranks)]


def count_tokens(tokens: Iterable[Hashable]) -> RankTable:
    """Build the rank table for a token stream."""
    counter = Counter(tokens)
    if not counter:
        raise EmptyCorpus("no tokens to count")
    return RankTable(counter.items())


def spectrum(table: RankTable) -> dict[int, int]:
    """Occurrence spectrum w(n): how many distinct tokens occur exactly n times.

    Keys are in increasing n and only n with w(n) > 0 appear.
    """
    return dict(reversed(table.runs))


def fit_spectrum_gamma(spec: Mapping[int, float], n_max: int) -> LogLogFit:
    """Power-law exponent of the spectrum: w(n) ~ 1/n**gamma for n <= n_max.

    Returns the log-log least-squares fit with slope negated, i.e. .slope is
    the gamma estimate.  High-n bins are sparse, hence the cutoff window.
    """
    points = [(float(n), float(w)) for n, w in sorted(spec.items()) if n <= n_max and w > 0]
    if len(points) < 3:
        raise InsufficientSupport(
            f"spectrum has {len(points)} support points with n <= {n_max}; need >= 3"
        )
    fit = loglog_ols(points)
    return LogLogFit(slope=-fit.slope, intercept=fit.intercept, stderr=fit.stderr)


def dense_spectrum_window(spec: Mapping[int, int]) -> int:
    """Largest n <= DEFAULT_SPECTRUM_N_MAX such that w(m) > 0 for every m <= n.

    Sparse corpora leave empty bins and a w=1 floor at moderate n, which
    flattens a log-log fit; restricting the window to the unbroken low-n
    support keeps the estimator on the dense part of the spectrum.
    """
    n = 1
    while spec.get(n + 1, 0) > 0 and n + 1 <= DEFAULT_SPECTRUM_N_MAX:
        n += 1
    return n


def fit_rank_slope(table: RankTable) -> LogLogFit:
    """Large-rank power-law exponent of n(r): n(r) ~ 1/r**z over [r_min, r_max].

    Returns the log-log fit with slope negated, i.e. .slope is the z estimate.
    r_min skips the curved low-rank head (1% of V, at least 3); r_max stops
    where the count-1 plateau begins, since a flat run of ones carries no
    slope information.
    """
    counts = table.counts()
    r_max = sum(ranks for count, ranks in table.runs if count >= 2)
    r_min = max(3, table.V // 100)
    points = [(float(r), float(counts[r - 1])) for r in range(r_min, r_max + 1)]
    if len(points) < 3:
        raise InsufficientSupport(
            f"rank window [{r_min}, {r_max}] has {len(points)} points; need >= 3"
        )
    fit = loglog_ols(points)
    return LogLogFit(slope=-fit.slope, intercept=fit.intercept, stderr=fit.stderr)
