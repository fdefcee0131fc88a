"""Rank-frequency tables and occurrence spectra for arbitrary token streams.

Tokens only need to be hashable and totally ordered among themselves; the
ordering is used to break count ties so that tables are a pure function of
the token multiset, independent of stream order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping

from .errors import EmptyCorpus, InsufficientSupport
from .numerics import LogLogFit, loglog_ols

DEFAULT_SPECTRUM_N_MAX = 50


@dataclass(frozen=True)
class RankTable:
    """Distinct tokens with their occurrence counts, most frequent first."""

    entries: tuple[tuple[Any, int], ...]

    @property
    def V(self) -> int:
        return len(self.entries)

    @property
    def T(self) -> int:
        return sum(count for _, count in self.entries)

    def counts(self) -> list[int]:
        """Occurrence counts by rank (rank 1 first)."""
        return [count for _, count in self.entries]


@dataclass(frozen=True)
class OccurrenceSpectrum:
    """w(n): how many distinct tokens occur exactly n times."""

    pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)


def count_tokens(tokens: Iterable[Hashable]) -> RankTable:
    """Build the rank table for a token stream.

    Count ties are ordered by the tokens' own ordering, so equal multisets
    always produce identical tables regardless of stream order.
    """
    counter = Counter(tokens)
    if not counter:
        raise EmptyCorpus("no tokens to count")
    entries = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    return RankTable(entries=tuple(entries))


def spectrum(table: RankTable) -> OccurrenceSpectrum:
    """Occurrence spectrum of a rank table."""
    w = Counter(count for _, count in table.entries)
    return OccurrenceSpectrum(pairs=tuple(sorted(w.items())))


def fit_spectrum_gamma(
    spec: OccurrenceSpectrum | Mapping[int, float],
    n_max: int = DEFAULT_SPECTRUM_N_MAX,
) -> LogLogFit:
    """Power-law exponent of the spectrum: w(n) ~ 1/n**gamma for n <= n_max.

    Returns the log-log least-squares fit with slope negated, i.e. .slope is
    the gamma estimate.  High-n bins are sparse, hence the cutoff window.
    """
    pairs = spec.pairs if isinstance(spec, OccurrenceSpectrum) else sorted(spec.items())
    points = [(float(n), float(w)) for n, w in pairs if n <= n_max and w > 0]
    if len(points) < 3:
        raise InsufficientSupport(
            f"spectrum has {len(points)} support points with n <= {n_max}; need >= 3"
        )
    fit = loglog_ols(points)
    return LogLogFit(slope=-fit.slope, intercept=fit.intercept, stderr=fit.stderr)


def dense_spectrum_window(
    spec: OccurrenceSpectrum, cap: int = DEFAULT_SPECTRUM_N_MAX
) -> int:
    """Largest n <= cap such that w(m) > 0 for every m <= n.

    Sparse corpora leave empty bins and a w=1 floor at moderate n, which
    flattens a log-log fit; restricting the window to the unbroken low-n
    support keeps the estimator on the dense part of the spectrum.
    """
    counts = spec.as_dict()
    n = 1
    while counts.get(n + 1, 0) > 0 and n + 1 <= cap:
        n += 1
    return n


def fit_rank_slope(
    table: RankTable,
    r_min: int | None = None,
    r_max: int | None = None,
) -> LogLogFit:
    """Large-rank power-law exponent of n(r): n(r) ~ 1/r**z over [r_min, r_max].

    Returns the log-log fit with slope negated, i.e. .slope is the z estimate.
    Defaults: r_min skips the curved low-rank head (1% of V, at least 3);
    r_max stops where the count-1 plateau begins, since a flat run of ones
    carries no slope information.
    """
    counts = table.counts()
    if r_max is None:
        r_max = max((r for r, c in enumerate(counts, start=1) if c >= 2), default=0)
    if r_min is None:
        r_min = max(3, table.V // 100)
    points = [(float(r), float(counts[r - 1])) for r in range(r_min, r_max + 1)]
    if len(points) < 3:
        raise InsufficientSupport(
            f"rank window [{r_min}, {r_max}] has {len(points)} points; need >= 3"
        )
    fit = loglog_ols(points)
    return LogLogFit(slope=-fit.slope, intercept=fit.intercept, stderr=fit.stderr)
