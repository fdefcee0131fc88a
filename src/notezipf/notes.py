"""Note tokens: pitch plus a symbolic duration class.

A note's identity is its MIDI key number and its duration class, obtained by
quantizing the tick duration (relative to the file's ticks-per-quarter
division) onto a grid of standard note-type ratios.  Volume, timbre, track,
and absolute onset are deliberately not part of token identity.

The default grid spans double-whole through sixty-fourth notes including
dotted and triplet values; it can be replaced by any table of positive
rationals (one per line in a grid file).  Matching is nearest-in-log-space,
because duration perception is ratio-based; exact ties go to the shorter
class so classification is total and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyCorpus
from .smf import RawNote


class DurationClass(NamedTuple):
    """One grid entry, ordered by its exact ratio in quarter-note units."""

    ratio: Fraction
    label: str


class DurationGrid:
    """Immutable set of duration classes with nearest-in-log-space lookup."""

    def __init__(self, classes: Iterable[DurationClass]) -> None:
        ordered = tuple(sorted(classes))
        if not ordered:
            raise ValueError("a duration grid needs at least one class")
        ratios = [c.ratio for c in ordered]
        labels = [c.label for c in ordered]
        if len(set(ratios)) != len(ratios) or len(set(labels)) != len(labels):
            raise ValueError("grid labels and ratios must be unique")
        if any(r <= 0 for r in ratios):
            raise ValueError("grid ratios must be positive")
        self._classes = ordered
        self._log_ratios = tuple(
            math.log(c.ratio.numerator / c.ratio.denominator) for c in ordered
        )

    @property
    def classes(self) -> tuple[DurationClass, ...]:
        return self._classes

    @property
    def min_ratio(self) -> Fraction:
        return self._classes[0].ratio

    @property
    def max_ratio(self) -> Fraction:
        return self._classes[-1].ratio

    def classify(self, duration: int, division: int) -> DurationClass:
        """Grid class whose ratio is log-nearest to duration/division.

        Ties break toward the shorter class; values beyond either end of the
        grid land on the end class.
        """
        if duration < 1 or division < 1:
            raise ValueError(f"need duration >= 1 and division >= 1, got {duration}/{division}")
        x = math.log(duration / division)
        best = min(
            range(len(self._classes)),
            key=lambda i: (abs(x - self._log_ratios[i]), self._classes[i].ratio),
        )
        return self._classes[best]

    def is_out_of_range(self, duration: int, division: int) -> bool:
        frac = Fraction(duration, division)
        return frac < self.min_ratio or frac > self.max_ratio

    @classmethod
    def from_ratios(cls, ratios: Iterable[Fraction | str]) -> "DurationGrid":
        parsed = []
        for r in ratios:
            try:
                ratio = Fraction(r)
                in_range = ratio <= 0 or float(ratio) > 0.0
            except ZeroDivisionError:
                raise ValueError(f"grid ratio {r!r} has a zero denominator") from None
            except OverflowError:
                in_range = False
            if not in_range:
                raise ValueError(f"grid ratio {r!r} is outside the float range")
            parsed.append(ratio)
        return cls(DurationClass(r, str(r)) for r in parsed)

    @classmethod
    def from_file(cls, path: str | Path) -> "DurationGrid":
        """Read a grid from a text file with one rational per line.

        Blank lines and lines starting with '#' are skipped.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        ratios = [line.strip() for line in lines]
        return cls.from_ratios(r for r in ratios if r and not r.startswith("#"))


DEFAULT_GRID = DurationGrid(
    DurationClass(Fraction(ratio), label)
    for label, ratio in [
        ("double_whole", "8"),
        ("dotted_whole", "6"),
        ("whole", "4"),
        ("dotted_half", "3"),
        ("half", "2"),
        ("dotted_quarter", "3/2"),
        ("quarter", "1"),
        ("dotted_eighth", "3/4"),
        ("eighth", "1/2"),
        ("dotted_sixteenth", "3/8"),
        ("triplet_eighth", "1/3"),
        ("sixteenth", "1/4"),
        ("dotted_thirtysecond", "3/16"),
        ("triplet_sixteenth", "1/6"),
        ("thirtysecond", "1/8"),
        ("triplet_thirtysecond", "1/12"),
        ("sixtyfourth", "1/16"),
    ]
)


class NoteToken(NamedTuple):
    """A note's identity; tokens order by pitch, then duration class."""

    pitch: int
    duration_class: DurationClass

    def __str__(self) -> str:
        return f"{self.pitch}:{self.duration_class.label}"


@dataclass(frozen=True)
class TokenizeResult:
    tokens: tuple[NoteToken, ...]
    dropped_short: int
    out_of_grid: int


def tokenize(
    notes: Sequence[RawNote],
    division: int,
    min_ticks: int = 0,
    grid: DurationGrid = DEFAULT_GRID,
) -> TokenizeResult:
    """Map timed notes to tokens, in onset order.

    Notes shorter than min_ticks are dropped (grace-note filter);
    durations beyond the grid's ends clamp to the end class and are tallied.
    Raises EmptyCorpus when nothing survives.
    """
    ordered = sorted(notes, key=lambda n: (n.onset, n.track, n.channel, n.pitch, n.duration))
    tokens: list[NoteToken] = []
    dropped = 0
    out_of_grid = 0
    for note in ordered:
        if min_ticks and note.duration < min_ticks:
            dropped += 1
            continue
        if grid.is_out_of_range(note.duration, division):
            out_of_grid += 1
        tokens.append(NoteToken(note.pitch, grid.classify(note.duration, division)))
    if not tokens:
        raise EmptyCorpus("no notes survived tokenization")
    return TokenizeResult(tokens=tuple(tokens), dropped_short=dropped, out_of_grid=out_of_grid)
