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
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyCorpus
from .smf import RawNote


class DurationClass(NamedTuple):
    """One grid entry, ordered by its exact ratio in quarter-note units.

    It hashes by its label alone, which is unique within a grid, so it does
    not hash like a plain (ratio, label) tuple; hashing a Fraction on every
    token is what this avoids.
    """

    ratio: Fraction
    label: str

    def __hash__(self) -> int:
        return hash(self.label)


def _check_ratio(duration: int, division: int) -> None:
    if not (math.inf > duration >= 1 and math.inf > division >= 1):  # NaN fails this too
        raise ValueError(f"need finite duration and division >= 1, got {duration}/{division}")


class DurationGrid:
    """Immutable set of duration classes with nearest-in-log-space lookup."""

    def __init__(self, classes: Iterable[DurationClass]) -> None:
        self.classes = tuple(sorted(classes))
        if not self.classes:
            raise ValueError("a duration grid needs at least one class")
        ratios = [c.ratio for c in self.classes]
        labels = [c.label for c in self.classes]
        if len(set(ratios)) != len(ratios) or len(set(labels)) != len(labels):
            raise ValueError("grid labels and ratios must be unique")
        if any(r <= 0 for r in ratios):
            raise ValueError("grid ratios must be positive")
        self._log_ratios = []
        for c in self.classes:
            try:  # float() overflows above the range; log(0.0) fails below it
                self._log_ratios.append(math.log(float(c.ratio)))
            except (OverflowError, ValueError):
                raise ValueError(f"grid ratio {c.label!r} is outside the float range") from None

    def classify(self, duration: int, division: int) -> DurationClass:
        """Grid class whose ratio is log-nearest to duration/division.

        Ties break toward the shorter class; values beyond either end of the
        grid land on the end class.
        """
        _check_ratio(duration, division)
        x = math.log(duration / division)
        best = min(
            range(len(self.classes)),
            key=lambda i: (abs(x - self._log_ratios[i]), self.classes[i].ratio),
        )
        return self.classes[best]

    def is_out_of_range(self, duration: int, division: int) -> bool:
        """Whether duration/division lies beyond either end of the grid."""
        _check_ratio(duration, division)
        frac = Fraction(duration) / Fraction(division)
        return frac < self.classes[0].ratio or frac > self.classes[-1].ratio

    @classmethod
    def from_ratios(cls, ratios: Iterable[Fraction | str]) -> "DurationGrid":
        """Grid of the given ratios, each labelled as written (str(entry))."""
        classes = []
        for r in ratios:
            try:
                classes.append(DurationClass(Fraction(r), str(r)))
            except ZeroDivisionError:
                raise ValueError(f"grid ratio {r!r} has a zero denominator") from None
        return cls(classes)


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
    Each distinct duration is classified once, and each distinct
    (pitch, duration) becomes a token once.  Raises EmptyCorpus when nothing
    survives, and ValueError for a division below 1 or not finite.
    """
    if not math.inf > division >= 1:
        raise ValueError(f"need a finite division >= 1, got {division}")
    tokens: list[NoteToken] = []
    dropped = 0
    out_of_grid = 0
    seen: dict[tuple[int, int], tuple[NoteToken, bool]] = {}
    classes: dict[int, tuple[DurationClass, bool]] = {}
    for note in sorted(notes):
        if min_ticks and note.duration < min_ticks:
            dropped += 1
            continue
        key = (note.pitch, note.duration)
        entry = seen.get(key)
        if entry is None:
            found = classes.get(note.duration)
            if found is None:
                outside = grid.is_out_of_range(note.duration, division)
                found = classes[note.duration] = (grid.classify(note.duration, division), outside)
            duration_class, outside = found
            entry = seen[key] = (NoteToken(note.pitch, duration_class), outside)
        token, outside = entry
        out_of_grid += outside
        tokens.append(token)
    if not tokens:
        raise EmptyCorpus("no notes survived tokenization")
    return TokenizeResult(tokens=tuple(tokens), dropped_short=dropped, out_of_grid=out_of_grid)
