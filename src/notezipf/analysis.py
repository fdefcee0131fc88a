"""The analysis pipeline: one reader per input kind, one chain of estimators.

Only this module opens input files.  read_tokens turns a MIDI, text or
token-list file into tokens plus reader diagnostics; a text or token file's
tokens are a lazy stream, so their list never exists.  read_grid reads a
duration grid file as a token file.  analyze_tokens counts a stream, builds
its occurrence spectrum and runs the three estimators (rank-law fit, spectrum
exponent, rank-tail slope); the CLI and the simulator's verify_zipf both go
through it, so count -> spectrum -> window -> fit exists once.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Hashable, Iterable, Iterator

from .errors import DecodeError, DegenerateTable, InsufficientSupport
from .fit import SimonFit, fit_nu
from .notes import DEFAULT_GRID, DurationGrid, tokenize
from .numerics import LogLogFit
from .smf import collector_paused, extract_notes
from .stats import (
    RankTable,
    count_tokens,
    dense_spectrum_window,
    fit_rank_slope,
    fit_spectrum_gamma,
    spectrum,
)
from .text import tokenize_text


# text and token files are tokenized in slices of at least this many characters
_CHUNK = 65536
_TEXT_CUT = re.compile(r"\s")
_LINE_CUT = re.compile("\n")


def read_tokens(
    path: str,
    kind: str = "auto",
    grid: DurationGrid = DEFAULT_GRID,
    min_ticks: int = 0,
) -> tuple[str, Iterable[Hashable], dict]:
    """Read one file and return (resolved kind, tokens, diagnostics).

    kind "auto" picks "midi" when the file starts with the MThd magic bytes
    and "text" otherwise.  MIDI notes shorter than min_ticks are dropped and
    durations are classified on grid; the tokens are a tuple and the
    diagnostics hold the decoder's tallies plus dropped_short and
    out_of_grid.  The cyclic garbage collector is paused from decoding until
    the input buffer and the notes are freed, and is then as the caller had
    it, also when decoding or tokenize raises.  A text or token file reports
    no diagnostics, and its tokens are a stream that can be consumed once.
    The file is decoded whole, so every DecodeError is raised here, and the
    stream tokenizes one slice of the text at a time.  A text slice ends just
    after whitespace and a token-file slice just after a line feed, so each
    slice gives the tokens the whole text gives there; a non-ASCII character
    sends only its own slice to tokenize_text's word regex.
    """
    data = Path(path).read_bytes()
    if kind == "auto":
        kind = "midi" if data.startswith(b"MThd") else "text"
    if kind == "midi":
        # the notes are freed before the collector resumes, so no collection
        # ever walks them; nothing is allocated after it resumes here
        with collector_paused():
            header, notes, diag = extract_notes(data)
            del data
            result = tokenize(notes, header.division, min_ticks=min_ticks, grid=grid)
            del notes
            diagnostics = asdict(diag)
            diagnostics["dropped_short"] = result.dropped_short
            diagnostics["out_of_grid"] = result.out_of_grid
            return kind, result.tokens, diagnostics
    if kind not in ("text", "tokens"):
        raise ValueError(f"unknown kind {kind!r}")
    text = _decode(data, path)
    if kind == "text":
        # tokenize_text is looked up here, so a wrapper put on that module name
        # sees every slice
        return kind, chain.from_iterable(map(tokenize_text, _slices(text, _TEXT_CUT))), {}
    return kind, chain.from_iterable(map(_token_lines, _slices(text, _LINE_CUT))), {}


def read_grid(path: str) -> DurationGrid:
    """The grid of a token file of rationals; a line starting with '#' is a comment."""
    text = _decode(Path(path).read_bytes(), path)
    return DurationGrid.from_ratios(r for r in _token_lines(text) if not r.startswith("#"))


def _decode(data: bytes, path: str) -> str:
    """data as UTF-8 (DecodeError otherwise), less one leading byte-order mark.

    The mark is no character of the first token; it is stripped after
    decoding, so a DecodeError's offsets are offsets into the file.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path} is not valid UTF-8: {exc}") from exc
    return text.removeprefix("\ufeff")


def _slices(text: str, cut_after: re.Pattern) -> Iterator[str]:
    """Slices of text, each ending just after the first cut_after match at or
    past its _CHUNK-th character; the last slice runs to the end of text."""
    start = 0
    while start < len(text):
        cut = cut_after.search(text, start + _CHUNK - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _token_lines(text: str) -> list[str]:
    """The stripped, non-empty lines of a token file."""
    return [t for t in map(str.strip, text.splitlines()) if t]


@dataclass(frozen=True)
class Analysis:
    """Rank table, spectrum and the three estimates for one token stream.

    An estimator that could not run leaves its result None and keeps the
    exception it raised in the matching *_error field, so each caller can
    report skipped estimates in its own order and wording.
    """

    table: RankTable
    spec: dict[int, int]
    n_max: int
    fit: SimonFit | None
    fit_error: DegenerateTable | None
    gamma: LogLogFit | None
    gamma_error: InsufficientSupport | None
    tail: LogLogFit | None
    tail_error: InsufficientSupport | None


def analyze_tokens(
    tokens: Iterable[Hashable], residuals: str = "log", n_max: int | None = None
) -> Analysis:
    """Count a token stream, consuming it once, and run every estimator on it.

    residuals selects the rank-law fit objective (see fit_nu).  n_max pins
    the spectrum fit window; None picks the dense low-n window.  Raises
    EmptyCorpus for an empty stream; DegenerateTable from the rank-law fit
    (which otherwise has T > V) and InsufficientSupport from the two log-log
    fits are caught and stored on the result.
    """
    table = count_tokens(tokens)
    spec = spectrum(table)

    fit = fit_error = None
    try:
        fit = fit_nu(table, residuals=residuals)
    except DegenerateTable as exc:
        fit_error = exc

    if n_max is None:
        n_max = dense_spectrum_window(spec)
    gamma = gamma_error = None
    try:
        gamma = fit_spectrum_gamma(spec, n_max=n_max)
    except InsufficientSupport as exc:
        gamma_error = exc

    tail = tail_error = None
    try:
        tail = fit_rank_slope(table)
    except InsufficientSupport as exc:
        tail_error = exc

    return Analysis(table, spec, n_max, fit, fit_error, gamma, gamma_error, tail, tail_error)
