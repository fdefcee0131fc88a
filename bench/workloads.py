"""Seeded synthetic inputs for the benchmark workloads, and the checks on the
outputs the CLI writes for them.

Inputs come from the benchmark's own generator (``random.Random`` seeded by
workload name and seed), not from notezipf, so a change to the program never
changes what it is measured on.  Every generator knows the exact token multiset
it encoded, which is what the output checks compare against.  The rank-law
exponent ``nu`` has no independent closed form, so the checks take it from
``notezipf.fit.fit_nu`` run on the generator's own count table, and the
simulator stream from ``notezipf.simulate.simulate`` with the CLI's config.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DIVISION = 1920  # ticks per quarter note in every generated file

# The default duration grid of notezipf, in quarter-note units.  Kept here so
# that the inputs do not depend on the code under test.
GRID = [Fraction(r) for r in
        ("1/16", "1/12", "1/8", "1/6", "3/16", "1/4", "1/3", "3/8",
         "1/2", "3/4", "1", "3/2", "2", "3", "4", "6", "8")]

# Jittered durations must stay log-nearest to their own class.  The closest
# neighbours (1/3 and 3/8, 1/6 and 3/16) are a factor 9/8 apart, so the class
# boundary lies ln(9/8)/2 = 5.9% away; 3% plus one tick of rounding stays inside.
JITTER = 0.03
assert JITTER + 1 / (DIVISION * GRID[0]) < math.log(9 / 8) / 2

PITCHES = range(21, 109)  # the 88 piano keys


@dataclass
class Expected:
    """What an ``analyze`` of one input must report, from the generator."""

    V: int
    T: int
    counts: list[int]
    spectrum_csv: str
    nu: float


@dataclass
class Case:
    """One generated workload: the CLI arguments and how to check the outputs.

    ``argv`` is relative to the work directory the CLI runs in; outputs land
    in its ``out`` subdirectory.  ``tokens`` is the number of tokens one run
    processes and ``operations`` the number of operations it attempts (files
    for ``compare``, else 1).  ``check`` takes the output directory and
    returns (operations failed, problems found); it may raise OSError,
    ValueError, KeyError, TypeError or IndexError on missing or malformed
    outputs.
    """

    argv: list[str]
    tokens: int
    operations: int
    properties: dict
    check: Callable[[Path], tuple[int, list[str]]]


def sublinear_stream(n: int, nu: float, rng: random.Random) -> list[int]:
    """Preferential-reuse stream of n token ids, V ~ n**nu.

    Step t introduces a new id with probability nu * t**(nu - 1), which is
    below 1 for every t >= 2, and otherwise repeats a uniformly drawn earlier
    position, so reuse is proportional to count.
    """
    stream = [0]
    rand = rng.random
    v = 1
    for t in range(2, n + 1):
        if rand() < nu * t ** (nu - 1.0):
            stream.append(v)
            v += 1
        else:
            stream.append(stream[int(rand() * (t - 1))])
    return stream


def expected_table(stream: list) -> Expected:
    from notezipf.fit import fit_nu
    from notezipf.stats import count_tokens

    counts = sorted(Counter(stream).values(), reverse=True)
    spec = sorted(Counter(counts).items())
    return Expected(
        V=len(counts),
        T=len(stream),
        counts=counts,
        spectrum_csv="n,w\n" + "".join(f"{n},{w}\n" for n, w in spec),
        nu=fit_nu(count_tokens(stream)).nu,
    )


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track(notes: list[tuple[int, int, int]], channel: int, running: bool) -> bytes:
    """One monophonic MTrk chunk from (pitch, duration, rest-before) notes.

    With ``running`` every event is a note-on sent under one running status
    and note-offs are velocity-0 note-ons; otherwise each event carries its
    own status byte and note-offs are 0x80 events.
    """
    on, off = 0x90 | channel, 0x80 | channel
    out = bytearray(b"\x00\xff\x03\x05notes")  # track-name meta event
    status = None
    for pitch, duration, rest in notes:
        for delta, event in (
            (rest, (on, pitch, 80)),
            (duration, (on, pitch, 0) if running else (off, pitch, 64)),
        ):
            out += _vlq(delta)
            if event[0] != status or not running:
                out.append(event[0])
                status = event[0]
            out += bytes(event[1:])
    out += b"\x00\xff\x2f\x00"
    return b"MTrk" + len(out).to_bytes(4, "big") + bytes(out)


def _smf(tracks: list[bytes]) -> bytes:
    fields = (1).to_bytes(2, "big") + len(tracks).to_bytes(2, "big") + DIVISION.to_bytes(2, "big")
    return b"MThd" + (6).to_bytes(4, "big") + fields + b"".join(tracks)


def _note_file(
    stream: list[int], rng: random.Random, n_tracks: int, jitter: float, running: bool
) -> tuple[bytes, int]:
    """Encode a token-id stream as a format-1 SMF of monophonic tracks.

    Each id maps to its own (pitch, duration class) pair, so the note tokens
    have exactly the stream's counts.  Notes go round-robin to the tracks.
    Returns the file and its number of distinct tick durations.
    """
    pairs = [(pitch, k) for pitch in PITCHES for k in range(len(GRID))]
    rng.shuffle(pairs)
    ticks = [float(DIVISION * ratio) for ratio in GRID]
    uniform = rng.uniform
    tracks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_tracks)]
    durations = set()
    for i, token in enumerate(stream):
        pitch, k = pairs[token]
        duration = round(ticks[k] * (1.0 + uniform(-jitter, jitter))) if jitter else int(ticks[k])
        durations.add(duration)
        rest = DIVISION // 4 if i % 5 == 0 else 0
        tracks[i % n_tracks].append((pitch, duration, rest))
    data = _smf([_track(notes, channel, running) for channel, notes in enumerate(tracks)])
    return data, len(durations)


def _analysis_check(exp: Expected) -> Callable[[Path], tuple[int, list[str]]]:
    """Check of one ``analyze`` output directory against the generator's table."""

    def check(out: Path) -> tuple[int, list[str]]:
        problems = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        got = (report["corpus"]["V"], report["corpus"]["T"])
        if got != (exp.V, exp.T):
            problems.append(f"report V,T = {got}, generator has {(exp.V, exp.T)}")
        fit = report["fit"]
        if fit is None or fit["nu"] != exp.nu:
            problems.append(f"report nu = {fit and fit['nu']!r}, fit_nu on the counts gives {exp.nu!r}")
        if (out / "spectrum.csv").read_text(encoding="utf-8") != exp.spectrum_csv:
            problems.append("spectrum.csv differs from the generator's spectrum")
        lines = (out / "ranks.csv").read_text(encoding="utf-8").splitlines()[1:]
        if [int(line.split(",")[1]) for line in lines] != exp.counts:
            problems.append("ranks.csv observed column differs from the generator's counts")
        return int(bool(problems)), problems

    return check


def _properties(files: int, data: int, tracks: int, notes: int, distinct: int, V: int, T: int) -> dict:
    return {
        "files": files,
        "bytes": data,
        "tracks": tracks,
        "notes": notes,
        "distinct_durations": distinct,
        "distinct_duration_share": distinct / notes if notes else 0.0,
        "V": V,
        "T": T,
    }


def midi_large(work: Path, seed: int) -> Case:
    """One 8-track SMF of 200k jittered notes: the SMF and note layers dominate."""
    rng = random.Random(f"midi-large/{seed}")
    stream = sublinear_stream(200_000, 0.44, rng)
    data, distinct = _note_file(stream, rng, n_tracks=8, jitter=JITTER, running=True)
    (work / "in" / "large.mid").write_bytes(data)
    exp = expected_table(stream)
    return Case(
        argv=["analyze", "in/large.mid", "--out", "out"],
        tokens=exp.T,
        operations=1,
        properties=_properties(1, len(data), 8, exp.T, distinct, exp.V, exp.T),
        check=_analysis_check(exp),
    )


def midi_compare(work: Path, seed: int) -> Case:
    """32 quantized 2-track SMFs of 4096 notes: per-file fixed costs count."""
    rng = random.Random(f"midi-compare/{seed}")
    expected: dict[str, Expected] = {}
    size = distinct = 0
    for i in range(32):
        stream = sublinear_stream(4096, 0.74 + 0.08 * i / 31, rng)
        data, file_distinct = _note_file(stream, rng, n_tracks=2, jitter=0.0, running=False)
        path = f"in/piece{i:02d}.mid"
        (work / path).write_bytes(data)
        expected[path] = expected_table(stream)
        size += len(data)
        distinct += file_distinct

    def check(out: Path) -> tuple[int, list[str]]:
        result = json.loads((out / "compare.json").read_text(encoding="utf-8"))
        problems = [f"{err['path']}: {err['error']}" for err in result["errors"]]
        rows = {row["path"]: row for row in result["rows"]}
        failed = 0
        for path, exp in expected.items():
            row = rows.get(path)
            if row is None or (row["V"], row["T"], row["nu"]) != (exp.V, exp.T, exp.nu):
                failed += 1
                if row is not None:
                    problems.append(f"{path}: row V,T,nu differ from the generator's table")
        return failed, problems

    T = sum(exp.T for exp in expected.values())
    V = round(statistics.fmean(exp.V for exp in expected.values()))  # per file
    return Case(
        argv=["compare", *expected, "--out", "out"],
        tokens=T,
        operations=len(expected),
        properties=_properties(len(expected), size, 2 * len(expected), T, distinct, V, T),
        check=check,
    )


def _words(n: int, rng: random.Random) -> list[str]:
    """n distinct lowercase words: bijective base-100 numerals over CV syllables."""
    syllables = [c + v for c in "bcdfghjklmnprstvwxyz" for v in "aeiou"]
    rng.shuffle(syllables)
    words = []
    for k in range(1, n + 1):
        parts = []
        while k:
            k -= 1
            parts.append(syllables[k % 100])
            k //= 100
        words.append("".join(parts))
    return words


def text_wide(work: Path, seed: int) -> Case:
    """1M words at nu=0.8 (V ~ 63k): the rank-law fit dominates."""
    rng = random.Random(f"text-wide/{seed}")
    stream = sublinear_stream(1_000_000, 0.8, rng)
    words = _words(max(stream) + 1, rng)
    sentences = []
    i = 0
    while i < len(stream):
        length = rng.randint(4, 16)
        sentence = [words[t] for t in stream[i : i + length]]
        sentence[0] = sentence[0].capitalize()
        sentence[len(sentence) // 2] += ","
        sentences.append(" ".join(sentence) + ".\n")
        i += length
    data = "".join(sentences).encode("utf-8")
    (work / "in" / "corpus.txt").write_bytes(data)
    exp = expected_table(stream)
    return Case(
        argv=["analyze", "in/corpus.txt", "--kind", "text", "--out", "out"],
        tokens=exp.T,
        operations=1,
        properties=_properties(1, len(data), 0, 0, 0, exp.V, exp.T),
        check=_analysis_check(exp),
    )


def simulate_emit(work: Path, seed: int) -> Case:
    """1M simulator steps written to tokens.txt: the SplitMix64 loop dominates."""
    from notezipf.fit import fit_nu
    from notezipf.simulate import SimConfig, simulate
    from notezipf.stats import count_tokens

    steps, nu = 1_000_000, 0.5
    tokens = simulate(SimConfig(mode="sublinear", steps=steps, seed=seed, nu=nu)).tokens
    stream = ("\n".join(map(str, tokens)) + "\n").encode("ascii")
    V = len(set(tokens))
    nu_hat = fit_nu(count_tokens(tokens)).nu
    del tokens

    def check(out: Path) -> tuple[int, list[str]]:
        problems = []
        if (out / "tokens.txt").read_bytes() != stream:
            problems.append("tokens.txt differs from notezipf.simulate's stream")
        report = json.loads((out / "sim_report.json").read_text(encoding="utf-8"))
        verify = report["verify"]
        if (report["V"], report["T"]) != (V, steps):
            problems.append(f"sim_report V,T = {(report['V'], report['T'])}, expected {(V, steps)}")
        if verify is None or verify["nu_hat"] != nu_hat:
            problems.append(f"sim_report nu_hat differs from fit_nu on the stream ({nu_hat!r})")
        return int(bool(problems)), problems

    argv = ["simulate", "--mode", "sublinear", "--nu", str(nu), "--steps", str(steps),
            "--seed", str(seed), "--out", "out", "--emit-tokens"]
    return Case(
        argv=argv,
        tokens=steps,
        operations=1,
        properties=_properties(0, 0, 0, 0, 0, V, steps),
        check=check,
    )


WORKLOADS = {
    "midi-large": midi_large,
    "midi-compare": midi_compare,
    "text-wide": text_wide,
    "simulate-emit": simulate_emit,
}
