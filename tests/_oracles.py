"""Independent oracles used to compute expected test values.

Everything here is deliberately written against the underlying definitions
(density integrals, direct enumeration, forward evaluation of the rank law)
rather than against the package's own code paths, so a bug in the library
cannot hide behind an oracle that shares it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def _simpson(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f((a + b) / 2.0) + f(b))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 60) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance tol."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    m = (a + b) / 2.0
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def chi_square_pdf(t: float, k: float) -> float:
    if t <= 0.0:
        return 0.0
    half = k / 2.0
    return math.exp((half - 1.0) * math.log(t) - t / 2.0 - half * math.log(2.0) - math.lgamma(half))


def chi_square_sf_quadrature(x: float, k: float, tol: float = 1e-13) -> float:
    """Upper-tail chi-square probability by direct integration of the density.

    Integrates from x out to a point where the remaining tail is below 1e-16;
    for t >= max(4k, x, 60) the density is dominated by exp(-t/4), so the
    truncation point below is far more than enough.  The interval is split at
    breakpoints around the density's mode (k - 2) before handing each panel to
    the adaptive rule, because a single panel whose endpoints all sit in the
    flat tails would otherwise terminate immediately and miss the bump.
    """
    if x <= 0.0:
        return 1.0
    upper = max(4.0 * k, x, 60.0) + 600.0
    breaks = sorted({x} | {b for b in (k / 2.0, k, 2.0 * k, 4.0 * k, upper / 2.0) if x < b < upper})
    breaks.append(upper)
    total = 0.0
    lo = breaks[0]
    for hi in breaks[1:]:
        total += adaptive_simpson(lambda t: chi_square_pdf(t, k), lo, hi, tol=tol)
        lo = hi
    return total


def chi_square_sf_poisson(x: float, k: int) -> float:
    """Upper-tail chi-square probability for an even k, as a Poisson sum.

    For integer a = k/2, Q(a, x/2) is the chance that a Poisson variable of
    mean x/2 falls below a: exp(-x/2) times the sum over j < a of
    (x/2)**j / j!.  Each term is formed in log space, so none overflows.
    """
    if k % 2:
        raise ValueError(f"the Poisson sum needs an even k, got {k}")
    m = x / 2.0
    log_m = math.log(m)
    return math.fsum(math.exp(j * log_m - m - math.lgamma(j + 1)) for j in range(k // 2))


def exact_ols_slope(xs, ys):
    """Plain least-squares slope of ys on xs, written out long-hand."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def rank_law_counts(nu: float, V: int, n0: float) -> list[int]:
    """Forward-evaluate the rank law and round to integer counts >= 1.

    Written directly from the closed form (a = 1/n0**nu, b = (1-a)/V,
    n(r) = (a + b*r)**(-1/nu)) rather than through the package, so recovery
    tests exercise generation and fitting as independent routes.
    """
    a = n0 ** (-nu)
    b = (1.0 - a) / V
    z = 1.0 / nu
    return [max(1, math.floor((a + b * r) ** (-z) + 0.5)) for r in range(1, V + 1)]


def enumerate_simon_distribution(steps: int, innovation_probs, rule: str):
    """Exact output distribution of a tiny Simon process, by full enumeration.

    innovation_probs maps step t (2-based) to a Fraction; step 1 always
    introduces token 1.  rule is "uniform-history" (pick a uniformly random
    earlier position and copy its token) or "count-proportional" (pick an
    existing token with probability count/(t-1)).  Returns a dict mapping
    each possible token sequence (tuple of ids in order of first appearance)
    to its exact probability.
    """
    if rule not in ("uniform-history", "count-proportional"):
        raise ValueError(rule)
    dist: dict[tuple[int, ...], Fraction] = {}

    def recurse(seq: tuple[int, ...], prob: Fraction) -> None:
        t = len(seq) + 1
        if t > steps:
            dist[seq] = dist.get(seq, Fraction(0)) + prob
            return
        p_new = Fraction(innovation_probs[t])
        if p_new > 0:
            recurse(seq + (max(seq) + 1,), prob * p_new)
        p_old = 1 - p_new
        if p_old > 0:
            if rule == "uniform-history":
                for j in range(len(seq)):
                    recurse(seq + (seq[j],), prob * p_old / len(seq))
            else:
                counts: dict[int, int] = {}
                for tok in seq:
                    counts[tok] = counts.get(tok, 0) + 1
                for tok, c in counts.items():
                    recurse(seq + (tok,), prob * p_old * Fraction(c, len(seq)))

    recurse((1,), Fraction(1))
    return dist


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator; the algorithm identity is part of the contract."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_index(self, n: int) -> int:
        """Uniform integer in [0, n) by 64-bit multiply-shift."""
        return (self.next_u64() * n) >> 64


def reference_simulate(config):
    """The simulator's step loop on the scalar SplitMix64, one state step per draw.

    One draw decides innovation; only a reuse step takes a second draw, for the
    history index.  Returns a notezipf SimResult.
    """
    from notezipf.simulate import SimResult

    rng = SplitMix64(config.seed)
    tokens = [1]
    v = 1
    constant = config.mode == "constant"
    alpha = config.alpha if constant else 0.0
    nu = config.nu if not constant else 0.0
    for t in range(2, config.steps + 1):
        p_new = alpha if constant else min(1.0, nu * float(t) ** (nu - 1.0))
        if rng.next_float() < p_new:
            v += 1
            tokens.append(v)
        else:
            tokens.append(tokens[rng.next_index(t - 1)])
    return SimResult(tokens=tuple(tokens), V=v)


def first_bulk_step(config):
    """The first step t <= steps whose innovation probability is below
    simulate._CUTOFF, in the step loop's own float expression, or steps + 1.

    simulate's step loop hands over to its bulk loop at this step.
    """
    from notezipf.simulate import _CUTOFF

    for t in range(2, config.steps + 1):
        p_new = config.alpha if config.mode == "constant" else config.nu * float(t) ** (config.nu - 1.0)
        if p_new < _CUTOFF:
            return t
    return config.steps + 1


# a word: letters (\w minus digits and underscore) joined by single internal
# apostrophes or hyphens
_REFERENCE_WORD = re.compile(r"[^\W\d_]+(?:['-][^\W\d_]+)*")


def reference_tokenize_text(text: str) -> list[str]:
    """Word tokens by the regex definition alone, on the lowercased text."""
    return _REFERENCE_WORD.findall(text.lower())


def direct_log_sse(log_count: float, r1: int, r2: int, a: float, b: float, z: float) -> float:
    """Log-space SSE of ranks r1..r2 against n(r) = (a + b*r)**(-z), rank by rank.

    Every rank shares the observed log count, as in one run of equal counts.
    """
    return math.fsum((log_count + z * math.log(a + b * r)) ** 2 for r in range(r1, r2 + 1))


def lgamma_log_sum(r1: int, r2: int, a: float, b: float) -> float:
    """Sum of log(a + b*r) over r = r1..r2 in closed form.

    With c = a/b, the product of (c + r) over the run is
    Gamma(c + r2 + 1) / Gamma(c + r1), so the sum is
    n*log(b) + lgamma(c + r2 + 1) - lgamma(c + r1).  The two lgamma values
    are large and nearly cancel when c dwarfs the run, so this form is only
    accurate for moderate c.
    """
    c = a / b
    return (r2 - r1 + 1) * math.log(b) + math.lgamma(c + r2 + 1) - math.lgamma(c + r1)


def reference_extract_notes(data: bytes):
    """Two-pass Standard MIDI File decoder: every note event into a list, then pairing.

    Each track is first decoded into (tick, is_on, channel, pitch) events,
    where is_on means a note-on with velocity > 0; a second pass matches
    note-ons to note-offs FIFO per (channel, pitch), closes what is still open
    at the track's end in (channel, pitch) order, and tallies orphans,
    unmatched note-ons and zero-length pairs.  Returns (header, notes,
    diagnostics) as notezipf.smf.extract_notes does and raises the same
    errors with the same messages.
    """
    from collections import deque

    from notezipf.errors import (
        DanglingStatus,
        InvalidVlq,
        MissingHeader,
        SmpteDivision,
        TruncatedChunk,
    )
    from notezipf.smf import RawNote, SmfDiagnostics, SmfHeader

    data_lengths = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}

    def read_vlq(buf, pos):
        value = 0
        for i in range(4):
            if pos + i >= len(buf):
                raise InvalidVlq(f"unterminated variable-length quantity at offset {pos}")
            byte = buf[pos + i]
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value, pos + i + 1
        raise InvalidVlq(f"variable-length quantity longer than 4 bytes at offset {pos}")

    def data_byte(buf, pos):
        if pos >= len(buf):
            raise TruncatedChunk("track data ends inside a channel message")
        byte = buf[pos]
        if byte & 0x80:
            raise DanglingStatus(
                f"expected channel message data byte at offset {pos}, got status 0x{byte:02X}"
            )
        return byte

    def track_events(buf):
        """(events, end_tick, saw_end_of_track) of one MTrk payload."""
        events = []
        pos = tick = 0
        status = None
        while pos < len(buf):
            delta, pos = read_vlq(buf, pos)
            tick += delta
            if pos >= len(buf):
                raise TruncatedChunk("track data ends after a delta time")
            byte = buf[pos]
            if byte == 0xFF:
                pos += 1
                if pos >= len(buf):
                    raise TruncatedChunk("track data ends inside a meta event")
                meta_type = buf[pos]
                length, pos = read_vlq(buf, pos + 1)
                if pos + length > len(buf):
                    raise TruncatedChunk(
                        f"meta event 0x{meta_type:02X} declares {length} bytes past track end"
                    )
                pos += length
                if meta_type == 0x2F:
                    return events, tick, True
                status = None
                continue
            if byte in (0xF0, 0xF7):
                length, pos = read_vlq(buf, pos + 1)
                if pos + length > len(buf):
                    raise TruncatedChunk(f"sysex declares {length} bytes past track end")
                pos += length
                status = None
                continue
            if byte & 0x80:
                if byte >= 0xF0:
                    raise DanglingStatus(f"unsupported system status 0x{byte:02X} in track data")
                status = byte
                pos += 1
            elif status is None:
                raise DanglingStatus(
                    f"data byte 0x{byte:02X} at offset {pos} with no status in scope"
                )
            kind, channel = status & 0xF0, status & 0x0F
            first = data_byte(buf, pos)
            second = data_byte(buf, pos + 1) if data_lengths[kind] == 2 else 0
            pos += data_lengths[kind]
            if kind == 0x90:
                events.append((tick, second > 0, channel, first))
            elif kind == 0x80:
                events.append((tick, False, channel, first))
        return events, tick, False

    if len(data) < 8 or data[0:4] != b"MThd":
        raise MissingHeader("no MThd chunk at offset 0")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MissingHeader(f"MThd declares {header_len} bytes; need at least 6")
    if 8 + header_len > len(data):
        raise TruncatedChunk(f"MThd declares {header_len} bytes past end of buffer")
    fmt = int.from_bytes(data[8:10], "big")
    declared_tracks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1, 2):
        raise MissingHeader(f"unknown SMF format {fmt}")
    if division & 0x8000:
        raise SmpteDivision("SMPTE division is not supported; use ticks per quarter note")
    if division == 0:
        raise MissingHeader("division of 0 ticks per quarter note is invalid")

    tracks = []
    diag = SmfDiagnostics()
    pos = 8 + header_len
    while pos < len(data):
        if pos + 8 > len(data):
            diag.trailing_bytes = len(data) - pos
            break
        chunk_type = data[pos : pos + 4]
        chunk_len = int.from_bytes(data[pos + 4 : pos + 8], "big")
        if pos + 8 + chunk_len > len(data):
            if len(tracks) >= declared_tracks:
                diag.trailing_bytes = len(data) - pos
                break
            raise TruncatedChunk(
                f"{chunk_type!r} chunk declares {chunk_len} bytes past end of buffer"
            )
        payload = data[pos + 8 : pos + 8 + chunk_len]
        pos += 8 + chunk_len
        if chunk_type == b"MTrk":
            events, end_tick, saw_end = track_events(payload)
            tracks.append((events, end_tick))
            diag.missing_end_of_track += not saw_end

    notes = []

    def close(onset, end, track, channel, pitch):
        if end > onset:
            notes.append(RawNote(onset, track, channel, pitch, end - onset))
        else:
            diag.zero_length_notes += 1

    for track, (events, end_tick) in enumerate(tracks):
        pending = {}
        for tick, is_on, channel, pitch in events:
            if is_on:
                pending.setdefault((channel, pitch), deque()).append(tick)
            elif pending.get((channel, pitch)):
                close(pending[(channel, pitch)].popleft(), tick, track, channel, pitch)
            else:
                diag.orphan_note_offs += 1
        for (channel, pitch), queue in sorted(pending.items()):
            for onset in queue:
                diag.unmatched_note_ons += 1
                close(onset, end_tick, track, channel, pitch)
    header = SmfHeader(format=fmt, track_count=len(tracks), division=division)
    return header, notes, diag


def reference_tokens(data: bytes, kind: str) -> list:
    """The tokens of a file of the given kind, by the reference readers.

    A MIDI file is decoded by reference_extract_notes, and each note becomes
    (pitch, label of its default-grid class) by its own classify call.  A
    text or token file is UTF-8 less one leading byte-order mark; text is
    split by reference_tokenize_text, a token file into its stripped,
    non-empty lines.
    """
    if kind == "midi":
        from notezipf.notes import DEFAULT_GRID

        header, notes, _ = reference_extract_notes(data)
        tokens = []
        for note in notes:
            duration_class = DEFAULT_GRID.classify(note.duration, header.division)
            tokens.append((note.pitch, duration_class.label))
        return tokens
    text = data.decode("utf-8").removeprefix("\ufeff")
    if kind == "text":
        return reference_tokenize_text(text)
    return [line.strip() for line in text.splitlines() if line.strip()]


def reference_analysis(data: bytes, kind: str):
    """(counts by rank, spectrum as sorted (n, w) pairs, nu) of a file.

    The counts come from a plain Counter of reference_tokens.  nu is fit_nu's
    on a table of those counts with fit._RUN_MIN above V, so the search sums
    every rank one by one and no run by Euler-Maclaurin; it is None when the
    table is degenerate (under 3 distinct tokens, or all counts equal).
    """
    from collections import Counter
    from unittest import mock

    from notezipf import fit
    from notezipf.errors import DegenerateTable
    from notezipf.stats import RankTable

    counter = Counter(reference_tokens(data, kind))
    counts = sorted(counter.values(), reverse=True)
    spectrum = sorted(Counter(counts).items())
    with mock.patch.object(fit, "_RUN_MIN", len(counts) + 1):
        try:
            nu = fit.fit_nu(RankTable(counter.items())).nu
        except DegenerateTable:
            nu = None
    return counts, spectrum, nu
