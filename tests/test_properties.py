"""Property tests: SMF write-then-decode round trips, the one-pass decoder
against a two-pass reference on intact and mutated files and on delta times
of every length, tokenize against a per-note classification, the solved
occurrence cap against the T/V ratio it came from and its end on any
ratio and nu, the fitted rank law's pinned endpoints n(0) = n0 and
n(V) = 1, the rank-law objective's run kernel against rank-by-rank sums,
the block-computed simulator against the scalar SplitMix64 step loop, the
ASCII word tokenizer against the word regex, the slice-by-slice file reader
against the regex and the line split at tiny slice sizes, the rank table's
runs against a plain Counter, and the CLI's typed-error contract: on any
input and any parseable options, main returns 0 or 1 and no exception
escapes."""

import math
from collections import Counter
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from notezipf import analysis
from notezipf.cli import main
from notezipf.errors import DomainError, EmptyCorpus
from notezipf.fit import _sse_log, _tv_ratio, fit_nu, predict_n, solve_n0
from notezipf.notes import DEFAULT_GRID, DurationGrid, NoteToken, tokenize
from notezipf.simulate import (
    _CUTOFF,
    _LANES,
    SimConfig,
    _innovation_limit,
    simulate,
)
from notezipf.smf import RawNote, SmfDiagnostics, SmfHeader, extract_notes, parse_smf
from notezipf.stats import RankTable, count_tokens, spectrum
from notezipf.text import tokenize_text

from _oracles import (
    direct_log_sse,
    first_bulk_step,
    lgamma_log_sum,
    reference_extract_notes,
    reference_simulate,
    reference_tokenize_text,
)
from midibytes import (
    chunk,
    end_of_track,
    meta,
    note_off,
    note_on,
    one_note_file,
    running,
    simple_file,
    track_chunk,
    vlq,
)

# (channel, pitch, onset, duration) of one note; a few favoured keys make
# overlapping notes of one key, the case FIFO pairing is about, common
NOTES = st.lists(
    st.tuples(
        st.sampled_from([0, 15]) | st.integers(0, 15),
        st.sampled_from([0, 60, 127]) | st.integers(0, 127),
        st.integers(0, 3000),
        st.integers(1, 600),
    ),
    max_size=40,
)


def fifo_consistent(notes):
    """Stretch note ends so that, per (channel, pitch), notes end in onset order.

    FIFO pairing can only give back notes whose note-offs come in the order
    of their note-ons; within that constraint any overlap is allowed.
    """
    last_end = {}
    out = []
    for channel, pitch, onset, duration in sorted(notes):
        end = max(onset + duration, last_end.get((channel, pitch), 0))
        last_end[(channel, pitch)] = end
        out.append((channel, pitch, onset, end - onset))
    return out


def track_bytes(notes, data):
    """One MTrk chunk for the notes, each event style drawn by hypothesis.

    At one tick note-offs come before note-ons, so a note that ends where
    the next one of the same key starts is closed first.
    """
    events = []
    for channel, pitch, onset, duration in notes:
        events.append((onset + duration, 0, channel, pitch))
        events.append((onset, 1, channel, pitch))
    parts = [meta(0, 0x51, b"\x07\xa1\x20")] if data.draw(st.booleans()) else []
    tick = 0
    status = None
    for at, is_on, channel, pitch in sorted(events):
        delta, tick = at - tick, at
        if is_on:
            message = note_on(delta, pitch, data.draw(st.integers(1, 127)), channel)
        elif data.draw(st.booleans()):
            message = note_on(delta, pitch, 0, channel)
        else:
            message = note_off(delta, pitch, data.draw(st.integers(0, 127)), channel)
        # the status byte follows the delta; reuse it as running status when allowed
        new_status = message[-3]
        if new_status == status and data.draw(st.booleans()):
            message = running(delta, *message[-2:])
        status = new_status
        parts.append(message)
    parts.append(end_of_track(data.draw(st.integers(0, 100))))
    return track_chunk(*parts)


@settings(max_examples=60, deadline=None)
@given(st.lists(NOTES, min_size=1, max_size=4), st.integers(1, 0x7FFF), st.data())
def test_smf_round_trip(tracks, division, data):
    tracks = [fifo_consistent(notes) for notes in tracks]
    buffer = simple_file(division, *(track_bytes(notes, data) for notes in tracks))

    header, decoded_tracks, _ = parse_smf(buffer)
    assert header.division == division
    assert header.track_count == len(decoded_tracks) == len(tracks)

    header, notes, diag = extract_notes(buffer)
    assert diag == SmfDiagnostics()
    expected = sorted(
        (track, channel, pitch, onset, duration)
        for track, track_notes in enumerate(tracks)
        for channel, pitch, onset, duration in track_notes
    )
    assert sorted((n.track, n.channel, n.pitch, n.onset, n.duration) for n in notes) == expected


def decoded_or_error(decode, buffer):
    """decode(buffer), or the type and message of whatever it raised, so
    that two decoders failing differently compare unequal."""
    try:
        return decode(buffer)
    except Exception as exc:
        return type(exc), str(exc)


# overwritten bytes favour the status bytes the decoder branches on
MUTATED_BYTE = st.one_of(
    st.sampled_from([0x00, 0x7F, 0x80, 0x90, 0xC0, 0xF0, 0xF4, 0xF7, 0xFF]), st.integers(0, 255)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(NOTES, min_size=1, max_size=4),
    st.integers(1, 0x7FFF),
    st.integers(0, 4),
    st.data(),
)
def test_decoder_matches_two_pass_reference(tracks, division, mutations, data):
    # notes of one key may overlap in any order here; a track may be cut
    # short, which leaves note-ons of several keys open, and up to four bytes
    # after the 14-byte MThd chunk are overwritten.  So orphans, unmatched
    # note-ons, zero-length pairs and the track decoder's errors all come up;
    # the header, the notes in order and the diagnostics, or the error's type
    # and message, must match.  parse_smf's tracks, concatenated, are those
    # notes, each track holds only its own notes, and its diagnostics are
    # already complete
    chunks = []
    for notes in tracks:
        payload = track_bytes(notes, data)[8:]
        if data.draw(st.booleans()):
            payload = payload[: data.draw(st.integers(0, len(payload)))]
        chunks.append(chunk(b"MTrk", payload))
    buffer = bytearray(simple_file(division, *chunks))
    for _ in range(mutations):
        buffer[data.draw(st.integers(14, len(buffer) - 1))] = data.draw(MUTATED_BYTE)
    buffer = bytes(buffer)
    decoded = decoded_or_error(extract_notes, buffer)
    assert decoded == decoded_or_error(reference_extract_notes, buffer)
    if isinstance(decoded[0], SmfHeader):
        header, notes, diag = decoded
        parsed_header, parsed_tracks, parsed_diag = parse_smf(buffer)
        assert (parsed_header, parsed_diag) == (header, diag)
        assert [note for track in parsed_tracks for note in track] == notes
        assert all(note.track == i for i, track in enumerate(parsed_tracks) for note in track)


# delta times of one to four bytes, and the values at each length's ends
BOUNDARY_DELTAS = [0, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**28 - 1]
DELTAS = (
    st.sampled_from(BOUNDARY_DELTAS)
    | st.integers(0, 127)
    | st.integers(128, 16383)
    | st.integers(16384, 2**21 - 1)
    | st.integers(2**21, 2**28 - 1)
)
# (delta, status, pitch, velocity, reuse running status if it repeats)
DELTA_EVENTS = st.lists(
    st.tuples(
        DELTAS,
        st.sampled_from([0x80, 0x90, 0x91]),
        st.sampled_from([60, 61]),
        st.sampled_from([0, 64]),
        st.booleans(),
    ),
    max_size=12,
)
# each track: its events, the end-of-track delta, and where to cut it (an
# index of the event, end-of-track included, whose delta's first byte ends
# the track), or None for an intact track
DELTA_TRACKS = st.lists(
    st.tuples(DELTA_EVENTS, DELTAS, st.none() | st.integers(0, 12)), min_size=1, max_size=3
)


def delta_track(events, eot_delta, cut):
    parts, status = [], None
    for delta, new_status, pitch, velocity, reuse in events:
        if new_status == status and reuse:
            parts.append(running(delta, pitch, velocity))
        else:
            parts.append(vlq(delta) + bytes([new_status, pitch, velocity]))
        status = new_status
    parts.append(end_of_track(eot_delta))
    if cut is not None:
        cut %= len(parts)
        parts[cut:] = [parts[cut][:1]]
    return chunk(b"MTrk", b"".join(parts))


@settings(max_examples=200, deadline=None)
@given(DELTA_TRACKS)
@example([([(d, 0x90, 60, 64, True) for d in BOUNDARY_DELTAS], 2**28 - 1, None)])
@example([([(200, 0x90, 60, 64, False)], 0, 0)])
@example([([(0, 0x90, 60, 64, False), (16384, 0x90, 60, 0, True)], 5, 1)])
def test_decoder_matches_two_pass_reference_on_every_delta_length(tracks):
    # deltas of one to four bytes, running status, and tracks cut right after
    # a delta's first byte, which leaves a one-byte delta without its event
    # and a longer one unterminated; the header, the notes in order and the
    # diagnostics, or the error's type and message, must match
    buffer = simple_file(96, *(delta_track(*track) for track in tracks))
    assert decoded_or_error(extract_notes, buffer) == decoded_or_error(
        reference_extract_notes, buffer
    )


def tokenize_per_note(notes, division, min_ticks, grid):
    """tokenize's result as (tokens, dropped_short, out_of_grid), classifying every note."""
    tokens, dropped, out_of_grid = [], 0, 0
    for note in sorted(notes):
        if note.duration < min_ticks:
            dropped += 1
            continue
        out_of_grid += grid.is_out_of_range(note.duration, division)
        tokens.append(NoteToken(note.pitch, grid.classify(note.duration, division)))
    return tuple(tokens), dropped, out_of_grid


# favoured pitches and durations repeat (pitch, duration) pairs; durations up
# to 1e5 ticks put many notes beyond either end of a grid
RAW_NOTES = st.lists(
    st.builds(
        RawNote,
        onset=st.integers(0, 500),
        track=st.integers(0, 2),
        channel=st.integers(0, 15),
        pitch=st.sampled_from([60, 62]) | st.integers(0, 127),
        duration=st.sampled_from([1, 96, 10**5]) | st.integers(1, 10**5),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(
    RAW_NOTES,
    st.integers(1, 960),
    st.integers(0, 300),
    st.sampled_from([DEFAULT_GRID, DurationGrid.from_ratios(["1/3", "1", "5/2"])]),
)
def test_tokenize_matches_per_note_classification(notes, division, min_ticks, grid):
    tokens, dropped, out_of_grid = tokenize_per_note(notes, division, min_ticks, grid)
    if not tokens:
        with pytest.raises(EmptyCorpus):
            tokenize(notes, division, min_ticks=min_ticks, grid=grid)
        return
    result = tokenize(notes, division, min_ticks=min_ticks, grid=grid)
    assert result.tokens == tokens
    assert (result.dropped_short, result.out_of_grid) == (dropped, out_of_grid)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0 + 1e-9, 1e6), st.integers(2, 10**9), st.floats(0.02, 0.98))
def test_solved_cap_gives_back_the_corpus_ratio(ratio, V, nu):
    T = V * ratio
    n0 = solve_n0(T, V, nu)
    # the worst of 200,000 random draws was 7.0e-14: half the bisection's
    # 1e-14 relative width in log n0, times d ln(T/V) / d ln(log n0) <= 18
    assert _tv_ratio(math.log(n0), nu) == pytest.approx(T / V, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**6), st.floats(1e-15, 1e300), st.floats(1e-295, 1.0 - 2.0**-53))
def test_solve_n0_ends_with_a_cap_or_the_float_range_error(V, excess, nu):
    # neither loop has a pass cap: the bracket ends by log n0 = 2**63 and
    # every bisection pass halves the bracket
    try:
        n0 = solve_n0(V * (1.0 + excess), V, nu)
    except DomainError as exc:
        assert "exceeds the float range" in str(exc)
    else:
        assert n0 > 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(math.nan, 10), (100, math.nan), (math.inf, math.inf)]),
    st.floats(1e-295, 1.0 - 2.0**-53),
)
def test_solve_n0_refuses_a_total_that_is_not_finite(totals, nu):
    # past the check, a NaN T would come back as exp(1e-12) from the bisection
    with pytest.raises(DomainError, match="need finite T >= V >= 2"):
        solve_n0(*totals, nu)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=3, max_size=150))
def test_fitted_law_passes_through_its_endpoints(counts):
    assume(len(set(counts)) > 1)
    counts = sorted(counts, reverse=True)
    fit = fit_nu(RankTable(entries=tuple(enumerate(counts))))
    assert predict_n(0, fit) == pytest.approx(fit.n0, rel=1e-9)
    assert predict_n(len(counts), fit) == pytest.approx(1.0, rel=1e-9)


EPS = 2.0**-52


@st.composite
def runs(draw):
    """One run of equal counts on a fitted curve: (obs, r1, r2, a, b, z).

    a = 1/n0**nu spans 1e-300 (c = a/b near 0, the run starts next to the
    curve's pole) to 1 - 1e-15 (c near 1e15 V, an almost flat curve), and 1
    itself, where b = 0.
    """
    n = draw(st.integers(1, 30_000))
    V = draw(st.integers(n, 100_000))
    r1 = draw(st.integers(1, min(V - n + 1, 40)) | st.integers(1, V - n + 1))
    a = draw(
        st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
        | st.floats(-15.0, -1.0).map(lambda e: 1.0 - 10.0**e)
    )
    nu = draw(st.floats(0.02, 0.98))
    obs = draw(st.sampled_from([0.0, math.log(2.0)]) | st.floats(0.0, 28.0))
    return obs, r1, r1 + n - 1, a, (1.0 - a) / V, 1.0 / nu


@settings(max_examples=60, deadline=None)
@given(runs())
# a 32-rank piece 16 ranks from the pole, where the end terms matter most:
# with one end term fewer the kernel misses by 3.4e-13 relative
@example((12.0, 16, 47, 1e-300, (1.0 - 1e-300) / 5000, 2.0))
def test_run_kernel_matches_rank_by_rank_sum(run):
    obs, r1, r2, a, b, z = run
    kernel = _sse_log([], [(obs, r1, r2)], a, b, z)
    direct = direct_log_sse(obs, r1, r2, a, b, z)
    # The direct sum is itself exact only to a rounding floor: each residual
    # carries about eps * (|obs| + z (|log u| + 1)) of error, which dominates
    # when the residuals nearly vanish.  Over 1,500 examples of this strategy
    # the worst miss used 0.12 of the bound below.
    n = r2 - r1 + 1
    delta = EPS * (obs + z * (abs(math.log(a + b * r1)) + 1.0))
    floor = 2.0 * delta * math.sqrt(n * direct) + n * delta * delta
    assert abs(kernel - direct) <= 1e-13 * direct + floor


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.0, 1e6),
    st.integers(1, 30_000),
    st.integers(1, 100_000),
    st.floats(0.01, 0.9),
    st.floats(0.02, 0.98),
)
def test_run_kernel_cross_term_matches_lgamma_form(c, n, r1, u_last, nu):
    # The run's log-SSE is n obs**2 + 2 obs z S + z**2 Q with S the sum of
    # log(a + b r), so the kernel at obs = +s and -s gives S back; at
    # s = z |S| / n that difference is well conditioned.
    r2 = r1 + n - 1
    b = u_last / (c + r2)
    a, z = c * b, 1.0 / nu
    exact = lgamma_log_sum(r1, r2, a, b)
    s = z * abs(exact) / n
    plus = _sse_log([], [(s, r1, r2)], a, b, z)
    minus = _sse_log([], [(-s, r1, r2)], a, b, z)
    # the lgamma form loses eps * lgamma(c + r) to cancellation; over 1,500
    # random runs the worst miss used 0.86 of eps, so 4 eps is the bound
    slack = 4.0 * EPS * (abs(math.lgamma(c + r2 + 1)) + abs(math.lgamma(c + r1)))
    assert abs((plus - minus) / (4.0 * s * z) - exact) <= 1e-12 * abs(exact) + slack


# up to about three blocks of draws at alpha = 1 and six at alpha = 0
SIM_STEPS = st.integers(1, 40) | st.integers(1, 3 * _LANES)
SIM_SEEDS = st.sampled_from([0, 2**64 - 1, -1, 2**70 + 5]) | st.integers(-(2**70), 2**70)
SIM_CONFIGS = st.builds(
    lambda steps, seed, alpha: SimConfig("constant", steps, seed, alpha=alpha),
    SIM_STEPS,
    SIM_SEEDS,
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
) | st.builds(
    lambda steps, seed, nu: SimConfig("sublinear", steps, seed, nu=nu),
    SIM_STEPS,
    SIM_SEEDS,
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(SIM_CONFIGS)
def test_simulate_matches_scalar_step_loop(config):
    assert simulate(config) == reference_simulate(config)


# nu * 2**(nu - 1) is above the cutoff for nu >= 0.06, and the bulk phase
# starts within 6,700 steps for nu <= 0.65: a scalar prefix, then up to three
# blocks of bulk draws
@settings(max_examples=40, deadline=None)
@given(st.floats(0.06, 0.65), st.integers(0, 3 * _LANES), SIM_SEEDS)
def test_bulk_phase_after_the_crossing_matches_scalar_step_loop(nu, extra, seed):
    start = first_bulk_step(SimConfig("sublinear", 10**9, seed, nu=nu))
    config = SimConfig("sublinear", start + extra, seed, nu=nu)
    assert 2 < start <= config.steps
    assert simulate(config) == reference_simulate(config)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0.0, 5e-324, math.nextafter(_CUTOFF, 0.0), _CUTOFF]) | st.floats(0.0, _CUTOFF),
    st.integers(1, 3 * _LANES),
    SIM_SEEDS,
)
def test_constant_mode_below_and_at_the_cutoff_matches_scalar_step_loop(alpha, steps, seed):
    config = SimConfig("constant", steps, seed, alpha=alpha)
    # below the cutoff every step runs in bulk, at it none does
    assert first_bulk_step(config) == (2 if alpha < _CUTOFF else steps + 1)
    assert simulate(config) == reference_simulate(config)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5e-324, 1e-9, 1.0 - 1e-9, math.nextafter(1.0, 0.0)])
    | st.floats(5e-324, 1e-9)
    | st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
    st.integers(1, 3 * _LANES),
    SIM_SEEDS,
)
def test_nu_at_the_ends_of_its_range_matches_scalar_step_loop(nu, steps, seed):
    # near 0 every step runs in bulk; near 1 none does, and the closed-form
    # switch step (nu/0.03)**(1/(1 - nu)) would overflow a float
    config = SimConfig("sublinear", steps, seed, nu=nu)
    assert first_bulk_step(config) == (2 if nu < 0.5 else steps + 1)
    assert simulate(config) == reference_simulate(config)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(2, 10**12),
    st.sampled_from([0, 1, 2]) | st.integers(0, 10**12),
)
def test_innovation_limit_bounds_every_later_innovating_draw(nu, t, later):
    # a draw d innovates at step t' when (d >> 11) * 2**-53 < p(t'), so the
    # largest such draw has top 53 bits ceil(p(t') * 2**53) - 1 and low 11 bits set
    def p(step):
        return nu * float(step) ** (nu - 1.0)

    largest = ((math.ceil(p(t + later) * 2.0**53) - 1) << 11) | 0x7FF
    assert largest < _innovation_limit(p(t))


# ASCII text weighted toward the joiners and runs of them, with letters of
# both cases, digits, underscore and every ASCII whitespace or control
# character; any other ASCII character now and then
ASCII_PIECES = (
    st.sampled_from(["'", "-", "''", "--", "'-", "-'", "'''", "-'-"])
    | st.sampled_from(list("abzABZ"))
    | st.sampled_from(list("09_ .,"))
    | st.sampled_from([chr(i) for i in range(32)] + ["\x7f"])
    | st.characters(max_codepoint=127)
)
ASCII_TEXT = st.lists(ASCII_PIECES, max_size=60).map("".join)
# the same with non-ASCII letters, a digit and a quote, which take the regex path
MIXED_TEXT = st.lists(
    ASCII_PIECES | st.sampled_from(["é", "É", "İ", "Σ", "²", "’", "\x85", "\xa0"]), max_size=60
).map("".join)


def assert_tokenizes_as_reference(text):
    tokens = tokenize_text(text)
    assert type(tokens) is list and all(type(token) is str for token in tokens)
    assert tokens == reference_tokenize_text(text)


@settings(max_examples=400, deadline=None)
@given(ASCII_TEXT)
@example("a-'b")
@example("--a--")
@example("'")
@example("x'")
@example("a--b")
@example("it's-a")
@example("\x1ca\x1fb")
def test_ascii_tokenizer_matches_word_regex(text):
    assert_tokenizes_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(MIXED_TEXT)
def test_mixed_tokenizer_matches_word_regex(text):
    assert_tokenizes_as_reference(text)


# joiners, final sigma, a byte-order mark, line ends of every kind, token
# lines with inner spaces, and text with no whitespace at all
READER_TEXT = st.lists(
    st.sampled_from(
        ["ab", "Cd", "x y", "'", "-", "it's", "a-b", "\ufeff", "é", "İ", "Σ", "ΑΣ", "’", "²"]
    )
    | st.sampled_from([" ", "\n", "\r\n", "\r", "\t", "\x85", "\xa0", "\u2028", ".", "1"])
    | st.characters(max_codepoint=0x3FF),
    max_size=40,
).map("".join)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "corpus"


@settings(max_examples=300, deadline=None)
@given(READER_TEXT, st.booleans(), st.sampled_from([1, 2, 3, 5, 16, 24]))
@example("ab cΣ d", False, 3)
@example("a.Σ b", False, 2)
@example("ΑΣ ΑΣ", True, 2)
@example("it's-a well-known", False, 1)
@example("x y\r\nz", False, 2)
@example("nowhitespace", False, 1)
def test_sliced_reader_matches_whole_text_oracles(corpus_file, text, bom, chunk):
    # the CLI's reader, with slices of a character to a few words, so that
    # every cut lands next to a joiner, a sigma or a line end somewhere
    corpus_file.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
    text = ("\ufeff" * bom + text).removeprefix("\ufeff")
    expected = {
        "text": reference_tokenize_text(text),
        "tokens": [t for t in map(str.strip, text.splitlines()) if t],
    }
    with mock.patch.object(analysis, "_CHUNK", chunk):
        for kind, tokens in expected.items():
            _, stream, _ = analysis.read_tokens(str(corpus_file), kind)
            assert list(stream) == tokens


# few distinct values, so that tied counts (runs longer than one rank) are common
TOKEN_LISTS = (
    st.lists(st.integers(0, 12), min_size=1, max_size=120)
    | st.lists(st.sampled_from(["a", "b", "ab", "", "é"]) | st.text(max_size=2), min_size=1)
    | st.lists(
        st.integers(0, 5) | st.text("xy", max_size=2) | st.tuples(st.integers(0, 2)) | st.none(),
        min_size=1,
        max_size=120,
    )
)


@settings(max_examples=300, deadline=None)
@given(TOKEN_LISTS)
def test_rank_table_runs_match_a_counter(tokens):
    counts = sorted(Counter(tokens).values(), reverse=True)
    table = count_tokens(tokens)
    assert table.counts() == counts
    assert (table.V, table.T) == (len(counts), sum(counts))
    assert list(spectrum(table).items()) == sorted(Counter(counts).items())
    assert sum(ranks for _, ranks in table.runs) == len(counts)
    assert all(a > b for (a, _), (b, _) in zip(table.runs, table.runs[1:]))


# SMF files to mutate: one note, and two tracks with running status, a tempo
# meta event and notes of one key left open
CONTRACT_SMF = [
    one_note_file(),
    simple_file(
        96,
        track_chunk(note_on(0, 60), running(48, 60, 0), note_on(0, 62), note_on(10, 62),
                    note_off(96, 62), end_of_track()),
        track_chunk(meta(0, 0x51, b"\x07\xa1\x20"), note_on(0, 64), end_of_track(30)),
    ),
]


@st.composite
def mutated_smf(draw):
    buffer = bytearray(draw(st.sampled_from(CONTRACT_SMF)))
    for _ in range(draw(st.integers(0, 4))):
        buffer[draw(st.integers(0, len(buffer) - 1))] = draw(MUTATED_BYTE)
    if draw(st.booleans()):
        del buffer[draw(st.integers(0, len(buffer))) :]
    return bytes(buffer)


CLI_INPUTS = (
    mutated_smf()
    | st.text(st.sampled_from("ab \n\r\x00'-\xe9\ufeff"), max_size=60).map(str.encode)
    | st.binary(max_size=80)
)
# extreme and invalid values that argparse still accepts
CLI_INTS = st.sampled_from([-1, 0, 1, 10**30]) | st.integers(-5, 300)
CLI_FLOATS = st.floats(-0.5, 1.5).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "0", "1", "1e-300", "1e300"]
)
GRIDS = st.lists(
    st.sampled_from(["1", "3/2", "1/0", "0", "-1", "1e400", "1e-400", "x", "1/4", "#", "\ufeff1"]),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode()) | st.binary(max_size=8)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def options(draw, names):
    """A drawn subset of the options in names, each with its drawn value.

    Written NAME=VALUE, so that argparse takes "-1" and "-inf" as values.
    """
    return [f"{name}={draw(values)}" for name, values in names.items() if draw(st.booleans())]


@settings(max_examples=400, deadline=None)
@given(CLI_INPUTS, st.none() | GRIDS, st.data())
def test_analyze_returns_0_or_1_on_any_input(cli_dir, content, grid, data):
    (cli_dir / "input").write_bytes(content)
    out = data.draw(st.sampled_from(["out", "out", "out", "input"]))  # a file is no --out
    argv = ["analyze", str(cli_dir / "input"), "--out", str(cli_dir / out)]
    if grid is not None:
        (cli_dir / "grid").write_bytes(grid)
        argv += ["--grid", str(cli_dir / "grid")]
    argv += options(
        data.draw,
        {
            "--kind": st.sampled_from(["auto", "midi", "text", "tokens"]),
            "--min-ticks": CLI_INTS,
            "--n-max": CLI_INTS,
            "--residuals": st.sampled_from(["log", "linear"]),
        },
    )
    assert main(argv) in (0, 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["constant", "sublinear"]), st.data())
def test_simulate_returns_0_or_1_on_any_parameters(cli_dir, mode, data):
    # --steps stays small, so that a run costs milliseconds; the mode's own
    # parameter is always given, the other one only sometimes
    steps = data.draw(st.sampled_from([-1, 0, 1, 2, 60]) | st.integers(1, 400))
    own, other = ("--alpha", "--nu") if mode == "constant" else ("--nu", "--alpha")
    argv = ["simulate", "--mode", mode, f"--steps={steps}", f"{own}={data.draw(CLI_FLOATS)}"]
    argv += ["--out", str(cli_dir / "sim")]
    argv += options(
        data.draw,
        {
            other: CLI_FLOATS,
            "--seed": st.sampled_from([-(2**70), 2**64, 2**70]) | st.integers(),
            "--n-max": CLI_INTS,
        },
    )
    assert main(argv) in (0, 1)
