"""Property tests: SMF write-then-decode round trips, tokenize against a
per-note classification, and the fitted rank law's pinned endpoints
n(0) = n0 and n(V) = 1."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from notezipf.errors import EmptyCorpus
from notezipf.fit import fit_nu, predict_n
from notezipf.notes import DEFAULT_GRID, DurationGrid, NoteToken, tokenize
from notezipf.smf import RawNote, SmfDiagnostics, extract_notes, parse_smf
from notezipf.stats import RankTable

from midibytes import end_of_track, meta, note_off, note_on, running, simple_file, track_chunk

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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=3, max_size=150))
def test_fitted_law_passes_through_its_endpoints(counts):
    assume(len(set(counts)) > 1)
    counts = sorted(counts, reverse=True)
    fit = fit_nu(RankTable(entries=tuple(enumerate(counts))))
    assert predict_n(0, fit) == pytest.approx(fit.n0, rel=1e-9)
    assert predict_n(len(counts), fit) == pytest.approx(1.0, rel=1e-9)
