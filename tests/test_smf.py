import gc
import random
import sys
import tracemalloc
from unittest import mock

import pytest

from notezipf import analysis, smf
from notezipf.errors import (
    DanglingStatus,
    EmptyCorpus,
    InvalidVlq,
    MissingHeader,
    SmfError,
    SmpteDivision,
    TruncatedChunk,
)
from notezipf.smf import SmfDiagnostics, extract_notes, pair_notes, parse_smf, read_vlq

from _oracles import reference_extract_notes
from midibytes import (
    chunk,
    end_of_track,
    header_chunk,
    meta,
    note_off,
    note_on,
    one_note_file,
    running,
    simple_file,
    sysex,
    track_chunk,
    vlq,
)


class TestVlq:
    def test_single_byte_values(self):
        for value in (0, 1, 0x40, 0x7F):
            assert read_vlq(vlq(value), 0) == (value, 1)

    def test_multi_byte_values(self):
        # classic reference encodings
        assert vlq(0x80) == bytes([0x81, 0x00])
        assert vlq(0x2000) == bytes([0xC0, 0x00])
        assert vlq(0x0FFFFFFF) == bytes([0xFF, 0xFF, 0xFF, 0x7F])
        for value in (0x80, 0x2000, 0x3FFF, 0x4000, 0x0FFFFFFF):
            assert read_vlq(vlq(value), 0) == (value, len(vlq(value)))

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(2000):
            value = rng.randrange(0, 0x0FFFFFFF)
            assert read_vlq(vlq(value), 0)[0] == value

    def test_unterminated(self):
        with pytest.raises(InvalidVlq):
            read_vlq(bytes([0x81]), 0)

    def test_overlong(self):
        with pytest.raises(InvalidVlq):
            read_vlq(bytes([0x81, 0x80, 0x80, 0x80, 0x00]), 0)


class TestParseSmf:
    def test_minimal_one_note_file(self):
        header, notes, diag = extract_notes(one_note_file())
        assert header.format == 0
        assert header.track_count == 1
        assert header.division == 96
        assert len(notes) == 1
        note = notes[0]
        assert (note.pitch, note.onset, note.duration) == (60, 0, 96)
        assert diag == SmfDiagnostics()

    def test_empty_track(self):
        data = simple_file(96, track_chunk(end_of_track()))
        header, notes, _ = extract_notes(data)
        assert header.track_count == 1
        assert notes == []

    def test_note_off_as_velocity_zero_note_on(self):
        data = simple_file(
            96,
            track_chunk(note_on(0, 60), note_on(96, 60, velocity=0), end_of_track()),
        )
        _, notes, _ = extract_notes(data)
        assert len(notes) == 1
        assert (notes[0].pitch, notes[0].onset, notes[0].duration) == (60, 0, 96)

    def test_running_status(self):
        # second and third events reuse the note-on status byte
        data = simple_file(
            96,
            track_chunk(
                note_on(0, 60),
                running(0, 64, 64),      # note-on 64 via running status
                running(96, 60, 0),      # note-off 60 via velocity 0
                running(0, 64, 0),       # note-off 64
                end_of_track(),
            ),
        )
        _, notes, _ = extract_notes(data)
        assert sorted((n.pitch, n.onset, n.duration) for n in notes) == [
            (60, 0, 96),
            (64, 0, 96),
        ]

    def test_overlapping_same_pitch_fifo(self):
        data = simple_file(
            96,
            track_chunk(
                note_on(0, 60),
                note_on(10, 60),
                note_off(10, 60),
                note_off(10, 60),
                end_of_track(),
            ),
        )
        _, notes, _ = extract_notes(data)
        assert sorted((n.onset, n.duration) for n in notes) == [(0, 20), (10, 20)]

    def test_multi_track_format_1(self):
        data = simple_file(
            480,
            track_chunk(note_on(0, 60), note_off(480, 60), end_of_track()),
            track_chunk(note_on(0, 72, channel=1), note_off(240, 72, channel=1), end_of_track()),
        )
        header, notes, _ = extract_notes(data)
        assert header.format == 1
        assert header.track_count == 2
        assert sorted((n.track, n.pitch, n.duration, n.channel) for n in notes) == [
            (0, 60, 480, 0),
            (1, 72, 240, 1),
        ]
        # parse_smf keeps one note list per track
        tracks = parse_smf(data)[1]
        assert [[(n.track, n.pitch) for n in track] for track in tracks] == [[(0, 60)], [(1, 72)]]

    def test_unknown_chunk_skipped(self):
        data = (
            header_chunk(0, 1, 96)
            + chunk(b"XFIH", b"\x01\x02\x03\x04")
            + track_chunk(note_on(0, 60), note_off(96, 60), end_of_track())
        )
        header, notes, _ = extract_notes(data)
        assert header.track_count == 1
        assert len(notes) == 1

    def test_meta_and_sysex_consumed(self):
        data = simple_file(
            96,
            track_chunk(
                meta(0, 0x51, b"\x07\xa1\x20"),   # tempo, ignored
                meta(0, 0x03, b"lead"),           # track name, ignored
                note_on(0, 60),
                sysex(0, b"\x7e\x00"),
                note_off(96, 60),
                end_of_track(),
            ),
        )
        _, notes, _ = extract_notes(data)
        assert [(n.pitch, n.onset, n.duration) for n in notes] == [(60, 0, 96)]

    def test_meta_cancels_running_status(self):
        data = simple_file(
            96,
            track_chunk(
                note_on(0, 60),
                meta(0, 0x01, b"x"),
                running(96, 60, 0),  # running status no longer in scope
                end_of_track(),
            ),
        )
        with pytest.raises(DanglingStatus):
            parse_smf(data)

    def test_non_note_channel_messages_skipped(self):
        data = simple_file(
            96,
            track_chunk(
                vlq(0) + bytes([0xC0, 0x05]),          # program change
                vlq(0) + bytes([0xB0, 0x07, 0x64]),    # controller
                note_on(0, 60),
                vlq(10) + bytes([0xE0, 0x00, 0x40]),   # pitch bend
                note_off(86, 60),
                end_of_track(),
            ),
        )
        _, notes, _ = extract_notes(data)
        assert [(n.pitch, n.duration) for n in notes] == [(60, 96)]

    def test_multi_byte_deltas(self):
        data = simple_file(
            96,
            track_chunk(
                note_on(200, 60), note_off(0x4000, 60), note_on(0x7F, 62), end_of_track(0x80)
            ),
        )
        _, notes, diag = extract_notes(data)
        assert [(n.pitch, n.onset, n.duration) for n in notes] == [
            (60, 200, 0x4000),
            (62, 200 + 0x4000 + 0x7F, 0x80),
        ]
        assert diag.unmatched_note_ons == 1

    def test_one_data_byte_message_before_multi_byte_delta(self):
        # the byte after each program change starts a two-byte delta
        data = simple_file(
            96,
            track_chunk(
                vlq(0) + bytes([0xC0, 0x05]),
                note_on(300, 60),
                vlq(0) + bytes([0xC1, 0x07]),
                running(0x3FFF, 0x08),                 # program change via running status
                note_off(1, 60),
                end_of_track(),
            ),
        )
        _, notes, _ = extract_notes(data)
        assert [(n.pitch, n.onset, n.duration) for n in notes] == [(60, 300, 0x3FFF + 1)]

    def test_unmatched_note_on_closed_at_track_end(self):
        data = simple_file(96, track_chunk(note_on(0, 60), end_of_track(50)))
        _, notes, diag = extract_notes(data)
        assert [(n.pitch, n.onset, n.duration) for n in notes] == [(60, 0, 50)]
        assert diag.unmatched_note_ons == 1
        # the track decoder closes it, so parse_smf's diagnostics are complete
        assert parse_smf(data)[1:] == ([notes], diag)

    def test_unmatched_note_ons_close_in_key_order(self):
        # open onsets close at the track's end by (channel, pitch), then
        # onset, whatever order the note-ons came in
        data = simple_file(
            96,
            track_chunk(
                note_on(0, 64, channel=1),
                note_on(0, 62),
                note_on(5, 60, channel=1),
                note_on(5, 62),
                note_on(0, 61),
                end_of_track(10),
            ),
        )
        _, notes, diag = extract_notes(data)
        assert [(n.channel, n.pitch, n.onset) for n in notes] == [
            (0, 61, 10), (0, 62, 0), (0, 62, 10), (1, 60, 5), (1, 64, 0)
        ]
        assert diag.unmatched_note_ons == 5
        assert parse_smf(data)[1:] == ([notes], diag)

    def test_orphan_note_off_counted(self):
        data = simple_file(96, track_chunk(note_off(5, 60), end_of_track()))
        _, notes, diag = extract_notes(data)
        assert notes == []
        assert diag.orphan_note_offs == 1

    def test_zero_length_pair_dropped(self):
        data = simple_file(
            96, track_chunk(note_on(0, 60), note_off(0, 60), end_of_track())
        )
        _, notes, diag = extract_notes(data)
        assert notes == []
        assert diag.zero_length_notes == 1

    def test_trailing_garbage_tolerated(self):
        data = one_note_file() + b"\x00\x01\x02"
        header, _, diag = parse_smf(data)
        assert diag.trailing_bytes == 3
        assert header.track_count == 1

    def test_missing_end_of_track_diagnostic(self):
        data = simple_file(96, track_chunk(note_on(0, 60), note_off(96, 60)))
        assert parse_smf(data)[2].missing_end_of_track == 1
        _, notes, diag = extract_notes(data)
        assert [(n.pitch, n.duration) for n in notes] == [(60, 96)]

    def test_format_2_tracks_concatenated(self):
        data = (
            header_chunk(2, 2, 96)
            + track_chunk(note_on(0, 60), note_off(96, 60), end_of_track())
            + track_chunk(note_on(0, 62), note_off(48, 62), end_of_track())
        )
        header, notes, _ = extract_notes(data)
        assert header.format == 2
        assert sorted((n.track, n.pitch) for n in notes) == [(0, 60), (1, 62)]


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            parse_smf(b"RIFF" + b"\x00" * 20)
        with pytest.raises(MissingHeader):
            parse_smf(b"")

    def test_unknown_format(self):
        with pytest.raises(MissingHeader):
            parse_smf(header_chunk(3, 0, 96))

    def test_smpte_division(self):
        with pytest.raises(SmpteDivision):
            parse_smf(header_chunk(0, 0, 0xE728))

    def test_zero_division(self):
        with pytest.raises(MissingHeader):
            parse_smf(header_chunk(0, 0, 0))

    def test_truncated_track_chunk(self):
        data = header_chunk(0, 1, 96) + b"MTrk" + (100).to_bytes(4, "big") + b"\x00" * 10
        with pytest.raises(TruncatedChunk):
            parse_smf(data)

    def test_truncated_meta(self):
        data = simple_file(96, track_chunk(vlq(0) + bytes([0xFF, 0x51, 0x30])))
        with pytest.raises(TruncatedChunk):
            parse_smf(data)

    def test_track_ends_after_meta_status_byte(self):
        data = simple_file(96, track_chunk(note_on(0, 60), vlq(0) + bytes([0xFF])))
        message = "^track data ends inside a meta event$"
        with pytest.raises(TruncatedChunk, match=message):
            parse_smf(data)
        with pytest.raises(TruncatedChunk, match=message):
            reference_extract_notes(data)

    def test_invalid_vlq_in_track(self):
        data = simple_file(96, track_chunk(bytes([0x80, 0x80, 0x80, 0x80, 0x80])))
        with pytest.raises(InvalidVlq):
            parse_smf(data)

    def test_dangling_status(self):
        # data byte where the first event's status should be
        data = simple_file(96, track_chunk(vlq(0) + bytes([0x3C, 0x40])))
        with pytest.raises(DanglingStatus):
            parse_smf(data)

    def test_status_byte_in_data_position(self):
        data = simple_file(96, track_chunk(vlq(0) + bytes([0x90, 0x3C, 0x90])))
        message = "^expected channel message data byte at offset 3, got status 0x90$"
        with pytest.raises(DanglingStatus, match=message):
            parse_smf(data)

    def test_note_on_cut_before_its_second_data_byte(self):
        data = simple_file(96, track_chunk(note_on(0, 60), vlq(0) + bytes([0x90, 0x3C])))
        with pytest.raises(TruncatedChunk, match="^track data ends inside a channel message$"):
            parse_smf(data)

    def test_status_byte_as_second_data_byte_before_more_data(self):
        data = simple_file(96, track_chunk(vlq(0) + bytes([0x90, 0x3C, 0x80]), end_of_track()))
        message = "^expected channel message data byte at offset 3, got status 0x80$"
        with pytest.raises(DanglingStatus, match=message):
            parse_smf(data)


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


@pytest.mark.usefixtures("restore_collector")
class TestCollectorSetting:
    """parse_smf pauses the cyclic collector while it builds the notes; the
    caller finds the setting it had, also after a decoding error."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_is_kept(self, enabled):
        set_collector(enabled)
        seen = []  # gc.isenabled() as each track is decoded
        parse_track = smf._parse_track

        def recording(*args):
            seen.append(gc.isenabled())
            return parse_track(*args)

        data = simple_file(96, track_chunk(note_on(0, 60), note_off(96, 60), end_of_track()))
        with mock.patch.object(smf, "_parse_track", recording):
            _, notes, _ = extract_notes(data)
        assert len(notes) == 1
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_enabled_again_after_an_error_mid_track(self):
        gc.enable()
        data = simple_file(
            96,
            track_chunk(note_on(0, 60), note_off(96, 60), end_of_track()),
            track_chunk(note_on(0, 60), vlq(0) + bytes([0x90, 0x3C])),
        )
        with pytest.raises(TruncatedChunk, match="^track data ends inside a channel message$"):
            extract_notes(data)
        assert gc.isenabled()


def held_notes_file(tracks: int, notes: int) -> bytes:
    """tracks copies of a track of notes played one after another, each held
    300 to 348 ticks, so no duration is a cached small int; 1,960 notes in a
    row are distinct tokens."""
    events = []
    for i in range(notes):
        events.append(note_on(10, 40 + i % 40))
        events.append(note_off(300 + i % 49, 40 + i % 40))
    return simple_file(96, *[track_chunk(*events, end_of_track())] * tracks)


@pytest.mark.usefixtures("restore_collector")
class TestReadTokensCollector:
    """read_tokens pauses the collector from decoding through tokenize and
    frees the notes before it resumes; the caller finds the setting it had."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_through_tokenize_and_setting_kept(self, tmp_path, enabled):
        path = tmp_path / "piece.mid"
        path.write_bytes(held_notes_file(2, 30))
        set_collector(enabled)
        seen = []  # gc.isenabled() as tokenize starts
        tokenize = analysis.tokenize

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return tokenize(*args, **kwargs)

        with mock.patch.object(analysis, "tokenize", recording):
            kind, tokens, _ = analysis.read_tokens(str(path))
        assert (kind, len(tokens), seen) == ("midi", 60, [False])
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_kept_when_decoding_fails(self, tmp_path, enabled):
        path = tmp_path / "cut.mid"
        path.write_bytes(simple_file(96, track_chunk(note_on(0, 60), vlq(0) + bytes([0x90]))))
        set_collector(enabled)
        with pytest.raises(TruncatedChunk):
            analysis.read_tokens(str(path))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_kept_when_every_note_is_too_short(self, tmp_path, enabled):
        path = tmp_path / "piece.mid"
        path.write_bytes(held_notes_file(1, 10))
        set_collector(enabled)
        with pytest.raises(EmptyCorpus, match="^no notes survived tokenization$"):
            analysis.read_tokens(str(path), min_ticks=350)
        assert gc.isenabled() is enabled

    def test_no_collection_runs_while_reading(self, tmp_path):
        # 6,000 tracked notes: a resumed collector would walk them at its
        # next allocation, and the tokenizer's allocations would start more.
        # The 1,960 tokens and their memo entries outlive the pause, so an
        # allocation after it resumes would start a collection too
        path = tmp_path / "piece.mid"
        path.write_bytes(held_notes_file(4, 1500))
        gc.enable()
        gc.collect()
        collections = []
        reader = analysis.read_tokens.__code__

        def record(phase, info):
            # a collection the caller's next allocation starts is not counted
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not reader:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                collections.append(info["generation"])

        gc.callbacks.append(record)
        try:
            _, tokens, _ = analysis.read_tokens(str(path))
        finally:
            gc.callbacks.remove(record)
        assert len(tokens) == 6000
        assert collections == []


class TestDurationSharing:
    def test_equal_durations_in_a_track_are_one_object(self):
        # durations of 300 ticks end by note-off and, for the two notes left
        # open, at end-of-track
        track = track_chunk(
            note_on(0, 60),
            note_on(0, 64),
            note_off(300, 60),
            note_on(0, 67),
            note_off(0, 64),
            note_on(0, 70),
            note_on(0, 72),
            note_off(300, 67),
            note_on(0, 74),
            end_of_track(300),
        )
        data = simple_file(96, track, track)
        header, notes, diag = extract_notes(data)
        assert (header, notes, diag) == reference_extract_notes(data)
        for track_index in (0, 1):
            durations = [note.duration for note in notes if note.track == track_index]
            assert sorted(durations) == [300] * 4 + [600] * 2
            assert len({id(d) for d in durations}) == 2
        assert diag.unmatched_note_ons == 6


class TestProperties:
    def test_note_count_conservation(self):
        # every velocity>0 note-on lands in exactly one bucket:
        # emitted note or zero-length tally
        rng = random.Random(7)
        for _ in range(200):
            events = []
            n_on = 0
            tick_budget = 0
            for _ in range(rng.randint(0, 40)):
                pitch = rng.randint(50, 55)
                delta = rng.randint(0, 8)
                tick_budget += delta
                if rng.random() < 0.55:
                    events.append(note_on(delta, pitch, velocity=rng.randint(1, 127)))
                    n_on += 1
                else:
                    events.append(note_off(delta, pitch))
            data = simple_file(96, track_chunk(*events, end_of_track(rng.randint(0, 10))))
            _, notes, diag = extract_notes(data)
            assert len(notes) + diag.zero_length_notes == n_on

    def test_absolute_tick_round_trip(self):
        # decoding deltas to absolute ticks, then re-deriving deltas and
        # re-encoding them as VLQs, must reproduce the same absolute ticks
        rng = random.Random(3)
        deltas = [rng.randint(0, 100000) for _ in range(200)]
        ticks = []
        total = 0
        for d in deltas:
            total += d
            ticks.append(total)
        rederived = [ticks[0]] + [b - a for a, b in zip(ticks, ticks[1:])]
        stream = b"".join(vlq(d) for d in rederived)
        pos = 0
        total2 = 0
        decoded = []
        while pos < len(stream):
            value, pos = read_vlq(stream, pos)
            total2 += value
            decoded.append(total2)
        assert decoded == ticks

    def test_fuzz_random_buffers_raise_typed_errors(self):
        rng = random.Random(20240811)
        for _ in range(3000):
            size = rng.randint(0, 64)
            buf = bytes(rng.randint(0, 255) for _ in range(size))
            try:
                parse_smf(buf)
            except SmfError:
                pass

    def test_fuzz_mutated_valid_files(self):
        rng = random.Random(99)
        base = bytearray(
            simple_file(
                96,
                track_chunk(
                    meta(0, 0x51, b"\x07\xa1\x20"),
                    note_on(0, 60),
                    note_on(5, 64),
                    running(3, 67, 80),
                    note_off(88, 60),
                    sysex(0, b"\x01"),
                    note_off(0, 64),
                    note_off(4, 67),
                    end_of_track(),
                ),
            )
        )
        for _ in range(3000):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                buf[rng.randrange(len(buf))] = rng.randint(0, 255)
            try:
                parse_smf(bytes(buf))
            except SmfError:
                pass

    def test_parser_reads_only_declared_chunk_bytes(self):
        # a second valid track hiding after a declared-short first chunk
        # must not be reached through the first chunk's payload
        inner = track_chunk(note_on(0, 60), note_off(96, 60), end_of_track())
        data = header_chunk(0, 2, 96) + inner + inner
        header, notes, _ = extract_notes(data)
        assert header.track_count == 2
        assert len(notes) == 2

    def test_pair_notes_empty_tracks(self):
        notes, diag = pair_notes([], SmfDiagnostics())
        assert notes == []
        assert diag == SmfDiagnostics()

    def test_decoding_builds_no_per_event_list(self):
        # notes are paired while the track is read, so the decoder's peak is
        # the notes it returns plus little; a list of every event first would
        # more than double it (about 2.3x on this file)
        def running_status_track(n, seed):
            rng = random.Random(seed)
            events = []
            for i in range(n):
                pitch, delta = rng.randint(36, 96), rng.randint(0, 200)
                # a note-on, then running status for the rest of the track
                events.append(running(delta, pitch, 80) if i else note_on(delta, pitch, 80))
                events.append(running(rng.randint(1, 300), pitch, 0))
            return track_chunk(*events, end_of_track())

        data = simple_file(480, running_status_track(10_000, 1), running_status_track(10_000, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, notes, diag = extract_notes(data)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(notes) == 20_000 and diag == SmfDiagnostics()
        assert peak - before <= 1.5 * (retained - before)
