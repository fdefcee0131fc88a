"""Standard MIDI File decoding: chunks, variable-length quantities, running
status, and note-on/note-off pairing into timed notes.

Only note events survive decoding; meta events and sysex are consumed and
skipped, except end-of-track, which closes the track.  Timing stays in ticks
relative to the header's division (ticks per quarter note); tempo meta events
are deliberately ignored because downstream duration classes are ratios of
ticks to division and therefore tempo-independent.

parse_smf(data) returns (header, tracks, diagnostics): an SmfHeader, one
list of RawNotes per MTrk chunk, and an SmfDiagnostics.  The track decoder
pairs notes as it reads them, FIFO per (channel, pitch), so no list of events
is built; the note-ons still open at the track's last tick are closed there,
in (channel, pitch) order and then onset order, after the notes a note-off
closed.  The diagnostics tally trailing_bytes, missing_end_of_track,
orphan_note_offs, unmatched_note_ons and zero_length_notes; a zero-length
pair is dropped.  extract_notes concatenates the tracks' notes.  A RawNote
is a (onset, track, channel, pitch, duration) tuple, so sorting notes orders
them by onset with that tie-break.

The track decoder reads delta times of one and two bytes inline and hands
longer or malformed ones to read_vlq.  Within a track, notes of equal
duration share one int object.  A RawNote is a tuple subclass, so the cyclic
garbage collector tracks every note; parse_smf runs inside collector_paused,
since the notes all survive a collection while they are built.
collector_paused restores the caller's setting on exit, also when decoding
fails.

MissingHeader covers both an absent MThd chunk and one whose fixed fields are
malformed (bad length, unknown format, zero division).
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .errors import (
    DanglingStatus,
    InvalidVlq,
    MissingHeader,
    SmpteDivision,
    TruncatedChunk,
)

NOTE_OFF = 0x80
NOTE_ON = 0x90
_META = 0xFF
_SYSEX = (0xF0, 0xF7)
_END_OF_TRACK = 0x2F

# data bytes per channel-message status nibble
_DATA_LEN = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


@dataclass(frozen=True)
class SmfHeader:
    format: int
    track_count: int
    division: int


class RawNote(NamedTuple):
    """A timed note; the field order is the order notes sort in."""

    onset: int
    track: int
    channel: int
    pitch: int
    duration: int


class collector_paused:
    """Context manager that turns the cyclic garbage collector off inside it.

    On exit the collector is as the caller had it, also when the body raises;
    exiting allocates nothing, so no collection starts as it resumes.
    """

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self.enabled:
            gc.enable()


@dataclass
class SmfDiagnostics:
    trailing_bytes: int = 0
    missing_end_of_track: int = 0
    unmatched_note_ons: int = 0
    orphan_note_offs: int = 0
    zero_length_notes: int = 0


def read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    """Decode a variable-length quantity at pos; returns (value, next_pos)."""
    value = 0
    for i in range(4):
        if pos + i >= len(data):
            raise InvalidVlq(f"unterminated variable-length quantity at offset {pos}")
        byte = data[pos + i]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos + i + 1
    raise InvalidVlq(f"variable-length quantity longer than 4 bytes at offset {pos}")


def _read_data_byte(data: bytes, pos: int, what: str) -> int:
    if pos >= len(data):
        raise TruncatedChunk(f"track data ends inside a {what}")
    byte = data[pos]
    if byte & 0x80:
        raise DanglingStatus(f"expected {what} data byte at offset {pos}, got status 0x{byte:02X}")
    return byte


def _parse_track(data: bytes, track: int, diag: SmfDiagnostics) -> tuple[list[RawNote], bool]:
    """Decode one MTrk payload and pair its notes as they come.

    Returns the track's notes and whether EOT was seen.  Orphan note-offs,
    unmatched note-ons and zero-length pairs are tallied into diag.
    """
    notes: list[RawNote] = []
    pending: dict[int, deque[int]] = {}
    new_note = tuple.__new__  # a RawNote without the Python frame of its __new__
    share = {}.setdefault  # the track's one int object per distinct duration
    saw_eot = False
    end = len(data)
    pos = 0
    tick = 0
    kind = 0  # status nibble of the running status; 0 when none is in scope
    while pos < end:
        if (byte := data[pos]) < 0x80:  # one-byte delta, the common case
            tick += byte
            pos += 1
        elif pos + 1 < end and data[pos + 1] < 0x80:  # two-byte delta
            tick += (byte & 0x7F) << 7 | data[pos + 1]
            pos += 2
        else:
            delta, pos = read_vlq(data, pos)
            tick += delta
        if pos >= end:
            raise TruncatedChunk("track data ends after a delta time")
        byte = data[pos]
        if byte < 0x80:
            if not kind:
                raise DanglingStatus(
                    f"data byte 0x{byte:02X} at offset {pos} with no status in scope"
                )
        elif byte < 0xF0:
            kind, channel = byte & 0xF0, byte & 0x0F
            data_len = _DATA_LEN[kind]
            pos += 1
        elif byte == _META:
            pos += 1
            if pos >= end:
                raise TruncatedChunk("track data ends inside a meta event")
            meta_type = data[pos]
            pos += 1
            length, pos = read_vlq(data, pos)
            if pos + length > end:
                raise TruncatedChunk(
                    f"meta event 0x{meta_type:02X} declares {length} bytes past track end"
                )
            pos += length
            if meta_type == _END_OF_TRACK:
                saw_eot = True
                break
            kind = 0
            continue
        elif byte in _SYSEX:
            pos += 1
            length, pos = read_vlq(data, pos)
            if pos + length > end:
                raise TruncatedChunk(f"sysex declares {length} bytes past track end")
            pos += length
            kind = 0
            continue
        else:
            raise DanglingStatus(f"unsupported system status 0x{byte:02X} in track data")
        # both data bytes inline when they are there; when data_len is 1,
        # second is the next delta byte and goes unused
        if not (
            pos + 1 < end and (first := data[pos]) < 0x80 and (second := data[pos + 1]) < 0x80
        ):
            first = _read_data_byte(data, pos, "channel message")
            second = _read_data_byte(data, pos + 1, "channel message") if data_len == 2 else 0
        pos += data_len
        if kind == NOTE_ON and second:
            key = channel << 7 | first
            queue = pending.get(key)
            if queue is None:
                queue = pending[key] = deque()
            queue.append(tick)
        elif kind == NOTE_OFF or kind == NOTE_ON:
            queue = pending.get(channel << 7 | first)
            if not queue:
                diag.orphan_note_offs += 1
                continue
            onset = queue.popleft()
            if tick > onset:
                duration = tick - onset
                notes.append(
                    new_note(RawNote, (onset, track, channel, first, share(duration, duration)))
                )
            else:
                diag.zero_length_notes += 1
    for key in sorted(pending):
        channel, pitch = divmod(key, 128)
        for onset in pending[key]:
            diag.unmatched_note_ons += 1
            if tick > onset:
                duration = tick - onset
                notes.append(
                    new_note(RawNote, (onset, track, channel, pitch, share(duration, duration)))
                )
            else:
                diag.zero_length_notes += 1
    return notes, saw_eot


def parse_smf(data: bytes) -> tuple[SmfHeader, list[list[RawNote]], SmfDiagnostics]:
    """Decode a complete Standard MIDI File buffer; see the module docstring.

    Unknown chunk types are skipped by their declared length.  Bytes after
    the header's declared number of tracks that do not form a complete chunk
    are counted as trailing garbage rather than failing the parse.
    """
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

    tracks: list[list[RawNote]] = []
    diag = SmfDiagnostics()
    pos = 8 + header_len
    # every RawNote survives, so a collection while they are built frees nothing
    with collector_paused():
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
                track, saw_eot = _parse_track(payload, len(tracks), diag)
                tracks.append(track)
                if not saw_eot:
                    diag.missing_end_of_track += 1
    return SmfHeader(format=fmt, track_count=len(tracks), division=division), tracks, diag


def pair_notes(
    tracks: list[list[RawNote]], diagnostics: SmfDiagnostics
) -> tuple[list[RawNote], SmfDiagnostics]:
    """Return the tracks' notes concatenated, and diagnostics unchanged."""
    return list(chain.from_iterable(tracks)), diagnostics


def extract_notes(data: bytes) -> tuple[SmfHeader, list[RawNote], SmfDiagnostics]:
    """Decode a buffer into its header, notes and diagnostics in one step."""
    header, tracks, diag = parse_smf(data)
    notes, diag = pair_notes(tracks, diag)
    return header, notes, diag
