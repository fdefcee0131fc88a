import math
import random
from fractions import Fraction

import pytest

from notezipf.analysis import read_grid
from notezipf.errors import EmptyCorpus
from notezipf.notes import (
    DEFAULT_GRID,
    DurationClass,
    DurationGrid,
    NoteToken,
    tokenize,
)
from notezipf.smf import RawNote
from notezipf.stats import count_tokens


def raw(pitch, onset, duration, track=0, channel=0):
    return RawNote(pitch=pitch, onset=onset, duration=duration, track=track, channel=channel)


class TestClassifyDuration:
    def test_quarter_anchor(self):
        assert DEFAULT_GRID.classify(96, 96).label == "quarter"
        assert DEFAULT_GRID.classify(480, 480).label == "quarter"

    def test_eighth(self):
        assert DEFAULT_GRID.classify(48, 96).label == "eighth"

    def test_dotted_quarter_wins_in_log_space(self):
        # 1.45 quarters: |ln 1.45 - ln 1.5| = 0.034 < |ln 1.45 - ln 1| = 0.372
        assert abs(math.log(1.45) - math.log(1.5)) < abs(math.log(1.45) - math.log(1.0))
        assert DEFAULT_GRID.classify(29, 20).label == "dotted_quarter"

    def test_every_grid_anchor_maps_to_itself(self):
        division = 48  # all default ratios are exact multiples of 1/48
        for cls in DEFAULT_GRID.classes:
            ticks = int(cls.ratio * division)
            assert DEFAULT_GRID.classify(ticks, division) == cls

    def test_exact_tie_breaks_short(self):
        # ratios 1 and 4: duration of 2 quarters is log-equidistant
        grid = DurationGrid.from_ratios(["1", "4"])
        assert grid.classify(192, 96).ratio == Fraction(1)

    def test_extremes_clamp_to_end_classes(self):
        assert DEFAULT_GRID.classify(96 * 1000, 96).label == "double_whole"
        assert DEFAULT_GRID.classify(1, 96 * 1000).label == "sixtyfourth"
        assert DEFAULT_GRID.is_out_of_range(96 * 1000, 96)
        assert DEFAULT_GRID.is_out_of_range(1, 96 * 1000)
        assert not DEFAULT_GRID.is_out_of_range(96, 96)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DEFAULT_GRID.classify(0, 96)
        with pytest.raises(ValueError):
            DEFAULT_GRID.classify(96, 0)


class TestDurationGrid:
    def test_labels_and_ratios_bijective(self):
        labels = [c.label for c in DEFAULT_GRID.classes]
        ratios = [c.ratio for c in DEFAULT_GRID.classes]
        assert len(set(labels)) == len(labels) == 17
        assert len(set(ratios)) == len(ratios) == 17

    def test_from_file(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# custom\n2\n1\n1/2\n\n3/2\n")
        grid = read_grid(str(path))
        assert [c.ratio for c in grid.classes] == [
            Fraction(1, 2),
            Fraction(1),
            Fraction(3, 2),
            Fraction(2),
        ]

    # a byte-order mark is stripped as the text reader strips it: it is no
    # character of the first ratio, nor does it hide a leading comment.
    # CRLF, a lone CR and trailing blanks end a line as LF does
    @pytest.mark.parametrize(
        "body",
        [
            "2\n1/2\n",
            "# custom\n2\n1/2\n",
            "# custom\r\n2\r\n1/2\r\n",
            "# custom\r2\r1/2\r",
            "2 \t\n1/2  \n\n \t\n",
        ],
    )
    def test_from_file_drops_a_byte_order_mark(self, tmp_path, body):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(body.encode("utf-8"))
        marked.write_bytes(("\ufeff" + body).encode("utf-8"))
        expected = DurationGrid.from_ratios(["2", "1/2"]).classes
        assert read_grid(str(marked)).classes == read_grid(str(plain)).classes == expected

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DurationGrid.from_ratios(["1", "2/2"])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DurationGrid.from_ratios(["0"])

    # built directly, not through from_ratios, on either side of the float range
    @pytest.mark.parametrize("ratio", [Fraction(10**400), Fraction(1, 10**400)])
    def test_rejects_ratio_outside_float_range(self, ratio):
        with pytest.raises(ValueError, match="outside the float range"):
            DurationGrid([DurationClass(ratio, "x")])


class TestTokenize:
    def test_identical_notes_one_type(self):
        result = tokenize([raw(60, 0, 96), raw(60, 96, 96)], division=96)
        assert len(result.tokens) == 2
        assert len(set(result.tokens)) == 1

    def test_min_ticks_filter(self):
        result = tokenize(
            [raw(60, 0, 5), raw(60, 10, 96)],
            division=96,
            min_ticks=10,
        )
        assert len(result.tokens) == 1
        assert result.dropped_short == 1

    def test_same_pitch_different_class_distinct(self):
        result = tokenize([raw(60, 0, 96), raw(60, 96, 48)], division=96)
        assert len(set(result.tokens)) == 2

    def test_conservation(self):
        rng = random.Random(12)
        notes = [raw(rng.randint(40, 80), i * 10, rng.randint(1, 200)) for i in range(100)]
        result = tokenize(notes, division=96, min_ticks=20)
        assert len(result.tokens) + result.dropped_short == len(notes)

    def test_onset_order_with_tie_break(self):
        # same onset: track, then channel, then pitch, then duration
        notes = [
            raw(70, 0, 96, track=1),
            raw(60, 0, 96, track=0, channel=1),
            raw(50, 0, 96, track=0, channel=0),
            raw(40, 10, 96),
            raw(30, 20, 96),
            raw(30, 20, 48),
        ]
        result = tokenize(notes, division=96)
        assert [(t.pitch, t.duration_class.label) for t in result.tokens] == [
            (50, "quarter"), (60, "quarter"), (70, "quarter"), (40, "quarter"), (30, "eighth"),
            (30, "quarter"),
        ]

    def test_deterministic(self):
        rng = random.Random(5)
        notes = [raw(rng.randint(40, 80), rng.randint(0, 50), rng.randint(1, 300)) for _ in range(60)]
        a = tokenize(list(notes), division=96)
        b = tokenize(list(reversed(notes)), division=96)
        assert a.tokens == b.tokens

    def test_scale_invariance(self):
        rng = random.Random(8)
        notes = [raw(rng.randint(40, 80), i, rng.randint(1, 400)) for i in range(80)]
        base = tokenize(notes, division=96)
        for factor in (2, 3, 7, 50):
            scaled = [
                raw(n.pitch, n.onset, n.duration * factor, n.track, n.channel) for n in notes
            ]
            assert tokenize(scaled, division=96 * factor).tokens == base.tokens

    def test_out_of_grid_tally(self):
        result = tokenize([raw(60, 0, 96 * 100), raw(62, 1, 96)], division=96)
        assert result.out_of_grid == 1
        assert len(result.tokens) == 2

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            tokenize([], division=96)
        with pytest.raises(EmptyCorpus):
            tokenize([raw(60, 0, 5)], division=96, min_ticks=50)


class TestNoteToken:
    def test_equal_duration_classes_hash_equal(self):
        a = DurationClass(Fraction(3, 2), "dotted_quarter")
        b = DurationClass(Fraction(6, 4), "dotted_quarter")
        assert a is not b and a == b and hash(a) == hash(b)
        table = count_tokens([NoteToken(60, a), NoteToken(60, b)])
        assert table.counts() == [2]

    def test_identity(self):
        quarter = DEFAULT_GRID.classify(96, 96)
        assert NoteToken(60, quarter) == NoteToken(60, quarter)
        assert NoteToken(60, quarter) != NoteToken(61, quarter)
        eighth = DEFAULT_GRID.classify(48, 96)
        assert NoteToken(60, quarter) != NoteToken(60, eighth)

    def test_ordering_by_pitch_then_ratio(self):
        quarter = DurationClass(Fraction(1), "quarter")
        eighth = DurationClass(Fraction(1, 2), "eighth")
        tokens = [NoteToken(62, eighth), NoteToken(60, quarter), NoteToken(60, eighth)]
        assert sorted(tokens) == [
            NoteToken(60, eighth),
            NoteToken(60, quarter),
            NoteToken(62, eighth),
        ]
