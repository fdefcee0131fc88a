import json

import pytest

from notezipf.cli import main

from _oracles import rank_law_counts
from midibytes import end_of_track, note_off, note_on, one_note_file, simple_file, track_chunk


def varied_midi_bytes():
    """Four distinct (pitch, class) tokens with unequal counts: 6/3/2/1."""
    events = []
    t = 0

    def add(pitch, dur):
        nonlocal events, t
        events += [note_on(0, pitch), note_off(dur, pitch)]

    for _ in range(6):
        add(60, 96)
    for _ in range(3):
        add(62, 96)
    for _ in range(2):
        add(64, 48)
    add(65, 192)
    return simple_file(96, track_chunk(*events, end_of_track()))


def write_token_corpus(path, counts):
    lines = []
    for i, count in enumerate(counts):
        lines.extend([f"tok{i:05d}"] * count)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestAnalyze:
    def test_midi_file_outputs(self, tmp_path, capsys):
        midi = tmp_path / "piece.mid"
        midi.write_bytes(varied_midi_bytes())
        out = tmp_path / "out"
        assert main(["analyze", str(midi), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"]["kind"] == "midi"
        assert report["corpus"] == {"V": 4, "T": 12}
        assert report["options"]["grid"] == "default"
        ranks = (out / "ranks.csv").read_text().splitlines()
        assert ranks[0] == "rank,observed,predicted"
        assert len(ranks) == 5
        spect = (out / "spectrum.csv").read_text().splitlines()
        assert spect[0] == "n,w"
        assert "V=4 T=12" in capsys.readouterr().out

    def test_degenerate_single_note_still_reports(self, tmp_path):
        midi = tmp_path / "tiny.mid"
        midi.write_bytes(one_note_file())
        out = tmp_path / "out"
        assert main(["analyze", str(midi), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["corpus"] == {"V": 1, "T": 1}
        assert report["fit"] is None
        assert any("fit skipped" in w for w in report["warnings"])
        ranks = (out / "ranks.csv").read_text().splitlines()
        assert ranks[1] == "1,1,"

    def test_synthetic_token_corpus_recovers_exponent(self, tmp_path):
        corpus = tmp_path / "corpus.tokens"
        write_token_corpus(corpus, rank_law_counts(0.4, 300, 500.0))
        out = tmp_path / "out"
        assert main(["analyze", str(corpus), "--kind", "tokens", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"]["kind"] == "tokens"
        assert abs(report["fit"]["nu"] - 0.4) < 0.01
        assert report["fit"]["p_value"] > 0.99

    def test_text_kind_detected(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("the cat and the dog and the bird\n" * 5, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", str(doc), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"]["kind"] == "text"
        assert report["corpus"]["V"] == 5

    def test_min_ticks_and_custom_grid(self, tmp_path):
        midi = tmp_path / "piece.mid"
        midi.write_bytes(varied_midi_bytes())
        grid = tmp_path / "grid.txt"
        grid.write_text("1\n1/2\n2\n")
        out = tmp_path / "out"
        code = main(
            ["analyze", str(midi), "--min-ticks", "50", "--grid", str(grid), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["dropped_short"] == 2
        assert report["corpus"]["T"] == 10
        assert report["options"]["grid"] == str(grid)
        assert report["options"]["min_ticks"] == 50

    def _bad_grid_entry_is_an_error(self, tmp_path, capsys, entry):
        midi = tmp_path / "piece.mid"
        midi.write_bytes(varied_midi_bytes())
        grid = tmp_path / "grid.txt"
        grid.write_text(f"1\n{entry}\n", encoding="utf-8")
        code = main(["analyze", str(midi), "--grid", str(grid), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: ") and f"'{entry}'" in err
        assert not (tmp_path / "out").exists()

    def test_zero_denominator_grid_is_an_error(self, tmp_path, capsys):
        self._bad_grid_entry_is_an_error(tmp_path, capsys, "1/0")

    # ratios beyond the float range either way
    @pytest.mark.parametrize("entry", ["1e400", "1e-400"])
    def test_out_of_float_range_grid_is_an_error(self, tmp_path, capsys, entry):
        self._bad_grid_entry_is_an_error(tmp_path, capsys, entry)

    def test_non_utf8_grid_file_is_named(self, tmp_path, capsys):
        midi = tmp_path / "piece.mid"
        midi.write_bytes(varied_midi_bytes())
        grid = tmp_path / "grid.txt"
        grid.write_bytes(b"\xff\xfe1\n")
        code = main(["analyze", str(midi), "--grid", str(grid), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{grid} is not valid UTF-8" in capsys.readouterr().err

    def test_residuals_linear_accepted(self, tmp_path):
        corpus = tmp_path / "corpus.tokens"
        write_token_corpus(corpus, rank_law_counts(0.4, 200, 300.0))
        out = tmp_path / "out"
        assert main(
            ["analyze", str(corpus), "--kind", "tokens", "--residuals", "linear", "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["options"]["residuals"] == "linear"
        assert abs(report["fit"]["nu"] - 0.4) < 0.05

    def test_corrupt_midi_fails_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.mid"
        bad.write_bytes(b"MThd\x00\x00\x00\x06\x00\x00\x00\x01\x00\x60MTrk\xff\xff\xff\xff")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_nonzero(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.mid"), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_corpus_fails_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("1234 5678 !!!", encoding="utf-8")
        assert main(["analyze", str(empty), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        corpus = tmp_path / "corpus.tokens"
        write_token_corpus(corpus, rank_law_counts(0.55, 200, 400.0))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["analyze", str(corpus), "--kind", "tokens", "--out", str(out)]) == 0
        for name in ("report.json", "ranks.csv", "spectrum.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSimulate:
    def test_always_innovate_stream(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--mode", "constant", "--alpha", "1", "--steps", "10",
             "--seed", "1", "--out", str(out), "--emit-tokens"]
        )
        assert code == 0
        tokens = (out / "tokens.txt").read_text().split()
        assert tokens == [str(i) for i in range(1, 11)]
        report = json.loads((out / "sim_report.json").read_text())
        assert report["V"] == 10
        assert report["verify"] is None
        assert any("verification skipped" in w for w in report["warnings"])

    def test_sublinear_report_populated(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--mode", "sublinear", "--nu", "0.5", "--steps", "100000",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "sim_report.json").read_text())
        for key in ("nu_hat", "gamma_hat", "z_hat"):
            assert isinstance(report["verify"][key], float)

    def test_fit_at_search_bound_is_warned(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--mode", "constant", "--alpha", "0.05", "--steps", "20000",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "sim_report.json").read_text())
        assert report["verify"]["nu_hat"] == pytest.approx(0.98, abs=1e-3)
        assert report["verify"]["boundary_warning"] is True
        assert report["warnings"] == [
            f"fitted exponent {report['verify']['nu_hat']!r} touches the search bounds"
        ]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--mode", "constant", "--alpha", "0.1", "--steps", "5000",
                "--seed", "42", "--emit-tokens"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("sim_report.json", "tokens.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_config_rejected(self, capsys, tmp_path):
        code = main(["simulate", "--mode", "constant", "--steps", "10",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "alpha" in capsys.readouterr().err


class TestCompare:
    def test_rows_sorted_by_nu(self, tmp_path):
        low = tmp_path / "low.tokens"
        high = tmp_path / "high.tokens"
        write_token_corpus(low, rank_law_counts(0.3, 300, 500.0))
        write_token_corpus(high, rank_law_counts(0.7, 300, 500.0))
        out = tmp_path / "out"
        assert main(["compare", str(high), str(low), "--kind", "tokens", "--out", str(out)]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert [r["path"] for r in payload["rows"]] == [str(low), str(high)]
        assert payload["rows"][0]["nu"] < payload["rows"][1]["nu"]
        csv_lines = (out / "compare.csv").read_text().splitlines()
        assert csv_lines[0].startswith("path,kind,V,T,nu,z,n0,a,b,")
        assert len(csv_lines) == 3

    def test_corrupt_file_reported_survivors_proceed(self, tmp_path, capsys):
        good = tmp_path / "good.tokens"
        write_token_corpus(good, rank_law_counts(0.4, 200, 300.0))
        bad = tmp_path / "bad.mid"
        bad.write_bytes(b"MThd\x00\x00\x00\x06\x00\x01\x00\x02\x00\x60MTrk\x00\x00\xff\xff")
        out = tmp_path / "out"
        code = main(["compare", str(good), str(bad), "--kind", "auto", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "compare.json").read_text())
        assert len(payload["rows"]) == 1
        assert len(payload["errors"]) == 1
        assert payload["errors"][0]["path"] == str(bad)

    def test_identical_files_identical_rows(self, tmp_path):
        corpus = tmp_path / "c.tokens"
        write_token_corpus(corpus, rank_law_counts(0.5, 200, 300.0))
        copy = tmp_path / "c2.tokens"
        copy.write_bytes(corpus.read_bytes())
        out = tmp_path / "out"
        assert main(["compare", str(corpus), str(copy), "--kind", "tokens", "--out", str(out)]) == 0
        rows = json.loads((out / "compare.json").read_text())["rows"]
        assert rows[0]["nu"] == rows[1]["nu"]
        assert rows[0]["chi2"] == rows[1]["chi2"]

    def test_bad_grid_is_one_error_for_the_command(self, tmp_path, capsys):
        paths = []
        for name in ("a.mid", "b.mid"):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(varied_midi_bytes())
        grid = tmp_path / "grid.txt"
        grid.write_text("1\n1/0\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["compare", *map(str, paths), "--grid", str(grid), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {grid}: grid ratio '1/0' has a zero denominator"]
        assert not out.exists()

    def test_all_files_failing_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"MThd\x00\x00\x00\x06\x00\x09\x00\x00\x00\x60")
        assert main(["compare", str(bad), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command", ["analyze", "compare", "simulate"])
@pytest.mark.parametrize("nested", [False, True], ids=["file-exists", "not-a-directory"])
def test_unusable_out_is_an_error(tmp_path, capsys, command, nested):
    corpus = tmp_path / "c.tokens"
    write_token_corpus(corpus, rank_law_counts(0.5, 100, 200.0))
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    out = taken / "x" if nested else taken
    argv = {
        "analyze": ["analyze", str(corpus), "--kind", "tokens"],
        "compare": ["compare", str(corpus), "--kind", "tokens"],
        "simulate": ["simulate", "--mode", "constant", "--alpha", "0.1", "--steps", "1000"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert taken.read_text(encoding="utf-8") == "keep\n"
