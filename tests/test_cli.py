import csv
import itertools
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import notezipf
from notezipf import cli
from notezipf.cli import main

from _oracles import chi_square_sf_poisson, rank_law_counts
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

    def test_a_good_fit_at_large_dof_reports_its_p_value(self, tmp_path):
        # a rank law whose counts swing with rank, so chi2/dof lands just
        # below 1 at dof 20,000: there the incomplete gamma series needs more
        # than 600 terms, and a fixed cap of 600 ended the run with exit 1
        nu, n0, V = 0.6, 100.0, 20_002
        a = n0**-nu
        b = (1.0 - a) / V
        rng = random.Random(1)
        swing = [(a + b * r) ** (-1 / nu) * (1 + 0.93 * math.sin(r / 500)) for r in range(1, V + 1)]
        counts = [max(1, math.floor(c + rng.random())) for c in swing]
        corpus = tmp_path / "wave.tokens"
        write_token_corpus(corpus, counts)
        out = tmp_path / "out"
        assert main(["analyze", str(corpus), "--kind", "tokens", "--out", str(out)]) == 0
        fit = json.loads((out / "report.json").read_text())["fit"]
        assert fit["dof"] == 20_000
        assert 0.976 < fit["chi2"] / fit["dof"] < 1.0
        assert fit["p_value"] == pytest.approx(
            chi_square_sf_poisson(fit["chi2"], fit["dof"]), rel=1e-8
        )

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

    @pytest.mark.parametrize(
        "params", [["--mode", "sublinear", "--nu", "0.5", "--alpha", "3"],
                   ["--mode", "constant", "--alpha", "0.5", "--nu", "0.5"]],
    )
    def test_other_modes_parameter_rejected(self, capsys, tmp_path, params):
        code = main(["simulate", *params, "--steps", "10", "--out", str(tmp_path)])
        assert code == 1
        assert "takes no" in capsys.readouterr().err
        assert not (tmp_path / "sim_report.json").exists()


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

    def test_csv_quotes_paths_with_commas_and_quotes(self, tmp_path):
        paths = [tmp_path / "x,y.txt", tmp_path / 'q"z.txt']
        for path in paths:
            path.write_text("the cat saw the dog and the bird\n" * 40, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", *map(str, paths), "--kind", "text", "--out", str(out)]) == 0
        with open(out / "compare.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [14, 14, 14]
        assert sorted(row[0] for row in rows[1:]) == sorted(map(str, paths))

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

    def mixed_inputs(self, tmp_path):
        """Eight inputs: good text and MIDI files interleaved with three that fail."""
        inputs = tmp_path / "in"
        inputs.mkdir()
        files = {}
        for i, nu in enumerate((0.3, 0.45, 0.6, 0.75)):
            counts = rank_law_counts(nu, 150, 250.0)
            words = [f"w{chr(97 + r // 26)}{chr(97 + r % 26)}" for r, n in enumerate(counts)
                     for _ in range(n)]
            files[f"good{i}.txt"] = " ".join(words).encode()
        files["good.mid"] = varied_midi_bytes()
        files["truncated.mid"] = varied_midi_bytes()[:-7]
        files["empty.txt"] = b"1234 5678 !!!"
        files["latin1.txt"] = "caf\u00e9 na\u00efve".encode("latin-1")
        order = ["good0.txt", "truncated.mid", "good1.txt", "empty.txt",
                 "good2.txt", "latin1.txt", "good.mid", "good3.txt"]
        for name in order:
            (inputs / name).write_bytes(files[name])
        return [str(inputs / name) for name in order]

    def run_compare(self, paths, out, cpus, monkeypatch, capfd):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code = main(["compare", *paths, "--out", str(out)])
        outputs = {name: (out / name).read_bytes() for name in ("compare.json", "compare.csv")}
        return code, outputs, capfd.readouterr()

    def test_parallel_output_is_the_serial_output(self, tmp_path, monkeypatch, capfd):
        paths = self.mixed_inputs(tmp_path)
        serial = self.run_compare(paths, tmp_path / "serial", 1, monkeypatch, capfd)
        parallel = self.run_compare(paths, tmp_path / "parallel", 3, monkeypatch, capfd)
        assert serial == parallel
        code, outputs, captured = serial
        assert code == 0
        assert len(json.loads(outputs["compare.json"])["rows"]) == 5
        failed = [paths[1], paths[3], paths[5]]
        assert [line.split(": ")[1] for line in captured.err.splitlines()] == failed
        assert all(line.startswith("error: ") for line in captured.err.splitlines())

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the dying worker reaches the pool by fork",
    )
    def test_files_of_a_dead_worker_are_analyzed_here(self, tmp_path, monkeypatch, capfd):
        paths = self.mixed_inputs(tmp_path)
        serial = self.run_compare(paths, tmp_path / "serial", 1, monkeypatch, capfd)
        main_pid, analyze, died = os.getpid(), cli._analyze, tmp_path / "died"

        def dies_in_a_worker(path, args, grid):
            if path == paths[2] and os.getpid() != main_pid:
                died.touch()
                os._exit(1)
            return analyze(path, args, grid)

        monkeypatch.setattr(cli, "_analyze", dies_in_a_worker)
        parallel = self.run_compare(paths, tmp_path / "parallel", 3, monkeypatch, capfd)
        assert died.exists()
        assert parallel == serial  # so no traceback either
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the pool starts its workers by os.fork",
    )
    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_a_worker_that_cannot_start_leaves_the_serial_output(
        self, tmp_path, monkeypatch, capfd, failing_fork
    ):
        # a fresh interpreter, because a worker left blocked on the pool's
        # queue makes the interpreter hang at exit; it leads its own process
        # group, so a timeout can kill that worker with it
        paths = self.mixed_inputs(tmp_path)
        code, serial, captured = self.run_compare(paths, tmp_path / "serial", 1, monkeypatch, capfd)
        script = (
            "import os, sys; from notezipf import cli; forks, real_fork = [], os.fork\n"
            "def fork():\n"
            "    forks.append(None)\n"
            f"    if len(forks) == {failing_fork}:\n"
            "        raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
            "    return real_fork()\n"
            "os.fork, cli._usable_cpus = fork, lambda: 3\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "parallel"
        src = str(Path(notezipf.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-W", "error", "-c", script, "compare", *paths, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"compare hung after fork {failing_fork} failed")
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            left = False
        else:
            left = True
            os.killpg(proc.pid, signal.SIGKILL)
        assert not left, "a process of the compare run is still alive"
        assert (proc.returncode, stdout, stderr) == (code, captured.out, captured.err)
        assert {name: (out / name).read_bytes() for name in serial} == serial


def analyze_outputs(path, out, *options):
    """report.json less its source path, then the bytes of ranks.csv and spectrum.csv."""
    assert main(["analyze", str(path), "--out", str(out), *options]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["source"].pop("path") == str(path)
    return report, (out / "ranks.csv").read_bytes(), (out / "spectrum.csv").read_bytes()


class TestMetamorphic:
    """Changes to the input whose effect on the outputs is known without an
    oracle; they check the glue from reader to counts to written files."""

    def token_lines(self):
        """About 150 KB of shuffled token lines, so the reader cuts several slices."""
        counts = rank_law_counts(0.5, 400, 2000.0)
        lines = [f"tok{i:05d}" for i, count in enumerate(counts) for _ in range(count)]
        random.Random(1).shuffle(lines)
        return lines

    def analyze_lines(self, tmp_path, name, lines):
        path = tmp_path / f"{name}.tokens"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return analyze_outputs(path, tmp_path / name, "--kind", "tokens")

    def test_permuting_token_lines_changes_only_the_path(self, tmp_path):
        lines = self.token_lines()
        permuted = random.Random(2).sample(lines, len(lines))
        once = self.analyze_lines(tmp_path, "once", lines)
        assert once[0]["corpus"] == {"V": 400, "T": len(lines)}
        assert self.analyze_lines(tmp_path, "permuted", permuted) == once

    def test_relabelling_tokens_changes_only_the_path(self, tmp_path):
        # new labels differ in length and some are not ASCII, so the slices
        # are cut at other tokens
        lines = self.token_lines()
        names = sorted(set(lines))
        labels = random.Random(3).sample(range(10**6), len(names))
        relabel = {name: ("n" if k % 2 else "\u00e9") + str(k) for name, k in zip(names, labels)}
        relabelled = self.analyze_lines(tmp_path, "relabelled", [relabel[t] for t in lines])
        assert relabelled == self.analyze_lines(tmp_path, "once", lines)

    def test_a_token_file_twice_keeps_V_and_doubles_T(self, tmp_path):
        lines = self.token_lines()
        once = self.analyze_lines(tmp_path, "once", lines)[0]["corpus"]
        twice = self.analyze_lines(tmp_path, "twice", lines + lines)[0]["corpus"]
        assert twice == {"V": once["V"], "T": 2 * once["T"]}

    def test_permuting_mtrk_chunks_changes_only_the_path(self, tmp_path):
        # the tracks share a channel and pitches, and each ends at its own
        # tick with two note-ons still open, which its own end must close
        rng = random.Random(4)
        tracks = []
        for end in (30, 200, 700):
            events = []
            for _ in range(60):
                pitch = rng.choice((60, 62, 64, 67))
                events.append(note_on(rng.choice((0, 12)), pitch))
                events.append(note_off(rng.choice((24, 48, 96, 144, 192)), pitch))
            tracks.append(track_chunk(*events, note_on(0, 72), note_on(5, 74), end_of_track(end)))
        outputs = []
        for i, order in enumerate(itertools.permutations(tracks)):
            path = tmp_path / f"{i}.mid"
            path.write_bytes(simple_file(96, *order))
            outputs.append(analyze_outputs(path, tmp_path / f"out{i}"))
        assert outputs[0][0]["diagnostics"]["unmatched_note_ons"] == 6
        assert outputs.count(outputs[0]) == len(outputs) == 6

    def test_compare_writes_the_same_bytes_in_any_order(self, tmp_path, monkeypatch):
        # two files are copies, so their rows tie on nu
        paths = []
        for name, nu in (("a", 0.3), ("b", 0.5), ("c", 0.7)):
            paths.append(tmp_path / f"{name}.tokens")
            write_token_corpus(paths[-1], rank_law_counts(nu, 150, 250.0))
        paths.append(tmp_path / "b2.tokens")
        paths[-1].write_bytes(paths[1].read_bytes())
        paths.append(tmp_path / "piece.mid")
        paths[-1].write_bytes(varied_midi_bytes())
        paths = list(map(str, paths))
        outputs = set()
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
            for i, order in enumerate((paths, paths[::-1], paths[2:] + paths[:2])):
                out = tmp_path / f"out{cpus}-{i}"
                assert main(["compare", *order, "--out", str(out)]) == 0
                written = [(out / name).read_bytes() for name in ("compare.json", "compare.csv")]
                outputs.add(tuple(written))
        assert len(outputs) == 1
        assert len(json.loads((out / "compare.json").read_text())["rows"]) == 5


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # bench/run.py times this import; a one-file compare runs in-process too
    corpus = tmp_path / "c.tokens"
    write_token_corpus(corpus, rank_law_counts(0.5, 100, 200.0))
    code = (
        "import sys; from notezipf.cli import build_parser, main; build_parser(); "
        "pools = lambda: {'multiprocessing', 'concurrent.futures'} & set(sys.modules); "
        "assert not pools(), pools(); "
        f"assert main(['compare', {str(corpus)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
        "assert not pools(), pools()"
    )
    src = str(Path(notezipf.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


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


@pytest.mark.skipif(
    sys.platform != "linux", reason="other systems refuse file names that are not UTF-8"
)
def test_a_path_that_is_not_utf8_is_written_and_printed_as_its_bytes(tmp_path):
    # a strict UTF-8 stdout, as PYTHONIOENCODING=utf-8 or a UTF-8 locale gives
    name = os.fsdecode(b"\xffpiece.tokens")
    write_token_corpus(tmp_path / name, rank_law_counts(0.5, 100, 200.0))
    src = str(Path(notezipf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    for command in ("analyze", "compare"):
        argv = [sys.executable, "-m", "notezipf.cli", command, name, "--kind", "tokens"]
        proc = subprocess.run([*argv, "--out", command], cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.startswith(b"\xffpiece.tokens: ")
    rows = (tmp_path / "compare" / "compare.csv").read_bytes().splitlines()
    assert rows[1].startswith(b"\xffpiece.tokens,tokens,")


@pytest.mark.skipif(sys.platform != "linux", reason="the escape is checked on Linux only")
def test_a_path_an_ascii_stdout_cannot_hold_is_printed_as_an_escape(tmp_path):
    write_token_corpus(tmp_path / "café.tokens", rank_law_counts(0.5, 100, 200.0))
    src = str(Path(notezipf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
    for command in ("analyze", "compare"):
        argv = [sys.executable, "-m", "notezipf.cli", command, "café.tokens", "--kind", "tokens"]
        proc = subprocess.run([*argv, "--out", command], cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.startswith(b"caf\\xe9.tokens: ")


def strict_json(path):
    """The JSON document in path, read as a strict reader would: a string that
    holds a lone surrogate fails to encode as UTF-8."""
    document = json.loads(path.read_text(encoding="utf-8"))
    json.dumps(document, ensure_ascii=False).encode("utf-8")
    return document


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize(
    "path, message",
    [
        ("a\x00b.txt", "embedded null byte"),
        # only an in-process caller can pass a surrogate that no byte decodes to
        ("\ud800.txt", "surrogates not allowed"),
    ],
    ids=["nul", "surrogate"],
)
def test_a_path_no_file_can_have_is_one_error_line(tmp_path, capfd, command, path, message):
    out = tmp_path / "out"
    assert main([command, path, "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1
    if command == "compare":
        [error] = json.loads((out / "compare.json").read_text())["errors"]
        assert error["path"] == path and error["error"].endswith(message)


@pytest.mark.skipif(
    sys.platform != "linux", reason="other systems refuse file names that are not UTF-8"
)
def test_a_path_that_is_not_utf8_is_a_backslash_escape_in_json(tmp_path):
    good = tmp_path / os.fsdecode(b"\xffpiece.tokens")
    write_token_corpus(good, rank_law_counts(0.5, 100, 200.0))
    bad = tmp_path / os.fsdecode(b"\xfebad.txt")
    bad.write_bytes(b"\xff\xff")
    grid = tmp_path / os.fsdecode(b"\xfdgrid.txt")
    grid.write_text("1/4\n1/2\n1\n", encoding="utf-8")
    escaped = str(tmp_path) + "/\\x"
    argv = ["--kind", "tokens", "--grid", str(grid)]
    assert main(["analyze", str(good), *argv, "--out", str(tmp_path / "a")]) == 0
    report = strict_json(tmp_path / "a" / "report.json")
    assert report["source"]["path"] == escaped + "ffpiece.tokens"
    assert report["options"]["grid"] == escaped + "fdgrid.txt"
    assert main(["compare", str(good), str(bad), *argv, "--out", str(tmp_path / "c")]) == 0
    document = strict_json(tmp_path / "c" / "compare.json")
    assert [row["path"] for row in document["rows"]] == [escaped + "ffpiece.tokens"]
    [error] = document["errors"]
    assert error["path"] == escaped + "febad.txt"
    assert error["error"].startswith(escaped + "febad.txt is not valid UTF-8")
