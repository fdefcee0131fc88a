"""Byte lock on CLI outputs: sha256 of every file and of stdout/stderr.

Each run executes ``main()`` in-process from inside ``tmp_path`` with
relative paths, because ``report.json`` and ``compare.json`` echo the input
path.  The digests were recorded once and must not be edited to make a
refactor pass: a changed digest means a changed output byte.
"""

import hashlib
from pathlib import Path

import pytest

from notezipf.cli import main

from _oracles import rank_law_counts
from midibytes import (
    end_of_track,
    note_off,
    note_on,
    one_note_file,
    running,
    simple_file,
    track_chunk,
)


def golden_midi_bytes():
    """Varied notes plus every pairing diagnostic the decoder tallies.

    Running-status note-ons and velocity-0 note-offs carry most notes; one
    orphan note-off, one zero-length pair and one note-on left open at the
    end of the track exercise the diagnostics, and a few 30-tick notes fall
    under ``--min-ticks 40``.
    """
    events = [note_on(0, 48), note_off(96, 48), note_off(0, 50), note_on(0, 52), note_off(0, 52)]
    pitches = [60, 62, 64, 65, 67, 69, 71, 72, 74, 76, 77, 79]
    durations = [96, 48, 24, 144, 192, 72, 30]
    for i in range(160):
        pitch = pitches[(i * i + 3 * i) % len(pitches) if i % 3 else i % 4]
        duration = durations[(i // 5 + i % 3) % len(durations)]
        events.append(note_on(0, pitch))
        events.append(running(duration, pitch, 0))
    events.append(note_on(0, 84))
    events.append(end_of_track(480))
    return simple_file(96, track_chunk(*events))


def write_tokens(path, counts):
    """One label per line; labels are letters only, so text mode reads them too."""
    lines = []
    for i, count in enumerate(counts):
        lines.extend(["".join(chr(97 + int(d)) for d in f"{i:04d}")] * count)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


TEXT = (
    "The quick brown fox jumps over the lazy dog; the dog, being lazy, "
    "doesn't jump. A well-known fox-trot: café, naïve, 'tis the fox!\n"
) * 7 + "Seldom words appear once: zephyr quixotic.\n"


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "piece.mid").write_bytes(golden_midi_bytes())
    (tmp_path / "tiny.mid").write_bytes(one_note_file())
    (tmp_path / "bad.mid").write_bytes(
        b"MThd\x00\x00\x00\x06\x00\x01\x00\x02\x00\x60MTrk\x00\x00\xff\xff"
    )
    (tmp_path / "grid.txt").write_text("# coarse grid\n1\n1/2\n\n3/2\n2\n1/4\n", encoding="utf-8")
    (tmp_path / "doc.txt").write_text(TEXT, encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("caf\xe9 au lait\n".encode("latin-1"))
    write_tokens(tmp_path / "low.tokens", rank_law_counts(0.35, 120, 200.0))
    write_tokens(tmp_path / "high.tokens", rank_law_counts(0.6, 150, 200.0))
    return tmp_path


RUNS = {
    "midi": ["analyze", "piece.mid", "--min-ticks", "40", "--grid", "grid.txt", "--out", "o"],
    "midi-default": ["analyze", "piece.mid", "--out", "o"],
    "text": ["analyze", "doc.txt", "--out", "o"],
    "tokens": [
        "analyze", "high.tokens", "--kind", "tokens", "--residuals", "linear",
        "--n-max", "7", "--out", "o",
    ],
    "single-note": ["analyze", "tiny.mid", "--out", "o"],
    "bad-utf8": ["analyze", "latin1.txt", "--kind", "text", "--out", "o"],
    "compare": ["compare", "high.tokens", "bad.mid", "tiny.mid", "low.tokens", "--out", "o"],
    "sim-constant": [
        "simulate", "--mode", "constant", "--alpha", "0.05", "--steps", "20000",
        "--seed", "3", "--emit-tokens", "--out", "o",
    ],
    "sim-sublinear": [
        "simulate", "--mode", "sublinear", "--nu", "0.45", "--steps", "20000",
        "--seed", "9", "--emit-tokens", "--out", "o",
    ],
    "sim-alpha-1": [
        "simulate", "--mode", "constant", "--alpha", "1", "--steps", "10", "--out", "o",
    ],
    # V = 60 passes the vocabulary check; the one-bin spectrum fails first
    "sim-flat": [
        "simulate", "--mode", "constant", "--alpha", "1", "--steps", "60", "--out", "o",
    ],
}

GOLDEN = {
    "bad-utf8": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "511a88c3908722ddca378a18ad862ea0bd452884562699eef15f8e653a9937fc",
    },
    "compare": {
        "exit": 0,
        "stdout": "4de559502f9584acccafa191260dc7a610187d0d40084ebdce7996c31cbf8885",
        "stderr": "3eed8e422d55064e28b86cdda5927785af1afa200d2dd241c4ea45fac5d001ef",
        "compare.csv": "a51efe9e712705e6c6c531711c8a8cbd12b83df6c92c5460fb4cc1a9d5b0bbaa",
        "compare.json": "ccb7602d6266a1b7751ca1f5f845a238c933cc9fea6331711f8a7fb07f29173b",
    },
    "midi": {
        "exit": 0,
        "stdout": "3b18e7ad0773f1b97618e7a6307806538a90efa440158d29573f289ff8f4d14f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranks.csv": "62aba44f4f53d604e9a8c7f3e744efcd7702e1aed12f77874cf5941f852fa46f",
        "report.json": "ad4749a0a051a253f0f523cefbaf53003ea8db1519d09537f58e3cc30670e618",
        "spectrum.csv": "5eb25dfa78343fe65e608e7f34538e302add37e9c3f029338954aa019fca2a94",
    },
    "midi-default": {
        "exit": 0,
        "stdout": "cccf56e2904e20e42aa973a001804a6580e6e21793350846b8356d0e51fadd1c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranks.csv": "eec5a101c3f0f50a98fe84739b94884b0409d6207a98bca8a6a08f70d647f48a",
        "report.json": "8e751bb8dbf3848a7487e900879c2bcf902ecf9559e75c3d1ae7a7d695067199",
        "spectrum.csv": "cfdca8f20f6eb60a30f052d43a33654590fe594a3b0e00fe5a81a9fa63e75a63",
    },
    "sim-alpha-1": {
        "exit": 0,
        "stdout": "905470d446a545f475c701b3094eb9520a0cf494015a7dca5ab886b9744b167b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim_report.json": "4a7d065d6538754cb3d30c1858e1057f98c67520e0b703b64c3c678da6887867",
    },
    "sim-constant": {
        "exit": 0,
        "stdout": "2414fc46109823c27c54125ea36940ad5705eeab55350d3b13093383dd449a69",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim_report.json": "c15b6557c1bb6412899eeb7132ad1edc0ed82da1b328b0bbe16d4e65c2a90e0f",
        "tokens.txt": "8abe740e6adbb73667b9f121c941dd0ad450566af049678404613d74f72b73e4",
    },
    "sim-flat": {
        "exit": 0,
        "stdout": "36ef6aa4cc1e4a5299a8a53c6d836964434f68c5b8b367e93415eafe963b1ea5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim_report.json": "4003cbc8081a3b1b7f53f3f616272bed10c10e062fa014ce96f31e5fd2858bcd",
    },
    "sim-sublinear": {
        "exit": 0,
        "stdout": "57b5d8b450f64a51bb344dc9af9f3d797e2bdb542800ed8e333897a56fdcf577",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim_report.json": "55a5615f5cb6da2023b69e03e030a5e47610f866a4b41bcb5d7a5d89ffefb279",
        "tokens.txt": "f931ac970e680a108dea0ced085af7f8ca3b58f45516894f80f9380ee88c419f",
    },
    "single-note": {
        "exit": 0,
        "stdout": "f5f8807808a77a089aafe33b9cbff794e829da81cd84d77e44dc453b9aaab6ca",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranks.csv": "8ba335a601a1f580ca5241959862068356f5991a49afa5d922bf44a1ab83c657",
        "report.json": "0f7f5915e1d79e4ee39b0ccb5b5872d5eb0ae253fc3c45d72cca3853fbe5288f",
        "spectrum.csv": "8d964139c3057ebacb10e80d1e97cb88a0a67812ba92264bce10da90c5530373",
    },
    "text": {
        "exit": 0,
        "stdout": "2719d1f9f38614adcf01e5163de963e1c83a079a1cb3a1740a5302598e694c70",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranks.csv": "b5a2e0c107a91d3530c4851aacd7ccad8ddaa09c809be1507a0f15c488cef062",
        "report.json": "3e145537c51e4c251fc7db6fb7d0b981b9881590f394b8235681f6d908d80d39",
        "spectrum.csv": "05e72e2c72a1228941b1be7b69d6c9d073536b2300899b67233daca93db2d95e",
    },
    "tokens": {
        "exit": 0,
        "stdout": "95b6b8244b93b84c29b3f2b7d21bce84e8a5fd8aa2da023f35d2686cdc3033a4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranks.csv": "870016ec6a1058c337ffede5a0d43994a5675a6265618c1060618b04aae67c7b",
        "report.json": "954fb27b6e068787e587b83b98cf198f8953881d907e5a973e7b5af8f4494c38",
        "spectrum.csv": "691140f076ac52047b1d3ae5358f3627e63ba34c7a4c91f286dee842bb66b6ee",
    },
}


def _digests(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    out = {
        "exit": code,
        "stdout": hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(captured.err.encode("utf-8")).hexdigest(),
    }
    for path in sorted(Path("o").glob("*")):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, corpus, capsys):
    assert _digests(RUNS[name], capsys) == GOLDEN[name]
