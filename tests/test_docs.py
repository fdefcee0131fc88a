import ast
import json
import random
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import notezipf
from notezipf import cli

from _oracles import rank_law_counts
from midibytes import end_of_track, note_off, note_on, simple_file, track_chunk
from test_golden import RUNS, corpus  # noqa: F401  (corpus is the golden runs' fixture)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_imports():
    """Names in the README's ``from notezipf import (...)`` block."""
    block = re.search(r"from notezipf import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block, "README has no 'from notezipf import (...)' block"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_readme_library_names_resolve_from_package_root():
    names = readme_imports()
    assert names
    for name in names:
        assert hasattr(notezipf, name), name
    assert set(notezipf.__all__) == names | {"NoteZipfError"}


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "notezipf").glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top == "notezipf", (source.name, module)


def test_runtime_modules_use_every_name_they_import():
    for source in sorted((ROOT / "src" / "notezipf").glob("*.py")):
        if source.name == "__init__.py":  # imports only to re-export
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (source.name, sorted(imported - used))


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # a sonata of 240 (pitch, duration) tokens whose counts follow the rank law
    counts = rank_law_counts(0.4, 240, 300.0)
    ticks = (96, 48, 144, 24)
    tokens = [(36 + i % 60, ticks[i // 60]) for i, n in enumerate(counts) for _ in range(n)]
    random.Random(1).shuffle(tokens)
    events = [e for pitch, length in tokens for e in (note_on(0, pitch), note_off(length, pitch))]
    (tmp_path / "sonata.mid").write_bytes(simple_file(96, track_chunk(*events, end_of_track())))
    example = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


# `name {key, ...}` names a JSON object; `name.csv` columns `a,b` gives a CSV header
_BLOCK = re.compile(r"`([\w.]+) \{([^}]*)\}`")
_COLUMNS = re.compile(r"`([\w.]+\.csv)` columns `([^`]+)`")


def readme_schemas():
    """The README's output schemas: ({file: {object: keys}}, {file: CSV header}).

    An object named after a .json file opens that file, and the objects
    after it, up to the next file, are nested in it.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("## Output files and schemas\n", 1)[1].split("\n## ", 1)[0]
    blocks: dict[str, dict[str, set[str]]] = {}
    for name, keys in _BLOCK.findall(section):
        if name.endswith(".json"):
            current = blocks[name] = {}
        current[name] = {key.strip() for key in keys.split(",")}
    return blocks, dict(_COLUMNS.findall(section))


@pytest.fixture
def golden_outputs(corpus):  # noqa: F811
    """Every file the golden runs write, by file name."""
    outputs = defaultdict(list)
    for name, argv in RUNS.items():
        assert argv[-2:] == ["--out", "o"]
        cli.main([*argv[:-1], name])
        for path in (corpus / name).glob("*"):
            outputs[path.name].append(path)
    return outputs


def test_readme_schemas_are_the_keys_the_cli_writes(golden_outputs):
    blocks: dict[str, dict[str, set[str]]] = {}
    headers = {}
    for name, paths in golden_outputs.items():
        if name.endswith(".json"):
            found = blocks[name] = defaultdict(set)
            for path in paths:  # keys over every run, as a skipped block is null
                payload = json.loads(path.read_text(encoding="utf-8"))
                found[name] |= set(payload)
                for key, value in payload.items():
                    for item in value if isinstance(value, list) else [value]:
                        if isinstance(item, dict):
                            found[key] |= set(item)
        elif name.endswith(".csv"):
            headers[name] = {path.read_text(encoding="utf-8").split("\n", 1)[0] for path in paths}
    readme_blocks, readme_columns = readme_schemas()
    assert readme_blocks == {name: dict(found) for name, found in blocks.items()}
    assert {name: {header} for name, header in readme_columns.items()} == headers
    assert readme_columns["compare.csv"] == ",".join(cli._COMPARE_COLUMNS)
