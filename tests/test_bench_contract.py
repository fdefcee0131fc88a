"""What the benchmark in bench/ needs of the package.

bench/traced.py hooks layer functions by module and name, and
bench/workloads.py checks each run's nu against fit_nu on its own count
table.  A rename or a changed return type would break the benchmark, not the
tests, so both uses are exercised here.  This file only reads bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from notezipf.fit import fit_nu
from notezipf.smf import SmfDiagnostics, pair_notes, parse_smf
from notezipf.stats import count_tokens

from midibytes import end_of_track, note_off, note_on, simple_file, track_chunk

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", _load("traced").LAYERS, ids=lambda layer: f"{layer[1]}.{layer[2]}")
def test_traced_layer_resolves(layer):
    _, module_name, function_name, _ = layer
    assert callable(getattr(importlib.import_module(module_name), function_name, None))


def test_count_table_fields_the_trace_reads():
    count = {name: count for name, _, _, count in _load("traced").LAYERS}["stats.count_tokens"]
    stream = [3, 1, 3, 2, 3, 1]
    assert count((stream,), count_tokens(stream)) == {"V": 3, "T": 6}


def test_smf_fields_the_trace_reads():
    counts = {name: count for name, _, _, count in _load("traced").LAYERS}
    data = simple_file(
        96, track_chunk(note_on(0, 60), note_on(0, 64), note_off(96, 60), end_of_track(48))
    )
    header, tracks, diag = parse_smf(data)
    assert counts["smf.parse_smf"]((data,), (header, tracks, diag)) == {"bytes": len(data)}
    # one note closes inside the track, the other at its end
    args = (tracks, SmfDiagnostics())
    assert counts["smf.pair_notes"](args, pair_notes(*args)) == {"notes": 2}


def test_workload_check_fits_a_list_of_ints():
    stream = [1] * 9 + [2] * 4 + [3] * 2 + [4, 5, 6]
    expected = _load("workloads").expected_table(stream)
    assert (expected.V, expected.T) == (6, 18)
    assert expected.nu == fit_nu(count_tokens(stream)).nu
