"""Run the notezipf CLI in this interpreter with a span around each layer call.

    PYTHONPATH=src python3 bench/traced.py SPANS_JSON RUN_ID CLI_ARG...

Every notezipf module attribute that refers to a function listed in LAYERS is
replaced by a wrapper that records a span, so the CLI runs its usual code path
in its usual order and the timing lives in this file, not in the program.
Reads and writes through ``pathlib`` in notezipf modules become ``cli.read``
and ``cli.write`` spans.  A span holds its name, start, end, parent id, run id
and the counts listed for it.  Spans stay in memory until the CLI returns and
are then written to SPANS_JSON.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time

# (span name, module, function, counts taken from (args, result))
LAYERS = [
    ("smf.extract_notes", "notezipf.smf", "extract_notes", None),
    ("smf.parse_smf", "notezipf.smf", "parse_smf", lambda args, r: {"bytes": len(args[0])}),
    ("smf.pair_notes", "notezipf.smf", "pair_notes", lambda args, r: {"notes": len(r[0])}),
    ("notes.tokenize", "notezipf.notes", "tokenize", None),
    ("text.tokenize_text", "notezipf.text", "tokenize_text", lambda args, r: {"words": len(r)}),
    ("stats.count_tokens", "notezipf.stats", "count_tokens", lambda args, r: {"V": r.V, "T": r.T}),
    ("stats.spectrum", "notezipf.stats", "spectrum", None),
    ("stats.dense_spectrum_window", "notezipf.stats", "dense_spectrum_window", None),
    ("stats.fit_spectrum_gamma", "notezipf.stats", "fit_spectrum_gamma", None),
    ("stats.fit_rank_slope", "notezipf.stats", "fit_rank_slope", None),
    ("fit.fit_nu", "notezipf.fit", "fit_nu", None),
    ("fit.solve_n0", "notezipf.fit", "solve_n0", None),
    ("simulate.simulate", "notezipf.simulate", "simulate", lambda args, r: {"steps": r.T}),
    ("simulate.verify_zipf", "notezipf.simulate", "verify_zipf", None),
    ("cli.write", "notezipf.cli", "_write_analysis", None),
    ("cli.write", "notezipf.cli", "_write_json", None),
]


class Tracer:
    """Spans of one traced run, kept in memory in the order they opened."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if count is not None:
            # A count that no longer fits the program's return types is dropped,
            # not fatal: the timings stay valid without it.
            try:
                span.update(count(args, result))
            except (AttributeError, TypeError, IndexError):
                pass
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def _traced_path(tracer: Tracer) -> type:
    class TracedPath(type(pathlib.Path())):
        def read_bytes(self):
            return tracer.call("cli.read", super().read_bytes)

        def read_text(self, *args, **kwargs):
            return tracer.call("cli.read", super().read_text, args, kwargs)

        def write_bytes(self, *args, **kwargs):
            return tracer.call("cli.write", super().write_bytes, args, kwargs)

        def write_text(self, *args, **kwargs):
            return tracer.call("cli.write", super().write_text, args, kwargs)

    return TracedPath


def install(tracer: Tracer) -> None:
    """Point every loaded notezipf reference to a layer function at its wrapper."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "notezipf"]
    for span_name, module_name, function_name, count in LAYERS:
        original = getattr(sys.modules.get(module_name), function_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    traced_path = _traced_path(tracer)
    for module in modules:
        if vars(module).get("Path") is pathlib.Path:
            module.Path = traced_path


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    from notezipf import cli  # loads every module the CLI calls into

    install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (argv,))
    finally:
        with open(spans_path, "w", encoding="utf-8") as sink:
            json.dump(tracer.spans, sink)


if __name__ == "__main__":
    raise SystemExit(main())
