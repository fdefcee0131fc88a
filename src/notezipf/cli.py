"""Command-line interface: analyze corpora, run simulations, compare files.

All outputs are deterministic for fixed inputs, options, and seed: reports
are JSON with sorted keys, CSV rows are emitted in a defined order, floats
are rendered with repr (shortest round-trip decimal), and nothing
time- or environment-dependent is ever written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .analysis import Analysis, analyze_tokens, read_grid, read_tokens
from .errors import DegenerateTable, InsufficientSupport, NoRoot, NoteZipfError
from .fit import predict_n
from .notes import DEFAULT_GRID, DurationGrid
from .simulate import SimConfig, simulate, verify_zipf


def _load_grid(args: argparse.Namespace) -> DurationGrid | None:
    """The --grid file's grid, or the default grid without one.

    Returns None after printing why the file is unusable, before any input
    is read, so a bad grid is one error per command.
    """
    if not args.grid:
        return DEFAULT_GRID
    try:
        return read_grid(args.grid)
    except (NoteZipfError, OSError, ValueError) as exc:
        print(f"error: {args.grid}: {exc}", file=sys.stderr)
        return None


_FIT_COLUMNS = ("nu", "z", "n0", "a", "b", "sse_log", "chi2", "dof", "p_value", "boundary_warning")
_COMPARE_COLUMNS = ("path", "kind", "V", "T", *_FIT_COLUMNS)
_MIDI_DIAGNOSTICS = (
    "trailing_bytes", "missing_end_of_track", "unmatched_note_ons", "orphan_note_offs",
    "zero_length_notes", "dropped_short", "out_of_grid",
)
_CONFIG_KEYS = ("mode", "steps", "seed", "alpha", "nu")


def _payload(analysis: Analysis) -> dict:
    """The corpus, fit, spectrum_fit and rank_tail blocks of one analysis, and
    its warnings: only the boundary warning, if the fitted nu has one.

    Every output projects its estimates from this dict, so the column and key
    lists are decided here and in _FIT_COLUMNS, not by the estimator records.
    """
    fit, gamma, tail = analysis.fit, analysis.gamma, analysis.tail
    bound = fit is not None and fit.boundary_warning
    return {
        "corpus": {"V": analysis.table.V, "T": analysis.table.T},
        "fit": None if fit is None else {column: getattr(fit, column) for column in _FIT_COLUMNS},
        "spectrum_fit": (
            {"gamma": gamma.slope, "stderr": gamma.stderr, "n_max": analysis.n_max}
            if gamma is not None
            else None
        ),
        "rank_tail": {"z": tail.slope, "stderr": tail.stderr} if tail is not None else None,
        "warnings": [f"fitted exponent {fit.nu} touches the search bounds"] if bound else [],
    }


def _analyze(path: str, args: argparse.Namespace, grid: DurationGrid) -> tuple[dict, Analysis]:
    """Read and analyze one file; returns its report.json payload and the analysis.

    Raises NoteZipfError subclasses, OSError or ValueError when no report can
    be produced at all; skipped estimates become warnings in the report.
    """
    kind, tokens, diagnostics = read_tokens(path, args.kind, grid, args.min_ticks)
    analysis = analyze_tokens(tokens, residuals=args.residuals, n_max=args.n_max)
    report = _payload(analysis)
    # a boundary warning needs a fit, so it never comes with "rank-law fit skipped"
    for name, error in (
        ("rank-law", analysis.fit_error),
        ("spectrum", analysis.gamma_error),
        ("rank-tail", analysis.tail_error),
    ):
        if error is not None:
            report["warnings"].append(f"{name} fit skipped: {error}")
    report["source"] = {"path": path, "kind": kind}
    report["options"] = {
        "kind": args.kind,
        "min_ticks": args.min_ticks,
        "grid": args.grid if args.grid else "default",
        "residuals": args.residuals,
        "spectrum_n_max": analysis.n_max,
    }
    report["diagnostics"] = {key: diagnostics[key] for key in _MIDI_DIAGNOSTICS if diagnostics}
    return report, analysis


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cell(value: object) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_analysis(report: dict, analysis: Analysis, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    fit = analysis.fit
    ranks = enumerate(analysis.table.counts(), start=1)
    # one f-string per row: V rows, so _csv's per-cell calls would dominate
    if fit is None:
        rows = (f"{rank},{observed}," for rank, observed in ranks)
    else:
        rows = (f"{rank},{observed},{predict_n(rank, fit)!r}" for rank, observed in ranks)
    (out_dir / "ranks.csv").write_text(
        "\n".join(["rank,observed,predicted", *rows]) + "\n", encoding="utf-8"
    )
    (out_dir / "spectrum.csv").write_text(_csv(["n", "w"], analysis.spec.items()), encoding="utf-8")


def _summary_line(report: dict) -> str:
    source, corpus, fit = report["source"], report["corpus"], report["fit"]
    parts = [f"{source['path']}: kind={source['kind']} V={corpus['V']} T={corpus['T']}"]
    if fit is not None:
        parts.append(f"nu={fit['nu']!r} p={fit['p_value']!r}")
    for warning in report["warnings"]:
        parts.append(f"[{warning}]")
    return " ".join(parts)


def _cmd_analyze(args: argparse.Namespace) -> int:
    grid = _load_grid(args)
    if grid is None:
        return 1
    try:
        report, analysis = _analyze(args.path, args, grid)
    except (NoteZipfError, OSError, ValueError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    _write_analysis(report, analysis, Path(args.out))
    print(_summary_line(report))
    return 0


def _compare_row(report: dict) -> dict:
    values = {**report["source"], **report["corpus"], **(report["fit"] or {})}
    return {column: values.get(column) for column in _COMPARE_COLUMNS}


def _compare_one(path: str, args: argparse.Namespace, grid: DurationGrid) -> tuple:
    """(path, compare row, None), or (path, None, message) when the file fails.

    Module-level with picklable arguments, so a pool worker can run it under
    any start method.
    """
    try:
        return path, _compare_row(_analyze(path, args, grid)[0]), None
    except (NoteZipfError, OSError, ValueError) as exc:
        return path, None, str(exc)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _compare_results(paths: list[str], args: argparse.Namespace, grid: DurationGrid):
    """_compare_one of every path, in input order.

    With n = min(usable CPUs, files) > 1, file i goes to a pool of n - 1
    worker processes unless i % n == 0; this process analyzes those files
    meanwhile.  A file whose worker died is analyzed again here, so the
    results are the serial loop's.  With n == 1 the files are analyzed
    lazily in this process and no pool module is imported.
    """
    n = min(_usable_cpus(), len(paths))
    if n == 1:
        return (_compare_one(path, args, grid) for path in paths)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list = [None] * len(paths)
    with ProcessPoolExecutor(n - 1) as pool:
        try:
            futures = {
                i: pool.submit(_compare_one, path, args, grid)
                for i, path in enumerate(paths)
                if i % n
            }
        except BrokenProcessPool:  # a worker died before every file was handed out
            futures = {}
        for i in range(0, len(paths), n):
            results[i] = _compare_one(paths[i], args, grid)
        for i, future in futures.items():
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                pass  # analyzed again below, once the pool is shut down
    return [result or _compare_one(path, args, grid) for path, result in zip(paths, results)]


def _cmd_compare(args: argparse.Namespace) -> int:
    grid = _load_grid(args)
    if grid is None:
        return 1
    rows: list[dict] = []
    errors: list[dict] = []
    for path, row, error in _compare_results(args.paths, args, grid):
        if error is None:
            rows.append(row)
        else:
            errors.append({"path": path, "error": error})
            print(f"error: {path}: {error}", file=sys.stderr)
    rows.sort(key=lambda r: (r["nu"] is None, r["nu"] if r["nu"] is not None else 0.0, r["path"]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "compare.json", {"rows": rows, "errors": errors})
    csv_text = _csv(_COMPARE_COLUMNS, (row.values() for row in rows))
    # a path whose bytes are not UTF-8 is written as those bytes
    (out_dir / "compare.csv").write_text(csv_text, encoding="utf-8", errors="surrogateescape")
    for row in rows:
        nu = row["nu"]
        print(f"{row['path']}: V={row['V']} T={row['T']} nu={nu!r}")
    return 0 if rows else 1


_TOKEN_CHUNK = 65536


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = SimConfig(
            mode=args.mode, steps=args.steps, seed=args.seed, alpha=args.alpha, nu=args.nu
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = simulate(config)
    verify = None
    try:
        estimates = _payload(verify_zipf(result, n_max=args.n_max))
    except (InsufficientSupport, DegenerateTable, NoRoot) as exc:
        warnings = [f"verification skipped: {exc}"]
    else:  # verify_zipf raised unless both the spectrum and the rank-law fit ran
        fit, warnings = estimates["fit"], estimates["warnings"]
        verify = {
            "gamma_hat": estimates["spectrum_fit"]["gamma"],
            "z_hat": fit["z"],
            "nu_hat": fit["nu"],
            **estimates["corpus"],
            "boundary_warning": fit["boundary_warning"],
        }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": {
            key: getattr(config, key) for key in _CONFIG_KEYS if getattr(config, key) is not None
        },
        "V": result.V,
        "T": result.T,
        "verify": verify,
        "warnings": warnings,
    }
    _write_json(out_dir / "sim_report.json", payload)
    if args.emit_tokens:  # in chunks, so the stream is never one string
        tokens = result.tokens
        names = [str(i) for i in range(result.V + 1)]  # ids are dense in 1..V
        with (out_dir / "tokens.txt").open("w", encoding="utf-8") as stream:
            for start in range(0, len(tokens), _TOKEN_CHUNK):
                chunk = tokens[start : start + _TOKEN_CHUNK]
                stream.write("\n".join(map(names.__getitem__, chunk)) + "\n")
    summary = f"mode={config.mode} steps={config.steps} seed={config.seed} V={result.V}"
    if verify is not None:
        summary += f" nu_hat={verify['nu_hat']!r} gamma_hat={verify['gamma_hat']!r}"
    print(summary)
    return 0


def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind", choices=["auto", "midi", "text", "tokens"], default="auto",
        help="input kind; auto detects MIDI by magic bytes and falls back to text",
    )
    parser.add_argument("--min-ticks", type=int, default=0, help="drop notes shorter than this")
    parser.add_argument("--grid", default=None, help="duration grid file, one rational per line")
    parser.add_argument("--residuals", choices=["log", "linear"], default="log")
    parser.add_argument(
        "--n-max", type=int, default=None,
        help="spectrum fit cutoff (default: adaptive dense window)",
    )
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notezipf",
        description="Rank-frequency analysis of note and word usage, with a "
        "one-parameter rank-law fit and a generative simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one MIDI/text/token file")
    p_analyze.add_argument("path")
    _add_analysis_options(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare", help="analyze several files and rank them by nu")
    p_compare.add_argument("paths", nargs="+")
    _add_analysis_options(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="run the generative process and verify its statistics")
    p_sim.add_argument("--mode", choices=["constant", "sublinear"], required=True)
    p_sim.add_argument("--alpha", type=float, default=None, help="innovation rate (constant mode)")
    p_sim.add_argument("--nu", type=float, default=None, help="growth exponent (sublinear mode)")
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-max", type=int, default=None)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--emit-tokens", action="store_true", help="also write the token stream")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a path whose bytes are not UTF-8 is printed as those bytes
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="surrogateescape")
    try:
        return args.func(args)
    except OSError as exc:  # input errors are caught per file; this is a write to --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
