"""Command-line interface.

Subcommands:
  counts         raw sample CSV -> VM counts CSV
  detect         raw sample CSV -> detector event CSV
  simulate       scenario file -> wide trace CSV (and optional event CSV)
  design-filter  print band-pass coefficients, one section per line
  figure3        run the canonical burst-then-rest scenario and write the
                 acceleration/counts/timer series and events for plotting

All outputs are deterministic for identical inputs. Exit codes: 0 on success,
2 for usage errors, 1 for I/O or validation failures (one-line diagnostic on
stderr, with a line number where the input is to blame).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as formats
from .counts import CountsPipeline, RawSample
from .detector import InactivityDetector
from .filters import FilterSpec, design_bandpass_cascade
from .sim import canonical_scenario, run

__all__ = ["main", "app"]


def _read_text(path: str) -> str:
    # Line ends reach the parsers as written: they alone judge them.
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_config(path: str | None) -> formats.ConfigFile:
    if path is None:
        return formats.ConfigFile()
    return formats.parse_config(_read_text(path))


def _count_file(path: str, config: formats.ConfigFile):
    """Parse a sample file and count it as one block: (t, vm, epoch sums). A
    refused block is counted again row by row to raise ParseError on the first
    refused line, data row i being line i + 2 (`parse_samples` takes no blank lines)."""
    block = formats.parse_samples(_read_text(path), config.counts.sample_rate_hz)
    pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
    try:
        vm, sums = pipeline.process_block(block)
    except ValueError:  # which left the pipeline untouched: find the line row by row
        for i, row in enumerate(block.tolist()):
            try:
                pipeline.process_sample(RawSample(*row))
            except ValueError as exc:
                raise formats.ParseError(str(exc), i + 2) from None
        raise
    return block[:, 0], vm, sums


def _cmd_counts(args: argparse.Namespace) -> int:
    t, vm, sums = _count_file(args.samples, _load_config(args.config))
    rows = zip(t.tolist(), vm.tolist(), *sums.T.tolist())
    _write_output(formats.serialize_counts(rows), args.output)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    t, vm, _ = _count_file(args.samples, config)
    detector = InactivityDetector(config.detector)
    events = []
    for tk, value in zip(t.tolist(), vm.tolist()):
        events.extend(detector.tick(value, tk).events)
    _write_output(formats.serialize_events(events), args.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    scenario = formats.parse_scenario(_read_text(args.scenario))
    trace = run(scenario, config)
    _write_output(formats.serialize_trace(trace), args.output)
    if args.events is not None:
        _write_output(formats.serialize_events(trace.events), args.events)
    return 0


def _cmd_design_filter(args: argparse.Namespace) -> int:
    spec = FilterSpec(args.fs, args.low, args.high)
    sections = design_bandpass_cascade(spec, args.order)
    for c in sections:
        print(" ".join(format(v, ".17g") for v in (c.b0, c.b1, c.b2, c.a1, c.a2)))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = canonical_scenario()
    trace = run(scenario)
    _write_output(formats.serialize_trace(trace), str(out_dir / "figure3_trace.csv"))
    _write_output(formats.serialize_events(trace.events), str(out_dir / "figure3_events.csv"))
    _write_output(formats.serialize_scenario(scenario), str(out_dir / "figure3_scenario.txt"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stillwatch",
        description="Activity-count pipeline and inactivity-alert watch simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="convert a raw sample CSV to VM counts")
    p.add_argument("samples", help="input CSV with header t,ax,ay,az")
    p.add_argument("--config", help="configuration file")
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("detect", help="run the inactivity detector over a sample CSV")
    p.add_argument("samples", help="input CSV with header t,ax,ay,az")
    p.add_argument("--config", help="configuration file")
    p.add_argument("-o", "--output", help="event CSV path (default: stdout)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="run a scenario through the full watch model")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--config", help="configuration file")
    p.add_argument("-o", "--output", help="trace CSV path (default: stdout)")
    p.add_argument("--events", help="also write the event CSV to this path")
    p.set_defaults(func=_cmd_simulate)

    stock = formats.ConfigFile()
    spec = stock.filter_spec
    p = sub.add_parser("design-filter", help="print band-pass coefficients b0 b1 b2 a1 a2")
    p.add_argument("--fs", type=float, default=spec.sample_rate_hz, help="sample rate, Hz")
    p.add_argument("--low", type=float, default=spec.low_cutoff_hz, help="low cutoff, Hz")
    p.add_argument("--high", type=float, default=spec.high_cutoff_hz, help="high cutoff, Hz")
    p.add_argument(
        "--order", type=int, default=stock.filter_order, help="overall filter order (even)"
    )
    p.set_defaults(func=_cmd_design_filter)

    p = sub.add_parser(
        "figure3",
        help="run the canonical burst-then-rest scenario and write plot-ready series",
    )
    p.add_argument("-o", "--output-dir", default=".", help="directory for the output files")
    p.set_defaults(func=_cmd_figure3)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except formats.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())
