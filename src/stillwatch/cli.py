"""Command-line interface.

Subcommands:
  counts         raw sample CSV -> VM counts CSV
  detect         raw sample CSV -> detector event CSV
  simulate       scenario file -> wide trace CSV (and optional event CSV)
  design-filter  print band-pass coefficients, one section per line
  figure3        run the canonical burst-then-rest scenario and write the
                 acceleration/counts/timer series and events for plotting

`counts` and `detect` read the sample file in chunks of lines and count each
as one block, so their memory does not grow with the file; a failure names the
file's first bad line and writes no output.

All outputs are deterministic for identical inputs. Exit codes: 0 on success,
2 for usage errors, 1 for I/O or validation failures (one-line diagnostic on
stderr, with a line number where the input is to blame).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import io as formats
from .counts import CountsPipeline
from .detector import InactivityDetector
from .filters import FilterSpec, design_bandpass_cascade
from . import sim
from .sim import canonical_scenario, run

__all__ = ["main", "app"]


def _read_text(path: str) -> str:
    # Line ends reach the parsers as written: they alone judge them.
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@contextlib.contextmanager
def _open_output(path: str | Path | None) -> Iterator[TextIO]:
    """The text stream an output goes to: the file at `path`, or stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _load_config(path: str | None) -> formats.ConfigFile:
    if path is None:
        return formats.ConfigFile()
    return formats.parse_config(_read_text(path))


def _count_file(path: str, config: formats.ConfigFile):
    """Count a sample file in chunks of `sim._BLOCK_ROWS` lines, yielding each chunk's
    (t, vm, epoch sums); memory stays that of one chunk, whatever the file's length.

    Lines end at LF alone, as in `parse_samples`, which reads each chunk under
    the file's header. A refused chunk, which left the pipeline as it was, is
    run again one line at a time to raise ParseError on the first bad line of
    the file; a header fault is line 1.
    """
    rate = config.counts.sample_rate_hz
    pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
    with open(path, "rb") as fh:
        header = _decode(fh.readline(), 1)
        first = 2  # the chunk's first line
        while True:
            chunk = list(itertools.islice(fh, sim._BLOCK_ROWS))
            try:
                block = formats.parse_samples(header + b"".join(chunk).decode("utf-8"), rate)
                vm, sums = pipeline.process_block(block)
            except ValueError:
                for line, raw in enumerate(chunk, start=first):
                    try:
                        text = header + _decode(raw, line)
                        pipeline.process_block(formats.parse_samples(text, rate))
                    except formats.ParseError as exc:  # on line 1, the header, or on this one
                        at = 1 if exc.line == 1 else line
                        raise formats.ParseError(exc.message, at) from None
                    except ValueError as exc:
                        raise formats.ParseError(str(exc), line) from None
                raise
            yield block[:, 0], vm, sums
            if len(chunk) < sim._BLOCK_ROWS:
                return
            first += len(chunk)


def _decode(line: bytes, number: int) -> str:
    """The text of a line; a byte that is not UTF-8 fails on the line's number."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise formats.ParseError(f"not valid UTF-8: {exc.reason}", number) from None


def _cmd_counts(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    # Rows go to a temporary file, so a refused line leaves no output behind.
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as rows:
        rows.write(formats.serialize_counts(()))
        for t, vm, sums in _count_file(args.samples, config):
            text = formats.serialize_counts(np.column_stack((t, vm, sums)))
            rows.write(text.partition("\n")[2])  # the rows, after their header
        rows.seek(0)
        with _open_output(args.output) as out:
            shutil.copyfileobj(rows, out)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    detector = InactivityDetector(config.detector)
    events = []
    for t, vm, _ in _count_file(args.samples, config):
        events += detector.process_block(vm, t)
    with _open_output(args.output) as out:
        out.write(formats.serialize_events(events))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    scenario = formats.parse_scenario(_read_text(args.scenario))
    trace = run(scenario, config)
    with _open_output(args.output) as out:
        formats.serialize_trace(trace, out)
    if args.events is not None:
        with _open_output(args.events) as out:
            out.write(formats.serialize_events(trace.events))
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
    with _open_output(out_dir / "figure3_trace.csv") as out:
        formats.serialize_trace(trace, out)
    with _open_output(out_dir / "figure3_events.csv") as out:
        out.write(formats.serialize_events(trace.events))
    with _open_output(out_dir / "figure3_scenario.txt") as out:
        out.write(formats.serialize_scenario(scenario))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: a build takes about a millisecond, and what it
    # leaves is cyclic garbage, which only a collection of the heap frees.
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
    except (OSError, ValueError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())
