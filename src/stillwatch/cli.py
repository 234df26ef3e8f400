"""Command-line interface.

Subcommands:
  counts         raw sample CSV -> VM counts CSV
  detect         raw sample CSV -> detector event CSV
  simulate       scenario file -> wide trace CSV (and optional event CSV)
  design-filter  print band-pass coefficients, one section per line
  figure3        run the canonical burst-then-rest scenario and write the
                 acceleration/counts/timer series and events for plotting

`counts` and `detect` read the sample file in chunks of lines: a chunk's byte
lines are parsed, then dropped, its array is counted as one block, and its
rows or events are written before the next chunk is read, so their memory
does not grow with the file or its events. A fault found parsing or counting names the
file's first bad line, with no chunk run twice, and nothing is written.
`simulate` writes each chunk of ticks, and the events emitted in it, as it is
run and drops it before the next, so its memory does not grow with the
scenario or its events. The rows of every command but `design-filter` go to
temporary files, copied to the outputs (for `simulate` the trace, then the
events) only once the whole input has run, so a refusal mid-way (a sample past
the filters' input limit) leaves no output behind.

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
def _staged_output(path: str | Path | None) -> Iterator[TextIO]:
    """A temporary text stream for an output written as its input is run,
    copied to the file at `path` (as bytes, with no decoding), or to stdout,
    only once the whole run has succeeded: a refusal mid-way leaves no output."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as staged:
        yield staged
        staged.seek(0)  # flushes the text into `staged.buffer`
        if path is None:
            shutil.copyfileobj(staged, sys.stdout)
        else:
            with open(path, "wb") as out:
                shutil.copyfileobj(staged.buffer, out)


def _load_config(path: str | None) -> formats.ConfigFile:
    if path is None:
        return formats.ConfigFile()
    return formats.parse_config(_read_text(path))


def _count_file(path: str, config: formats.ConfigFile):
    """Count a sample file in chunks of `sim._BLOCK_ROWS` lines, yielding each chunk's
    (t, vm, epoch sums); memory stays that of one chunk, whatever the file's length.

    Lines end at LF alone, as in `parse_samples`, which reads each chunk's byte
    lines under the file's header line. A parsed chunk is held once, as its
    array: its lines are dropped before it is counted. A refusal names the
    file's first bad line, whatever its kind. A row that counting refuses,
    off the sample grid or beyond the filters' input limit, is named by its
    index in the chunk. A chunk's first line that does not parse, which
    `parse_samples` names, is raised only once the lines above it are
    counted, so a row refused among them wins. A header fault is line 1.
    """
    pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
    with open(path, "rb") as fh:
        header, first = fh.readline(), 2  # `first`: the number of the chunk's first line
        while True:
            lines, fault = [header, *itertools.islice(fh, sim._BLOCK_ROWS)], None
            try:
                block = formats.parse_samples(lines)
            except formats.ParseError as exc:
                if exc.line == 1:  # the header, no row above it
                    raise
                fault = formats.ParseError(exc.message, first + exc.line - 2)
                block = formats.parse_samples(lines[:exc.line - 1])  # the rows above it
            del lines
            try:
                vm, sums = pipeline.process_block(block)
            except ValueError as exc:  # the pipeline is as it was
                raise formats.ParseError(str(exc), first + exc.row) from None
            if fault is not None:
                raise fault
            yield block[:, 0], vm, sums
            if len(block) < sim._BLOCK_ROWS:
                return
            first += len(block)
            del block, vm, sums  # the caller drops its own before asking for the next


def _cmd_counts(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    with _staged_output(args.output) as out:
        formats.serialize_counts(_count_file(args.samples, config), out)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    detector = InactivityDetector(config.detector)
    with _staged_output(args.output) as out:
        out.write(formats.EVENTS_HEADER + "\n")
        for t, vm, _ in _count_file(args.samples, config):
            out.write(formats._event_rows(detector.process_block(vm, t)))
            del t, vm, _  # not held while the next chunk is read
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    scenario = formats.parse_scenario(_read_text(args.scenario))
    with contextlib.ExitStack() as staged:
        # Entered last, the trace is copied out first, then the events.
        events = None if args.events is None else staged.enter_context(
            _staged_output(args.events))
        trace = staged.enter_context(_staged_output(args.output))
        if events is not None:
            events.write(formats.EVENTS_HEADER + "\n")

        def blocks():
            for block in sim._run_blocks(scenario, config):
                if events is not None:
                    events.write(formats._event_rows(block.events))
                yield block
                del block  # not held while the next chunk is run

        formats.serialize_trace(blocks(), trace)
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
    with _staged_output(out_dir / "figure3_trace.csv") as out:
        formats.serialize_trace([trace], out)
    with _staged_output(out_dir / "figure3_events.csv") as out:
        out.write(formats.serialize_events(trace.events))
    with _staged_output(out_dir / "figure3_scenario.txt") as out:
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


if __name__ == "__main__":
    app()
