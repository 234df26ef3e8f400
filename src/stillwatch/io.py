"""Text formats for every stream and configuration file.

Tabular data is CSV: UTF-8, LF line endings, comma separator, decimal
point, no quoting and no locale handling. Scenario and configuration files
use a small sectioned key-value format:

    # comment
    [section]
    key = value

Each section fills one dataclass, or a few fields of one, and a (parse,
format) codec per key, chosen by field type, reads the keys off those fields:
their names, their order, their defaults (an omitted key keeps the field
default) and how values are written: a float as the shortest decimal that
reparses to the same double, an int in decimal, a bool as true/false, a
three-float tuple as comma-separated floats, and a Literal string as one of
its choices. A CSV table has no codecs, only one formatter per column; the
trace's columns are the array fields of SimulationTrace.

Samples are only read; counts, events and traces are only written; scenarios
and configs are both. Parsers are strict: the first problem raises ParseError
carrying the line number, and nothing is returned. Serializers emit canonical
text, so serialize(parse(text)) reproduces a canonical scenario or config
byte for byte.

Raw samples, the one format read at length, are parsed in two stages into
one float64 array of t, ax, ay, az rows. numpy reads the body, and the
array's values are checked as arrays. A file that fails any of that is
parsed again line by line, and that parser alone decides: it accepts what
float() reads, which includes every token numpy does, or names the first
bad line. Timestamps are not checked: the sample grid is the counting
pipeline's. The counts and the wide trace are written to a text stream from
blocks given one after another (for counts, the (t, vm, sums) arrays of each
counted block), a sub-block of %-formatted rows at a time, so a writer that
is handed each chunk as it is made holds one chunk's arrays and a sub-block
of rows as floats and text, never the whole table or its text.

Formats:
  samples        t,ax,ay,az                     raw accelerometer stream (read only)
  counts         t,vm,sx,sy,sz                  VM counts and epoch sums (written only)
  events         t,event                        detector event trace (written only)
  trace          t,ax,..,vm,..,timer,motor,...  wide simulation trace (written only)
  scenario       [scenario] [segment]... [motor_feedback] [button]...
  config         [filter] [counts] [detector] [device]
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, fields
from typing import Callable, Iterable, Literal, Sequence, TextIO

import numpy as np

from .detector import DetectorEvent
from . import sim
from .sim import (
    TRACE_COLUMNS,
    AmbientVibration,
    BurstMovement,
    ButtonPress,
    ConfigFile,
    MotorFeedback,
    Rest,
    Scenario,
    Segment,
    SimulationTrace,
    SineMovement,
)

__all__ = [
    "ParseError",
    "ConfigFile",
    "parse_samples",
    "serialize_counts",
    "serialize_events",
    "serialize_trace",
    "parse_scenario",
    "serialize_scenario",
    "parse_config",
    "serialize_config",
]

SAMPLES_HEADER = "t,ax,ay,az"
COUNTS_HEADER = "t,vm,sx,sy,sz"
EVENTS_HEADER = "t,event"
TRACE_HEADER = ",".join(name for name, _ in TRACE_COLUMNS)


class ParseError(ValueError):
    """A validation failure at a specific line of the input text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _float_str(x: float) -> str:
    """Shortest decimal that reparses to the same double."""
    if x == 0.0:
        return "0"
    return repr(float(x))


def _g9(x: float) -> str:
    """9 significant digits, the precision used for derived outputs."""
    if x == 0.0:
        return "0"
    return format(float(x), ".9g")


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{what}: not a number: {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: must be finite, got {token!r}", line)
    return value


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"{what}: not an integer: {token!r}", line) from None


def _parse_bool(token: str, line: int, what: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ParseError(f"{what}: expected true or false, got {token!r}", line)


def _parse_choice(choices: tuple[str, ...], token: str, line: int, what: str) -> str:
    if token not in choices:
        raise ParseError(f"{what} must be one of {', '.join(choices)}, got {token!r}", line)
    return token


# Rows staged and formatted by one %-operation at a time, so the staged
# floats, the Python floats and the text held at once are this many rows',
# not a block's.
_SUB_BLOCK_ROWS = 128


# Counts and trace rows, a block of `sim._BLOCK_ROWS` rows at a time. A column
# constant over the block is formatted once, into the row format; a NaN equals
# nothing, so is per row. Each sub-block's rows of the varying columns are
# copied into one reused float array, whose `+= 0.0` turns -0.0 into 0.0, and
# written by one %-operation: the row format, once per row, over its values in
# row order. So the block is held only as its own columns, and one sub-block
# as floats, Python floats and text. %.9g writes a float as _g9 does, %d a
# flag as 0/1 and an option as its digits, which a float holds exactly only
# up to 2**53.
def _csv_blocks(columns: Sequence[np.ndarray]) -> Iterable[str]:
    """The CSV rows of equal-length columns, a sub-block of rows at a time."""
    for start in range(0, len(columns[0]), sim._BLOCK_ROWS):
        formats, varying = [], []
        for column in columns:
            block = column[start:start + sim._BLOCK_ROWS]
            directive = "%.9g" if block.dtype == np.float64 else "%d"
            if (block == block[0]).all():
                formats.append(directive % (block[0] + 0))
            else:
                if block.dtype == np.int64 and not (abs(block) <= 2**53).all():
                    raise ValueError("integers beyond 2**53 are not written exactly")
                formats.append(directive)
                varying.append(block)
        row, n = ",".join(formats) + "\n", len(block)
        values = np.empty((min(n, _SUB_BLOCK_ROWS), len(varying)))
        for sub in range(0, n, _SUB_BLOCK_ROWS):
            part = values[:n - sub]
            for j, column in enumerate(varying):
                part[:, j] = column[sub:sub + _SUB_BLOCK_ROWS]
            part += 0.0
            yield (row * len(part)) % tuple(part.ravel().tolist())


# --------------------------------------------------------------------------
# Raw sample streams


def parse_samples(text: str | Sequence[bytes]) -> np.ndarray:
    """Parse a raw sample CSV into a float64 (n, 4) array of t, ax, ay, az rows.
    Timestamps are not checked: `CountsPipeline` refuses a row off its sample grid.

    `text` is the CSV's text, or its byte lines as a binary file yields them,
    header first, so a chunk of a file parses under its header, unjoined. numpy
    reads the body and its values are checked as arrays; a file that fails any
    of that is parsed again line by line, which decides: it returns the same
    array or raises on the first bad line, a byte line that is not UTF-8 included.
    """
    lines = text.split("\n") if isinstance(text, str) else text
    if lines[-1:] == [""]:  # after the text's last LF; a byte line keeps its own
        lines.pop()
    # loadtxt reads a line's LF and one "\r" before it, so CRLF files take this
    # path too. A blank first row is refused below; loadtxt would skip it and,
    # with nothing after it, warn that it read no data.
    if len(lines) > 1 and _bare(lines[0]) == SAMPLES_HEADER and _bare(lines[1]):
        body = lines[1:]
        try:
            # No comment character: loadtxt's default would accept `1.0#x`.
            values = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2,
                                encoding="utf-8")
        except ValueError:  # a UnicodeDecodeError too
            values = None
        # loadtxt skips blank lines, which the row count shows.
        if values is not None and values.shape == (len(body), 4) and np.isfinite(values).all():
            return values
    return _parse_sample_lines(text)


def _bare(line: str | bytes) -> str:
    """A line's text without its line end; a byte that is not UTF-8 reads as U+FFFD."""
    text = line if isinstance(line, str) else line.decode("utf-8", "replace")
    return text.rstrip("\r\n")


def _parse_sample_lines(text: str | Sequence[bytes]) -> np.ndarray:
    """`parse_samples` one line at a time. A line is decoded and checked as it
    is reached, each value before any line below it is read, so the first bad
    line raises, whatever its kind, a byte line that is not UTF-8 included."""
    lines = text.split("\n") if isinstance(text, str) else text
    if lines and not lines[-1]:  # after the text's last LF, or an empty file's b""
        lines = lines[:-1]
    if not lines:
        raise ParseError(f"empty input, expected header {SAMPLES_HEADER!r}", 1)
    rows: list[list[float]] = []
    for i, raw in enumerate(lines, start=1):
        if not isinstance(raw, str):
            try:
                raw = raw.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not valid UTF-8: {exc.reason}", i) from None
        line = raw.rstrip("\r")
        if i == 1:
            if line != SAMPLES_HEADER:
                raise ParseError(f"expected header {SAMPLES_HEADER!r}, got {raw!r}", 1)
            continue
        if line == "":
            raise ParseError("blank line in data", i)
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", i)
        rows.append([_parse_float(token.strip(), i, name)
                     for token, name in zip(fields, ("t", "ax", "ay", "az"))])
    return np.array(rows, dtype=float).reshape(-1, 4)


# --------------------------------------------------------------------------
# Counts and detector event outputs


def serialize_counts(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
                     out: TextIO) -> None:
    """Write the counts CSV of `blocks`, (t, vm, sums) blocks of consecutive
    rows, n timestamps and VM counts and the (n, 3) epoch sums, as
    `CountsPipeline.process_block` counts them, to the text stream `out`, one
    block of rows at a time. Each value reads as `_g9` writes it."""
    out.write(COUNTS_HEADER + "\n")
    for t, vm, sums in blocks:
        out.writelines(_csv_blocks([t, vm, *sums.T]))
        del t, vm, sums  # not held while the next is made


def serialize_events(events: Iterable[DetectorEvent]) -> str:
    return EVENTS_HEADER + "\n" + _event_rows(events)


def _event_rows(events: Iterable[DetectorEvent]) -> str:
    """The event CSV's rows without its header, as a stream writes each chunk's."""
    return "".join(f"{_g9(e.t)},{e.kind}\n" for e in events)


# --------------------------------------------------------------------------
# Wide simulation traces

def serialize_trace(blocks: Iterable[SimulationTrace], out: TextIO) -> None:
    """Write the trace CSV of `blocks`, traces of consecutive ticks (a whole
    trace is `[trace]`), to the text stream `out`, one block of rows at a
    time: the text held at once is one block's, whatever the trace's length,
    and a block is written before the next is asked for."""
    out.write(TRACE_HEADER + "\n")
    for block in blocks:
        out.writelines(_csv_blocks([getattr(block, name) for name, _ in TRACE_COLUMNS]))
        del block  # not held while the next is made


# --------------------------------------------------------------------------
# Sectioned key-value files


def _read_sections(text: str) -> list[tuple[int, str, list[tuple[int, str, str]]]]:
    sections: list[tuple[int, str, list[tuple[int, str, str]]]] = []
    current: list[tuple[int, str, str]] | None = None
    for i, raw in enumerate(text.split("\n"), start=1):
        # A lone "\r" would hide what follows it, in a comment say.
        if "\r" in raw.rstrip("\r"):
            raise ParseError("line ends must be LF or CRLF, got a lone CR", i)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ParseError("empty section name", i)
            current = []
            sections.append((i, name, current))
            continue
        if current is None:
            raise ParseError(f"content before any section: {line!r}", i)
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"expected 'key = value', got {line!r}", i)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"expected 'key = value', got {line!r}", i)
        current.append((i, key, value))
    return sections


def _parse_floats3(token: str, line: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in token.split(",")]
    if len(parts) != 3:
        raise ParseError(
            f"{what} needs exactly three comma-separated values, got {token!r}", line
        )
    return tuple(_parse_float(p, line, what) for p in parts)


# (parse, format) of a `key = value` line, by field type.
_Codec = tuple[Callable, Callable]
_SCALARS: dict[object, _Codec] = {
    float: (_parse_float, _float_str),
    int: (_parse_int, str),
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    tuple[float, float, float]: (
        _parse_floats3,
        lambda values: ", ".join(map(_float_str, values)),
    ),
}

_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _keys(cls: type) -> dict[str, _Codec]:
    """The codec of every field of `cls` written as a key, in field order.

    Fields of other types (nested dataclasses, tuples of them) are not keys.
    """
    hints = _hints(cls)
    keys: dict[str, _Codec] = {}
    for f in fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is Literal:
            keys[f.name] = (functools.partial(_parse_choice, typing.get_args(hint)), str)
        elif hint in _SCALARS:
            keys[f.name] = _SCALARS[hint]
    return keys


@functools.cache
def _required(cls: type) -> tuple[str, ...]:
    """The fields of `cls` that have no default."""
    return tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )


def _read(
    cls: type,
    name: str,
    line: int,
    entries: list[tuple[int, str, str]],
    keys: dict[str, _Codec] | None = None,
) -> dict[str, object]:
    """Parse the entries of section [name] at `line` into keyword arguments
    for `cls`. The section allows `keys`, by default the key fields of `cls`.
    Omitted keys are left out, so they keep the dataclass defaults."""
    keys = _keys(cls) if keys is None else keys
    kwargs: dict[str, object] = {}
    for i, key, token in entries:
        if key not in keys:
            raise ParseError(f"unknown key {key!r} in [{name}]", i)
        if key in kwargs:
            raise ParseError(f"duplicate key {key!r} in [{name}]", i)
        kwargs[key] = keys[key][0](token, i, key)
    missing = [key for key in _required(cls) if key not in kwargs]
    if missing:
        raise ParseError(f"missing {', '.join(missing)} in [{name}]", line)
    return kwargs


def _construct(factory, kwargs: dict, line: int):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def _section(name: str, obj: object, attrs: dict[str, str] | None = None) -> list[str]:
    """The lines of section [name]: every key field of `obj`, or those `attrs` maps keys to."""
    codecs = _keys(type(obj))
    attrs = attrs or {key: key for key in codecs}
    return [f"[{name}]"] + [
        f"{key} = {codecs[attr][1](getattr(obj, attr))}" for key, attr in attrs.items()
    ]


def _join_sections(sections: Iterable[list[str]]) -> str:
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


# --------------------------------------------------------------------------
# Scenario files

_SEGMENT_KINDS: dict[str, type] = {
    "rest": Rest,
    "sine": SineMovement,
    "burst": BurstMovement,
    "ambient": AmbientVibration,
}
_SEGMENT_NAMES = {cls: kind for kind, cls in _SEGMENT_KINDS.items()}
_KIND_KEY: dict[str, _Codec] = {"kind": (lambda token, line, what: token, str)}


def _parse_segment(line: int, entries: list[tuple[int, str, str]]) -> Segment:
    kinds = [(i, value) for i, key, value in entries if key == "kind"]
    if not kinds:
        raise ParseError("segment is missing the kind key", line)
    kind_line, kind = kinds[-1]
    if kind not in _SEGMENT_KINDS:
        raise ParseError(
            f"segment kind must be one of {', '.join(sorted(_SEGMENT_KINDS))}, got {kind!r}",
            kind_line,
        )
    cls = _SEGMENT_KINDS[kind]
    kwargs = _read(cls, "segment", line, entries, {**_keys(cls), **_KIND_KEY})
    del kwargs["kind"]
    return _construct(cls, kwargs, line)


def parse_scenario(text: str) -> Scenario:
    scenario: tuple[int, dict] | None = None
    segments: list[Segment] = []
    feedback: MotorFeedback | None = None
    presses: list[ButtonPress] = []
    for line, name, entries in _read_sections(text):
        if name == "scenario":
            if scenario is not None:
                raise ParseError("duplicate [scenario] section", line)
            scenario = (line, _read(Scenario, name, line, entries))
        elif name == "segment":
            segments.append(_parse_segment(line, entries))
        elif name == "motor_feedback":
            if feedback is not None:
                raise ParseError("duplicate [motor_feedback] section", line)
            feedback = _construct(MotorFeedback, _read(MotorFeedback, name, line, entries), line)
        elif name == "button":
            presses.append(_construct(ButtonPress, _read(ButtonPress, name, line, entries), line))
        else:
            raise ParseError(f"unknown section [{name}]", line)
    if scenario is None:
        raise ParseError("missing [scenario] section")
    line, kwargs = scenario
    kwargs.update(
        segments=tuple(segments),
        motor_feedback=feedback or MotorFeedback(),
        button_presses=tuple(presses),
    )
    return _construct(Scenario, kwargs, line)


def serialize_scenario(scenario: Scenario) -> str:
    sections = [_section("scenario", scenario)]
    for segment in scenario.segments:
        lines = _section("segment", segment)
        lines.insert(1, f"kind = {_SEGMENT_NAMES[type(segment)]}")
        sections.append(lines)
    sections.append(_section("motor_feedback", scenario.motor_feedback))
    sections.extend(_section("button", press) for press in scenario.button_presses)
    return _join_sections(sections)


# --------------------------------------------------------------------------
# Configuration files


# Config section -> the ConfigFile field it fills or, for a section of
# ConfigFile's own fields, the field that each of its keys sets.
_CONFIG_SECTIONS: dict[str, str | dict[str, str]] = {
    "filter": {"low_cutoff_hz": "low_cutoff_hz", "high_cutoff_hz": "high_cutoff_hz",
               "order": "filter_order"},
    "counts": "counts",
    "detector": {"count_threshold": "count_threshold"},
    "device": "device",
}
# Keys that an older format set in another section, and their one home now.
_MOVED_KEYS = {
    ("filter", "sample_rate_hz"): "[counts] sample_rate_hz",
    ("detector", "tick_seconds"): "[counts] sample_rate_hz",
    ("detector", "inactivity_seconds"): "[device] inactivity_options",
    ("detector", "vibration_seconds"): "[device] vibration_seconds",
}


def parse_config(text: str) -> ConfigFile:
    """Parse a configuration file; an empty file yields all defaults."""
    kwargs: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line, name, entries in _read_sections(text):
        if name not in _CONFIG_SECTIONS:
            raise ParseError(f"unknown section [{name}]", line)
        if name in lines:
            raise ParseError(f"duplicate section [{name}]", line)
        lines[name] = line
        for i, key, _ in entries:
            if moved := _MOVED_KEYS.get((name, key)):
                raise ParseError(f"{key} is no longer a [{name}] key: set {moved}", i)
        home = _CONFIG_SECTIONS[name]
        if isinstance(home, str):
            cls = _hints(ConfigFile)[home]
            kwargs[home] = _construct(cls, _read(cls, name, line, entries), line)
        else:
            codecs = {key: _keys(ConfigFile)[attr] for key, attr in home.items()}
            values = _read(ConfigFile, name, line, entries, codecs)
            kwargs.update((home[key], value) for key, value in values.items())
    try:
        return ConfigFile(**kwargs)
    except ValueError as exc:
        # Blame the section the failed check is about or, if absent, the rate's.
        raise ParseError(str(exc), lines.get(exc.section, lines.get("counts", 1))) from None


def serialize_config(config: ConfigFile) -> str:
    return _join_sections(
        _section(name, getattr(config, home)) if isinstance(home, str)
        else _section(name, config, home)
        for name, home in _CONFIG_SECTIONS.items()
    )
