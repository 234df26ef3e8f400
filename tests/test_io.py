import math
import re
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stillwatch.io
from stillwatch import (
    AmbientVibration,
    BurstMovement,
    ButtonPress,
    CountsConfig,
    CountsPipeline,
    DetectorConfig,
    DetectorEvent,
    Device,
    DeviceConfig,
    FilterSpec,
    MotorFeedback,
    RawSample,
    Rest,
    Scenario,
    SineMovement,
    canonical_scenario,
    design_bandpass_cascade,
    run,
)
from stillwatch.io import (
    TRACE_HEADER,
    ConfigFile,
    ParseError,
    _format_rows,
    _g9,
    _parse_sample_lines,
    parse_config,
    parse_events,
    parse_samples,
    parse_scenario,
    serialize_config,
    serialize_events,
    serialize_samples,
    serialize_scenario,
)
from stillwatch.sim import TRACE_COLUMNS, SimulationTrace

from conftest import counts_text, trace_text


def random_samples(rng, n):
    t0 = float(rng.integers(0, 100))
    return [
        RawSample(
            t0 + k / 100.0,
            float(rng.normal(0, 1)),
            float(rng.normal(0, 1)),
            float(rng.normal(0, 1)),
        )
        for k in range(n)
    ]


def random_scenario(rng):
    duration = float(rng.integers(1, 30))
    edges = sorted({0.0, duration, *np.round(rng.uniform(0, duration, 3), 2)})
    segments = []
    for start, end in zip(edges, edges[1:]):
        kind = rng.integers(0, 4)
        if kind == 0:
            segments.append(Rest(start, end))
        elif kind == 1:
            segments.append(
                SineMovement(start, end, "xyz"[rng.integers(0, 3)],
                             float(np.round(rng.uniform(0, 2), 3)),
                             float(np.round(rng.uniform(0.1, 5), 3)))
            )
        elif kind == 2:
            segments.append(
                BurstMovement(start, end, float(np.round(rng.uniform(0, 3), 3)),
                              float(np.round(rng.uniform(0.1, 5), 3)))
            )
        else:
            segments.append(
                AmbientVibration(start, end, float(np.round(rng.uniform(0, 1), 3)),
                                 float(np.round(rng.uniform(5, 45), 3)))
            )
    presses = tuple(
        ButtonPress(float(np.round(rng.uniform(0, duration - 0.01), 2)),
                    ["select", "red", "power"][rng.integers(0, 3)])
        for _ in range(rng.integers(0, 3))
    )
    return Scenario(
        duration_seconds=duration,
        seed=int(rng.integers(0, 2**32)),
        segments=tuple(segments),
        motor_feedback=MotorFeedback(bool(rng.integers(0, 2)),
                                     float(np.round(rng.uniform(0, 2), 3)),
                                     float(np.round(rng.uniform(10, 45), 2))),
        button_presses=presses,
        noise_sigma_g=float(np.round(rng.uniform(0, 0.01), 4)),
    )


class TestSamples:
    def test_header_only_is_empty(self):
        text = "t,ax,ay,az\n"
        values = parse_samples(text)
        assert values.shape == (0, 4) and values.dtype == np.float64
        assert serialize_samples(values) == text

    def test_two_line_example(self):
        values = parse_samples("t,ax,ay,az\n0.00,0,0,1\n0.01,0,0,1\n")
        assert values.dtype == np.float64
        assert values.tolist() == [[0.0, 0.0, 0.0, 1.0], [0.01, 0.0, 0.0, 1.0]]

    def test_round_trip(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            samples = random_samples(rng, int(rng.integers(0, 40)))
            text = serialize_samples(samples)
            assert parse_samples(text).tolist() == [list(s) for s in samples]
            assert serialize_samples(parse_samples(text)) == text

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "expected header"),
            ("t,ax,ay\n", 1, "expected header"),
            ("t,ax,ay,az\n0.0,1,2\n", 2, "expected 4 fields"),
            ("t,ax,ay,az\n0.0,1,2,x\n", 2, "not a number"),
            ("t,ax,ay,az\n0.0,1,2,inf\n", 2, "finite"),
            ("t,ax,ay,az\n0.00,0,0,1\n\n0.01,0,0,1\n", 3, "blank line"),
            ("t,ax,ay,az\n0,0,0,1\n0.01,0,0,1\n\n", 4, "blank line"),
            # The first bad line wins, whatever the kind of a fault below it.
            ("t,ax,ay,az\n0,0,0,1\n0.01,oops,0,1\n\n0.02,0,0,1\n", 3, "ax: not a number"),
            ("t,event\n0,bogus\n\n", 2, "event must be one of"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        # The header picks the parser: the events format shares `_csv_rows`.
        parse = parse_events if text.startswith("t,event\n") else parse_samples
        inputs = [text]
        if parse is parse_samples:  # and as the byte lines of a binary file
            inputs.append(text.encode().splitlines(keepends=True))
        for data in inputs:
            with pytest.raises(ParseError) as info:
                parse(data)
            assert info.value.line == line
            assert fragment in str(info.value)

    def test_off_grid_rows_parse_and_counting_refuses_them(self):
        # The sample grid is the counting pipeline's: the parser reads any t.
        values = parse_samples("t,ax,ay,az\n0.02,0,0,1\n0.01,0,0,1\n")
        assert values.tolist() == [[0.02, 0.0, 0.0, 1.0], [0.01, 0.0, 0.0, 1.0]]
        with pytest.raises(ValueError) as info:
            CountsPipeline.from_spec().process_block(values)
        assert info.value.row == 1
        assert str(info.value) == "sample at t=0.01 is not one 100.0 Hz step after t=0.02"


# Ways to spoil one row of a valid sample file: each replaces the fields of
# the row (t first) with the fields it returns.
ROW_MUTATIONS = {
    "extra field": lambda f: f + ["0"],
    "missing field": lambda f: f[:-1],
    "comment suffix": lambda f: f[:-1] + [f[-1] + "#x"],
    "digit grouping": lambda f: [f[0], "1_000"] + f[2:],
    "arabic-indic digit": lambda f: [f[0], "\u0661"] + f[2:],
    "nan": lambda f: [f[0], "nan"] + f[2:],
    "inf": lambda f: f[:2] + ["-inf"] + f[3:],
    "overflow": lambda f: f[:3] + ["1e999"],
    "off-grid t": lambda f: [repr(float(f[0]) + 0.005)] + f[1:],
    "barely off-grid t": lambda f: [repr(float(f[0]) + 2e-9)] + f[1:],
    "padded": lambda f: [" " + f[0], f[1] + "\t", "\x0c" + f[2] + " "] + f[3:],
    "carriage return": lambda f: f[:-1] + [f[-1] + "\r"],
}


@st.composite
def sample_files(draw):
    """Sample CSV text on the 100 Hz grid, valid or spoilt at a few places."""
    n = draw(st.integers(1, 8))
    t0 = draw(st.integers(-1000, 100_000)) / 100.0
    values = st.floats(allow_nan=False, allow_infinity=False)
    spell = st.sampled_from([repr, "{:.17g}".format, "{:.3f}".format, "{:e}".format])
    rows = [
        [repr(t0 + k / 100.0)] + [draw(spell)(draw(values)) for _ in range(3)] for k in range(n)
    ]
    for name in draw(st.lists(st.sampled_from(sorted(ROW_MUTATIONS)), max_size=2)):
        k = draw(st.integers(0, n - 1))
        rows[k] = ROW_MUTATIONS[name](rows[k])
    lines = ["t,ax,ay,az"] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def parse_outcome(parse, text):
    """The array's dtype, shape and bytes (so -0.0 keeps its sign), or the
    error's line and message."""
    try:
        values = parse(text)
    except ParseError as exc:
        return exc.line, exc.message
    return values.dtype.str, values.shape, values.tobytes()


class TestSamplesDifferential:
    """`parse_samples` reads with numpy first; it must agree with the line parser."""

    @settings(max_examples=400, deadline=None)
    @given(sample_files())
    @example("t,ax,ay,az\n0,0,0,1\n")
    @example("t,ax,ay,az\n\r\n")
    @example("t,ax,ay,az\n0,0,0,1\n\r\n0.01,0,0,1\n")
    @example("t,ax,ay,az\n0,0,0,1\r\r\n")
    @example("t,ax,ay,az\n0,0\r,0,1\n")
    @example("t,ax,ay,az\n0,0,0,1\n0.01,0,0,1\n\n")
    @example("t,ax,ay,az\n0,0,0,1\x0c\n0.01,\u3000 0,0,1\x1c\n")
    @example("t,ax,ay,az\n0,,0,1\n")
    @example("t,ax,ay,az\n0, ,0,1\n")
    def test_matches_the_line_parser(self, text):
        assert parse_outcome(parse_samples, text) == parse_outcome(_parse_sample_lines, text)

    @pytest.mark.parametrize("name", sorted(ROW_MUTATIONS))
    def test_each_spoilt_row_goes_to_the_line_parser(self, name):
        rows = [["0.0", "0.5", "-0.25", "1.0"], ["0.01", "0.5", "-0.25", "1.0"]]
        rows[1] = ROW_MUTATIONS[name](rows[1])
        text = "t,ax,ay,az\n" + "\n".join(map(",".join, rows)) + "\n"
        want = parse_outcome(_parse_sample_lines, text)
        assert parse_outcome(parse_samples, text) == want
        if name in ("digit grouping", "arabic-indic digit", "padded", "carriage return",
                    "off-grid t", "barely off-grid t"):
            assert want[:2] == ("<f8", (2, 4))  # float() reads the row
        else:
            assert want[0] == 3  # the line parser names the spoilt row

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_well_formed_file_is_read_by_numpy(self, newline, monkeypatch):
        text = serialize_samples(random_samples(np.random.default_rng(53), 50))
        text = text.replace("\n", newline)

        def refuse(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(stillwatch.io, "_parse_sample_lines", refuse)
        assert len(parse_samples(text)) == 50


# Bytes that are not UTF-8, put into a sample file: a stray continuation byte,
# a lead byte with nothing after it, a cut sequence and an encoded surrogate.
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


@st.composite
def sample_bytes(draw):
    """The bytes of a sample file: a drawn one, with bytes that are not UTF-8
    put in at a few places, or a header over blank lines alone."""
    if draw(st.integers(0, 7)) == 0:
        newline = draw(st.sampled_from([b"\n", b"\r\n"]))
        last = draw(st.sampled_from([b"", b"\r"]))
        return b"t,ax,ay,az" + newline * draw(st.integers(1, 4)) + last
    data = draw(sample_files()).encode()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def text_outcome(data):
    """`parse_outcome` of `parse_samples` on the text of `data`. A byte that is
    not UTF-8 fails on its line, unless the text above that line fails first."""
    try:
        return parse_outcome(parse_samples, data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1  # the first byte of its line
        if start:
            above = parse_outcome(parse_samples, data[:start].decode("utf-8"))
            if isinstance(above[0], int):
                return above
        return data.count(b"\n", 0, start) + 1, f"not valid UTF-8: {exc.reason}"


class TestSampleByteLines:
    """A file's byte lines, header first, parse as the file's text does."""

    @settings(max_examples=400, deadline=None)
    @given(sample_bytes())
    @example(b"t,ax,ay,az\n\n\n")
    @example(b"t,ax,ay,az\r\n\r\n")
    @example(b"t,ax,ay,az\n\r")
    @example(b"t,ax,ay,az\n1.0#x,0,0,1\n")
    @example(b"t,ax,ay,az\r\n 0 ,0,\t0,1 \r\n0.01,0,0,1")
    @example(b"\xfft,ax,ay,az\n0,0,0,1\n")
    @example(b"t,ax,ay,az\n0,0,0,1\n0.015,0,0,1\n0.02,0,\xff0,1\n")
    @example(b"t,ax,ay,az\n0,0,0,\xc3\n0.01,oops,0,1\n")
    @example(b"")
    def test_byte_lines_parse_as_the_text(self, data):
        lines = BytesIO(data).readlines()  # each with its LF, as a binary file yields them
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "input contained no data" included
            assert parse_outcome(parse_samples, lines) == text_outcome(data)

    def test_well_formed_byte_lines_are_read_by_numpy(self, monkeypatch):
        text = serialize_samples(random_samples(np.random.default_rng(54), 50))
        lines = BytesIO(text.replace("\n", "\r\n").encode()).readlines()

        def refuse(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(stillwatch.io, "_parse_sample_lines", refuse)
        assert parse_samples(lines).tolist() == parse_samples(text).tolist()


class TestCountsRows:
    def test_nine_significant_digits(self):
        text = counts_text([(0.01, 1.2800480769230769, 0.0, 128.00480769230768, 1.0)])
        assert text.splitlines()[1] == "0.01,1.28004808,0,128.004808,1"


class TestEvents:
    def test_round_trip(self):
        events = [
            DetectorEvent(6.7, "reset"),
            DetectorEvent(17.68, "vib_start"),
            DetectorEvent(22.68, "vib_end"),
        ]
        text = serialize_events(events)
        assert parse_events(text) == events

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="event must be one of"):
            parse_events("t,event\n1.0,hum\n")


# Runs of one value and their lengths, for a trace column of each dtype: runs
# of 1023-2049 rows make a column constant over a whole block, or up to a seam,
# and runs of 127-129 end at either side of a sub-block seam. An option takes
# any integer a float holds exactly.
STEP = stillwatch.io._SUB_BLOCK_ROWS
RUN_LENGTHS = st.sampled_from((1, 2, STEP - 1, STEP, STEP + 1, 1023, 1024, 1025, 2049))
RUN_VALUES = {
    np.float64: st.sampled_from((0.0, -0.0, math.nan, 1.5, 1e16)) | st.floats(),
    np.bool_: st.booleans(),
    np.int64: st.integers(0, 2) | st.integers(-2**53, 2**53),
}
COLUMN_RUNS = st.tuples(*(st.lists(st.tuples(RUN_VALUES[dtype], RUN_LENGTHS), min_size=1,
                                   max_size=4) for _, dtype in TRACE_COLUMNS))
CONSTANT = [[(1.5, 3000)]] * 9 + [[(False, 3000)]] * 4 + [[(1, 3000)]]


def bool01(flag: bool) -> str:
    """A flag as the trace writes it."""
    return "1" if flag else "0"


class TestTrace:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((0, 1, STEP + 1, 300, 1023, 1024, 1025, 1024 + STEP + 2, 2049)),
           COLUMN_RUNS)
    @example(2049, (
        [(0.0, 1), (-0.0, 2)],  # t: 0.0 and -0.0 in every block
        [(1.5, 1024), (2.5, 1)],  # ax: constant up to the first seam, not after it
        [(math.nan, 1), (0.0, 3000)],  # ay: a NaN in the first block
        *[[(1e16, 3000)]] * 6,  # az .. timer: constant over every block
        [(True, 3000)],
        [(False, 1024), (True, 1025)],
        [(False, 1), (True, 1)],
        [(True, 1), (False, 1)],
        [(2, 1023), (0, 2)],
    ))
    @example(1024 + STEP + 2, (  # a last partial sub-block in each block
        [(0.0, STEP - 1), (1.0, 3000)],  # changes on a sub-block's last row
        [(0.0, STEP), (1.0, 3000)],  # on the next sub-block's first
        [(0.0, STEP + 1), (1.0, 3000)],  # on its second
        *CONSTANT[3:9],
        [(False, STEP), (True, 1)],
        *CONSTANT[10:13],
        [(0, STEP - 1), (2**53, 2), (-2**53, 1)],  # an option varying across the seam
    ))
    @example(300, (*CONSTANT[:11], [(False, 1), (True, 1)], *CONSTANT[12:]))  # only a flag varies
    def test_blocks_write_what_the_column_codecs_write(self, n, runs):
        columns = {}
        for (name, dtype), column_runs in zip(TRACE_COLUMNS, runs):
            values, lengths = zip(*column_runs)
            # np.resize repeats the runs up to n rows.
            columns[name] = np.resize(np.repeat(np.array(values, dtype), lengths), n)
        rows = zip(*(columns[name].tolist() for name, _ in TRACE_COLUMNS))
        by_dtype = {np.float64: _g9, np.bool_: bool01, np.int64: str}
        formats = [by_dtype[dtype] for _, dtype in TRACE_COLUMNS]
        # Line lists, so that a failure names the first row that differs.
        want = _format_rows(TRACE_HEADER, formats, rows).split("\n")
        assert trace_text(SimulationTrace(**columns)).split("\n") == want

    def test_an_integer_a_float_cannot_hold_is_refused_not_rounded(self):
        # Varying values are written from a float array: 2**53 + 1 would
        # print as 2**53. A constant column is formatted from its integer.
        n = 3
        columns = {name: np.zeros(n, dtype) for name, dtype in TRACE_COLUMNS}
        columns["option"][:] = 2**62 + 1
        assert trace_text(SimulationTrace(**columns)).splitlines()[1].endswith(
            f",{2**62 + 1}")
        columns["option"][1] = 2**53 + 1
        with pytest.raises(ValueError, match="beyond 2\\*\\*53"):
            trace_text(SimulationTrace(**columns))

    def test_row_format_writes_what_the_column_codecs_write(self):
        trace = run(canonical_scenario(duration_seconds=12.0))
        n = len(trace)
        trace.ax[:3] = [-0.0, 5e-324, -1.7976931348623157e308]
        trace.vm[:2] = [-0.0, 1e16]
        trace.option[:] = np.arange(n) % 3
        for flag in ("motor", "white", "blue", "red"):
            getattr(trace, flag)[:] = np.arange(n) % 2 == 1
        rows = zip(*(getattr(trace, name).tolist() for name in TRACE_HEADER.split(",")))
        by_dtype = {np.float64: _g9, np.bool_: bool01, np.int64: str}
        formats = [by_dtype[dtype] for _, dtype in TRACE_COLUMNS]
        text = trace_text(trace)
        assert text == _format_rows(TRACE_HEADER, formats, rows)
        assert text.splitlines()[1].startswith("0,0,")

    @settings(max_examples=300)
    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e16)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    def test_g9_is_the_row_format_of_a_float(self, x):
        assert _g9(x) == "%.9g" % (x + 0.0)


class TestScenarioFormat:
    def test_round_trip_objects_and_text(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            scenario = random_scenario(rng)
            text = serialize_scenario(scenario)
            assert parse_scenario(text) == scenario
            assert serialize_scenario(parse_scenario(text)) == text

    def test_canonical_scenario_survives(self):
        scenario = canonical_scenario()
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_minimal_scenario(self):
        scenario = parse_scenario(
            "[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\nend = 5\n"
        )
        assert scenario.duration_seconds == 5.0
        assert scenario.seed == 0
        assert scenario.noise_sigma_g == 0.003
        assert scenario.segments == (Rest(0.0, 5.0),)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("duration_seconds = 5\n", 1, "before any section"),
            ("[scenario]\nduration = 5\n", 2, "unknown key"),
            ("[scenario]\nduration_seconds = 5\n[party]\n", 3, "unknown section"),
            ("[scenario]\nduration_seconds = 5\nduration_seconds = 6\n", 3, "duplicate key"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = wiggle\nstart = 0\nend = 5\n",
             5, "segment kind"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\n",
             4, "missing end"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\nend = 4\n",
             1, "ends at 4"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = sine\nstart = 0\nend = 5\n"
             "axis = w\namplitude_g = 1\nfrequency_hz = 1\n", 8, "axis"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\nend = 5\n"
             "\n[button]\nt = 1\nbutton = launch\n", 11, "button must be one of"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\nend = 5\n"
             "\n[motor_feedback]\namplitude_g = 0.5\nenabled = maybe\n", 11, "enabled"),
            ("[scenario]\n[ ]\n", 2, "empty section name"),
            ("[scenario]\nduration_seconds 5\n", 2,
             "expected 'key = value', got 'duration_seconds 5'"),
            ("[scenario]\nduration_seconds =\n", 2,
             "expected 'key = value', got 'duration_seconds ='"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nstart = 0\nend = 5\n",
             4, "segment is missing the kind key"),
            ("[scenario]\nduration_seconds = 5\n[scenario]\nduration_seconds = 5\n",
             3, "duplicate [scenario] section"),
            ("[scenario]\nduration_seconds = 5\n\n[segment]\nkind = rest\nstart = 0\nend = 5\n"
             "\n[motor_feedback]\nenabled = true\n\n[motor_feedback]\nenabled = false\n",
             12, "duplicate [motor_feedback] section"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as info:
            parse_scenario(text)
        assert fragment in str(info.value)
        assert info.value.line == line

    def test_missing_scenario_section(self):
        with pytest.raises(ParseError, match="missing \\[scenario\\]"):
            parse_scenario("[segment]\nkind = rest\nstart = 0\nend = 5\n")


# Each key that moved to another section, and the key that now sets it.
MOVED_KEYS = {
    ("filter", "sample_rate_hz"): "[counts] sample_rate_hz",
    ("detector", "tick_seconds"): "[counts] sample_rate_hz",
    ("detector", "inactivity_seconds"): "[device] inactivity_options",
    ("detector", "vibration_seconds"): "[device] vibration_seconds",
}


@st.composite
def config_files(draw):
    """Valid ConfigFiles: cutoffs below Nyquist that the filter design takes,
    durations on the tick grid, a flash period of two ticks or more."""
    fs = draw(st.sampled_from([25.0, 50.0, 100.0, 200.0]))
    tick = 1.0 / fs
    ticks = st.integers(1, 100_000).map(lambda k: k * tick)
    low = draw(st.floats(1e-3, fs / 4))
    high = draw(st.floats(low, fs / 2, exclude_min=True, exclude_max=True))
    order = draw(st.sampled_from([2, 4, 6, 8]))
    # Cutoffs too close together, or too near 0 or Nyquist, have no design.
    try:
        design_bandpass_cascade(FilterSpec(fs, low, high), order)
    except ValueError:
        assume(False)
    deadband = draw(st.floats(1e-4, 1.0))
    saturation = draw(st.floats(deadband, 10.0, exclude_min=True))
    return ConfigFile(
        low_cutoff_hz=low,
        high_cutoff_hz=high,
        filter_order=order,
        counts=CountsConfig(
            deadband, saturation, draw(st.floats(1e-4, 1.0)),
            draw(st.integers(1, 500)) * tick, fs,
        ),
        count_threshold=draw(st.floats(1e-3, 1e4)),
        device=DeviceConfig(
            (draw(ticks), draw(ticks), draw(ticks)), draw(ticks),
            draw(st.booleans()), draw(st.floats(2 * tick, 10.0)),
        ),
    )


class TestConfigFormat:
    def test_empty_config_is_all_defaults(self):
        config = parse_config("")
        assert config.filter_spec == FilterSpec(100.0, 0.305, 1.615)
        assert config.filter_order == 2
        assert config.counts == CountsConfig()
        assert config.detector == DetectorConfig()
        assert config.device == DeviceConfig()

    def test_override_inactivity(self):
        config = parse_config("[device]\ninactivity_options = 20, 30, 60\n")
        assert config.detector.inactivity_seconds == 20.0
        assert config.detector.vibration_seconds == 5.0

    def test_violated_invariant_is_named(self):
        with pytest.raises(ParseError, match="deadband_g"):
            parse_config("[counts]\ndeadband_g = 2.2\n")
        # An order the design refuses is refused on construction, not on first use.
        with pytest.raises(ValueError, match="order must be an even integer >= 2, got 4.0"):
            ConfigFile(filter_order=4.0)

    def test_inexact_counts_config_reported_on_its_section(self):
        text = "[detector]\ncount_threshold = 100\n\n[counts]\ndeadband_g = 1e-300\n"
        with pytest.raises(ParseError, match="sum exactly") as info:
            parse_config(text)
        assert info.value.line == 4

    @pytest.mark.parametrize("section,key", list(MOVED_KEYS))
    def test_moved_key_fails_on_its_line_naming_its_home(self, section, key):
        text = f"[counts]\nepoch_seconds = 1\n\n[{section}]\n{key} = 20\n"
        with pytest.raises(ParseError) as info:
            parse_config(text)
        assert info.value.line == 5
        assert f"set {MOVED_KEYS[section, key]}" in info.value.message

    def test_round_trip(self):
        text = serialize_config(ConfigFile())
        assert parse_config(text) == ConfigFile()
        assert serialize_config(parse_config(text)) == text

    def test_crlf_reads_as_lf(self):
        text = serialize_config(ConfigFile(count_threshold=80.0))
        assert parse_config(text.replace("\n", "\r\n")) == ConfigFile(count_threshold=80.0)

    @pytest.mark.parametrize("text", [
        "# mine\r[detector]\rcount_threshold = 200\r",
        "[detector]\ncount_threshold = 200\r# was 125\n",
        "[detector]\ncount_threshold = 2\r00\r\n",
    ])
    def test_lone_cr_fails_on_its_line(self, text):
        with pytest.raises(ParseError, match="line ends must be LF or CRLF") as info:
            parse_config(text)
        assert info.value.line == text[:text.index("\r")].count("\n") + 1

    def test_custom_round_trip(self):
        custom = ConfigFile(
            low_cutoff_hz=0.25,
            high_cutoff_hz=3.0,
            filter_order=4,
            counts=CountsConfig(deadband_g=0.05),
            count_threshold=80.0,
            device=DeviceConfig(inactivity_options=(30.0, 10.0, 20.0)),
        )
        assert parse_config(serialize_config(custom)) == custom

    @settings(max_examples=200, deadline=None)
    @given(config_files())
    def test_random_round_trip(self, config):
        text = serialize_config(config)
        assert parse_config(text) == config
        assert serialize_config(parse_config(text)) == text

    @pytest.mark.parametrize(
        "key,value",
        [
            ("inactivity_options", "10, 30, 0.005"),
            ("inactivity_options", "0.005, 30, 60"),
            ("vibration_seconds", "0.005"),
            ("inactivity_options", "1e308, 30, 60"),  # more ticks than a float holds
        ],
    )
    def test_device_timing_off_the_tick_grid_fails_at_the_device_line(self, key, value):
        with pytest.raises(ParseError, match="whole number") as info:
            parse_config(f"[counts]\nsample_rate_hz = 50\n\n[device]\n{key} = {value}\n")
        assert info.value.line == 4
        # named by the config key, not by the detector field it sets
        assert f"{key}=" in str(info.value) and "inactivity_seconds" not in str(info.value)

    def test_flash_period_under_two_ticks_fails_at_the_device_line(self):
        # 0.03 s is three ticks at 100 Hz and one and a half at 50 Hz
        assert parse_config("[device]\nblue_flash_period_seconds = 0.03\n")
        with pytest.raises(ParseError, match="blue_flash_period_seconds=0.03 must be at least "
                                             "two 0.02 s ticks") as info:
            parse_config("[counts]\nsample_rate_hz = 50\n\n[device]\n"
                         "blue_flash_period_seconds = 0.03\n")
        assert info.value.line == 4

    @pytest.mark.parametrize(
        "text,line",
        [
            ("[filter]\nhigh_cutoff_hz = 60\n\n[device]\nvibration_seconds = 4\n", 1),
            ("[device]\nvibration_seconds = 4\n\n[detector]\ncount_threshold = -1\n", 4),
            # without a [filter] section, the stock cutoffs misfit the rate
            ("[device]\nvibration_seconds = 4\n\n[counts]\nsample_rate_hz = 3\n", 4),
        ],
    )
    def test_misfit_is_blamed_on_the_section_it_is_about(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_config(text)
        assert info.value.line == line

    def test_sections_apply_together_in_any_order(self):
        text = "[filter]\nhigh_cutoff_hz = 60\n\n[counts]\nsample_rate_hz = 200\n"
        assert parse_config(text).filter_spec == FilterSpec(200.0, 0.305, 60.0)

    def test_select_never_raises_on_a_parsed_config(self):
        config = parse_config("[device]\ninactivity_options = 10, 30, 0.05\n")
        device = Device(config.device, config.detector)
        for k in range(7):
            device.press_button("select", k * 0.01)
            device.tick(0.0, k * 0.01)
        assert device.selected_option == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_config("[filter]\nq_factor = 2\n")

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("[filter]\norder = 2.5\n", 2, "order: not an integer: '2.5'"),
            ("[filter]\norder = 3\n", 1, "order must be an even integer >= 2, got 3"),
            # cutoffs in order, but too close for the design: refused here, not on first use
            ("[filter]\nlow_cutoff_hz = 0.001\nhigh_cutoff_hz = 0.0010000000000000002\n", 1,
             "degenerate design: non-positive overall gain"),
            ("[device]\ninactivity_options = 10, 30\n", 2,
             "inactivity_options needs exactly three comma-separated values, got '10, 30'"),
            ("[detector]\ncount_threshold = 100\n\n[tuning]\n", 4, "unknown section [tuning]"),
            ("[detector]\ncount_threshold = 100\n\n[detector]\ncount_threshold = 90\n", 4,
             "duplicate section [detector]"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_config(text)
        assert (info.value.line, info.value.message) == (line, message)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_file_examples_parse():
    # Every fenced block in the sectioned format, by the parser its first
    # section belongs to.
    blocks = re.findall(r"^```\n(\[.*?)^```", README.read_text(), flags=re.M | re.S)
    parsers = []
    for block in blocks:
        parse = parse_scenario if block.startswith("[scenario]") else parse_config
        parse(block)
        parsers.append(parse)
    assert sorted(p.__name__ for p in parsers) == ["parse_config", "parse_scenario"]
