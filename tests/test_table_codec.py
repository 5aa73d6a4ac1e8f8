"""The block-streamed table codec against the per-row codec it replaced.

``row_read_table``, ``row_load_csv`` and ``row_write_table`` below (with
their cell converters) are the per-row reader and writer that the block
codec replaced, kept here as oracles: on every mutated dataset the block
reader must return bitwise the oracle's arrays or raise the oracle's
:class:`ParseError` (same row, same message), and the block writer must
write the oracle's bytes.
"""

import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fmwarp import data  # noqa: E402
from fmwarp.data import CSV_HEADER, FUEL_CLASSES, HOUR, WEATHER_COLUMNS  # noqa: E402
from fmwarp.errors import InvalidInputError, ParseError  # noqa: E402


def row_read_table(path, header, types) -> list[list]:
    try:
        lines = Path(path).read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        row = len((exc.object[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", row=row) from None
    names = [name.strip() for name in lines[0].split(",")] if lines else []
    if names != list(header):
        wrong = [name for k, name in enumerate(names) if name not in header[k : k + 1]]
        raise ParseError(f"header mismatch; unknown or misplaced columns {wrong}, "
                         f"expected {','.join(header)}", row=1)
    rows = []
    for rownum, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", row=rownum)
        try:
            rows.append([convert(cell) for convert, cell in zip(types, cells)])
        except ValueError:
            for name, convert, cell in zip(header, types, cells):
                try:
                    convert(cell)
                except ValueError as exc:
                    raise ParseError(f"malformed {name} cell: {exc}", row=rownum) from None
    return rows


def parse_timestamp(text):
    text = text.strip()
    if not text.endswith("Z"):
        raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC (missing Z)")
    if not text[:1].isdigit():
        raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC (no date)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        t = np.datetime64(text[:-1], "s")
    if np.datetime_as_string(t) + "Z" != text or len(text) != 20:  # the one form, round trip
        raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC (expected YYYY-MM-DDTHH:MM:SSZ)")
    return t


def optional_float(x):
    return float(x) if x.strip() else None


DATASET_TYPES = ((parse_timestamp,) + (float,) * len(WEATHER_COLUMNS)
                 + (optional_float,) * len(FUEL_CLASSES))


def row_load_csv(path):
    n_weather = len(WEATHER_COLUMNS)
    columns = list(zip(*row_read_table(path, CSV_HEADER, DATASET_TYPES)))
    if not columns:
        raise ParseError("no data rows", row=2)
    times = np.array(columns[0], dtype="datetime64[s]")
    weather = np.array(columns[1 : 1 + n_weather], dtype=float)
    fmc = np.array(columns[1 + n_weather :], dtype=float)
    observed = np.array([[v is not None for v in col] for col in columns[1 + n_weather :]])
    deltas, zero = np.diff(times), np.timedelta64(0, "s")
    defects = {
        "non-monotone or duplicate timestamp": np.flatnonzero(deltas <= zero) + 1,
        "gap (expected 1 hour) before": np.flatnonzero(deltas != HOUR) + 1,
        "non-finite weather value at": np.flatnonzero(~np.isfinite(weather).all(axis=0)),
        **{f"non-finite {cls} value at": np.flatnonzero(observed[c] & ~np.isfinite(fmc[c]))
           for c, cls in enumerate(FUEL_CLASSES)},
    }
    found = [(rows[0], k, what) for k, (what, rows) in enumerate(defects.items()) if rows.size]
    if found:
        i, _, what = min(found)
        raise ParseError(f"{what} {data.format_timestamp(times[i])}", row=int(i) + 2)
    frame = data.WeatherFrame(times=times, values=weather)
    return frame, [data.FmcSeries(cls, times[observed[c]], fmc[c, observed[c]])
                   for c, cls in enumerate(FUEL_CLASSES) if observed[c].any()]


def row_write_table(path, header, rows) -> None:
    def cell(x) -> str:
        if x is None:
            return ""
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def outcome(read, *args):
    """("ok", result), or the type, ParseError row and message of the error."""
    try:
        return "ok", read(*args)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "row", None), str(exc)


def bits(x):
    if x is None or isinstance(x, np.datetime64):
        return x
    return struct.pack("<d", x)


def assert_same_load(got, want):
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        return
    (frame, series), (frame_want, series_want) = got[1], want[1]
    for name in ("times",) + WEATHER_COLUMNS:
        assert getattr(frame, name).tobytes() == getattr(frame_want, name).tobytes(), name
    assert [s.fuel_class for s in series] == [s.fuel_class for s in series_want]
    for s, s_want in zip(series, series_want):
        assert s.times.tobytes() == s_want.times.tobytes()
        assert s.values.tobytes() == s_want.values.tobytes()


def assert_same_rows(got, want):
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        return
    assert [list(map(bits, row)) for row in got[1]] == [list(map(bits, row)) for row in want[1]]


# 24 days: 576 data rows in blocks of 256, 256 and 64 (file rows 2-257,
# 258-513 and 514-577).
N_ROWS = 24 * 24
BOUNDARY_ROWS = (2, 257, 258, 513, 514, N_ROWS + 1)


def synth_file_lines(tmp_path_factory, n_days):
    frame = data.synth_weather(5, n_days)
    series = [data.synth_targets(frame, tau=data.NOMINAL_TAU[c], fuel_class=c)
              for c in FUEL_CLASSES]
    # fm10 every hour, fm100 every third hour, fm1 and fm1000 not at all.
    series = [series[1], data.FmcSeries("fm100", series[2].times[::3], series[2].values[::3])]
    path = tmp_path_factory.mktemp("synth") / "d.csv"
    data.write_csv(path, frame, series)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def synth_lines(tmp_path_factory):
    return synth_file_lines(tmp_path_factory, N_ROWS // 24)


def set_cell(lines, row, col, text):
    cells = lines[row - 1].split(",")
    cells[col] = text
    lines[row - 1] = ",".join(cells)


def check(tmp_path, lines, newline="\n"):
    return check_bytes(tmp_path, (newline.join(lines) + newline).encode("utf-8", "surrogatepass"))


def check_bytes(tmp_path, raw):
    path = tmp_path / "mutated.csv"
    path.write_bytes(raw)
    assert_same_load(outcome(data.load_csv, path), outcome(row_load_csv, path))
    assert_same_rows(outcome(data.read_table, path, CSV_HEADER, DATASET_TYPES),
                     outcome(row_read_table, path, CSV_HEADER, DATASET_TYPES))
    return outcome(data.load_csv, path)


TIME, DRYING, FM10 = 0, 1, CSV_HEADER.index("fm10")
FM1 = CSV_HEADER.index("fm1")


def junk_past_boundary(lines):
    set_cell(lines, 258, DRYING, "12.5x")


def nul_byte(lines):
    set_cell(lines, 40, FM10, "1\x00")


def nul_in_timestamp(lines):
    set_cell(lines, 300, TIME, lines[299].split(",")[0][:-1] + "\x00Z")


def underscore_digits(lines):
    set_cell(lines, 100, DRYING, "1_0")  # float reads it as 10


def unicode_digits(lines):
    set_cell(lines, 100, FM10, "١٢.5")  # Arabic-Indic 12.5, which float reads


def unicode_digit_timestamp(lines):
    set_cell(lines, 100, TIME, "１" + lines[99].split(",")[0][1:])  # fullwidth 1


def whitespace_fm_cell(lines):
    set_cell(lines, 60, FM10, " \t ")  # blank, so unobserved


def whitespace_weather_cell(lines):
    set_cell(lines, 60, DRYING, "  ")


def blank_line(lines):
    lines.insert(200, "")


def wrong_count_last_row(lines):
    lines[-1] = lines[-1].rsplit(",", 1)[0]


def malformed_before_wrong_count(lines):
    lines[400] += ",1"  # file row 401: 16 cells
    set_cell(lines, 390, FM1, "wet")


def wrong_count_before_malformed(lines):
    lines[380] += ",1"  # file row 381
    set_cell(lines, 390, FM1, "wet")


def malformed_cell_then_gap(lines):
    del lines[20]  # a gap before file row 21, which the malformed cell outranks
    set_cell(lines, 500, DRYING, "x")


def non_finite_cells(lines):
    set_cell(lines, 30, FM10, "nan")
    set_cell(lines, 20, FM1, " inf")


def not_a_time(lines):
    set_cell(lines, 2, TIME, "NaTZ")


def spaced_timestamp(lines):
    set_cell(lines, 515, TIME, "  " + lines[514].split(",")[0] + " ")


def missing_z(lines):
    set_cell(lines, 515, TIME, lines[514].split(",")[0][:-1])


def header_only(lines):
    del lines[1:]


MUTATIONS = [junk_past_boundary, nul_byte, nul_in_timestamp, underscore_digits, unicode_digits,
             unicode_digit_timestamp, whitespace_fm_cell, whitespace_weather_cell, blank_line,
             wrong_count_last_row, malformed_before_wrong_count, wrong_count_before_malformed,
             malformed_cell_then_gap, non_finite_cells, not_a_time, spaced_timestamp, missing_z,
             header_only]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
def test_block_reader_matches_the_per_row_reader(tmp_path, synth_lines, mutate, newline):
    lines = list(synth_lines)
    mutate(lines)
    check(tmp_path, lines, newline)


def test_mutations_reach_the_rows_they_aim_at(tmp_path, synth_lines):
    # Each case above raises where it is meant to, or loads.
    expected = {junk_past_boundary: 258, nul_byte: 40, underscore_digits: None,
                unicode_digits: None, whitespace_fm_cell: None, blank_line: 201,
                wrong_count_last_row: N_ROWS + 1, malformed_before_wrong_count: 390,
                wrong_count_before_malformed: 381, malformed_cell_then_gap: 500}
    for mutate, row in expected.items():
        lines = list(synth_lines)
        mutate(lines)
        got = check(tmp_path, lines)
        assert (got[1] if got[0] == "ParseError" else None) == row, (mutate.__name__, got)


# 30 days: 720 data rows in blocks of 256, 256 and 208 (file rows 2-257,
# 258-513 and 514-721), some 140 kB: more than one read of the reader.
LONG_DAYS = 30


@pytest.fixture(scope="module")
def long_lines(tmp_path_factory):
    return synth_file_lines(tmp_path_factory, LONG_DAYS)


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["1-byte reads", "7-byte reads", "default"])
@pytest.mark.parametrize("bad, row", [(b"\xff", 650), (b"\xe2\x82", 650), (b"\xed\xa0\x80", 650),
                                      (b"\xe2\x82", None)],
                         ids=["start byte", "cut character", "surrogate", "cut at the end"])
def test_a_byte_not_utf8_deep_in_the_file_outranks_every_other_defect(
        tmp_path, monkeypatch, long_lines, bad, row, chunk):
    # A malformed cell at file row 10, which holds a two-byte character, and
    # a byte that is not UTF-8 in the third block (or at the end of the
    # file): the UTF-8 error wins, with its absolute row and byte offset.
    if chunk:
        monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
    lines = list(long_lines)
    set_cell(lines, 10, DRYING, "w\u00e9t")
    raw = [line.encode() for line in lines] + [b""]
    if row is None:
        row, raw[-1] = len(lines) + 1, bad
    else:
        raw[row - 1] = raw[row - 1].replace(b",", b"," + bad, 1)
    raw = b"\r\n".join(raw)
    kind, got_row, message = check_bytes(tmp_path, raw)
    assert (kind, got_row) == ("ParseError", row)
    assert message.endswith(f" at byte {raw.index(bad)}")


@pytest.mark.parametrize("defect", [None, "malformed cell", "bad byte after a malformed cell"])
def test_a_read_opens_the_file_once(tmp_path, monkeypatch, long_lines, defect):
    # One pass over the file, also when a malformed cell at file row 10
    # sends the reader on to a byte that is not UTF-8 at row 650.
    lines = list(long_lines)
    if defect:
        set_cell(lines, 10, DRYING, "wet")
    raw = [line.encode() for line in lines]
    if defect == "bad byte after a malformed cell":
        raw[649] = raw[649].replace(b",", b",\xff", 1)
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join(raw) + b"\n")
    want = {None: None, "malformed cell": 10, "bad byte after a malformed cell": 650}[defect]

    opens = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for read, args in ((data.load_csv, ()), (data.read_table, (CSV_HEADER, DATASET_TYPES))):
        opens.clear()
        got = outcome(read, path, *args)
        assert (got[1] if got[0] == "ParseError" else None) == want, (read.__name__, got)
        assert opens == [path], (read.__name__, len(opens))


@pytest.mark.parametrize("cut", [0, -1], ids=["read ends after it", "read ends inside it"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("where", ["line end", "last cell"])
@pytest.mark.parametrize("brk", ["\r", "\u2028"], ids=["CR", "U+2028"])
def test_a_line_break_before_a_block_boundary_gives_the_oracle_rows(
        tmp_path, monkeypatch, long_lines, brk, where, newline, cut):
    # File row 257 ends the first block. A break at its end or before its
    # last cell, and a read of the reader that ends just after the break
    # (a CR there may be half of a CRLF) or inside it.
    lines = list(long_lines)
    head, last = lines[256].rsplit(",", 1)
    before, after = (last + brk, "") if where == "line end" else (brk, last)
    lines[256] = f"{head},{before}{after}"
    raw = (newline.join(lines) + newline).encode()
    end = len(newline.join(lines[:257]).encode()) - len(after)
    monkeypatch.setattr(data, "_CHUNK_BYTES", end + cut)
    assert raw[:end].decode().endswith(brk)
    check_bytes(tmp_path, raw)


JUNK = st.sampled_from(["", " ", "x", "\x00", "1\x00", "\x001", "1_0", "_1", "1__0",
                        "١", "１.5", "nan", "-inf", "1e400", " 7 ", "+3", "0x1",
                        "Z", "NaTZ", "1996-01-01T00:00:00Z", "1996-13-01T00:00:00Z",
                        "2000-01-01Z", "1e-5", "\u2028", "\x85", "\"1\"", "1;2"])


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.one_of(st.sampled_from(BOUNDARY_ROWS),
                                          st.integers(2, N_ROWS + 1)),
                                st.integers(0, len(CSV_HEADER) - 1),
                                st.one_of(JUNK, st.text(max_size=4))),
                      min_size=1, max_size=3),
       extra=st.sampled_from([None, "drop", "add", "blank"]), crlf=st.booleans())
def test_block_reader_matches_on_random_mutations(tmp_path_factory, synth_lines, edits, extra,
                                                  crlf):
    lines = list(synth_lines)
    for row, col, text in edits:
        set_cell(lines, row, col, text.replace(",", ";"))
    row = edits[0][0]
    if extra == "drop":
        lines[row - 1] = lines[row - 1].rsplit(",", 1)[0]
    elif extra == "add":
        lines[row - 1] += ",0"
    elif extra == "blank":
        lines.insert(row - 1, "")
    check(tmp_path_factory.mktemp("mutated"), lines, "\r\n" if crlf else "\n")


# Line breaks as str.splitlines sees them.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
table_cells = st.one_of(st.none(), st.floats(), st.integers(-(2**70), 2**70),
                        st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="," + LINE_BREAKS)))


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 4), n=st.integers(0, 600), draw=st.data())
def test_block_writer_writes_the_per_row_bytes(tmp_path_factory, width, n, draw):
    # n rows cycling through up to three drawn ones: up to three blocks.
    header = [f"c{k}" for k in range(width)]
    drawn = draw.draw(st.lists(st.lists(table_cells, min_size=width, max_size=width),
                               min_size=1, max_size=3))
    rows = [drawn[k % len(drawn)] for k in range(n)]
    path = tmp_path_factory.mktemp("table")
    data.write_table(path / "block.csv", header, rows)
    row_write_table(path / "row.csv", header, rows)
    assert (path / "block.csv").read_bytes() == (path / "row.csv").read_bytes()


@pytest.mark.parametrize("bad", [["a,b", "c"], ["a", "b", "c"], ["a"], ["a", "b\r"],
                                 ["a", "\u2028"], ["Time\udcffWarp", "fm1"]],
                         ids=["comma", "long row", "short row", "CR", "U+2028", "surrogate"])
def test_block_writer_names_the_first_bad_row_and_writes_nothing(tmp_path, bad):
    # ``at`` good rows, the bad row (file row at + 2), then another bad one.
    rows = [["a", "b"]] * 300 + [bad, ["a,b", "c"]]
    for at in (0, 255, 256, 299):
        path = tmp_path / f"t{at}.csv"
        with pytest.raises(InvalidInputError, match=f"row {at + 2} "):
            data.write_table(path, ("x", "y"), rows[300 - at :])
        assert not path.exists()


def test_block_writer_memory_does_not_grow_with_the_table(tmp_path):
    # The writer holds one block of BLOCK_ROWS lines, not the table: rows
    # drawn from a generator, 50,000 of them peak within a small factor of
    # 1,000.
    def peak(n):
        rows = ((k, k / 7, "cell") for k in range(n))
        tracemalloc.start()
        try:
            data.write_table(tmp_path / f"{n}.csv", ("k", "x", "s"), rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(50_000)
    assert large < 2 * small, (small, large)
    assert len((tmp_path / "50000.csv").read_bytes().splitlines()) == 50_001


def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path):
    path = tmp_path / "t.csv"
    data.write_table(path, ("x", "y"), [["old", "1"]] * 3)
    old = path.read_bytes()

    def rows(bad_row):  # two full blocks are written before the failure
        yield from [["a", "b"]] * 600
        if bad_row:
            yield ["a,b", "c"]
        else:
            raise RuntimeError("the rows failed")

    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: row 602 would not"):
        data.write_table(path, ("x", "y"), rows(bad_row=True))
    with pytest.raises(RuntimeError, match="the rows failed"):
        data.write_table(path, ("x", "y"), rows(bad_row=False))
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
