"""Dataset handling: CSV ingestion, temporal splits, alignment, synthesis.

The on-disk format is a single CSV with the exact header

    timestamp,drying_eq,wetting_eq,solar,wind,rain,hour,doy,elevation,lon,lat,fm1,fm10,fm100,fm1000

Timestamps are RFC 3339 UTC on the hour in the one form
``YYYY-MM-DDTHH:MM:SSZ``, with no gaps; fuel-moisture cells are empty
where no observation exists. Weather rows are hourly and contiguous; by
default a gap is a parse error, and ``fill="hold"`` forward-fills gaps
of up to three hours.

Every table, the dataset included, goes through one codec that works on
fixed blocks of ``BLOCK_ROWS`` rows, so the text it formats or splits at
a time is bounded by the block, not the file. The reader opens the file
once and reads it in one pass, a block of lines at a time, holding only
that block; since a byte that is not UTF-8 outranks every other defect,
a block that fails sends the reader on to the end of the file before it
raises. It splits a block into columns and converts each column in one
call; only a block that fails to convert is scanned again cell by cell,
which names the first wrong cell count or malformed cell in file order,
exactly as a per-row reader would. ``load_csv`` stacks each block's
columns as it arrives and builds each array by one concatenation. The
writer checks that each block's lines read back, writes the block to a
temporary file beside the target and renames that file into place after
the last block; on any error it removes the temporary file and leaves
the target as it was. The dataset writer formats each block a column at
a time, from arrays and observed masks.

The weather is one float64 matrix, a row per column of ``WEATHER_COLUMNS``
and a column per hour, as the parse, the kept table and the synthesis
make it; a split slices it once per partition and the writers take it
whole. Only :class:`Normalizer` stacks rows of it again, into a C-ordered
(hours, columns) copy, since a mean over a transposed view of the matrix
may differ from that in the last bits.

A parse can be kept: :func:`keep_dataset` writes a frame and its series
as one ``np.save`` array, under a key that :func:`kept_path` takes from
the dataset's bytes, and :func:`load_csv` reads that array in place of
the parse when it is there and whole.

Splitting is purely temporal: the default rule assigns the first 8,761
hourly rows (one year inclusive) to training and halves the remainder
into validation and test, validation taking the extra row when the
remainder is odd.

Synthetic weather is a diurnal-plus-seasonal process with Poisson rain
arrivals; synthetic targets run the first-order time-lag recursion on
the drying equilibrium, pushed toward a wet saturation value during rain
hours, optionally clipped at a sensor-saturation cap.
"""

from __future__ import annotations

import codecs
import collections
import hashlib
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fmwarp import timelag
from fmwarp.errors import AlignmentError, InvalidInputError, ParseError, SplitError

FUEL_CLASSES = ("fm1", "fm10", "fm100", "fm1000")
NOMINAL_TAU = {"fm1": 1.0, "fm10": 10.0, "fm100": 100.0, "fm1000": 1000.0}

WEATHER_COLUMNS = (
    "drying_eq", "wetting_eq", "solar", "wind", "rain",
    "hour", "doy", "elevation", "lon", "lat",
)
CSV_HEADER = ("timestamp",) + WEATHER_COLUMNS + FUEL_CLASSES

HOUR = np.timedelta64(1, "h")

# Rows per block of the table codec: fixed, so that its memory never grows with a file.
BLOCK_ROWS = 256
# Bytes per read of the table reader.
_CHUNK_BYTES = 1 << 16
# The line breaks of str.splitlines but CR, which may be the first half of a CRLF.
_LINE_ENDS = ("\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

# The one accepted timestamp form, which format_timestamp writes; STAMPS is a run of them.
_STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
_STAMPS = re.compile(f"(?:{_STAMP.pattern})*", re.ASCII)

# Names the layout of keep_dataset in every key, so a new layout never reads an old file.
_KEPT_LAYOUT = "fmwarp kept dataset, layout 1"

# Default split rule: one year of hourly rows inclusive of both endpoints.
TRAIN_ROWS_ONE_YEAR = 8761

# Synthetic rain response: recursion input is pushed toward this moisture
# during rain hours, scaled by intensity relative to RAIN_SATURATION_MMH.
WET_SATURATION_PCT = 60.0
RAIN_SATURATION_MMH = 5.0


@dataclass(frozen=True)
class WeatherFrame:
    """Hourly predictors with UTC timestamps (strictly increasing, 1 h apart).

    ``values`` is the one float64 matrix of the weather, a row per column
    of ``WEATHER_COLUMNS`` in that order and a column per hour. Each column
    reads by name, ``frame.rain`` and the rest, as a view of its row.
    :class:`Normalizer` stacks its rows into a C-ordered copy, not a view,
    so that its mean and std keep their bits whatever layout ``values`` has.
    """

    times: np.ndarray  # datetime64[s]
    values: np.ndarray  # float64, (len(WEATHER_COLUMNS), hours)

    def __post_init__(self):
        n = self.times.size
        if n == 0:
            raise InvalidInputError("weather frame must be non-empty")
        if self.values.shape != (len(WEATHER_COLUMNS), n):
            raise InvalidInputError(f"weather values must have shape "
                                    f"({len(WEATHER_COLUMNS)}, {n}), got {self.values.shape}")
        deltas = np.diff(self.times)
        if n > 1 and not (deltas == HOUR).all():
            raise InvalidInputError("timestamps must be strictly increasing with 1-hour spacing")
        if (self.rain < 0).any() or (self.solar < 0).any():
            raise InvalidInputError("rain and solar must be non-negative")
        if ((self.hour < 0) | (self.hour > 23)).any():
            raise InvalidInputError("hour_of_day must lie in [0, 23]")

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in WEATHER_COLUMNS:
            raise AttributeError(f"'WeatherFrame' object has no attribute {name!r}")
        return self.values[WEATHER_COLUMNS.index(name)]

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class FmcSeries:
    """Sparse timestamped fuel-moisture observations for one fuel class."""

    fuel_class: str
    times: np.ndarray  # datetime64[s]
    values: np.ndarray  # percent

    def __post_init__(self):
        if self.fuel_class not in FUEL_CLASSES:
            raise InvalidInputError(f"unknown fuel class {self.fuel_class!r}")
        if self.times.shape != self.values.shape:
            raise InvalidInputError("observation times/values length mismatch")
        if self.times.size > 1 and not (np.diff(self.times) > np.timedelta64(0, "s")).all():
            raise InvalidInputError("observation timestamps must be strictly increasing")
        if (self.values < 0).any():
            raise InvalidInputError("fuel moisture observations must be non-negative")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class SplitSpec:
    """Temporal boundaries: train is t <= train_end, validation train_end < t <= val_end."""

    train_end: np.datetime64
    val_end: np.datetime64

    def __post_init__(self):
        if not self.train_end < self.val_end:
            raise SplitError(f"train_end {self.train_end} must precede val_end {self.val_end}")


@dataclass(frozen=True)
class Partition:
    """One temporal partition: weather rows plus per-class observations."""

    weather: WeatherFrame
    observations: dict[str, FmcSeries]
    span: str  # "training", "validation" or "test", as messages name it


@dataclass(frozen=True)
class Split:
    train: Partition
    val: Partition
    test: Partition


def parse_timestamp(text: str) -> np.datetime64:
    return _timestamps([text])[0]


def format_timestamp(t: np.datetime64) -> str:
    return str(np.datetime64(t, "s")) + "Z"


def load_csv(path, fill: str | None = None,
             kept=None) -> tuple[WeatherFrame, list[FmcSeries]]:
    """Parse a dataset CSV into a weather frame and per-class observation series.

    The file goes through the reader of :func:`read_table` (no quoting;
    CRLF accepted), whose header, cell-count and cell errors come first.
    Then the earliest duplicate or backward timestamp, gap that ``fill``
    does not cover, non-finite cell, negative rain, solar or moisture, or
    hour outside [0, 23] raises :class:`ParseError` with its 1-based file
    row. A held row repeats the weather row before it, with
    its own hour; observations are never held.

    ``kept``, a path from :func:`kept_path`, is read in place of the parse
    when it holds a whole dataset in the layout of :func:`keep_dataset`;
    any other file there, or none, is a miss. Its parse raises
    :class:`ParseError` if the bytes read no longer have the key that
    ``kept`` is named after, so it is always the parse of those bytes.
    """
    digest = _key_digest(fill)
    if kept is not None and (dataset := _read_kept(kept)) is not None:
        return dataset
    n_weather = len(WEATHER_COLUMNS)
    converters = [_timestamps] + [_floats] * n_weather + [_optional_floats] * len(FUEL_CLASSES)
    # Each block is stacked as it arrives, and each array is one
    # concatenation of its blocks, which are freed as its name is rebound:
    # no whole column is ever copied on its own.
    times, weather, fm = [], [], []
    for stamps, *columns in _read_blocks(path, CSV_HEADER, converters, digest):
        times.append(stamps)
        weather.append(np.array(columns[:n_weather]))
        fm.append(np.array(columns[n_weather:]))
    if kept is not None and f"{digest.hexdigest()}.npy" != Path(kept).name:
        raise ParseError(f"{path} changed while it was read")
    if not times:
        raise ParseError("no data rows", row=2)
    times = np.concatenate(times)
    weather = np.concatenate(weather, axis=1)
    fm = np.concatenate(fm, axis=2)
    fmc, observed = fm[:, 0], fm[:, 1] == 1.0
    rain, solar, hour = (weather[WEATHER_COLUMNS.index(name)] for name in ("rain", "solar", "hour"))
    deltas, zero = np.diff(times), np.timedelta64(0, "s")
    held = (fill == "hold") & (deltas % HOUR == zero) & (deltas <= 4 * HOUR)
    defects = {  # data-row indices, in the order the checks rank within one row
        "non-monotone or duplicate timestamp": np.flatnonzero(deltas <= zero) + 1,
        "gap (expected 1 hour) before": np.flatnonzero((deltas != HOUR) & ~held) + 1,
        "non-finite weather value at": np.flatnonzero(~np.isfinite(weather).all(axis=0)),
        **{f"non-finite {cls} value at": np.flatnonzero(observed[c] & ~np.isfinite(fmc[c]))
           for c, cls in enumerate(FUEL_CLASSES)},
        # the frame's and the series' own rules, checked here to name the row
        "negative rain or solar value at": np.flatnonzero((rain < 0) | (solar < 0)),
        "hour outside [0, 23] at": np.flatnonzero((hour < 0) | (hour > 23)),
        **{f"negative {cls} value at": np.flatnonzero(observed[c] & (fmc[c] < 0))
           for c, cls in enumerate(FUEL_CLASSES)},
    }
    found = [(rows[0], k, what) for k, (what, rows) in enumerate(defects.items()) if rows.size]
    if found:
        i, _, what = min(found)
        raise ParseError(f"{what} {format_timestamp(times[i])}", row=int(i) + 2)
    hourly = times
    if held.any():  # every delta is now 1 to 4 hours: repeat each row over its gap
        weather = np.repeat(weather, np.append(deltas // HOUR, 1), axis=1)
        hourly = times[0] + np.arange(weather.shape[1]) * HOUR
        filled = ~np.isin(hourly, times)
        weather[WEATHER_COLUMNS.index("hour"), filled] = _calendar_columns(hourly[filled])[0]
    return WeatherFrame(hourly, weather), [
        FmcSeries(cls, times[observed[c]], fmc[c, observed[c]])
        for c, cls in enumerate(FUEL_CLASSES) if observed[c].any()]


def _key_digest(fill: str | None):
    """A sha256 of the kept layout and ``fill``, to be fed the dataset's bytes."""
    if fill not in (None, "hold"):
        raise InvalidInputError(f"unknown fill mode {fill!r}")
    return hashlib.sha256(f"{_KEPT_LAYOUT}\n{fill}\n".encode())


def kept_path(directory, path, fill: str | None = None) -> Path:
    """``<directory>/<key>.npy``: where :func:`keep_dataset` keeps the
    parse of ``path`` under ``fill``. The key is the sha256 of the kept
    layout, ``fill`` and the bytes of ``path``, read ``_CHUNK_BYTES`` at
    a time."""
    digest = _key_digest(fill)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(_CHUNK_BYTES), b""):
            digest.update(chunk)
    return Path(directory) / f"{digest.hexdigest()}.npy"


def keep_dataset(path, frame: WeatherFrame, series: list[FmcSeries]) -> None:
    """Write a parse of :func:`load_csv` to ``path`` as ``np.save`` writes one
    column-major float64 array, a row per hour of ``frame``: the time in
    seconds, the weather columns, then a column per fuel class, nan where it
    is unobserved. The times, the weather matrix and each class's column
    are written in turn, so no whole table is made."""
    n = len(frame)
    observed = {s.fuel_class: s for s in series}
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(
            f, {"descr": "<f8", "fortran_order": True, "shape": (n, len(CSV_HEADER))})
        f.write(frame.times.astype("datetime64[s]").astype("<i8").astype("<f8"))
        f.write(np.ascontiguousarray(frame.values, "<f8"))
        for cls in FUEL_CLASSES:
            column = np.full(n, np.nan, "<f8")
            if cls in observed:
                column[np.searchsorted(frame.times, observed[cls].times)] = observed[cls].values
            f.write(column)


def _read_kept(path) -> tuple[WeatherFrame, list[FmcSeries]] | None:
    """The frame and series that :func:`keep_dataset` wrote at ``path``, bit
    for bit as parsed, the weather matrix a view of the table; ``None`` when
    ``path`` is missing or is not such a table."""
    try:
        with open(path, "rb") as f:
            table = np.lib.format.read_array(f, allow_pickle=False)
    except (OSError, ValueError, MemoryError):
        return None
    n_weather = len(WEATHER_COLUMNS)
    if (table.dtype != np.float64 or table.shape[1:] != (len(CSV_HEADER),)
            or np.isinf(table).any() or np.isnan(table[:, : 1 + n_weather]).any()
            or (np.abs(table[:, 0]) >= 2.0**53).any()):
        return None
    times = table[:, 0].astype(np.int64).astype("datetime64[s]")
    fm = table[:, 1 + n_weather :]
    observed = ~np.isnan(fm)
    try:
        return WeatherFrame(times, table[:, 1 : 1 + n_weather].T), [
            FmcSeries(cls, times[observed[:, c]], fm[observed[:, c], c])
            for c, cls in enumerate(FUEL_CLASSES) if observed[:, c].any()]
    except InvalidInputError:
        return None


def _floats(cells: list[str]) -> np.ndarray:
    return np.fromiter(map(float, cells), float, len(cells))


def _optional_floats(cells: list[str]) -> np.ndarray:
    """Floats of a column whose blank cells are unobserved: the values (nan
    where blank) over the observed mask (1.0 where not blank)."""
    observed = np.fromiter(map(bool, map(str.strip, cells)), bool, len(cells))
    values = np.full(len(cells), np.nan)
    values[observed] = list(map(float, itertools.compress(cells, observed)))
    return np.array([values, observed])


def _timestamps(cells: list[str]) -> np.ndarray:
    """A column of timestamps in the one accepted form, ``YYYY-MM-DDTHH:MM:SSZ``
    after the strip, parsed by numpy. The first bad cell raises
    ``ValueError``: a missing ``Z`` or date, numpy's parse error, or else
    any other form (a space for ``T``, a missing or fractional field, a
    UTC offset, which numpy would shift the time by)."""
    texts = list(map(str.strip, cells))
    # With every cell the form's 20 characters long, the concatenation matches cell by cell.
    if set(map(len, texts)) - {20} or not _STAMPS.fullmatch("".join(texts)):
        for text in texts:  # raises at the first bad cell
            if not text.endswith("Z"):
                raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC (missing Z)")
            # numpy reads an empty or "NaT" body as not-a-time; a date starts with a digit.
            if not text[:1].isdigit():
                raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC (no date)")
            with warnings.catch_warnings():  # numpy warns of an offset, the check below rejects it
                warnings.simplefilter("ignore", UserWarning)
                np.datetime64(text[:-1], "s")
            if not _STAMP.fullmatch(text):
                raise ValueError(f"timestamp {text!r} is not RFC 3339 UTC "
                                 "(expected YYYY-MM-DDTHH:MM:SSZ)")
    return np.array([text[:-1] for text in texts], "datetime64[s]")


def _wrong_count(lines: list[str], width: int) -> bool:
    """Whether a line of ``lines`` does not split into ``width`` cells."""
    return list(map(str.count, lines, itertools.repeat(","))).count(width - 1) != len(lines)


def write_table(path, header, rows) -> None:
    """Write a table in the one CSV layout of fmwarp: a header line, then a
    line per row. ``None`` is an empty cell, a float its ``repr`` (exact
    round trips), anything else its ``str``. A line that :func:`read_table`
    would not read back (a cell holding a comma, a line break or a lone
    surrogate, which UTF-8 cannot encode, or a row of the wrong length)
    raises :class:`InvalidInputError` with its 1-based row. The table goes
    to a temporary file beside ``path``, a block at a time, and is renamed
    into place after its last row; on any error ``path`` is left as it
    was."""

    def cell(x) -> str:
        if x is None:
            return ""
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    rows = iter(rows)  # lines in blocks of BLOCK_ROWS rows, until the rows run out
    _write_blocks(path, header, iter(lambda: [",".join(map(cell, row)) for row in
                                              itertools.islice(rows, BLOCK_ROWS)], []))


def _write_blocks(path, header, blocks) -> None:
    """Encode the header line, then each block of lines, and write each
    block, once its lines are known to read back as they are, to a
    temporary file beside ``path``, renamed to ``path`` after the last
    block. On any error the temporary file is removed and ``path`` is left
    as it was."""

    def encode(lines: list[str]) -> bytes | None:  # a surrogate becomes "?" and reads back wrong
        data = ("\n".join(lines) + "\n").encode("utf-8", "replace")
        ok = not _wrong_count(lines, len(header)) and data.decode("utf-8").splitlines() == lines
        return data if ok else None

    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            first = 1
            for lines in itertools.chain([[",".join(header)]], blocks):
                data = encode(lines)
                if data is None:
                    rownum = first + next(k for k, line in enumerate(lines)
                                          if encode([line]) is None)
                    raise InvalidInputError(f"{path}: row {rownum} would not read back as "
                                            f"{len(header)} cells on one line of UTF-8 text")
                f.write(data)
                first += len(lines)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def read_table(path, header, types) -> list[list]:
    """The rows of a :func:`write_table` table, each cell converted by its
    column's entry in ``types``. Header cells are compared after stripping
    spaces; cells are split at every comma (no quoting). A bad header, cell
    count or cell raises :class:`ParseError` with the 1-based row, and a
    malformed cell's message names its column. The file must be UTF-8; a
    byte that is not raises :class:`ParseError` with its row."""
    converters = [lambda cells, convert=convert: list(map(convert, cells)) for convert in types]
    return [list(row) for columns in _read_blocks(path, header, converters)
            for row in zip(*columns)]


def _lines(path, digest=None):
    """The lines that ``str.splitlines`` gives for the UTF-8 text of
    ``path``, which is opened once and decoded ``_CHUNK_BYTES`` at a time,
    each chunk also fed to ``digest`` if one is given.
    A byte that is not UTF-8 raises :class:`ParseError` with its offset in
    the file and the row it falls in."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    tail, start, row = "", 0, 0
    with open(path, "rb") as f:
        for chunk in itertools.chain(iter(lambda: f.read(_CHUNK_BYTES), b""), [b""]):
            if digest is not None:
                digest.update(chunk)
            try:
                text = tail + decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # The decoder read the bytes it held back from the chunk before, then this one.
                at = start + exc.start - (len(exc.object) - len(chunk))
                # Its row: the lines of the text before it, with one character in its place.
                row += len((tail + exc.object[: exc.start].decode("utf-8") + "?").splitlines())
                raise ParseError(f"not UTF-8 text: {exc.reason} at byte {at}", row=row) from None
            lines, tail = text.splitlines(), ""
            if chunk and lines and not text.endswith(_LINE_ENDS):
                # The last line may go on in the next chunk, and a CR may be half a CRLF.
                tail = lines.pop() + "\r" * text.endswith("\r")
            start, row = start + len(chunk), row + len(lines)
            yield from lines


def _read_blocks(path, header, converters, digest=None):
    """Per block of ``BLOCK_ROWS`` data rows, its columns, each converted by
    one call of its entry in ``converters``. Only in a block that does not
    convert, the converters run a cell at a time, to name its first wrong
    cell count or malformed cell. The file is read in one pass, a block of
    lines at a time, and fed to ``digest``; a byte that is not UTF-8
    anywhere in it outranks every other defect, so the rest of the file is
    read before one is raised."""
    lines = _lines(path, digest)
    try:
        first = next(lines, None)
        names = [] if first is None else [name.strip() for name in first.split(",")]
        if names != list(header):
            wrong = [name for k, name in enumerate(names) if name not in header[k : k + 1]]
            raise ParseError(f"header mismatch; unknown or misplaced columns {wrong}, "
                             f"expected {','.join(header)}", row=1)
        width = len(header)
        blocks = iter(lambda: list(itertools.islice(lines, BLOCK_ROWS)), [])
        for start, block in zip(itertools.count(1, BLOCK_ROWS), blocks):
            try:
                if _wrong_count(block, width):
                    raise ValueError  # the scan below names the row
                cells = ",".join(block).split(",")
                columns = [convert(cells[c::width]) for c, convert in enumerate(converters)]
            except ValueError:
                for rownum, line in enumerate(block, start=start + 1):
                    cells = line.split(",")
                    if len(cells) != width:
                        raise ParseError(f"expected {width} cells, got {len(cells)}",
                                         row=rownum) from None
                    for name, convert, cell in zip(header, converters, cells):
                        try:
                            convert([cell])
                        except ValueError as exc:
                            raise ParseError(f"malformed {name} cell: {exc}",
                                             row=rownum) from None
                raise  # a column converter rejected cells that each convert: a codec bug
            yield columns
    except ParseError:
        collections.deque(lines, maxlen=0)  # raises at a byte that is not UTF-8
        raise


def write_csv(path, frame: WeatherFrame, series: list[FmcSeries]) -> None:
    """Write the dataset CSV; observations off the hourly rows of ``frame`` are not written."""
    n_weather = len(WEATHER_COLUMNS)
    values = np.full((len(CSV_HEADER) - 1, len(frame)), np.nan)
    observed = np.zeros(values.shape, dtype=bool)
    values[:n_weather], observed[:n_weather] = frame.values, True
    for s in series:  # a later series of a class replaces the earlier one
        c = n_weather + FUEL_CLASSES.index(s.fuel_class)
        rows = np.minimum(np.searchsorted(frame.times, s.times), len(frame) - 1)
        on_grid = frame.times[rows] == s.times
        values[c], observed[c] = np.nan, False
        values[c, rows[on_grid]], observed[c, rows[on_grid]] = s.values[on_grid], True
    times = frame.times.astype("datetime64[s]")

    def lines(block: slice) -> list[str]:  # formatted a column at a time
        cells = np.full(values[:, block].shape, "", dtype=object)
        cells[observed[:, block]] = list(map(repr, values[:, block][observed[:, block]].tolist()))
        stamps = [text + "Z" for text in np.datetime_as_string(times[block], unit="s").tolist()]
        return list(map(",".join, zip(stamps, *cells.tolist())))

    _write_blocks(path, CSV_HEADER, (lines(slice(start, start + BLOCK_ROWS))
                                     for start in range(0, len(frame), BLOCK_ROWS)))


def default_split_spec(frame: WeatherFrame, train_rows: int = TRAIN_ROWS_ONE_YEAR) -> SplitSpec:
    """Split boundaries from a row-count rule: ``train_rows`` rows of
    training, the remainder halved with validation taking the odd row."""
    n = len(frame)
    remaining = n - train_rows
    if train_rows < 1 or remaining < 2:
        raise SplitError(
            f"frame has {n} rows; cannot take {train_rows} for training and split the rest"
        )
    n_val = (remaining + 1) // 2
    return SplitSpec(
        train_end=frame.times[train_rows - 1],
        val_end=frame.times[train_rows + n_val - 1],
    )


def fraction_split_spec(frame: WeatherFrame, train_frac: float = 0.6) -> SplitSpec:
    """Row-count rule with the training size given as a fraction."""
    if not 0.0 < train_frac < 1.0:
        raise SplitError(f"train_frac must lie in (0,1), got {train_frac}")
    return default_split_spec(frame, train_rows=int(round(len(frame) * train_frac)))


def split(frame: WeatherFrame, series: list[FmcSeries], spec: SplitSpec) -> Split:
    """Partition weather and observations at the split boundaries.

    Every timestamp lands in exactly one partition; an empty weather
    partition raises :class:`SplitError`.
    """
    if not (frame.times[0] <= spec.train_end < spec.val_end <= frame.times[-1]):
        raise SplitError("split boundaries outside the data span")

    def masks(times: np.ndarray) -> dict[str, np.ndarray]:
        return {"training": times <= spec.train_end,
                "validation": (times > spec.train_end) & (times <= spec.val_end),
                "test": times > spec.val_end}

    obs_masks = [(s, masks(s.times)) for s in series]
    parts = {}
    for name, mask in masks(frame.times).items():
        if not mask.any():
            raise SplitError(f"{name} partition is empty")
        obs = {
            s.fuel_class: FmcSeries(s.fuel_class, s.times[sel[name]], s.values[sel[name]])
            for s, sel in obs_masks
        }
        weather = WeatherFrame(frame.times[mask], frame.values[:, mask])
        parts[name] = Partition(weather=weather, observations=obs, span=name)
    return Split(*parts.values())


def align_for_eval(
    times: np.ndarray, predictions: np.ndarray, obs_times: np.ndarray, obs_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each observation with the hourly predictions interpolated
    linearly to its exact time; exact at on-the-hour observations."""
    if obs_times.size == 0:
        return np.empty(0), np.empty(0)
    if obs_times.min() < times[0] or obs_times.max() > times[-1]:
        raise AlignmentError("observation outside the prediction span")
    xp = times.astype("datetime64[s]").astype(np.int64)
    x = obs_times.astype("datetime64[s]").astype(np.int64)
    return np.interp(x, xp, predictions), np.asarray(obs_values, dtype=float)


def nearest_hour_mask(
    times: np.ndarray, obs_times: np.ndarray, obs_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each observation to the nearest hourly row (training-side pairing).

    Returns (targets, mask) arrays over the hourly grid; when several
    observations round to the same hour the last one wins.
    """
    n = times.size
    targets = np.zeros(n)
    mask = np.zeros(n)
    grid = times.astype("datetime64[s]").astype(np.int64)
    obs = obs_times.astype("datetime64[s]").astype(np.int64)
    idx = np.clip(np.round((obs - grid[0]) / 3600.0).astype(int), 0, n - 1)
    targets[idx] = obs_values
    mask[idx] = 1.0
    return targets, mask


@dataclass(frozen=True)
class Normalizer:
    """Input featurization fit on the training split only.

    Continuous columns are z-scored; hour-of-day and day-of-year are
    encoded as sine/cosine pairs, so the model input has
    ``len(FEATURE_NAMES)`` columns.
    """

    mean: np.ndarray
    std: np.ndarray

    CONTINUOUS = ("drying_eq", "wetting_eq", "solar", "wind", "rain", "elevation", "lon", "lat")
    FEATURE_NAMES = CONTINUOUS + ("hour_sin", "hour_cos", "doy_sin", "doy_cos")

    @classmethod
    def fit(cls, frame: WeatherFrame) -> "Normalizer":
        # A C-ordered copy: over a view of frame.values the mean differs in the last bits.
        raw = np.stack([getattr(frame, c) for c in cls.CONTINUOUS], axis=1)
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        # Constant columns (station coordinates) pass through centered; the
        # threshold is relative so summation noise on large values is caught.
        std = np.where(std <= 1e-9 * (1.0 + np.abs(mean)), 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, frame: WeatherFrame) -> np.ndarray:
        raw = np.stack([getattr(frame, c) for c in self.CONTINUOUS], axis=1)
        z = (raw - self.mean) / self.std
        hour_angle = 2.0 * np.pi * frame.hour / 24.0
        doy_angle = 2.0 * np.pi * frame.doy / 365.25
        cyc = np.stack(
            [np.sin(hour_angle), np.cos(hour_angle), np.sin(doy_angle), np.cos(doy_angle)],
            axis=1,
        )
        return np.concatenate([z, cyc], axis=1)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        mean = np.asarray(d["mean"], dtype=float)
        std = np.asarray(d["std"], dtype=float)
        width = len(cls.CONTINUOUS)
        if mean.shape != (width,) or std.shape != (width,):
            raise InvalidInputError(
                f"normalizer mean and std need {width} entries, got {mean.shape} and {std.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise InvalidInputError("normalizer needs a finite mean and a finite, positive std")
        return cls(mean=mean, std=std)


N_FEATURES = len(Normalizer.FEATURE_NAMES)


@dataclass(frozen=True)
class TargetScaler:
    """Z-scoring for the training targets, fit on the training split.

    The model is trained in scaled units so the cell state works in the
    linear range of its activations; predictions are mapped back to
    percent before any evaluation.
    """

    mean: float
    std: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "TargetScaler":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise InvalidInputError("cannot fit a target scaler on no observations")
        std = float(values.std())
        return cls(mean=float(values.mean()), std=std if std > 1e-12 else 1.0)

    def scale(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def unscale(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_dict(cls, d: dict) -> "TargetScaler":
        mean, std = float(d["mean"]), float(d["std"])
        if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
            raise InvalidInputError("target scaler needs a finite mean and a finite, positive std")
        return cls(mean=mean, std=std)


@dataclass(frozen=True)
class SynthProfile:
    """Knobs for the synthetic weather generator (defaults echo the
    summary statistics of a dry-plains station)."""

    start: str = "1996-01-01T00:00:00Z"
    temp_base_k: float = 287.0
    temp_seasonal_amp: float = 8.0
    temp_diurnal_amp: float = 5.0
    temp_synoptic_amp: float = 2.5  # multi-day weather-system variation
    temp_synoptic_tau_h: float = 72.0
    temp_noise: float = 1.0
    rh_base: float = 62.0
    rh_temp_slope: float = 2.4
    rh_noise: float = 5.0
    solar_peak: float = 900.0
    wind_mean: float = 2.5
    wind_noise: float = 1.1
    rain_rate: float = 0.08  # target mean, mm/h
    rain_intensity: float = 1.6  # mean event intensity, mm/h
    elevation: float = 774.0
    lon: float = -100.26
    lat: float = 36.60


def _calendar_columns(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    days = times.astype("datetime64[D]")
    hour = ((times - days) // HOUR).astype(float)
    jan1 = times.astype("datetime64[Y]").astype("datetime64[D]")
    doy = (days - jan1).astype(int).astype(float) + 1.0
    return hour, doy


def synth_weather(seed: int, n_days: int, profile: SynthProfile = SynthProfile()) -> WeatherFrame:
    """Deterministic synthetic hourly weather: diurnal and seasonal
    sinusoids plus noise, with Poisson-arrival rain events."""
    if n_days < 1:
        raise InvalidInputError(f"n_days must be >= 1, got {n_days}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57EA]))
    n = int(n_days) * 24
    start = parse_timestamp(profile.start)
    times = start + np.arange(n) * HOUR
    hour, doy = _calendar_columns(times)

    seasonal = np.sin(2.0 * np.pi * (doy - 110.0) / 365.25)
    diurnal = np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
    # Slow AR(1) synoptic swings: stationary, multi-day correlation.
    rho = np.exp(-1.0 / profile.temp_synoptic_tau_h)
    innovations = rng.normal(0.0, profile.temp_synoptic_amp * np.sqrt(1.0 - rho**2), n)
    synoptic = np.empty(n)
    synoptic[0] = rng.normal(0.0, profile.temp_synoptic_amp)
    for t in range(1, n):
        synoptic[t] = rho * synoptic[t - 1] + innovations[t]
    temp_k = (
        profile.temp_base_k
        + profile.temp_seasonal_amp * seasonal
        + profile.temp_diurnal_amp * diurnal
        + synoptic
        + rng.normal(0.0, profile.temp_noise, n)
    )
    rh = np.clip(
        profile.rh_base
        - profile.rh_temp_slope * (temp_k - profile.temp_base_k)
        + rng.normal(0.0, profile.rh_noise, n),
        3.0,
        100.0,
    )
    drying, wetting = timelag.equilibria_arrays(temp_k, rh)

    solar = np.clip(
        np.maximum(0.0, np.sin(np.pi * (hour - 6.0) / 12.0))
        * (profile.solar_peak * (0.75 + 0.25 * seasonal))
        + rng.normal(0.0, 15.0, n),
        0.0,
        1177.0,
    )
    wind = np.clip(profile.wind_mean + profile.wind_noise * rng.normal(0.0, 1.0, n), 0.40, 8.61)

    # Rain: Bernoulli event starts, short uniform durations, exponential
    # intensity; start probability tuned so the mean lands near rain_rate.
    mean_duration, mean_intensity = 3.0, profile.rain_intensity
    p_start = profile.rain_rate / (mean_duration * mean_intensity)
    rain = np.zeros(n)
    starts = np.flatnonzero(rng.random(n) < p_start) if p_start > 0 else np.empty(0, int)
    for s in starts:
        duration = int(rng.integers(1, 6))
        intensity = rng.exponential(mean_intensity)
        rain[s : s + duration] += intensity
    rain = np.clip(rain, 0.0, 42.17)

    values = np.empty((len(WEATHER_COLUMNS), n))
    for row, column in enumerate((drying, wetting, solar, wind, rain, hour, doy,
                                  profile.elevation, profile.lon, profile.lat)):
        values[row] = column
    return WeatherFrame(times, values)


def synth_targets(
    frame: WeatherFrame,
    tau: float,
    sensor_cap: float | None = None,
    fuel_class: str = "fm10",
) -> FmcSeries:
    """Dense hourly targets from the time-lag recursion on the drying
    equilibrium; rain hours pull the input toward a wet saturation value,
    and ``sensor_cap`` clips the result (FM10 sensor saturation)."""
    params = timelag.TimeLagParams.from_tau(tau)
    x = frame.drying_eq.copy()
    wet = frame.rain > 0.0
    if wet.any():
        pull = np.minimum(1.0, frame.rain[wet] / RAIN_SATURATION_MMH)
        x[wet] = x[wet] + (WET_SATURATION_PCT - x[wet]) * pull
    values = np.empty(len(frame))
    values[0] = x[0]
    if len(frame) > 1:
        values[1:] = timelag.simulate(x[0], x[1:], params)
    if sensor_cap is not None:
        values = np.minimum(values, float(sensor_cap))
    return FmcSeries(fuel_class=fuel_class, times=frame.times.copy(), values=values)
