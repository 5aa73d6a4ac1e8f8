import io
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fmwarp import data, timelag
from fmwarp.errors import AlignmentError, InvalidInputError, ParseError, SplitError
from helpers import columns

HEADER = ",".join(data.CSV_HEADER)


def make_rows(n, start="1996-03-26T23:00:00Z"):
    t0 = data.parse_timestamp(start)
    rows = []
    for k in range(n):
        t = t0 + k * data.HOUR
        hour = float((t - t.astype("datetime64[D]")) // data.HOUR)
        rows.append(
            f"{data.format_timestamp(t)},12.0,10.0,200.0,2.5,0.0,{hour},86.0,774.0,-100.26,36.6"
        )
    return rows


def write_fixture(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n")


def test_load_csv_small_fixture(tmp_path):
    rows = make_rows(3)
    rows[1] += ",,14.5,,"  # one fm10 observation
    rows[0] += ",,,,"
    rows[2] += ",,,,"
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    frame, series = data.load_csv(path)
    assert len(frame) == 3
    assert len(series) == 1
    assert series[0].fuel_class == "fm10"
    assert series[0].values.tolist() == [14.5]


def test_load_csv_duplicate_timestamp(tmp_path):
    rows = make_rows(3)
    rows[2] = rows[1]
    rows = [r + ",,,," for r in rows]
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 4


def test_load_csv_unknown_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER.replace("solar", "sunlight") + "\n")
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert "sunlight" in str(err.value)


def test_load_csv_malformed_timestamp(tmp_path):
    rows = [r + ",,,," for r in make_rows(2)]
    rows[1] = "1996-03-27 00:00," + rows[1].split(",", 1)[1]
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 3


@pytest.mark.parametrize("cell", ["Z", "NaTZ", "natZ"])
def test_load_csv_rejects_not_a_time_timestamp(tmp_path, cell):
    # numpy reads "" and "NaT" as not-a-time; the bad first row is row 2,
    # not the gap it would leave before row 3.
    rows = [r + ",,,," for r in make_rows(2)]
    rows[0] = cell + "," + rows[0].split(",", 1)[1]
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError, match="timestamp") as err:
        data.load_csv(path)
    assert err.value.row == 2
    write_fixture(path, rows[:1])
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 2


@pytest.mark.parametrize("cell", [
    "1996-03-27T01:00:00+01:00Z",  # numpy shifts an offset: 00:00 UTC
    "1996-03-27 00:00:00Z",
    "1996-03-27Z",
    "1996-03-27T00:00Z",
    "1996-03-27T00:00:00.9Z",  # numpy truncates the fraction
])
def test_load_csv_accepts_only_the_one_timestamp_form(tmp_path, cell):
    # numpy reads each cell as the hour of row 3; only YYYY-MM-DDTHH:MM:SSZ
    # is accepted, and no numpy warning gets out.
    rows = [r + ",,,," for r in make_rows(3)]
    rows[1] = cell + "," + rows[1].split(",", 1)[1]
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="expected YYYY-MM-DDTHH:MM:SSZ") as err:
            data.load_csv(path)
        with pytest.raises(ValueError, match="expected YYYY-MM-DDTHH:MM:SSZ"):
            data.parse_timestamp(cell)
    assert err.value.row == 3


def test_load_csv_rejects_nan_weather_cell(tmp_path):
    rows = [r + ",,,," for r in make_rows(3)]
    cells = rows[1].split(",")
    cells[1 + data.WEATHER_COLUMNS.index("rain")] = "nan"
    rows[1] = ",".join(cells)
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 3


@pytest.mark.parametrize("column, cell, what", [
    ("rain", "-1.0", "negative rain or solar value"),
    ("solar", "-0.5", "negative rain or solar value"),
    ("hour", "24.0", "hour outside [0, 23]"),
    ("hour", "-1.0", "hour outside [0, 23]"),
    ("fm10", "-2.0", "negative fm10 value"),
])
def test_load_csv_names_the_row_of_a_value_out_of_range(tmp_path, column, cell, what):
    # The frame and series constructors would reject the value too, but
    # without its row.
    rows = [r + ",,,," for r in make_rows(3)]
    cells = rows[1].split(",")
    cells[data.CSV_HEADER.index(column)] = cell
    rows[1] = ",".join(cells)
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 3
    assert str(err.value) == f"row 3: {what} at 1996-03-27T00:00:00Z"


def test_load_csv_rejects_infinite_observation(tmp_path):
    rows = make_rows(3)
    rows[0] += ",,14.5,,"
    rows[1] += ",,,,"
    rows[2] += ",,inf,,"
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 4
    assert "fm10" in str(err.value)


def test_load_csv_gap_rejected_and_hold_filled(tmp_path):
    rows = make_rows(6)
    gapped = [r + ",,,," for r in (rows[0], rows[1], rows[4], rows[5])]
    path = tmp_path / "d.csv"
    write_fixture(path, gapped)
    with pytest.raises(ParseError):
        data.load_csv(path)
    frame, _ = data.load_csv(path, fill="hold")
    assert len(frame) == 6
    assert_array_equal(np.diff(frame.times), np.full(5, data.HOUR))
    # held rows copy the previous weather values
    assert frame.drying_eq[2] == frame.drying_eq[1]


def test_load_csv_long_gap_rejected_even_with_hold(tmp_path):
    rows = make_rows(10)
    gapped = [r + ",,,," for r in (rows[0], rows[1], rows[9])]
    path = tmp_path / "d.csv"
    write_fixture(path, gapped)
    with pytest.raises(ParseError):
        data.load_csv(path, fill="hold")


def test_write_then_load_roundtrip(tmp_path):
    frame = data.synth_weather(seed=3, n_days=4)
    targets = data.synth_targets(frame, tau=10.0)
    sparse = data.FmcSeries("fm100", targets.times[::7], targets.values[::7])
    path = tmp_path / "rt.csv"
    data.write_csv(path, frame, [targets, sparse])
    frame2, series2 = data.load_csv(path)
    assert_array_equal(frame2.times, frame.times)
    for name in data.WEATHER_COLUMNS:
        assert_array_equal(getattr(frame2, name), getattr(frame, name))
    by_class = {s.fuel_class: s for s in series2}
    assert_array_equal(by_class["fm10"].values, targets.values)
    assert_array_equal(by_class["fm100"].values, sparse.values)


def assert_loads_equal(a, b):
    (frame_a, series_a), (frame_b, series_b) = a, b
    assert frame_a.times.tobytes() == frame_b.times.tobytes()
    for name, column in columns(frame_a).items():
        assert column.tobytes() == getattr(frame_b, name).tobytes()
    assert [(s.fuel_class, s.times.tobytes(), s.values.tobytes()) for s in series_a] == [
        (s.fuel_class, s.times.tobytes(), s.values.tobytes()) for s in series_b
    ]


def test_load_csv_accepts_crlf_and_spaced_header_cells(tmp_path):
    frame = data.synth_weather(seed=4, n_days=2)
    targets = data.synth_targets(frame, tau=1.0, fuel_class="fm1")
    path = tmp_path / "lf.csv"
    data.write_csv(path, frame, [data.FmcSeries("fm1", targets.times[::5], targets.values[::5])])
    text = path.read_text()
    header, body = text.split("\n", 1)
    crlf, spaced = tmp_path / "crlf.csv", tmp_path / "spaced.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    spaced.write_text(" " + header.replace(",", " , ") + "  \n" + body)
    original = data.load_csv(path)
    assert_loads_equal(data.load_csv(crlf), original)
    assert_loads_equal(data.load_csv(spaced), original)


def test_reader_memory_does_not_grow_with_the_file(tmp_path):
    # The reader holds a block of BLOCK_ROWS lines, not the file: read block
    # by block, each dropped as the next comes, a 730-day file (17,520 rows)
    # peaks within a small factor of a 30-day one (720 rows).
    def peak(n_days):
        path = tmp_path / f"{n_days}.csv"
        data.write_csv(path, data.synth_weather(seed=1, n_days=n_days), [])
        tracemalloc.start()
        try:
            for _ in data._read_blocks(path, data.CSV_HEADER, [list] * len(data.CSV_HEADER)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(30), peak(730)
    assert large < 2 * small, (small, large)


def test_load_csv_peak_memory_is_within_a_small_factor_of_its_result(tmp_path):
    # Blocks are stacked as they arrive and each array is built by one
    # concatenation: loading 730 days peaks under 2.5 times the bytes of
    # the frame and series it returns.
    frame = data.synth_weather(seed=1, n_days=730)
    path = tmp_path / "synth.csv"
    data.write_csv(path, frame, [data.synth_targets(frame, data.NOMINAL_TAU[cls], fuel_class=cls)
                                 for cls in data.FUEL_CLASSES])
    tracemalloc.start()
    try:
        frame, series = data.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in [frame.times, *columns(frame).values()])
    returned += sum(s.times.nbytes + s.values.nbytes for s in series)
    assert peak < 2.5 * returned, (peak, returned)


def test_load_csv_rejects_quoted_cell(tmp_path):
    rows = [r + ",,,," for r in make_rows(3)]
    cells = rows[1].split(",")
    cells[1 + data.WEATHER_COLUMNS.index("wind")] = '"2.5"'
    rows[1] = ",".join(cells)
    path = tmp_path / "d.csv"
    write_fixture(path, rows)
    with pytest.raises(ParseError) as err:
        data.load_csv(path)
    assert err.value.row == 3
    assert "wind" in str(err.value)


def assert_same_arrays(a, b):
    """``assert_loads_equal``, dtypes included."""
    assert_loads_equal(a, b)
    (frame_a, series_a), (frame_b, series_b) = a, b
    assert [c.dtype for c in (frame_a.times, *columns(frame_a).values())] == [
        c.dtype for c in (frame_b.times, *columns(frame_b).values())]
    assert [(s.times.dtype, s.values.dtype) for s in series_a] == [
        (s.times.dtype, s.values.dtype) for s in series_b]


def held_dataset(path):
    """Two 2-hour gaps, fm1 seen at every third row, fm100 once, fm10 and
    fm1000 never: a file that parses only with ``fill = "hold"``."""
    rows = make_rows(40)
    for k, row in enumerate(rows):
        fm1 = f"{5.0 + k / 8}" if k % 3 == 0 else ""
        rows[k] = row + f",{fm1},,{'17.25' if k == 20 else ''},"
    write_fixture(path, [row for k, row in enumerate(rows) if k not in (6, 7, 30, 31)])


@pytest.mark.parametrize("fill", [None, "hold"])
def test_a_kept_dataset_reads_back_as_the_parse_bit_for_bit(tmp_path, monkeypatch, fill):
    path = tmp_path / "d.csv"
    if fill is None:
        frame = data.synth_weather(seed=2, n_days=3)
        data.write_csv(path, frame, [data.synth_targets(frame, data.NOMINAL_TAU[cls],
                                                        fuel_class=cls)
                                     for cls in data.FUEL_CLASSES])
    else:
        held_dataset(path)
    parsed = data.load_csv(path, fill)
    kept = data.kept_path(tmp_path / "kept", path, fill)
    kept.parent.mkdir()
    data.keep_dataset(kept, *parsed)
    # The file is what np.save writes for the one column-major float64 table.
    frame, series = parsed
    table = np.full((len(frame), len(data.CSV_HEADER)), np.nan, order="F")
    table[:, 0] = frame.times.astype(np.int64)
    for c, column in enumerate(columns(frame).values(), start=1):
        table[:, c] = column
    for s in series:
        table[np.isin(frame.times, s.times),
              1 + len(data.WEATHER_COLUMNS) + data.FUEL_CLASSES.index(s.fuel_class)] = s.values
    saved = io.BytesIO()
    np.save(saved, table)
    assert kept.read_bytes() == saved.getvalue()

    def no_parse(*args):
        raise AssertionError("parsed the CSV")

    monkeypatch.setattr(data, "_read_blocks", no_parse)
    read = data.load_csv(path, fill, kept=kept)
    assert_same_arrays(read, parsed)
    if fill == "hold":
        assert len(read[0]) == 40 and [s.fuel_class for s in read[1]] == ["fm1", "fm100"]
    # The key is the bytes and the fill mode, not the file name.
    twin = tmp_path / "twin.csv"
    twin.write_bytes(path.read_bytes())
    assert data.kept_path(tmp_path / "kept", twin, fill) == kept
    assert data.kept_path(tmp_path / "kept", path, "hold" if fill is None else None) != kept


@pytest.mark.parametrize("damage", [
    lambda kept: kept.write_bytes(kept.read_bytes()[:-8]),
    lambda kept: np.save(kept, np.load(kept)[:, :-1]),
    lambda kept: np.save(kept, np.load(kept).T),
    lambda kept: kept.write_bytes(b"timestamp,drying_eq\n"),
    lambda kept: kept.write_bytes(b""),
    lambda kept: np.save(kept, np.array([{"a": 1}], dtype=object)),
    lambda kept: np.save(kept, np.load(kept).astype(np.float32)),
    lambda kept: (kept.unlink(), kept.mkdir()),
], ids=["truncated", "a column short", "transposed", "not npy", "empty", "objects", "float32",
        "a directory"])
def test_a_damaged_kept_dataset_is_a_miss_that_parses(tmp_path, damage):
    path = tmp_path / "d.csv"
    held_dataset(path)
    parsed = data.load_csv(path, "hold")
    kept = data.kept_path(tmp_path, path, "hold")
    data.keep_dataset(kept, *parsed)
    damage(kept)
    assert_same_arrays(data.load_csv(path, "hold", kept=kept), parsed)


def test_a_parse_of_bytes_whose_key_is_not_the_kept_name_raises(tmp_path):
    # The bytes parsed are hashed as they are read: a kept path named after
    # other bytes (a file edited after its key was taken) is never answered
    # with a parse of these.
    path = tmp_path / "d.csv"
    held_dataset(path)
    with pytest.raises(ParseError, match="changed while it was read"):
        data.load_csv(path, "hold", kept=tmp_path / f"{'0' * 64}.npy")
    kept = data.kept_path(tmp_path, path, "hold")
    assert_same_arrays(data.load_csv(path, "hold", kept=kept), data.load_csv(path, "hold"))
    assert not kept.exists()


def test_split_ten_day_example():
    # 10-day frame, train ends with day 6, val ends with day 8: 144/48/48.
    frame = data.synth_weather(seed=1, n_days=10)
    spec = data.SplitSpec(
        train_end=frame.times[143],
        val_end=frame.times[191],
    )
    parts = data.split(frame, [data.synth_targets(frame, 10.0)], spec)
    assert len(parts.train.weather) == 144
    assert len(parts.val.weather) == 48
    assert len(parts.test.weather) == 48


def test_split_disjoint_and_covering():
    frame = data.synth_weather(seed=2, n_days=12)
    series = [data.synth_targets(frame, 10.0)]
    spec = data.fraction_split_spec(frame, 0.6)
    parts = data.split(frame, series, spec)
    all_times = np.concatenate(
        [parts.train.weather.times, parts.val.weather.times, parts.test.weather.times]
    )
    assert_array_equal(np.sort(all_times), frame.times)
    assert np.unique(all_times).size == all_times.size
    counts = sum(len(p.observations["fm10"]) for p in (parts.train, parts.val, parts.test))
    assert counts == len(series[0])


def test_split_default_rule_row_arithmetic():
    # With the one-year rule, the remainder halves with validation taking
    # the odd hour (mirrors the real-study 8761/3348/3347 shape).
    frame = data.synth_weather(seed=5, n_days=20)  # 480 rows
    spec = data.default_split_spec(frame, train_rows=241)
    parts = data.split(frame, [], spec)
    assert len(parts.train.weather) == 241
    assert len(parts.val.weather) == 120
    assert len(parts.test.weather) == 119


def test_split_empty_partition_errors():
    frame = data.synth_weather(seed=1, n_days=2)
    with pytest.raises(SplitError):
        data.default_split_spec(frame, train_rows=48)
    with pytest.raises(SplitError):
        data.split(frame, [], data.SplitSpec(
            train_end=frame.times[-1] + data.HOUR, val_end=frame.times[-1] + 2 * data.HOUR
        ))


def test_align_midpoint_and_exact_hour():
    times = np.array(
        ["2000-01-01T13:00:00", "2000-01-01T14:00:00"], dtype="datetime64[s]"
    )
    preds = np.array([10.0, 14.0])
    obs_t = np.array(["2000-01-01T13:30:00"], dtype="datetime64[s]")
    paired, obs = data.align_for_eval(times, preds, obs_t, np.array([11.0]))
    assert paired[0] == pytest.approx(12.0, abs=0)
    on_hour = np.array(["2000-01-01T13:00:00"], dtype="datetime64[s]")
    paired, _ = data.align_for_eval(times, preds, on_hour, np.array([9.0]))
    assert paired[0] == 10.0


def test_align_outside_span_errors():
    times = np.array(["2000-01-01T13:00:00", "2000-01-01T14:00:00"], dtype="datetime64[s]")
    bad = np.array(["2000-01-01T15:00:00"], dtype="datetime64[s]")
    with pytest.raises(AlignmentError):
        data.align_for_eval(times, np.array([1.0, 2.0]), bad, np.array([1.0]))


def test_align_exact_at_hourly_points():
    rng = np.random.default_rng(8)
    frame = data.synth_weather(seed=8, n_days=3)
    preds = rng.normal(size=len(frame))
    idx = rng.choice(len(frame), size=20, replace=False)
    paired, _ = data.align_for_eval(frame.times, preds, frame.times[idx], np.zeros(20))
    assert_array_equal(paired, preds[idx])


def test_nearest_hour_mask():
    frame = data.synth_weather(seed=4, n_days=2)
    obs_t = frame.times[[3, 10]] + np.timedelta64(20 * 60, "s")  # 20 past the hour
    targets, mask = data.nearest_hour_mask(frame.times, obs_t, np.array([5.0, 7.0]))
    assert mask.sum() == 2
    assert targets[3] == 5.0 and targets[10] == 7.0
    # No observations: zero targets and an all-zero mask over the grid.
    targets, mask = data.nearest_hour_mask(frame.times, obs_t[:0], np.empty(0))
    assert_array_equal(targets, np.zeros(len(frame)))
    assert_array_equal(mask, np.zeros(len(frame)))


def test_synth_weather_deterministic():
    a = data.synth_weather(seed=7, n_days=5)
    b = data.synth_weather(seed=7, n_days=5)
    for name in data.WEATHER_COLUMNS:
        assert_array_equal(getattr(a, name), getattr(b, name))
    c = data.synth_weather(seed=8, n_days=5)
    assert not np.array_equal(a.solar, c.solar)


def test_synth_weather_respects_bounds():
    frame = data.synth_weather(seed=42, n_days=365)
    assert 1.29 < frame.drying_eq.mean() < 60.56
    assert (frame.wetting_eq <= frame.drying_eq).all()
    assert frame.solar.max() <= 1177.0 and frame.solar.min() >= 0.0
    assert frame.wind.min() >= 0.40 and frame.wind.max() <= 8.61
    assert frame.rain.min() >= 0.0 and frame.rain.max() <= 42.17
    # mean rain configurable near 0.08 mm/h
    assert 0.04 < frame.rain.mean() < 0.16


def test_synth_targets_reduce_to_recursion_without_rain():
    frame = data.synth_weather(seed=9, n_days=10, profile=data.SynthProfile(rain_rate=0.0))
    assert (frame.rain == 0).all()
    targets = data.synth_targets(frame, tau=10.0)
    ref = timelag.simulate(
        frame.drying_eq[0], frame.drying_eq[1:], timelag.TimeLagParams.from_tau(10.0)
    )
    assert targets.values[0] == frame.drying_eq[0]
    assert_allclose(targets.values[1:], ref, rtol=0, atol=0)


def test_synth_targets_sensor_cap():
    frame = data.synth_weather(seed=10, n_days=60)
    capped = data.synth_targets(frame, tau=10.0, sensor_cap=27.0)
    assert capped.values.max() <= 27.0


def test_synth_targets_slow_fuel_changes_less():
    frame = data.synth_weather(seed=11, n_days=30)
    fast = data.synth_targets(frame, tau=1.0)
    slow = data.synth_targets(frame, tau=100.0)
    assert np.abs(np.diff(slow.values)).mean() < np.abs(np.diff(fast.values)).mean()


def test_weather_frame_validation():
    frame = data.synth_weather(seed=1, n_days=2)
    with pytest.raises(InvalidInputError):
        data.WeatherFrame(times=frame.times[::2],  # 2-hour spacing
                          values=frame.values[:, ::2])


def test_normalizer_bits_are_those_of_the_c_ordered_stack_for_every_frame(tmp_path,
                                                                           monkeypatch):
    # The checkpoints store the normalizer: its mean and std are those of the
    # continuous columns stacked into a C-ordered (hours, 8) array, whichever
    # producer made the frame. Over 730 days a mean over a transposed view of
    # the weather matrix differs from that in the last bits.
    synth = data.synth_weather(seed=1, n_days=730)
    path = tmp_path / "d.csv"
    data.write_csv(path, synth, [data.synth_targets(synth, tau=10.0)])
    parsed, series = data.load_csv(path)
    kept = data.kept_path(tmp_path, path)
    data.keep_dataset(kept, parsed, series)
    monkeypatch.setattr(data, "_read_blocks", None)  # read from the kept file, not parsed
    from_kept, _ = data.load_csv(path, kept=kept)
    monkeypatch.undo()
    partition = data.split(parsed, series, data.default_split_spec(parsed)).train.weather
    for frame in (parsed, from_kept, partition, synth):
        raw = np.stack([getattr(frame, c) for c in data.Normalizer.CONTINUOUS], axis=1)
        norm = data.Normalizer.fit(frame)
        assert norm.mean.tobytes() == raw.mean(axis=0).tobytes()
        varying = norm.std != 1.0  # constant columns keep a std of 1
        assert varying.sum() == 5
        assert norm.std[varying].tobytes() == raw.std(axis=0)[varying].tobytes()
        z = norm.transform(frame)[:, : len(data.Normalizer.CONTINUOUS)]
        assert z.tobytes() == ((raw - norm.mean) / norm.std).tobytes()


def test_normalizer_train_only_and_roundtrip():
    frame = data.synth_weather(seed=12, n_days=20)
    spec = data.fraction_split_spec(frame, 0.6)
    parts = data.split(frame, [], spec)
    norm = data.Normalizer.fit(parts.train.weather)
    x_train = norm.transform(parts.train.weather)
    assert x_train.shape == (len(parts.train.weather), data.N_FEATURES)
    # z-scored columns are centered on the training split only
    assert np.abs(x_train[:, :5].mean(axis=0)).max() < 1e-10
    x_test = norm.transform(parts.test.weather)
    assert np.isfinite(x_test).all()
    # constant station coordinates map to exactly zero
    cols = data.Normalizer.FEATURE_NAMES
    for name in ("elevation", "lon", "lat"):
        assert np.abs(x_train[:, cols.index(name)]).max() < 1e-9
    again = data.Normalizer.from_dict(norm.to_dict())
    assert_array_equal(again.transform(parts.test.weather), x_test)


def test_normalizer_and_scaler_from_dict_reject_bad_values():
    width = len(data.Normalizer.CONTINUOUS)
    good = {"mean": [0.0] * width, "std": [1.0] * width}
    assert data.Normalizer.from_dict(good).std.shape == (width,)
    bad_normalizers = (
        {"mean": [0.0] * 5, "std": [1.0] * 5},
        {"mean": [0.0] * width, "std": [1.0] * (width - 1)},
        {"mean": [0.0] * width, "std": [1.0] * (width - 1) + [float("nan")]},
        {"mean": [0.0] * width, "std": [1.0] * (width - 1) + [0.0]},
        {"mean": [0.0] * width, "std": [1.0] * (width - 1) + [-2.0]},
        {"mean": [float("inf")] + [0.0] * (width - 1), "std": [1.0] * width},
    )
    for bad in bad_normalizers:
        with pytest.raises(InvalidInputError):
            data.Normalizer.from_dict(bad)
    assert data.TargetScaler.from_dict({"mean": 10.0, "std": 2.0}).std == 2.0
    for std in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            data.TargetScaler.from_dict({"mean": 10.0, "std": std})


def test_fmc_series_validation():
    t = np.array(["2000-01-01T00:00:00", "2000-01-01T01:00:00"], dtype="datetime64[s]")
    with pytest.raises(InvalidInputError):
        data.FmcSeries("fm2", t, np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        data.FmcSeries("fm1", t, np.array([1.0, -2.0]))
    with pytest.raises(InvalidInputError):
        data.FmcSeries("fm1", t[::-1].copy(), np.array([1.0, 2.0]))
