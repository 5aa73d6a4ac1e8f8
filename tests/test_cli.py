import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fmwarp import cli, data, errors, evaluation, nn, transfer
from fmwarp.errors import ConfigError

BASE_CFG = """
seed = 7
out = {out}
data.path = {data}
split.rule = fraction
split.train_frac = 0.6
arch.hidden_size = 4
arch.dense_sizes = 4,3
train.learning_rate = 0.02
train.batch_length = 48
train.max_epochs = 2
train.patience = 2
train.shuffle = true
grid.lo = -5
grid.hi = 5
grid.n_per_axis = 25
realizations = 2
synth.n_days = 12
synth.cap = 27
"""


@pytest.fixture(autouse=True)
def no_waiting_picks(monkeypatch):
    """Each test starts, as a new process does, with no search surface
    waiting from an earlier transfer call."""
    monkeypatch.setattr(cli, "_WAITING", {})


def write_cfg(tmp_path, name="exp.cfg", **extra):
    out = tmp_path / "run"
    dataset = tmp_path / "synth.csv"
    text = BASE_CFG.format(out=out, data=dataset)
    for key, value in extra.items():
        text += f"{key.replace('__', '.')} = {value}\n"
    path = tmp_path / name
    path.write_text(text)
    return path, out, dataset


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 3  # root seed\ntrain.patience = 4\n\n# comment\n")
    cfg = cli.Config.load(str(path), {"seed": 9})
    assert cfg.get_int("seed") == 9
    assert cfg.get_int("train.patience") == 4
    assert cfg.get("train.shuffle") is True  # default
    with pytest.raises(ConfigError):
        cfg.get("no.such.key")
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    with pytest.raises(ConfigError):
        cli.Config.load(str(bad))


def test_list_keys_take_a_space_after_each_comma(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("classes = fm1, fm100\nmethods = TimeWarp, FullFineTune\n"
                    "arch.dense_sizes = 16, 8\n")
    cfg = cli.Config.load(str(path))
    assert cfg.get("classes") == ("fm1", "fm100")
    assert cfg.get("methods") == ("TimeWarp", "FullFineTune")
    assert cfg.get("arch.dense_sizes") == (16, 8)


def test_a_hash_starts_a_comment_only_at_line_start_or_after_whitespace(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("out = runs/exp#2\n#seed = 5\nseed = 3  # root seed\n"
                    "train.patience = 4\t# a tab before it\n")
    cfg = cli.Config.load(str(path))
    assert str(cfg.get("out")) == "runs/exp#2"
    assert cfg.get("seed") == 3
    assert cfg.get("train.patience") == 4
    cfg_path, _, dataset = write_cfg(tmp_path, seed="3#x")
    assert run_main(monkeypatch, "synth", "--config", str(cfg_path)) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not dataset.exists()


def test_a_config_file_that_starts_with_a_utf8_bom_loads(tmp_path, monkeypatch):
    cfg_path, _, dataset = write_cfg(tmp_path)
    bom = tmp_path / "bom.cfg"
    bom.write_text("\ufeff" + cfg_path.read_text().lstrip(), encoding="utf-8")
    assert cli.Config.load(str(bom)).values == cli.Config.load(str(cfg_path)).values
    assert run_main(monkeypatch, "synth", "--config", str(bom)) == 0
    assert dataset.exists()


def test_synth_deterministic_and_sized(tmp_path):
    cfg_path, _, dataset = write_cfg(tmp_path, synth__n_days=30)
    cfg = cli.Config.load(str(cfg_path))
    p1 = cli.cmd_synth(cfg)
    first = p1.read_bytes()
    p2 = cli.cmd_synth(cfg)
    assert p2.read_bytes() == first
    frame, series = data.load_csv(dataset)
    assert len(frame) == 720
    by_class = {s.fuel_class: s for s in series}
    assert by_class["fm10"].values.max() <= 27.0
    assert by_class["fm1"].values.max() > 27.0  # cap applies to the sensor class only


def test_pretrain_writes_checkpoints_and_manifest(tmp_path):
    cfg_path, out, _ = write_cfg(tmp_path)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    pre_dir = cli.cmd_pretrain(cfg)
    ckpts = sorted(pre_dir.glob("ckpt_*.json"))
    assert len(ckpts) == 2
    manifest = json.loads((pre_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [7, 8]
    assert manifest["statuses"] == ["ok", "ok"]
    assert (pre_dir / "history_0000.csv").read_text().startswith("epoch,train_loss,val_loss")
    # rerun is byte-identical
    before = {p.name: p.read_bytes() for p in pre_dir.iterdir()}
    cli.cmd_pretrain(cfg)
    after = {p.name: p.read_bytes() for p in pre_dir.iterdir()}
    assert before == after


def test_diverged_pretrain_names_each_realization_on_stderr(tmp_path, capsys):
    # Both realizations diverge at their first step: the stage still exits
    # 0 and writes both checkpoints; stderr names each one, stdout does not.
    cfg_path, out, _ = write_cfg(tmp_path, train__learning_rate="1e300")
    assert cli.run(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.run(["pretrain", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out / 'pretrain'}\n"
    assert captured.err.splitlines() == [
        f"realization {k}: training diverged at epoch 1: non-finite gradient" for k in range(2)]
    manifest = json.loads((out / "pretrain" / "manifest.json").read_text())
    assert manifest["statuses"] == ["diverged", "diverged"]
    assert len(list((out / "pretrain").glob("ckpt_*.json"))) == 2


def test_transfer_adapts_only_the_realizations_pretrain_marks_ok(tmp_path, monkeypatch, capsys):
    # A diverged realization's checkpoint is its untrained last_good: it is
    # skipped, and the others keep their pretrain index in names and seeds.
    cfg_path, out, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    tdir = out / "transfer" / "TimeWarp" / "fm1"
    manifest_path = out / "pretrain" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["statuses"] == ["ok", "ok"]
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    all_ok = snapshot(tdir)
    shift_rows = all_ok["shifts.csv"].decode().splitlines()
    for statuses, kept in ((["ok", "diverged"], 0), (["diverged", "ok"], 1)):
        manifest_path.write_text(json.dumps({**manifest, "statuses": statuses}))
        capsys.readouterr()
        cli.cmd_transfer(cfg, "TimeWarp", "fm1")
        skipped = 1 - kept
        assert capsys.readouterr().err == f"realization {skipped}: skipped, pretrain diverged\n"
        files = snapshot(tdir)
        assert sorted(files) == [f"ckpt_{kept:04d}.json", "manifest.json", "shifts.csv",
                                 f"surface_{kept:04d}.csv"]
        for name in (f"ckpt_{kept:04d}.json", f"surface_{kept:04d}.csv"):
            assert files[name] == all_ok[name]
        assert files["shifts.csv"].decode().splitlines() == [shift_rows[0], shift_rows[1 + kept]]
    manifest_path.write_text(json.dumps({**manifest, "statuses": ["diverged", "diverged"]}))
    shutil.rmtree(out / "transfer")
    args = ("transfer", "--config", str(cfg_path), "--class", "fm1")
    assert run_main(monkeypatch, *args, "--method", "TimeWarp") == 4
    err = capsys.readouterr().err
    assert "training diverged" in err and str(out / "pretrain") in err
    assert not (out / "transfer").exists()


def test_a_fine_tune_that_diverges_from_trained_checkpoints_exits_4(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path, train__max_epochs=1)
    huge_lr, _, _ = write_cfg(tmp_path, "huge.cfg", train__learning_rate="1e300")
    assert cli.run(["synth", "--config", str(cfg_path)]) == 0
    assert cli.run(["pretrain", "--config", str(cfg_path)]) == 0
    args = ("transfer", "--config", str(huge_lr), "--class", "fm1", "--method", "FullFineTune")
    assert run_main(monkeypatch, *args) == 4
    assert "training diverged at epoch 1" in capsys.readouterr().err
    assert not (out / "transfer").exists()


def test_transfer_timewarp_touches_only_bias_entries(tmp_path):
    cfg_path, out, _ = write_cfg(tmp_path)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    tdir = cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    pre, _ = nn.load_params(out / "pretrain" / "ckpt_0000.json")
    post, extra = nn.load_params(tdir / "ckpt_0000.json")
    assert extra["method"] == "TimeWarp"
    hidden = pre.lstm.hidden_size
    changed = sum(
        int(np.sum(post.tensors()[name] != arr)) for name, arr in pre.tensors().items()
    )
    assert changed == 2 * hidden
    surface = (tdir / "surface_0000.csv").read_text().splitlines()
    assert len(surface) == 1 + 626  # header + 625 grid + appended zero shift
    shifts = (tdir / "shifts.csv").read_text().splitlines()
    assert shifts[0] == "realization,alpha_f,alpha_i"
    assert len(shifts) == 3


def test_transfer_no_transfer_ignores_checkpoints(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    # no pretrain run at all: NoTransfer must still work
    tdir = cli.cmd_transfer(cfg, "NoTransfer", "fm100")
    assert len(sorted(tdir.glob("ckpt_*.json"))) == 1
    with pytest.raises(ConfigError):
        cli.cmd_transfer(cfg, "FullFineTune", "fm100")
    # Corrupt checkpoints under pretrain/, which a pretrained method reads
    # and refuses: NoTransfer reads none of them and writes the same bytes.
    fresh = snapshot(tdir)
    (out / "pretrain").mkdir()
    (out / "pretrain" / "ckpt_0000.json").write_text("{not json")
    (out / "pretrain" / "manifest.json").write_text("{not json")
    args = ("transfer", "--config", str(cfg_path), "--class", "fm100", "--method")
    assert run_main(monkeypatch, *args, "FullFineTune") == 3
    assert run_main(monkeypatch, *args, "NoTransfer") == 0
    assert snapshot(tdir) == fresh


def test_evaluate_report_schema_and_filters(tmp_path):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    cli.cmd_transfer(cfg, "TimeWarp", "fm100")
    eval_dir = cli.cmd_evaluate(cfg)
    lines = (eval_dir / "report.csv").read_text().splitlines()
    assert lines[0] == "method,class,filter,r2_mean,r2_std,bias_mean,bias_std,rmse_mean,rmse_std,n"
    rows = [line.split(",")[:3] for line in lines[1:]]
    # both filters for fine fuels, only "all" for the slow class
    assert ["TimeWarp", "fm1", "all"] in rows
    assert ["TimeWarp", "fm1", "le30"] in rows
    assert ["TimeWarp", "fm100", "all"] in rows
    assert ["TimeWarp", "fm100", "le30"] not in rows
    assert (eval_dir / "medians.csv").exists()
    text = cli.cmd_report(cfg)
    assert "TimeWarp" in text


def test_evaluate_perfect_oracle_model(tmp_path):
    # A constructed time-lag unit with an identity featurization reproduces
    # the no-rain synthetic targets exactly: rmse 0, r2 1 on the test span.
    cfg_path, out, dataset = write_cfg(tmp_path, synth__rain_rate=0.0)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    oracle = nn.construct_timelag_lstm(1.0, 0, input_size=data.N_FEATURES)
    identity = data.Normalizer(mean=np.zeros(8), std=np.ones(8))
    unit = data.TargetScaler(mean=0.0, std=1.0)
    ckpt_dir = out / "transfer" / "Oracle" / "fm1"
    ckpt_dir.mkdir(parents=True)
    nn.save_params(oracle, ckpt_dir / "ckpt_0000.json",
                   extra={"normalizer": identity.to_dict(),
                          "target_scaler": unit.to_dict(),
                          "method": "Oracle", "fuel_class": "fm1"})
    eval_dir = cli.cmd_evaluate(cfg, method_name="Oracle")
    row = (eval_dir / "report.csv").read_text().splitlines()[1].split(",")
    assert row[:3] == ["Oracle", "fm1", "all"]
    assert float(row[3]) > 1.0 - 1e-12  # r2
    assert float(row[7]) < 1e-12  # rmse


def test_transfer_stage_never_reads_test_partition(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)

    class CountingSplit:
        def __init__(self, inner):
            self._inner = inner
            self.test_reads = 0

        @property
        def train(self):
            return self._inner.train

        @property
        def val(self):
            return self._inner.val

        @property
        def test(self):
            self.test_reads += 1
            return self._inner.test

    counters = []
    real_split = cli.split_dataset

    def counting_split(cfg, frame, series):
        wrapped = CountingSplit(real_split(cfg, frame, series))
        counters.append(wrapped)
        return wrapped

    monkeypatch.setattr(cli, "split_dataset", counting_split)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    assert counters and all(c.test_reads == 0 for c in counters)


def test_end_to_end_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        cfg_path, out, _ = write_cfg(base, realizations=1, grid__n_per_axis=5)
        cfg = cli.Config.load(str(cfg_path))
        cli.cmd_synth(cfg)
        cli.cmd_pretrain(cfg)
        cli.cmd_transfer(cfg, "TimeWarp", "fm1")
        eval_dir = cli.cmd_evaluate(cfg)
        outputs.append(
            (
                (eval_dir / "report.csv").read_bytes(),
                (out / "pretrain" / "ckpt_0000.json").read_bytes(),
                (out / "transfer" / "TimeWarp" / "fm1" / "ckpt_0000.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # transfer without a dataset path is a configuration error: exit code 2
    monkeypatch.setattr("sys.argv", ["fmwarp", "transfer"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    # evaluate before anything exists is an evaluation error: exit code 5
    cfg_path, _, _ = write_cfg(tmp_path)
    monkeypatch.setattr("sys.argv", ["fmwarp", "evaluate", "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 5


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["pretrain", "--bogus"], ["pretrain", "--jobs", "two"],
    ["evaluate", "--filter", "none"],
    # Each stage takes only the flags it reads.
    ["synth", "--jobs", "2"], ["evaluate", "--jobs", "2"], ["report", "--jobs", "2"],
    ["evaluate", "--seed", "1"], ["report", "--seed", "1"],
])
def test_a_command_line_the_parser_refuses_exits_2_with_one_error_line(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_main(monkeypatch, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not any(tmp_path.iterdir())


def drop_observations(cfg, dataset, fuel_class, partition):
    """Rewrite the dataset without its ``fuel_class`` observations in ``partition``."""
    frame, series = data.load_csv(dataset)
    span = getattr(cli.split_dataset(cfg, frame, series), partition).weather.times
    data.write_csv(dataset, frame, [
        data.FmcSeries(s.fuel_class, s.times[keep], s.values[keep]) for s in series
        for keep in [(s.fuel_class != fuel_class) | (s.times < span[0]) | (s.times > span[-1])]])


@pytest.mark.parametrize("dropped, class_dir, argv, code, message", [
    ("train", False, ("transfer", "--method", "NoTransfer", "--class", "fm1"), 2,
     "no fm1 observations in the training span"),
    ("val", False, ("transfer", "--method", "NoTransfer", "--class", "fm1"), 2,
     "no fm1 observations in the validation span"),
    ("test", True, ("evaluate",), 5, "no fm1 observations in the test span"),
    (None, True, ("evaluate",), 5, "no checkpoints under {out}/transfer/TimeWarp/fm1"),
    (None, True, ("evaluate", "--method", "NoTransfer"), 5,
     "nothing to evaluate (check --method/--class filters)"),
    (None, False, ("report",), 5,
     "no per-realization table at {out}/evaluate/per_realization.csv; run evaluate first"),
], ids=["no train obs", "no val obs", "no test obs", "empty class dir", "filtered out",
        "report first"])
def test_documented_exits_name_what_is_missing(tmp_path, monkeypatch, capsys, dropped, class_dir,
                                               argv, code, message):
    # Each exit writes nothing: the files under out are the same before and after.
    cfg_path, out, dataset = write_cfg(tmp_path)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    if dropped:
        drop_observations(cfg, dataset, "fm1", dropped)
    if class_dir:
        (out / "transfer" / "TimeWarp" / "fm1").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_main(monkeypatch, argv[0], "--config", str(cfg_path), *argv[1:]) == code
    assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def pretrained_run(tmp_path_factory):
    """A dataset and a two-realization pretrain, both ``ok``."""
    root = tmp_path_factory.mktemp("pretrained")
    cfg = cli.Config.load(str(write_cfg(root, train__max_epochs=1)[0]))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    return root


@pytest.mark.parametrize("text", [
    b'{"statuses": "ok"}', b'{"statuses": ["ok", 5]}', b"{not JSON", b"\xff\xfe",
    b'{"statuses": ["ok"]}',
], ids=["a string", "a number", "not JSON", "not UTF-8", "one status for two"])
def test_a_corrupt_pretrain_manifest_exits_with_data_error(pretrained_run, tmp_path, monkeypatch,
                                                           capsys, text):
    # Only a list of "ok" and "diverged", one per checkpoint, says which
    # realizations to adapt; anything else is a corrupt manifest.
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, out, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    manifest = out / "pretrain" / "manifest.json"
    manifest.write_bytes(text)
    args = ("transfer", "--config", str(cfg_path), "--method", "TimeWarp", "--class", "fm1")
    assert run_main(monkeypatch, *args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt pretrain manifest {manifest}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "transfer").exists()


def test_cli_run_synth_via_argv(tmp_path):
    cfg_path, _, dataset = write_cfg(tmp_path)
    assert cli.run(["synth", "--config", str(cfg_path)]) == 0
    assert dataset.exists()


def test_cli_transfer_uses_config_method_list(tmp_path):
    cfg_path, out, _ = write_cfg(
        tmp_path, realizations=1, methods="TimeWarp,NoTransfer", grid__n_per_axis=5
    )
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    assert cli.run(["transfer", "--config", str(cfg_path), "--class", "fm1"]) == 0
    assert (out / "transfer" / "TimeWarp" / "fm1" / "ckpt_0000.json").exists()
    assert (out / "transfer" / "NoTransfer" / "fm1" / "ckpt_0000.json").exists()


def test_jobs_flag_matches_sequential(tmp_path):
    (tmp_path / "sa").mkdir()
    (tmp_path / "sb").mkdir()
    cfg_a = write_cfg(tmp_path / "sa")
    cfg_b = write_cfg(tmp_path / "sb")
    for (cfg_path, out, _), jobs in ((cfg_a, 1), (cfg_b, 2)):
        cfg = cli.Config.load(str(cfg_path))
        cli.cmd_synth(cfg)
        cli.cmd_pretrain(cfg, jobs=jobs)
        cli.cmd_transfer(cfg, "FreezeDense", "fm1", jobs=jobs)
    for stage in ("pretrain", "transfer/FreezeDense/fm1"):
        files_a = sorted((cfg_a[1] / stage).glob("ckpt_*.json"))
        files_b = sorted((cfg_b[1] / stage).glob("ckpt_*.json"))
        assert len(files_a) == 2
        assert [p.read_bytes() for p in files_a] == [p.read_bytes() for p in files_b]


def test_transfer_of_mixed_checkpoints_matches_each_checkpoint_alone(tmp_path):
    # A hand-assembled pretrain directory: checkpoints 0 and 1 from the base
    # run, 2 with another target scaler (source class fm100) and 3 with
    # another normalizer (a shorter training span). Each adapted realization
    # must be the bytes of a run over its checkpoint alone, selected through
    # the manifest's statuses so that it keeps its index and seed.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=4, train__max_epochs=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    mixed = out / "pretrain"
    mixed.mkdir(parents=True)
    for k, overrides in enumerate(({}, {}, {"source.class": "fm100"},
                                   {"split.train_frac": "0.5"})):
        overrides["out"] = tmp_path / f"r{k}"
        run = cli.cmd_pretrain(cli.Config.load(str(cfg_path), overrides))
        shutil.copy(run / f"ckpt_{k:04d}.json", mixed)
    scalers = [cli.load_checkpoint(path)[1:] for path in sorted(mixed.glob("ckpt_*.json"))]
    normalizers, targets = ([x.to_dict() for x in xs] for xs in zip(*scalers))
    assert normalizers[0] == normalizers[1] == normalizers[2] != normalizers[3]
    assert targets[0] == targets[1] != targets[2]
    statuses = mixed / "manifest.json"
    statuses.write_text(json.dumps({"statuses": ["ok"] * 4}))
    together = snapshot(cli.cmd_transfer(cfg, "FullFineTune", "fm1", jobs=2))
    for k in range(4):
        alone = ["ok" if j == k else "diverged" for j in range(4)]
        statuses.write_text(json.dumps({"statuses": alone}))
        files = snapshot(cli.cmd_transfer(cfg, "FullFineTune", "fm1"))
        assert files[f"ckpt_{k:04d}.json"] == together[f"ckpt_{k:04d}.json"]


def test_map_opens_no_more_workers_than_tasks(monkeypatch):
    # --jobs above the task count opens one worker per task, and a single
    # task runs in this process, without a pool.
    opened = []

    class Pool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    assert cli._map(pow, [(2, 3), (3, 2)], jobs=4) == [8, 9]
    assert cli._map(pow, [(2, 5)], jobs=4) == [32]
    assert cli._map(pow, [(2, 3), (3, 2), (2, 2)], jobs=2) == [8, 9, 4]
    assert opened == [2, 2]


def test_write_cfg_paths_need_parents(tmp_path):
    # synth creates missing parent directories for the dataset path
    cfg_path, _, dataset = write_cfg(tmp_path)
    cfg = cli.Config.load(str(cfg_path), {"data.path": str(tmp_path / "deep" / "d.csv")})
    path = cli.cmd_synth(cfg)
    assert path.exists()


def test_config_rejects_unknown_keys(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="train.max_epoch"):
        cli.Config({"train.max_epoch": "1"})
    cfg_path, _, _ = write_cfg(tmp_path, train__max_epoch=1)
    with pytest.raises(ConfigError, match="train.max_epoch"):
        cli.Config.load(str(cfg_path))
    monkeypatch.setattr("sys.argv", ["fmwarp", "synth", "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2


def test_corrupt_checkpoint_exits_with_data_error(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    ckpt = out / "pretrain" / "ckpt_0000.json"
    ckpt.parent.mkdir(parents=True)
    params = nn.init_params(data.N_FEATURES, 4, (4, 3), rng=np.random.default_rng(0))
    nn.save_params(params, ckpt)
    text = ckpt.read_text()
    doc = json.loads(text)
    no_tensors = json.dumps({k: v for k, v in doc.items() if k != "tensors"})
    doc["tensors"][0]["shape"].reverse()  # (hidden, input) -> (input, hidden)
    bad_shape = json.dumps(doc)
    # One more row in every f block and one fewer in every i block: the
    # LSTM still stacks to (4H, ...) arrays, so per-gate shapes must be checked.
    doc = json.loads(text)
    for rec in doc["tensors"][:12]:
        if rec["name"][-1] in "fi":
            rec["shape"][0] += 1 if rec["name"][-1] == "f" else -1
            rec["data"] = [0.0] * int(np.prod(rec["shape"]))
    misshapen_gates = json.dumps(doc)
    doc = json.loads(text)
    w_xg = next(rec for rec in doc["tensors"] if rec["name"] == "lstm.w_xg")
    w_xg["data"][0] = float("nan")
    non_finite = json.dumps(doc)
    for corrupt in (text[: len(text) // 2], no_tensors, bad_shape, misshapen_gates, non_finite):
        ckpt.write_text(corrupt)
        monkeypatch.setattr(
            "sys.argv", ["fmwarp", "transfer", "--config", str(cfg_path), "--class", "fm1"]
        )
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 3
        assert str(ckpt) in capsys.readouterr().err


def test_checkpoint_without_valid_normalizer_exits_with_data_error(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    params = nn.init_params(data.N_FEATURES, 4, (4, 3), rng=np.random.default_rng(0))
    width = len(data.Normalizer.CONTINUOUS)
    normalizer = {"mean": [0.0] * width, "std": [1.0] * width}
    scaler = {"mean": 10.0, "std": 2.0}
    extras = (
        {},
        {"normalizer": normalizer},
        {"target_scaler": scaler},
        {"normalizer": {"mean": [0.0] * 5, "std": [1.0] * 5}, "target_scaler": scaler},
    )
    for command, stage in (("transfer", "pretrain"), ("evaluate", "transfer/TimeWarp/fm1")):
        ckpt = out / stage / "ckpt_0000.json"
        ckpt.parent.mkdir(parents=True, exist_ok=True)  # transfer makes its output dir
        for extra in extras:
            nn.save_params(params, ckpt, extra=extra)
            monkeypatch.setattr(
                "sys.argv", ["fmwarp", command, "--config", str(cfg_path), "--class", "fm1"]
            )
            with pytest.raises(SystemExit) as exc:
                cli.main()
            assert exc.value.code == 3
            assert str(ckpt) in capsys.readouterr().err
        ckpt.unlink()


def test_non_integer_dense_sizes_exit_with_config_error(tmp_path, monkeypatch, capsys):
    cfg_path, _, _ = write_cfg(tmp_path, realizations=1, arch__dense_sizes="32,x")
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    monkeypatch.setattr("sys.argv", ["fmwarp", "pretrain", "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "arch.dense_sizes" in capsys.readouterr().err


def test_transfer_searches_and_reads_once_per_realization(tmp_path, monkeypatch):
    cfg_path, _, _ = write_cfg(tmp_path, realizations=2, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    calls = {"sweep": 0, "load_params": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(transfer, "sweep")
    counting(nn, "load_params")
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    assert calls == {"sweep": 2, "load_params": 2}


def shifted_passes(monkeypatch):
    """The candidate count of each shifted kernel pass from here on."""
    passes, inner = [], nn.lstm_steps

    def wrapper(lstm, inputs, initial, shifts=None):
        if shifts is not None:
            passes.append(len(shifts))
        return inner(lstm, inputs, initial, shifts)

    monkeypatch.setattr(nn, "lstm_steps", wrapper)
    return passes


def test_a_class_takes_the_pick_an_earlier_sweep_left_once(tmp_path, monkeypatch):
    # fm1's sweep scores fm100 and fm1000 too. fm100 then runs no shifted
    # pass and writes the bytes of a cold run; a repeated fm1 call sweeps
    # again, and fm1000's pick, still waiting, is taken once. Every call
    # writes the bytes of a cold run.
    cfg_path, _, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cold = {cls: snapshot(cli.cmd_transfer(cli.Config.load(str(cfg_path), {"classes": cls}),
                                           "TimeWarp", cls))
            for cls in ("fm1", "fm100", "fm1000")}
    passes = shifted_passes(monkeypatch)
    for cls, expected in (("fm1", 2), ("fm100", 0), ("fm1", 2), ("fm1000", 0), ("fm1000", 2),
                          ("fm100", 0), ("fm1", 0), ("fm1", 2)):
        del passes[:]
        assert snapshot(cli.cmd_transfer(cfg, "TimeWarp", cls)) == cold[cls]
        assert passes == [26] * expected, cls


def test_a_rewritten_checkpoint_gets_no_waiting_pick(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    ckpt = out / "pretrain" / "ckpt_0000.json"
    params, normalizer, scaler = cli.load_checkpoint(ckpt)
    params.dense[-1].bias[:] += 0.5
    cli.save_checkpoint(ckpt, params, normalizer, scaler)
    passes = shifted_passes(monkeypatch)
    warm = snapshot(cli.cmd_transfer(cfg, "TimeWarp", "fm100"))
    assert len(passes) == 1  # realization 1 takes its pick; 0 sweeps again
    monkeypatch.setattr(cli, "_WAITING", {})
    assert snapshot(cli.cmd_transfer(cfg, "TimeWarp", "fm100")) == warm
    assert len(passes) == 3


def test_transfer_with_a_class_sweeps_that_class_alone(tmp_path, monkeypatch):
    cfg_path, _, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    assert cli.run(["synth", "--config", str(cfg_path)]) == 0
    assert cli.run(["pretrain", "--config", str(cfg_path)]) == 0
    swept, inner = [], transfer.sweep
    monkeypatch.setattr(transfer, "sweep", lambda params, series, grid: (
        swept.append(len(series)) or inner(params, series, grid)))
    assert cli.run(["transfer", "--config", str(cfg_path), "--class", "fm1"]) == 0
    assert swept == [1, 1]
    assert cli._WAITING == {}


def test_transfer_without_a_class_runs_every_method_and_class_in_one_sweep_each(
        tmp_path, monkeypatch):
    # Method-major over methods x classes: one sweep per checkpoint and
    # method, and every file as per-class runs write it.
    cfg_path, out, _ = write_cfg(tmp_path, grid__n_per_axis=5, classes="fm1,fm100",
                                 methods="TimeWarp,TimeWarpFineTune")
    assert cli.run(["synth", "--config", str(cfg_path)]) == 0
    assert cli.run(["pretrain", "--config", str(cfg_path)]) == 0
    for cls in ("fm1", "fm100"):
        assert cli.run(["transfer", "--config", str(cfg_path), "--class", cls]) == 0
    per_class = {d: snapshot(out / "transfer" / d)
                 for d in ("TimeWarp/fm1", "TimeWarp/fm100", "TimeWarpFineTune/fm1",
                           "TimeWarpFineTune/fm100")}
    shutil.rmtree(out / "transfer")
    passes = shifted_passes(monkeypatch)
    assert cli.run(["transfer", "--config", str(cfg_path)]) == 0
    assert {d: snapshot(out / "transfer" / d) for d in per_class} == per_class
    assert len(passes) == 2 * 2


@pytest.mark.parametrize("extra, dropped, message", [
    ({"classes": "fm1,fm5"}, None, "config key 'classes' must be"),
    ({}, "train", "no fm1000 observations in the training span"),
    ({}, "val", "no fm1000 observations in the validation span"),
], ids=["unknown class", "no train obs", "no val obs"])
def test_a_class_without_observations_exits_before_any_method_runs(
        pretrained_run, tmp_path, monkeypatch, capsys, extra, dropped, message):
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, out, dataset = write_cfg(tmp_path, grid__n_per_axis=5, **extra)
    if dropped:
        drop_observations(cli.Config.load(str(cfg_path)), dataset, "fm1000", dropped)
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    capsys.readouterr()
    assert run_main(monkeypatch, "transfer", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def run_main(monkeypatch, *argv):
    monkeypatch.setattr("sys.argv", ["fmwarp", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


def test_pretrain_rerun_replaces_stage_directory_whole(tmp_path):
    # Three realizations at seed 11, then one at seed 7 into the same out:
    # the second run must not keep ckpt_0001/ckpt_0002 of the first.
    cfg3, out, _ = write_cfg(tmp_path, "r3.cfg", realizations=3, train__max_epochs=1)
    cfg1, _, _ = write_cfg(tmp_path, "r1.cfg", realizations=1, train__max_epochs=1,
                           grid__n_per_axis=5)
    assert cli.run(["synth", "--config", str(cfg3)]) == 0
    assert cli.run(["pretrain", "--config", str(cfg3), "--seed", "11"]) == 0
    assert len(list((out / "pretrain").glob("ckpt_*.json"))) == 3
    assert cli.run(["pretrain", "--config", str(cfg1)]) == 0
    assert sorted(snapshot(out / "pretrain")) == ["ckpt_0000.json", "history_0000.csv",
                                                  "manifest.json"]
    assert json.loads((out / "pretrain" / "manifest.json").read_text())["seeds"] == [7]
    assert cli.run(["transfer", "--config", str(cfg1), "--class", "fm1"]) == 0
    manifest = json.loads((out / "transfer" / "TimeWarp" / "fm1" / "manifest.json").read_text())
    assert manifest["realizations"] == 1
    assert not any(p.is_file() for p in (out / ".partial").rglob("*"))


def test_failed_transfer_leaves_no_stage_directory(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    # No pretrain yet: FullFineTune fails and must not leave an empty
    # directory behind for evaluate to trip over.
    args = ("transfer", "--config", str(cfg_path), "--class", "fm1")
    assert run_main(monkeypatch, *args, "--method", "FullFineTune") == 2
    assert not (out / "transfer" / "FullFineTune").exists()
    assert run_main(monkeypatch, *args, "--method", "NoTransfer") == 0
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 0


def test_pretrain_failing_midway_keeps_previous_outputs(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, train__max_epochs=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    before = snapshot(out / "pretrain")
    real_save = nn.save_params
    saved = []

    def failing_save(*args, **kwargs):
        saved.append(args[1])
        if len(saved) == 2:
            raise OSError("disk full")
        return real_save(*args, **kwargs)

    monkeypatch.setattr(nn, "save_params", failing_save)
    # A different seed, so the first checkpoint of the rerun differs.
    with pytest.raises(OSError, match="disk full"):
        cli.cmd_pretrain(cli.Config.load(str(cfg_path), {"seed": 11}))
    assert snapshot(out / "pretrain") == before
    assert not any(p.is_file() for p in (out / ".partial").rglob("*"))


def test_synth_writes_data_path_or_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "no_data.cfg"
    cfg_path.write_text(f"out = {out}\nsynth.n_days = 12\n")
    assert run_main(monkeypatch, "synth", "--config", str(cfg_path)) == 2
    assert "data.path" in capsys.readouterr().err
    assert not out.exists()
    dataset = tmp_path / "given.csv"
    assert run_main(monkeypatch, "synth", "--config", str(cfg_path), "--out", str(dataset)) == 0
    assert dataset.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["given.csv", "no_data.cfg"]


def test_pretrain_sweeps_partial_directories_of_dead_runs(tmp_path):
    # Leftovers of killed pretrain runs (a pid that cannot be alive) are
    # removed; another stage's partial directory of a live pid is kept.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, train__max_epochs=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    partial = out / ".partial"
    planted = ["pretrain.2147483647", "pretrain.2147483647.old",
               f"transfer.TimeWarp.fm1.{os.getpid()}"]
    for name in planted:
        (partial / name).mkdir(parents=True)
        (partial / name / "ckpt_0000.json").write_text("{}")
    cli.cmd_pretrain(cfg)
    assert sorted(p.name for p in partial.iterdir()) == [planted[2]]
    assert (partial / planted[2] / "ckpt_0000.json").exists()


def test_stage_dir_keeps_the_directories_of_live_or_impossible_pids(tmp_path):
    # pid 1 is alive, and 2**80 overflows os.kill: both are kept. The pid of
    # a child that has been reaped is gone, and its directory is removed.
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    cfg_path, out, _ = write_cfg(tmp_path)
    partial = out / ".partial"
    kept = ["pretrain.1", f"pretrain.{2**80}"]
    for name in [*kept, f"pretrain.{child.pid}"]:
        (partial / name).mkdir(parents=True)
    with cli.stage_dir(cli.Config.load(str(cfg_path)), "pretrain") as tmp:
        assert sorted(p.name for p in partial.iterdir()) == sorted([*kept, tmp.name])


def test_transfer_rejects_a_class_outside_the_fuel_classes(tmp_path):
    cfg_path, out, _ = write_cfg(tmp_path)
    with pytest.raises(ConfigError, match="unknown fuel class 'fm2'"):
        cli.cmd_transfer(cli.Config.load(str(cfg_path)), "TimeWarp", "fm2")
    assert not out.exists()


def test_checkpoint_of_wrong_input_width_exits_with_data_error(tmp_path, monkeypatch, capsys):
    # A network built for 11 inputs cannot run on the 12 features of the data.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    params = nn.init_params(data.N_FEATURES - 1, 4, (4, 3), rng=np.random.default_rng(0))
    width = len(data.Normalizer.CONTINUOUS)
    extra = {"normalizer": {"mean": [0.0] * width, "std": [1.0] * width},
             "target_scaler": {"mean": 10.0, "std": 2.0}}
    pretrained = out / "pretrain" / "ckpt_0000.json"
    pretrained.parent.mkdir(parents=True)
    nn.save_params(params, pretrained, extra=extra)
    for method in ("TimeWarp", "FullFineTune"):
        code = run_main(monkeypatch, "transfer", "--config", str(cfg_path), "--class", "fm1",
                        "--method", method)
        assert code == 3
        assert str(pretrained) in capsys.readouterr().err
    adapted = out / "transfer" / "TimeWarp" / "fm1" / "ckpt_0000.json"
    adapted.parent.mkdir(parents=True)
    nn.save_params(params, adapted, extra=extra)
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 3
    assert str(adapted) in capsys.readouterr().err


def test_report_rejects_malformed_per_realization_table(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path)
    table = out / "evaluate" / "per_realization.csv"
    table.parent.mkdir(parents=True)
    per_realization = [evaluation.MetricSet(r2=0.5, bias=0.25, rmse=1.5, n=40),
                       evaluation.MetricSet(r2=0.75, bias=-0.125, rmse=1.25, n=40)]
    report = evaluation.aggregate(per_realization, "TimeWarp", "fm1", "all")
    evaluation.write_per_realization_csv([report], table)
    good = table.read_text()
    assert run_main(monkeypatch, "report", "--config", str(cfg_path)) == 0
    assert capsys.readouterr().out == evaluation.format_report_table([report]) + "\n"
    header, first, last = good.splitlines()
    cells = first.split(",")
    cells[6] = "n/a"  # the rmse column
    corrupt = {
        "truncated last row": (good[: good.rindex(",")] + "\n", 3),
        "wrong header": (good.replace("rmse", "rms", 1), 1),
        "non-numeric rmse": ("\n".join([header, ",".join(cells), last]) + "\n", 2),
    }
    for case, (text, row) in corrupt.items():
        table.write_text(text)
        assert run_main(monkeypatch, "report", "--config", str(cfg_path)) == 3, case
        assert f"row {row}:" in capsys.readouterr().err, case


def test_evaluate_refuses_a_method_name_its_tables_cannot_hold(tmp_path, monkeypatch, capsys):
    # The method name comes from the directory name; a comma in it would
    # give every table row one cell too many, which report cannot read.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    tdir = cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    shutil.copytree(tdir, out / "transfer" / "Time,Warp" / "fm1")
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 3
    assert "row 2 " in capsys.readouterr().err
    assert not (out / "evaluate").exists()
    assert not any((out / ".partial").iterdir())


def test_stage_errors_name_the_final_path(tmp_path, monkeypatch, capsys):
    # The first table evaluate writes, report.csv, is refused for the comma;
    # the error names where it would have gone, not the removed .partial/.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    (out / "transfer" / "TimeWarp").rename(out / "transfer" / "Time,Warp")
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert f"{out / 'evaluate' / 'report.csv'}: row 2 " in err
    assert ".partial" not in err


@pytest.mark.parametrize("key, value, code", [
    ("arch__hidden_size", 0, 2),
    ("arch__hidden_size", -3, 2),
    ("arch__dense_sizes", "0,3", 2),
    ("train__max_epochs", 0, 3),
])
def test_pretrain_rejects_sizes_and_epochs_below_one(tmp_path, monkeypatch, capsys, key, value,
                                                     code):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, **{key: value})
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    assert run_main(monkeypatch, "pretrain", "--config", str(cfg_path)) == code
    assert key.split("__")[1] in capsys.readouterr().err
    assert not (out / "pretrain").exists()


def test_evaluate_refuses_a_method_name_that_utf8_cannot_encode(tmp_path, monkeypatch, capsys):
    # A directory named with byte 0xff has the lone surrogate \udcff in its
    # Python name, which no UTF-8 table can hold.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    tdir = cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    shutil.copytree(tdir, out / "transfer" / "Time\udcffWarp" / "fm1")
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 3
    # report.csv is written first; its rows 2 and 3 are TimeWarp's, which sorts first.
    assert "report.csv: row 4 " in capsys.readouterr().err
    assert not (out / "evaluate").exists()
    assert not any((out / ".partial").iterdir())


def test_one_row_dataset_without_a_time_exits_with_data_error(tmp_path, monkeypatch, capsys):
    cfg_path, _, dataset = write_cfg(tmp_path)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    header, first = dataset.read_text().splitlines()[:2]
    dataset.write_text("\n".join([header, "Z" + first[first.index(","):]]) + "\n")
    assert run_main(monkeypatch, "pretrain", "--config", str(cfg_path)) == 3
    assert "row 2:" in capsys.readouterr().err


def test_evaluate_rows_do_not_depend_on_the_checkpoints_run_with_them(tmp_path, monkeypatch):
    # A transfer root that mixes architectures: NoTransfer at hidden size 6
    # next to TimeWarp at 4. Checkpoints run in lockstep with their
    # neighbours; each one's rows must be those of its solo forward pass.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=3, train__max_epochs=1,
                                 grid__n_per_axis=5)
    wide_path, _, _ = write_cfg(tmp_path, "wide.cfg", realizations=3, train__max_epochs=1,
                                arch__hidden_size=6)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    cli.cmd_transfer(cfg, "TimeWarp", "fm100")
    cli.cmd_transfer(cli.Config.load(str(wide_path)), "NoTransfer", "fm1")

    real_forward = nn.forward
    stacks = []

    def recording_forward(params, inputs, initial=None, from_step=0):
        preds, state = real_forward(params, inputs, initial, from_step)
        stacks.append((params, inputs, preds, from_step))
        return preds, state

    monkeypatch.setattr(nn, "forward", recording_forward)
    full = snapshot(cli.cmd_evaluate(cfg))
    # NoTransfer/fm1 (H=6), then TimeWarp/fm1 and TimeWarp/fm100 in one run.
    assert [(p.stack_shape, p.lstm.hidden_size) for p, *_ in stacks] == [((3,), 6), ((6,), 4)]
    for params, inputs, preds, from_step in stacks:
        for r in range(len(preds)):
            solo, _ = real_forward(params.take(r), inputs)
            assert_array_equal(preds[r], solo[from_step:])
    rows = full["per_realization.csv"].decode().splitlines()
    assert len(rows) == 1 + 3 * 5  # NoTransfer fm1 all/le30, TimeWarp fm1 all/le30 and fm100

    # Capped runs, and one cell evaluated alone, give the same rows.
    stacks.clear()
    monkeypatch.setattr(cli, "LOCKSTEP_MAX", 2)
    assert snapshot(cli.cmd_evaluate(cfg)) == full
    assert [p.stack_shape for p, *_ in stacks] == [(2,), (1,), (2,), (2,), (2,)]
    alone = cli.cmd_evaluate(cfg, method_name="TimeWarp", fuel_class="fm100")
    alone_rows = (alone / "per_realization.csv").read_text().splitlines()
    assert alone_rows[0] == rows[0]
    assert alone_rows[1:] == [row for row in rows if row.startswith("TimeWarp,fm100,")]
    assert len(alone_rows) == 1 + 3


def test_evaluate_runs_the_dense_stack_only_on_blocks_that_reach_the_test_span(tmp_path,
                                                                             monkeypatch):
    # With 32-step blocks, the blocks of the 288-hour frame that end before
    # its test span run the kernel alone; the rows evaluate scores are those
    # of the full forward pass, masked to the test span.
    cfg_path, _, _ = write_cfg(tmp_path, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    for method in ("NoTransfer", "TimeWarp"):
        cli.cmd_transfer(cfg, method, "fm1")
    frame, series = cli.load_dataset(cfg)
    parts = cli.split_dataset(cfg, frame, series)
    test_sel = frame.times > parts.val.weather.times[-1]
    test_start = len(frame) - test_sel.sum()
    monkeypatch.setattr(nn, "PROJECTION_BLOCK", 32)
    assert test_start > 2 * 32
    real_forward, real_dense = nn.forward, nn.dense_forward
    calls = []  # per forward call, the row counts of its dense blocks

    def recording_forward(*args, **kwargs):
        calls.append([])
        return real_forward(*args, **kwargs)

    def recording_dense(dense, h, cache=None):
        calls[-1].append(h.shape[-2])
        return real_dense(dense, h, cache)

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "dense_forward", recording_dense)
    got = snapshot(cli.cmd_evaluate(cfg))
    assert calls
    for rows in calls:
        # The blocks of one forward pass run in order, the last ending at T.
        ends = len(frame) - sum(rows) + np.cumsum(rows)
        assert ends[0] > test_start and ends[-1] == len(frame)

    def masked_forward(params, inputs, initial=None, from_step=0):
        preds, state = real_forward(params, inputs, initial)
        return preds[..., test_sel], state

    monkeypatch.setattr(nn, "forward", masked_forward)
    assert snapshot(cli.cmd_evaluate(cfg)) == got


def test_undecodable_text_exits_with_config_or_data_error(tmp_path, monkeypatch, capsys):
    # A byte that is not UTF-8 is a data error at its row in the dataset
    # and in the per-realization table, and a config error in the config.
    cfg_path, out, dataset = write_cfg(tmp_path)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    lines = dataset.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b",", b",\xff", 1)
    dataset.write_bytes(b"".join(lines))
    assert run_main(monkeypatch, "pretrain", "--config", str(cfg_path)) == 3
    assert "row 5:" in capsys.readouterr().err

    table = out / "evaluate" / "per_realization.csv"
    table.parent.mkdir(parents=True)
    table.write_bytes(",".join(evaluation.PER_REALIZATION_COLUMNS).encode()
                      + b"\r\nTime\xffWarp,fm1,all,0,0.5,0.25,1.5,40\r\n")
    assert run_main(monkeypatch, "report", "--config", str(cfg_path)) == 3
    assert "row 2:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = \xff\n")
    assert run_main(monkeypatch, "pretrain", "--config", str(bad)) == 2
    assert str(bad) in capsys.readouterr().err


def test_realizations_below_one_exit_with_config_error(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=0)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    for argv in (["pretrain"], ["transfer", "--method", "NoTransfer", "--class", "fm1"]):
        assert run_main(monkeypatch, *argv, "--config", str(cfg_path)) == 2, argv
        assert "'realizations'" in capsys.readouterr().err, argv
    assert not (out / "pretrain").exists() and not (out / "transfer").exists()


def test_year_split_gives_validation_the_odd_row(tmp_path):
    # split.rule = year (the default rule) on 288 hourly rows: 101 rows of
    # training, and the other 187 halved with validation taking the odd row.
    cfg_path, _, _ = write_cfg(tmp_path, split__rule="year", split__train_rows=101)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    parts = cli.split_dataset(cfg, *cli.load_dataset(cfg))
    sizes = [len(part.weather) for part in (parts.train, parts.val, parts.test)]
    assert sizes == [101, 94, 93]


def test_jobs_below_one_exit_with_config_error(tmp_path, monkeypatch, capsys):
    # --jobs, the jobs key and the jobs= argument alike.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1)
    zero_path, _, _ = write_cfg(tmp_path, "zero.cfg", realizations=1, jobs=0)
    cli.cmd_synth(cli.Config.load(str(cfg_path)))
    for argv in (["pretrain", "--jobs", "0"], ["pretrain", "--jobs", "-4"],
                 ["transfer", "--method", "NoTransfer", "--class", "fm1", "--jobs", "0"]):
        assert run_main(monkeypatch, *argv, "--config", str(cfg_path)) == 2, argv
        assert "'jobs'" in capsys.readouterr().err, argv
    assert run_main(monkeypatch, "pretrain", "--config", str(zero_path)) == 2
    assert "'jobs'" in capsys.readouterr().err
    cfg = cli.Config.load(str(cfg_path))
    with pytest.raises(ConfigError, match="'jobs'"):
        cli.cmd_pretrain(cfg, jobs=0)
    with pytest.raises(ConfigError, match="'jobs'"):
        cli.cmd_transfer(cfg, "NoTransfer", "fm1", jobs=-1)
    assert not (out / "pretrain").exists() and not (out / "transfer").exists()


@pytest.mark.parametrize("key, value, stage, name", [
    ("grid__lo", "-inf", "transfer", "grid.lo"),
    ("grid__hi", "inf", "transfer", "grid.hi"),
    ("train__learning_rate", "inf", "pretrain", "learning_rate"),
])
def test_non_finite_grid_bound_or_learning_rate_exit_with_data_error(
        tmp_path, monkeypatch, capsys, key, value, stage, name):
    # Rejected where they enter: no numpy warning, no stage directory.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    bad_path, _, _ = write_cfg(tmp_path, "bad.cfg", realizations=1, grid__n_per_axis=5,
                               **{key: value})
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    if stage == "transfer":
        cli.cmd_pretrain(cfg)
    argv = [stage] + (["--method", "TimeWarp", "--class", "fm1"] if stage == "transfer" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_main(monkeypatch, *argv, "--config", str(bad_path)) == 3
    assert name in capsys.readouterr().err
    assert not (out / stage).exists()


def test_evaluate_scores_only_the_filter_asked_for_and_names_a_cell_without_pairs(
        tmp_path, monkeypatch, capsys):
    # Every fm1 observation above 30 %: the le30 cell of fm1 has no pairs.
    cfg_path, out, dataset = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    cli.cmd_transfer(cfg, "TimeWarp", "fm1")
    frame, series = data.load_csv(dataset)
    data.write_csv(dataset, frame, [
        data.FmcSeries(s.fuel_class, s.times, s.values + 40.0 * (s.fuel_class == "fm1"))
        for s in series])
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path), "--filter", "all") == 0
    report = snapshot(out / "evaluate")
    assert [row.split(",")[:3] for row in report["report.csv"].decode().splitlines()[1:]] == [
        ["TimeWarp", "fm1", "all"]]
    capsys.readouterr()
    assert run_main(monkeypatch, "evaluate", "--config", str(cfg_path)) == 5
    assert "TimeWarp fm1 le30" in capsys.readouterr().err
    assert snapshot(out / "evaluate") == report


def test_a_bad_method_in_the_list_exits_before_any_method_runs(tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5,
                                 methods="TimeWarp,Bogus")
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    assert run_main(monkeypatch, "transfer", "--config", str(cfg_path), "--class", "fm1") == 2
    assert "'methods'" in capsys.readouterr().err
    assert not (out / "transfer").exists()


@pytest.mark.parametrize("key, value, flag", [
    ("methods", "TimeWarp,timewarp", ("--class", "fm1")),
    ("classes", "fm1,fm1", ("--method", "TimeWarp")),
])
def test_a_name_repeated_in_the_list_exits_before_any_method_runs(tmp_path, monkeypatch, capsys,
                                                                  key, value, flag):
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5, **{key: value})
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    cli.cmd_pretrain(cfg)
    assert run_main(monkeypatch, "transfer", "--config", str(cfg_path), *flag) == 2
    assert f"'{key}' must be distinct" in capsys.readouterr().err
    assert not (out / "transfer").exists()


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["pretrain"],
    ["pretrain", "--seed", "-1"],
    ["transfer", "--method", "FullFineTune", "--class", "fm1"],
], ids=["synth", "pretrain", "pretrain-flag", "transfer"])
def test_a_negative_seed_exits_with_config_error(tmp_path, monkeypatch, capsys, argv):
    cfg_path, out, dataset = write_cfg(tmp_path, realizations=1)
    bad_path, _, _ = write_cfg(tmp_path, "bad.cfg", realizations=1, seed=-1)
    cfg = cli.Config.load(str(cfg_path))
    written = {"synth": dataset, "pretrain": out / "pretrain", "transfer": out / "transfer"}
    if argv[0] != "synth":
        cli.cmd_synth(cfg)
        if argv[0] == "transfer":
            cli.cmd_pretrain(cfg)
    bad = cfg_path if "--seed" in argv else bad_path
    capsys.readouterr()
    assert run_main(monkeypatch, *argv, "--config", str(bad)) == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err
    assert not written[argv[0]].exists()


@pytest.mark.parametrize("key, value", [
    ("synth__cap", "nan"), ("synth__cap", "inf"),
    ("synth__rain_rate", "nan"), ("synth__rain_rate", "inf"), ("synth__rain_rate", "-1"),
])
def test_a_non_finite_or_negative_synth_setting_exits_with_config_error(
        tmp_path, monkeypatch, capsys, key, value):
    cfg_path, _, dataset = write_cfg(tmp_path, **{key: value})
    assert run_main(monkeypatch, "synth", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert f"'{key.replace('__', '.')}'" in err and "Traceback" not in err
    assert not dataset.exists()


def test_every_config_key_parses_a_text_or_raises_config_error():
    cfg = cli.Config({})
    for key in cli.KEYS:
        for text in ("-1", "nan", "inf", "junk", ""):
            try:
                cfg.get(key, text)
            except ConfigError as exc:
                assert f"config key {key!r} must be" in str(exc)


@pytest.mark.parametrize("argv, extra, prep, code, message", [
    (("transfer", "--method", "NoTransfer", "--class", "fm7"), {}, None, 2, "'fm7'"),
    (("pretrain",), {"data__fill": "bogus"}, None, 3, "'bogus'"),
    (("pretrain",), {"split__train_frac": "1.5"}, None, 3, "train_frac"),
    (("synth",), {"synth__n_days": "0"}, None, 3, "n_days"),
    (("transfer", "--method", "TimeWarp", "--class", "fm1"), {"grid__lo": "5"}, None, 3,
     "grid lo"),
    (("transfer", "--method", "TimeWarp", "--class", "fm1"), {"grid__n_per_axis": "1"}, None, 3,
     "n_per_axis"),
    (("evaluate",), {"filter__threshold": "0"}, "transfer", 3, "threshold"),
    (("transfer", "--method", "TimeWarp", "--class", "fm1"), {}, "checkpoint format", 3,
     "checkpoint format 'other'"),
], ids=["unknown class", "unknown fill", "train_frac above 1", "no synth days",
        "empty grid range", "one grid point", "zero filter threshold", "checkpoint format"])
def test_input_checks_exit_before_writing(pretrained_run, tmp_path, monkeypatch, capsys, argv,
                                          extra, prep, code, message):
    # Each refused input exits with its code and one error line, and
    # leaves every file and directory under the run as it was.
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, out, _ = write_cfg(tmp_path, **{"grid__n_per_axis": 5, **extra})
    if prep == "transfer":  # transfer does not read filter.threshold
        cli.cmd_transfer(cli.Config.load(str(cfg_path)), "TimeWarp", "fm1")
    elif prep == "checkpoint format":
        ckpt = out / "pretrain" / "ckpt_0000.json"
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "format": "other"}))
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    capsys.readouterr()
    assert run_main(monkeypatch, argv[0], "--config", str(cfg_path), *argv[1:]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("argv, extra", [
    (("pretrain",), {"arch__hidden_size": "3000000"}),
    (("pretrain",), {"arch__hidden_size": str(10**30)}),
    (("pretrain",), {"arch__dense_sizes": f"4,{10**21}"}),
    (("transfer", "--method", "TimeWarp", "--class", "fm1"), {"grid__n_per_axis": str(10**30)}),
    (("synth",), {"synth__n_days": str(10**30)}),
], ids=["hidden 262 TiB", "hidden beyond intp", "dense beyond intp", "grid beyond intp",
        "synth days beyond intp"])
def test_an_oversize_config_exits_1_before_writing(pretrained_run, tmp_path, monkeypatch, capsys,
                                                   argv, extra):
    # Each size is one numpy refuses before it touches memory: a shape
    # beyond intp, or one array above the 128 TiB user address space. The
    # failure is one error line and exit 1, and the run is left as it was.
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, _, _ = write_cfg(tmp_path, **{"grid__n_per_axis": 5, **extra})
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    capsys.readouterr()
    assert run_main(monkeypatch, argv[0], "--config", str(cfg_path), *argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


def test_every_error_class_carries_its_exit_code():
    def subclasses(cls):
        return [cls] + [sub for child in cls.__subclasses__() for sub in subclasses(child)]

    codes = {cls.__name__: cls.exit_code for cls in subclasses(errors.FmwarpError)[1:]}
    assert codes == {
        "ConfigError": 2,
        "ParseError": 3, "SplitError": 3, "AlignmentError": 3, "InvalidInputError": 3,
        "DegenerateMaskError": 3, "DimensionError": 3,
        "TrainingDivergedError": 4,
        "SearchFailedError": 5, "EvaluationError": 5, "ZeroVarianceError": 5,
    }


def counting_reads(monkeypatch):
    """The calls of the CSV reader from here on, one path each."""
    reads, inner = [], data._read_blocks

    def wrapper(path, *args):
        reads.append(path)
        return inner(path, *args)

    monkeypatch.setattr(data, "_read_blocks", wrapper)
    return reads


def test_after_pretrain_transfer_and_evaluate_read_the_kept_dataset(tmp_path, monkeypatch):
    # pretrain keeps its parse under out/dataset, keyed by the CSV's bytes;
    # the stages after it never call the CSV reader.
    cfg_path, out, _ = write_cfg(tmp_path, realizations=1, grid__n_per_axis=5,
                                 methods="TimeWarp,NoTransfer")
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    reads = counting_reads(monkeypatch)
    cli.cmd_pretrain(cfg)
    assert len(reads) == 1
    [kept] = (out / "dataset").iterdir()
    assert kept == cli.kept_dataset(cfg)
    first = kept.read_bytes()
    cli.cmd_pretrain(cfg, jobs=2)  # a rerun reads it, and keeps the same bytes
    assert [p.name for p in (out / "dataset").iterdir()] == [kept.name]
    assert kept.read_bytes() == first
    assert cli.run(["transfer", "--config", str(cfg_path)]) == 0
    assert cli.run(["evaluate", "--config", str(cfg_path)]) == 0
    assert len(reads) == 1


@pytest.mark.parametrize("damage", [
    lambda kept: kept.write_bytes(kept.read_bytes()[:-100]),
    lambda kept: np.save(kept, np.load(kept)[:, 1:]),
    lambda kept: kept.write_text("not an array\n"),
], ids=["truncated", "wrong shape", "not npy"])
def test_a_damaged_kept_dataset_gives_the_outputs_of_a_parse(pretrained_run, tmp_path,
                                                             monkeypatch, damage):
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, out, _ = write_cfg(tmp_path, grid__n_per_axis=5, methods="TimeWarp,FreezeDense")
    stages = (["transfer", "--config", str(cfg_path), "--class", "fm1"],
              ["evaluate", "--config", str(cfg_path)])
    reads = counting_reads(monkeypatch)
    outputs = []
    for damaged in (False, True):
        if damaged:
            damage(cli.kept_dataset(cli.Config.load(str(cfg_path))))
        assert [cli.run(argv) for argv in stages] == [0, 0]
        outputs.append({path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                        if path.is_file() and path.parts[len(out.parts)] != "dataset"})
        assert len(reads) == 2 * damaged
    assert outputs[0] == outputs[1]


def test_a_failing_pretrain_keeps_no_dataset(tmp_path, monkeypatch):
    cfg_path, out, _ = write_cfg(tmp_path, train__max_epochs=1)
    cfg = cli.Config.load(str(cfg_path))
    cli.cmd_synth(cfg)
    monkeypatch.setattr(nn, "save_params", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.cmd_pretrain(cfg)
    assert not (out / "dataset").exists()
    # A run that stops before training: no fm10 observation in the training span.
    drop_observations(cfg, tmp_path / "synth.csv", "fm10", "train")
    with pytest.raises(ConfigError, match="no fm10 observations in the training span"):
        cli.cmd_pretrain(cfg)
    assert not (out / "dataset").exists() and not (out / "pretrain").exists()


def test_an_edited_dataset_is_parsed_again_and_its_bad_row_named(pretrained_run, tmp_path,
                                                                  monkeypatch, capsys):
    # The key is the content: after a clean pretrain, one cell of the CSV
    # turns negative, and transfer parses the file and names the row.
    shutil.copytree(pretrained_run, tmp_path, dirs_exist_ok=True)
    cfg_path, out, dataset = write_cfg(tmp_path, grid__n_per_axis=5)
    lines = dataset.read_text().splitlines(keepends=True)
    cells = lines[99].split(",")
    cells[data.CSV_HEADER.index("rain")] = "-1.0"
    lines[99] = ",".join(cells)
    dataset.write_text("".join(lines))
    capsys.readouterr()
    code = run_main(monkeypatch, "transfer", "--config", str(cfg_path), "--method", "TimeWarp",
                    "--class", "fm1")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: row 100: negative rain or solar value at ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "transfer").exists()
