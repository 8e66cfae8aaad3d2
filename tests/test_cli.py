import csv
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from mica import bench, cli
from mica.attention import MicaConfig
from mica.backbone import (ForecastModel, ModelConfig, config_digest,
                           load_params, save_params)
from mica.bench import count_flops, count_params
from mica.cli import (main, model_config_from, parse_config,
                      train_config_from)
from mica.data import (ConfigError, _load_clean_wide, chrono_split,
                       gen_leadlag, load_csv, pca_fit, write_csv)
from mica.tensor import Tensor
from mica.training import (TrainConfig, TrainingDivergedError,
                           eval_windows, predict)

TINY_CONF = """\
# tiny end-to-end run
model.horizon = 4
model.input_size = 8
model.n_layers = 1
model.d_model = 8
model.n_heads = 2
model.ff_hidden = 16
model.d_k = 4
model.d_v = 4
model.patch_len = 4
model.stride = 4
model.mica = true          # gate on
train.windows_batch = 4
train.max_steps = 6
train.val_check_every = 3
train.early_stop_patience = 5
train.seeds = 1,2
data.path = {data}
data.val_size = 20
data.test_size = 20
"""


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "panel.csv"
    write_csv(gen_leadlag(2, 120, lag=2, noise_sigma=0.1, seed=5), data)
    conf = tmp_path / "run.conf"
    conf.write_text(TINY_CONF.format(data=data))
    return tmp_path, conf


def read_text(path: Path) -> str:
    return Path(path).read_text()


# -- config parsing ---------------------------------------------------------------

def test_parse_config_defaults_comments_and_sugar(tmp_path):
    conf = tmp_path / "a.conf"
    conf.write_text("model.horizon = 24\ntrain.seeds = 1..3\n"
                    "# full-line comment\nbench.grid = 2,4,8\n")
    parsed = parse_config(conf)
    assert parsed["model.horizon"] == 24
    assert parsed["train.seeds"] == (1, 2, 3)
    assert parsed["bench.grid"] == (2, 4, 8)
    assert parsed["model.d_model"] == 256  # default untouched
    assert parsed["model.mica"] is False


def test_parse_config_rejects_unknown_and_duplicates(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("model.horizon = 4\nmodel.hidden = 12\n")
    with pytest.raises(ConfigError, match="unknown key 'model.hidden'"):
        parse_config(conf)
    conf.write_text("model.horizon = 4\nmodel.horizon = 8\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(conf)
    conf.write_text("model.horizon = abc\n")
    with pytest.raises(ConfigError, match="bad.conf:1"):
        parse_config(conf)


def test_removed_settings_are_rejected(tmp_path):
    conf = tmp_path / "f.conf"
    conf.write_text("model.horizon = 4\ndata.frequency = h\n")
    with pytest.raises(ConfigError,
                       match="f.conf:2: unknown key 'data.frequency'"):
        parse_config(conf)
    conf.write_text("model.horizon = 4\n")
    with pytest.raises(SystemExit):
        main(["flops", "--config", str(conf), "--threads", "1"])


def test_config_keys_are_the_config_class_fields(tmp_path):
    owners = {"model": (ModelConfig, MicaConfig), "train": (TrainConfig,)}
    field_defaults = {}
    for prefix, classes in owners.items():
        for cls in classes:
            for f in fields(cls):
                if f.name != "mica":
                    field_defaults.setdefault(f"{prefix}.{f.name}", f.default)
    keys = {k for k in cli.SCHEMA if k.split(".")[0] in owners}
    assert keys == set(field_defaults) | {"model.mica"}
    # those keys hold a parser and help text, and no default of their own
    assert all(len(cli.SCHEMA[k]) == 2 for k in keys)
    conf = tmp_path / "empty.conf"
    conf.write_text("")
    parsed = parse_config(conf)
    assert set(parsed) == set(cli.SCHEMA)
    for key, default in field_defaults.items():
        assert parsed[key] == (None if default is MISSING else default), key
    assert parsed["model.mica"] is False
    assert (model_config_from({**parsed, "model.horizon": 4})
            == ModelConfig(horizon=4))
    assert train_config_from(parsed) == TrainConfig()


def test_mica_only_keys_need_mica(workspace, capsys):
    tmp, conf = workspace
    off = tmp / "off.conf"
    off.write_text(conf.read_text().replace("model.mica = true",
                                            "model.mica = false")
                   + "model.gate = mlp\nmodel.epsilon = 1e-3\n")
    out = tmp / "off_out"
    assert main(["train", "--config", str(off), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model.gate" in err and "model.epsilon" in err
    assert not out.exists()
    assert cli.MICA_ONLY == ("model.gate", "model.mlp_hidden",
                             "model.mlp_layers", "model.mlp_dropout",
                             "model.exclusion", "model.weight_mode",
                             "model.epsilon")
    # the same keys are fine with the mica block on
    on = tmp / "on.conf"
    on.write_text(conf.read_text() + "model.gate = mlp\n")
    assert model_config_from(parse_config(on)).mica.gate == "mlp"


def test_train_rejects_repeated_seeds(workspace, capsys):
    tmp, conf = workspace
    dup = tmp / "dup.conf"
    dup.write_text(conf.read_text().replace("train.seeds = 1,2",
                                            "train.seeds = 1,1"))
    out = tmp / "dup_out"
    assert main(["train", "--config", str(dup), "--out", str(out)]) == 2
    assert "repeated: [1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old,new,message", [
    ("model.d_model = 8", "model.d_model = 7", "d_model must be even"),
    ("model.patch_len = 4", "model.patch_len = 9",
     "patch_len 9 exceeds input_size 8"),
])
def test_train_rejects_unbuildable_model(workspace, capsys, old, new,
                                         message):
    tmp, conf = workspace
    bad = tmp / "bad.conf"
    bad.write_text(conf.read_text().replace(old, new))
    out = tmp / "bad_out"
    assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_model_config_from_builds_mica(tmp_path):
    conf = tmp_path / "m.conf"
    conf.write_text("model.horizon = 4\nmodel.mica = true\n"
                    "model.gate = mlp\nmodel.exclusion = yes\n")
    mcfg = model_config_from(parse_config(conf))
    assert mcfg.input_size == 8  # derived 2*H
    assert mcfg.mica.gate == "mlp"
    assert mcfg.mica.exclusion is True
    conf.write_text("model.horizon = 4\n")
    assert model_config_from(parse_config(conf)).mica is None


# -- exit codes -----------------------------------------------------------------------

def test_exit_code_unknown_key(workspace, capsys):
    tmp, conf = workspace
    conf.write_text(conf.read_text() + "nonsense.key = 1\n")
    code = main(["train", "--config", str(conf), "--out", str(tmp / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key, text, value", [
    ("train.seeds", "1..3", (1, 2, 3)), ("train.seeds", "4..4", (4,)),
    ("train.seeds", "1,7,13", (1, 7, 13)),
    ("bench.grid", "8,16,32,64", (8, 16, 32, 64)),
    ("bench.grid", "8 , 16", (8, 16)),
    ("bench.mechanisms", "baseline, mica", ("baseline", "mica")),
    ("bench.mechanisms", "", ())])
def test_list_values_parse(tmp_path, key, text, value):
    conf = tmp_path / "c.conf"
    conf.write_text(f"{key} = {text}\n")
    assert parse_config(conf)[key] == value


def test_exit_code_missing_dataset(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("model.horizon = 4\ndata.path = missing.csv\n"
                    "data.val_size = 8\ndata.test_size = 8\n")
    code = main(["train", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, text, message", [
    ("flops", None, "c.conf is not a file"),
    ("flops", "model.horizon 4\n", "c.conf:1: expected key = value"),
    ("flops", "model.d_model = 8\n",
     "missing required config keys: model.horizon"),
    ("train", "model.horizon = 4\n", "missing required config keys: "
     "data.path, data.val_size, data.test_size"),
    ("flops", "model.horizon = 4\nmodel.mica = maybe\n",
     "c.conf:2: bad value for 'model.mica': not a boolean: 'maybe'"),
    ("bench", "model.horizon = 4\nbench.sweep = T\n",
     "bench.sweep must be C or L, got 'T'"),
    ("flops", "model.horizon = 4\nmodel.mica = true\nmodel.gate = mlp\n"
     "model.mlp_hidden = 0\n", "mlp_hidden must be >= 1, got 0"),
    ("bench", "model.horizon = 4\nbench.grid = 8,,16,32,64\n",
     "c.conf:2: bad value for 'bench.grid': empty item in '8,,16,32,64'"),
    ("bench", "model.horizon = 4\nbench.grid = 8,16,32,64,\n",
     "c.conf:2: bad value for 'bench.grid': empty item in '8,16,32,64,'"),
    ("bench", "model.horizon = 4\nbench.mechanisms = baseline,\n",
     "c.conf:2: bad value for 'bench.mechanisms': empty item in "
     "'baseline,'"),
    ("train", "model.horizon = 4\ntrain.seeds = 1,,2\n",
     "c.conf:2: bad value for 'train.seeds': empty item in '1,,2'"),
    ("train", "model.horizon = 4\ntrain.seeds = 3..1\n",
     "c.conf:2: bad value for 'train.seeds': seed range '3..1' runs "
     "backwards"),
], ids=["no_file", "no_equals", "no_horizon", "no_data", "bool", "sweep",
        "mlp_hidden", "grid_empty_item", "grid_trailing_comma",
        "mechanisms_trailing_comma", "seeds_empty_item", "seeds_backwards"])
def test_config_rejections_exit_2_and_say_why(tmp_path, capsys, cmd, text,
                                              message):
    conf = tmp_path / "c.conf"
    if text is not None:
        conf.write_text(text)
    out = tmp_path / "out"
    assert main([cmd, "--config", str(conf), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("train.lr0 = nan", "lr0 must be positive and finite, got nan"),
    ("train.lr0 = inf", "lr0 must be positive and finite, got inf"),
    ("model.epsilon = nan", "epsilon must be positive and finite, got nan"),
    ("model.epsilon = inf", "epsilon must be positive and finite, got inf"),
], ids=["lr0_nan", "lr0_inf", "epsilon_nan", "epsilon_inf"])
def test_non_finite_settings_exit_2_and_name_the_key(workspace, capsys, line,
                                                     message):
    # each used to pass its check and train: a NaN diverged naming an op
    tmp, conf = workspace
    conf.write_text(conf.read_text() + line + "\n")
    out = tmp / "out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _record_calls(monkeypatch, name):
    """Replace ``cli.<name>`` by a stub that records its calls and ends
    the run, so a test sees whether a command reached its work."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        raise RuntimeError(f"{name} was called")

    monkeypatch.setattr(cli, name, stub)
    return calls


@pytest.mark.parametrize("cmd, work", [
    ("train", "train"), ("eval", "predict"), ("bench", "sweep_channels"),
    ("flops", "sweep_channels")])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_an_out_that_is_not_a_directory_ends_the_run_before_any_work(
        workspace, capsys, monkeypatch, cmd, work, nested):
    tmp, conf = workspace
    mcfg = model_config_from(parse_config(conf))
    params = tmp / "params.bin"
    save_params(params, ForecastModel(mcfg, n_channels=2, seed=0),
                config_digest(mcfg, 2))
    calls = _record_calls(monkeypatch, work)
    out = tmp / "taken"
    out.write_text("a file\n")
    if nested:
        out = out / "sub"
    extra = ["--params", str(params)] if cmd == "eval" else []
    assert main([cmd, "--config", str(conf), "--out", str(out),
                 *extra]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {out}: {tmp / 'taken'} is not a directory\n")
    assert calls == []


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_eval_of_params_that_are_not_a_file_exits_2(workspace, capsys,
                                                     monkeypatch, kind):
    tmp, conf = workspace
    calls = _record_calls(monkeypatch, "predict")
    params = tmp / "nope.bin" if kind == "missing" else tmp
    out = tmp / "eval_out"
    assert main(["eval", "--config", str(conf), "--params", str(params),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --params {params} is not a file\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("cmd, what", [
    ("flops", "config"), ("train", "config"), ("train", "dataset")])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_config_or_dataset_that_is_not_a_file_exits_2(workspace, capsys,
                                                        cmd, what, kind):
    tmp, conf = workspace
    path = tmp / "nope" if kind == "missing" else tmp
    if what == "dataset":
        conf.write_text(TINY_CONF.format(data=path))
    out = tmp / "out"
    args = [cmd, "--config", str(path if what == "config" else conf),
            "--out", str(out)]
    assert main(args) == 2
    name = "--config" if what == "config" else "dataset"
    assert capsys.readouterr().err == f"error: {name} {path} is not a file\n"
    assert not out.exists()


def test_train_rejects_negative_seeds_before_training(workspace, capsys,
                                                      monkeypatch):
    tmp, conf = workspace
    neg = tmp / "neg.conf"
    neg.write_text(conf.read_text().replace("train.seeds = 1,2",
                                            "train.seeds = 2,-1,-3"))
    calls = _record_calls(monkeypatch, "train")
    out = tmp / "neg_out"
    assert main(["train", "--config", str(neg), "--out", str(out)]) == 2
    assert "seeds must be non-negative; got [-3, -1]" in (
        capsys.readouterr().err)
    assert calls == [] and not out.exists()


def test_help_lists_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "model.horizon" in out and "bench.grid" in out
    lines = {line.split()[0]: line for line in out.splitlines()
             if line.startswith("  model.") or line.startswith("  bench.")}
    assert lines["model.horizon"].endswith("(required)")
    assert lines["model.input_size"].endswith("input window length "
                                              "(default 2*H)")
    assert "mica flops" in lines["bench.channels"]


# -- train / eval round trip -------------------------------------------------------------

def test_train_writes_reports_params_and_summary(workspace, capsys):
    tmp, conf = workspace
    out = tmp / "run1"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
    for seed in (1, 2):
        assert (out / f"params_seed{seed}.bin").exists()
        rows = list(csv.reader(open(out / f"report_seed{seed}.csv")))
        assert rows[0] == ["record", "step", "mae", "rmse"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"train", "val", "summary"}
    summary = list(csv.reader(open(out / "summary.csv")))
    assert summary[0] == ["seed", "best_step", "test_mae", "test_rmse"]
    assert [r[0] for r in summary[1:]] == ["1", "2", "mean", "std"]
    assert "mean test_mae" in capsys.readouterr().out


def test_train_outputs_byte_identical_across_runs(workspace):
    tmp, conf = workspace
    out_a, out_b = tmp / "a", tmp / "b"
    assert main(["train", "--config", str(conf), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(conf), "--out", str(out_b)]) == 0
    assert read_text(out_a / "summary.csv") == read_text(out_b / "summary.csv")
    for seed in (1, 2):
        assert (read_text(out_a / f"report_seed{seed}.csv") ==
                read_text(out_b / f"report_seed{seed}.csv"))


@pytest.mark.parametrize("workers", [1, 2])
def test_seeds_share_one_pool_and_leave_the_blas_size_alone(
        workspace, monkeypatch, shared_pool, workers):
    # each seed runs its window groups on the one shared pool, one worker
    # or several, under the BLAS size set at import: train leaves it alone
    tmp, conf = workspace
    blas = {"threads": 4}
    monkeypatch.setattr(bench, "_openblas", lambda: (
        lambda: blas["threads"], lambda n: blas.update(threads=n)))
    seen, real_train = [], cli.train

    def train(*args):
        seen.append(blas["threads"])
        return real_train(*args)

    monkeypatch.setattr(cli, "train", train)
    with shared_pool(workers):
        assert main(["train", "--config", str(conf),
                     "--out", str(tmp / "out")]) == 0
    assert seen == [4, 4]
    assert blas["threads"] == 4


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_seed_leaves_no_output(workspace, capsys, monkeypatch,
                                        shared_pool, workers, failing):
    # the other seed's window groups run on a shared pool of one worker
    # or two; either way the failure ends the run and nothing is written
    tmp, conf = workspace
    real_train = cli.train

    def train(model, panel, cfg, seed):
        if seed == failing:
            raise TrainingDivergedError(3, f"seed {seed} went NaN")
        return real_train(model, panel, cfg, seed)

    monkeypatch.setattr(cli, "train", train)
    out = tmp / "out"
    with shared_pool(workers):
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: training diverged at step 3: seed {failing} went NaN\n")
    assert not out.exists()


@pytest.mark.parametrize("failing", [1, 2, 5])
def test_a_failed_seed_starts_no_seed_still_queued(workspace, capsys,
                                                   monkeypatch, failing):
    tmp, conf = workspace
    conf.write_text(conf.read_text().replace("train.seeds = 1,2",
                                             "train.seeds = 1..6"))
    started = []

    def train(model, panel, cfg, seed):
        started.append(seed)
        if seed == failing:
            raise TrainingDivergedError(0, f"seed {seed} went NaN")

    monkeypatch.setattr(cli, "train", train)
    out = tmp / "out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
    assert f"seed {failing} went NaN" in capsys.readouterr().err
    assert started == list(range(1, failing + 1))
    assert not out.exists()


def test_eval_checks_digest_and_writes_outputs(workspace, capsys):
    tmp, conf = workspace
    out = tmp / "train_out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
    eval_out = tmp / "eval_out"
    code = main(["eval", "--config", str(conf),
                 "--params", str(out / "params_seed1.bin"),
                 "--out", str(eval_out)])
    assert code == 0
    metrics = list(csv.reader(open(eval_out / "metrics.csv")))
    assert metrics[0] == ["split", "mae", "rmse"]
    assert {r[0] for r in metrics[1:]} == {"val", "test"}
    forecasts = list(csv.reader(open(eval_out / "forecasts.csv")))
    # 5 test windows x 2 channels x horizon 4 = 40 rows + header
    assert len(forecasts) == 41

    # a config change must be refused with exit code 3
    mutated = tmp / "mutated.conf"
    mutated.write_text(conf.read_text().replace("model.d_k = 4",
                                                "model.d_k = 8")
                       .replace("model.d_v = 4", "model.d_v = 8"))
    code = main(["eval", "--config", str(mutated),
                 "--params", str(out / "params_seed1.bin"),
                 "--out", str(tmp / "e2")])
    assert code == 3
    assert "does not match" in capsys.readouterr().err
    assert not (tmp / "e2").exists()


def test_eval_of_non_finite_parameters_exits_1_with_one_line(workspace,
                                                            capsys):
    tmp, conf = workspace
    mcfg = model_config_from(parse_config(conf))
    model = ForecastModel(mcfg, n_channels=2, seed=0)
    model.parameters()[0].data[0] = np.nan
    params = tmp / "nan.bin"
    save_params(params, model, config_digest(mcfg, 2))
    code = main(["eval", "--config", str(conf), "--params", str(params),
                 "--out", str(tmp / "eval_out")])
    assert code == 1
    assert capsys.readouterr().err == ("error: non-finite values produced "
                                       "by op 'matmul'\n")
    assert not (tmp / "eval_out").exists()


@pytest.mark.parametrize("mismatch", ["renamed", "reshaped"])
def test_eval_of_mismatched_parameter_arrays_exits_3_with_one_line(
        workspace, capsys, mismatch):
    # the digest matches, but the arrays do not fit the configured model
    tmp, conf = workspace
    mcfg = model_config_from(parse_config(conf))
    model = ForecastModel(mcfg, n_channels=2, seed=0)
    head = vars(model.head)
    if mismatch == "renamed":
        head["weights"] = head.pop("weight")
    else:
        head["bias"] = Tensor(np.zeros(3), requires_grad=True)
    params = tmp / f"{mismatch}.bin"
    save_params(params, model, config_digest(mcfg, 2))
    code = main(["eval", "--config", str(conf), "--params", str(params),
                 "--out", str(tmp / "eval_out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: parameter file does not fit the "
                          "configured model: ")
    assert err.count("\n") == 1
    assert not (tmp / "eval_out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_that_diverges_on_its_first_seed_leaves_no_output(tmp_path,
                                                                capsys):
    # a learning rate of 1e300 throws the weights past overflow in the
    # first Adam step, so the next forward diverges
    panel = gen_leadlag(2, 120, lag=2, noise_sigma=0.1, seed=5)
    data = tmp_path / "panel.csv"
    write_csv(panel, data)
    conf = tmp_path / "run.conf"
    conf.write_text(TINY_CONF.format(data=data) + "train.lr0 = 1e300\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: training diverged at step 1: non-finite values produced "
        "by op 'matmul'\n")
    assert not out.exists()


def test_eval_of_a_quoted_copy_writes_the_same_bytes(workspace,
                                                     monkeypatch):
    # the written panel takes the np.loadtxt pass; a copy with every value
    # cell quoted takes the cell reader
    tmp, conf = workspace
    out = tmp / "train_out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
    header, *rows = (tmp / "panel.csv").read_text().splitlines()
    quoted = tmp / "quoted.csv"
    quoted.write_text("\n".join([header] + [
        ",".join([t] + [f'"{v}"' for v in cells])
        for t, *cells in (row.split(",") for row in rows)]) + "\n")
    quoted_conf = tmp / "quoted.conf"
    quoted_conf.write_text(conf.read_text().replace(
        str(tmp / "panel.csv"), str(quoted)))
    taken = []
    def spy(path):
        try:
            panel = _load_clean_wide(path)
        except ValueError:
            taken.append("cells")
            raise
        taken.append("loadtxt")
        return panel

    monkeypatch.setattr("mica.data._load_clean_wide", spy)
    for name, config in (("plain", conf), ("quoted", quoted_conf)):
        assert main(["eval", "--config", str(config),
                     "--params", str(out / "params_seed1.bin"),
                     "--out", str(tmp / name)]) == 0
    assert taken == ["loadtxt", "cells"]
    for report in ("metrics.csv", "forecasts.csv"):
        assert ((tmp / "plain" / report).read_bytes()
                == (tmp / "quoted" / report).read_bytes())


def test_the_same_values_give_the_same_bits_from_any_source(tmp_path,
                                                             monkeypatch):
    # a generator panel, set to repeat its predecessor in about one cell of
    # twenty, and a wide and a long file that write those cells NA
    panel = gen_leadlag(3, 400, lag=3, noise_sigma=0.1, seed=3)
    values, ids = panel.values, panel.channel_ids
    gaps = np.random.default_rng(0).random(values.shape) < 0.05
    gaps[:, 0] = False
    for t in np.flatnonzero(gaps.any(axis=0)):
        values[:, t] = np.where(gaps[:, t], values[:, t - 1], values[:, t])
    cells = [["NA" if gap else repr(v) for v, gap in zip(row, gap_row)]
             for row, gap_row in zip(values.tolist(), gaps.tolist())]
    (tmp_path / "wide.csv").write_text(
        f"timestamp,{','.join(ids)}\n" + "".join(
            f"{t},{','.join(col)}\n" for t, col in enumerate(zip(*cells))))
    (tmp_path / "long.csv").write_text("id,ts,value\n" + "".join(
        f"{cid},{t},{row[t]}\n" for t in reversed(range(values.shape[1]))
        for cid, row in zip(ids, cells)))
    sources = {"generator": ("wide", lambda *args, **kwargs: panel),
               "wide": ("wide", load_csv), "long": ("long", load_csv)}
    panels, outs = {}, {}
    for name, (layout, loader) in sources.items():
        conf = tmp_path / f"{name}.conf"
        conf.write_text(TINY_CONF.format(data=tmp_path / f"{name}.csv")
                        + f"data.layout = {layout}\n"
                        + "data.forward_fill = true\n")
        monkeypatch.setattr(cli, "load_csv", loader)
        panels[name] = cli.load_panel(parse_config(conf))
        out = outs[name] = tmp_path / name
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["eval", "--config", str(conf), "--params",
                     str(out / "params_seed1.bin"), "--out", str(out)]) == 0
    files = sorted(p.name for p in outs["generator"].iterdir())
    assert len(files) == 7  # 2 params, 2 reports, summary, metrics, forecasts
    for name in ("wide", "long"):
        got = panels[name].values
        assert got.flags.c_contiguous
        assert got.tobytes() == panels["generator"].values.tobytes()
        assert (pca_fit(panels[name]).components.tobytes()
                == pca_fit(panels["generator"]).components.tobytes())
        for f in files:
            assert ((outs[name] / f).read_bytes()
                    == (outs["generator"] / f).read_bytes()), (name, f)
    # the wide file's forecasts are the generator panel's, bit for bit
    conf = parse_config(tmp_path / "wide.conf")
    mcfg = model_config_from(conf)
    model = ForecastModel(mcfg, len(ids), seed=0)
    model.load_state(load_params(outs["wide"] / "params_seed1.bin")[1])
    ctx, _ = eval_windows(chrono_split(panel, 20, 20), mcfg.input_size,
                          mcfg.horizon, "test")
    with open(outs["wide"] / "forecasts.csv") as fh:
        got = np.array([float(row["y_pred"]) for row in csv.DictReader(fh)])
    assert got.tobytes() == predict(model, ctx).tobytes()


def test_eval_runs_each_split_through_the_model_once(workspace,
                                                    monkeypatch):
    tmp, conf = workspace
    out = tmp / "train_out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
    batches = []
    forward = ForecastModel.forward

    def counted(self, x, *args, **kwargs):
        batches.append(len(x))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(ForecastModel, "forward", counted)
    assert main(["eval", "--config", str(conf),
                 "--params", str(out / "params_seed1.bin"),
                 "--out", str(tmp / "eval_out")]) == 0
    # test and val windows each fit one B=64 batch: one forward per split
    assert len(batches) == 2 and max(batches) <= 64


def test_forecasts_bytes_match_the_per_value_writer(tmp_path):
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e16, 2.0])
    tgt = np.resize(odd, (2, 3, 4))
    pred = np.resize(-odd[::-1], (2, 3, 4))
    ids = ["a,b", 'q"x', ""]
    cli._write_forecasts(tmp_path / "new.csv", ids, tgt, pred)
    rows = [[w, cid, h + 1, repr(float(tgt[w, ci, h])),
             repr(float(pred[w, ci, h]))]
            for w in range(2) for ci, cid in enumerate(ids) for h in range(4)]
    cli._write_csv(tmp_path / "old.csv",
                   ["window", "channel", "h", "y_true", "y_pred"], rows)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


# -- bench / flops -------------------------------------------------------------------------

def test_bench_writes_rows_and_fits(workspace, capsys):
    tmp, conf = workspace
    bench_conf = tmp / "bench.conf"
    bench_conf.write_text(
        "model.horizon = 4\nmodel.input_size = 16\nmodel.n_layers = 1\n"
        "model.d_model = 8\nmodel.n_heads = 2\nmodel.ff_hidden = 16\n"
        "model.d_k = 4\nmodel.d_v = 4\nmodel.patch_len = 4\n"
        "model.stride = 4\nmodel.mica = true\n"
        "bench.grid = 2,4,8,16\nbench.measure = false\n")
    out = tmp / "bench_out"
    assert main(["bench", "--config", str(bench_conf),
                 "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "bench.csv")))
    assert len(rows) == 1 + 3 * 4  # header + mechanisms x grid
    fits = list(csv.reader(open(out / "bench_fits.csv")))
    mech_fits = {r[0] for r in fits[1:]}
    assert mech_fits == {"baseline", "mica", "concat"}
    assert "flop exponent" in capsys.readouterr().out


def test_bench_sweeps_lengths_with_latency_fits(workspace, capsys):
    tmp, conf = workspace
    bench_conf = tmp / "len.conf"
    bench_conf.write_text(
        "model.horizon = 4\nmodel.n_layers = 1\nmodel.d_model = 8\n"
        "model.n_heads = 2\nmodel.ff_hidden = 16\nmodel.d_k = 4\n"
        "model.d_v = 4\nmodel.patch_len = 4\nmodel.stride = 4\n"
        "model.mica = true\nbench.sweep = L\nbench.grid = 16,32,64,128\n"
        "bench.measure = true\nbench.repeats = 1\nbench.warmup = 0\n")
    out = tmp / "len_out"
    assert main(["bench", "--config", str(bench_conf),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "bench.csv")))
    mechanisms = ["baseline", "mica", "concat"]
    assert [(r["mechanism"], int(r["size"])) for r in rows] == [
        (mech, size) for mech in mechanisms for size in (16, 32, 64, 128)]
    assert all(float(r["latency_ms"]) > 0 for r in rows)
    fits = list(csv.DictReader(open(out / "bench_fits.csv")))
    assert [(f["mechanism"], f["metric"]) for f in fits] == [
        (mech, metric) for mech in mechanisms
        for metric in ("flops", "latency")]
    assert "latency exponent" in capsys.readouterr().out


def test_bench_rejects_mica_mechanism_without_mica(workspace, capsys):
    tmp, conf = workspace
    bench_conf = tmp / "b.conf"
    bench_conf.write_text("model.horizon = 4\nbench.grid = 2,4,8,16\n"
                          "bench.measure = false\n")
    code = main(["bench", "--config", str(bench_conf),
                 "--out", str(tmp / "x")])
    assert code == 2
    assert "model.mica" in capsys.readouterr().err
    assert not (tmp / "x").exists()


def test_bench_and_flops_reject_a_repeated_mechanism(workspace, capsys):
    tmp, conf = workspace
    rep_conf = tmp / "rep.conf"
    rep_conf.write_text("model.horizon = 4\nmodel.input_size = 16\n"
                        "model.d_model = 8\nmodel.mica = true\n"
                        "bench.grid = 2,4,8,16\nbench.measure = false\n"
                        "bench.mechanisms = mica,baseline,mica\n")
    for cmd in ("bench", "flops"):
        out = tmp / f"{cmd}_out"
        assert main([cmd, "--config", str(rep_conf), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "['mica'] named more than once" in captured.err
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("cmd", ["bench", "flops"])
def test_bench_and_flops_refuse_an_empty_mechanism_list(workspace, capsys,
                                                        cmd):
    tmp, conf = workspace
    empty_conf = tmp / "empty.conf"
    empty_conf.write_text("model.horizon = 4\nmodel.mica = true\n"
                          "bench.grid = 2,4,8,16\nbench.measure = false\n"
                          "bench.mechanisms =\n")
    out = tmp / f"{cmd}_out"
    assert main([cmd, "--config", str(empty_conf), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "no mechanism named" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("grid", ["16,8,32,64", "8,16", "0,8,16,32"])
def test_bench_checks_grid_before_sweeping(workspace, capsys, monkeypatch,
                                           grid):
    tmp, conf = workspace
    timed = []
    monkeypatch.setattr(bench, "measure_latency",
                        lambda fn, **kw: timed.append(fn))
    bench_conf = tmp / "grid.conf"
    bench_conf.write_text("model.horizon = 4\nmodel.input_size = 16\n"
                          "model.d_model = 8\nmodel.mica = true\n"
                          f"bench.grid = {grid}\nbench.measure = true\n")
    out = tmp / "grid_out"
    assert main(["bench", "--config", str(bench_conf),
                 "--out", str(out)]) == 2
    assert "sweep" in capsys.readouterr().err
    assert timed == [] and not out.exists()


def test_flops_rejects_zero_channels(workspace, capsys):
    tmp, conf = workspace
    fl_conf = tmp / "f0.conf"
    fl_conf.write_text("model.horizon = 4\nmodel.mica = true\n"
                       "bench.channels = 0\n")
    out = tmp / "f0_out"
    assert main(["flops", "--config", str(fl_conf), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "n_channels must be positive" in captured.err
    assert captured.out == "" and not out.exists()


def test_flops_command_prints_breakdown(workspace, capsys):
    tmp, conf = workspace
    fl_conf = tmp / "f.conf"
    fl_conf.write_text("model.horizon = 4\nmodel.mica = true\n"
                       "bench.channels = 5\n")
    assert main(["flops", "--config", str(fl_conf)]) == 0
    out = capsys.readouterr().out
    assert "mica" in out and "C=5" in out and "params=" in out
    assert main(["flops", "--config", str(fl_conf),
                 "--out", str(tmp / "fl")]) == 0
    rows = list(csv.reader(open(tmp / "fl" / "flops.csv")))
    assert rows[0][0] == "mechanism"


def test_flops_csv_rows_are_the_counters(workspace):
    tmp, conf = workspace
    fl_conf = tmp / "f.conf"
    fl_conf.write_text("model.horizon = 4\nmodel.mica = true\n"
                       "model.gate = mlp_query\nbench.channels = 5\n")
    assert main(["flops", "--config", str(fl_conf),
                 "--out", str(tmp / "fl")]) == 0
    rows = list(csv.reader(open(tmp / "fl" / "flops.csv")))
    mcfg = model_config_from(parse_config(fl_conf))
    want = []
    for mech in ("baseline", "mica", "concat"):
        rep = count_flops(mcfg, 5, mech)
        want.append([mech, "5", str(rep.local_flops), str(rep.global_flops),
                     str(rep.gate_flops), str(rep.backbone_flops),
                     str(rep.total_flops), str(count_params(mcfg, 5, mech)),
                     ""])
    assert rows == [["mechanism", "channels", "local_flops", "global_flops",
                     "gate_flops", "backbone_flops", "total_flops", "params",
                     "latency_ms"]] + want
