"""Command line front end: train / eval / bench / flops.

Run configuration is a flat ``key = value`` file with ``#`` comments and
four sections distinguished by key prefix: ``model.``, ``train.``,
``data.`` and ``bench.``.  A ``model.<name>`` or ``train.<name>`` key
sets the ``ModelConfig``, ``MicaConfig`` or ``TrainConfig`` field of that
name and defaults to it.  Unknown keys are rejected so typos cannot be
silently ignored, and so are mica-only keys while ``model.mica`` is off.
Which mechanisms a config can bench is checked in ``bench``.  Exit codes:
0 success, 1 runtime failure, 2 bad configuration or data, 3
parameter-file integrity mismatch.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .attention import GATE_KINDS, WEIGHT_MODES, MicaConfig
from .backbone import (HEAD_KINDS, ForecastModel, IntegrityError,
                       ModelConfig, config_digest, load_params, save_params)
from .bench import (MECHANISMS, check_fit_sizes, fit_scaling, sweep_channels,
                    sweep_lengths)
from .data import (ConfigError, PanelDataset, chrono_split, input_file,
                   load_csv)
from .tensor import NonFiniteError
from .training import (TrainConfig, TrainReport, eval_windows, evaluate, mae,
                       predict, rmse, train)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str_list(text: str) -> tuple[str, ...]:
    """Comma-separated items, none for a blank value; no empty item."""
    items = tuple(map(str.strip, text.split(","))) if text.strip() else ()
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return items


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(map(int, _parse_str_list(text)))


def _parse_seeds(text: str) -> tuple[int, ...]:
    if ".." not in text:
        return _parse_int_list(text)
    lo, hi = map(int, text.split("..", 1))
    if hi < lo:
        raise ValueError(f"seed range {text!r} runs backwards")
    return tuple(range(lo, hi + 1))


# key -> (parser, help) for model.* and train.* keys, which default to their
# config-class field; key -> (parser, help, default) for data.* and bench.*
# keys, where a MISSING default means "required when used".
SCHEMA: dict[str, tuple] = {
    "model.horizon": (int, "forecast horizon H"),
    "model.input_size": (int, "input window length (default 2*H)"),
    "model.n_layers": (int, "encoder layers"),
    "model.d_model": (int, "token embedding width"),
    "model.n_heads": (int, "attention heads"),
    "model.ff_hidden": (int, "feed-forward hidden width"),
    "model.d_k": (int, "key/query head dimension"),
    "model.d_v": (int, "value head dimension"),
    "model.patch_len": (int, "patch length"),
    "model.stride": (int, "patch stride"),
    "model.dropout": (float, "residual/ffn dropout"),
    "model.head_kind": (str, f"one of {', '.join(HEAD_KINDS)}"),
    "model.mica": (_parse_bool, "enable the gated global attention path"),
    "model.gate": (str, f"one of {', '.join(GATE_KINDS)}"),
    "model.mlp_hidden": (int, "gate mlp hidden width"),
    "model.mlp_layers": (int, "gate mlp layer count"),
    "model.mlp_dropout": (float, "gate mlp dropout"),
    "model.exclusion": (_parse_bool,
                        "exclude the own channel from the global memory"),
    "model.weight_mode": (str, f"one of {', '.join(WEIGHT_MODES)}"),
    "model.epsilon": (float, "global attention denominator guard"),
    "train.windows_batch": (int, "windows per training step"),
    "train.max_steps": (int, "maximum optimizer steps"),
    "train.val_check_every": (int, "steps between validation checks"),
    "train.lr0": (float, "initial learning rate"),
    "train.lr_decay": (float, "multiplicative decay factor"),
    "train.lr_step": (int, "steps between decays"),
    "train.early_stop_patience": (int,
                                  "validation checks without improvement"),
    "train.seeds": (_parse_seeds, "seed list, e.g. 1..5 or 1,7,13"),
    "data.path": (str, "dataset csv path", MISSING),
    "data.layout": (str, "csv layout: wide | long", "wide"),
    "data.forward_fill": (_parse_bool, "forward-fill missing values", False),
    "data.val_size": (int, "validation split length (steps)", MISSING),
    "data.test_size": (int, "test split length (steps)", MISSING),
    "bench.sweep": (str, "sweep variable: C (channels) | L (length)", "C"),
    "bench.grid": (_parse_int_list, "sweep grid, comma separated",
                   (8, 16, 32, 64, 128, 256, 512)),
    "bench.mechanisms": (_parse_str_list,
                         f"subset of {', '.join(MECHANISMS)}", MECHANISMS),
    "bench.channels": (int, "fixed channel count for L sweeps and for "
                       "mica flops", 7),
    "bench.measure": (_parse_bool, "measure wall-clock latency too", True),
    "bench.repeats": (int, "timed runs per point", 5),
    "bench.warmup": (int, "untimed warmup runs per point", 1),
}


_FIELD_DEFAULTS = {f"{prefix}.{f.name}": f.default
                   for prefix, cls in (("model", MicaConfig),
                                       ("model", ModelConfig),
                                       ("train", TrainConfig))
                   for f in fields(cls)}
# model.mica is a switch: on when ModelConfig.mica holds a MicaConfig
_FIELD_DEFAULTS["model.mica"] = _FIELD_DEFAULTS["model.mica"] is not None
DEFAULTS = {key: entry[2] if len(entry) == 3 else _FIELD_DEFAULTS[key]
            for key, entry in SCHEMA.items()}

# settings only a mica block reads: the MicaConfig fields ModelConfig lacks
MICA_ONLY = tuple(f"model.{f.name}" for f in fields(MicaConfig)
                  if f"model.{f.name}" in SCHEMA
                  and f.name not in {g.name for g in fields(ModelConfig)})


def parse_config(path) -> dict:
    """Read and validate a flat key = value configuration file."""
    path = input_file(path, "--config")
    conf = {key: None if default is MISSING else default
            for key, default in DEFAULTS.items()}
    seen: set[str] = set()
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{line_no}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{path}:{line_no}: duplicate key '{key}'")
        seen.add(key)
        try:
            conf[key] = SCHEMA[key][0](value)
        except ValueError as err:
            raise ConfigError(f"{path}:{line_no}: bad value for "
                              f"'{key}': {err}") from None
    ignored = [key for key in MICA_ONLY if key in seen]
    if ignored and not conf["model.mica"]:
        raise ConfigError(f"{path}: {', '.join(ignored)} only apply with "
                          "model.mica = true")
    return conf


def _require(conf: dict, *keys: str) -> None:
    missing = [k for k in keys if conf[k] is None]
    if missing:
        raise ConfigError(f"missing required config keys: "
                          f"{', '.join(missing)}")


def _fill(cls, conf: dict, prefix: str, **given):
    """``cls`` with each field that has a ``<prefix>.<field>`` key taken
    from ``conf``, except the ``given`` ones."""
    values = {f.name: conf[f"{prefix}.{f.name}"] for f in fields(cls)
              if f"{prefix}.{f.name}" in conf}
    return cls(**{**values, **given})


def model_config_from(conf: dict) -> ModelConfig:
    _require(conf, "model.horizon")
    mica = _fill(MicaConfig, conf, "model") if conf["model.mica"] else None
    return _fill(ModelConfig, conf, "model", mica=mica)


def train_config_from(conf: dict) -> TrainConfig:
    return _fill(TrainConfig, conf, "train")


def load_panel(conf: dict) -> PanelDataset:
    _require(conf, "data.path", "data.val_size", "data.test_size")
    panel = load_csv(conf["data.path"], layout=conf["data.layout"],
                     forward_fill=conf["data.forward_fill"])
    return chrono_split(panel, conf["data.val_size"], conf["data.test_size"])


# -- output helpers ---------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted only when
    it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _write_forecasts(path: Path, channel_ids, tgt, pred) -> None:
    """One row per (window, channel, horizon step), with the bytes that
    ``_write_csv`` gives the same rows."""
    ids = [_csv_field(cid) for cid in channel_ids]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["window", "channel", "h", "y_true",
                                 "y_pred"])
        fh.writelines(f"{w},{cid},{h},{t!r},{p!r}\r\n"
                      for w, (tw, pw) in enumerate(zip(tgt.tolist(),
                                                       pred.tolist()))
                      for cid, tc, pc in zip(ids, tw, pw)
                      for h, (t, p) in enumerate(zip(tc, pc), 1))


def _out_dir(path) -> Path:
    """``--out``, refused when its nearest existing path is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return out


def _report_rows(report: TrainReport):
    for step, loss in report.train_trace:
        yield ["train", step, _fmt(loss), ""]
    for step, val_mae in report.val_trace:
        yield ["val", step, _fmt(val_mae), ""]
    yield ["summary", report.best_step, _fmt(report.test_mae),
           _fmt(report.test_rmse)]


# -- subcommands ---------------------------------------------------------------------

def cmd_train(args) -> int:
    out = _out_dir(args.out)
    conf = parse_config(args.config)
    panel = load_panel(conf)
    mcfg = model_config_from(conf)
    tcfg = train_config_from(conf)
    digest = config_digest(mcfg, panel.n_channels)

    runs = []
    for seed in tcfg.seeds:
        model = ForecastModel(mcfg, panel.n_channels, seed=seed)
        runs.append((model, train(model, panel, tcfg, seed)))

    # written only once every seed has trained: a failed run leaves no --out
    out.mkdir(parents=True, exist_ok=True)
    for model, r in runs:
        save_params(out / f"params_seed{r.seed}.bin", model, digest)
        _write_csv(out / f"report_seed{r.seed}.csv",
                   ["record", "step", "mae", "rmse"], _report_rows(r))
        print(f"seed {r.seed}: best_step={r.best_step} "
              f"test_mae={r.test_mae:.6f} test_rmse={r.test_rmse:.6f}")
    rows = [[r.seed, r.best_step, _fmt(r.test_mae), _fmt(r.test_rmse)]
            for _, r in runs]
    maes = np.array([r.test_mae for _, r in runs])
    rmses = np.array([r.test_rmse for _, r in runs])
    rows.append(["mean", "", _fmt(maes.mean()), _fmt(rmses.mean())])
    rows.append(["std", "", _fmt(maes.std()), _fmt(rmses.std())])
    _write_csv(out / "summary.csv",
               ["seed", "best_step", "test_mae", "test_rmse"], rows)
    print(f"mean test_mae={maes.mean():.6f} rmse={rmses.mean():.6f}")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args.out)
    input_file(args.params, "--params")
    conf = parse_config(args.config)
    panel = load_panel(conf)
    mcfg = model_config_from(conf)
    expected = config_digest(mcfg, panel.n_channels)
    stored, arrays = load_params(args.params)
    if stored != expected:
        raise IntegrityError(
            f"parameter file digest {stored[:12]}... does not match the "
            f"configured model ({expected[:12]}...); refusing to evaluate")
    model = ForecastModel(mcfg, panel.n_channels, seed=0)
    try:
        model.load_state(arrays)
    except (KeyError, ValueError) as err:
        raise IntegrityError(f"parameter file does not fit the configured "
                             f"model: {err.args[0]}") from None

    ctx, tgt = eval_windows(panel, mcfg.input_size, mcfg.horizon, "test")
    pred = predict(model, ctx)
    test_mae, test_rmse = mae(tgt, pred), rmse(tgt, pred)
    vctx, vtgt = eval_windows(panel, mcfg.input_size, mcfg.horizon, "val")
    val_mae, val_rmse = evaluate(model, vctx, vtgt)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", ["split", "mae", "rmse"],
               [["val", _fmt(val_mae), _fmt(val_rmse)],
                ["test", _fmt(test_mae), _fmt(test_rmse)]])

    _write_forecasts(out / "forecasts.csv", panel.channel_ids, tgt, pred)
    print(f"test mae={test_mae:.6f} rmse={test_rmse:.6f} "
          f"({pred.shape[0]} windows)")
    return 0


# the cost columns of bench.csv and flops.csv, after mechanism and size; the
# first five name FlopReport attributes
COST_COLUMNS = ["local_flops", "global_flops", "gate_flops", "backbone_flops",
                "total_flops", "params", "latency_ms"]


def _bench_rows_csv(rows):
    for r in rows:
        flops = [getattr(r.flops, col) for col in COST_COLUMNS[:5]]
        yield [r.mechanism, r.size, *flops, r.params,
               _fmt(r.latency.mean_ms) if r.latency else ""]


def cmd_bench(args) -> int:
    out = _out_dir(args.out)
    conf = parse_config(args.config)
    mcfg = model_config_from(conf)
    mechanisms = conf["bench.mechanisms"]
    grid = list(conf["bench.grid"])
    check_fit_sizes(grid)
    common = dict(mechanisms=mechanisms, measure=conf["bench.measure"],
                  repeats=conf["bench.repeats"], warmup=conf["bench.warmup"])
    if conf["bench.sweep"] == "C":
        rows = sweep_channels(mcfg, grid, **common)
    elif conf["bench.sweep"] == "L":
        rows = sweep_lengths(mcfg, grid, n_channels=conf["bench.channels"],
                             **common)
    else:
        raise ConfigError(f"bench.sweep must be C or L, "
                          f"got {conf['bench.sweep']!r}")

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bench.csv", ["mechanism", "size"] + COST_COLUMNS,
               _bench_rows_csv(rows))

    # (metric, printed name, cost of a row) for each fitted cost
    costs = [("flops", "flop", lambda r: r.flops.total_flops)]
    if conf["bench.measure"]:
        costs.append(("latency", "latency", lambda r: r.latency.mean_ms))
    fit_rows = []
    for mech in mechanisms:
        pts = [r for r in rows if r.mechanism == mech]
        for metric, name, cost in costs:
            fit = fit_scaling([r.size for r in pts], [cost(r) for r in pts])
            fit_rows.append([mech, metric, _fmt(fit.exponent), _fmt(fit.r2)])
            print(f"{mech}: {name} exponent {fit.exponent:.3f} "
                  f"(r2={fit.r2:.4f})")
    _write_csv(out / "bench_fits.csv",
               ["mechanism", "metric", "exponent", "r2"], fit_rows)
    return 0


def cmd_flops(args) -> int:
    out = _out_dir(args.out) if args.out else None
    conf = parse_config(args.config)
    c = conf["bench.channels"]
    rows = sweep_channels(model_config_from(conf), [c],
                          conf["bench.mechanisms"], measure=False)
    for r in rows:
        rep = r.flops
        print(f"{r.mechanism:9s} C={c}: total={rep.total_flops:,} "
              f"(local={rep.local_flops:,} global={rep.global_flops:,} "
              f"gate={rep.gate_flops:,} backbone={rep.backbone_flops:,}) "
              f"params={r.params:,}")
    if out:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "flops.csv", ["mechanism", "channels"] + COST_COLUMNS,
                   _bench_rows_csv(rows))
    return 0


# -- entry point -----------------------------------------------------------------------

def _schema_epilog() -> str:
    lines = ["configuration keys (key = value, # comments):"]
    for key, (_, help_text, *_) in SCHEMA.items():
        default = DEFAULTS[key]
        shown = ("" if default is None else " (required)"
                 if default is MISSING else f" (default {default})")
        lines.append(f"  {key:28s} {help_text}{shown}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mica",
        description="Forecasting with gated local/global channel attention.",
        epilog=_schema_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train across seeds")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True,
                         help="output directory for params and reports")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate saved parameters")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--params", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="scaling sweep (flops + latency)")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    p_flops = sub.add_parser("flops", help="one-point cost breakdown")
    p_flops.add_argument("--config", required=True)
    p_flops.add_argument("--out", default=None)
    p_flops.set_defaults(fn=cmd_flops)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return (3 if isinstance(err, IntegrityError)
                else 2 if isinstance(err, ValueError) else 1)


if __name__ == "__main__":
    sys.exit(main())
