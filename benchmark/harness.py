"""Workloads, phases, output checks and metrics of the mica benchmark.

Every run goes through the same phases, so every end-to-end metric is
measured on every workload.  Each phase is a closed loop: one caller, the
next call starts when the previous one has returned.

- setup: panel generation and CSV write, run-config write, model builds,
  params save through ``save_params``, warm-up forwards.  Repeated
  ``setup_repeats`` times; ``setup_s`` is the median.
- train: one ``training.train()`` call on the README quick-start model for
  a fixed number of steps, validation checks on, patience too large to
  stop early.  Step boundaries are the successive ``sample_windows`` calls.
- rounds, half before the train call and half after: each cycles ``mica eval`` through ``cli.main``, then twice a
  B=64 ``training.evaluate`` pass over the eval test windows and B=1
  no-grad forwards of criterion 6's THIN config (mica and local-only
  baseline at C=512, concat at C=256 reached only through
  ``bench.sweep_channels``).  Single-window no-grad forwards of the
  quick-start model run between every two of these operations, so every
  kind of sample spreads over the same stretch of time.
- checks: stored-reference probes and self-consistency of the outputs.

The workloads differ only in the synthetic panels the program receives;
model initialisation and the training seed are fixed, so the seed varies
the data alone.

The traced run (``trace=True``) replaces the timed loops with a short
traced pass of each phase and reports the per-layer metrics instead.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import statistics
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mica
from mica import backbone, bench, cli, data, training
from mica.attention import MicaConfig
from mica.backbone import ForecastModel, ModelConfig
from mica.tensor import Tensor, no_grad

import tracer as tracing

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# README quick start: C=7, L=96, H=24, d_model=64, 2 layers, ff=128,
# 4 heads of 16, shared_beta gate
QUICKSTART = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                         n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                         mica=MicaConfig(n_heads=4, d_k=16, d_v=16))
# criterion 6's THIN config
THIN = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=32,
                   n_heads=2, ff_hidden=64, d_k=16, d_v=16,
                   mica=MicaConfig(n_heads=2, d_k=16, d_v=16))

WORKLOADS = {
    "leadlag": lambda c, t, seed: data.gen_leadlag(c, t, lag=4,
                                                   noise_sigma=0.1,
                                                   seed=seed),
    "independent": lambda c, t, seed: data.gen_independent(c, t, seed=seed),
}

END_TO_END = {
    "setup_s": "s", "train_windows_per_s": "windows/s",
    "train_step_ms_p50": "ms", "train_step_ms_tail": "ms",
    "train_test_mae": "data_units", "eval_cmd_s_p50": "s",
    "infer_windows_per_s": "windows/s", "infer_b1_ms_p50": "ms",
    "infer_b1_ms_tail": "ms", "wide_mica_ms_p50": "ms",
    "wide_baseline_ms_p50": "ms", "wide_concat_ms_p50": "ms",
}

PROBE_SEED = 20260417
PROBE_STEPS = 3
MODEL_SEED = 1  # model initialisation and train() seed, as in the README
TAIL_LADDER = (99, 95, 90, 75, 50)


@dataclass(frozen=True)
class Plan:
    """Sizes and amounts of work of one run."""
    model: ModelConfig = field(default_factory=lambda: QUICKSTART)
    wide: ModelConfig = field(default_factory=lambda: THIN)
    channels: int = 7
    panel_steps: int = 12000
    val_size: int = 768
    test_size: int = 3072       # training's split: test_mae over 128 windows
    eval_test_size: int = 1536  # mica eval's split: 64 windows, one batch
    batch: int = 64
    wide_channels: int = 512
    concat_channels: int = 256
    sweep_grid: tuple = (8, 16, 32, 64, 128, 256, 512)
    setup_repeats: int = 3
    train_steps: int = 41
    val_every: int = 10
    rounds: int = 7
    b1_between: int = 3
    traced_steps: int = 6
    micro_reps: int = 5


# work per run at --seconds 51, calibrated on the seed commit (2-core
# Xeon, numpy 2.4.6, one BLAS thread): about 28 s of training and 23 s of
# eval and wide rounds
_BASE_SECONDS = 51


def full_plan(seconds: int) -> Plan:
    """The plan the benchmark runs; work scales linearly with seconds."""
    base = Plan()
    scale = seconds / _BASE_SECONDS
    return replace(
        base,
        train_steps=max(3, round(base.train_steps * scale)),
        rounds=max(1, round(base.rounds * scale)),
        traced_steps=max(2, round(base.traced_steps * scale)))


@dataclass
class Tally:
    """Operations attempted and failed, per phase, plus check results."""
    phases: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def op(self, phase: str, ok: bool = True, n: int = 1) -> None:
        att, bad = self.phases.get(phase, (0, 0))
        self.phases[phase] = (att + n, bad + (0 if ok else n))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.op("checks", ok)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(b for _, b in self.phases.values())


def tail(samples) -> tuple[int, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return 0, float("nan")
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 100, float(max(samples))


# -- setup ------------------------------------------------------------------------

@dataclass
class Setup:
    panel: data.PanelDataset       # split for training
    eval_panel: data.PanelDataset  # split mica eval uses
    csv_path: Path
    conf_path: Path
    params_path: Path
    eval_model: ForecastModel
    train_model: ForecastModel
    test_ctx: np.ndarray
    test_tgt: np.ndarray
    wide_window: np.ndarray
    wide_mica: ForecastModel
    wide_base: ForecastModel


def config_text(cfg: ModelConfig, data_path: Path, val_size: int,
                test_size: int) -> str:
    """A ``mica`` run config describing ``cfg`` and the panel CSV."""
    keys = ["horizon", "input_size", "n_layers", "d_model", "n_heads",
            "ff_hidden", "d_k", "d_v", "patch_len", "stride", "dropout",
            "head_kind"]
    lines = [f"model.{k} = {getattr(cfg, k)}" for k in keys]
    lines.append(f"model.mica = {cfg.mica is not None}")
    if cfg.mica is not None:
        for k in ("gate", "mlp_hidden", "mlp_layers", "mlp_dropout",
                  "exclusion", "weight_mode", "epsilon"):
            lines.append(f"model.{k} = {getattr(cfg.mica, k)!r}".replace(
                "'", ""))
    lines += [f"data.path = {data_path}", f"data.val_size = {val_size}",
              f"data.test_size = {test_size}"]
    return "\n".join(lines) + "\n"


def setup(plan: Plan, workload: str, seed: int, work: Path) -> Setup:
    gen = WORKLOADS[workload]
    raw = gen(plan.channels, plan.panel_steps, seed)
    panel = data.chrono_split(raw, plan.val_size, plan.test_size)
    eval_panel = data.chrono_split(raw, plan.val_size, plan.eval_test_size)
    csv_path = work / "panel.csv"
    data.write_csv(raw, csv_path)
    conf_path = work / "run.conf"
    conf_path.write_text(config_text(plan.model, csv_path, plan.val_size,
                                     plan.eval_test_size))
    eval_model = ForecastModel(plan.model, plan.channels,
                               seed=MODEL_SEED + 1)
    params_path = work / "params.bin"
    backbone.save_params(params_path, eval_model,
                         backbone.config_digest(plan.model, plan.channels))
    train_model = ForecastModel(plan.model, plan.channels, seed=MODEL_SEED)
    test_ctx, test_tgt = training.eval_windows(
        eval_panel, plan.model.input_size, plan.model.horizon, "test")
    wide_panel = gen(plan.wide_channels, plan.wide.input_size, seed)
    wide_window = wide_panel.values[None]
    wide_mica = ForecastModel(plan.wide, plan.wide_channels,
                              seed=MODEL_SEED)
    wide_base = ForecastModel(replace(plan.wide, mica=None),
                              plan.wide_channels, seed=MODEL_SEED)
    with no_grad():
        eval_model.forward(test_ctx[:1])
        wide_mica.forward(wide_window)
        wide_base.forward(wide_window)
    return Setup(panel, eval_panel, csv_path, conf_path, params_path,
                 eval_model,
                 train_model, test_ctx, test_tgt, wide_window, wide_mica,
                 wide_base)


# -- phases -------------------------------------------------------------------------

def run_train(plan: Plan, st: Setup, steps: int, val_every: int,
              tally: Tally):
    """One train() call; returns (report or None, wall s, step times ms)."""
    tcfg = training.TrainConfig(windows_batch=plan.batch, max_steps=steps,
                                val_check_every=val_every,
                                early_stop_patience=10 ** 9,
                                seeds=(MODEL_SEED,))
    stamps: list[float] = []
    inner = training.sample_windows

    def marked(*args, **kwargs):
        stamps.append(time.perf_counter())
        return inner(*args, **kwargs)

    training.sample_windows = marked
    try:
        t0 = time.perf_counter()
        report = training.train(st.train_model, st.panel, tcfg,
                                MODEL_SEED)
        wall = time.perf_counter() - t0
    except Exception as err:  # counted and reported, the run goes on
        tally.op("train", False, steps)
        tally.errors.append(f"train: {err!r}")
        return None, float("nan"), []
    finally:
        training.sample_windows = inner
    losses = [loss for _, loss in report.train_trace]
    finite = int(np.isfinite(losses).sum())
    tally.op("train", True, finite)
    tally.op("train", False, steps - finite)
    return report, wall, list(np.diff(stamps) * 1e3)


def eval_argv(st: Setup, out: Path) -> list[str]:
    return ["eval", "--config", str(st.conf_path), "--params",
            str(st.params_path), "--out", str(out)]


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` with its printing captured."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def timed(tally: Tally, phase: str, fn, ok=lambda out: True):
    """Run and time one operation.  An exception, or an output ``ok``
    rejects, counts as a failed operation; returns (seconds, output) or
    (None, None) after an exception."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as err:  # counted and reported, the run goes on
        tally.op(phase, False)
        tally.errors.append(f"{phase}: {err!r}")
        return None, None
    dt = time.perf_counter() - t0
    tally.op(phase, bool(ok(out)))
    return dt, out


def finite(arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


def forward_no_grad(model: ForecastModel, window: np.ndarray) -> np.ndarray:
    with no_grad():
        return model.forward(window).data


def run_rounds(plan: Plan, st: Setup, seed: int, out: Path, rounds: int,
               tally: Tally) -> dict:
    """The eval and wide operations, cycled round by round, with
    single-window forwards between them so every kind of sample spreads
    over the same stretch of time."""
    argv = eval_argv(st, out)
    n_test = len(st.test_ctx)
    seconds = lambda dt, res: dt  # noqa: E731
    millis = lambda dt, res: dt * 1e3  # noqa: E731
    # (sample key, phase, operation, output check, sample from (dt, output))
    cycle = [
        ("cmd_s", "eval", lambda: run_cli(argv)[0], lambda c: c == 0,
         seconds),
        ("pass_s", "eval", lambda: training.evaluate(
            st.eval_model, st.test_ctx, st.test_tgt, batch=plan.batch),
         finite, seconds),
        ("mica_ms", "wide", lambda: forward_no_grad(st.wide_mica,
                                                    st.wide_window),
         finite, millis),
        ("base_ms", "wide", lambda: forward_no_grad(st.wide_base,
                                                    st.wide_window),
         finite, millis),
        # the sweep times the concat forward itself; its own set-up is not
        # part of the sample
        ("concat_ms", "wide", lambda: concat_sweep(
            plan, [plan.concat_channels], seed, 1, 0)[0].latency.mean_ms,
         np.isfinite, lambda dt, res: res),
    ]
    cycle += cycle[1:]
    t: dict[str, list] = {key: [] for key, *_ in cycle}
    t.update(b1_ms=[], b1_out=[])
    w = 0
    for _ in range(rounds):
        for key, phase, fn, ok, sample in cycle:
            dt, res = timed(tally, phase, fn, ok)
            if dt is not None:
                t[key].append(sample(dt, res))
            for _ in range(plan.b1_between):
                dt, pred = timed(tally, "eval", lambda: forward_no_grad(
                    st.eval_model, st.test_ctx[w:w + 1]), finite)
                if dt is not None:
                    t["b1_ms"].append(dt * 1e3)
                    t["b1_out"].append((w, pred[0]))
                w = (w + 1) % n_test
    return t


def concat_sweep(plan: Plan, grid, seed: int, repeats: int, warmup: int):
    return bench.sweep_channels(plan.wide, list(grid),
                                mechanisms=("concat",), measure=True,
                                repeats=repeats, warmup=warmup, seed=seed)


# -- checks ---------------------------------------------------------------------------

def close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=tol, atol=tol))


def read_forecasts(path: Path, n_channels: int, horizon: int):
    """(y_true, y_pred) arrays of shape (windows, C, H) from forecasts.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    vals = np.array([[float(r[3]), float(r[4])] for r in rows])
    shape = (-1, n_channels, horizon)
    return vals[:, 0].reshape(shape), vals[:, 1].reshape(shape)


def read_metrics(path: Path) -> dict[str, tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {r[0]: (float(r[1]), float(r[2])) for r in rows}


def batched_forward(model: ForecastModel, ctx: np.ndarray, batch: int):
    with no_grad():
        return np.concatenate([model.forward(ctx[i:i + batch]).data
                               for i in range(0, len(ctx), batch)])


def probe_values(work: Path) -> dict:
    """Fixed-seed probe whose outputs are compared to reference.json: the
    losses of three training steps (forward, backward and Adam) and the
    ``mica eval`` forecasts of the quick-start model on a small lead-lag
    panel."""
    panel = data.chrono_split(
        data.gen_leadlag(7, 600, lag=4, noise_sigma=0.1, seed=PROBE_SEED),
        48, 48)
    model = ForecastModel(QUICKSTART, 7, seed=PROBE_SEED)
    tcfg = training.TrainConfig(windows_batch=64, max_steps=PROBE_STEPS,
                                val_check_every=PROBE_STEPS,
                                early_stop_patience=1,
                                seeds=(PROBE_SEED,))
    report = training.train(model, panel, tcfg, PROBE_SEED)
    csv_path, conf_path = work / "probe.csv", work / "probe.conf"
    params_path, out = work / "probe.bin", work / "probe_out"
    data.write_csv(panel, csv_path)
    conf_path.write_text(config_text(QUICKSTART, csv_path, 48, 48))
    backbone.save_params(params_path, ForecastModel(QUICKSTART, 7,
                                                    seed=PROBE_SEED + 1),
                         backbone.config_digest(QUICKSTART, 7))
    code, _ = run_cli(["eval", "--config", str(conf_path), "--params",
                       str(params_path), "--out", str(out)])
    forecasts = []
    if code == 0:
        _, pred = read_forecasts(out / "forecasts.csv", 7,
                                 QUICKSTART.horizon)
        forecasts = pred.ravel().tolist()
    return {"train_losses": [loss for _, loss in report.train_trace],
            "eval_exit": code, "eval_forecasts": forecasts}


def check_probe(values: dict, reference: dict, tally: Tally) -> None:
    # step 1 checks the forward; later steps also backward and Adam
    for step in (1, PROBE_STEPS):
        loss = values["train_losses"][step - 1]
        ref = reference["train_losses"][step - 1]
        tally.check(f"train.step{step}_loss_matches_reference",
                    abs(loss - ref) <= 1e-9 * abs(ref), f"{loss!r} vs {ref!r}")
    tally.check("eval.probe_exit_0", values["eval_exit"] == 0,
                f"exit {values['eval_exit']}")
    tally.check("eval.forecasts_match_reference",
                close(values["eval_forecasts"],
                      reference["eval_forecasts"], 1e-9),
                f"{len(values['eval_forecasts'])} values")


def check_train(report, tally: Tally) -> None:
    if report is None:
        return
    losses = [loss for _, loss in report.train_trace]
    tally.check("train.losses_finite", bool(np.all(np.isfinite(losses))),
                f"{len(losses)} steps")
    tally.check("train.test_mae_finite", bool(np.isfinite(report.test_mae)),
                repr(report.test_mae))


def check_eval_outputs(plan: Plan, st: Setup, out: Path,
                       tally: Tally) -> np.ndarray:
    """metrics.csv equals evaluate() on the same params, forecasts.csv
    equals the batched forward; returns the batched predictions."""
    cfg = plan.model
    pred = batched_forward(st.eval_model, st.test_ctx, plan.batch)
    try:
        got = read_metrics(out / "metrics.csv")
        y_true, y_pred = read_forecasts(out / "forecasts.csv",
                                        plan.channels, cfg.horizon)
    except (OSError, ValueError, IndexError) as err:
        tally.check("eval.outputs_readable", False, repr(err))
        return pred
    vctx, vtgt = training.eval_windows(st.eval_panel, cfg.input_size,
                                       cfg.horizon, "val")
    want = {"val": training.evaluate(st.eval_model, vctx, vtgt),
            "test": training.evaluate(st.eval_model, st.test_ctx,
                                      st.test_tgt)}
    tally.check("eval.metrics_equal_evaluate",
                got.keys() == want.keys() and all(
                    close(got[k], want[k], 1e-12) for k in want),
                f"{got} vs {want}")
    tally.check("eval.forecasts_equal_forward",
                close(y_pred, pred, 1e-12) and close(y_true, st.test_tgt,
                                                     0.0),
                f"{y_pred.shape} windows")
    return pred


def check_b1(b1_out, pred: np.ndarray, tally: Tally) -> None:
    tally.check("eval.b1_rows_equal_batched",
                all(close(row, pred[w], 1e-12) for w, row in b1_out),
                f"{len(b1_out)} single-window forwards")


def check_wide(plan: Plan, st: Setup, seed: int, tally: Tally) -> None:
    with no_grad():
        fast = st.wide_mica.forward(st.wide_window).data
    taped = st.wide_mica.forward(st.wide_window).data
    tally.check("wide.no_grad_equals_tape", close(fast, taped, 1e-10),
                f"max diff {float(np.max(np.abs(fast - taped))):.3g}")
    outputs = []
    inner = bench.measure_latency

    def keep(fn, *args, **kwargs):
        return inner(lambda: outputs.append(fn()), *args, **kwargs)

    bench.measure_latency = keep
    try:
        row = concat_sweep(plan, [plan.concat_channels], seed, 1, 0)[0]
    finally:
        bench.measure_latency = inner
    shown = [o for o in outputs if o is not None]
    detail = (f"{len(shown)} outputs" if shown else
              "the timed callable returns no output; latency checked only")
    tally.check("wide.concat_finite",
                np.isfinite(row.latency.mean_ms) and all(
                    np.all(np.isfinite(np.asarray(o))) for o in shown),
                detail)


def guarded(tally: Tally, name: str, fn):
    """Run a check step; an exception in it is a failed check."""
    try:
        return fn()
    except Exception as err:  # counted and reported, the run goes on
        tally.check(name, False, repr(err))
        return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- runs ----------------------------------------------------------------------------

def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def untraced(plan: Plan, workload: str, seed: int, work: Path):
    tally = Tally()
    setup_s = []
    for _ in range(plan.setup_repeats):
        t0 = time.perf_counter()
        st = setup(plan, workload, seed, work)
        setup_s.append(time.perf_counter() - t0)
    tally.op("setup", n=plan.setup_repeats)

    # half the rounds before training and half after, so their samples
    # span the run: the host's load shifts over tens of seconds
    out = work / "eval_out"
    first = plan.rounds // 2
    ev = run_rounds(plan, st, seed, out, first, tally)
    report, wall, step_ms = run_train(plan, st, plan.train_steps,
                                      plan.val_every, tally)
    for key, samples in run_rounds(plan, st, seed, out, plan.rounds - first,
                                   tally).items():
        ev[key] += samples

    check_train(report, tally)
    guarded(tally, "probe", lambda: check_probe(
        probe_values(work), load_reference(), tally))
    pred = guarded(tally, "eval.outputs", lambda: check_eval_outputs(
        plan, st, out, tally))
    if pred is not None:
        check_b1(ev["b1_out"], pred, tally)
    guarded(tally, "wide", lambda: check_wide(plan, st, seed, tally))

    step_pct, step_tail = tail(step_ms)
    b1_pct, b1_tail = tail(ev["b1_ms"])
    metrics = {
        "setup_s": _median(setup_s),
        "train_windows_per_s": plan.train_steps * plan.batch / wall,
        "train_step_ms_p50": _median(step_ms),
        "train_step_ms_tail": step_tail,
        "train_test_mae": report.test_mae if report else float("nan"),
        "eval_cmd_s_p50": _median(ev["cmd_s"]),
        "infer_windows_per_s": len(st.test_ctx) / _median(ev["pass_s"]),
        "infer_b1_ms_p50": _median(ev["b1_ms"]),
        "infer_b1_ms_tail": b1_tail,
        "wide_mica_ms_p50": _median(ev["mica_ms"]),
        "wide_baseline_ms_p50": _median(ev["base_ms"]),
        "wide_concat_ms_p50": _median(ev["concat_ms"]),
    }
    samples = {
        "setup_s": len(setup_s),
        "train_step_ms": {"n": len(step_ms), "tail_percentile": step_pct},
        "rounds": len(ev["cmd_s"]),
        "infer_b1_ms": {"n": len(ev["b1_ms"]), "tail_percentile": b1_pct},
    }
    units = dict(END_TO_END)
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, samples


def traced(plan: Plan, workload: str, seed: int, work: Path,
           trace_path: Path):
    tally = Tally()
    tr = tracing.Tracer(mica)
    cfg = plan.model
    tr.install()
    try:
        tr.run = "setup"
        st = setup(plan, workload, seed, work)
        tally.op("setup")
        tr.register(st.train_model)
        init = st.train_model.state_arrays()

        # tracing overhead: the same steps from the same start, untraced,
        # after a warm-up call so neither side pays first-call costs
        tr.remove()
        # two validation checks, so state snapshots are traced too
        val_every = max(1, plan.traced_steps // 2)
        for _ in range(2):
            _, _, plain_ms = run_train(plan, st, plan.traced_steps,
                                       val_every, tally)
            st.train_model.load_state(init)
        tr.install()
        tr.run = "train"
        report, _, traced_ms = run_train(plan, st, plan.traced_steps,
                                         val_every, tally)
        check_train(report, tally)

        tr.run = "capture"
        tr.capture = []
        ctx, _ = training.sample_windows(st.panel, cfg.input_size,
                                         cfg.horizon, plan.batch,
                                         np.random.default_rng(MODEL_SEED))
        st.train_model.forward(ctx, training=True)
        capture, tr.capture = tr.capture, None

        tr.run = "eval"
        out = work / "eval_out"
        code, _ = run_cli(eval_argv(st, out))
        tally.op("eval", code == 0)
        tr.run = "wide"
        with no_grad():
            wide_out = st.wide_mica.forward(st.wide_window).data
        tally.op("wide", bool(np.all(np.isfinite(wide_out))))
    finally:
        tr.remove()
    tr.write(trace_path)

    rows = bench.sweep_channels(plan.wide, list(plan.sweep_grid),
                                measure=True, repeats=1, warmup=1, seed=seed)
    tally.op("wide", all(np.isfinite(r.latency.mean_ms) for r in rows),
             len(rows))
    bwd = tracing.backward_costs(capture, Tensor, plan.micro_reps, seed)

    guarded(tally, "probe", lambda: check_probe(
        probe_values(work), load_reference(), tally))
    if code == 0:
        guarded(tally, "eval.outputs", lambda: check_eval_outputs(
            plan, st, out, tally))
    guarded(tally, "wide", lambda: check_wide(plan, st, seed, tally))

    metrics = layer_metrics(plan, tr, bwd, rows, st, out, plain_ms,
                            traced_ms)
    return tally, metrics, {"trace_file": str(trace_path),
                            "spans": len(tr.spans),
                            "traced_steps": plan.traced_steps}


def layer_metrics(plan, tr, bwd, rows, st, out, plain_ms, traced_ms):
    """Per-layer metrics from the spans, the micro-runs and the sweep."""
    spans = tr.spans
    n = plan.traced_steps
    step = tracing.step_breakdown(spans, "train", n)
    m: dict[str, tuple[float, str]] = {}

    def ms(name, val):
        m[name] = (float(val), "ms")

    for cat in ("gelu", "matmul", "softmax", "phi", "sigmoid",
                "elementwise", "shape", "reduce"):
        ms(f"tensor.{cat}.fwd_ms", step.get(f"op.{cat}", 0.0))
    ms("tensor.backward_ms",
       tracing.span_ms(spans, "train", "fn.Tensor.backward")[0] / n)
    m["tensor.tape_nodes_per_step"] = (tr.tape_nodes["train"] / n, "count")
    m["tensor.ops_per_step"] = (step["count.ops"], "count")
    m["tensor.matmul.calls"] = (step["count.matmul"], "count")

    for i in range(plan.model.n_layers):
        lyr = f"l{i}"
        for part in ("qkv", "local", "global", "gate", "out"):
            ms(f"attention.{lyr}.{part}.fwd_ms",
               step.get(f"part.{lyr}.{part}", 0.0))
            ms(f"attention.{lyr}.{part}.bwd_ms", bwd.get(f"{lyr}.{part}",
                                                          0.0))
        for part in ("norm1", "norm2", "ffn"):
            ms(f"nn.{lyr}.{part}.fwd_ms", step.get(f"part.{lyr}.{part}",
                                                     0.0))
            ms(f"nn.{lyr}.{part}.bwd_ms", bwd.get(f"{lyr}.{part}", 0.0))
    for part in ("embed", "head"):
        ms(f"backbone.{part}.fwd_ms", step.get(f"part.{part}", 0.0))
        ms(f"backbone.{part}.bwd_ms", bwd.get(part, 0.0))
    ms("backbone.prep.fwd_ms", step["part.prep"])

    def per_call(run, name):
        incl, _, calls = tracing.span_ms(spans, run, name)
        return incl / max(calls, 1)

    ms("training.adam_ms", per_call("train", "fn.Adam.step"))
    ms("training.zero_grad_ms", per_call("train", "fn.Module.zero_grad"))
    ms("training.sample_windows_ms", per_call("train", "fn.sample_windows"))
    ms("training.loss_ms", per_call("train", "fn.mae_loss"))
    ms("training.evaluate_ms", per_call("train", "fn.evaluate"))
    ms("training.state_arrays_ms",
       per_call("train", "fn.Module.state_arrays"))
    m["training.val_checks"] = (
        tracing.span_ms(spans, "train", "fn.evaluate")[2] - 1, "count")

    gen = sum(tracing.span_ms(spans, "setup", f"fn.{g}")[0]
              for g in ("gen_leadlag", "gen_independent"))
    ms("data.gen_ms", gen)
    ms("data.write_csv_ms", tracing.span_ms(spans, "setup",
                                            "fn.write_csv")[0])
    ms("data.load_csv_ms", tracing.span_ms(spans, "eval", "fn.load_csv")[0])
    ms("data.eval_windows_ms",
       tracing.span_ms(spans, "eval", "fn.eval_windows")[0])
    m["data.csv_bytes"] = (st.csv_path.stat().st_size, "bytes")
    ms("backbone.save_params_ms",
       tracing.span_ms(spans, "setup", "fn.save_params")[0])
    ms("backbone.load_params_ms",
       tracing.span_ms(spans, "eval", "fn.load_params")[0])
    m["backbone.params_bytes"] = (st.params_path.stat().st_size, "bytes")
    ms("cli.parse_config_ms",
       tracing.span_ms(spans, "eval", "fn.parse_config")[0])
    # cmd_eval's own time once every public callee is its own span:
    # formatting and writing the forecast rows, plus model construction
    ms("cli.write_forecasts_ms",
       tracing.span_ms(spans, "eval", "fn.cmd_eval")[1])
    forecasts = out / "forecasts.csv"
    m["cli.forecasts_bytes"] = (
        forecasts.stat().st_size if forecasts.exists() else 0, "bytes")
    m["cli.eval_forward_calls"] = (
        tracing.span_ms(spans, "eval", "cls.ForecastModel")[2], "count")

    flops = bench.count_flops(plan.wide, plan.wide_channels, "mica")
    m["attention.flops.local"] = (flops.local_flops, "flop")
    m["attention.flops.global"] = (flops.global_flops, "flop")
    m["attention.flops.gate"] = (flops.gate_flops, "flop")
    local_s = tracing.span_ms(spans, "wide", "fn.local_attention")[0] / 1e3
    global_s = sum(tracing.span_ms(spans, "wide", f"fn.{f}")[0]
                   for f in ("global_memory", "global_attention")) / 1e3
    m["attention.local.gflops_per_s"] = (
        flops.local_flops / local_s / 1e9, "GFLOP/s")
    m["attention.global.gflops_per_s"] = (
        flops.global_flops / global_s / 1e9, "GFLOP/s")

    for mech in ("mica", "baseline", "concat"):
        pts = [r for r in rows if r.mechanism == mech]
        sizes = [r.size for r in pts]
        fit = bench.fit_scaling(sizes, [r.latency.mean_ms for r in pts])
        m[f"bench.{mech}_c_exponent"] = (fit.exponent, "exponent")
        if mech != "baseline":
            ffit = bench.fit_scaling(sizes, [r.flops.total_flops
                                             for r in pts])
            m[f"bench.{mech}_flop_exponent"] = (ffit.exponent, "exponent")

    plain, slow = _median(plain_ms), _median(traced_ms)
    m["trace.overhead_pct"] = ((slow - plain) / plain * 100, "%")
    return m


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path,
        plan: Plan | None = None):
    """One benchmark run; returns (tally, {metric: (value, unit)}, info)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    plan = plan or full_plan(seconds)
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        if trace:
            traces = base / "traces"
            traces.mkdir(exist_ok=True)
            return traced(plan, workload, seed, work,
                          traces / f"{workload}-seed{seed}.jsonl")
        return untraced(plan, workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
