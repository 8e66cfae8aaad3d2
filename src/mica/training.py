"""Window-sampled training with step-decayed Adam and early stopping.

Loss is mean absolute error in the original data units (the backbone
de-standardizes before returning), validated every ``val_check_every`` steps
on a fixed tiling of the validation split, and at the last step if none came
before.  The best-validation parameters are restored before test metrics are
computed.  Every forward and loss op is checked for NaN/Inf; the first one
found ends the run with ``TrainingDivergedError``, which names the op.

A training step splits its windows into cache-sized groups
(``backbone.windows_per_forward``) and runs them on the shared pool
(``backbone._pooled``), each group in a copy of the step's context.  The
groups each take a forward, their share of the loss and their leaf
gradients (``tensor.leaf_grads``) at once; the step adds them into the
parameters' ``.grad`` in group order, so its bits depend on neither
scheduling nor the CPU count.  ``predict`` feeds untaped forwards ``batch``
windows at a time; each forward decides how it uses the cores.  Importing
the module gives numpy's bundled OpenBLAS one thread per call, since the
pool already uses every core.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backbone import ForecastModel, _pooled, windows_per_forward
from .bench import one_blas_thread
from .data import ConfigError, PanelDataset
from .tensor import (NonFiniteError, ShapeError, Tensor, add_leaf_grads,
                     grad_enabled, leaf_grads, no_grad, tabs)


class TrainingDivergedError(RuntimeError):
    """A step's forward, loss or validation check went NaN/Inf; carries
    the step index, and its message names the first op that did."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"training diverged at step {step}: {detail}")
        self.step = step


@dataclass
class TrainConfig:
    windows_batch: int = 64
    max_steps: int = 12000
    val_check_every: int = 500
    lr0: float = 1e-3
    lr_decay: float = 0.5
    lr_step: int = 4000
    early_stop_patience: int = 20
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        if min(self.windows_batch, self.max_steps, self.val_check_every,
               self.lr_step, self.early_stop_patience) < 1:
            raise ConfigError("training sizes must be positive")
        if not 0 < self.lr0 < np.inf:  # NaN too
            raise ConfigError(f"lr0 must be positive and finite, got "
                              f"{self.lr0}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got "
                              f"{self.lr_decay}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        negative = sorted({s for s in self.seeds if s < 0})
        if negative:
            raise ConfigError(f"seeds must be non-negative; got {negative}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct; repeated: {repeated}")


@dataclass
class TrainReport:
    seed: int
    best_step: int
    best_val_mae: float
    test_mae: float
    test_rmse: float
    steps_run: int
    train_trace: list[tuple[int, float]] = field(default_factory=list)
    val_trace: list[tuple[int, float]] = field(default_factory=list)


# -- metrics -------------------------------------------------------------------

def _error(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """``y_true - y_pred`` of two equal, non-empty shapes."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"metric shapes differ: {y_true.shape} vs "
                         f"{y_pred.shape}")
    if not y_true.size:
        raise ShapeError(f"metric of no values, shape {y_true.shape}")
    return y_true - y_pred


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.abs(_error(y_true, y_pred))))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(np.mean(_error(y_true, y_pred) ** 2)))


def mae_loss(y_true: np.ndarray, y_pred: Tensor) -> Tensor:
    """Differentiable mean absolute error."""
    if tuple(y_true.shape) != tuple(y_pred.shape):
        raise ShapeError(f"loss shapes differ: {tuple(y_true.shape)} vs "
                         f"{tuple(y_pred.shape)}")
    return tabs(y_pred - Tensor(np.asarray(y_true, dtype=np.float64))).mean()


# -- optimizer ------------------------------------------------------------------

class Adam:
    """Standard Adam (beta1 0.9, beta2 0.999, eps 1e-8) with bias
    correction; lr is supplied per step."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Step-decayed rate: lr0 * decay^(step // lr_step)."""
    return cfg.lr0 * cfg.lr_decay ** (step // cfg.lr_step)


# -- window extraction -------------------------------------------------------------

def _slice_windows(values: np.ndarray, starts: np.ndarray, input_size: int,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    ctx = sliding_window_view(values, input_size, axis=1)
    tgt = sliding_window_view(values[:, input_size:], horizon, axis=1)
    return ctx.swapaxes(0, 1)[starts], tgt.swapaxes(0, 1)[starts]


def sample_windows(panel: PanelDataset, input_size: int, horizon: int,
                   batch: int, rng: np.random.Generator):
    """Uniformly sample training windows that end inside the train split."""
    panel.require_split()
    max_start = panel.train_end - (input_size + horizon)
    if max_start < 0:
        raise ConfigError(
            f"train split of {panel.train_end} steps cannot hold a window of "
            f"{input_size}+{horizon} steps")
    starts = rng.integers(0, max_start + 1, size=batch)
    return _slice_windows(panel.values, starts, input_size, horizon)


def eval_windows(panel: PanelDataset, input_size: int, horizon: int,
                 split: str = "val"):
    """Fixed non-overlapping target spans tiling a split, newest kept.

    Targets are placed back-to-back ending at the split boundary; contexts
    may extend into earlier data but never before t=0.
    """
    panel.require_split()
    if split == "val":
        lo, hi = panel.train_end, panel.val_end
    elif split == "test":
        lo, hi = panel.val_end, panel.n_steps
    else:
        raise ConfigError(f"unknown split '{split}'")
    starts = np.arange(hi - horizon - input_size,
                       max(lo - input_size, 0) - 1, -horizon)[::-1]
    if not starts.size:
        raise ConfigError(
            f"{split} split [{lo}, {hi}) too short for horizon {horizon}")
    return _slice_windows(panel.values, starts, input_size, horizon)


# -- training loop ------------------------------------------------------------------

BLAS_ONE_THREAD = one_blas_thread()


def predict(model: ForecastModel, ctx: np.ndarray,
            batch: int = 64) -> np.ndarray:
    """Forecasts for every window, from one untaped forward per ``batch``
    windows; each forward decides how it uses the cores
    (``ForecastModel.forward``).  Zero windows give a (0, C, H) array."""
    if batch < 1:
        raise ConfigError(f"batch must be positive, got {batch}")
    with no_grad():  # zero windows take one forward, for the shape
        return np.concatenate([model.forward(ctx[start:start + batch]).data
                               for start in range(0, len(ctx) or 1, batch)])


def evaluate(model: ForecastModel, ctx: np.ndarray, tgt: np.ndarray,
             batch: int = 64) -> tuple[float, float]:
    """MAE and RMSE over windows, computed without the tape, ``batch``
    windows per forward, as in ``predict``."""
    pred = predict(model, ctx, batch)
    return mae(tgt, pred), rmse(tgt, pred)


def _group_step(model: ForecastModel, ctx: np.ndarray, tgt: np.ndarray,
                rng: np.random.Generator, batch: int):
    """One window group's share of a training step: its loss, ``mae_loss``
    over the group scaled by its share of the ``batch`` windows, and the
    leaf gradients of that loss.  The group's graph dies on return."""
    loss = mae_loss(tgt, model.forward(ctx, training=True, rng=rng)) * (
        len(ctx) / batch)
    return loss.item(), leaf_grads(loss)


def train(model: ForecastModel, panel: PanelDataset, cfg: TrainConfig,
          seed: int) -> TrainReport:
    """Train one model; returns traces and test metrics at the best check.

    A step runs its ``windows_batch`` windows in ``windows_per_forward``
    groups on the pool, each with dropout masks from a generator of its
    own, spawned from the step's rng in group order.  The step clears the
    parameters' ``.grad`` with ``Module.zero_grad``, adds each group's
    ``leaf_grads`` pairs into it with ``add_leaf_grads`` in group order,
    the add ``Tensor.backward`` makes, and Adam steps once on the sums.
    A non-finite value ends the run with the error of the earliest group
    that has one; a call inside ``no_grad``, which no group could learn
    from, is refused."""
    if not grad_enabled.get():
        raise RuntimeError("train cannot run inside no_grad")
    panel.require_split()
    rng = np.random.default_rng(seed)
    opt = Adam(model.parameters())
    input_size = model.config.input_size
    horizon = model.config.horizon
    batch = cfg.windows_batch
    group = windows_per_forward(model, batch)
    parts = [slice(start, start + group) for start in range(0, batch, group)]
    val_ctx, val_tgt = eval_windows(panel, input_size, horizon, "val")

    train_trace: list[tuple[int, float]] = []
    val_trace: list[tuple[int, float]] = []
    best_state: dict[str, np.ndarray] | None = None
    checks_since_best = 0

    try:
        for step in range(cfg.max_steps):
            ctx, tgt = sample_windows(panel, input_size, horizon, batch, rng)
            # spawning leaves rng's state, so its window draws, unchanged
            rngs = [np.random.default_rng(s) for s in
                    rng.bit_generator.seed_seq.spawn(len(parts))]
            loss_val = 0.0
            model.zero_grad()
            for loss_g, pairs in _pooled(
                    lambda part, g_rng: _group_step(
                        model, ctx[part], tgt[part], g_rng, batch),
                    parts, rngs):
                loss_val += loss_g
                add_leaf_grads(pairs)
            opt.step(lr_at(step, cfg))
            steps_run = step + 1
            train_trace.append((steps_run, loss_val))

            if (steps_run % cfg.val_check_every == 0
                    or best_state is None and steps_run == cfg.max_steps):
                val_mae, _ = evaluate(model, val_ctx, val_tgt)
                val_trace.append((steps_run, val_mae))
                if best_state is None or val_mae < best_val:
                    best_val = val_mae
                    best_step = steps_run
                    best_state = model.state_arrays()
                    checks_since_best = 0
                else:
                    checks_since_best += 1
                    if checks_since_best >= cfg.early_stop_patience:
                        break
    except NonFiniteError as err:
        raise TrainingDivergedError(step, str(err)) from err

    model.load_state(best_state)
    test_ctx, test_tgt = eval_windows(panel, input_size, horizon, "test")
    test_mae, test_rmse = evaluate(model, test_ctx, test_tgt)
    return TrainReport(seed=seed, best_step=best_step, best_val_mae=best_val,
                       test_mae=test_mae, test_rmse=test_rmse,
                       steps_run=steps_run, train_trace=train_trace,
                       val_trace=val_trace)
