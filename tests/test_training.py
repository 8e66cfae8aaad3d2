import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mica

from mica import tensor, training
from mica.attention import GATE_KINDS, MicaConfig
from mica.backbone import ForecastModel, ModelConfig
from mica.data import ConfigError, PanelDataset, chrono_split, gen_leadlag
from mica.tensor import NonFiniteError, ShapeError, Tensor, no_grad
from mica.training import (Adam, TrainConfig, TrainingDivergedError,
                           eval_windows, evaluate, lr_at, mae, mae_loss,
                           predict, rmse, sample_windows, train,
                           windows_per_forward)


def tiny_model(**over):
    cfg = dict(horizon=4, input_size=8, n_layers=1, d_model=8, n_heads=2,
               ff_hidden=16, d_k=4, d_v=4, patch_len=4, stride=4,
               mica=MicaConfig(n_heads=2, d_k=4, d_v=4))
    cfg.update(over)
    return ForecastModel(ModelConfig(**cfg), n_channels=3, seed=0)


def tiny_panel(t=400, seed=0):
    panel = gen_leadlag(3, t, lag=2, noise_sigma=0.1, seed=seed)
    return chrono_split(panel, val_size=40, test_size=40)


def test_lr_schedule_frozen_values():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 1e-3
    assert lr_at(3999, cfg) == 1e-3
    assert lr_at(4000, cfg) == 5e-4
    assert lr_at(8000, cfg) == 2.5e-4


def test_metric_frozen_values():
    y = np.array([[1.0, 2.0]])
    yhat = np.array([[0.0, 0.0]])
    assert mae(y, yhat) == 1.5
    npt.assert_allclose(rmse(y, yhat), np.sqrt(2.5), atol=1e-15)
    with pytest.raises(ShapeError):
        mae(np.zeros(3), np.zeros(4))


def test_mae_loss_gradient_is_scaled_sign():
    pred = Tensor(np.array([[2.0, -1.0, 0.5]]), requires_grad=True)
    target = np.array([[1.0, 1.0, 0.5]])
    loss = mae_loss(target, pred)
    npt.assert_allclose(loss.item(), (1.0 + 2.0 + 0.0) / 3.0, atol=1e-15)
    loss.backward()
    npt.assert_allclose(pred.grad, [[1 / 3, -1 / 3, 0.0]], atol=1e-15)


def test_adam_first_step_and_convergence():
    x = Tensor(np.array(0.0), requires_grad=True)
    opt = Adam([x])
    loss = (x - 3.0) * (x - 3.0)
    loss.backward()
    opt.step(0.1)
    # bias-corrected first step moves by ~lr * sign(grad)
    npt.assert_allclose(x.data, 0.1, atol=1e-6)
    for _ in range(300):
        x.zero_grad()
        ((x - 3.0) * (x - 3.0)).backward()
        opt.step(0.1)
    npt.assert_allclose(x.data, 3.0, atol=1e-2)


def test_adam_leaves_a_parameter_without_gradient_alone():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([x, y])
    (x * x).sum().backward()
    assert y.grad is None
    opt.step(0.1)
    assert (x.data != [1.0, -2.0]).all() and opt.m[0].all()
    npt.assert_array_equal(y.data, [3.0])
    assert not opt.m[1].any() and not opt.v[1].any()


def test_sample_windows_stay_inside_train_split():
    panel = tiny_panel()
    rng = np.random.default_rng(0)
    ctx, tgt = sample_windows(panel, 8, 4, 32, rng)
    assert ctx.shape == (32, 3, 8) and tgt.shape == (32, 3, 4)
    # reconstruct starts from values to confirm the bound
    for w in range(32):
        joined = np.concatenate([ctx[w], tgt[w]], axis=1)
        # every window must match a slice fully inside [0, train_end)
        found = False
        for s in range(panel.train_end - 12 + 1):
            if np.array_equal(panel.values[:, s:s + 12], joined):
                found = True
                break
        assert found


def test_sample_windows_too_short():
    panel = chrono_split(gen_leadlag(2, 30, 2, 0.0, 1), 10, 10)
    with pytest.raises(ConfigError, match="cannot hold"):
        sample_windows(panel, 16, 8, 4, np.random.default_rng(0))


def test_eval_windows_tile_from_split_end():
    ramp = PanelDataset(values=np.arange(100.0)[None, :], channel_ids=["a"])
    panel = chrono_split(ramp, val_size=15, test_size=15)
    ctx, tgt = eval_windows(panel, 10, 5, "val")
    assert ctx.shape == (3, 1, 10) and tgt.shape == (3, 1, 5)
    # targets tile [70, 85) without overlap, newest last
    npt.assert_array_equal(tgt[-1][0], np.arange(80, 85))
    npt.assert_array_equal(tgt[0][0], np.arange(70, 75))
    npt.assert_array_equal(ctx[0][0], np.arange(60, 70))
    tctx, ttgt = eval_windows(panel, 10, 5, "test")
    npt.assert_array_equal(ttgt[-1][0], np.arange(95, 100))
    with pytest.raises(ConfigError):
        eval_windows(panel, 10, 40, "val")


def test_train_smoke_and_best_restore():
    model = tiny_model()
    panel = tiny_panel()
    cfg = TrainConfig(windows_batch=8, max_steps=30, val_check_every=10,
                      early_stop_patience=3, seeds=(1,))
    report = train(model, panel, cfg, seed=1)
    assert report.steps_run <= 30
    assert len(report.train_trace) == report.steps_run
    assert report.val_trace and np.isfinite(report.test_mae)
    assert np.isfinite(report.test_rmse)
    # restored parameters reproduce the recorded best validation MAE
    val_ctx, val_tgt = eval_windows(panel, 8, 4, "val")
    val_mae, _ = evaluate(model, val_ctx, val_tgt)
    npt.assert_allclose(val_mae, report.best_val_mae, atol=1e-12)
    assert report.best_step in [s for s, _ in report.val_trace]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_inf_validation_mae_still_records_each_check_once():
    # a finite cell near 1e308 in the validation split overflows every
    # validation MAE to inf; the first check must still be the best one
    panel = chrono_split(gen_leadlag(3, 300, lag=2, noise_sigma=0.1, seed=0),
                         val_size=60, test_size=60)
    panel.values[1, panel.train_end + 10] = 1e308
    cfg = TrainConfig(windows_batch=4, max_steps=6, val_check_every=3,
                      seeds=(1,))
    report = train(tiny_model(), panel, cfg, seed=1)
    steps = [s for s, _ in report.val_trace]
    assert steps == [3, 6]
    assert report.best_step == 3 and report.best_val_mae == np.inf


def test_early_stopping_restores_the_first_check_when_none_improve(
        monkeypatch):
    # every validation MAE is worse than the last, so the run stops once
    # ``early_stop_patience`` checks after the first have not improved
    states, maes = [], iter(range(1, 100))

    def rising(model, ctx, tgt, batch=64):
        states.append(model.state_arrays())
        mae = float(next(maes))
        return mae, mae

    monkeypatch.setattr(training, "evaluate", rising)
    cfg = TrainConfig(windows_batch=4, max_steps=100, val_check_every=3,
                      early_stop_patience=2, seeds=(1,))
    report = train(tiny_model(), tiny_panel(), cfg, seed=1)
    assert report.steps_run == 3 * (2 + 1)
    assert report.val_trace == [(3, 1.0), (6, 2.0), (9, 3.0)]
    assert (report.best_step, report.best_val_mae) == (3, 1.0)
    # the test pass, the last call, sees the first check's parameters
    assert len(states) == 4
    for name, arr in states[0].items():
        assert arr.tobytes() == states[-1][name].tobytes(), name
    assert any(arr.tobytes() != states[2][name].tobytes()
               for name, arr in states[0].items())


def test_a_run_with_no_check_before_its_last_step_checks_there(monkeypatch):
    stepped = []
    step = Adam.step

    def recorded(self, lr):
        step(self, lr)
        stepped.append([p.data.copy() for p in self.params])

    monkeypatch.setattr(Adam, "step", recorded)
    model = tiny_model()
    cfg = TrainConfig(windows_batch=4, max_steps=5, val_check_every=10,
                      seeds=(1,))
    report = train(model, tiny_panel(), cfg, seed=1)
    assert [s for s, _ in report.val_trace] == [5]
    assert report.best_step == report.steps_run == 5
    assert report.best_val_mae == report.val_trace[0][1]
    # the final parameters are the ones kept
    assert len(stepped) == 5
    for p, last in zip(model.parameters(), stepped[-1]):
        assert p.data.tobytes() == last.tobytes()


def test_train_determinism_same_seed():
    panel = tiny_panel()
    cfg = TrainConfig(windows_batch=8, max_steps=12, val_check_every=6,
                      seeds=(1,))
    r1 = train(tiny_model(), panel, cfg, seed=3)
    r2 = train(tiny_model(), panel, cfg, seed=3)
    assert r1.test_mae == r2.test_mae
    assert r1.train_trace == r2.train_trace
    r3 = train(tiny_model(), panel, cfg, seed=4)
    assert r3.train_trace != r1.train_trace


def test_pooled_steps_track_a_whole_batch_backward(monkeypatch):
    # the group losses and gradients, summed in group order, are the
    # whole-batch loss and gradient up to rounding
    monkeypatch.setattr(training, "MIN_GROUPS", 4)        # 4 groups of 2
    panel, steps = tiny_panel(), 24
    cfg = TrainConfig(windows_batch=8, max_steps=steps,
                      val_check_every=steps, seeds=(1,))
    pooled, whole = tiny_model(), tiny_model()
    report = train(pooled, panel, cfg, seed=3)
    rng, opt, losses = np.random.default_rng(3), Adam(whole.parameters()), []
    for step in range(steps):
        ctx, tgt = sample_windows(panel, 8, 4, 8, rng)
        loss = mae_loss(tgt, whole.forward(ctx, training=True))
        losses.append(loss.item())
        whole.zero_grad()
        loss.backward()
        opt.step(lr_at(step, cfg))
    got = np.array([loss for _, loss in report.train_trace])
    npt.assert_allclose(got, losses, rtol=1e-12, atol=0)
    assert got.tobytes() != np.array(losses).tobytes()   # really reordered
    for p, q in zip(pooled.parameters(), whole.parameters()):
        assert np.abs(p.data - q.data).max() <= 1e-12 * np.abs(q.data).max()


def test_dropout_masks_do_not_depend_on_the_pool(monkeypatch, shared_pool):
    # each group draws its masks from a generator of its own, spawned in
    # group order, so one worker or two give the same bits, run after run
    monkeypatch.setattr(training, "MIN_GROUPS", 4)
    panel = tiny_panel()
    cfg = TrainConfig(windows_batch=8, max_steps=6, val_check_every=3,
                      seeds=(1,))
    without = train(tiny_model(), panel, cfg, seed=5)
    runs = []
    for workers in (1, 2, 2):
        with shared_pool(workers):
            model = tiny_model(dropout=0.3)
            report = train(model, panel, cfg, seed=5)
        runs.append((report.train_trace, report.test_mae,
                     [p.data.tobytes() for p in model.parameters()]))
    assert runs[0] == runs[1] == runs[2]
    assert without.train_trace != runs[0][0]


def test_concurrent_train_calls_each_get_the_serial_run(monkeypatch):
    # train is a library call any thread may make: more trainers than cores
    # put their groups on the shared pool at once, with thread switches
    # forced often; a walk that wrote a shared parameter would change some
    # run's bits
    monkeypatch.setattr(training, "MIN_GROUPS", 4)
    panel = tiny_panel()
    cfg = TrainConfig(windows_batch=8, max_steps=4, val_check_every=2,
                      seeds=(1,))

    def run(seed):
        model = tiny_model(dropout=0.2)
        report = train(model, panel, cfg, seed=seed)
        return (report.train_trace, [p.data.tobytes()
                                     for p in model.parameters()])

    want = [run(seed) for seed in (1, 2, 3)]
    got = [None] * 3

    def store(i):
        got[i] = run(i + 1)

    threads = [threading.Thread(target=store, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_window_in_a_later_group_ends_the_run_as_one_group_does(
        monkeypatch):
    def poisoned(where):
        def sample(*args):
            ctx, tgt = sample_windows(*args)
            for arr, window in where:
                (ctx, tgt)[arr][window, 1, 2] = np.nan
            return ctx, tgt
        return sample

    errors = []
    # one group of 1, then two groups of 2 with the NaN in the second
    for batch in (1, 4):
        cfg = TrainConfig(windows_batch=batch, max_steps=3, val_check_every=3)
        monkeypatch.setattr(training, "sample_windows",
                            poisoned([(0, batch - 1)]))
        with pytest.raises(TrainingDivergedError) as err:
            train(tiny_model(), tiny_panel(), cfg, seed=1)
        errors.append((err.value.step, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0] == (0, "training diverged at step 0: non-finite values "
                            "produced by op 'standardize'")
    # both groups fail, the first in its loss: the first group's op is named
    monkeypatch.setattr(training, "sample_windows",
                        poisoned([(1, 0), (0, 3)]))
    with pytest.raises(TrainingDivergedError, match="'sub'"):
        train(tiny_model(), tiny_panel(), cfg, seed=1)


def test_divergence_aborts_with_step_index():
    model = tiny_model()
    bad = model.parameters()[0]
    bad.data[...] = np.nan
    panel = tiny_panel()
    cfg = TrainConfig(windows_batch=4, max_steps=5, val_check_every=5)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, panel, cfg, seed=1)
    assert err.value.step == 0
    assert str(err.value) == ("training diverged at step 0: non-finite "
                              "values produced by op 'matmul'")


def test_nan_written_by_the_last_step_is_caught_by_its_validation(
        monkeypatch):
    # at the last step, only the validation forward sees the NaN parameter;
    # its metrics must not come from an earlier best state
    model = tiny_model()
    step = Adam.step

    def poisoned(self, lr):
        step(self, lr)
        if self.t == 4:
            self.params[0].data[0] = np.nan

    monkeypatch.setattr(Adam, "step", poisoned)
    cfg = TrainConfig(windows_batch=4, max_steps=4, val_check_every=2)
    with pytest.raises(TrainingDivergedError, match="'matmul'") as err:
        train(model, tiny_panel(), cfg, seed=1)
    assert err.value.step == 3


def test_a_nan_at_the_last_step_of_a_run_without_checks_is_a_divergence(
        monkeypatch):
    # the check that a run makes at its last step, having made none
    # before, ends the run like any other check that sees a NaN
    step = Adam.step

    def poisoned(self, lr):
        step(self, lr)
        if self.t == 3:
            self.params[0].data[0] = np.nan

    monkeypatch.setattr(Adam, "step", poisoned)
    cfg = TrainConfig(windows_batch=4, max_steps=3, val_check_every=10)
    with pytest.raises(TrainingDivergedError, match="'matmul'") as err:
        train(tiny_model(), tiny_panel(), cfg, seed=1)
    assert err.value.step == 2


def test_a_train_step_checks_its_forward_once_and_its_loss_per_op(
        monkeypatch):
    cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                      n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                      mica=MicaConfig(n_heads=4, d_k=16, d_v=16))
    model = ForecastModel(cfg, 7, seed=1)
    panel = chrono_split(gen_leadlag(7, 400, lag=2, noise_sigma=0.1, seed=0),
                         val_size=40, test_size=40)
    counted, per_step = [], []
    all_finite = tensor._all_finite
    monkeypatch.setattr(tensor, "_all_finite",
                        lambda arr: counted.append(1) or all_finite(arr))
    sample = training.sample_windows
    monkeypatch.setattr(training, "sample_windows",
                        lambda *a: counted.clear() or sample(*a))
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, lr: per_step.append(
        len(counted)) or step(self, lr))
    # two groups of one window
    train(model, panel, TrainConfig(windows_batch=2, max_steps=2,
                                    val_check_every=5), seed=0)
    # per group, the forward as in test_backbone (per layer,
    # local_attention's q, k, v, global_memory's k, v, global_attention's
    # q, M, z and sigmoid's beta; then the forecast), then per op the
    # loss's sub, abs, sum and mul and its scaling by the group's share
    assert per_step == [2 * (2 * (3 + 2 + 3 + 1) + 1 + 5)] * 2


def test_train_frees_each_step_before_the_next_forward(monkeypatch):
    # a group's graph holds its activations; no graph of a step may still
    # be alive when the next step's groups forward
    model, panel = tiny_model(), tiny_panel()
    forward, forecasts, alive = model.forward, [], []
    steps = []
    sample = training.sample_windows
    monkeypatch.setattr(training, "sample_windows",
                        lambda *a: steps.append(1) or sample(*a))

    def watched(*args, **kwargs):
        step = len(steps)
        if kwargs.get("training"):
            alive.append([ref() is not None for s, ref in forecasts
                          if s < step])
        out = forward(*args, **kwargs)
        if kwargs.get("training"):
            forecasts.append((step, weakref.ref(out.data)))
        return out

    model.forward = watched
    # two groups of two windows
    train(model, panel, TrainConfig(windows_batch=4, max_steps=4,
                                    val_check_every=2, seeds=(0,)), seed=0)
    assert sorted(alive) == sorted([[False] * 2 * n for n in range(4)] * 2)


def quickstart_model(mica: dict | None, concat: bool = False, **over):
    """The README quick-start model; ``mica`` holds MicaConfig fields, or
    is None for the local-only backbone."""
    heads = dict(n_heads=4, d_k=16, d_v=16)
    cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                      ff_hidden=128, **heads, **over,
                      mica=None if mica is None else MicaConfig(**heads,
                                                                **mica))
    return ForecastModel(cfg, 7, seed=1, concat=concat)


def quickstart_step():
    """The quick-start model and the loss of one B=64 training forward."""
    model = quickstart_model({})
    rng = np.random.default_rng(0)
    ctx, tgt = rng.normal(size=(64, 7, 96)), rng.normal(size=(64, 7, 24))
    return model, mae_loss(tgt, model.forward(ctx, training=True, rng=rng))


def test_after_backward_only_the_parameters_hold_gradients():
    model, loss = quickstart_step()
    seen, stack, interior = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                interior.append(node)
            stack.extend(node._parents)
    loss.backward()
    assert len(interior) > 50
    assert all(node.grad is None for node in interior)
    grads = [p.grad for p in model.parameters()]
    for i, g in enumerate(grads):
        assert g.flags.writeable and g.flags.owndata
        assert not any(np.shares_memory(g, o) for o in grads[i + 1:])


def test_quick_start_backward_allocates_under_32_mib():
    # each interior gradient is dropped once its closure has run; kept to
    # the end of backward, they peaked at 96.5 MiB
    _, loss = quickstart_step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 32 * 2 ** 20, (peak - before) / 2 ** 20


PREDICT_MODELS = {
    **{gate: ({"gate": gate}, {}) for gate in GATE_KINDS},
    "static": ({"weight_mode": "static"}, {}),
    "dynamic": ({"gate": "mlp_query", "weight_mode": "dynamic"}, {}),
    "exclusion": ({"exclusion": True}, {}),
    "multivariate": ({}, {"head_kind": "multivariate"}),
    "concat": (None, {"concat": True}),
}


def forward_sizes(model, monkeypatch) -> list:
    """Record the window count of every forward of ``model``."""
    sizes, forward = [], model.forward
    monkeypatch.setattr(model, "forward",
                        lambda y: sizes.append(len(y)) or forward(y))
    return sizes


@pytest.mark.parametrize("name", PREDICT_MODELS)
def test_predict_in_window_groups_is_one_whole_batch_forward(
        name, monkeypatch):
    mica_kw, over = PREDICT_MODELS[name]
    model = quickstart_model(mica_kw, **over)
    ctx = np.random.default_rng(5).normal(size=(30, 7, 96)) * 3.0 + 1.0
    with no_grad():
        want = model.forward(ctx).data
    sizes = forward_sizes(model, monkeypatch)
    got = predict(model, ctx)
    group = windows_per_forward(model, 64)           # 12, 8 for mlp_query
    # pool workers may run the groups in any order
    assert sorted(sizes) == sorted([group] * (30 // group) + [30 % group])
    assert got.tobytes() == want.tobytes()


def criterion8_model() -> ForecastModel:
    """Criterion 8's mica model: C=8, L=16, H=8, two patches."""
    return ForecastModel(ModelConfig(
        horizon=8, input_size=16, n_layers=2, d_model=64, n_heads=4,
        ff_hidden=128, d_k=16, d_v=16, patch_len=8, stride=8,
        mica=MicaConfig(n_heads=4, d_k=16, d_v=16)), 8, seed=1)


def test_windows_per_forward_fit_the_cache_budget(monkeypatch, shared_pool):
    model = quickstart_model({})
    # criterion 8's model (C=8, P=2) fits 64 windows in the budget
    c8 = criterion8_model()
    sizes = forward_sizes(model, monkeypatch)
    for workers in (1, 2, 4):
        with shared_pool(workers):
            assert windows_per_forward(model, 64) == 12
            # a batch that fits one cache group is split in two, whatever
            # the pool's size
            assert windows_per_forward(model, 5) == 3
            assert windows_per_forward(model, 1) == 1
            assert windows_per_forward(c8, 32) == 16
            sizes.clear()
            predict(model, np.zeros((11, 7, 96)) + np.arange(96), batch=5)
            assert sorted(sizes) == [2, 3, 3, 3]
    # criterion 6's THIN model at C=512 takes one window per forward
    thin = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=32,
                       n_heads=2, ff_hidden=64, d_k=16, d_v=16,
                       mica=MicaConfig(n_heads=2, d_k=16, d_v=16))
    assert windows_per_forward(ForecastModel(thin, 512), 64) == 1
    # an mlp gate's widest layer counts: 4 heads x 3 x 16 = 192 inputs
    assert windows_per_forward(quickstart_model({"gate": "mlp_query"}),
                               64) == 8
    with pytest.raises(ConfigError, match="batch"):
        windows_per_forward(model, 0)


CPU_COUNT_RUN = """
import hashlib, os, sys
n, shape = int(sys.argv[1]), sys.argv[2]
# the host this interpreter sees has n CPUs
os.sched_getaffinity = lambda pid: set(range(n))
os.cpu_count = lambda: n
from mica import training
from mica.attention import MicaConfig
from mica.backbone import ForecastModel, ModelConfig
from mica.data import chrono_split, gen_leadlag
heads = dict(n_heads=4, d_k=16, d_v=16)
over, channels, batch = {
    "criterion8": (dict(horizon=8, input_size=16, patch_len=8, stride=8),
                   8, 32),
    "quickstart": (dict(horizon=24, input_size=96), 7, 64)}[shape]
model = ForecastModel(ModelConfig(n_layers=2, d_model=64, ff_hidden=128,
                                  mica=MicaConfig(**heads), **heads, **over),
                      channels, seed=1)
split = 4 * over["horizon"]
panel = chrono_split(gen_leadlag(channels, 600, lag=4, noise_sigma=0.1,
                                 seed=100), val_size=split, test_size=split)
report = training.train(model, panel, training.TrainConfig(
    windows_batch=batch, max_steps=3, val_check_every=3, seeds=(1,)), seed=1)
bits = hashlib.sha1(repr((report.train_trace, report.test_mae)).encode())
for p in model.parameters():
    bits.update(p.data.tobytes())
print(training._POOL._max_workers, bits.hexdigest())
"""


@pytest.mark.parametrize("shape, cpus", [
    ("criterion8", (1, 2, 4)), ("quickstart", (2, 8))],
    ids=["criterion8", "quickstart"])
def test_training_bits_do_not_depend_on_the_cpu_count(shape, cpus):
    # group sizes set the order a step sums its gradients in, so they
    # follow from the model and the batch alone: fresh interpreters that
    # see 1, 2, 4 or 8 CPUs size their pools to match and train the same
    # bits (criterion 8's B=32 at 1, 2 or 4 CPUs would otherwise run
    # groups of 32, 16 or 8, and the quick start's 12 would become 8)
    env = dict(os.environ, PYTHONPATH=str(Path(mica.__file__).parents[1]))
    runs = [subprocess.run(
        [sys.executable, "-c", CPU_COUNT_RUN, str(n), shape], env=env,
        capture_output=True, text=True, check=True).stdout.split()
        for n in cpus]
    assert [int(workers) for workers, _ in runs] == list(cpus)
    assert len({bits for _, bits in runs}) == 1


def test_a_callers_tape_flags_reach_every_pooled_group(shared_pool):
    def flags(_):
        taped = (Tensor(1.0, requires_grad=True) * 2.0).requires_grad
        return taped, tensor.grad_enabled.get(), tensor.deferred.get()

    def seen():
        return set(training._pooled(flags, range(8)))

    def seen_in_a_checked_pass():
        got = []
        # the pass's result is finite, so it runs once
        tensor.checked_once(lambda: got.append(seen()) or Tensor(1.0))
        return got

    with shared_pool(2):
        assert seen() == {(True, True, False)}
        assert seen_in_a_checked_pass() == [{(True, True, True)}]
        with no_grad():
            assert seen() == {(False, False, False)}
            assert seen_in_a_checked_pass() == [{(False, False, True)}]
        assert seen() == {(True, True, False)}


def test_a_pooled_task_leaks_no_flag_to_its_caller_or_the_next_task(
        shared_pool):
    # on one worker every task runs on the same thread; each still starts
    # from its caller's flags, and what it sets dies with its context
    def flip(_):
        flags = tensor.grad_enabled.get(), tensor.deferred.get()
        tensor.grad_enabled.set(not flags[0])      # never reset
        tensor.deferred.set(not flags[1])
        return flags

    with shared_pool(1) as pool:
        assert list(training._pooled(flip, range(3))) == [(True, False)] * 3
        with no_grad():
            assert list(training._pooled(flip, range(3))) == [
                (False, False)] * 3
        # nor does the worker thread's own context change
        assert pool.submit(flip, 0).result() == (True, False)
    assert tensor.grad_enabled.get() and not tensor.deferred.get()


def test_train_inside_no_grad_is_refused_and_changes_nothing():
    # its groups would record no tape, and Adam would skip every parameter
    model = tiny_model()
    before = [p.data.copy() for p in model.parameters()]
    cfg = TrainConfig(windows_batch=4, max_steps=3, val_check_every=3)
    with no_grad(), pytest.raises(RuntimeError, match="inside no_grad"):
        train(model, tiny_panel(), cfg, seed=1)
    assert all(np.array_equal(p.data, b)
               for p, b in zip(model.parameters(), before))
    assert tensor.grad_enabled.get()


def test_concurrent_predict_calls_each_get_the_serial_forecast():
    # predict is a library call any thread may make: more callers than
    # cores share the pool, with thread switches forced often
    models = [quickstart_model({}), quickstart_model({"gate": "mlp_query"}),
              quickstart_model(None)]
    ctx = np.random.default_rng(7).normal(size=(40, 7, 96))
    with no_grad():
        want = [m.forward(ctx).data.tobytes() for m in models]
    got = [[] for _ in models]

    def repeat(i):
        for _ in range(3):
            got[i].append(predict(models[i], ctx).tobytes())

    threads = [threading.Thread(target=repeat, args=(i,))
               for i in range(len(models))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def test_pool_workers_record_no_tape(monkeypatch):
    model = quickstart_model({})
    forward, taped = model.forward, []

    def watched(y):
        out = forward(y)
        taped.append((threading.current_thread().name, out.requires_grad))
        return out

    monkeypatch.setattr(model, "forward", watched)
    predict(model, np.zeros((30, 7, 96)) + np.arange(96))
    assert len(taped) == 3
    assert all(thread != threading.current_thread().name and not grad
               for thread, grad in taped)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_window_in_a_later_group_raises_the_whole_batch_error():
    model = quickstart_model({})
    ctx = np.random.default_rng(6).normal(size=(30, 7, 96))
    ctx[15, 3, 40] = np.nan                          # in the second group
    with no_grad(), pytest.raises(NonFiniteError) as whole:
        model.forward(ctx)
    with pytest.raises(NonFiniteError) as grouped:
        predict(model, ctx)
    assert str(grouped.value) == str(whole.value)
    assert "'standardize'" in str(grouped.value)


@pytest.mark.parametrize("build, error, message", [
    (lambda: rmse(np.zeros(3), np.zeros(4)), ShapeError,
     "metric shapes differ: (3,) vs (4,)"),
    (lambda: mae_loss(np.zeros((2, 3)), Tensor(np.zeros((3, 2)))), ShapeError,
     "loss shapes differ: (2, 3) vs (3, 2)"),
    (lambda: eval_windows(tiny_panel(), 8, 4, "train"), ConfigError,
     "unknown split 'train'"),
], ids=["rmse_shapes", "loss_shapes", "split"])
def test_rejected_training_inputs_say_why(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_train_config_validation():
    for lr0 in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=re.escape(
                f"lr0 must be positive and finite, got {lr0}")):
            TrainConfig(lr0=lr0)
    for decay in (0.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match=re.escape(
                f"lr_decay must be in (0, 1], got {decay}")):
            TrainConfig(lr_decay=decay)
    with pytest.raises(ConfigError):
        TrainConfig(seeds=())
    with pytest.raises(ConfigError):
        TrainConfig(windows_batch=0)
    with pytest.raises(ConfigError, match=r"repeated: \[1, 3\]"):
        TrainConfig(seeds=(3, 1, 2, 1, 3))
    with pytest.raises(ConfigError, match=r"non-negative; got \[-2\]"):
        TrainConfig(seeds=(0, -2))


QUICK_START_STEPS = """
import resource
import numpy as np
from mica import (ForecastModel, MicaConfig, ModelConfig, PanelDataset,
                  chrono_split, tensor)
from mica.training import Adam, mae_loss, sample_windows

values = np.random.default_rng(0).normal(size=(7, 4000))
panel = chrono_split(PanelDataset(values, [f"ch{i}" for i in range(7)]),
                     val_size=400, test_size=400)
cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                  n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                  mica=MicaConfig(n_heads=4, d_k=16, d_v=16))
model = ForecastModel(cfg, 7, seed=1)
opt, rng = Adam(model.parameters()), np.random.default_rng(1)


def step():
    ctx, tgt = sample_windows(panel, 96, 24, 64, rng)
    loss = mae_loss(tgt, model.forward(ctx, training=True, rng=rng))
    model.zero_grad()
    loss.backward()
    opt.step(1e-3)


faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(tensor.HEAP_PAGES_KEPT, *faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_quick_start_steps_keep_their_heap_pages():
    # a fresh interpreter, as a user's first run; each step frees its
    # whole graph, and after 2 warm-up steps the next one reuses those
    # pages instead of faulting them in again (about 43,000 minor faults
    # per step with glibc's default thresholds)
    env = dict(os.environ, PYTHONPATH=str(Path(mica.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", QUICK_START_STEPS], env=env,
                         capture_output=True, text=True, check=True).stdout
    kept, *faults = out.split()
    assert kept == "True"
    assert max(int(f) for f in faults[2:]) < 1000, faults
