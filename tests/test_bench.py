import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mica
from mica import bench
from mica.attention import MicaConfig
from mica.backbone import ForecastModel, ModelConfig, patch_count
from mica.bench import (FlopReport, LatencyStats, BenchRow, blas_threads,
                        check_fit_sizes, count_flops, count_params,
                        fit_scaling, measure_latency, one_blas_thread,
                        sweep_channels, sweep_lengths)
from mica.tensor import no_grad


def cfg_with(gate="shared_beta", weight_mode="uniform", exclusion=False,
             head_kind="shared_linear", mica=True, d_k=4, d_v=4, n_layers=2):
    m = MicaConfig(n_heads=2, d_k=d_k, d_v=d_v, gate=gate, mlp_hidden=8,
                   mlp_layers=3, weight_mode=weight_mode,
                   exclusion=exclusion) if mica else None
    return ModelConfig(horizon=4, input_size=16, n_layers=n_layers, d_model=8,
                       n_heads=2, ff_hidden=16, d_k=d_k, d_v=d_v, patch_len=4,
                       stride=4, head_kind=head_kind, mica=m)


THIN = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=32,
                   n_heads=2, ff_hidden=64, d_k=16, d_v=16,
                   mica=MicaConfig(n_heads=2, d_k=16, d_v=16))


# -- parameter accounting ------------------------------------------------------

@pytest.mark.parametrize("kwargs,mech", [
    (dict(mica=False), "baseline"),
    (dict(), "mica"),
    (dict(gate="layerwise_beta"), "mica"),
    (dict(gate="channelwise_beta"), "mica"),
    (dict(gate="layerwise_channelwise_beta"), "mica"),
    (dict(gate="mlp"), "mica"),
    (dict(gate="mlp_query"), "mica"),
    (dict(weight_mode="static"), "mica"),
    (dict(weight_mode="dynamic"), "mica"),
    (dict(head_kind="multivariate"), "mica"),
    (dict(gate="mlp", exclusion=True), "mica"),
    (dict(mica=False), "concat"),
    (dict(mica=False, head_kind="multivariate"), "concat"),
    # value width apart from key width, both ways: W_v and W_out are
    # n_heads * d_v wide, and an mlp_query gate reads 2 * d_v + d_k
    (dict(mica=False, d_k=8, d_v=4), "baseline"),
    (dict(mica=False, d_k=4, d_v=8), "concat"),
    (dict(d_k=8, d_v=4), "mica"),
    (dict(d_k=4, d_v=8, gate="channelwise_beta"), "mica"),
    (dict(d_k=8, d_v=4, gate="mlp_query"), "mica"),
    (dict(d_k=4, d_v=8, gate="mlp_query"), "mica"),
    (dict(d_k=8, d_v=4, weight_mode="static"), "mica"),
    (dict(d_k=4, d_v=8, weight_mode="dynamic", exclusion=True), "mica"),
    (dict(d_k=8, d_v=4, head_kind="multivariate"), "mica"),
    (dict(d_k=4, d_v=8, head_kind="multivariate", mica=False), "baseline"),
    # no layer builds no gate, shared or not
    (dict(n_layers=0), "mica"),
    (dict(n_layers=0, gate="channelwise_beta"), "mica"),
])
def test_count_params_matches_instantiated_model(kwargs, mech):
    cfg = cfg_with(**kwargs)
    for c in (2, 5):
        model = ForecastModel(cfg, n_channels=c, seed=0,
                              concat=mech == "concat")
        assert count_params(cfg, c, mech) == model.n_params(), (kwargs, c)


def test_count_params_rejects_mica_without_mica_settings():
    with pytest.raises(ValueError, match="cfg.mica"):
        count_params(cfg_with(mica=False), 4, "mica")
    with pytest.raises(ValueError, match="unknown"):
        count_params(cfg_with(), 4, "nope")


def test_concat_params_equal_baseline():
    cfg = cfg_with(mica=False)
    assert count_params(cfg, 7, "concat") == count_params(cfg, 7, "baseline")


# -- flop accounting --------------------------------------------------------------

def test_flop_report_parts_and_zeroes():
    cfg = cfg_with()
    rep = count_flops(cfg, 4, "mica")
    assert rep.total_flops == (rep.local_flops + rep.global_flops +
                               rep.gate_flops + rep.backbone_flops)
    assert min(rep.local_flops, rep.global_flops, rep.gate_flops,
               rep.backbone_flops) > 0
    base = count_flops(cfg, 4, "baseline")
    assert base.global_flops == 0 and base.gate_flops == 0
    concat = count_flops(cfg, 4, "concat")
    assert concat.global_flops == 0 and concat.gate_flops == 0
    assert concat.local_flops > base.local_flops


@pytest.mark.parametrize("mech", ["baseline", "mica"])
@pytest.mark.parametrize("d_k,d_v", [(8, 4), (4, 8), (8, 12)])
def test_value_width_costs_the_value_and_output_projections(mech, d_k, d_v):
    # W_v (d_model -> N*d_v) and W_out (N*d_v -> d_model) on every token of
    # every layer: (2*d*N + N) + 2*N*d FLOPs per token and unit of d_v
    c = 3
    cfg, same = cfg_with(d_k=d_k, d_v=d_v), cfg_with(d_k=d_k, d_v=d_k)
    p = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)
    d, n = cfg.d_model, cfg.n_heads
    grown = (count_flops(cfg, c, mech).backbone_flops
             - count_flops(same, c, mech).backbone_flops)
    assert grown == cfg.n_layers * c * p * (4 * d * n + n) * (d_v - d_k)


def test_channel_weights_and_exclusion_flops():
    # each increment of the global path over uniform weights, no exclusion
    c, dk, dv = 5, 4, 8
    uniform = cfg_with(d_k=dk, d_v=dv)
    lyr, n = uniform.n_layers, uniform.n_heads
    p = patch_count(uniform.input_size, uniform.patch_len, uniform.stride)
    base = count_flops(uniform, c, "mica").global_flops

    def extra(**kw):
        return count_flops(cfg_with(d_k=dk, d_v=dv, **kw), c,
                           "mica").global_flops - base

    apply_weights = lyr * c * n * (dk * dv + dk)
    assert extra(weight_mode="static") == apply_weights
    assert extra(exclusion=True) == apply_weights
    # pool the queries, project them to one weight, apply it
    assert extra(weight_mode="dynamic") == lyr * c * n * (
        p * dk + 2 * dk + 1 + dk * dv + dk)


def test_mica_flops_exactly_affine_in_channels():
    cfg = cfg_with()
    t = {c: count_flops(cfg, c, "mica").total_flops for c in (1, 3, 8, 64)}
    slope = (t[3] - t[1]) // 2
    assert t[3] - t[1] == 2 * slope
    assert t[8] == t[1] + 7 * slope
    assert t[64] == t[1] + 63 * slope


def test_concat_flops_superlinear():
    cfg = cfg_with()
    t = {c: count_flops(cfg, c, "concat").total_flops for c in (4, 8, 16)}
    assert t[16] - t[8] > 2 * (t[8] - t[4])


def test_flop_exponents_thin_config():
    grid = [8, 16, 32, 64, 128, 256, 512]
    mica = fit_scaling(grid, [count_flops(THIN, c, "mica").total_flops
                              for c in grid])
    concat = fit_scaling(grid, [count_flops(THIN, c, "concat").total_flops
                                for c in grid])
    assert mica.exponent <= 1.05
    assert concat.exponent >= 1.7


QUICKSTART = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                         n_heads=4, ff_hidden=128, d_k=16, d_v=16,
                         mica=MicaConfig(n_heads=4, d_k=16, d_v=16))
LENGTHS = [96, 192, 384, 768, 1536]


def test_context_length_exponents_of_the_quick_start_model():
    # the paper's context-length claim, by operation counts alone: the
    # global path is linear in L and the local path quadratic in patches
    def exponent(c, mech, part):
        rows = sweep_lengths(QUICKSTART, LENGTHS, (mech,), n_channels=c)
        return fit_scaling(LENGTHS, [getattr(r.flops, part)
                                     for r in rows]).exponent

    assert exponent(7, "mica", "global_flops") <= 1.05
    for mech in ("baseline", "mica", "concat"):
        assert exponent(7, mech, "local_flops") == pytest.approx(2.0, abs=1e-9)
    assert (exponent(64, "mica", "total_flops")
            <= exponent(64, "concat", "total_flops") - 0.5)


def test_count_flops_validation():
    with pytest.raises(ValueError):
        count_flops(cfg_with(), 4, "nope")
    with pytest.raises(ValueError):
        count_flops(cfg_with(mica=False), 4, "mica")


@pytest.mark.parametrize("count", [count_flops, count_params])
@pytest.mark.parametrize("mech", ["baseline", "mica", "concat"])
def test_costs_reject_channel_counts_below_one(count, mech):
    for c in (0, -3):
        with pytest.raises(ValueError, match="n_channels must be positive"):
            count(cfg_with(), c, mech)


# -- quadratic reference -------------------------------------------------------------

def test_concat_forward_deterministic_per_seed():
    cfg = cfg_with(mica=False)
    y = np.random.default_rng(1).normal(size=(1, 2, 16))

    def forecast(seed):
        with no_grad():
            return ForecastModel(cfg, 2, seed=seed, concat=True)(y).data

    a, b, c = forecast(3), forecast(3), forecast(4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("mech", ["baseline", "mica", "concat"])
def test_timed_forward_returns_the_forecast(mech):
    # the benchmark checks the values of what the timed callable returns
    run = bench._forward_fn(cfg_with(), 3, mech, seed=2)
    out = run()
    assert out.shape == (1, 3, 4) and np.all(np.isfinite(out))
    npt.assert_array_equal(run(), out)


# -- timing ---------------------------------------------------------------------------

def test_single_thread_guard_passes_here():
    previous = blas_threads()
    seen = []
    measure_latency(lambda: seen.append(blas_threads()), repeats=2, warmup=0)
    assert seen == [1, 1]
    assert blas_threads() == previous


class FakeBlas:
    """Stand-in getter/setter pair for the OpenBLAS probe."""

    def __init__(self, threads):
        self.threads = threads

    def controls(self):
        return (lambda: self.threads,
                lambda n: setattr(self, "threads", n))


def test_guard_refuses_two_threads(monkeypatch):
    # a pool at 2 threads times nothing
    fake = FakeBlas(2)
    stuck = (fake.controls()[0], lambda n: None)
    monkeypatch.setattr(bench, "_openblas", lambda: stuck)
    calls = []
    with pytest.raises(RuntimeError, match="reports 2 threads"):
        measure_latency(lambda: calls.append(1), repeats=1, warmup=0)
    assert calls == []


def test_guard_refuses_without_openblas(monkeypatch):
    monkeypatch.setattr(bench, "_openblas", lambda: None)
    with pytest.raises(RuntimeError, match="no known BLAS"):
        measure_latency(lambda: None, repeats=1, warmup=0)


def test_measure_latency_refuses_a_wider_pool_and_leaves_it(monkeypatch):
    # the pool is checked, never resized: at 2 threads nothing runs and
    # the pool stays at 2
    fake = FakeBlas(2)
    monkeypatch.setattr(bench, "_openblas", fake.controls)
    calls = []
    with pytest.raises(RuntimeError, match="reports 2 threads"):
        measure_latency(lambda: calls.append(1), repeats=3, warmup=1)
    assert calls == [] and fake.threads == 2
    # at 1 thread, an error raised in fn propagates
    fake.threads = 1
    with pytest.raises(ZeroDivisionError):
        measure_latency(lambda: 1 / 0, repeats=1, warmup=0)
    assert fake.threads == 1


def test_one_blas_thread_pins_a_known_pool(monkeypatch):
    fake = FakeBlas(4)
    monkeypatch.setattr(bench, "_openblas", fake.controls)
    assert one_blas_thread() and fake.threads == 1
    # a pool that does not take the size is reported, not raised on
    stuck = (FakeBlas(2).controls()[0], lambda n: None)
    monkeypatch.setattr(bench, "_openblas", lambda: stuck)
    assert not one_blas_thread()
    # a BLAS with no known control is left as it is
    monkeypatch.setattr(bench, "_openblas", lambda: None)
    assert not one_blas_thread()


def test_importing_mica_gives_blas_one_thread():
    # where the pool runs, each BLAS call gets one thread, whatever the
    # environment asked for
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(mica.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "from mica import bench, training; "
         "known = bench._openblas() is not None; "
         "print(known, training.BLAS_ONE_THREAD, "
         "known and bench.blas_threads())"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out in (["True", "True", "1"], ["False", "False", "False"])


def test_measure_latency_restores_real_pool():
    before = blas_threads()
    measure_latency(lambda: None, repeats=2, warmup=0)
    assert blas_threads() == before


def test_measure_latency_counts_and_positivity():
    calls = []
    stats = measure_latency(lambda: calls.append(1), repeats=7, warmup=2)
    assert isinstance(stats, LatencyStats)
    assert len(calls) == 9
    assert stats.repeats == 7
    assert stats.mean_ms >= 0
    with pytest.raises(ValueError):
        measure_latency(lambda: None, repeats=0)


# -- scaling fits ------------------------------------------------------------------------

def test_fit_scaling_recovers_exact_powers():
    sizes = [1, 2, 4, 8, 16]
    quad = fit_scaling(sizes, [3.0 * s ** 2 for s in sizes])
    npt.assert_allclose(quad.exponent, 2.0, atol=1e-12)
    npt.assert_allclose(quad.r2, 1.0, atol=1e-12)
    lin = fit_scaling(sizes, [5.0 * s for s in sizes])
    npt.assert_allclose(lin.exponent, 1.0, atol=1e-12)


@pytest.mark.parametrize("sizes", [(16, 8, 32, 64), (8, 16), (0, 8, 16, 32)])
def test_fit_sizes_are_checked_by_one_function(sizes):
    with pytest.raises(ValueError) as direct:
        check_fit_sizes(sizes)
    with pytest.raises(ValueError) as fitted:
        fit_scaling(sizes, [1.0] * len(sizes))
    assert str(fitted.value) == str(direct.value)
    checked = check_fit_sizes((8, 16, 32, 64))
    assert checked.dtype == np.float64 and checked.tolist() == [8, 16, 32, 64]


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 2, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3, 4], [1, -2, 3, 4])
    for cost in (np.nan, np.inf):
        with pytest.raises(ValueError, match="costs must be positive and "
                                             "finite"):
            fit_scaling([1, 2, 3, 4], [1, cost, 3, 4])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_scaling([1, 2, np.nan, 4], [1, 2, 3, 4])
    # an infinite size used to pass the check and fail inside LAPACK
    with pytest.raises(ValueError, match="sweep sizes must be positive and "
                                         "finite"):
        fit_scaling([1, 2, 3, np.inf], [1, 2, 3, 4])


# -- sweeps ------------------------------------------------------------------------------

def test_sweep_channels_rows():
    rows = sweep_channels(cfg_with(), [2, 4], mechanisms=("baseline", "mica"))
    assert len(rows) == 4
    assert {r.mechanism for r in rows} == {"baseline", "mica"}
    assert all(r.latency is None for r in rows)
    assert all(r.params > 0 and r.flops.total_flops > 0 for r in rows)


def test_sweep_lengths_rows():
    rows = sweep_lengths(cfg_with(), [16, 32], mechanisms=("mica",),
                         n_channels=3)
    assert [r.size for r in rows] == [16, 32]
    assert rows[1].flops.total_flops > rows[0].flops.total_flops


@pytest.mark.parametrize("sweep", ["C", "L"])
@pytest.mark.parametrize("kwargs,mechanisms", [
    (dict(mica=False), ("baseline", "concat", "mica")),
    (dict(), ("baseline", "mica", "nope")),
])
def test_sweeps_check_every_mechanism_before_timing(monkeypatch, sweep,
                                                    kwargs, mechanisms):
    timed = []
    monkeypatch.setattr(bench, "measure_latency",
                        lambda fn, **kw: timed.append(fn))
    cfg = cfg_with(**kwargs)
    with pytest.raises(ValueError):
        if sweep == "C":
            sweep_channels(cfg, [2, 4], mechanisms, measure=True)
        else:
            sweep_lengths(cfg, [16, 32], mechanisms, n_channels=2,
                          measure=True)
    assert timed == []


def test_length_sweep_checks_every_length_before_timing(monkeypatch):
    timed = []
    monkeypatch.setattr(bench, "measure_latency",
                        lambda fn, **kw: timed.append(fn))
    with pytest.raises(ValueError, match="patch_len 4 exceeds input_size 2"):
        sweep_lengths(cfg_with(), [16, 2], ("baseline",), n_channels=2,
                      measure=True)
    assert timed == []


def test_sweep_with_latency_smoke():
    rows = sweep_channels(cfg_with(), [2], mechanisms=("mica",),
                          measure=True, repeats=2, warmup=1)
    assert rows[0].latency is not None
    assert rows[0].latency.mean_ms > 0
