import math
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from mica import tensor
from mica.attention import GATE_KINDS, WEIGHT_MODES, MicaConfig
from mica.backbone import (_MAGIC, ForecastModel, IntegrityError,
                           ModelConfig, config_digest, destandardize,
                           load_params, patch_count, patch_indices, patchify,
                           save_params, sincos_table, standardize)
from mica.tensor import (NonFiniteError, ShapeError, Tensor, gather_last,
                         no_grad)


def small_cfg(**over):
    base = dict(horizon=4, input_size=16, n_layers=2, d_model=8, n_heads=2,
                ff_hidden=16, d_k=4, d_v=4, patch_len=4, stride=4)
    base.update(over)
    return ModelConfig(**base)


def mica_cfg(gate="shared_beta", **over):
    return MicaConfig(n_heads=2, d_k=4, d_v=4, gate=gate, mlp_hidden=8, **over)


# -- patching -----------------------------------------------------------------

def test_patch_count_known_values():
    assert patch_count(96, 8, 8) == 12
    assert patch_count(10, 8, 8) == 2  # padded from 10 to 16
    assert patch_count(8, 8, 8) == 1
    assert patch_count(17, 8, 8) == 3
    with pytest.raises(ShapeError):
        patch_count(5, 8, 8)


def test_patch_indices_replicate_last_value():
    idx = patch_indices(10, 8, 8)
    npt.assert_array_equal(idx[0], np.arange(8))
    npt.assert_array_equal(idx[1], [8, 9, 9, 9, 9, 9, 9, 9])


def test_patchify_tensor_and_numpy_agree():
    # the model patchifies an ndarray; the tape's gather_last agrees with it
    rng = np.random.default_rng(0)
    y = rng.normal(size=(2, 3, 10))
    got_np = patchify(y, 8, 8)
    got_t = gather_last(Tensor(y), patch_indices(10, 8, 8))
    assert got_np.shape == (2, 3, 2, 8)
    npt.assert_array_equal(got_np, got_t.data)
    # padded tail replicates the last observation
    npt.assert_array_equal(got_np[..., 1, 2:], np.repeat(y[..., -1:], 6, -1))


# -- positional encoding ---------------------------------------------------------

def test_sincos_table_values():
    table = sincos_table(3, 4)
    npt.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0], atol=0)
    npt.assert_allclose(table[1, 0], np.sin(1.0), atol=1e-15)
    npt.assert_allclose(table[1, 1], np.cos(1.0), atol=1e-15)
    npt.assert_allclose(table[2, 2], np.sin(2.0 / 100.0), atol=1e-15)
    with pytest.raises(ValueError):
        sincos_table(3, 5)


# -- standardization ---------------------------------------------------------------

def test_standardize_moments_and_roundtrip():
    rng = np.random.default_rng(1)
    y = rng.normal(3.0, 5.0, size=(4, 2, 32))
    y_std, stats = standardize(y)
    npt.assert_allclose(y_std.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(y_std.std(axis=-1), 1.0, atol=1e-12)
    back = destandardize(Tensor(y_std), stats)
    npt.assert_allclose(back.data, y, atol=1e-12)


def test_standardize_constant_channel_uses_floor():
    y = np.full((1, 1, 16), 7.0)
    y_std, stats = standardize(y)
    assert np.all(np.isfinite(y_std))
    npt.assert_allclose(y_std, 0.0, atol=0)
    npt.assert_allclose(stats.std, 1e-8, atol=0)
    npt.assert_allclose(destandardize(Tensor(y_std), stats).data, y,
                        atol=1e-12)


def test_standardize_keeps_the_bits_of_the_plain_moments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = (rng.normal(size=(3, 4, 96)) * 10.0 ** rng.uniform(-6, 6)
             + rng.uniform(-1e3, 1e3))
        y_std, stats = standardize(y)
        mean = y.mean(axis=-1, keepdims=True)
        std = np.maximum(y.std(axis=-1, keepdims=True), 1e-8)
        npt.assert_array_equal(stats.mean, mean)
        npt.assert_array_equal(stats.std, std)
        npt.assert_array_equal(y_std, (y - mean) / std)


@pytest.mark.filterwarnings("error")
def test_standardize_takes_every_finite_window():
    # squares of unscaled residuals would overflow past about 1e154
    y = np.random.default_rng(6).normal(size=(1, 3, 96))
    for scale in (1e160, 1e200, 1e300):
        y_std, stats = standardize(y * scale)
        npt.assert_allclose(y_std, standardize(y)[0], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(stats.std / scale, standardize(y)[1].std,
                            rtol=1e-12)
    y_std, stats = standardize(np.full((1, 1, 96), 1e307))
    assert np.isfinite(y_std).all() and np.isfinite(stats.std).all()


@pytest.mark.filterwarnings("error")
def test_a_window_times_1e200_forecasts_1e200_times_the_forecast():
    model, window = quickstart_model(), quickstart_window(batch=2)
    with no_grad():
        want = model.forward(window).data * 1e200
        got = model.forward(window * 1e200).data
    npt.assert_allclose(got, want, rtol=1e-10, atol=0)


# -- equivariance with the global path on ---------------------------------------
# Per-window, per-channel standardization makes the forecast commute with a
# positive affine map of each channel, and the global memory is a sum over
# channels, so it commutes with channel permutations once every per-channel
# parameter is permuted too.

EQUIVARIANT_CONFIGS = ([(g, m, False) for g in GATE_KINDS
                        for m in WEIGHT_MODES]
                       + [("shared_beta", "static", True),
                          ("mlp_query", "dynamic", True)])


def equivariance_model(gate, weight_mode, exclusion, head_kind):
    cfg = ModelConfig(horizon=8, input_size=32, n_layers=2, d_model=16,
                      n_heads=2, ff_hidden=32, d_k=8, d_v=8, patch_len=8,
                      stride=8, head_kind=head_kind,
                      mica=MicaConfig(n_heads=2, d_k=8, d_v=8, gate=gate,
                                      mlp_hidden=16, weight_mode=weight_mode,
                                      exclusion=exclusion))
    model = ForecastModel(cfg, n_channels=5, seed=2)
    # make every per-channel parameter differ across channels
    rng = np.random.default_rng(3)
    for name, p in model.named_parameters().items():
        if name.endswith("beta") or name.endswith("channel_weights"):
            p.data[...] = rng.uniform(0.5, 1.5, size=p.shape)
    return model


@pytest.mark.parametrize("gate, weight_mode, exclusion", EQUIVARIANT_CONFIGS)
def test_forecast_commutes_with_a_per_channel_affine_map(gate, weight_mode,
                                                         exclusion):
    model = equivariance_model(gate, weight_mode, exclusion, "shared_linear")
    rng = np.random.default_rng(4)
    y = rng.normal(size=(3, 5, 32))
    a = np.exp(rng.uniform(-7.0, 7.0, size=(5, 1)))
    b = rng.uniform(-1e3, 1e3, size=(5, 1))
    with no_grad():
        want = a * model.forward(y).data + b
        got = model.forward(a * y + b).data
    err = np.abs(got - want).max(axis=(0, 2)) / np.abs(want).max(axis=(0, 2))
    assert err.max() <= 1e-10, err


@pytest.mark.parametrize("head_kind", ["shared_linear", "multivariate"])
@pytest.mark.parametrize("gate, weight_mode, exclusion", EQUIVARIANT_CONFIGS)
def test_forecast_commutes_with_channel_permutations(gate, weight_mode,
                                                     exclusion, head_kind):
    model = equivariance_model(gate, weight_mode, exclusion, head_kind)
    permuted = equivariance_model(gate, weight_mode, exclusion, head_kind)
    perm = np.array([3, 0, 4, 1, 2])
    for name, p in permuted.named_parameters().items():
        if name.startswith("head.") and head_kind == "multivariate":
            p.data = p.data[perm]
        elif p.ndim == 5 and p.shape[1] == 5:   # channelwise beta, weights
            p.data = p.data[:, perm]
    y = np.random.default_rng(5).normal(size=(3, 5, 32))
    with no_grad():
        want = model.forward(y).data[:, perm]
        got = permuted.forward(y[:, perm]).data
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# -- model ---------------------------------------------------------------------------

def test_forward_shape_and_determinism():
    cfg = small_cfg(mica=mica_cfg())
    model_a = ForecastModel(cfg, n_channels=3, seed=5)
    model_b = ForecastModel(cfg, n_channels=3, seed=5)
    y = np.random.default_rng(2).normal(size=(2, 3, 16))
    out_a = model_a.forward(y)
    out_b = model_b.forward(y)
    assert out_a.shape == (2, 3, 4)
    npt.assert_array_equal(out_a.data, out_b.data)


def test_forward_input_validation():
    model = ForecastModel(small_cfg(), n_channels=3)
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):
        model.forward(rng.normal(size=(2, 4, 16)))
    with pytest.raises(ShapeError):
        model.forward(rng.normal(size=(2, 3, 20)))
    with pytest.raises(ShapeError):
        model.forward(rng.normal(size=(3, 16)))


@pytest.mark.parametrize("build, message", [
    (lambda: small_cfg(horizon=0), "horizon must be positive"),
    (lambda: small_cfg(n_layers=-1), "n_layers must be >= 0"),
    (lambda: small_cfg(d_model=0), "model dimensions must be positive"),
    (lambda: small_cfg(stride=0), "model dimensions must be positive"),
    (lambda: small_cfg(d_model=7), "d_model must be even"),
    (lambda: small_cfg(patch_len=17), "patch_len 17 exceeds input_size 16"),
    (lambda: small_cfg(dropout=1.0), "dropout must be in [0, 1)"),
    (lambda: small_cfg(head_kind="tied"), "unknown head kind 'tied'"),
    (lambda: small_cfg(mica=MicaConfig(n_heads=2, d_k=8, d_v=4)),
     "mica.d_k disagrees with the backbone setting"),
    (lambda: ForecastModel(small_cfg(), n_channels=0),
     "n_channels must be positive"),
], ids=["horizon", "n_layers", "d_model", "stride", "odd_d_model",
        "patch_len", "dropout", "head_kind", "mica_heads", "n_channels"])
def test_config_rejects_unbuildable_models(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_a_patch_as_long_as_the_window_is_one_patch():
    assert ForecastModel(small_cfg(patch_len=16), n_channels=2).n_patches == 1


def test_zero_layers_is_head_over_embeddings():
    cfg = small_cfg(n_layers=0)
    model = ForecastModel(cfg, n_channels=2, seed=0)
    y = np.random.default_rng(4).normal(size=(1, 2, 16))
    out = model.forward(y)
    y_std, stats = standardize(y)
    tokens = patchify(y_std, 4, 4)
    h = model.embed(Tensor(tokens)) + model._posenc
    manual = model.head(h.reshape(1, 2, 4 * 8))
    npt.assert_array_equal(out.data, destandardize(manual, stats).data)


def test_gate_sharing_and_parameter_ownership():
    shared = ForecastModel(small_cfg(mica=mica_cfg("shared_beta")), 3, seed=0)
    layered = ForecastModel(
        small_cfg(mica=mica_cfg("layerwise_beta")), 3, seed=0)
    chan = ForecastModel(
        small_cfg(mica=mica_cfg("channelwise_beta")), 3, seed=0)
    base = ForecastModel(small_cfg(), 3, seed=0)

    nb = base.n_params()
    assert shared.n_params() == nb + 2          # N
    assert layered.n_params() == nb + 2 * 2     # N * layers
    assert chan.n_params() == nb + 2 * 3        # N * channels
    lcw = ForecastModel(
        small_cfg(mica=mica_cfg("layerwise_channelwise_beta")), 3, seed=0)
    assert lcw.n_params() == nb + 2 * 2 * 3     # N * layers * channels

    assert len(shared.gates) == 1
    assert len(layered.gates) == 2
    names = shared.named_parameters()
    beta_names = [n for n in names if "beta" in n]
    assert len(beta_names) == 1  # one shared tensor, counted once


def test_multivariate_head_matches_shared_when_weights_tied():
    cfg_s = small_cfg()
    cfg_m = small_cfg(head_kind="multivariate")
    shared = ForecastModel(cfg_s, n_channels=3, seed=9)
    multi = ForecastModel(cfg_m, n_channels=3, seed=9)
    for name, p in shared.named_parameters().items():
        if not name.startswith("head"):
            multi.named_parameters()[name].data = p.data.copy()
    for c in range(3):
        multi.head.weight.data[c] = shared.head.weight.data
        multi.head.bias.data[c, 0] = shared.head.bias.data
    y = np.random.default_rng(5).normal(size=(2, 3, 16))
    npt.assert_allclose(multi.forward(y).data, shared.forward(y).data,
                        atol=1e-12)
    flat = 4 * 8
    assert multi.head.n_params() == 3 * (flat * 4 + 4)


def test_channel_shuffle_with_local_gate():
    cfg = small_cfg(mica=mica_cfg())
    model = ForecastModel(cfg, n_channels=4, seed=1)
    y = np.random.default_rng(6).normal(size=(2, 4, 16))
    perm = np.array([2, 0, 3, 1])
    out = model.forward(y, mix_override=0.0).data
    out_perm = model.forward(y[:, perm], mix_override=0.0).data
    npt.assert_allclose(out_perm, out[:, perm], atol=1e-12)


def test_collect_exposes_attention_products():
    cfg = small_cfg(mica=mica_cfg())
    model = ForecastModel(cfg, n_channels=2, seed=0)
    grabbed = []
    model.forward(np.zeros((1, 2, 16)), collect=grabbed)
    assert len(grabbed) == 2
    assert grabbed[0].a_global.shape == grabbed[0].a_local.shape


def test_concat_block_mixes_channels():
    cfg = small_cfg()
    y = np.random.default_rng(7).normal(size=(2, 3, 16))
    bumped = y.copy()
    bumped[:, 1, 5] += 3.0
    forecasts = {}
    for concat in (False, True):
        model = ForecastModel(cfg, n_channels=3, seed=2, concat=concat)
        with no_grad():
            forecasts[concat] = [model(w).data for w in (y, bumped)]
    base, cat = forecasts[False], forecasts[True]
    npt.assert_array_equal(base[0][:, 0], base[1][:, 0])
    assert np.abs(cat[0][:, 0] - cat[1][:, 0]).max() > 1e-6
    # one channel has nothing to mix in: concat is the baseline
    with no_grad():
        one = [ForecastModel(cfg, n_channels=1, seed=2, concat=concat)(
            y[:, :1]).data for concat in (False, True)]
    npt.assert_array_equal(one[0], one[1])


def test_concat_with_mica_is_rejected():
    with pytest.raises(ValueError, match="concat"):
        ForecastModel(small_cfg(mica=mica_cfg()), n_channels=3, concat=True)


# -- serialization ----------------------------------------------------------------------

def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg(mica=mica_cfg())
    model = ForecastModel(cfg, n_channels=3, seed=7)
    digest = config_digest(cfg, 3)
    path = tmp_path / "params.bin"
    save_params(path, model, digest)
    stored, arrays = load_params(path)
    assert stored == digest
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arrays[name], arr), name

    clone = ForecastModel(cfg, n_channels=3, seed=99)
    clone.load_state(arrays)
    y = np.random.default_rng(8).normal(size=(1, 3, 16))
    npt.assert_array_equal(clone.forward(y).data, model.forward(y).data)


def _linear(name, n_in, n_out):
    return [(f"{name}.weight", (n_in, n_out)), (f"{name}.bias", (n_out,))]


def test_parameter_names_and_shapes_are_pinned():
    # saved parameter files are keyed by these names: a block refactor
    # that renames or drops one would orphan every file saved before it
    cfg = small_cfg(mica=mica_cfg(gate="mlp_query", weight_mode="dynamic"))
    got = [(name, p.shape) for name, p in
           ForecastModel(cfg, n_channels=3).named_parameters().items()]
    want = _linear("embed", 4, 8)
    for g in range(2):
        want += _linear(f"gates.{g}.layers.0", 24, 8)
        want += _linear(f"gates.{g}.layers.1", 8, 2)
    for i in range(2):
        for w in ("w_q", "w_k", "w_v", "w_out"):
            want += _linear(f"layers.{i}.attn.{w}", 8, 8)
        want += _linear(f"layers.{i}.attn.weight_proj", 4, 1)
        want += [(f"layers.{i}.norm1.gain", (8,)),
                 (f"layers.{i}.norm1.shift", (8,))]
        want += _linear(f"layers.{i}.ffn.up", 8, 16)
        want += _linear(f"layers.{i}.ffn.down", 16, 8)
        want += [(f"layers.{i}.norm2.gain", (8,)),
                 (f"layers.{i}.norm2.shift", (8,))]
    assert got == want + _linear("head", 32, 4)

    static = small_cfg(n_layers=1, mica=mica_cfg(weight_mode="static"))
    names = list(ForecastModel(static, n_channels=3).named_parameters())
    assert names[:12] == ["embed.weight", "embed.bias", "gates.0.beta"] + [
        f"layers.0.attn.{w}.{t}" for w in ("w_q", "w_k", "w_v", "w_out")
        for t in ("weight", "bias")] + ["layers.0.attn.channel_weights"]


def _fill_first_array(blob, field):
    """``blob`` with every byte of its first array's ``field`` ("name" or
    "dims") set to 0xff."""
    at = len(_MAGIC) + 4 + 32 + 4  # magic, version, digest, array count
    (size,) = struct.unpack_from("<H", blob, at)
    at += 2
    if field == "dims":
        at, size = at + size + 1, 4 * blob[at + size]  # past name and ndim
    return blob[:at] + b"\xff" * size + blob[at + size:]


def _append_zeroed_first_array(blob):
    """``blob`` with a zeroed copy of its first array appended, and its
    array count raised by one."""
    at = len(_MAGIC) + 4 + 32  # magic, version, digest
    (count,) = struct.unpack_from("<I", blob, at)
    start = at + 4
    (size,) = struct.unpack_from("<H", blob, start)
    ndim = blob[start + 2 + size]
    dims = struct.unpack_from(f"<{ndim}I", blob, start + 3 + size)
    data = start + 3 + size + 4 * ndim
    return (blob[:at] + struct.pack("<I", count + 1) + blob[start:]
            + blob[start:data] + bytes(8 * math.prod(dims)))


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: b"definitely not params", "is not a parameter file"),
    (lambda blob: blob[:len(blob) // 2], "truncated parameter file"),
    (lambda blob: blob[:8] + struct.pack("<I", 2) + blob[12:],
     "unsupported parameter file version 2"),
    (lambda blob: blob + b"\0", "trailing bytes in parameter file"),
    (lambda blob: _fill_first_array(blob, "name"),
     "non-UTF-8 parameter name"),
    # every dim 0xffffffff: far more items than the file holds
    (lambda blob: _fill_first_array(blob, "dims"), "truncated parameter file"),
    # the zeroed copy would replace the trained array
    (_append_zeroed_first_array, "parameter 'embed.weight' stored twice"),
], ids=["garbage", "truncated", "version", "trailing", "name", "dims",
        "duplicate"])
def test_load_params_rejects_garbage(tmp_path, corrupt, message):
    cfg = small_cfg()
    model = ForecastModel(cfg, n_channels=2, seed=0)
    path = tmp_path / "params.bin"
    save_params(path, model, config_digest(cfg, 2))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IntegrityError, match=re.escape(message)) as err:
        load_params(path)
    assert f"'{path}'" in str(err.value)


def test_config_digest_sensitivity():
    cfg = small_cfg(mica=mica_cfg())
    base = config_digest(cfg, 3)
    assert base == config_digest(small_cfg(mica=mica_cfg()), 3)
    assert base != config_digest(cfg, 4)
    assert base != config_digest(small_cfg(mica=mica_cfg(exclusion=True)), 3)
    assert base != config_digest(small_cfg(), 3)


@pytest.mark.parametrize("gate, digest", [
    ("shared_beta",
     "302e296e70c833769112f7e129cd5d61f41a4cd35be0be1eaa55c43934c6a47d"),
    ("mlp_query",
     "108395a79f773d8bb1d11be63adb2e4d1a902b88edcf99b0e4cafde365ca3427"),
], ids=["shared_beta", "mlp_query"])    # no hex id for ``-k`` to match
def test_config_digest_is_pinned(gate, digest):
    # saved parameter files carry this digest, so it must never drift: the
    # README quick-start model (C=7) with its own gate and an mlp_query one
    cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                      n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                      mica=MicaConfig(n_heads=4, d_k=16, d_v=16, gate=gate))
    assert config_digest(cfg, 7) == digest


def test_load_state_validates_names_and_shapes():
    model = ForecastModel(small_cfg(), n_channels=2, seed=0)
    state = model.state_arrays()
    state.pop(next(iter(state)))
    with pytest.raises(KeyError):
        model.load_state(state)


# -- finite checks: once per forecast, replayed per op on a failure -------------

def quickstart_model(gate="shared_beta", dropout=0.0):
    """The README quick-start model: C=7, L=96, H=24, d_model=64, 2 layers."""
    cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                      n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                      dropout=dropout,
                      mica=MicaConfig(n_heads=4, d_k=16, d_v=16, gate=gate,
                                      mlp_dropout=dropout))
    return ForecastModel(cfg, n_channels=7, seed=0)


def quickstart_window(batch=1):
    return np.random.default_rng(11).normal(size=(batch, 7, 96))


def set_entry(path, index, value):
    """Write ``value`` into one entry of the array at ``path`` (or into the
    window, for path ``window``)."""
    def inject(model, window):
        if path == "window":
            window[index] = value
            return
        obj = model
        for part in path.split("."):
            obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
        obj.data[index] = value
    return inject


def outcome(model, window, training=False, rng=None):
    try:
        with no_grad():
            return model.forward(window, training=training, rng=rng).data
    except NonFiniteError as err:
        return str(err)


FAULTS = [
    ("shared_beta", set_entry("layers.0.attn.w_k.weight", (3, 5), np.inf),
     "matmul"),
    # every entry of one key column at -1e308 overflows to -inf (or NaN)
    ("shared_beta", set_entry("layers.0.attn.w_k.weight", (slice(None), 2),
                              -1e308), "matmul"),
    ("shared_beta", set_entry("layers.1.attn.w_out.weight", (2, 2), np.nan),
     "matmul"),
    ("shared_beta", set_entry("window", (0, 2, 10), np.nan), "standardize"),
    ("mlp", set_entry("gates.0.layers.1.weight", (3, 1), np.inf), "matmul"),
    # a NaN parameter reaches sigmoid, one of the absorbing ops, directly
    ("shared_beta", set_entry("gates.0.beta", (0, 0, 1, 0, 0), np.nan),
     "sigmoid"),
    # finite scores too large for exp: local attention is the first to fail
    ("shared_beta", set_entry("embed.weight", (0, 0), 1e200),
     "local_attention"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gate, inject, op", FAULTS)
def test_non_finite_forward_raises_the_per_op_error(per_op, gate, inject,
                                                    op):
    model, window = quickstart_model(gate), quickstart_window()
    inject(model, window)
    want = per_op(lambda: outcome(model, window))
    assert want == f"non-finite values produced by op '{op}'"
    assert outcome(model, window) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_bad_window_is_named_by_standardize(per_op, value):
    # NaN and inf poison the mean, and so the std
    model, window = quickstart_model(), quickstart_window()
    window[0, 2, 10] = value
    want = "non-finite values produced by op 'standardize'"
    assert per_op(lambda: outcome(model, window)) == want
    assert outcome(model, window) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_absorbed_inf_gives_the_per_op_forecast(per_op):
    # sigmoid(+inf) = 1: no op output is non-finite, so nothing raises
    model, window = quickstart_model(), quickstart_window(batch=2)
    set_entry("gates.0.beta", (0, 0, 3, 0, 0), np.inf)(model, window)
    want = per_op(lambda: outcome(model, window))
    got = outcome(model, window)
    assert np.all(np.isfinite(want))
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replayed_training_forward_redraws_the_same_dropout(per_op,
                                                            monkeypatch):
    # the pass ends at layer 1's gate, after layer 0 has drawn its masks
    model = quickstart_model("layerwise_beta", dropout=0.2)
    window = quickstart_window(batch=4)
    set_entry("gates.1.beta", (0, 0, 2, 0, 0), np.inf)(model, window)
    rng_want = np.random.default_rng(3)
    want = per_op(lambda: outcome(model, window, True, rng_want))
    passes = []
    forecast = ForecastModel._forecast
    monkeypatch.setattr(ForecastModel, "_forecast",
                        lambda *a: passes.append(1) or forecast(*a))
    rng = np.random.default_rng(3)
    got = outcome(model, window, True, rng)
    assert len(passes) == 2                          # the pass and its replay
    assert np.all(np.isfinite(want))
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replayed_forward_collects_one_entry_per_layer():
    # the pass ends at layer 1's gate, after collecting layer 0
    model, window = quickstart_model("layerwise_beta"), quickstart_window()
    set_entry("gates.1.beta", (0, 0, 0, 0, 0), np.inf)(model, window)
    grabbed = ["earlier"]
    with no_grad():
        model.forward(window, collect=grabbed)
    assert grabbed[0] == "earlier"
    assert len(grabbed) == 1 + len(model.layers)
    assert all(res.a_mixed.shape == (1, 7, 4, 12, 16) for res in grabbed[1:])


@pytest.mark.parametrize("gate", ["shared_beta", "layerwise_channelwise_beta",
                                  "mlp", "mlp_query"])
def test_forecast_bits_do_not_depend_on_finite_checks(per_op, gate):
    model, window = quickstart_model(gate), quickstart_window(batch=3)
    with no_grad():
        once = model.forward(window).data
        each_op = per_op(lambda: model.forward(window).data)
    assert once.tobytes() == each_op.tobytes()


def test_finite_forward_checks_far_fewer_arrays(per_op, monkeypatch):
    counted = []
    all_finite = tensor._all_finite
    monkeypatch.setattr(tensor, "_all_finite",
                        lambda arr: counted.append(1) or all_finite(arr))
    model, window = quickstart_model(), quickstart_window()
    per_op(lambda: outcome(model, window))
    assert len(counted) == 53               # one per op, and the window std
    counted.clear()
    outcome(model, window)
    # every input of every absorbing op: per layer, local_attention's q, k,
    # v, global_memory's k, v, global_attention's q, M, z and sigmoid's
    # beta; then the forecast
    assert len(counted) == 2 * (3 + 2 + 3 + 1) + 1
