import re

import numpy as np
import numpy.testing as npt
import pytest

from mica import attention
from mica.attention import (ROW_BLOCK, AttentionOutput, BetaGate,
                            LocalAttention, MicaAttention, MicaConfig,
                            MlpGate, _attend, _attend_tiles, center_beta,
                            fused_forward, global_attention, global_memory,
                            local_attention, merge_heads, mix,
                            online_softmax_update, split_heads)
from mica.tensor import ShapeError, Tensor, checked_once, no_grad, sigmoid


# -- brute-force oracles (independent loops, no library math) ----------------

def oracle_local(q, k, v):
    b, c, n, p, dk = q.shape
    dv = v.shape[-1]
    out = np.zeros((b, c, n, p, dv))
    for bi in range(b):
        for ci in range(c):
            for ni in range(n):
                for i in range(p):
                    scores = np.array([
                        q[bi, ci, ni, i] @ k[bi, ci, ni, j] / np.sqrt(dk)
                        for j in range(p)])
                    w = np.exp(scores - scores.max())
                    w = w / w.sum()
                    out[bi, ci, ni, i] = sum(
                        w[j] * v[bi, ci, ni, j] for j in range(p))
    return out


def phi_np(x):
    return np.where(x >= 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def oracle_global(q, k, v, eps=1e-6, weights=None, exclusion=False):
    b, c, n, p, dk = q.shape
    dv = v.shape[-1]
    if weights is None:
        weights = np.ones((b, c, n))
    else:
        weights = np.broadcast_to(weights.reshape(weights.shape[:3]),
                                  (b, c, n)) if weights.ndim == 5 else weights
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
                        fk = phi_np(k[bi, cj, ni, j])
                        mem += weights[bi, cj, ni] * np.outer(fk, v[bi, cj, ni, j])
                        zed += weights[bi, cj, ni] * fk
                for i in range(p):
                    fq = phi_np(q[bi, ci, ni, i])
                    out[bi, ci, ni, i] = (fq @ mem) / (fq @ zed + eps)
    return out


def rand_qkv(rng, b=2, c=3, n=2, p=4, dk=4, dv=5):
    q = Tensor(rng.normal(size=(b, c, n, p, dk)))
    k = Tensor(rng.normal(size=(b, c, n, p, dk)))
    v = Tensor(rng.normal(size=(b, c, n, p, dv)))
    return q, k, v


# -- local path ---------------------------------------------------------------

def test_local_attention_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q, k, v = rand_qkv(rng)
        npt.assert_allclose(local_attention(q, k, v).data,
                            oracle_local(q.data, k.data, v.data), atol=1e-12)


def record_tiles(monkeypatch) -> list:
    """Shapes of the score tiles handed to the online-softmax step."""
    tiles = []
    step = online_softmax_update

    def recording(m, l, acc, scores, values, scale):
        tiles.append(scores.shape)
        return step(m, l, acc, scores, values, scale)

    monkeypatch.setattr(attention, "online_softmax_update", recording)
    return tiles


@pytest.mark.parametrize("p", [ROW_BLOCK, 1500])
def test_untaped_local_attention_matches_the_tape(p, monkeypatch):
    # past ROW_BLOCK patches the untaped op streams tiles of ROW_BLOCK query
    # rows by every key; up to it, it runs the taped arithmetic itself
    rng = np.random.default_rng(11)
    q, k, v = (rng.normal(size=(1, 1, 2, p, 16)) for _ in range(3))
    taped = local_attention(*(Tensor(a, requires_grad=True)
                              for a in (q, k, v)))
    assert taped.requires_grad
    tiles = record_tiles(monkeypatch)
    with no_grad():
        fast = local_attention(q, k, v)
    assert not fast.requires_grad
    if p <= ROW_BLOCK:
        assert tiles == []
    else:  # per head, one full block of rows and the rest
        assert tiles == [(ROW_BLOCK, p), (p - ROW_BLOCK, p)] * 2
    npt.assert_allclose(fast.data, taped.data, rtol=0,
                        atol=0 if p <= ROW_BLOCK else 1e-12)


def test_local_attention_identical_keys_averages_values():
    rng = np.random.default_rng(1)
    k1 = rng.normal(size=4)
    k = Tensor(np.tile(k1, (1, 1, 1, 5, 1)))
    q = Tensor(rng.normal(size=(1, 1, 1, 5, 4)))
    v = Tensor(rng.normal(size=(1, 1, 1, 5, 3)))
    out = local_attention(q, k, v)
    expected = np.tile(v.data.mean(axis=-2, keepdims=True), (1, 1, 1, 5, 1))
    npt.assert_allclose(out.data, expected, atol=1e-12)


def test_local_attention_dim_mismatch():
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(1, 1, 1, 2, 3)))
    k = Tensor(rng.normal(size=(1, 1, 1, 2, 4)))
    v = Tensor(rng.normal(size=(1, 1, 1, 2, 4)))
    with pytest.raises(ShapeError):
        local_attention(q, k, v)


# -- global path --------------------------------------------------------------

def test_global_attention_matches_oracle_inclusion_and_exclusion():
    rng = np.random.default_rng(3)
    for exclusion in (False, True):
        q, k, v = rand_qkv(rng)
        mem, z = global_memory(k, v, exclusion=exclusion)
        got = global_attention(q, mem, z).data
        want = oracle_global(q.data, k.data, v.data, exclusion=exclusion)
        npt.assert_allclose(got, want, atol=1e-12)


def test_global_attention_single_channel_single_patch():
    # one patch, one channel: output is v * s / (s + eps) with s = phi(q).phi(k)
    rng = np.random.default_rng(4)
    q, k, v = rand_qkv(rng, b=1, c=1, n=1, p=1)
    mem, z = global_memory(k, v)
    out = global_attention(q, mem, z, eps=1e-6).data
    s = phi_np(q.data[0, 0, 0, 0]) @ phi_np(k.data[0, 0, 0, 0])
    npt.assert_allclose(out[0, 0, 0, 0], v.data[0, 0, 0, 0] * s / (s + 1e-6),
                        atol=1e-12)


def test_weighted_memory_matches_oracle():
    rng = np.random.default_rng(5)
    q, k, v = rand_qkv(rng)
    w = rng.uniform(0.5, 2.0, size=(1, 3, 1, 1, 1))
    for exclusion in (False, True):
        mem, z = global_memory(k, v, weights=Tensor(w), exclusion=exclusion)
        got = global_attention(q, mem, z).data
        want = oracle_global(q.data, k.data, v.data,
                             weights=np.broadcast_to(w, (2, 3, 2, 1, 1)),
                             exclusion=exclusion)
        npt.assert_allclose(got, want, atol=1e-12)


def test_uniform_weights_equal_explicit_ones():
    rng = np.random.default_rng(6)
    _, k, v = rand_qkv(rng)
    m0, z0 = global_memory(k, v)
    m1, z1 = global_memory(k, v, weights=Tensor(np.ones((1, 3, 1, 1, 1))))
    npt.assert_allclose(m0.data, m1.data, atol=0)
    npt.assert_allclose(z0.data, z1.data, atol=0)


def test_exclusion_identity_all_weight_modes():
    # M_excl(c) + w_c * own(c) == M_all, and likewise for z
    rng = np.random.default_rng(7)
    for mode in ("uniform", "static", "dynamic"):
        q, k, v = rand_qkv(rng)
        if mode == "uniform":
            w = None
        elif mode == "static":
            w = Tensor(rng.uniform(0.2, 3.0, size=(1, 3, 1, 1, 1)))
        else:
            w = Tensor(rng.normal(1.0, 0.3, size=(2, 3, 2, 1, 1)))
        m_all, z_all = global_memory(k, v, weights=w)
        m_ex, z_ex = global_memory(k, v, weights=w, exclusion=True)
        from mica.tensor import phi as phi_op
        pk = phi_op(k)
        own_m = pk.swapaxes(-1, -2) @ v
        own_z = pk.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
        if w is not None:
            own_m, own_z = own_m * w, own_z * w
        npt.assert_allclose((m_ex + own_m).data,
                            np.broadcast_to(m_all.data, m_ex.shape),
                            atol=1e-12)
        npt.assert_allclose((z_ex + own_z).data,
                            np.broadcast_to(z_all.data, z_ex.shape),
                            atol=1e-12)


def test_global_attention_dq_mismatch():
    rng = np.random.default_rng(8)
    q, k, v = rand_qkv(rng)
    mem, z = global_memory(k, v)
    bad_q = Tensor(rng.normal(size=(2, 3, 2, 4, 7)))
    with pytest.raises(ShapeError):
        global_attention(bad_q, mem, z)


# -- gates ---------------------------------------------------------------------

def test_center_beta_zero_mean_and_idempotent():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0, 1e-2, size=(1, 1, 4, 1, 1))
    centered = center_beta(raw)
    npt.assert_allclose(centered.mean(axis=2), 0.0, atol=1e-18)
    npt.assert_allclose(center_beta(centered), centered, atol=0)
    with pytest.raises(ShapeError):
        center_beta(np.zeros((1, 1, 0, 1, 1)))


def test_beta_gate_blend_and_bounds():
    rng = np.random.default_rng(10)
    gate = BetaGate(2, rng)
    q, k, v = rand_qkv(rng)
    a_l = local_attention(q, k, v)
    mem, z = global_memory(k, v)
    a_g = global_attention(q, mem, z)
    g = gate(a_l, a_g)
    assert g.shape == (1, 1, 2, 1, 1)
    assert np.all(g.data > 0) and np.all(g.data < 1)
    npt.assert_allclose(mix(a_l, a_g, g).data,
                        g.data * a_g.data + (1 - g.data) * a_l.data, atol=0)
    # init is centered across heads, so the blend starts near 50/50
    npt.assert_allclose(g.data.mean(), 0.5, atol=1e-2)


def test_beta_gate_channel_mismatch():
    rng = np.random.default_rng(11)
    gate = BetaGate(2, rng, n_channels=5)
    q, k, v = rand_qkv(rng)  # 3 channels
    a_l = local_attention(q, k, v)
    with pytest.raises(ShapeError, match=r"\(1, 5, 2, 1, 1\).*\(2, 3, 2, 4"):
        mix(a_l, a_l, gate(a_l, a_l))
    # a block sharing a gate built for 5 channels rejects a 3-channel input
    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate="channelwise_beta")
    block = MicaAttention(8, cfg, rng, gate=gate)
    with pytest.raises(ShapeError):
        block(Tensor(rng.normal(size=(2, 3, 5, 8))))


def test_mix_rejects_a_weight_that_grows_the_output():
    rng = np.random.default_rng(24)
    a = Tensor(rng.normal(size=(2, 3, 2, 5, 4)))
    for shape in [(1, 3, 2, 5, 4, 1), (2, 3, 2, 5, 2), (4, 1, 1, 1, 1)]:
        with pytest.raises(ShapeError, match="does not fit"):
            mix(a, a, Tensor(np.full(shape, 0.5)))
    for shape in [(), (1, 3, 2, 1, 1), (2, 3, 2, 5, 1), (2, 3, 2, 5, 4)]:
        assert mix(a, a, Tensor(np.full(shape, 0.5))).shape == a.shape


def test_make_gate_channelwise_needs_channels():
    rng = np.random.default_rng(25)
    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate="channelwise_beta")
    for build in (lambda: attention.make_gate(cfg, rng),
                  lambda: MicaAttention(8, cfg, rng)):
        with pytest.raises(ValueError,
                           match="channelwise gate needs n_channels"):
            build()
    assert attention.make_gate(cfg, rng, 3).beta.shape == (1, 3, 2, 1, 1)
    shared = MicaConfig(n_heads=2, d_k=4, d_v=4)
    assert attention.make_gate(shared, rng).beta.shape == (1, 1, 2, 1, 1)


def test_mix_override_endpoints_are_exact():
    rng = np.random.default_rng(12)
    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4)
    block = MicaAttention(8, cfg, rng)
    x = Tensor(rng.normal(size=(2, 3, 5, 8)))
    res0 = block(x, mix_override=0.0)
    res1 = block(x, mix_override=1.0)
    assert np.array_equal(res0.a_mixed.data, res0.a_local.data)
    assert np.array_equal(res1.a_mixed.data, res1.a_global.data)


def test_mlp_gate_shapes_and_query_requirement():
    rng = np.random.default_rng(13)
    q, k, v = rand_qkv(rng, dv=4)
    a_l = local_attention(q, k, v)
    mem, z = global_memory(k, v)
    a_g = global_attention(q, mem, z)

    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate="mlp", mlp_hidden=16,
                     mlp_layers=3)
    gate = MlpGate(cfg, rng)
    assert [lin.weight.shape for lin in gate.layers] == cfg.gate_layers
    g = gate(a_l, a_g)
    assert mix(a_l, a_g, g).shape == a_l.shape
    assert g.shape == (2, 3, 2, 4, 1)
    assert np.all((g.data > 0) & (g.data < 1))

    qcfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate="mlp_query",
                      mlp_hidden=16)
    qgate = MlpGate(qcfg, rng)
    assert qcfg.gate_layers == [(2 * 4 + 2 * 4 + 2 * 4, 16), (16, 2)]
    assert qgate(a_l, a_g, q=q).shape == (2, 3, 2, 4, 1)
    with pytest.raises(ValueError):
        qgate(a_l, a_g)


def test_gate_parameter_counts():
    rng = np.random.default_rng(14)
    assert BetaGate(4, rng).n_params() == 4
    assert BetaGate(4, rng, n_channels=7).n_params() == 28
    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate="mlp", mlp_hidden=8)
    assert MlpGate(cfg, rng).n_params() == (16 * 8 + 8) + (8 * 2 + 2)
    assert MicaConfig(gate="layerwise_beta").gate_layers == []


# -- full block ------------------------------------------------------------------

def test_block_output_shapes_all_gates():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3, 4, 8)))
    for kind in ("shared_beta", "channelwise_beta", "mlp", "mlp_query"):
        cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate=kind, mlp_hidden=8)
        block = MicaAttention(8, cfg, rng, n_channels=3)
        res = block(x)
        assert isinstance(res, AttentionOutput)
        assert res.a_local.shape == (2, 3, 2, 4, 4)
        assert res.a_global.shape == res.a_local.shape
        assert res.a_mixed.shape == res.a_local.shape
        assert res.out.shape == (2, 3, 4, 8)


def test_local_only_block_matches_mica_local_path():
    rng = np.random.default_rng(16)
    base = LocalAttention(8, 2, 4, 4, rng)
    x = Tensor(rng.normal(size=(1, 2, 3, 8)))
    res = base(x)
    assert res.a_global is None
    assert np.array_equal(res.a_mixed.data, res.a_local.data)


@pytest.mark.parametrize("bad, message", [
    (dict(n_heads=0), "head count and head dims must be positive"),
    (dict(d_k=0), "head count and head dims must be positive"),
    (dict(d_v=-1), "head count and head dims must be positive"),
    (dict(gate="nope"), "unknown gate kind 'nope'"),
    (dict(weight_mode="nope"), "unknown weight mode 'nope'"),
    (dict(mlp_layers=1), "gate mlp needs at least 2 layers"),
    (dict(gate="mlp", mlp_hidden=0), "mlp_hidden must be >= 1, got 0"),
    (dict(mlp_hidden=-3), "mlp_hidden must be >= 1, got -3"),
    (dict(mlp_dropout=1.0), "mlp_dropout must be in [0, 1)"),
    (dict(mlp_dropout=-0.1), "mlp_dropout must be in [0, 1)"),
    (dict(epsilon=0.0), "epsilon must be positive"),
    (dict(epsilon=float("nan")),
     "epsilon must be positive and finite, got nan"),
    (dict(epsilon=float("inf")),
     "epsilon must be positive and finite, got inf"),
], ids=repr)
def test_config_validation(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MicaConfig(**bad)


def _qkv(p_v=4, d_k=4):
    """q, k and v arrays of shape (1, 2, 1, patches, dim): 4 patches of
    dim 4, except ``p_v`` value patches and a key dim of ``d_k``."""
    rng = np.random.default_rng(19)
    return (rng.normal(size=(1, 2, 1, 4, 4)),
            rng.normal(size=(1, 2, 1, 4, d_k)),
            rng.normal(size=(1, 2, 1, p_v, 4)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: local_attention(*_qkv(p_v=3)), ShapeError,
     "key and value patch counts differ"),
    (lambda: global_memory(*_qkv(p_v=3)[1:]), ShapeError,
     "keys (1, 2, 1, 4, 4) and values (1, 2, 1, 3, 4) differ before the "
     "head dimension"),
    (lambda: MicaAttention(8, MicaConfig(n_heads=2, d_k=4, d_v=4,
                                         weight_mode="static"),
                           np.random.default_rng(0)), ValueError,
     "static channel weights need n_channels"),
    (lambda: fused_forward(*_qkv(d_k=3), beta=0.0, block_rows=2,
                           block_cols=2), ShapeError,
     "fused path needs query dim == key dim"),
], ids=["local_patches", "memory_patches", "static_weights", "fused_dims"])
def test_rejected_attention_inputs_say_why(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_split_merge_heads_roundtrip():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(2, 3, 5, 12)))
    assert np.array_equal(merge_heads(split_heads(x, 4)).data, x.data)
    with pytest.raises(ShapeError):
        split_heads(x, 5)


# -- fused streaming path ----------------------------------------------------------

def reference_mixed(q, k, v, beta, eps=1e-6):
    a_l = local_attention(q, k, v)
    mem, z = global_memory(k, v)
    a_g = global_attention(q, mem, z, eps=eps)
    return mix(a_l, a_g, sigmoid(Tensor(beta))).data


def test_fused_forward_matches_reference_all_block_sizes():
    rng = np.random.default_rng(18)
    p = 8
    for _ in range(5):
        q, k, v = rand_qkv(rng, b=2, c=3, n=2, p=p, dk=4, dv=5)
        beta = center_beta(rng.uniform(0, 1e-2, size=(1, 1, 2, 1, 1)))
        want = reference_mixed(q, k, v, beta)
        for br, bc in [(1, 1), (2, 3), (p // 2, p // 2), (p, p), (p, 1)]:
            got = fused_forward(q.data, k.data, v.data, beta, br, bc)
            npt.assert_allclose(got, want, atol=1e-12)


def test_fused_forward_rejects_gate_channel_mismatch():
    rng = np.random.default_rng(21)
    q, k, v = rand_qkv(rng, b=1, c=5, n=2, p=4, dk=4, dv=3)
    with pytest.raises(ShapeError):
        fused_forward(q.data, k.data, v.data, np.zeros((1, 3, 2, 1, 1)), 2, 2)
    for slots in (1, 5):
        beta = rng.normal(size=(1, slots, 2, 1, 1))
        npt.assert_allclose(fused_forward(q.data, k.data, v.data, beta, 2, 2),
                            reference_mixed(q, k, v, beta), atol=1e-12)


def test_fused_forward_with_one_key_tile_is_the_reference_graph():
    # one (P x P) tile per leading index gives _attend's bits, and the
    # global read, gate and blend are the graph's own ops
    rng = np.random.default_rng(26)
    p = 6
    for slots in (1, 3):
        q, k, v = rand_qkv(rng, b=2, c=3, n=2, p=p, dk=4, dv=5)
        beta = rng.normal(size=(1, slots, 2, 1, 1))
        want = reference_mixed(q, k, v, beta)
        for br in (p, 2 * p):
            npt.assert_allclose(fused_forward(q.data, k.data, v.data, beta,
                                              br, p), want, rtol=0, atol=0)


def test_fused_forward_keeps_phi_floor_where_exp_underflows():
    # phi(-800) underflows exp; the tape floors it at the smallest positive
    # double, so with eps = 0 the global read is a ratio of equal tiny sums
    q = Tensor(np.zeros((1, 2, 1, 3, 2)))
    k = Tensor(np.full((1, 2, 1, 3, 2), -800.0))
    v = Tensor(np.ones((1, 2, 1, 3, 2)))
    beta = np.zeros((1, 1, 1, 1, 1))
    want = reference_mixed(q, k, v, beta, eps=0.0)
    npt.assert_allclose(want, 1.0, atol=0)
    got = fused_forward(q.data, k.data, v.data, beta, 2, 2, eps=0.0)
    npt.assert_allclose(got, want, atol=0)


def test_online_softmax_running_max_monotone():
    rng = np.random.default_rng(19)
    m = np.full((1, 1, 2), -np.inf)
    l = np.zeros((1, 1, 2))
    acc = np.zeros((1, 1, 2, 3))
    prev = m.copy()
    for _ in range(6):
        s = rng.normal(size=(1, 1, 2, 4)) * 3
        vals = rng.normal(size=(1, 1, 4, 3))
        m, l = online_softmax_update(m, l, acc, s, vals, 0.5)
        assert np.all(m >= prev)
        prev = m.copy()
    assert np.all(l > 0)


@pytest.mark.parametrize("shape", [(2, 3, 2, 8, 4), (1, 2, 3, 1, 5)])
def test_attend_tiles_with_one_key_tile_is_attend(shape):
    # one tile of every key per row block is _attend on that row block
    rng = np.random.default_rng(22)
    q, k, v = (rng.normal(size=shape) for _ in range(3))
    p = shape[-2]
    for rows in (1, 3, p):
        want = np.empty(shape)
        for idx in np.ndindex(shape[:-2]):
            for i0 in range(0, p, rows):
                want[idx][i0:i0 + rows] = _attend(q[idx][i0:i0 + rows],
                                                  k[idx], v[idx], 0.5)[0]
        npt.assert_allclose(_attend_tiles(q, k, v, 0.5, rows, p), want,
                            rtol=0, atol=0)


def test_fused_forward_tiles_fit_the_blocks(monkeypatch):
    rng = np.random.default_rng(23)
    q, k, v = rand_qkv(rng, b=1, c=2, n=2, p=7, dk=4, dv=3)
    beta = np.zeros((1, 1, 2, 1, 1))
    for br, bc in [(1, 1), (2, 3), (3, 7), (7, 2), (9, 9)]:
        tiles = record_tiles(monkeypatch)
        fused_forward(q.data, k.data, v.data, beta, br, bc)
        assert tiles and all(r <= br and c <= bc for r, c in tiles)
        # every (query, key) score is computed exactly once
        assert sum(r * c for r, c in tiles) == 1 * 2 * 2 * 7 * 7


def test_fused_forward_rejects_bad_blocks():
    rng = np.random.default_rng(20)
    q, k, v = rand_qkv(rng)
    with pytest.raises(ValueError):
        fused_forward(q.data, k.data, v.data, np.zeros((1, 1, 2, 1, 1)), 0, 1)


# -- the absorbing ops under a forecast's one finite check ---------------------

def _absorbing_calls():
    """Each op that maps a non-finite input to a finite output, called on
    one: softmax weight 0 for a -inf score, phi's floor for -inf keys or
    queries, and sigmoid(-inf) = 0."""
    rng = np.random.default_rng(0)
    q = np.abs(rng.normal(size=(1, 2, 1, 3, 4)))
    k, v = rng.normal(size=(1, 2, 1, 3, 4)), rng.normal(size=(1, 2, 1, 3, 4))
    k_bad, q_bad = k.copy(), q.copy()
    k_bad[0, 1, 0, 2, 0] = -np.inf                   # q > 0: score -inf
    q_bad[0, 0, 0, 1, :] = -np.inf
    m, z = global_memory(Tensor(k), Tensor(v))
    return {
        "local_attention": lambda: local_attention(Tensor(q), Tensor(k_bad),
                                                   Tensor(v)),
        "global_memory": lambda: global_memory(Tensor(k_bad), Tensor(v))[0],
        "global_attention": lambda: global_attention(Tensor(q_bad), m, z),
        "sigmoid": lambda: sigmoid(Tensor([0.5, -np.inf])),
    }


@pytest.mark.parametrize("op", ["local_attention", "global_memory",
                                "global_attention", "sigmoid"])
def test_absorbing_op_input_check_forces_a_checked_replay(op):
    call = _absorbing_calls()[op]
    want = call().data                               # per-op checks: finite
    assert np.all(np.isfinite(want))
    passes = []
    got = checked_once(lambda: passes.append(1) or call())
    assert len(passes) == 2
    assert got.data.tobytes() == want.tobytes()
