import numpy as np
import numpy.testing as npt
import pytest

from mica.attention import (MicaAttention, MicaConfig, global_attention,
                            global_memory, local_attention, mix)
from mica.backbone import ForecastModel, ModelConfig
from mica.gradcheck import gradcheck
from mica.tensor import Tensor, phi, sigmoid, softmax_lastdim


def block_loss_fn(block, x, proj):
    def f():
        res = block(x)
        return (res.out * proj).sum()
    return f


def make_case(gate, exclusion, weight_mode="uniform", seed=0):
    rng = np.random.default_rng(seed)
    cfg = MicaConfig(n_heads=2, d_k=4, d_v=4, gate=gate, mlp_hidden=8,
                     exclusion=exclusion, weight_mode=weight_mode)
    block = MicaAttention(8, cfg, rng, n_channels=3)
    x = Tensor(rng.normal(size=(1, 3, 4, 8)), requires_grad=True)
    proj = Tensor(rng.normal(size=(1, 3, 4, 8)))
    params = block.named_parameters()
    params["x"] = x
    return block_loss_fn(block, x, proj), params


@pytest.mark.parametrize("gate,exclusion", [
    ("shared_beta", False),
    ("channelwise_beta", True),
    ("mlp_query", True),
])
def test_block_gradcheck(gate, exclusion):
    f, params = make_case(gate, exclusion)
    report = gradcheck(f, params)
    assert report.passed, report.per_input


@pytest.mark.parametrize("weight_mode,exclusion", [
    pytest.param("static", False, id="static"),
    pytest.param("dynamic", False, id="dynamic"),
    pytest.param("static", True, id="static-exclusion"),
    pytest.param("dynamic", True, id="dynamic-exclusion"),
])
def test_block_gradcheck_weight_modes(weight_mode, exclusion):
    f, params = make_case("shared_beta", exclusion, weight_mode=weight_mode,
                          seed=1)
    report = gradcheck(f, params)
    assert report.passed, report.per_input


# -- each attention op against the composed tape ops it replaces ---------------

def composed_local(q, k, v):
    scale = 1.0 / np.sqrt(k.shape[-1])
    return softmax_lastdim((q @ k.swapaxes(-1, -2)) * scale) @ v


def composed_memory(k, v, weights=None, exclusion=False):
    pk = phi(k)
    own_m = pk.swapaxes(-1, -2) @ v
    own_z = pk.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
    if weights is not None:
        own_m = own_m * weights
        own_z = own_z * weights
    m_all = own_m.sum(axis=1, keepdims=True)
    z_all = own_z.sum(axis=1, keepdims=True)
    if exclusion:
        return m_all - own_m, z_all - own_z
    return m_all, z_all


def composed_read(q, memory, z, eps):
    pq = phi(q)
    return (pq @ memory) / ((pq @ z) + eps)


def composed_mix(a_local, a_global, gate_weight):
    return gate_weight * a_global + (1.0 - gate_weight) * a_local


def run_block_ops(arrays, weight_mode, exclusion, ops):
    """Every intermediate of local, memory, read and mix, and the leaf
    gradients of a loss that weighs each intermediate separately."""
    local, memory, read, blend = ops
    t = {name: Tensor(a.copy(), requires_grad=True)
         for name, a in arrays.items()}
    w = None if weight_mode == "uniform" else t[weight_mode]
    a_l = local(t["q"], t["k"], t["v"])
    m, z = memory(t["k"], t["v"], weights=w, exclusion=exclusion)
    a_g = read(t["q"], m, z, 1e-6)
    out = blend(a_l, a_g, sigmoid(t["beta"]))
    outs = [a_l, m, z, a_g, out]
    loss = sum((o * Tensor(np.random.default_rng(i).normal(size=o.shape)))
               .sum() for i, o in enumerate(outs))
    loss.backward()
    used = {"q", "k", "v", "beta"} | ({weight_mode} - {"uniform"})
    return [o.data for o in outs], {n: t[n].grad for n in sorted(used)}


@pytest.mark.parametrize("exclusion", [False, True])
@pytest.mark.parametrize("weight_mode", ["uniform", "static", "dynamic"])
def test_attention_ops_match_composed_oracle(weight_mode, exclusion):
    rng = np.random.default_rng(31)
    b, c, n, p, dk, dv = 2, 3, 2, 5, 4, 3
    arrays = {
        "q": rng.normal(0.0, 1.5, size=(b, c, n, p, dk)),
        "k": rng.normal(0.0, 1.5, size=(b, c, n, p, dk)),
        "v": rng.normal(size=(b, c, n, p, dv)),
        "static": rng.uniform(0.2, 3.0, size=(1, c, 1, 1, 1)),
        "dynamic": rng.normal(1.0, 0.3, size=(b, c, n, 1, 1)),
        "beta": rng.normal(size=(1, c, n, 1, 1)),
    }
    outs, grads = run_block_ops(arrays, weight_mode, exclusion,
                                (local_attention, global_memory,
                                 global_attention, mix))
    want_outs, want_grads = run_block_ops(
        arrays, weight_mode, exclusion,
        (composed_local, composed_memory, composed_read, composed_mix))
    for got, want in zip(outs, want_outs):
        npt.assert_allclose(got, want, rtol=0, atol=0)
    for name, want in want_grads.items():
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-12,
                            err_msg=name)


def test_quick_start_forward_records_at_most_52_ops():
    # the README quick-start model; every op of a forward with gradients on
    # is an interior node of the graph under its output (each residual add
    # is part of its layer_norm node)
    cfg = ModelConfig(horizon=24, input_size=96, n_layers=2, d_model=64,
                      n_heads=4, d_k=16, d_v=16, ff_hidden=128,
                      mica=MicaConfig(n_heads=4, d_k=16, d_v=16))
    model = ForecastModel(cfg, 7, seed=1)
    y = np.random.default_rng(0).normal(size=(1, 7, 96))
    seen, stack, ops = set(), [model.forward(y)], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._backward is not None
        stack.extend(node._parents)
    assert ops <= 52, ops
