"""Gated local/global attention over per-channel patch tokens.

Layout convention: (B, C, N, P, d) = batch, channels, heads, patches per
channel, head dimension.  The local path is plain scaled dot-product
softmax attention within each channel.  The global path compresses all
channels into one kernelized key-value memory (phi(K)^T V summed over
channels and patches) and reads it with phi(Q), which costs O(P*C) instead
of O((P*C)^2).  A learnable gate mixes the two per head.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import Linear, Module, dropout
from .tensor import (ShapeError, Tensor, _make, _unbroadcast, as_tensor,
                     concat, gelu, phi_grad, phi_np, sigmoid, sigmoid_np,
                     softmax_np)

GATE_KINDS = ("shared_beta", "layerwise_beta", "channelwise_beta",
              "layerwise_channelwise_beta", "mlp", "mlp_query")
WEIGHT_MODES = ("uniform", "static", "dynamic")


@dataclass
class MicaConfig:
    """Settings for one gated local/global attention block."""
    n_heads: int = 4
    d_k: int = 32
    d_v: int = 32
    d_q: int | None = None  # defaults to d_k; must equal d_k to read memory
    gate: str = "shared_beta"
    mlp_hidden: int = 128
    mlp_layers: int = 2
    mlp_dropout: float = 0.0
    exclusion: bool = False
    weight_mode: str = "uniform"
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.d_q is None:
            self.d_q = self.d_k
        if min(self.n_heads, self.d_k, self.d_v, self.d_q) < 1:
            raise ValueError("head count and head dims must be positive")
        if self.d_q != self.d_k:
            raise ValueError(
                f"d_q ({self.d_q}) must equal d_k ({self.d_k}) so phi(Q) can "
                "address the compressed memory")
        if self.gate not in GATE_KINDS:
            raise ValueError(f"unknown gate kind '{self.gate}'")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode '{self.weight_mode}'")
        if self.mlp_layers < 2:
            raise ValueError("gate mlp needs at least 2 layers")
        if not 0.0 <= self.mlp_dropout < 1.0:
            raise ValueError("mlp_dropout must be in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def channelwise(self) -> bool:
        return self.gate in ("channelwise_beta", "layerwise_channelwise_beta")

    @property
    def layerwise(self) -> bool:
        return self.gate in ("layerwise_beta", "layerwise_channelwise_beta",
                             "mlp", "mlp_query")


@dataclass
class AttentionOutput:
    """All intermediate attention products of one block."""
    a_local: Tensor            # (B,C,N,P,d_v)
    a_global: Optional[Tensor]  # (B,C,N,P,d_v); None for a local-only block
    a_mixed: Tensor            # (B,C,N,P,d_v)
    gate_weight: Optional[Tensor]
    out: Tensor                # (B,C,P,d_model) after the output projection


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B,C,P,N*dh) -> (B,C,N,P,dh)."""
    b, c, p, nd = x.shape
    if nd % n_heads:
        raise ShapeError(f"feature dim {nd} not divisible by {n_heads} heads")
    return x.reshape(b, c, p, n_heads, nd // n_heads).swapaxes(2, 3)


def merge_heads(x: Tensor) -> Tensor:
    """(B,C,N,P,dh) -> (B,C,P,N*dh)."""
    b, c, n, p, dh = x.shape
    return x.swapaxes(2, 3).reshape(b, c, p, n * dh)


def local_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product softmax attention within each channel, as one op."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query dim {q.shape[-1]} != key dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("key and value patch counts differ")
    scale = 1.0 / np.sqrt(k.shape[-1])
    scores = np.matmul(q.data, k.data.swapaxes(-1, -2))
    scores *= scale
    attn = softmax_np(scores)
    out = np.matmul(attn, v.data)

    def backward(g):
        if v.requires_grad:
            gv = np.matmul(attn.swapaxes(-1, -2), g)
            v._accumulate(_unbroadcast(gv, v.shape), owned=True)
        if q.requires_grad or k.requires_grad:
            # d scores = attn * (d attn - sum(d attn * attn)) * scale
            gs = np.matmul(g, v.data.swapaxes(-1, -2))
            gs -= (gs * attn).sum(axis=-1, keepdims=True)
            gs *= attn
            gs *= scale
            if q.requires_grad:
                q._accumulate(_unbroadcast(np.matmul(gs, k.data), q.shape),
                              owned=True)
            if k.requires_grad:
                gk = np.matmul(gs.swapaxes(-1, -2), q.data)
                k._accumulate(_unbroadcast(gk, k.shape), owned=True)

    return _make(out, "local_attention", (q, k, v), backward)


def global_memory_np(pk: np.ndarray, v: np.ndarray,
                     weights: np.ndarray | None = None,
                     exclusion: bool = False):
    """The memory written by phi(K) = ``pk`` and V, on ndarrays: the numpy
    kernel behind ``global_memory``, also used by ``fused_forward``.

    Returns (M, z, own_m, own_z): the memory and key-sum normalizer as
    ``global_memory`` describes them, and each channel's unweighted write
    phi(K)^T V and sum_p phi(K)^T, which its backward needs.
    """
    own_m = np.matmul(pk.swapaxes(-1, -2), v)        # (B,C,N,d_k,d_v)
    own_z = pk.sum(axis=-2, keepdims=True).swapaxes(-1, -2)   # (B,C,N,d_k,1)
    wm, wz = own_m, own_z
    if weights is not None:
        wm, wz = own_m * weights, own_z * weights
    m = wm.sum(axis=1, keepdims=True)                # (B,1,N,d_k,d_v)
    z = wz.sum(axis=1, keepdims=True)
    if exclusion:
        m, z = m - wm, z - wz
    return m, z, own_m, own_z


def global_memory(k: Tensor, v: Tensor, weights: Tensor | None = None,
                  exclusion: bool = False) -> tuple[Tensor, Tensor]:
    """Compress all channels into a kernelized key-value memory.

    Returns (M, z) with shapes (B,1,N,d_k,d_v) and (B,1,N,d_k,1), or
    (B,C,N,...) under exclusion where channel c sees every channel but
    itself.  Optional per-channel weights (broadcastable to (B,C,N,1,1))
    rescale each channel's contribution; exclusion removes the weighted
    own term so the decomposition M_excl(c) + w_c * own(c) = M_all holds
    in every weight mode.  M and z are two tape ops sharing one phi(K).
    """
    k, v = as_tensor(k), as_tensor(v)
    w = None if weights is None else as_tensor(weights)
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"keys {k.shape} and values {v.shape} differ "
                         "before the head dimension")
    pk = phi_np(k.data)                              # (B,C,N,P,d_k)
    m, z, own_m, own_z = global_memory_np(
        pk, v.data, None if w is None else w.data, exclusion)

    def own_grad(g, own):
        """Gradient of one channel's unweighted write from that of M or z;
        adds the weights' share on the way."""
        if exclusion:
            g = g.sum(axis=1, keepdims=True) - g
        if w is None:
            return g
        if w.requires_grad:
            gw = (g * own).sum(axis=(-2, -1), keepdims=True)
            w._accumulate(_unbroadcast(gw, w.shape), owned=True)
        return g * w.data

    def backward_m(g):
        g = own_grad(g, own_m)                       # (B,1|C,N,d_k,d_v)
        if v.requires_grad:
            v._accumulate(np.matmul(pk, g), owned=True)
        if k.requires_grad:
            gk = np.matmul(v.data, g.swapaxes(-1, -2))
            gk *= phi_grad(pk)
            k._accumulate(gk, owned=True)

    def backward_z(g):
        g = own_grad(g, own_z)                       # (B,1|C,N,d_k,1)
        if k.requires_grad:
            k._accumulate(g.swapaxes(-1, -2) * phi_grad(pk), owned=True)

    extra = () if w is None else (w,)
    return (_make(m, "global_memory", (k, v) + extra, backward_m),
            _make(z, "global_memory", (k,) + extra, backward_z))


def global_attention_np(pq: np.ndarray, memory: np.ndarray, z: np.ndarray,
                        eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Read the memory with phi(Q) = ``pq`` on ndarrays: the numpy kernel
    behind ``global_attention``, also used by ``fused_forward``.  Returns
    the read and its denominator phi(Q) z + eps."""
    den = np.matmul(pq, z)
    den += eps
    return np.matmul(pq, memory) / den, den


def global_attention(q: Tensor, memory: Tensor, z: Tensor,
                     eps: float = 1e-6) -> Tensor:
    """Read the compressed memory with phi(Q); linear in channel count."""
    q, memory, z = as_tensor(q), as_tensor(memory), as_tensor(z)
    if q.shape[-1] != memory.shape[-2]:
        raise ShapeError(
            f"query dim {q.shape[-1]} cannot address memory with "
            f"d_k={memory.shape[-2]}")
    pq = phi_np(q.data)                              # (B,C,N,P,d_k)
    out, den = global_attention_np(pq, memory.data, z.data, eps)

    def backward(g):
        gn = g / den                                 # d numerator
        gd = (gn * out).sum(axis=-1, keepdims=True)  # minus d denominator
        if q.requires_grad:
            gq = np.matmul(gn, memory.data.swapaxes(-1, -2))
            gq -= gd * z.data.swapaxes(-1, -2)
            gq *= phi_grad(pq)
            q._accumulate(gq, owned=True)
        pq_t = pq.swapaxes(-1, -2)
        if memory.requires_grad:
            memory._accumulate(
                _unbroadcast(np.matmul(pq_t, gn), memory.shape), owned=True)
        if z.requires_grad:
            gz = np.matmul(pq_t, gd)
            np.negative(gz, out=gz)
            z._accumulate(_unbroadcast(gz, z.shape), owned=True)

    return _make(out, "global_attention", (q, memory, z), backward)


def mix(a_local: Tensor, a_global: Tensor, gate_weight) -> Tensor:
    """Convex head-wise blend: g * global + (1 - g) * local, as one op."""
    al, ag, gw = as_tensor(a_local), as_tensor(a_global), as_tensor(gate_weight)
    out = gw.data * ag.data
    out += (1.0 - gw.data) * al.data

    def backward(g):
        if ag.requires_grad:
            ag._accumulate(_unbroadcast(g * gw.data, ag.shape), owned=True)
        if al.requires_grad:
            al._accumulate(_unbroadcast(g * (1.0 - gw.data), al.shape),
                           owned=True)
        if gw.requires_grad:
            gg = g * (ag.data - al.data)
            gw._accumulate(_unbroadcast(gg, gw.shape), owned=True)

    return _make(out, "mix", (al, ag, gw), backward)


def center_beta(beta: np.ndarray, head_axis: int = 2) -> np.ndarray:
    """Remove the mean across heads so the gate starts balanced."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[head_axis] == 0:
        raise ShapeError("center_beta needs at least one head")
    return beta - beta.mean(axis=head_axis, keepdims=True)


class BetaGate(Module):
    """Scalar-per-head mixing; init U(0, 1e-2) then centered across heads."""

    def __init__(self, n_heads: int, rng: np.random.Generator,
                 n_channels: int = 1):
        raw = rng.uniform(0.0, 1e-2, size=(1, n_channels, n_heads, 1, 1))
        self.beta = Tensor(center_beta(raw), requires_grad=True)

    def __call__(self, a_local: Tensor, a_global: Tensor, q=None,
                 training: bool = False, rng=None) -> tuple[Tensor, Tensor]:
        c_gate, c_in = self.beta.shape[1], a_local.shape[1]
        if c_gate not in (1, c_in):
            raise ShapeError(
                f"gate holds {c_gate} channel slots but input has {c_in}")
        g = sigmoid(self.beta)
        return mix(a_local, a_global, g), g


class MlpGate(Module):
    """Token-conditional mixing: an MLP over the concatenated head outputs
    (optionally plus projected queries) emits one weight per head."""

    def __init__(self, n_heads: int, d_v: int, rng: np.random.Generator,
                 hidden: int = 128, n_layers: int = 2, p_drop: float = 0.0,
                 d_q: int | None = None):
        in_dim = 2 * n_heads * d_v + (n_heads * d_q if d_q else 0)
        dims = [in_dim] + [hidden] * (n_layers - 1) + [n_heads]
        self.layers = [Linear(dims[i], dims[i + 1], rng)
                       for i in range(len(dims) - 1)]
        self._p_drop = p_drop
        self._uses_query = d_q is not None

    def __call__(self, a_local: Tensor, a_global: Tensor, q: Tensor = None,
                 training: bool = False, rng=None) -> tuple[Tensor, Tensor]:
        feats = [merge_heads(a_local), merge_heads(a_global)]
        if self._uses_query:
            if q is None:
                raise ValueError("query-conditioned gate called without q")
            feats.append(merge_heads(q))
        h = concat(feats, axis=-1)                   # (B,C,P,in_dim)
        for lin in self.layers[:-1]:
            h = dropout(gelu(lin(h)), self._p_drop, training, rng)
        logits = self.layers[-1](h)                  # (B,C,P,N)
        b, c, p, n = logits.shape
        g = sigmoid(logits).reshape(b, c, p, n, 1).swapaxes(2, 3)
        return mix(a_local, a_global, g), g


def make_gate(cfg: MicaConfig, rng: np.random.Generator,
              n_channels: int = 1) -> Module:
    """Build the gate object a block (or encoder, when shared) owns."""
    if cfg.gate in ("mlp", "mlp_query"):
        return MlpGate(cfg.n_heads, cfg.d_v, rng, hidden=cfg.mlp_hidden,
                       n_layers=cfg.mlp_layers, p_drop=cfg.mlp_dropout,
                       d_q=cfg.d_q if cfg.gate == "mlp_query" else None)
    return BetaGate(cfg.n_heads, rng,
                    n_channels=n_channels if cfg.channelwise else 1)


class MicaAttention(Module):
    """One attention block: QKV projections, local + compressed-global
    paths, gate, output projection.

    Pass ``gate`` to share one gate object across blocks; the sharer owns
    the parameters, this block only references them.
    """

    def __init__(self, d_model: int, cfg: MicaConfig,
                 rng: np.random.Generator, n_channels: int | None = None,
                 gate: Module | None = None):
        self._cfg = cfg
        n = cfg.n_heads
        self.w_q = Linear(d_model, n * cfg.d_q, rng)
        self.w_k = Linear(d_model, n * cfg.d_k, rng)
        self.w_v = Linear(d_model, n * cfg.d_v, rng)
        self.w_out = Linear(n * cfg.d_v, d_model, rng)
        if cfg.weight_mode == "static":
            if n_channels is None:
                raise ValueError("static channel weights need n_channels")
            self.channel_weights = Tensor(
                np.ones((1, n_channels, 1, 1, 1)), requires_grad=True)
        elif cfg.weight_mode == "dynamic":
            # starts near uniform weighting (w ~= 1 for every channel)
            self.weight_proj = Linear(cfg.d_q, 1, rng)
            self.weight_proj.weight.data = rng.normal(
                0.0, 1e-3, size=self.weight_proj.weight.shape)
            self.weight_proj.bias.data[:] = 1.0
        if gate is None:
            if cfg.channelwise and n_channels is None:
                raise ValueError("channelwise gate needs n_channels")
            self.gate = make_gate(cfg, rng, n_channels or 1)
            self._gate = self.gate
        else:
            self._gate = gate

    def channel_weight_values(self, q: Tensor) -> Tensor | None:
        if self._cfg.weight_mode == "static":
            return self.channel_weights
        if self._cfg.weight_mode == "dynamic":
            pooled = q.sum(axis=-2, keepdims=True)   # (B,C,N,1,d_q)
            return self.weight_proj(pooled)          # (B,C,N,1,1)
        return None

    def __call__(self, x: Tensor, mix_override: float | None = None,
                 training: bool = False, rng=None) -> AttentionOutput:
        cfg = self._cfg
        q = split_heads(self.w_q(x), cfg.n_heads)
        k = split_heads(self.w_k(x), cfg.n_heads)
        v = split_heads(self.w_v(x), cfg.n_heads)
        a_local = local_attention(q, k, v)
        weights = self.channel_weight_values(q)
        memory, z = global_memory(k, v, weights=weights,
                                  exclusion=cfg.exclusion)
        a_global = global_attention(q, memory, z, eps=cfg.epsilon)
        if mix_override is not None:
            g = Tensor(np.float64(mix_override))
            a_mixed = mix(a_local, a_global, g)
        else:
            needs_q = cfg.gate == "mlp_query"
            a_mixed, g = self._gate(a_local, a_global,
                                    q=q if needs_q else None,
                                    training=training, rng=rng)
        out = self.w_out(merge_heads(a_mixed))
        return AttentionOutput(a_local, a_global, a_mixed, g, out)


class LocalAttention(Module):
    """Baseline block: the local softmax path only."""

    def __init__(self, d_model: int, n_heads: int, d_k: int, d_v: int,
                 rng: np.random.Generator):
        self._n_heads = n_heads
        self.w_q = Linear(d_model, n_heads * d_k, rng)
        self.w_k = Linear(d_model, n_heads * d_k, rng)
        self.w_v = Linear(d_model, n_heads * d_v, rng)
        self.w_out = Linear(n_heads * d_v, d_model, rng)

    def __call__(self, x: Tensor, mix_override=None, training: bool = False,
                 rng=None) -> AttentionOutput:
        q = split_heads(self.w_q(x), self._n_heads)
        k = split_heads(self.w_k(x), self._n_heads)
        v = split_heads(self.w_v(x), self._n_heads)
        a_local = local_attention(q, k, v)
        out = self.w_out(merge_heads(a_local))
        return AttentionOutput(a_local, None, a_local, None, out)


# -- fused streaming evaluation (inference path, no tape) --------------------

def online_softmax_update(m, l, acc, scores, values):
    """One block step of streaming softmax attention.

    m: running row max (..., rows); l: running normalizer; acc: running
    unnormalized output (..., rows, d_v); scores: (..., rows, cols) for the
    incoming key block; values: (..., cols, d_v).  Returns updated
    (m, l, acc); m never decreases.
    """
    m_new = np.maximum(m, scores.max(axis=-1))
    correction = np.exp(m - m_new)
    p = np.exp(scores - m_new[..., None])
    l_new = correction * l + p.sum(axis=-1)
    acc_new = acc * correction[..., None] + np.matmul(p, values)
    return m_new, l_new, acc_new


def fused_forward(q, k, v, beta, block_rows: int, block_cols: int,
                  eps: float = 1e-6) -> np.ndarray:
    """Two-pass fused evaluation of the mixed attention output.

    Pass 1 writes the channel-compressed memory and reads it with phi(Q),
    through the same kernels as the tape ops; pass 2 streams each
    channel's local attention in (block_rows x block_cols) score tiles with
    an online softmax, then blends with the global read using sigmoid(beta).
    Pure numpy, O(block_rows * block_cols) score storage per tile.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    beta = np.asarray(beta, dtype=np.float64)
    b, c, n, p, d_k = k.shape
    d_v = v.shape[-1]
    if q.shape[-1] != d_k:
        raise ShapeError("fused path needs d_q == d_k")
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block sizes must be >= 1")
    if beta.shape[1] not in (1, c):
        raise ShapeError(
            f"gate holds {beta.shape[1]} channel slots but input has {c}")
    scale = 1.0 / np.sqrt(d_k)

    memory, z = global_memory_np(phi_np(k), v)[:2]
    glob = global_attention_np(phi_np(q), memory, z, eps)[0]

    gate = np.broadcast_to(sigmoid_np(beta), (1, c, n, 1, 1))
    out = np.empty((b, c, n, p, d_v))
    for ci in range(c):
        qc, kc, vc = q[:, ci], k[:, ci], v[:, ci]    # (B,N,P,d)
        local = np.empty((b, n, p, d_v))
        for i0 in range(0, p, block_rows):
            i1 = min(i0 + block_rows, p)
            rows = i1 - i0
            qb = qc[:, :, i0:i1]
            m = np.full((b, n, rows), -np.inf)
            l = np.zeros((b, n, rows))
            acc = np.zeros((b, n, rows, d_v))
            for j0 in range(0, p, block_cols):
                j1 = min(j0 + block_cols, p)
                s = np.matmul(qb, kc[:, :, j0:j1].swapaxes(-1, -2)) * scale
                m, l, acc = online_softmax_update(m, l, acc, s,
                                                  vc[:, :, j0:j1])
            local[:, :, i0:i1] = acc / l[..., None]
        out[:, ci] = gate[:, ci] * glob[:, ci] + (1.0 - gate[:, ci]) * local
    return out
