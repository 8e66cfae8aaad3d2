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
                     concat, gelu, phi_grad, phi_np, records, sigmoid,
                     sigmoid_np, softmax_np)

GATE_KINDS = ("shared_beta", "layerwise_beta", "channelwise_beta",
              "layerwise_channelwise_beta", "mlp", "mlp_query")
WEIGHT_MODES = ("uniform", "static", "dynamic")


@dataclass
class MicaConfig:
    """Settings for one gated local/global attention block."""
    n_heads: int = 4
    d_k: int = 32
    d_v: int = 32
    gate: str = "shared_beta"
    mlp_hidden: int = 128
    mlp_layers: int = 2
    mlp_dropout: float = 0.0
    exclusion: bool = False
    weight_mode: str = "uniform"
    epsilon: float = 1e-6

    def __post_init__(self):
        if min(self.n_heads, self.d_k, self.d_v) < 1:
            raise ValueError("head count and head dims must be positive")
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

    @property
    def gate_layers(self) -> list[tuple[int, int]]:
        """(in, out) of each Linear of the gate MLP, which reads both paths'
        heads (and the queries' for mlp_query); empty for a beta gate."""
        if self.gate not in ("mlp", "mlp_query"):
            return []
        d_in = 2 * self.d_v + (self.d_k if self.gate == "mlp_query" else 0)
        dims = ([d_in * self.n_heads] + [self.mlp_hidden] *
                (self.mlp_layers - 1) + [self.n_heads])
        return list(zip(dims, dims[1:]))


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


# query rows per score tile of an untaped local attention over a long axis
ROW_BLOCK = 1024


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float):
    """softmax(q k^T * scale) @ v on ndarrays; returns it and the softmax."""
    attn = np.matmul(q, k.swapaxes(-1, -2))
    attn *= scale
    softmax_np(attn, out=attn)
    return np.matmul(attn, v), attn


def online_softmax_update(m, l, acc, scores, values, scale: float):
    """One key-tile step of streaming softmax attention (Milakov and
    Gimelshein, arXiv:1805.02867) in normalized form.  m, l: running row max
    and normalizer (..., rows); acc: the output over the keys so far (...,
    rows, d_v), divided by l, updated in place; scores: the unscaled q k^T
    of the key tile (..., rows, cols), overwritten; values: (..., cols,
    d_v).  Returns the new (m, l); m never decreases.  From m = -inf and
    l = acc = 0, one tile of every key gives ``_attend``'s bits."""
    scores *= scale
    m_new = np.maximum(m, scores.max(axis=-1))
    scores -= m_new[..., None]
    np.exp(scores, out=scores)
    kept = np.exp(m - m_new) * l                     # old weight at m_new
    l_new = kept + scores.sum(axis=-1)
    scores /= l_new[..., None]
    acc *= (kept / l_new)[..., None]
    acc += np.matmul(scores, values)
    return m_new, l_new


def _attend_tiles(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float,
                  block_rows: int, block_cols: int) -> np.ndarray:
    """softmax(q k^T * scale) @ v on ndarrays, streamed: per leading index,
    each block of ``block_rows`` queries reads the keys in tiles of
    ``block_cols`` through ``online_softmax_update``, so at most one
    (block_rows, block_cols) score tile is alive at a time."""
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    qs, ks, vs = (np.broadcast_to(a, lead + a.shape[-2:]) for a in (q, k, v))
    out = np.zeros(lead + (q.shape[-2], v.shape[-1]))
    for idx in np.ndindex(lead):
        for i0 in range(0, q.shape[-2], block_rows):
            rows = slice(i0, i0 + block_rows)
            acc = out[idx][rows]                     # a view: filled in place
            m, l = np.full(acc.shape[:-1], -np.inf), np.zeros(acc.shape[:-1])
            for j0 in range(0, k.shape[-2], block_cols):
                cols = slice(j0, j0 + block_cols)
                # the tile is passed, not named, so it dies with the call
                m, l = online_softmax_update(
                    m, l, acc, np.matmul(qs[idx][rows],
                                         ks[idx][cols].swapaxes(-1, -2)),
                    vs[idx][cols], scale)
    return out


def local_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product softmax attention within each channel, as one op.

    When it records no tape and has more than ``ROW_BLOCK`` patches, it
    runs ``_attend_tiles`` with tiles of ``ROW_BLOCK`` query rows by every
    key, so a concat block at C=256 never holds its whole (300 MB) score
    tensor.  The tiles agree with the full tensor to rounding; shorter
    axes, and the taped op, whose backward needs the softmax, use it.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query dim {q.shape[-1]} != key dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("key and value patch counts differ")
    scale = 1.0 / np.sqrt(k.shape[-1])
    if q.shape[-2] > ROW_BLOCK and not records((q, k, v)):
        out = _attend_tiles(q.data, k.data, v.data, scale, ROW_BLOCK,
                            k.shape[-2])
        return _make(out, "local_attention", (q, k, v), None)
    out, attn = _attend(q.data, k.data, v.data, scale)

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


def center_beta(beta: np.ndarray) -> np.ndarray:
    """Remove the mean across heads (axis 2) so the gate starts balanced."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[2] == 0:
        raise ShapeError("center_beta needs at least one head")
    return beta - beta.mean(axis=2, keepdims=True)


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
    (plus the projected queries for ``mlp_query``) emits one weight per
    head.  Its layer widths are ``cfg.gate_layers``."""

    def __init__(self, cfg: MicaConfig, rng: np.random.Generator):
        self.layers = [Linear(a, b, rng) for a, b in cfg.gate_layers]
        self._p_drop = cfg.mlp_dropout
        self._uses_query = cfg.gate == "mlp_query"

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
    if cfg.gate_layers:
        return MlpGate(cfg, rng)
    return BetaGate(cfg.n_heads, rng,
                    n_channels=n_channels if cfg.channelwise else 1)


class LocalAttention(Module):
    """Baseline block: the local softmax path only.  A ``concat`` block
    attends over all C*P tokens at once, the quadratic reference: (B,C,P,d)
    is flattened to (B,1,C*P,d), so ``a_local`` is (B,1,N,C*P,d_v)."""

    def __init__(self, d_model: int, n_heads: int, d_k: int, d_v: int,
                 rng: np.random.Generator, concat: bool = False):
        self._n_heads = n_heads
        self._concat = concat
        self.w_q = Linear(d_model, n_heads * d_k, rng)
        self.w_k = Linear(d_model, n_heads * d_k, rng)
        self.w_v = Linear(d_model, n_heads * d_v, rng)
        self.w_out = Linear(n_heads * d_v, d_model, rng)

    def _heads(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Q, K and V of ``x``, each split into heads."""
        return tuple(split_heads(w(x), self._n_heads)
                     for w in (self.w_q, self.w_k, self.w_v))

    def __call__(self, x: Tensor, mix_override=None, training: bool = False,
                 rng=None) -> AttentionOutput:
        shape = x.shape
        if self._concat:
            x = x.reshape(shape[0], 1, shape[1] * shape[2], shape[3])
        a_local = local_attention(*self._heads(x))
        out = self.w_out(merge_heads(a_local))
        if self._concat:
            out = out.reshape(*shape)
        return AttentionOutput(a_local, None, a_local, None, out)


class MicaAttention(LocalAttention):
    """The local block plus the compressed-global path: its own parts are
    the channel weights of the memory write, the global read and the gate
    that blends the two paths before the shared output projection.

    Pass ``gate`` to share one gate object across blocks; the sharer owns
    the parameters, this block only references them.
    """

    def __init__(self, d_model: int, cfg: MicaConfig,
                 rng: np.random.Generator, n_channels: int | None = None,
                 gate: Module | None = None):
        super().__init__(d_model, cfg.n_heads, cfg.d_k, cfg.d_v, rng)
        self._cfg = cfg
        if cfg.weight_mode == "static":
            if n_channels is None:
                raise ValueError("static channel weights need n_channels")
            self.channel_weights = Tensor(
                np.ones((1, n_channels, 1, 1, 1)), requires_grad=True)
        elif cfg.weight_mode == "dynamic":
            # starts near uniform weighting (w ~= 1 for every channel)
            self.weight_proj = Linear(cfg.d_k, 1, rng)
            self.weight_proj.weight.data = rng.normal(
                0.0, 1e-3, size=self.weight_proj.weight.shape)
            self.weight_proj.bias.data[:] = 1.0
        if gate is None:
            if cfg.channelwise and n_channels is None:
                raise ValueError("channelwise gate needs n_channels")
            gate = self.gate = make_gate(cfg, rng, n_channels or 1)
        self._gate = gate

    def channel_weight_values(self, q: Tensor) -> Tensor | None:
        if self._cfg.weight_mode == "static":
            return self.channel_weights
        if self._cfg.weight_mode == "dynamic":
            pooled = q.sum(axis=-2, keepdims=True)   # (B,C,N,1,d_k)
            return self.weight_proj(pooled)          # (B,C,N,1,1)
        return None

    def __call__(self, x: Tensor, mix_override: float | None = None,
                 training: bool = False, rng=None) -> AttentionOutput:
        cfg = self._cfg
        q, k, v = self._heads(x)
        a_local = local_attention(q, k, v)
        weights = self.channel_weight_values(q)
        memory, z = global_memory(k, v, weights=weights,
                                  exclusion=cfg.exclusion)
        a_global = global_attention(q, memory, z, eps=cfg.epsilon)
        if mix_override is not None:
            g = Tensor(np.float64(mix_override))
            a_mixed = mix(a_local, a_global, g)
        else:
            a_mixed, g = self._gate(a_local, a_global, q, training=training,
                                    rng=rng)
        out = self.w_out(merge_heads(a_mixed))
        return AttentionOutput(a_local, a_global, a_mixed, g, out)


# -- fused streaming evaluation (inference path, no tape) --------------------

def fused_forward(q, k, v, beta, block_rows: int, block_cols: int,
                  eps: float = 1e-6) -> np.ndarray:
    """Two-pass fused evaluation of the mixed attention output.

    Pass 1 writes the channel-compressed memory and reads it with phi(Q),
    through the same kernels as the tape ops; pass 2 is each channel's
    local attention, streamed by ``_attend_tiles`` in (block_rows x
    block_cols) score tiles.  The two are blended with sigmoid(beta).
    Pure numpy, O(block_rows * block_cols) score storage.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    beta = np.asarray(beta, dtype=np.float64)
    c, d_k = k.shape[1], k.shape[-1]
    if q.shape[-1] != d_k:
        raise ShapeError("fused path needs query dim == key dim")
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block sizes must be >= 1")
    if beta.shape[1] not in (1, c):
        raise ShapeError(
            f"gate holds {beta.shape[1]} channel slots but input has {c}")

    memory, z = global_memory_np(phi_np(k), v)[:2]
    out = global_attention_np(phi_np(q), memory, z, eps)[0]
    local = _attend_tiles(q, k, v, 1.0 / np.sqrt(d_k), block_rows,
                          block_cols)
    gate = sigmoid_np(beta)
    out *= gate
    out += (1.0 - gate) * local
    return out
