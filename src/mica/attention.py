"""Gated local/global attention over per-channel patch tokens.

Layout convention: (B, C, N, P, d) = batch, channels, heads, patches per
channel, head dimension.  The local path is plain scaled dot-product
softmax attention within each channel.  The global path compresses all
channels into one kernelized key-value memory (phi(K)^T V summed over
channels and patches) and reads it with phi(Q), which costs O(P*C) instead
of O((P*C)^2).  A learnable gate mixes the two per head.  That channel sum
is the one op that reads across channels; ``channel_sum`` makes it, also
across the threads of a forward split into channel slabs, to the same bits.
"""
from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import Linear, Module, dropout
from .tensor import (ShapeError, Tensor, _make, as_tensor, check_inputs,
                     concat, gelu, phi_grad, phi_np, records, sigmoid,
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
        if self.mlp_hidden < 1:
            raise ValueError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")
        if not 0.0 <= self.mlp_dropout < 1.0:
            raise ValueError("mlp_dropout must be in [0, 1)")
        if not 0.0 < self.epsilon < np.inf:  # NaN too
            raise ValueError(f"epsilon must be positive and finite, got "
                             f"{self.epsilon}")

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
    check_inputs(q, k, v)
    scale = 1.0 / np.sqrt(k.shape[-1])
    if q.shape[-2] > ROW_BLOCK and not records((q, k, v)):
        out = _attend_tiles(q.data, k.data, v.data, scale, ROW_BLOCK,
                            k.shape[-2])
        return _make(out, "local_attention", (q, k, v), None)
    out, attn = _attend(q.data, k.data, v.data, scale)

    def backward(g):
        gv = np.matmul(attn.swapaxes(-1, -2), g)
        # d scores = attn * (d attn - sum(d attn * attn)) * scale
        gs = np.matmul(g, v.data.swapaxes(-1, -2))
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale
        return (np.matmul(gs, k.data), np.matmul(gs.swapaxes(-1, -2), q.data),
                gv)

    return _make(out, "local_attention", (q, k, v), backward)


# (parts, barrier, i) in slab i of a split forward, else None
channel_slab = contextvars.ContextVar("channel_slab", default=None)


def channel_sum(*terms: np.ndarray) -> tuple:
    """Each term summed over the channel axis (1), keeping it.  Slab i of a
    split forward (``backbone``) puts its terms in ``parts[i]`` and sums all
    slabs', concatenated: the unsplit array, in the unsplit order."""
    slab = channel_slab.get()
    if slab is None:
        return tuple(t.sum(axis=1, keepdims=True) for t in terms)
    parts, barrier, i = slab
    parts[i] = terms
    barrier.wait()
    sums = tuple(np.concatenate(p, axis=1).sum(axis=1, keepdims=True)
                 for p in zip(*parts))
    barrier.wait()  # no slab replaces its part before every slab read it
    return sums


def global_memory(k: Tensor, v: Tensor, weights: Tensor | None = None,
                  exclusion: bool = False) -> tuple[Tensor, Tensor]:
    """Compress all channels into a kernelized key-value memory.

    Returns (M, z) with shapes (B,1,N,d_k,d_v) and (B,1,N,d_k,1), or
    (B,C,N,...) under exclusion where channel c sees every channel but
    itself.  Optional per-channel weights (broadcastable to (B,C,N,1,1))
    rescale each channel's contribution; exclusion removes the weighted
    own term so the decomposition M_excl(c) + w_c * own(c) = M_all holds
    in every weight mode.  M and z are two tape ops sharing one phi(K).
    In a channel slab, ``channel_sum`` sums every slab's channels.
    """
    k, v = as_tensor(k), as_tensor(v)
    w = None if weights is None else as_tensor(weights)
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"keys {k.shape} and values {v.shape} differ "
                         "before the head dimension")
    check_inputs(k, v, w)
    extra = () if w is None else (w,)
    pk = phi_np(k.data)                              # (B,C,N,P,d_k)
    # d phi(K) / dK, computed once for both ops when the tape needs it
    dpk = phi_grad(pk) if records((k, v) + extra) else None
    # each channel's unweighted write phi(K)^T V and sum_p phi(K)^T
    own_m = np.matmul(pk.swapaxes(-1, -2), v.data)   # (B,C,N,d_k,d_v)
    own_z = pk.sum(axis=-2, keepdims=True).swapaxes(-1, -2)   # (B,C,N,d_k,1)
    wm, wz = own_m, own_z
    if w is not None:
        wm, wz = own_m * w.data, own_z * w.data
    m, z = channel_sum(wm, wz)                       # (B,1,N,d_k,d_v|1)
    if exclusion:
        m, z = m - wm, z - wz

    def own_grad(g, own):
        """Gradient of one channel's unweighted write from that of M or z,
        and the weights' gradient entry: () without weights."""
        if exclusion:
            g = g.sum(axis=1, keepdims=True) - g
        if w is None:
            return g, ()
        return g * w.data, ((g * own).sum(axis=(-2, -1), keepdims=True),)

    def backward_m(g):
        g, gw = own_grad(g, own_m)                   # (B,1|C,N,d_k,d_v)
        gk = np.matmul(v.data, g.swapaxes(-1, -2))
        gk *= dpk
        return (gk, np.matmul(pk, g)) + gw

    def backward_z(g):
        g, gw = own_grad(g, own_z)                   # (B,1|C,N,d_k,1)
        return (g.swapaxes(-1, -2) * dpk,) + gw

    return (_make(m, "global_memory", (k, v) + extra, backward_m),
            _make(z, "global_memory", (k,) + extra, backward_z))


def global_attention(q: Tensor, memory: Tensor, z: Tensor,
                     eps: float = 1e-6) -> Tensor:
    """Read the compressed memory with phi(Q); linear in channel count."""
    q, memory, z = as_tensor(q), as_tensor(memory), as_tensor(z)
    if q.shape[-1] != memory.shape[-2]:
        raise ShapeError(
            f"query dim {q.shape[-1]} cannot address memory with "
            f"d_k={memory.shape[-2]}")
    check_inputs(q, memory, z)
    pq = phi_np(q.data)                              # (B,C,N,P,d_k)
    den = np.matmul(pq, z.data)                      # phi(Q) z + eps
    den += eps
    out = np.matmul(pq, memory.data)
    out /= den

    def backward(g):
        gn = g / den                                 # d numerator
        gd = (gn * out).sum(axis=-1, keepdims=True)  # minus d denominator
        gq = np.matmul(gn, memory.data.swapaxes(-1, -2))
        gq -= gd * z.data.swapaxes(-1, -2)
        gq *= phi_grad(pq)
        pq_t = pq.swapaxes(-1, -2)
        gz = np.matmul(pq_t, gd)
        np.negative(gz, out=gz)
        return gq, np.matmul(pq_t, gn), gz

    return _make(out, "global_attention", (q, memory, z), backward)


def mix(a_local: Tensor, a_global: Tensor, gate_weight) -> Tensor:
    """The one blend of the two paths, g * global + (1 - g) * local, as one
    op (Munkhdalai et al., arXiv:2404.07143).  The weight g, a gate's output
    or a constant, must broadcast onto ``a_local`` without growing it."""
    al, ag, gw = as_tensor(a_local), as_tensor(a_global), as_tensor(gate_weight)
    if gw.ndim > al.ndim or any(
            g not in (1, a) for g, a in zip(gw.shape[::-1], al.shape[::-1])):
        raise ShapeError(f"gate weight of shape {gw.shape} does not fit "
                         f"attention output of shape {al.shape}")
    out = gw.data * ag.data
    out += (1.0 - gw.data) * al.data

    def backward(g):
        return g * (1.0 - gw.data), g * gw.data, g * (ag.data - al.data)

    return _make(out, "mix", (al, ag, gw), backward)


def center_beta(beta: np.ndarray) -> np.ndarray:
    """Remove the mean across heads (axis 2) so the gate starts balanced."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[2] == 0:
        raise ShapeError("center_beta needs at least one head")
    return beta - beta.mean(axis=2, keepdims=True)


class BetaGate(Module):
    """Scalar-per-head gate (one per channel too when ``n_channels`` > 1):
    its weight is sigmoid(beta), beta drawn U(0, 1e-2) then centered across
    heads so the blend starts near 50/50."""

    def __init__(self, n_heads: int, rng: np.random.Generator,
                 n_channels: int = 1):
        raw = rng.uniform(0.0, 1e-2, size=(1, n_channels, n_heads, 1, 1))
        self.beta = Tensor(center_beta(raw), requires_grad=True)

    def __call__(self, a_local: Tensor, a_global: Tensor, q=None,
                 training: bool = False, rng=None) -> Tensor:
        """The gate weight (1, 1|C, N, 1, 1); the paths are not read."""
        return sigmoid(self.beta)


class MlpGate(Module):
    """Token-conditional gate: an MLP over the concatenated head outputs
    (plus the projected queries for ``mlp_query``) emits one weight per
    head and token.  Its layer widths are ``cfg.gate_layers``."""

    def __init__(self, cfg: MicaConfig, rng: np.random.Generator):
        self.layers = [Linear(a, b, rng) for a, b in cfg.gate_layers]
        self._p_drop = cfg.mlp_dropout
        self._uses_query = cfg.gate == "mlp_query"

    def __call__(self, a_local: Tensor, a_global: Tensor, q: Tensor = None,
                 training: bool = False, rng=None) -> Tensor:
        """The gate weight (B, C, N, P, 1)."""
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
        return sigmoid(logits).reshape(b, c, p, n, 1).swapaxes(2, 3)


def make_gate(cfg: MicaConfig, rng: np.random.Generator,
              n_channels: int | None = None) -> Module:
    """Build the gate object a block (or encoder, when shared) owns."""
    if cfg.gate_layers:
        return MlpGate(cfg, rng)
    if not cfg.channelwise:
        return BetaGate(cfg.n_heads, rng)
    if n_channels is None:
        raise ValueError("channelwise gate needs n_channels")
    return BetaGate(cfg.n_heads, rng, n_channels=n_channels)


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
    the channel weights of the memory write, the global read and the gate,
    whose weight (or ``mix_override``, a constant weight) ``mix`` uses to
    blend the two paths before the shared output projection.

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
            gate = self.gate = make_gate(cfg, rng, n_channels)
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
        else:
            g = self._gate(a_local, a_global, q, training=training, rng=rng)
        a_mixed = mix(a_local, a_global, g)
        out = self.w_out(merge_heads(a_mixed))
        return AttentionOutput(a_local, a_global, a_mixed, g, out)


# -- fused streaming evaluation (inference path, no tape) --------------------

def fused_forward(q, k, v, beta, block_rows: int, block_cols: int,
                  eps: float = 1e-6) -> np.ndarray:
    """The blended attention output with the local path streamed.

    The same ops as the reference graph (``global_memory``,
    ``global_attention``, ``sigmoid`` and ``mix``) on ndarray inputs, except
    that each channel's local attention runs through ``_attend_tiles`` in
    (block_rows x block_cols) score tiles, so no P x P score matrix is ever
    held.  With one (P x P) tile it is the reference bit for bit.  Its ops
    are called directly, so each checks its output, and it raises
    ``NonFiniteError`` on the first non-finite one.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError("fused path needs query dim == key dim")
    if block_rows < 1 or block_cols < 1:
        raise ValueError("block sizes must be >= 1")
    local = _attend_tiles(q, k, v, 1.0 / np.sqrt(k.shape[-1]), block_rows,
                          block_cols)
    a_global = global_attention(q, *global_memory(k, v), eps)
    return mix(local, a_global, sigmoid(np.asarray(beta, np.float64))).data
