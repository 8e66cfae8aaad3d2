"""Patch-based forecasting backbone around the gated attention blocks.

Pipeline per window: instance-standardize each channel, slice into patches
(end-padded by replicating the last value), embed patches, add fixed
sin/cos positional encodings, run the encoder stack (channels stay
separate except inside the global attention path or a concat block),
flatten patch states, and project to the horizon.  Predictions are
de-standardized back to the original units, so losses and metrics are in
data units.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .attention import (AttentionOutput, LocalAttention, MicaAttention,
                        MicaConfig, make_gate)
from .nn import FeedForward, LayerNorm, Linear, Module, dropout
from .tensor import ShapeError, Tensor, _check_finite, checked_once

HEAD_KINDS = ("shared_linear", "multivariate")


class IntegrityError(RuntimeError):
    """Raised when a parameter file is malformed or does not match."""


@dataclass
class ModelConfig:
    """Backbone hyperparameters; ``mica=None`` gives the local-only baseline."""
    horizon: int
    input_size: int | None = None  # defaults to 2 * horizon
    n_layers: int = 4
    d_model: int = 256
    n_heads: int = 4
    ff_hidden: int = 1024
    d_k: int = 32
    d_v: int = 32
    patch_len: int = 8
    stride: int = 8
    dropout: float = 0.0
    head_kind: str = "shared_linear"
    mica: MicaConfig | None = None

    def __post_init__(self):
        if self.input_size is None:
            self.input_size = 2 * self.horizon
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if min(self.d_model, self.n_heads, self.ff_hidden, self.d_k,
               self.d_v, self.patch_len, self.stride) < 1:
            raise ValueError("model dimensions must be positive")
        if self.d_model % 2:
            raise ValueError(f"d_model must be even for the sin/cos "
                             f"positional encoding, got {self.d_model}")
        if self.patch_len > self.input_size:
            raise ValueError(f"patch_len {self.patch_len} exceeds input_size "
                             f"{self.input_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.head_kind not in HEAD_KINDS:
            raise ValueError(f"unknown head kind '{self.head_kind}'")
        if self.mica is not None:
            for attr in ("n_heads", "d_k", "d_v"):
                if getattr(self.mica, attr) != getattr(self, attr):
                    raise ValueError(
                        f"mica.{attr} disagrees with the backbone setting")


# -- windowing helpers --------------------------------------------------------

def patch_count(length: int, patch_len: int, stride: int) -> int:
    """Number of patches after end-padding to stride alignment."""
    if patch_len > length:
        raise ShapeError(
            f"patch_len {patch_len} exceeds window length {length}")
    return int(np.ceil((length - patch_len) / stride)) + 1


def patch_indices(length: int, patch_len: int, stride: int) -> np.ndarray:
    """(P, patch_len) gather indices; clamping to the last sample implements
    end-padding by replication."""
    p = patch_count(length, patch_len, stride)
    starts = np.arange(p) * stride
    idx = starts[:, None] + np.arange(patch_len)[None, :]
    return np.minimum(idx, length - 1)


def patchify(y: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """(B,C,L) -> (B,C,P,patch_len)."""
    return y[..., patch_indices(y.shape[-1], patch_len, stride)]


def sincos_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed interleaved sin/cos positional encodings, shape (P, dim)."""
    if dim % 2:
        raise ValueError("positional encoding dim must be even")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    rates = 1.0 / np.power(10000.0, np.arange(0, dim, 2) / dim)
    table = np.zeros((n_positions, dim))
    table[:, 0::2] = np.sin(pos * rates)
    table[:, 1::2] = np.cos(pos * rates)
    return table


@dataclass
class InstanceStats:
    """Per-window per-channel mean/std used to undo standardization."""
    mean: np.ndarray  # (B,C,1)
    std: np.ndarray   # (B,C,1)


def standardize(y: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Zero-mean unit-variance per (window, channel); std floored at 1e-8.
    Each (window, channel) is scaled exactly by 2^-e, e the exponent of its
    largest magnitude, before the moments, so no finite window overflows."""
    y = np.asarray(y, dtype=np.float64)
    e = np.frexp(np.abs(y).max(axis=-1, keepdims=True))[1]
    scaled = np.ldexp(y, -e)
    mean = np.ldexp(scaled.mean(axis=-1, keepdims=True), e)
    std = np.maximum(np.ldexp(scaled.std(axis=-1, keepdims=True), e), 1e-8)
    # a NaN or inf gives a NaN std: name the window, not a later op
    _check_finite(std, "standardize")
    return (y - mean) / std, InstanceStats(mean=mean, std=std)


def destandardize(pred: Tensor, stats: InstanceStats) -> Tensor:
    """Map standardized predictions back to data units."""
    return pred * Tensor(stats.std) + Tensor(stats.mean)


# -- model ---------------------------------------------------------------------

class EncoderLayer(Module):
    """Attention block then feed-forward, each with residual + layer norm."""

    def __init__(self, d_model: int, ff_hidden: int, attn: Module,
                 rng: np.random.Generator, p_drop: float = 0.0):
        self.attn = attn
        self.norm1 = LayerNorm(d_model)
        self.ffn = FeedForward(d_model, ff_hidden, rng)
        self.norm2 = LayerNorm(d_model)
        self._p_drop = p_drop

    def __call__(self, x: Tensor, mix_override=None, training: bool = False,
                 rng=None) -> tuple[Tensor, AttentionOutput]:
        res = self.attn(x, mix_override=mix_override, training=training,
                        rng=rng)
        h = self.norm1(x, dropout(res.out, self._p_drop, training, rng))
        out = self.norm2(h, dropout(self.ffn(h), self._p_drop, training, rng))
        return out, res


class MultivariateHead(Module):
    """Separate affine horizon projection per channel."""

    def __init__(self, n_channels: int, in_dim: int, horizon: int,
                 rng: np.random.Generator):
        limit = np.sqrt(6.0 / (in_dim + horizon))
        self.weight = Tensor(
            rng.uniform(-limit, limit, size=(n_channels, in_dim, horizon)),
            requires_grad=True)
        self.bias = Tensor(np.zeros((n_channels, 1, horizon)),
                           requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        b, c, in_dim = x.shape
        h = x.reshape(b, c, 1, in_dim) @ self.weight + self.bias
        return h.reshape(b, c, self.weight.shape[-1])


class ForecastModel(Module):
    """Channel-separate patch transformer with an optional global path.

    ``concat=True`` (needs ``cfg.mica=None``) builds concat blocks, the
    quadratic reference; not being a config field, it is not in the digest.
    """

    def __init__(self, cfg: ModelConfig, n_channels: int, seed: int = 0,
                 concat: bool = False):
        if n_channels < 1:
            raise ValueError("n_channels must be positive")
        if concat and cfg.mica is not None:
            raise ValueError("concat attention replaces the mica block; "
                             "build it with cfg.mica = None")
        rng = np.random.default_rng(seed)
        self._cfg = cfg
        self._n_channels = n_channels
        self.n_patches = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)

        self.embed = Linear(cfg.patch_len, cfg.d_model, rng)
        self._posenc = Tensor(sincos_table(self.n_patches, cfg.d_model))

        self.gates: list[Module] = []
        blocks = []
        for i in range(cfg.n_layers):
            if cfg.mica is None:
                blocks.append(LocalAttention(cfg.d_model, cfg.n_heads,
                                             cfg.d_k, cfg.d_v, rng, concat))
                continue
            if cfg.mica.layerwise or i == 0:
                self.gates.append(make_gate(cfg.mica, rng, n_channels))
            gate = self.gates[-1]
            blocks.append(MicaAttention(cfg.d_model, cfg.mica, rng,
                                        n_channels=n_channels, gate=gate))
        self.layers = [EncoderLayer(cfg.d_model, cfg.ff_hidden, blk, rng,
                                    cfg.dropout) for blk in blocks]

        flat_dim = self.n_patches * cfg.d_model
        if cfg.head_kind == "multivariate":
            self.head = MultivariateHead(n_channels, flat_dim, cfg.horizon,
                                         rng)
        else:
            self.head = Linear(flat_dim, cfg.horizon, rng)

    @property
    def config(self) -> ModelConfig:
        return self._cfg

    @property
    def n_channels(self) -> int:
        return self._n_channels

    def forward(self, y: np.ndarray, mix_override: float | None = None,
                training: bool = False, rng=None,
                collect: list | None = None) -> Tensor:
        """(B,C,L) window -> (B,C,H) forecast in original units.

        The forecast is checked for NaN/Inf once (``checked_once``).  If
        a check fails, the forward runs again with per-op checks, so it
        raises the per-op ``NonFiniteError`` or returns the per-op
        forecast.  Nothing is rewound: each run restores the ``rng`` state
        and cuts ``collect`` back to the length they had on entry.
        """
        y = np.asarray(y, dtype=np.float64)
        cfg = self._cfg
        if y.ndim != 3:
            raise ShapeError(f"expected (B,C,L) input, got shape {y.shape}")
        if y.shape[1] != self._n_channels:
            raise ShapeError(
                f"model built for {self._n_channels} channels, got {y.shape[1]}")
        if y.shape[2] != cfg.input_size:
            raise ShapeError(
                f"window length {y.shape[2]} != input_size {cfg.input_size}")
        rng_state = None if rng is None else rng.bit_generator.state
        n_collected = None if collect is None else len(collect)

        def run():
            if rng is not None:
                rng.bit_generator.state = rng_state
            if collect is not None:
                del collect[n_collected:]
            return self._forecast(y, mix_override, training, rng, collect)

        return checked_once(run)

    def _forecast(self, y: np.ndarray, mix_override, training: bool, rng,
                  collect: list | None) -> Tensor:
        cfg = self._cfg
        y_std, stats = standardize(y)
        tokens = patchify(y_std, cfg.patch_len, cfg.stride)
        h = self.embed(Tensor(tokens)) + self._posenc
        for layer in self.layers:
            h, res = layer(h, mix_override=mix_override, training=training,
                           rng=rng)
            if collect is not None:
                collect.append(res)
        b = y.shape[0]
        flat = h.reshape(b, self._n_channels,
                         self.n_patches * cfg.d_model)
        pred = self.head(flat)
        return destandardize(pred, stats)

    __call__ = forward


# -- parameter serialization ----------------------------------------------------

_MAGIC = b"MICAF001"
_VERSION = 1


def config_digest(cfg: ModelConfig, n_channels: int) -> str:
    """Stable sha256 over the flattened config plus the channel count."""
    items = {"n_channels": n_channels}
    for key, val in sorted(dataclasses.asdict(cfg).items()):
        if isinstance(val, dict):
            # MicaConfig once had a d_q field, always equal to d_k; hashing
            # it keeps the digest of every saved parameter file
            val["d_q"] = val["d_k"]
            for sub, sval in sorted(val.items()):
                items[f"{key}.{sub}"] = sval
        else:
            items[key] = val
    blob = "\n".join(f"{k}={v!r}" for k, v in sorted(items.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_params(path, model: Module, digest: str) -> None:
    """Write parameters as float64 little-endian with a config digest."""
    arrays = model.state_arrays()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(bytes.fromhex(digest))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())


def load_params(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a parameter file; returns (stored digest, name -> array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise IntegrityError(f"truncated parameter file '{path}'")
        out = blob[off:off + n]
        off += n
        return out

    if take(len(_MAGIC)) != _MAGIC:
        raise IntegrityError(f"'{path}' is not a parameter file")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise IntegrityError(f"unsupported parameter file version {version} "
                             f"in '{path}'")
    digest = take(32).hex()
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError:
            raise IntegrityError(
                f"non-UTF-8 parameter name in '{path}'") from None
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        n_items = math.prod(shape)  # a Python int: a huge shape cannot wrap
        arr = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape)
        if name in arrays:
            raise IntegrityError(f"parameter {name!r} stored twice in "
                                 f"'{path}'")
        arrays[name] = arr.astype(np.float64)
    if off != len(blob):
        raise IntegrityError(f"trailing bytes in parameter file '{path}'")
    return digest, arrays
