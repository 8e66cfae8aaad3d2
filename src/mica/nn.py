"""Parameter containers and the few layers the backbone is built from."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, gelu, layer_norm, matmul


class Module:
    """Base class; walks non-underscore attributes to find parameters.

    Attributes whose name starts with ``_`` are treated as unregistered
    references, so shared sub-modules can be wired into several places
    while being owned (and counted) exactly once.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        self._collect("", out)
        return out

    def _collect(self, prefix: str, out: dict[str, Tensor]) -> None:
        for name, val in vars(self).items():
            if name.startswith("_"):
                continue
            full = f"{prefix}{name}"
            if isinstance(val, Tensor):
                if val.requires_grad:
                    out[full] = val
            elif isinstance(val, Module):
                val._collect(full + ".", out)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        item._collect(f"{full}.{i}.", out)

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def n_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise KeyError(
                f"state mismatch; missing={sorted(missing)} extra={sorted(extra)}")
        for k, p in params.items():
            arr = np.asarray(arrays[k], dtype=np.float64)
            if arr.shape != p.shape:
                raise ValueError(
                    f"shape mismatch for '{k}': {arr.shape} vs {p.shape}")
            p.data = arr.copy()


class Linear(Module):
    """Affine map on the last axis, Xavier-uniform weight init."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.weight = Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    """``norm(x, r)`` normalizes the residual sum ``x + r`` over the last
    axis to zero mean / unit variance, then applies an affine map."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor, residual: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift, 1e-5, residual)


class FeedForward(Module):
    """Two-layer position-wise MLP with gelu."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.up = Linear(dim, hidden, rng)
        self.down = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(gelu(self.up(x)))


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
