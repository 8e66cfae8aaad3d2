"""Central-difference gradient checking against the tape."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, leaf_grads


@dataclass
class GradCheckReport:
    """Worst relative error per checked tensor plus an overall verdict."""
    max_rel_err: float
    per_input: dict[str, float] = field(default_factory=dict)
    tol: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradcheck(fn: Callable[[], Tensor], inputs: Sequence[Tensor] | dict,
              h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of the scalar ``fn()`` to central differences.

    ``fn`` must be a pure function of the current values of ``inputs``;
    it is re-evaluated under perturbation, so it gets called 2 * n_elements
    times.  Determinism is enforced by evaluating twice up front.  The
    tape gradients are ``leaf_grads(fn())``; no tensor's ``.grad`` is read
    or written, and an input the walk does not reach gets zeros.
    """
    if isinstance(inputs, dict):
        named = dict(inputs)
    else:
        named = {f"input{i}": t for i, t in enumerate(inputs)}
    for name, t in named.items():
        if not t.requires_grad:
            raise ValueError(f"gradcheck input '{name}' has requires_grad=False")

    base = fn()
    again = fn()
    if base.item() != again.item():
        raise RuntimeError("fn() is not deterministic; gradcheck is meaningless")

    reached = {id(leaf): g for leaf, g in leaf_grads(fn())}
    analytic = {name: reached.get(id(t), np.zeros_like(t.data))
                for name, t in named.items()}

    per_input: dict[str, float] = {}
    worst = 0.0
    for name, t in named.items():
        err = 0.0
        an = analytic[name]
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + h
            f_plus = fn().item()
            t.data[idx] = orig - h
            f_minus = fn().item()
            t.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = max(err, _rel_err(an[idx], numeric))
        per_input[name] = err
        worst = max(worst, err)

    return GradCheckReport(max_rel_err=worst, per_input=per_input, tol=tol)
