import numpy as np
import pytest

from mica.gradcheck import gradcheck
from mica.nn import LayerNorm, Linear, Module
from mica.tensor import (Tensor, concat, gather_last, gelu, layer_norm, phi,
                         sigmoid, softmax_lastdim, sqrt, tabs)


def test_gradcheck_passes_composite_expression():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def f():
        h = softmax_lastdim(x @ w)
        return (phi(h) * sigmoid(h)).sum()

    report = gradcheck(f, {"x": x, "w": w})
    assert report.passed, report.per_input
    assert report.max_rel_err < 1e-6


def test_gradcheck_catches_wrong_gradient():
    # sabotage: a detached reuse makes the tape gradient wrong on purpose
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)

    def f():
        return (x * Tensor(x.data * x.data)).sum()  # treats x^2 as constant

    report = gradcheck(f, [x])
    assert not report.passed


def test_gradcheck_every_op_in_vocabulary():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    shift = Tensor(rng.normal(size=6), requires_grad=True)
    idx = np.array([0, 2, 2])

    def f():
        m = a @ b
        g = gather_last(m, idx)
        mix = concat([gelu(m), tabs(g)], axis=-1)
        z = mix.swapaxes(0, 1).reshape(2, 6)
        denom = sqrt((z * z).mean(axis=-1, keepdims=True) + 0.5)
        z = layer_norm(z, gain, shift, 1e-5)
        z = layer_norm(z, gain, shift, 1e-5, residual=concat([g, m], -1))
        return (softmax_lastdim(z / denom) * phi(z) + sigmoid(z)).sum()

    report = gradcheck(f, {"a": a, "b": b, "gain": gain, "shift": shift})
    assert report.passed, report.per_input


def test_gradcheck_rejects_nondeterministic_fn():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones(2), requires_grad=True)

    def f():
        return (x * Tensor(rng.normal(size=2))).sum()

    with pytest.raises(RuntimeError, match="deterministic"):
        gradcheck(f, [x])


def test_gradcheck_layers():
    rng = np.random.default_rng(5)
    lin = Linear(4, 3, rng)
    ln = LayerNorm(3)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    class Wrap(Module):
        def __init__(self):
            self.lin = lin
            self.ln = ln

    params = dict(Wrap().named_parameters())
    params["x"] = x

    def f():
        return (ln(lin(x)) * Tensor([[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]])).sum()

    report = gradcheck(f, params)
    assert report.passed, report.per_input
