import numpy as np
import pytest

from mica.attention import global_attention, global_memory, mix
from mica.gradcheck import gradcheck
from mica.nn import LayerNorm, Linear, Module
from mica.tensor import (Tensor, add, concat, div, gather_last, gelu,
                         layer_norm, matmul, mul, phi, sigmoid,
                         softmax_lastdim, sqrt, sub, tabs)


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


def test_gradcheck_leaves_a_callers_grad_alone():
    # the analytic side is leaf_grads(fn()); no .grad is zeroed or written
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    kept = np.full(3, 7.0)
    x.grad = kept
    report = gradcheck(lambda: (x * x).sum(), [x])
    assert report.passed, report.per_input
    assert x.grad is kept
    np.testing.assert_array_equal(kept, np.full(3, 7.0))


def test_gradcheck_refuses_an_input_that_needs_no_gradient():
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    frozen = Tensor(np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="'frozen' has requires_grad=False"):
        gradcheck(lambda: (x * frozen).sum(), {"x": x, "frozen": frozen})
    with pytest.raises(ValueError, match="'input1' has requires_grad=False"):
        gradcheck(lambda: (x * frozen).sum(), [x, frozen])


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
        z = layer_norm(z, gain, shift, 1e-5, residual=z)
        z = layer_norm(z, gain, shift, 1e-5, residual=concat([g, m], -1))
        return (softmax_lastdim(div(z, denom)) * phi(z) + sigmoid(z)).sum()

    report = gradcheck(f, {"a": a, "b": b, "gain": gain, "shift": shift})
    assert report.passed, report.per_input


# op, the shape of each input (broadcasting where the op allows), and the
# inputs drawn from U(0.5, 1.5) rather than N(0, 1): a divisor, a gate
# weight, channel weights and the memory normalizer z
CONSTANT_OPERAND_CASES = {
    "add": (add, [(2, 3), (3,)], ()),
    "sub": (sub, [(2, 3), (2, 1)], ()),
    "mul": (mul, [(2, 3), (1, 3)], ()),
    "div": (div, [(2, 3), (3,)], (1,)),
    "matmul": (matmul, [(2, 4, 3), (3, 5)], ()),
    "matmul_batched": (matmul, [(2, 4, 3), (1, 3, 5)], ()),
    "matmul_bias": (matmul, [(2, 4, 3), (3, 5), (5,)], ()),
    "layer_norm": (lambda x, gain, shift, r: layer_norm(x, gain, shift, 1e-5,
                                                        r),
                   [(2, 3, 4), (4,), (4,), (2, 3, 4)], ()),
    "mix": (mix, [(2, 3, 2, 4, 3), (2, 3, 2, 4, 3), (1, 1, 2, 1, 1)], (2,)),
    "global_memory": (lambda k, v, w: global_memory(k, v, w, exclusion=True),
                      [(2, 3, 2, 4, 3), (2, 3, 2, 4, 2), (1, 3, 1, 1, 1)],
                      (2,)),
    "global_attention": (global_attention,
                         [(2, 3, 2, 4, 3), (2, 1, 2, 3, 2), (2, 1, 2, 3, 1)],
                         (2,)),
}


@pytest.mark.parametrize("name, constant", [
    (name, i) for name, (_, shapes, _) in CONSTANT_OPERAND_CASES.items()
    for i in range(len(shapes))])
def test_gradcheck_with_one_constant_operand(name, constant):
    # each closure returns a partial for every parent; the walk drops the
    # constant's, and the others must still be right
    op, shapes, positive = CONSTANT_OPERAND_CASES[name]
    rng = np.random.default_rng(17)
    inputs = [Tensor(rng.uniform(0.5, 1.5, size=shape) if i in positive
                     else rng.normal(size=shape), requires_grad=i != constant)
              for i, shape in enumerate(shapes)]

    def outputs():
        outs = op(*inputs)
        return outs if isinstance(outs, tuple) else (outs,)

    weights = [Tensor(rng.normal(size=o.shape)) for o in outputs()]
    report = gradcheck(
        lambda: sum((o * w).sum() for o, w in zip(outputs(), weights)),
        {f"input{i}": t for i, t in enumerate(inputs) if i != constant})
    assert report.passed, report.per_input


@pytest.mark.parametrize("axis", [0, 1, -1, (0, 2)])
def test_gradcheck_sum_and_mean_over_axes_without_keepdims(axis):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=x.data.sum(axis=axis).shape))

    def f():
        return (x.sum(axis=axis) * w + x.mean(axis=axis) * w * w).sum()

    report = gradcheck(f, [x])
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
    r = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    class Wrap(Module):
        def __init__(self):
            self.lin = lin
            self.ln = ln

    params = dict(Wrap().named_parameters())
    params["x"] = x
    params["r"] = r

    def f():
        return (ln(lin(x), r)
                * Tensor([[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]])).sum()

    report = gradcheck(f, params)
    assert report.passed, report.per_input
