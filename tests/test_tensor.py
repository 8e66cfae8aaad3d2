import re
import threading

import numpy as np
import numpy.testing as npt
import pytest

from mica.nn import dropout
from mica.tensor import (NonFiniteError, ShapeError, Tensor, _make,
                         _unbroadcast, checked_once, concat, div, gather_last,
                         gelu, layer_norm, leaf_grads, matmul, no_grad, phi,
                         phi_np, sigmoid, softmax_lastdim, sqrt, tabs)


def test_softmax_known_values():
    out = softmax_lastdim(Tensor([1.0, 2.0, 3.0]))
    npt.assert_allclose(
        out.data,
        [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
        rtol=0, atol=1e-12)
    npt.assert_allclose(out.data.sum(), 1.0, atol=1e-15)


def test_softmax_shift_invariance_and_huge_inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 7))
    a = softmax_lastdim(Tensor(x)).data
    b = softmax_lastdim(Tensor(x + 123.456)).data
    npt.assert_allclose(a, b, atol=1e-12)
    big = softmax_lastdim(Tensor([1e4, 1e4 + 1.0])).data
    assert np.all(np.isfinite(big))
    npt.assert_allclose(big.sum(), 1.0, atol=1e-15)


def test_softmax_empty_axis_rejected():
    with pytest.raises(ShapeError):
        softmax_lastdim(Tensor(np.zeros((2, 0))))


def test_phi_known_values_and_positivity():
    npt.assert_allclose(phi(Tensor([0.0, 2.0])).data, [1.0, 3.0], atol=0)
    npt.assert_allclose(phi(Tensor(-1.0)).data, np.exp(-1.0), atol=1e-15)
    x = np.linspace(-800.0, 50.0, 301)
    assert np.all(phi(Tensor(x)).data > 0.0)


def test_phi_keeps_nan_so_finite_checks_see_it():
    # the positive floor must not turn a NaN input into 5e-324
    assert np.isnan(phi_np(np.nan))
    npt.assert_array_equal(phi_np(np.array([np.nan, -1e4, 0.0])),
                           [np.nan, np.nextafter(0.0, 1.0), 1.0])
    with pytest.raises(NonFiniteError):
        phi(Tensor([0.0, np.nan]))


def _sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """sigmoid as boolean-masked branches: the reference formula."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sigmoid_matches_masked_branches_bit_for_bit(unchecked):
    edges = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0,
                      1e-300, -1e-300, 36.0, -36.0, 710.0, -746.0])
    rng = np.random.default_rng(0)
    for x in (edges, rng.normal(scale=20.0, size=(64, 7, 12, 4)),
              rng.normal(size=(1, 1, 4, 1, 1)), np.array(-3.5)):
        got = unchecked(lambda: sigmoid(Tensor(x)).data)
        assert got.shape == x.shape
        npt.assert_allclose(got, _sigmoid_masked(np.atleast_1d(x))
                            .reshape(x.shape), rtol=0, atol=0)


def test_matmul_known_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    npt.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]], atol=0)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_matmul_batch_broadcast_backward():
    # (B,C,N,P,dk) @ (B,1,N,dk,dv): grad wrt the broadcast operand sums over C
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 2, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 1, 2, 5, 6)), requires_grad=True)
    out = (a @ b).sum()
    out.backward()
    gb_manual = np.matmul(a.data.swapaxes(-1, -2),
                          np.ones((2, 3, 2, 4, 6))).sum(axis=1, keepdims=True)
    npt.assert_allclose(b.grad, gb_manual, atol=1e-12)
    assert a.grad.shape == a.shape


@pytest.mark.parametrize("view", [False, True])
def test_matmul_nd_by_2d_matches_batched_unbroadcast(view):
    # the gradients of activation @ weight are flattened 2-D GEMMs; they
    # must equal the batched products followed by a broadcast sum
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4, 5, 6))
    if view:
        x = x.swapaxes(1, 2)                 # (3,5,4,6), not contiguous
    w = rng.normal(size=(6, 7))
    g = rng.normal(size=x.shape[:-1] + (7,))
    a = Tensor(x, requires_grad=True)
    b = Tensor(w, requires_grad=True)
    out = a @ b
    npt.assert_allclose(out.data, np.matmul(x, w), rtol=1e-12, atol=1e-12)
    (out * Tensor(g)).sum().backward()
    npt.assert_allclose(a.grad, np.matmul(g, w.T), rtol=1e-12, atol=1e-12)
    gb = _unbroadcast(np.matmul(x.swapaxes(-1, -2), g), w.shape)
    npt.assert_allclose(b.grad, gb, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("view", [False, True])
def test_matmul_with_bias_matches_composed_ops(view):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(3, 4, 5, 6))
    if view:
        xs = xs.swapaxes(1, 2)               # (3,5,4,6), not contiguous
    ws, bs = rng.normal(size=(6, 7)), rng.normal(size=7)
    proj = Tensor(rng.normal(size=xs.shape[:-1] + (7,)))
    runs = []
    for op in (matmul, lambda x, w, b: x @ w + b):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xs, ws, bs))
        out = op(x, w, b)
        (out * proj).sum().backward()
        runs.append((out.data, x.grad, w.grad, b.grad))
    (out, *got), (want_out, *want) = runs
    npt.assert_allclose(out, want_out, rtol=0, atol=0)
    for g, gw in zip(got, want):
        npt.assert_allclose(g, gw, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        matmul(Tensor(xs), Tensor(ws), Tensor(np.ones((1, 7))))
    with pytest.raises(ShapeError):
        matmul(Tensor(xs), Tensor(np.ones((2, 6, 7))), Tensor(bs))


def test_first_gradient_owns_its_buffer():
    # the first gradient of an add/sub pass-through, a shape op, a concat
    # split or a sum's broadcast is a view of the upstream gradient; it is
    # stored as a copy so later in-place accumulation writes nowhere else
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    o = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    for y in (x + o, x - o, x.reshape(3, 2), x.swapaxes(0, 1),
              concat([x, o], axis=0), x.sum(axis=0, keepdims=True)):
        x.zero_grad()
        o.zero_grad()
        (y * Tensor(rng.normal(size=y.shape))).sum().backward()
        grads = [t.grad for t in (x, o, y) if t.grad is not None]
        for i, gi in enumerate(grads):
            assert not any(np.shares_memory(gi, gj) for gj in grads[i + 1:])

    x = Tensor(np.arange(3.0), requires_grad=True)
    (x + x).sum().backward()
    npt.assert_allclose(x.grad, [2.0, 2.0, 2.0], atol=0)

    # two backward() calls without zero_grad accumulate into separate buffers
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    ((a + b) * 3.0).sum().backward()
    assert a.grad is not b.grad
    ((a - b).reshape(3, 2).swapaxes(0, 1) * 2.0).sum().backward()
    assert a.grad is not b.grad
    npt.assert_allclose(a.grad, np.full((2, 3), 5.0), atol=0)
    npt.assert_allclose(b.grad, np.full((2, 3), 1.0), atol=0)
    for t in (x, a, b):
        assert t.grad.shape == t.shape and t.grad.flags.writeable


def test_second_backward_propagates_only_its_own_seed():
    # interior grads are reset per call; only leaves keep accumulating
    x = Tensor(np.ones(3), requires_grad=True)
    s = (x * 2.0).sum()
    s.backward()
    s.backward()
    npt.assert_allclose(x.grad, np.full(3, 4.0), atol=0)

    x = Tensor(np.ones(3), requires_grad=True)
    h = x * 3.0
    h.sum().backward()
    (h * 2.0).sum().backward()
    npt.assert_allclose(x.grad, np.full(3, 9.0), atol=0)
    assert h.grad is None


def test_leaf_grads_write_no_leaf_and_equal_what_backward_adds():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))

    def loss():
        h = gelu(matmul(x, w, b))
        # w and b reach the loss twice, so their pairs are sums
        return (tabs(h * h).sum() + (h * b).sum() + matmul(h, w.swapaxes(
            0, 1)).sum()) * 0.5

    root = loss()
    pairs = leaf_grads(root)
    # one pair per leaf that needs a gradient, in an order fixed by the graph
    assert sorted(map(id, (leaf for leaf, _ in pairs))) == sorted(
        map(id, (w, b)))
    assert [leaf for leaf, _ in leaf_grads(loss())] == [
        leaf for leaf, _ in pairs]
    assert w.grad is None and b.grad is None and x.grad is None
    # the walk leaves no interior gradient behind either
    assert root.grad is None
    for leaf, g in pairs:
        assert g.flags.writeable and g.flags.owndata
    # backward is the walk plus the add: the same bits land in .grad
    loss().backward()
    for leaf, g in pairs:
        assert leaf.grad.tobytes() == g.tobytes()


def test_borrowed_gradient_is_never_written():
    # s = a + b lends one upstream buffer to both a and b.  b = a * y runs
    # its closure first and sends a its second contribution before reading
    # that buffer again for y's gradient, so a write into a's borrowed
    # grad would show in y.grad
    rng = np.random.default_rng(4)
    w, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    a = x * 2.0
    b = a * y
    s = a + b
    (s * Tensor(w)).sum().backward()
    npt.assert_array_equal(x.grad, 2.0 * (w * y.data + w))
    npt.assert_array_equal(y.grad, w * (2.0 * x.data))
    assert b.grad is None and s.grad is None

    # a sum's read-only broadcast lent as a first gradient, then added to
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    a = x * 2.0
    (a.sum() + (a * Tensor(v)).sum()).backward()
    npt.assert_array_equal(x.grad, 2.0 * (v + 1.0))


def test_layer_norm_lends_one_gradient_to_x_and_residual():
    # layer_norm hands x and the residual one dx.  Its closure runs before
    # that of x * v, so x's second contribution arrives after dx: were dx
    # owned by both, adding it into x's grad in place would write r's grad
    rng = np.random.default_rng(8)
    xs, rs, w, v = (rng.normal(size=(2, 3, 4)) for _ in range(4))
    x, r = Tensor(xs, requires_grad=True), Tensor(rs, requires_grad=True)
    gain, shift = Tensor(np.ones(4)), Tensor(np.zeros(4))
    y = layer_norm(x, gain, shift, 1e-5, residual=r)
    (y * Tensor(w)).sum().backward()
    dx = r.grad.copy()
    x.zero_grad()
    r.zero_grad()
    ((y * Tensor(w)).sum() + (x * Tensor(v)).sum()).backward()
    npt.assert_array_equal(r.grad, dx)
    npt.assert_array_equal(x.grad, dx + v)
    assert not np.shares_memory(x.grad, r.grad)


def test_backward_rejects_a_closure_with_too_few_gradients():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = _make(a.data + b.data, "pair", (a, b), lambda g: (g,))
    with pytest.raises(ShapeError, match="1 gradients for 2 inputs"):
        out.sum().backward()


def test_read_only_gradient_is_never_owned():
    # s + s gives s a 0-d sum, a numpy scalar, that shares memory with
    # nothing; the sum's read-only broadcast of it must still be copied
    x = Tensor(np.ones(3), requires_grad=True)
    s = x.sum()
    (s + s).backward()
    (s + s).backward()
    npt.assert_array_equal(x.grad, np.full(3, 4.0))
    assert x.grad.flags.writeable


def _layer_norm_composed(x, gain, shift, eps):
    m = x.mean(axis=-1, keepdims=True)
    centered = x - m
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return div(centered, sqrt(var + eps)) * gain + shift


def test_layer_norm_matches_composed_ops():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 3, 5, 8)) * 3.0 + 1e3
    gs, ss = rng.normal(size=8), rng.normal(size=8)
    w = Tensor(rng.normal(size=xs.shape))
    zero = Tensor(np.zeros(xs.shape))     # x + 0 keeps x's bits
    grads = []
    for op in (lambda *a: layer_norm(*a, zero), _layer_norm_composed):
        x, gain, shift = (Tensor(a.copy(), requires_grad=True)
                          for a in (xs, gs, ss))
        out = op(x, gain, shift, 1e-5)
        (out * w).sum().backward()
        grads.append((out.data, x.grad, gain.grad, shift.grad))
    (out, *got), (want_out, *want) = grads
    npt.assert_allclose(out, want_out, rtol=0, atol=0)
    for g, gw in zip(got, want):
        npt.assert_allclose(g, gw, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(xs), Tensor(np.ones(5)), Tensor(np.zeros(8)), 1e-5,
                   zero)


def test_layer_norm_with_residual_is_layer_norm_of_the_sum():
    # the folded residual add gives the bits of add then layer_norm (of the
    # sum plus a zero residual), in the output and in every gradient
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=(2, 3, 5, 8)) * 3.0 + 1e3,
              rng.normal(size=(2, 3, 5, 8)), rng.normal(size=8),
              rng.normal(size=8)]
    w = Tensor(rng.normal(size=(2, 3, 5, 8)))
    runs = []
    for fold in (True, False):
        x, r, gain, shift = (Tensor(a.copy(), requires_grad=True)
                             for a in arrays)
        if fold:
            out = layer_norm(x, gain, shift, 1e-5, residual=r)
        else:
            out = layer_norm(x + r, gain, shift, 1e-5,
                             Tensor(np.zeros(x.shape)))
        (out * w).sum().backward()
        runs.append([out.data, x.grad, r.grad, gain.grad, shift.grad])
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ShapeError, match="residual"):
        layer_norm(Tensor(arrays[0]), Tensor(arrays[2]), Tensor(arrays[3]),
                   1e-5, residual=Tensor(arrays[1][:1]))


def test_gelu_matches_pow_cube_formula():
    # x*x*x and x**3 may differ by an ulp; 1 + tanh cancels for x < -3 and
    # amplifies that in relative terms where gelu is ~1e-5, so the bound
    # carries an absolute part of the same size
    x = np.linspace(-10.0, 10.0, 20001)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    want = 0.5 * x * (1.0 + t)
    dwant = (0.5 * (1.0 + t)
             + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x ** 2))
    xt = Tensor(x, requires_grad=True)
    out = gelu(xt)
    out.sum().backward()
    npt.assert_allclose(out.data, want, rtol=1e-15, atol=1e-15)
    npt.assert_allclose(xt.grad, dwant, rtol=1e-15, atol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gelu_in_place_keeps_the_bits_of_the_plain_formula():
    # the in-place forward and backward against the same formula written
    # out of place, from subnormal to overflowing magnitudes
    x = np.geomspace(1e-310, 1e300, 4001)
    x = np.concatenate([-x, [0.0], x])
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    want = 0.5 * x * (1.0 + t)
    g = np.random.default_rng(9).normal(size=x.shape)
    dwant = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t)
                 * (c * (1.0 + 3 * 0.044715 * x2)))
    xt = Tensor(x, requires_grad=True)
    out = gelu(xt)
    (out * Tensor(g)).sum().backward()
    npt.assert_array_equal(out.data, want)
    npt.assert_array_equal(xt.grad, dwant)


def test_add_broadcast_backward():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    bias = Tensor(np.zeros(3), requires_grad=True)
    ((x + bias) * 2.0).sum().backward()
    npt.assert_allclose(bias.grad, [8.0, 8.0, 8.0], atol=0)
    npt.assert_allclose(x.grad, np.full((4, 3), 2.0), atol=0)


def test_grad_accumulates_across_reuse():
    x = Tensor(3.0, requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 7
    y.backward()
    npt.assert_allclose(x.grad, 7.0, atol=1e-12)


def test_div_backward():
    a = Tensor(2.0, requires_grad=True)
    b = Tensor(4.0, requires_grad=True)
    div(a, b).backward()
    npt.assert_allclose(a.grad, 0.25, atol=1e-15)
    npt.assert_allclose(b.grad, -2.0 / 16.0, atol=1e-15)


def test_unary_backward_values():
    x = Tensor([-2.0, 3.0], requires_grad=True)
    tabs(x).sum().backward()
    npt.assert_allclose(x.grad, [-1.0, 1.0], atol=0)

    y = Tensor(4.0, requires_grad=True)
    sqrt(y).backward()
    npt.assert_allclose(y.grad, 0.25, atol=1e-15)

    z = Tensor(0.0, requires_grad=True)
    sigmoid(z).backward()
    npt.assert_allclose(z.grad, 0.25, atol=1e-15)
    npt.assert_allclose(sigmoid(Tensor(0.0)).data, 0.5, atol=0)

    assert gelu(Tensor(0.0)).data == 0.0
    npt.assert_allclose(gelu(Tensor(10.0)).data, 10.0, rtol=1e-6)


def test_sum_mean_axes():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    s = x.sum(axis=0)
    npt.assert_allclose(s.data, [12.0, 15.0, 18.0, 21.0], atol=0)
    m = x.mean(axis=1, keepdims=True)
    npt.assert_allclose(m.data, [[1.5], [5.5], [9.5]], atol=0)
    m.sum().backward()
    npt.assert_allclose(x.grad, np.full((3, 4), 0.25), atol=0)


def test_reshape_swapaxes_roundtrip_backward():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    y = x.swapaxes(0, 2).reshape(4, 6)
    (y * y).sum().backward()
    npt.assert_allclose(x.grad, 2.0 * x.data, atol=0)


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    npt.assert_allclose(a.grad, [[0.0, 1.0], [5.0, 6.0]], atol=0)
    npt.assert_allclose(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]], atol=0)


def test_gather_last_forward_and_repeated_index_backward():
    x = Tensor(np.array([[10.0, 20.0, 30.0]]), requires_grad=True)
    idx = np.array([[0, 1], [1, 2], [2, 2]])
    out = gather_last(x, idx)
    assert out.shape == (1, 3, 2)
    npt.assert_allclose(out.data[0, 2], [30.0, 30.0], atol=0)
    out.sum().backward()
    npt.assert_allclose(x.grad, [[1.0, 2.0, 3.0]], atol=0)


def test_gather_index_out_of_range():
    with pytest.raises(ShapeError):
        gather_last(Tensor(np.zeros((2, 3))), np.array([3]))


@pytest.mark.parametrize("build, message", [
    (lambda: gather_last(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0])),
     "gather_last needs an integer index array"),
], ids=["gather_float"])
def test_rejected_tensor_inputs_say_why(build, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: dropout(Tensor(np.ones(3)), 0.5, True, None),
     "dropout in training mode needs an rng"),
], ids=["dropout_rng"])
def test_rejected_layer_inputs_say_why(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_no_grad_blocks_tape():
    x = Tensor(2.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad
    assert y._backward is None


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_check_raises_on_the_raw_kernel_output(unchecked):
    with pytest.raises(NonFiniteError):
        div(Tensor(1.0), Tensor(0.0))
    out = unchecked(lambda: div(Tensor(1.0), Tensor(0.0)))
    assert np.isinf(out.data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mode_flags_are_thread_local():
    # workers inside no_grad and a deferred pass must not leak either
    # flag into the main thread (parallel seed training runs both in a pool)
    from concurrent.futures import ThreadPoolExecutor
    release = threading.Event()
    inside = threading.Barrier(5)

    def deferred_pass():
        inside.wait(timeout=5)
        assert not (Tensor(1.0, requires_grad=True) * 2.0).requires_grad
        # a deferred pass skips op output checks
        assert np.isinf(div(Tensor(1.0), Tensor(0.0)).data)
        release.wait(timeout=5)
        return Tensor(1.0)

    def toggled_off():
        with no_grad():
            return checked_once(deferred_pass).item() == 1.0

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(toggled_off) for _ in range(4)]
        inside.wait(timeout=5)
        assert (Tensor(1.0, requires_grad=True) * 2.0).requires_grad
        with pytest.raises(NonFiniteError):
            div(Tensor(1.0), Tensor(0.0))
        release.set()
        assert all(f.result(timeout=5) for f in futures)
    with pytest.raises(NonFiniteError):
        div(Tensor(1.0), Tensor(0.0))


def test_zero_grad_resets():
    x = Tensor(1.0, requires_grad=True)
    (x * 3.0).backward()
    npt.assert_allclose(x.grad, 3.0, atol=0)
    x.zero_grad()
    assert x.grad is None
