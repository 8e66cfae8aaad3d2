"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op records a backward closure on a tape.  ``leaf_grads(root)``
walks the tape from a scalar in reverse topological order and returns
each reached leaf's gradient; ``backward()`` is that walk plus the add
into each leaf's ``.grad``.  A backward closure returns, per parent, None,
a view of its incoming gradient, or an array it built, and the walk alone
adds them up under one rule: a leaf's gradients are summed into a
writable copy of its first one; an interior node keeps its first
gradient as is, rebinds ``.grad`` to a new sum for each later one, and
drops it once its closure has run.  No array a closure returned is ever
written, the walk writes no leaf, and after it no interior node holds
``.grad``.  So threads may walk graphs that share only their leaves at
once, as a training step's window groups do.  The op vocabulary is deliberately small: matmul (with an optional bias, so
x @ W + b is one op), elementwise arithmetic with broadcasting, softmax
over the last axis, the positive feature map phi(x) = ELU(x) + 1,
sigmoid, gelu, layer_norm of a residual sum over the last axis (a
sublayer's add-and-norm), reductions, and shape ops (reshape / swapaxes /
concat / gather).  The attention block's four pieces (local attention, the
global memory, its read, and the gate mix) are ops of their own in
``attention.py``, built with ``_make`` like the ones here.  Every op
computes its forward with the same numpy kernels (``softmax_np``,
``phi_np``, ...) whether or not it is taped; ``records`` tells an op
whether it will be.

Finite checks are always on and raise ``NonFiniteError`` naming the first
op that produced NaN or Inf.  An op called directly checks its output.  A
whole forecast, in training or not, runs through ``checked_once`` instead:
its ops skip their output checks, but the four that can map a non-finite
input to a finite output (``local_attention``, ``global_memory``,
``global_attention`` and ``sigmoid``) test each input they read, with no
per-pass cache, and the forecast is checked at the end.  Any other
non-finite value spreads to the forecast.  Only when a check fails does
the forecast run again with per-op checks, so the error, or the finite
result, is the per-op one.  Nothing is rewound in between: a forecast
must be repeatable, restoring any rng or list it changes.

A training step allocates and frees a few hundred MB of activations.  By
default glibc hands that memory back to the kernel after every backward
and faults it in again on the next step.  So at import, on glibc only,
``mallopt`` raises the mmap threshold to its 32 MiB maximum and the trim
threshold to 1 GiB.  The policy is process-wide: the process keeps its peak
heap instead of returning it.  ``HEAP_PAGES_KEPT`` records whether it took
effect.  Allocation changes no arithmetic.
"""
from __future__ import annotations

import contextlib
import ctypes
import platform
import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf, naming that op.  Under
    ``checked_once`` it is raised by the per-op replay, so it names the
    same op."""


class _ThreadState(threading.local):
    """Per-thread mode flags; a shared global would race under the
    thread pools of parallel seeds and of ``training.predict``, whose
    workers enter ``no_grad`` themselves because the caller's does not
    reach them."""

    def __init__(self):
        self.grad_enabled = True
        self.deferred = False      # inside a ``checked_once`` pass


_STATE = _ThreadState()


def _keep_freed_heap_pages() -> bool:
    """Stop glibc from unmapping or trimming freed activations."""
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3
    # a quick-start step frees more than 128 MiB at once; 1 GiB leaves
    # room for larger batches and models
    return (mallopt(m_mmap_threshold, 32 << 20) == 1
            and mallopt(m_trim_threshold, 1 << 30) == 1)


HEAP_PAGES_KEPT = _keep_freed_heap_pages()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (current thread only)."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def _all_finite(arr: np.ndarray) -> bool:
    """The one finiteness test every check makes."""
    return bool(np.isfinite(arr).all())


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not _STATE.deferred and not _all_finite(arr):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def check_inputs(*tensors: Tensor | None) -> None:
    """Called by the ops that can map a non-finite input to a finite output
    (softmax attention, phi and the phi(Q) z denominator, sigmoid): in a
    ``checked_once`` pass, a non-finite input ends the pass, because the
    final check could miss it.  Each call tests every input it is given,
    and nothing is kept between calls.  ``None`` entries are skipped."""
    if _STATE.deferred:
        for t in tensors:
            if t is not None and not _all_finite(t.data):
                raise NonFiniteError("non-finite input to an absorbing op")


def checked_once(run: Callable[[], Tensor]) -> Tensor:
    """``run()`` with its finite checks made once, not per op.

    ``run`` first goes without per-op output checks; only ``check_inputs``
    and a final check of its result are made.  If either finds a
    non-finite value, ``run`` goes again with per-op checks: that raises
    the ``NonFiniteError`` a per-op run raises, or returns its finite
    result.  Nothing is undone in between, so ``run`` must be repeatable:
    a second call must start from the state the first one did.  Inside a
    pass already deferred, it is ``run()``.
    """
    if not _STATE.deferred:
        _STATE.deferred = True
        try:
            out = run()
            if _all_finite(out.data):
                return out
        except NonFiniteError:
            pass
        finally:
            _STATE.deferred = False
    return run()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- grad bookkeeping --------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar: add each of ``leaf_grads(self)``
        into its leaf's ``.grad``, which keeps accumulating until
        ``zero_grad``."""
        for leaf, g in leaf_grads(self):
            if leaf.grad is None:
                leaf.grad = g
            else:
                leaf.grad += g

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, *shape)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        return swapaxes(self, ax1, ax2)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def leaf_grads(root: Tensor) -> list[tuple[Tensor, np.ndarray]]:
    """(leaf, gradient) pairs for each leaf the scalar ``root`` reaches,
    in the order the walk first reaches them; each gradient is a new
    writable array.  Gradients are added by the rule in the module
    docstring, each in parent order, and every interior node has all of
    its own before its closure runs.  Interior grads are reset first, so
    each walk propagates only its own seed, also after a closure raised
    part-way through an earlier one."""
    if root.data.size != 1:
        raise ShapeError(
            f"backward() requires a scalar, got shape {root.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents)
    for node in topo:
        if node._backward is not None:
            node.grad = None
    leaves: dict[int, tuple[Tensor, np.ndarray]] = {}

    def add(node: Tensor, g: np.ndarray) -> None:
        # no array a closure returned is ever written
        if node._backward is not None:
            node.grad = g if node.grad is None else node.grad + g
        elif id(node) in leaves:
            total = leaves[id(node)][1]
            total += g
        else:
            leaves[id(node)] = (node, np.array(g))

    add(root, np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        node.grad = None
        if len(grads) != len(node._parents):
            raise ShapeError(f"a backward returned {len(grads)} gradients "
                             f"for {len(node._parents)} inputs")
        for p, pg in zip(node._parents, grads):
            if pg is not None:
                add(p, pg)
    return list(leaves.values())


def records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded on the tape."""
    return _STATE.grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward: Callable | None) -> Tensor:
    _check_finite(data, op)
    if records(parents):
        return Tensor(data, requires_grad=True,
                      _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# -- arithmetic -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(out, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, "mul", (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if b.requires_grad else None)

    return _make(out, "div", (a, b), backward)


def matmul(a, b, bias=None) -> Tensor:
    """``a @ b``, plus ``bias`` of shape (n,) when b is an (m, n) weight:
    an affine map is one op."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    parents = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        if b.ndim != 2 or bias.shape != b.shape[1:]:
            raise ShapeError(f"a bias needs a 2-D weight and shape "
                             f"{b.shape[-1:]}, got {b.shape} and {bias.shape}")
        parents += (bias,)
    out = np.matmul(a.data, b.data)
    if bias is not None:
        out += bias.data

    def backward(g):
        if b.ndim != 2:
            return (_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)),
                                 a.shape) if a.requires_grad else None,
                    _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g),
                                 b.shape) if b.requires_grad else None)
        # activation @ weight: each gradient is one 2-D GEMM over the
        # flattened leading axes, with no broadcast sum for the weight
        g2 = g.reshape(-1, g.shape[-1])
        grads = ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                 a.data.reshape(-1, a.shape[-1]).T @ g2
                 if b.requires_grad else None)
        if bias is None:
            return grads
        return grads + (_unbroadcast(g, bias.shape)
                        if bias.requires_grad else None,)

    return _make(out, "matmul", parents, backward)


# -- nonlinearities ----------------------------------------------------------

def softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax over the last axis of an ndarray: the
    numpy kernel behind ``softmax_lastdim`` and ``local_attention``.
    ``out=x`` works in place, with the same bits."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_lastdim(x) -> Tensor:
    """Numerically stable softmax over the last axis."""
    x = as_tensor(x)
    if x.shape[-1] == 0:
        raise ShapeError("softmax over an empty axis")
    out = softmax_np(x.data)

    def backward(g):
        # d softmax: y * (g - sum(g * y))
        gy = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - gy),)

    return _make(out, "softmax", (x,), backward)


_TINY = np.nextafter(0.0, 1.0)


def phi_np(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 on an ndarray, as exp(min(x, 0)) + max(x, 0): the numpy
    kernel behind ``phi`` and the attention ops.  Floored at the smallest
    positive double so the output stays strictly positive where exp
    underflows; a NaN input stays NaN."""
    out = np.minimum(x, 0.0, out=np.empty(np.shape(x)))
    np.exp(out, out=out)
    out += np.maximum(x, 0.0)
    return np.maximum(out, _TINY, out=out)


def phi_grad(out: np.ndarray) -> np.ndarray:
    """d phi / dx from phi's output: 1 above zero, exp(x) = out below it
    (up to the underflow floor)."""
    return np.minimum(out, 1.0)


def phi(x) -> Tensor:
    """ELU(x) + 1, the strictly positive kernel feature map."""
    x = as_tensor(x)
    out = phi_np(x.data)

    def backward(g):
        return (g * phi_grad(out),)

    return _make(out, "phi", (x,), backward)


def sigmoid(x) -> Tensor:
    """Logistic function, without overflow in exp: with e = exp(-|x|),
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere (NaN included)."""
    x = as_tensor(x)
    check_inputs(x)
    e = np.exp(-np.abs(x.data))
    d = 1.0 + e
    out = np.where(x.data >= 0.0, 1.0 / d, e / d)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, "sigmoid", (x,), backward)


def layer_norm(x, gain, shift, eps: float, residual) -> Tensor:
    """A transformer sublayer's add-and-norm as one op: normalize ``x +
    residual`` (of ``x``'s shape) over the last axis to zero mean and unit
    variance, then scale by ``gain`` and add ``shift`` (both of shape
    ``(x.shape[-1],)``).  x and the residual share one input gradient."""
    x, gain, shift, residual = map(as_tensor, (x, gain, shift, residual))
    if (residual.shape != x.shape or gain.shape != x.shape[-1:]
            or shift.shape != x.shape[-1:]):
        raise ShapeError(f"layer_norm over {x.shape} needs a residual of that "
                         f"shape and gain and shift of shape {x.shape[-1:]}; "
                         f"got {residual.shape}, {gain.shape}, {shift.shape}")
    # means are sums times 1/n, as ``tmean`` computes them
    inv_n = 1.0 / x.shape[-1]
    normed = x.data + residual.data
    normed -= normed.sum(axis=-1, keepdims=True) * inv_n
    out = normed * normed
    std = np.sqrt(out.sum(axis=-1, keepdims=True) * inv_n + eps)
    normed /= std
    np.multiply(normed, gain.data, out=out)
    out += shift.data

    def backward(g):
        # dx = (gh - mean(gh) - normed * mean(gh * normed)) / std
        gh = g * gain.data
        dx = gh - gh.sum(axis=-1, keepdims=True) * inv_n
        gh *= normed
        dx -= normed * (gh.sum(axis=-1, keepdims=True) * inv_n)
        dx /= std
        # x and the residual share one dx, so backward lends it to both
        return (dx if x.requires_grad else None,
                dx if residual.requires_grad else None,
                _unbroadcast(g * normed, gain.shape)
                if gain.requires_grad else None,
                _unbroadcast(g, shift.shape) if shift.requires_grad else None)

    return _make(out, "layer_norm", (x, residual, gain, shift), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x) -> Tensor:
    """Gaussian error linear unit (tanh approximation).

    Forward and backward each work in place on two buffers.  They give
    the same bits as 0.5 * x * (1 + t) with t = tanh(c * (x + 0.044715 *
    x^3)), and as its derivative written the same way: halving 1 + t or
    1 - t*t (0 or at least 2^-53) is exact, so 0.5 may move across x."""
    x = as_tensor(x)
    xd = np.atleast_1d(x.data)     # 0-d products are scalars, not buffers
    x2 = xd * xd
    t = x2 * xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 1.0 + t
    out *= 0.5
    out *= xd

    def backward(g):
        # dx = 0.5 * (1 + t) + 0.5 * x * (1 - t*t) * c * (1 + 3*0.044715*x2)
        dx = t * t
        np.subtract(1.0, dx, out=dx)
        dx *= 0.5
        dx *= xd
        tmp = x2 * (3 * 0.044715)
        tmp += 1.0
        tmp *= _GELU_C
        dx *= tmp
        np.add(t, 1.0, out=tmp)
        tmp *= 0.5
        dx += tmp
        dx *= g
        return (dx.reshape(x.shape),)

    return _make(out.reshape(x.shape), "gelu", (x,), backward)


def tabs(x) -> Tensor:
    x = as_tensor(x)
    out = np.abs(x.data)

    def backward(g):
        return (g * np.sign(x.data),)

    return _make(out, "abs", (x,), backward)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)

    def backward(g):
        return (g * 0.5 / out,)

    return _make(out, "sqrt", (x,), backward)


# -- reductions and shape ops -------------------------------------------------

def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims and axis is not None:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(a % x.ndim for a in axes))
        return (np.broadcast_to(g, x.shape),)

    return _make(np.asarray(out), "sum", (x,), backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x, *shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(out, "reshape", (x,), backward)


def swapaxes(x, ax1: int, ax2: int) -> Tensor:
    x = as_tensor(x)
    out = x.data.swapaxes(ax1, ax2)

    def backward(g):
        return (g.swapaxes(ax1, ax2),)

    return _make(out, "swapaxes", (x,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(piece if t.requires_grad else None
                     for t, piece in zip(ts, np.split(g, splits, axis=axis)))

    return _make(out, "concat", tuple(ts), backward)


def gather_last(x, index: np.ndarray) -> Tensor:
    """Index the last axis with an integer array; output shape is
    ``x.shape[:-1] + index.shape``."""
    x = as_tensor(x)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_last needs an integer index array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise ShapeError(
            f"gather index out of range for axis of size {x.shape[-1]}")
    out = x.data[..., idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (Ellipsis, idx), g)
        return (gx,)

    return _make(out, "gather", (x,), backward)
