"""In-memory span tracing of mica's public callables, installed from outside.

The tracer replaces public functions and class-level methods of the
``mica`` modules with thin wrappers that record a span per call:
``[name, start, end, parent, run, layer, part]``.  Nothing inside ``src/`` is
edited and no private name is wrapped; ``remove()`` puts every original
object back.  Spans stay in memory and are written once, to a trace file
of their own, by ``write``.

Module calls are named by their role in a registered model (``embed``,
``l0.qkv``, ``l1.norm2`` ...), so per-layer numbers come from the span tree
alone: a part's forward time is the inclusive time of its outermost spans,
an op's time is its self time (duration minus what its child spans cover).
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# tensor op function -> category reported as tensor.<category>.fwd_ms
OP_CATEGORY = {
    "matmul": "matmul", "softmax_lastdim": "softmax", "phi": "phi",
    "sigmoid": "sigmoid", "gelu": "gelu",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "div": "elementwise", "tabs": "elementwise", "sqrt": "elementwise",
    "tsum": "reduce", "tmean": "reduce",
    "reshape": "shape", "swapaxes": "shape", "concat": "shape",
    "gather_last": "shape",
}

# attention helpers whose calls belong to one part of an encoder layer
FUNCTION_PART = {
    "split_heads": "qkv", "local_attention": "local",
    "global_memory": "global", "global_attention": "global",
    "mix": "gate", "merge_heads": "out",
}

# other public callables timed as spans: (module, attribute)
CALLABLES = [
    ("tensor", "Tensor.backward"), ("training", "Adam.step"),
    ("nn", "Module.zero_grad"), ("nn", "Module.state_arrays"),
    ("training", "sample_windows"), ("training", "mae_loss"),
    ("training", "evaluate"), ("training", "eval_windows"),
    ("data", "load_csv"), ("data", "write_csv"), ("data", "gen_leadlag"),
    ("data", "gen_independent"), ("backbone", "load_params"),
    ("backbone", "save_params"), ("cli", "parse_config"),
    ("cli", "cmd_eval"),
]

MODULE_CLASSES = [
    ("nn", "Linear"), ("nn", "LayerNorm"), ("nn", "FeedForward"),
    ("attention", "MicaAttention"), ("attention", "LocalAttention"),
    ("attention", "BetaGate"), ("attention", "MlpGate"),
    ("backbone", "EncoderLayer"), ("backbone", "MultivariateHead"),
    ("backbone", "ForecastModel"),
]

NAMESPACES = ("tensor", "nn", "attention", "backbone", "training", "data",
              "bench", "cli", "gradcheck")

NAME, START, END, PARENT, RUN, LAYER, PART = range(7)

# the parts of the per-layer forward/backward split
PARTS = ("embed", "head", "qkv", "local", "global", "gate", "out", "norm1",
         "norm2", "ffn")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, mica_pkg):
        self._pkg = mica_pkg
        self.spans: list[list] = []
        self.run = ""
        self.tape_nodes: dict[str, int] = defaultdict(int)
        self.capture: list | None = None
        self._stack: list[int] = []
        self._roles: dict[int, tuple[str, str]] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- roles ----------------------------------------------------------------
    def register(self, model) -> None:
        """Name the sub-modules of a ForecastModel by layer and part."""
        roles = self._roles
        roles[id(model.embed)] = ("", "embed")
        roles[id(model.head)] = ("", "head")
        for i, layer in enumerate(model.layers):
            lyr = f"l{i}"
            attn = layer.attn
            roles[id(layer)] = (lyr, "layer")
            roles[id(attn)] = (lyr, "attn")
            for lin in (attn.w_q, attn.w_k, attn.w_v):
                roles[id(lin)] = (lyr, "qkv")
            roles[id(attn.w_out)] = (lyr, "out")
            roles[id(layer.norm1)] = (lyr, "norm1")
            roles[id(layer.norm2)] = (lyr, "norm2")
            roles[id(layer.ffn)] = (lyr, "ffn")
        for gate in model.gates:
            roles[id(gate)] = ("", "gate")

    # -- wrapping --------------------------------------------------------------
    def _span_wrapper(self, orig, name, part, from_self: bool, op: bool):
        spans, stack, roles = self.spans, self._stack, self._roles
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            up = spans[parent] if parent >= 0 else None
            layer, role = "", part
            if from_self:
                layer, role = roles.get(id(args[0]), ("", part))
            if not layer and up is not None:
                layer = up[LAYER]
            if role in PARTS:
                key = f"{layer}.{role}" if layer else role
            else:
                key = up[PART] if up is not None else ""
            idx = len(spans)
            spans.append([name, clock(), 0.0, parent, self.run, layer, key])
            stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if op and getattr(out, "requires_grad", False):
                self.tape_nodes[self.run] += 1
            if (self.capture is not None and role in PARTS
                    and (up is None or up[PART] != key)):
                self.capture.append((key, orig, args, kwargs))
            return out

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public callable listed above, in every namespace that
        binds it, so calls through any import path are recorded."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = {n: getattr(self._pkg, n) for n in NAMESPACES}
        spaces = list(mods.values()) + [self._pkg]
        functions = [(mods["tensor"], n, f"op.{n}", "", True)
                     for n in OP_CATEGORY]
        functions += [(mods["attention"], n, f"fn.{n}", p, False)
                      for n, p in FUNCTION_PART.items()]
        for mod, dotted in CALLABLES:
            if "." not in dotted:
                functions.append((mods[mod], dotted, f"fn.{dotted}", "",
                                  False))
        for home, attr, name, part, op in functions:
            orig = getattr(home, attr)
            wrapped = self._span_wrapper(orig, name, part, False, op)
            for space in spaces:
                for key, val in list(vars(space).items()):
                    if val is orig:
                        self._replace(space, key, wrapped)
        methods = [(getattr(mods[m], c), "__call__", f"cls.{c}")
                   for m, c in MODULE_CLASSES]
        methods.append((mods["backbone"].ForecastModel, "forward",
                        "cls.ForecastModel"))
        for mod, dotted in CALLABLES:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                methods.append((getattr(mods[mod], cls_name), attr,
                                f"fn.{dotted}"))
        done: dict[int, object] = {}
        for cls, attr, name in methods:
            orig = cls.__dict__[attr]
            if id(orig) not in done:
                done[id(orig)] = self._span_wrapper(orig, name, "", True,
                                                    False)
            self._replace(cls, attr, done[id(orig)])

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """One JSON line per span, with its self time."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "run": s[RUN],
                    "part": s[PART], "self_ms": selfs[i] * 1e3}) + "\n")


# -- aggregation ----------------------------------------------------------------

def self_times(spans) -> np.ndarray:
    """Span duration minus the time its direct children cover (seconds)."""
    out = np.array([s[END] - s[START] for s in spans])
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def step_breakdown(spans, run: str, n_steps: int) -> dict[str, float]:
    """Per-train-step forward figures from the spans of one traced run.

    Returns ``part.<key>`` (inclusive ms of a part's outermost spans, plus
    ``part.prep``: the model forward minus embed, layers and head),
    ``op.<category>`` (op self time, ms) and ``count.<op>`` / ``count.ops``
    (calls), all divided by ``n_steps``.  Forwards run by ``evaluate``
    (validation checks) are left out.
    """
    selfs = self_times(spans)
    in_eval = np.zeros(len(spans), dtype=bool)
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        in_eval[i] = s[NAME] == "fn.evaluate" or (parent >= 0
                                                   and in_eval[parent])
        if s[RUN] != run or in_eval[i]:
            continue
        dur = s[END] - s[START]
        key = s[PART]
        if key and (parent < 0 or spans[parent][PART] != key):
            totals[f"part.{key}"] += dur
        if s[NAME] == "cls.ForecastModel":
            totals["part.prep"] += dur
        elif s[NAME] == "cls.EncoderLayer":
            totals["part.prep"] -= dur
        elif s[NAME].startswith("op."):
            op = s[NAME][3:]
            totals[f"op.{OP_CATEGORY[op]}"] += selfs[i]
            totals[f"count.{op}"] += 1
            totals["count.ops"] += 1
    totals["part.prep"] -= totals["part.embed"] + totals["part.head"]
    return {k: (v if k.startswith("count.") else v * 1e3) / n_steps
            for k, v in totals.items()}


def span_ms(spans, run: str, name: str) -> tuple[float, float, int]:
    """Inclusive ms, self ms and call count of one callable within a run
    (outermost calls only for the inclusive time)."""
    selfs = self_times(spans)
    incl = own = 0.0
    calls = 0
    for i, s in enumerate(spans):
        if s[RUN] != run or s[NAME] != name:
            continue
        own += selfs[i]
        calls += 1
        parent = s[PARENT]
        if parent < 0 or spans[parent][NAME] != name:
            incl += s[END] - s[START]
    return incl * 1e3, own * 1e3, calls


# -- backward micro-runs ---------------------------------------------------------

def backward_costs(capture: list, tensor_cls, reps: int,
                   seed: int = 0) -> dict[str, float]:
    """Backward ms per part from isolated forward+backward replays.

    Each captured public call is replayed on fresh leaf copies of its
    tensor inputs, with a fixed upstream gradient on every output that
    needs one; backward is the best (forward+backward) time minus the best
    forward-only time.  Parts made of several calls (the q, k and v
    projections) sum their calls.  Run with the wrappers removed.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, float] = defaultdict(float)

    def fresh(args):
        return [tensor_cls(a.data.copy(), requires_grad=a.requires_grad)
                if isinstance(a, tensor_cls) else a for a in args]

    def graded(result):
        return [t for t in _flatten(result)
                if isinstance(t, tensor_cls) and t.requires_grad]

    for key, fn, args, kwargs in capture:
        # a module's own parameters collect gradients across replays
        owner = args[0] if not isinstance(args[0], tensor_cls) and hasattr(
            args[0], "zero_grad") else None
        grads = [tensor_cls(rng.normal(size=t.shape))
                 for t in graded(fn(*fresh(args), **kwargs))]
        best = {False: np.inf, True: np.inf}
        for _ in range(reps):
            for full in (False, True):
                if owner is not None:
                    owner.zero_grad()
                leaves = fresh(args)
                t0 = time.perf_counter()
                res = graded(fn(*leaves, **kwargs))
                loss = sum((r * g).sum() for r, g in zip(res, grads))
                if full:
                    loss.backward()
                best[full] = min(best[full], time.perf_counter() - t0)
        if owner is not None:
            owner.zero_grad()
        out[key] += (best[True] - best[False]) * 1e3
    return dict(out)


def _flatten(x):
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from _flatten(item)
    else:
        yield x
