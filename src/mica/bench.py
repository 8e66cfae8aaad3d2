"""Cost accounting and scaling benchmarks.

FLOP convention (exact integers, applied uniformly to every mechanism):
a matmul (m,k)@(k,n) is 2*m*k*n; every elementwise op (add, mul, div,
exp, activation) is 1 per output element; a reduction over k elements is
k; a softmax row of width n is 5n (max, shift, exp, sum, divide);
a layer-norm row of width n is 5n + 4.  Only ratios and growth rates
matter, so activations are deliberately flat-rate.

Mechanisms, each timed as a no-grad ``ForecastModel`` forward; which ones
a config can run is decided by ``check_mechanisms``, before any work:
  ``baseline``  channel-separate local softmax attention only
  ``mica``      baseline plus the channel-compressed global path and gate
  ``concat``    one softmax attention over all C*P tokens (the quadratic
                reference the compressed path replaces): the baseline
                model built with ``concat=True``, whose blocks attend over
                the flattened token axis; same parameters as ``baseline``
"""
from __future__ import annotations

import ctypes
import functools
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .backbone import ForecastModel, ModelConfig, patch_count
from .tensor import no_grad

MECHANISMS = ("baseline", "mica", "concat")


@dataclass
class FlopReport:
    """Single-forward FLOPs for one mechanism at one problem size."""
    mechanism: str
    n_channels: int
    local_flops: int
    global_flops: int
    gate_flops: int
    backbone_flops: int

    @property
    def total_flops(self) -> int:
        return (self.local_flops + self.global_flops + self.gate_flops +
                self.backbone_flops)


def _ln_flops(width: int) -> int:
    return 5 * width + 4


def _linear_flops(rows: int, n_in: int, n_out: int) -> int:
    return rows * (2 * n_in * n_out + n_out)


def _softmax_flops(rows: int, width: int) -> int:
    return rows * 5 * width


def check_mechanisms(cfg: ModelConfig, mechanisms) -> None:
    """Raise ``ValueError`` unless ``cfg`` can run each of ``mechanisms``,
    each named once."""
    unknown = sorted(set(mechanisms) - set(MECHANISMS))
    if unknown:
        raise ValueError(f"unknown mechanisms {unknown}")
    repeated = sorted(m for m, n in Counter(mechanisms).items() if n > 1)
    if repeated:
        raise ValueError(f"mechanisms {repeated} named more than once")
    if "mica" in mechanisms and cfg.mica is None:
        raise ValueError("mechanism 'mica' needs cfg.mica (model.mica = true)")


def _check_costed(cfg: ModelConfig, n_channels: int, mechanism: str) -> None:
    """What ``ForecastModel`` rejects, the cost formulas reject too."""
    check_mechanisms(cfg, (mechanism,))
    if n_channels < 1:
        raise ValueError(f"n_channels must be positive, got {n_channels}")


def count_flops(cfg: ModelConfig, n_channels: int,
                mechanism: str) -> FlopReport:
    """Exact analytic FLOPs of one forward pass on a single window."""
    _check_costed(cfg, n_channels, mechanism)
    c = n_channels
    p = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)
    d, ff, n, lyr = cfg.d_model, cfg.ff_hidden, cfg.n_heads, cfg.n_layers
    dk, dv = cfg.d_k, cfg.d_v
    tokens = c * p

    backbone = 0
    # standardize: mean L + center L + std (square L + sum L + sqrt 1) + div L
    backbone += c * (5 * cfg.input_size + 1)
    backbone += _linear_flops(tokens, cfg.patch_len, d)          # embed
    backbone += tokens * d                                       # + posenc
    per_layer_backbone = (
        3 * _linear_flops(tokens, d, n * dk)                     # q,k,v
        + _linear_flops(tokens, n * dv, d)                       # out proj
        + 2 * tokens * d                                         # residuals
        + 2 * tokens * _ln_flops(d)
        + _linear_flops(tokens, d, ff) + tokens * ff             # ffn up+gelu
        + _linear_flops(tokens, ff, d))
    backbone += lyr * per_layer_backbone
    backbone += _linear_flops(c, p * d, cfg.horizon)             # head
    backbone += 2 * c * cfg.horizon                              # destandardize

    local = global_ = gate = 0
    if mechanism in ("baseline", "mica"):
        rows = c * n * p
        local = lyr * (rows * 2 * p * dk + rows * p +            # scores+scale
                       _softmax_flops(rows, p) +
                       rows * 2 * p * dv)                        # @ values
    else:  # concat: every channel attends over all C*P tokens
        rows = n * tokens
        local = lyr * (rows * 2 * tokens * dk + rows * tokens +
                       _softmax_flops(rows, tokens) +
                       rows * 2 * tokens * dv)

    if mechanism == "mica":
        m = cfg.mica
        per_layer_global = (
            c * n * p * dk                      # phi(K)
            + c * n * 2 * dk * p * dv           # phi(K)^T V per channel
            + c * n * dk * p                    # z per channel
            + c * n * dk * dv + c * n * dk      # channel reduction of M, z
            + c * n * p * dk                    # phi(Q)
            + c * n * p * 2 * dk * dv           # read numerator
            + c * n * p * (2 * dk + 1)          # read denominator + eps
            + c * n * p * dv)                   # divide
        if m.weight_mode == "static":
            per_layer_global += c * n * (dk * dv + dk)
        elif m.weight_mode == "dynamic":
            per_layer_global += (c * n * p * dk             # pool queries
                                 + c * n * (2 * dk + 1)     # project
                                 + c * n * (dk * dv + dk))  # apply
        if m.exclusion:
            per_layer_global += c * n * (dk * dv + dk)
        global_ = lyr * per_layer_global

        mix_cost = 4 * c * n * p * dv
        if m.gate_layers:
            per_token = sum(_linear_flops(1, a, b) + b             # + act
                            for a, b in m.gate_layers)
            gate = lyr * (tokens * per_token + mix_cost)
        else:
            n_beta = n * (c if m.channelwise else 1)
            gate = lyr * (n_beta + mix_cost)

    return FlopReport(mechanism=mechanism, n_channels=c, local_flops=local,
                      global_flops=global_, gate_flops=gate,
                      backbone_flops=backbone)


def count_params(cfg: ModelConfig, n_channels: int, mechanism: str) -> int:
    """Closed-form parameter count; must match the instantiated model."""
    _check_costed(cfg, n_channels, mechanism)
    c = n_channels
    p = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)
    d, ff, n, lyr = cfg.d_model, cfg.ff_hidden, cfg.n_heads, cfg.n_layers
    dk, dv = cfg.d_k, cfg.d_v

    total = cfg.patch_len * d + d                                # embed
    per_layer = (3 * (d * n * dk + n * dk)                       # q,k,v
                 + n * dv * d + d                                # out proj
                 + 2 * 2 * d                                     # layer norms
                 + d * ff + ff + ff * d + d)                     # ffn
    total += lyr * per_layer
    if cfg.head_kind == "multivariate":
        total += c * (p * d * cfg.horizon + cfg.horizon)
    else:
        total += p * d * cfg.horizon + cfg.horizon

    if mechanism == "mica":
        m = cfg.mica
        if m.gate_layers:
            total += lyr * sum(a * b + b for a, b in m.gate_layers)
        else:
            total += (n * (lyr if m.layerwise else 1)
                      * (c if m.channelwise else 1))
        if m.weight_mode == "static":
            total += lyr * c
        elif m.weight_mode == "dynamic":
            total += lyr * (dk + 1)
    return total


# -- timing -----------------------------------------------------------------------

# thread controls exported by the OpenBLAS builds numpy wheels bundle
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_set_num_threads64_"),
                 ("scipy_openblas_get_num_threads",
                  "scipy_openblas_set_num_threads"),
                 ("openblas_get_num_threads64_",
                  "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """(getter, setter) of the OpenBLAS under ``numpy.libs``, or None."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_controls():
    controls = _openblas()
    if controls is None:
        raise RuntimeError("no known BLAS thread control in numpy's bundled "
                           "libraries; cannot verify single-thread execution")
    return controls


def blas_threads() -> int:
    """Thread count of numpy's BLAS pool."""
    return int(_blas_controls()[0]())


def set_blas_threads(n: int) -> None:
    """Resize numpy's BLAS pool to ``n`` threads and verify it took."""
    if n < 1:
        raise ValueError(f"BLAS threads must be >= 1, got {n}")
    get, put = _blas_controls()
    put(n)
    got = get()
    if got != n:
        raise RuntimeError(f"BLAS pool reports {got} threads after asking "
                           f"for {n}")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def one_blas_thread() -> bool:
    """Give numpy's BLAS pool one thread, if a control for it is known;
    returns whether the pool now reports one thread."""
    controls = _openblas()
    if controls is None:
        return False
    get, put = controls
    put(1)
    return get() == 1


@dataclass
class LatencyStats:
    mean_ms: float
    repeats: int


def measure_latency(fn, repeats: int = 100, warmup: int = 10) -> LatencyStats:
    """Mean wall-clock of ``fn()`` after warmup runs.  BLAS is pinned to
    one thread for the length of the call, then restored."""
    if repeats < 1 or warmup < 0:
        raise ValueError("need repeats >= 1 and warmup >= 0")
    previous = blas_threads()
    try:
        set_blas_threads(1)
        for _ in range(warmup):
            fn()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        set_blas_threads(previous)
    return LatencyStats(mean_ms=float(np.mean(times)), repeats=repeats)


# -- scaling fits -------------------------------------------------------------------

@dataclass
class ScalingFit:
    """Least-squares slope of log(cost) against log(size)."""
    exponent: float
    r2: float


def check_fit_sizes(sizes) -> None:
    """Raise ``ValueError`` unless a sweep over ``sizes`` can be fitted:
    called by ``fit_scaling``, and by ``mica bench`` before it sweeps."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size < 4:
        raise ValueError("need at least 4 sweep points for a scaling fit")
    if np.any(np.diff(sizes) <= 0):
        raise ValueError("sweep sizes must be strictly increasing")
    if np.any(sizes <= 0):
        raise ValueError("sweep sizes must be positive")


def fit_scaling(sizes, costs) -> ScalingFit:
    check_fit_sizes(sizes)
    sizes = np.asarray(sizes, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if np.any(costs <= 0):
        raise ValueError("costs must be positive")
    lx, ly = np.log(sizes), np.log(costs)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(exponent=float(slope), r2=r2)


# -- sweeps -------------------------------------------------------------------------

@dataclass
class BenchRow:
    mechanism: str
    size: int                 # the swept value (channels or input length)
    flops: FlopReport
    params: int
    latency: LatencyStats | None = None


def _forward_fn(cfg: ModelConfig, n_channels: int, mechanism: str,
                seed: int = 0):
    """A callable that runs one no-grad forward of ``mechanism``'s model on
    a fixed single window and returns the forecast."""
    rng = np.random.default_rng(seed + 1)
    window = rng.normal(size=(1, n_channels, cfg.input_size))
    model_cfg = cfg if mechanism == "mica" else replace(cfg, mica=None)
    model = ForecastModel(model_cfg, n_channels, seed=seed,
                          concat=mechanism == "concat")

    def run():
        with no_grad():
            return model.forward(window).data
    return run


def sweep_channels(cfg: ModelConfig, grid, mechanisms=MECHANISMS,
                   measure: bool = False, repeats: int = 5, warmup: int = 1,
                   seed: int = 0) -> list[BenchRow]:
    """Cost rows for each mechanism across a channel-count grid; every
    mechanism is checked before any is timed."""
    check_mechanisms(cfg, mechanisms)
    rows = []
    for mech in mechanisms:
        for c in grid:
            rep = count_flops(cfg, c, mech)
            params = count_params(cfg, c, mech)
            lat = None
            if measure:
                lat = measure_latency(_forward_fn(cfg, c, mech, seed),
                                      repeats=repeats, warmup=warmup)
            rows.append(BenchRow(mechanism=mech, size=c, flops=rep,
                                 params=params, latency=lat))
    return rows


def sweep_lengths(cfg: ModelConfig, grid, mechanisms=MECHANISMS,
                  n_channels: int = 7, measure: bool = False,
                  repeats: int = 5, warmup: int = 1,
                  seed: int = 0) -> list[BenchRow]:
    """Cost rows across input-window lengths at fixed channel count; every
    length's config is built, and so checked, before any is timed."""
    check_mechanisms(cfg, mechanisms)
    configs = [replace(cfg, input_size=length) for length in grid]
    rows = []
    for mech in mechanisms:
        for length, length_cfg in zip(grid, configs):
            (row,) = sweep_channels(length_cfg, [n_channels], (mech,),
                                    measure, repeats, warmup, seed)
            row.size = length
            rows.append(row)
    return rows
