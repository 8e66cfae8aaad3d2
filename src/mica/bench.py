"""Cost accounting and scaling benchmarks.

FLOP convention (exact integers, applied uniformly to every mechanism):
a matmul (m,k)@(k,n) is 2*m*k*n; every elementwise op (add, mul, div,
exp, activation) is 1 per output element; a reduction over k elements is
k; a softmax row of width n is 5n (max, shift, exp, sum, divide);
a layer-norm row of width n is 5n + 4.  Only ratios and growth rates
matter, so activations are deliberately flat-rate.  ``count_flops`` and
``count_params`` read one table of the model's affine maps,
``_affine_maps``, so both are exact for any ``d_k`` and ``d_v``.

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


def check_mechanisms(cfg: ModelConfig, mechanisms) -> None:
    """Raise ``ValueError`` unless ``cfg`` can run each of ``mechanisms``,
    at least one, each named once."""
    if not mechanisms:
        raise ValueError("no mechanism named: list at least one of "
                         f"{list(MECHANISMS)}")
    unknown = sorted(set(mechanisms) - set(MECHANISMS))
    if unknown:
        raise ValueError(f"unknown mechanisms {unknown}")
    repeated = sorted(m for m, n in Counter(mechanisms).items() if n > 1)
    if repeated:
        raise ValueError(f"mechanisms {repeated} named more than once")
    if "mica" in mechanisms and cfg.mica is None:
        raise ValueError("mechanism 'mica' needs cfg.mica (model.mica = true)")


def _affine_maps(cfg: ModelConfig, n_channels: int,
                 mechanism: str) -> list[tuple[str, int, int, int, int]]:
    """Every affine map of ``mechanism``'s model, each listed once as
    (FlopReport part, rows per window, n_in, n_out, copies): the one
    statement of their shapes that both counts read.  What
    ``ForecastModel`` rejects, this rejects too."""
    check_mechanisms(cfg, (mechanism,))
    if n_channels < 1:
        raise ValueError(f"n_channels must be positive, got {n_channels}")
    c = n_channels
    p = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)
    d, ff, n, lyr = cfg.d_model, cfg.ff_hidden, cfg.n_heads, cfg.n_layers
    tokens = c * p
    maps = [("backbone", tokens, cfg.patch_len, d, 1)]           # embed
    for n_in, n_out in ((d, n * cfg.d_k), (d, n * cfg.d_k),      # W_q, W_k
                        (d, n * cfg.d_v), (n * cfg.d_v, d),      # W_v, W_out
                        (d, ff), (ff, d)):                       # ffn
        maps.append(("backbone", tokens, n_in, n_out, lyr))
    if mechanism == "mica":
        maps += [("gate", tokens, a, b, lyr) for a, b in cfg.mica.gate_layers]
        if cfg.mica.weight_mode == "dynamic":                    # weight_proj
            maps.append(("global", c * n, cfg.d_k, 1, lyr))
    if cfg.head_kind == "multivariate":
        maps.append(("backbone", 1, p * d, cfg.horizon, c))
    else:
        maps.append(("backbone", c, p * d, cfg.horizon, 1))
    return maps


def count_flops(cfg: ModelConfig, n_channels: int,
                mechanism: str) -> FlopReport:
    """Exact analytic FLOPs of one forward pass on a single window."""
    parts = Counter()
    for part, rows, n_in, n_out, copies in _affine_maps(cfg, n_channels,
                                                        mechanism):
        parts[part] += copies * rows * (2 * n_in * n_out + n_out)
    c = n_channels
    p = patch_count(cfg.input_size, cfg.patch_len, cfg.stride)
    d, n, lyr = cfg.d_model, cfg.n_heads, cfg.n_layers
    dk, dv = cfg.d_k, cfg.d_v
    tokens = c * p

    # standardize: mean L + center L + std (square L + sum L + sqrt 1) + div L
    backbone = parts["backbone"] + c * (5 * cfg.input_size + 1)
    backbone += tokens * d                                       # + posenc
    backbone += lyr * tokens * (2 * d + 2 * (5 * d + 4)          # residuals,
                                + cfg.ff_hidden)                 # norms, gelu
    backbone += 2 * c * cfg.horizon                              # destandardize

    # N*C*P query rows, each over its channel's P keys, or all C*P (concat)
    rows, keys = n * tokens, tokens if mechanism == "concat" else p
    local = lyr * rows * (2 * keys * dk + keys                   # scores+scale
                          + 5 * keys + 2 * keys * dv)            # softmax, @ V

    global_ = gate = 0
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
                                 + c * n * (dk * dv + dk))  # apply
        if m.exclusion:
            per_layer_global += c * n * (dk * dv + dk)
        global_ = parts["global"] + lyr * per_layer_global

        mix_cost = 4 * c * n * p * dv
        if m.gate_layers:                       # an activation per output
            per_layer_gate = tokens * sum(b for _, b in m.gate_layers)
        else:
            per_layer_gate = n * (c if m.channelwise else 1)
        gate = parts["gate"] + lyr * (per_layer_gate + mix_cost)

    return FlopReport(mechanism=mechanism, n_channels=c, local_flops=local,
                      global_flops=global_, gate_flops=gate,
                      backbone_flops=backbone)


def count_params(cfg: ModelConfig, n_channels: int, mechanism: str) -> int:
    """Closed-form parameter count; must match the instantiated model."""
    total = sum(copies * (n_in * n_out + n_out) for _, _, n_in, n_out, copies
                in _affine_maps(cfg, n_channels, mechanism))
    total += cfg.n_layers * 2 * 2 * cfg.d_model                  # layer norms
    if mechanism == "mica":
        m = cfg.mica
        if not m.gate_layers:                   # beta: one per gate object
            n_gates = cfg.n_layers if m.layerwise else min(cfg.n_layers, 1)
            total += (m.n_heads * n_gates
                      * (n_channels if m.channelwise else 1))
        if m.weight_mode == "static":
            total += cfg.n_layers * n_channels
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


def blas_threads() -> int:
    """Thread count of numpy's BLAS pool."""
    controls = _openblas()
    if controls is None:
        raise RuntimeError("no known BLAS thread control in numpy's bundled "
                           "libraries; cannot verify single-thread execution")
    return int(controls[0]())


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
    """Mean wall-clock of ``fn()`` after warmup runs.  Importing mica
    gives numpy's BLAS one thread for the whole process
    (``training.BLAS_ONE_THREAD``); this only checks that it still has
    one, and raises ``RuntimeError`` before ``fn`` runs if not."""
    if repeats < 1 or warmup < 0:
        raise ValueError("need repeats >= 1 and warmup >= 0")
    threads = blas_threads()
    if threads != 1:
        raise RuntimeError(f"BLAS pool reports {threads} threads; timing "
                           "needs 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
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
    if not np.all(np.diff(sizes) > 0):  # NaN too
        raise ValueError("sweep sizes must be strictly increasing")
    if not np.all(sizes > 0):
        raise ValueError("sweep sizes must be positive")


def fit_scaling(sizes, costs) -> ScalingFit:
    check_fit_sizes(sizes)
    sizes = np.asarray(sizes, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if not np.all((costs > 0) & (costs < np.inf)):  # NaN too
        raise ValueError("costs must be positive and finite")
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
