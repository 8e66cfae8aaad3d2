"""Panel dataset loading, splitting, PCA rotation, and synthetic generators.

A panel is a dense (C, T) float64 matrix of C named channels on a shared,
evenly spaced time grid, C-ordered from any source, so the same values
give the same bits from a wide CSV, a long CSV or a generator.  Splits are
two boundary indices on the dataset, so every consumer slices alike:
train [0, train_end), validation [train_end, val_end), test [val_end, T).

A wide CSV file of plain finite numbers (numeric or ISO timestamps) is
read in one ``np.loadtxt`` pass; every other file by the cell reader,
which gives a clean file the same values.  It converts a column at a
time with one ``float`` pass over its cells; only a column that pass
rejects (NA, empty cells, ISO timestamps, or a bad cell), or leaves
non-finite, is parsed cell by cell, and errors name the physical
``path:line`` of the first bad cell in file order.
``write_csv`` formats rows with ``repr``, so a written panel loads back
bit for bit.
"""
from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Bad run configuration or data that cannot satisfy it."""


@dataclass
class PanelDataset:
    values: np.ndarray            # (C, T)
    channel_ids: list[str]
    train_end: int | None = None  # split boundaries; set by chrono_split
    val_end: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64, order="C")
        if self.values.ndim != 2:
            raise ConfigError(f"panel values must be (C,T), "
                              f"got shape {self.values.shape}")
        if len(self.channel_ids) != self.values.shape[0]:
            raise ConfigError("channel id count does not match value rows")
        _channel_ids(self.channel_ids)
        if (self.train_end is None) != (self.val_end is None):
            raise ConfigError(f"set both split bounds or neither, got "
                              f"train_end={self.train_end}, "
                              f"val_end={self.val_end}")
        if self.train_end is not None:
            t = self.values.shape[1]
            if not (0 < self.train_end < self.val_end <= t):
                raise ConfigError(
                    f"split bounds 0 < {self.train_end} < {self.val_end} "
                    f"<= {t} violated")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def require_split(self) -> None:
        if self.train_end is None:
            raise ConfigError("dataset has no train/val/test split; "
                              "call chrono_split first")


def chrono_split(panel: PanelDataset, val_size: int,
                 test_size: int) -> PanelDataset:
    """Reserve the last ``test_size`` steps for test and the ``val_size``
    before them for validation."""
    t = panel.n_steps
    if val_size < 1 or test_size < 1:
        raise ConfigError("val_size and test_size must be positive")
    train_end = t - val_size - test_size
    if train_end < 1:
        raise ConfigError(
            f"series of length {t} cannot hold val={val_size} + "
            f"test={test_size} plus a nonempty train span")
    return replace(panel, train_end=train_end, val_end=train_end + val_size)


# -- CSV I/O --------------------------------------------------------------------

def _parse_timestamp(text: str, path, line_no: int) -> float:
    try:
        stamp = float(text)
    except ValueError:
        try:
            parsed = datetime.fromisoformat(text)
        except ValueError:
            raise ConfigError(f"{path}:{line_no}: cannot parse timestamp "
                              f"{text!r}") from None
        if parsed.tzinfo is None:  # UTC, not the host's zone
            parsed = parsed.replace(tzinfo=timezone.utc)
        stamp = parsed.timestamp()
    if not np.isfinite(stamp):
        raise ConfigError(f"{path}:{line_no}: timestamp {text!r} is not "
                          "finite")
    return stamp


def _parse_value(text: str, path, line_no: int) -> float:
    text = text.strip()
    if text == "" or text.lower() in ("nan", "na"):
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"{path}:{line_no}: cannot parse value {text!r}") from None
    if np.isinf(value):
        raise ConfigError(f"{path}:{line_no}: value {text!r} is not finite")
    return value


def _parse_column(cells, parse, path, line_nos) -> np.ndarray:
    """One column as float64: a single ``float`` pass over every cell, and
    only if that raises or leaves a non-finite value, ``parse`` cell by
    cell (NA, empty cells, ISO timestamps, an infinite value or
    timestamp, or a bad cell).  Whatever ``float`` accepts, ``parse`` maps
    to the same value or rejects."""
    try:
        column = np.fromiter(map(float, cells), np.float64, len(cells))
        if np.isfinite(column).all():
            return column
    except ValueError:
        pass
    return np.array([parse(text, path, n) for text, n in zip(cells, line_nos)])


def _parse_columns(rows, parsers, path, line_nos) -> list[np.ndarray]:
    """The columns of ``rows``, column j through ``parsers[j]``.  A bad
    cell is reported at the first one in file order, row by row."""
    columns = list(zip(*rows)) or [()] * len(parsers)  # no rows: empty
    try:
        return [_parse_column(cells, parse, path, line_nos)
                for cells, parse in zip(columns, parsers)]
    except ConfigError:
        for row, n in zip(rows, line_nos):
            for text, parse in zip(row, parsers):
                parse(text, path, n)
        raise


def _check_time_grid(stamps: np.ndarray, path, line_nos=None) -> None:
    """Reject a grid that is not strictly increasing (naming the line of
    the first row out of order, when rows are in file order) or not
    evenly spaced."""
    if len(stamps) > 1:
        deltas = np.diff(stamps)
        if np.any(deltas <= 0):
            where = ""
            if line_nos is not None:
                first = int(np.argmax(deltas <= 0)) + 1
                where = f" near line {line_nos[first]}"
            raise ConfigError(f"{path}: timestamps not strictly increasing"
                              f"{where}")
        if not np.allclose(deltas, deltas[0], rtol=1e-9, atol=0):
            raise ConfigError(f"{path}: timestamps are not evenly spaced")


def _fill_or_reject(values: np.ndarray, forward_fill: bool, path) -> np.ndarray:
    mask = np.isnan(values)
    if not mask.any():
        return values
    if not forward_fill:
        c, t = np.argwhere(mask)[0]
        raise ConfigError(f"{path}: missing value for channel index {c} at "
                          f"time index {t} (enable forward_fill to impute)")
    if mask[:, 0].any():
        raise ConfigError(f"{path}: channel index {np.argmax(mask[:, 0])} "
                          "starts with a missing value; cannot forward-fill")
    idx = np.maximum.accumulate(np.where(mask, 0, np.arange(mask.shape[1])),
                                axis=1)
    return np.take_along_axis(values, idx, axis=1)


def _channel_ids(ids, where: str = "") -> list[str]:
    """``ids`` stripped, each non-empty and named once, so that every row
    of a forecast names one channel and ``load_csv`` takes every header
    ``write_csv`` writes.  ``where`` (``path:line: ``) leads the error."""
    ids = [cid.strip() for cid in ids]
    seen = set()
    for cid in ids:
        if not cid or cid in seen:
            raise ConfigError(f"{where}channel id {cid!r} is "
                              + ("named twice" if cid else "empty"))
        seen.add(cid)
    return ids


def _load_clean_wide(path) -> PanelDataset:
    """A wide panel in one ``np.loadtxt`` pass, whose C reader gives any
    number it takes the bits ``float`` gives.  A file it does not take
    whole (a ragged, quoted or whitespace-only line, NA, an empty or bad
    cell, a bad grid, no rows, a non-finite value) raises ``ValueError``,
    as does a bad channel id, which the cell reader refuses the same way."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2:
            raise ValueError("no channel columns")
        channel_ids = _channel_ids(header[1:], f"{path}:{reader.line_num}: ")
        with warnings.catch_warnings():  # an empty body only warns
            warnings.simplefilter("ignore")
            table = np.loadtxt(fh, np.dtype("O" + ",f8" * (len(header) - 1)),
                               comments=None, delimiter=",", ndmin=1)
    stamp, *channels = table.dtype.names
    values = np.array([table[name] for name in channels])
    if not (len(table) and np.isfinite(values).all()):
        raise ValueError("no rows, or a non-finite value")
    _check_time_grid(_parse_column(table[stamp], _parse_timestamp, path,
                                   range(len(table))), path)
    return PanelDataset(values=values, channel_ids=channel_ids)


def input_file(path, what: str) -> Path:
    """``path`` as a ``Path``, or a ``ConfigError`` if it is not a file."""
    if not Path(path).is_file():
        raise ConfigError(f"{what} {path} is not a file")
    return Path(path)


def load_csv(path, layout: str = "wide",
             forward_fill: bool = False) -> PanelDataset:
    """Read a panel from CSV, C-ordered whatever the layout.

    ``wide``: header ``timestamp,<id>,<id>,...``, one row per time step.
    ``long``: header then ``channel_id,timestamp,value`` rows in any order;
    every channel must cover the identical time grid.  Channel ids must be
    non-empty, and distinct in a wide header.  Timestamps are numbers or
    ISO dates (UTC unless they carry an offset), and must be finite.  A
    value is a number, never infinite, or ``NA``, ``nan`` or an empty cell
    for a missing one.

    Blank lines are skipped, and errors name the physical ``path:line``.
    Of several faults, the one on the earliest line is reported, except
    that in the long layout every bad cell is reported before a duplicate
    observation.  A wide file of plain finite numbers is read in one
    ``np.loadtxt`` pass, any other by the cell reader, with equal values.
    """
    path = input_file(path, "dataset")
    if layout == "wide":
        try:
            return _load_clean_wide(path)
        except ValueError:
            pass  # the cell reader gives this file's values or its error
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        numbered = [(reader.line_num, row) for row in reader if row]
    if len(numbered) < 2:
        raise ConfigError(f"{path}: no data rows")
    header = numbered[0][1]
    line_nos, body = [n for n, _ in numbered[1:]], [r for _, r in numbered[1:]]
    if layout == "wide":
        if len(header) < 2:
            raise ConfigError(f"{path}: wide layout needs a timestamp column "
                              "plus at least one channel")
        channel_ids = _channel_ids(header[1:], f"{path}:{numbered[0][0]}: ")
        width = len(header)
    elif layout == "long":
        if len(header) != 3:
            raise ConfigError(f"{path}: long layout needs exactly "
                              "(channel_id, timestamp, value) columns")
        width = 3
    else:
        raise ConfigError(f"unknown csv layout '{layout}'")
    # the rows above the first one of the wrong width are parsed before it
    # is reported, so a bad cell there comes first
    ragged = next((i for i, row in enumerate(body) if len(row) != width),
                  len(body))
    rows, nums = body[:ragged], line_nos[:ragged]

    def reject_ragged():
        if ragged < len(body):
            raise ConfigError(f"{path}:{line_nos[ragged]}: expected {width} "
                              f"fields, got {len(body[ragged])}")

    if layout == "wide":
        stamps, *columns = _parse_columns(
            rows, [_parse_timestamp] + [_parse_value] * (width - 1), path,
            nums)
        reject_ragged()
        _check_time_grid(stamps, path, nums)
        values = np.array(columns)
    else:
        # an empty id is a bad cell: the cells above it are parsed first
        blank = next((i for i, row in enumerate(rows) if not row[0].strip()),
                     len(rows))
        stamps, vals = _parse_columns([row[1:] for row in rows[:blank]],
                                      [_parse_timestamp, _parse_value], path,
                                      nums)
        if blank < len(rows):
            raise ConfigError(f"{path}:{nums[blank]}: channel id "
                              f"{rows[blank][0]!r} is empty")
        series: dict[str, dict[float, float]] = {}
        for row, ts, val, n in zip(rows, stamps.tolist(), vals.tolist(),
                                   nums):
            cid = row[0].strip()
            slot = series.setdefault(cid, {})
            if ts in slot:
                raise ConfigError(f"{path}:{n}: duplicate observation "
                                  f"for channel {cid!r}")
            slot[ts] = val
        reject_ragged()
        channel_ids = sorted(series)
        grids = [tuple(sorted(series[cid])) for cid in channel_ids]
        if len(set(grids)) != 1:
            raise ConfigError(f"{path}: channels cover different time grids; "
                              "cannot assemble a dense panel")
        _check_time_grid(np.asarray(grids[0]), path)
        values = np.asarray([[series[cid][t] for t in grids[0]]
                             for cid in channel_ids])

    values = _fill_or_reject(values, forward_fill, path)
    return PanelDataset(values=values, channel_ids=channel_ids)


def write_csv(panel: PanelDataset, path) -> None:
    """Write the wide canonical form with an integer time index.  Values
    are written with ``repr``, so a round trip through ``load_csv`` is
    exact; the bytes are those of ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp"] + list(panel.channel_ids))
        fh.writelines(f"{t},{','.join(map(repr, row))}\r\n"
                      for t, row in enumerate(panel.values.T.tolist()))


# -- PCA across channels -----------------------------------------------------------

@dataclass
class PcaTransform:
    """Orthonormal channel rotation fitted on the training split."""
    components: np.ndarray      # (C, C), rows are components
    means: np.ndarray           # (C,)
    explained_variance: np.ndarray  # (C,), descending


def pca_fit(panel: PanelDataset | np.ndarray) -> PcaTransform:
    """Eigendecompose the channel covariance of the training slice."""
    if isinstance(panel, PanelDataset):
        end = panel.train_end if panel.train_end is not None else panel.n_steps
        x = panel.values[:, :end]
    else:
        x = np.asarray(panel, dtype=np.float64)
    if x.shape[1] < 2:
        raise ConfigError("pca_fit needs at least two time steps")
    means = x.mean(axis=1)
    centered = x - means[:, None]
    cov = centered @ centered.T / x.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T
    if eigvals[0] > 0 and eigvals[-1] < 1e-12 * eigvals[0]:
        warnings.warn("channel covariance is rank deficient; some PCA "
                      "components carry (numerically) zero variance")
    return PcaTransform(components=components, means=means,
                        explained_variance=np.maximum(eigvals, 0.0))


def pca_apply(transform: PcaTransform, values: np.ndarray) -> np.ndarray:
    return transform.components @ (values - transform.means[:, None])


def pca_invert(transform: PcaTransform, rotated: np.ndarray) -> np.ndarray:
    return transform.components.T @ rotated + transform.means[:, None]


# -- synthetic panels ----------------------------------------------------------------

def _ar1(innovations: np.ndarray, coeff: float) -> np.ndarray:
    return np.fromiter(itertools.accumulate(
        innovations.tolist(), lambda acc, e: coeff * acc + e), np.float64,
        len(innovations))


def gen_leadlag(n_channels: int, n_steps: int, lag: int, noise_sigma: float,
                seed: int) -> PanelDataset:
    """Channel 0 drives; channel c repeats it delayed by c*lag plus noise.

    The driver is AR(1) with coefficient 0.9 plus a unit sinusoid of
    period 24, so followers are predictable from other channels' history
    but not from their own alone once the delay exceeds the input window.
    """
    if n_channels < 2:
        raise ConfigError("lead-lag panel needs at least 2 channels")
    if lag < 1 or n_steps < 1:
        raise ConfigError("lag and n_steps must be positive")
    if not 0 <= noise_sigma < np.inf:  # NaN too
        raise ConfigError(f"noise_sigma must be >= 0 and finite, got "
                          f"{noise_sigma}")
    rng = np.random.default_rng(seed)
    burn = 100
    total = n_steps + (n_channels - 1) * lag + burn
    driver = _ar1(rng.normal(0.0, 1.0, size=total), 0.9)
    driver += np.sin(2 * np.pi * np.arange(total) / 24)
    offset = burn + (n_channels - 1) * lag
    starts = offset - lag * np.arange(n_channels)
    values = driver[starts[:, None] + np.arange(n_steps)]
    if noise_sigma > 0:
        values[1:] += rng.normal(0.0, noise_sigma,
                                 size=(n_channels - 1, n_steps))
    ids = [f"ch{c}" for c in range(n_channels)]
    return PanelDataset(values=values, channel_ids=ids)


def gen_independent(n_channels: int, n_steps: int, seed: int) -> PanelDataset:
    """Independent AR(1) channels with coefficient 0.8; nothing
    cross-channel to exploit."""
    if n_channels < 1 or n_steps < 1:
        raise ConfigError("n_channels and n_steps must be positive")
    rng = np.random.default_rng(seed)
    burn = 100
    innovations = rng.normal(0.0, 1.0, size=(n_channels, n_steps + burn))
    values = np.array([_ar1(row, 0.8)[burn:] for row in innovations])
    ids = [f"ch{c}" for c in range(n_channels)]
    return PanelDataset(values=values, channel_ids=ids)
