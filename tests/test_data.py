import csv
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mica.data import (ConfigError, PanelDataset, _ar1, _fill_or_reject,
                       _load_clean_wide, _parse_timestamp, _parse_value,
                       chrono_split, gen_independent, gen_leadlag, load_csv,
                       pca_apply, pca_fit, pca_invert, write_csv)


def make_panel(c=3, t=50, seed=0):
    rng = np.random.default_rng(seed)
    return PanelDataset(values=rng.normal(size=(c, t)),
                        channel_ids=[f"s{i}" for i in range(c)])


# -- CSV -----------------------------------------------------------------------

def test_wide_roundtrip_exact(tmp_path):
    panel = make_panel()
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    back = load_csv(path)
    assert back.channel_ids == panel.channel_ids
    npt.assert_array_equal(back.values, panel.values)


def test_long_layout_shuffled_rows(tmp_path):
    rows = [("b", 3, 6.0), ("a", 1, 1.5), ("b", 1, 4.0), ("a", 3, 3.5),
            ("a", 2, 2.5), ("b", 2, 5.0)]
    path = tmp_path / "long.csv"
    path.write_text("id,ts,value\n" +
                    "\n".join(f"{c},{t},{v}" for c, t, v in rows) + "\n")
    panel = load_csv(path, layout="long")
    assert panel.channel_ids == ["a", "b"]
    npt.assert_allclose(panel.values, [[1.5, 2.5, 3.5], [4.0, 5.0, 6.0]],
                        atol=0)


def test_long_layout_ragged_grids_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,ts,value\na,1,1.0\na,2,2.0\nb,1,3.0\n")
    with pytest.raises(ConfigError, match="time grids"):
        load_csv(path, layout="long")


def test_missing_values_and_forward_fill(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("timestamp,x,y\n0,1.0,5.0\n1,,6.0\n2,3.0,7.0\n")
    with pytest.raises(ConfigError, match="missing value"):
        load_csv(path)
    panel = load_csv(path, forward_fill=True)
    npt.assert_allclose(panel.values[0], [1.0, 1.0, 3.0], atol=0)

    lead = tmp_path / "lead.csv"
    lead.write_text("timestamp,x\n0,\n1,2.0\n")
    with pytest.raises(ConfigError, match="forward-fill"):
        load_csv(lead, forward_fill=True)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,x\n0,1.0\n1,oops\n")
    with pytest.raises(ConfigError, match="bad.csv:3"):
        load_csv(path)


def test_time_grid_validation(tmp_path):
    dec = tmp_path / "dec.csv"
    dec.write_text("timestamp,x\n0,1.0\n2,2.0\n1,3.0\n")
    with pytest.raises(ConfigError, match="increasing"):
        load_csv(dec)
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("timestamp,x\n0,1.0\n1,2.0\n3,3.0\n")
    with pytest.raises(ConfigError, match="evenly spaced"):
        load_csv(uneven)
    iso = tmp_path / "iso.csv"
    iso.write_text("timestamp,x\n2024-01-01T00:00:00,1.0\n"
                   "2024-01-01T01:00:00,2.0\n2024-01-01T02:00:00,3.0\n")
    panel = load_csv(iso)
    npt.assert_allclose(panel.values[0], [1.0, 2.0, 3.0], atol=0)


@pytest.mark.parametrize("stamp", ["nan", " NaN", "inf", "-inf"])
@pytest.mark.parametrize("layout", ["wide", "long"])
def test_non_finite_timestamps_name_their_line(tmp_path, layout, stamp):
    header, prefix = (("id,ts,value", "x,") if layout == "long"
                      else ("timestamp,x", ""))

    def load(*rows):
        path = tmp_path / "stamps.csv"
        path.write_text("\n".join([header] + [prefix + r for r in rows])
                        + "\n")
        return load_csv(path, layout=layout)

    for rows, line in ((("0,1", f"{stamp},2", "2,3"), 3),
                       ((f"{stamp},1",), 2)):
        with pytest.raises(ConfigError, match=rf"stamps\.csv:{line}: "
                           "timestamp .* is not finite"):
            load(*rows)
    # a bad cell on an earlier line is still the one reported
    with pytest.raises(ConfigError,
                       match=r"stamps\.csv:3: cannot parse value 'oops'"):
        load("0,1", "1,oops", f"{stamp},3")


@pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
@pytest.mark.parametrize("layout", ["wide", "long"])
def test_infinite_values_name_their_line(tmp_path, layout, cell):
    path = tmp_path / "values.csv"
    if layout == "wide":
        path.write_text(f"timestamp,a,b\n0,1.0,2.0\n1,{cell},3.0\n")
        line = 3
    else:
        path.write_text(f"id,ts,value\na,0,1.0\nb,0,2.0\na,1,{cell}\n"
                        "b,1,3.0\n")
        line = 4
    with pytest.raises(ConfigError, match=rf"values\.csv:{line}: value "
                       f"'{cell}' is not finite"):
        load_csv(path, layout=layout)


def test_errors_name_physical_lines_past_blank_rows(tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("timestamp,a\n0,1.0\n\n1,2.0\n2,oops\n")
    with pytest.raises(ConfigError, match=r"wide\.csv:5: cannot parse value"):
        load_csv(wide)
    long = tmp_path / "long.csv"
    long.write_text("id,ts,value\na,0,1.0\n\n\na,1,oops\n")
    with pytest.raises(ConfigError, match=r"long\.csv:5: cannot parse value"):
        load_csv(long, layout="long")


def test_unordered_stamps_name_the_first_row_out_of_order(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("timestamp,x\n" + "".join(
        f"{t},1.0\n" for t in (0, 1, 2, 1, 4)))
    with pytest.raises(ConfigError, match="increasing near line 5$"):
        load_csv(path)


def test_first_bad_cell_in_file_order_is_reported(tmp_path):
    # a column-by-column scan would meet 'late' (column a) first
    path = tmp_path / "two.csv"
    path.write_text("timestamp,a,b\n0,1,2\n1,2,early\n2,late,3\n3,4,5,6\n")
    with pytest.raises(ConfigError,
                       match=r"two\.csv:3: cannot parse value 'early'"):
        load_csv(path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("timestamp,a\n0,1\n1,2,3\n2,bad\n")
    with pytest.raises(ConfigError, match=r"ragged\.csv:3: expected 2"):
        load_csv(ragged)


def per_cell_load(path, layout, forward_fill):
    """The cell-by-cell loader that ``load_csv`` replaced (for files
    without blank lines): the panel's values, or the error message."""
    try:
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        if layout == "wide":
            stamps, data = [], []
            for n, row in enumerate(body, 2):
                stamps.append(_parse_timestamp(row[0], path, n))
                data.append([_parse_value(v, path, n) for v in row[1:]])
            values = np.asarray(data, dtype=np.float64).T
        else:
            series = {}
            for n, (cid, ts, val) in enumerate(body, 2):
                series.setdefault(cid.strip(), {})[
                    _parse_timestamp(ts, path, n)] = _parse_value(val, path, n)
            ids = sorted(series)
            values = np.asarray([[series[c][t] for t in sorted(series[c])]
                                 for c in ids])
        return _fill_or_reject(values, forward_fill, path)
    except ConfigError as err:
        return str(err)


def outcome(path, layout, forward_fill):
    try:
        return load_csv(path, layout=layout, forward_fill=forward_fill).values
    except ConfigError as err:
        return str(err)


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:  # bit for bit: -0.0 is not 0.0
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def assert_same_outcome(path, layout):
    for forward_fill in (False, True):
        assert_same(outcome(path, layout, forward_fill),
                    per_cell_load(path, layout, forward_fill))


CELLS = [" 1.5 ", "nan", "NaN", "NA", "", "1_000", "inf", "-0.0", "5e-324",
         '"2.5"', "oops",
         # where np.loadtxt's reader and float could disagree
         "+2", "1e400", "\xa02", "#2", "2\x00", "\u0663", "0x1p3"]


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_bulk_parse_matches_the_per_cell_parse(tmp_path, cell, layout):
    # column "mixed" has the cell between plain numbers, column "same"
    # holds only it: whether float() takes it or not, one column goes
    # through each path
    mixed, same = ["1.0", cell, "3.0"], [cell] * 3
    stamps = ["0", " 1", "2.0 "]
    path = tmp_path / "cells.csv"
    if layout == "wide":
        path.write_text("timestamp,mixed,same\n" + "".join(
            f"{t},{m},{s}\n" for t, m, s in zip(stamps, mixed, same)))
    else:
        path.write_text("id,ts,value\n" + "".join(
            f"{cid},{t},{v}\n" for cid, col in (("mixed", mixed),
                                                ("same", same))
            for t, v in zip(stamps, col)))
    assert_same_outcome(path, layout)


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("last", ["2024-01-01T02:00", "noon"])
def test_iso_timestamps_parse_as_per_cell(tmp_path, layout, last):
    stamps = ["2024-01-01T00:00:00", "2024-01-01 01:00", last]
    rows = [f"{t},{v}" for t, v in zip(stamps, ["1.0", "2.0", "3.0"])]
    header = "timestamp,x"
    if layout == "long":
        header, rows = "id,ts,value", ["x," + r for r in rows]
    path = tmp_path / "iso.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert_same_outcome(path, layout)


def cell_reader_outcome(path, forward_fill, monkeypatch):
    """``outcome`` of a wide file with the ``np.loadtxt`` pass off."""
    def refuse(path):
        raise ValueError("cell reader only")
    with monkeypatch.context() as patch:
        patch.setattr("mica.data._load_clean_wide", refuse)
        return outcome(path, "wide", forward_fill)


@pytest.mark.parametrize("text, clean, per_cell", [
    ("timestamp,a\n0,1.0\n \t\n1,2.0\n", False, False),
    ("timestamp,a\n0,1.0,\n1,2.0\n", False, False),
    # an empty channel id: both readers refuse it, so no per-cell oracle
    ("timestamp,a,\n0,1.0,\n1,2.0,\n", False, False),
    ("timestamp,a\n" + "".join(f"{'0' * 199}{t},{t}.5\n" for t in range(3)),
     True, True),
    ("timestamp,a\n0,1.0\n" + "x" * 200 + ",2.0\n", False, True),
    ("timestamp,a\r\n0,1.0\r\n\r\n1,-0.0\r\n", True, False),
    ('"t,s","a,b","q""x"\n0,1.0\n1,2.0\n', False, False),
    ('"t,s","a,b","q""x"\n0,1.0,2\n1,2.0,3\n', True, True),
], ids=["whitespace_line", "trailing_comma", "trailing_comma_column",
        "stamp_200_chars", "bad_stamp_200_chars", "crlf_blank_line",
        "quoted_header_ragged", "quoted_header"])
def test_clean_pass_matches_the_cell_reader(tmp_path, monkeypatch, text,
                                            clean, per_cell):
    # clean: the np.loadtxt pass takes the file; per_cell: it has no
    # blank or ragged line, so per_cell_load is an oracle too
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    if clean:
        _load_clean_wide(path)
    else:
        with pytest.raises(ValueError):
            _load_clean_wide(path)
    for forward_fill in (False, True):
        assert_same(outcome(path, "wide", forward_fill),
                    cell_reader_outcome(path, forward_fill, monkeypatch))
    if per_cell:
        assert_same_outcome(path, "wide")


@pytest.mark.parametrize("text, layout, message", [
    ("timestamp,a,a\n0,1,2\n1,3,4\n", "wide",
     "ids.csv:1: channel id 'a' is named twice"),
    ("timestamp,a,\n0,1.0,\n1,2.0,\n", "wide",
     "ids.csv:1: channel id '' is empty"),
    # a header fault is on the earliest line, before any bad cell
    ("timestamp, ,a\n0,oops,2\n", "wide", "ids.csv:1: channel id '' is empty"),
    ("id,ts,value\na,0,1\n,0,2\na,1,3\n,1,4\n", "long",
     "ids.csv:3: channel id '' is empty"),
    # an empty id is a bad cell: an earlier bad cell comes first, and it
    # comes before an earlier duplicate observation
    ("id,ts,value\na,0,1\na,1,oops\n ,0,2\n", "long",
     "ids.csv:3: cannot parse value 'oops'"),
    ("id,ts,value\na,0,1\na,0,5\n ,0,2\n", "long",
     "ids.csv:4: channel id ' ' is empty"),
], ids=["wide_repeated", "wide_empty", "wide_empty_before_bad_cell",
        "long_empty", "long_bad_cell_first", "long_empty_before_duplicate"])
def test_channel_ids_must_be_non_empty_and_distinct(tmp_path, monkeypatch,
                                                    text, layout, message):
    path = tmp_path / "ids.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_csv(path, layout=layout)
    if layout == "wide":  # the np.loadtxt pass refuses the file too
        with pytest.raises(ValueError):
            _load_clean_wide(path)
        assert cell_reader_outcome(path, False, monkeypatch) == outcome(
            path, layout, False)


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n\r\n"],
                         ids=["header_only", "blank_lines", "crlf_blank_lines"])
def test_a_header_without_rows_is_refused_without_a_warning(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_bytes(f"timestamp,a\n{body}".encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: no data rows")):
            load_csv(path)


def test_quoted_channel_ids_round_trip(tmp_path):
    panel = make_panel(c=2)
    panel.channel_ids = ["a,b", 'q"x']
    path = tmp_path / "quoted.csv"
    write_csv(panel, path)
    back = _load_clean_wide(path)
    assert back.channel_ids == ["a,b", 'q"x']
    assert back.values.tobytes() == panel.values.tobytes()
    assert load_csv(path).values.tobytes() == panel.values.tobytes()


def test_load_csv_peak_memory_is_a_few_times_its_values(tmp_path):
    # a 12000x7 panel: the cell reader peaks near 16x the values' bytes
    path = tmp_path / "wide.csv"
    write_csv(make_panel(c=7, t=12000), path)
    tracemalloc.start()
    try:
        values = load_csv(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.flags.f_contiguous
    assert peak < 5 * values.nbytes


def old_write_csv(panel, path):
    """The per-value writer that ``write_csv`` replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(panel.channel_ids))
        for t in range(panel.n_steps):
            writer.writerow([t] + [repr(float(v)) for v in panel.values[:, t]])


def test_write_csv_bytes_match_the_per_value_writer(tmp_path):
    odd = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e16, -1.5e-300]
    panel = PanelDataset(values=np.array([odd, odd[::-1]]),
                         channel_ids=["a,b", 'q"x'])
    write_csv(panel, tmp_path / "new.csv")
    old_write_csv(panel, tmp_path / "old.csv")
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_missing_file_mentions_path():
    with pytest.raises(ConfigError, match="no/such/file.csv"):
        load_csv("no/such/file.csv")


def _load(text, layout="wide"):
    """A case of ``test_rejected_panels_say_why``: load ``text`` as a
    csv file of ``layout``."""
    def load(tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(text)
        return load_csv(path, layout=layout)
    return load


@pytest.mark.parametrize("build, message", [
    (lambda tmp: PanelDataset(np.zeros(3), ["a"]),
     "panel values must be (C,T), got shape (3,)"),
    (lambda tmp: PanelDataset(np.zeros((2, 5)), ["a"]),
     "channel id count does not match value rows"),
    (lambda tmp: PanelDataset(np.zeros((1, 5)), ["a"], train_end=3,
                              val_end=6),
     "split bounds 0 < 3 < 6 <= 5 violated"),
    (_load("timestamp,a\n"), "p.csv: no data rows"),
    (_load("timestamp\n0\n"), "wide layout needs a timestamp column"),
    (_load("channel_id,timestamp\na,0\n", "long"),
     "long layout needs exactly (channel_id, timestamp, value) columns"),
    (_load("timestamp,a\n0,1\n", "tall"), "unknown csv layout 'tall'"),
    (_load("channel_id,timestamp,value\na,0,1\nb,0,1\na,0,2\n", "long"),
     "p.csv:4: duplicate observation for channel 'a'"),
    (lambda tmp: pca_fit(np.zeros((2, 1))),
     "pca_fit needs at least two time steps"),
    (lambda tmp: gen_leadlag(3, 100, 2, noise_sigma=-0.5, seed=0),
     "noise_sigma must be >= 0 and finite, got -0.5"),
    (lambda tmp: gen_leadlag(3, 100, 2, noise_sigma=float("nan"), seed=0),
     "noise_sigma must be >= 0 and finite, got nan"),
    (lambda tmp: gen_leadlag(3, 100, 2, noise_sigma=float("inf"), seed=0),
     "noise_sigma must be >= 0 and finite, got inf"),
], ids=["panel_shape", "id_count", "split_bounds", "no_rows", "wide_header",
        "long_header", "layout", "duplicate", "pca_steps", "negative_noise",
        "nan_noise", "inf_noise"])
def test_rejected_panels_say_why(tmp_path, build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build(tmp_path)


# -- splits ----------------------------------------------------------------------

def test_chrono_split_bounds():
    panel = make_panel(t=100)
    split = chrono_split(panel, val_size=15, test_size=10)
    assert (split.train_end, split.val_end) == (75, 90)
    with pytest.raises(ConfigError):
        chrono_split(panel, 60, 40)
    with pytest.raises(ConfigError):
        chrono_split(panel, 0, 10)


def test_unsplit_panel_refuses_training_use():
    with pytest.raises(ConfigError, match="split"):
        make_panel().require_split()


# -- PCA -------------------------------------------------------------------------

def test_pca_roundtrip_and_orthonormality():
    panel = make_panel(c=5, t=300, seed=3)
    tr = pca_fit(panel.values)
    rotated = pca_apply(tr, panel.values)
    back = pca_invert(tr, rotated)
    npt.assert_allclose(back, panel.values, atol=1e-10)
    gram = tr.components @ tr.components.T
    npt.assert_allclose(gram, np.eye(5), atol=1e-8)
    assert np.all(np.diff(tr.explained_variance) <= 1e-12)
    # rotated channels are uncorrelated
    cov = np.cov(rotated, bias=True)
    off = cov - np.diag(np.diag(cov))
    npt.assert_allclose(off, 0.0, atol=1e-8)


def test_pca_diagonal_covariance_gives_signed_permutation():
    t = 400
    s0 = np.tile([1.0, 1.0, -1.0, -1.0], t // 4)
    s1 = np.tile([1.0, -1.0, 1.0, -1.0], t // 4)
    values = np.stack([2.0 * s0, 5.0 * s1])  # bigger variance second
    tr = pca_fit(values)
    npt.assert_allclose(np.abs(tr.components), [[0, 1], [1, 0]], atol=1e-10)
    npt.assert_allclose(tr.explained_variance, [25.0, 4.0], atol=1e-10)


def test_pca_fits_on_train_slice_only():
    panel = chrono_split(make_panel(c=3, t=200, seed=4), 30, 30)
    tr_split = pca_fit(panel)
    tr_manual = pca_fit(panel.values[:, :140])
    npt.assert_array_equal(tr_split.components, tr_manual.components)
    tr_full = pca_fit(panel.values)
    assert not np.allclose(tr_split.components, tr_full.components)


def test_pca_warns_on_rank_deficiency():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(1, 100))
    values = np.vstack([base, 2.0 * base, rng.normal(size=(1, 100))])
    with pytest.warns(UserWarning, match="rank deficient"):
        tr = pca_fit(values)
    npt.assert_allclose(pca_invert(tr, pca_apply(tr, values)), values,
                        atol=1e-10)


# -- generators ---------------------------------------------------------------------

def test_leadlag_zero_noise_gives_exact_shifts():
    panel = gen_leadlag(4, 200, lag=3, noise_sigma=0.0, seed=11)
    v = panel.values
    for c in range(1, 4):
        shift = 3 * c
        npt.assert_allclose(v[c, shift:], v[0, :-shift], atol=0)


def test_leadlag_deterministic_and_noisy():
    a = gen_leadlag(3, 150, lag=2, noise_sigma=0.1, seed=7)
    b = gen_leadlag(3, 150, lag=2, noise_sigma=0.1, seed=7)
    npt.assert_array_equal(a.values, b.values)
    c = gen_leadlag(3, 150, lag=2, noise_sigma=0.1, seed=8)
    assert not np.array_equal(a.values, c.values)
    # noise keeps followers close to, but not equal to, the shifted driver
    resid = a.values[1, 2:] - a.values[0, :-2]
    assert 0 < np.abs(resid).mean() < 0.2


def test_ar1_matches_the_loop_bit_for_bit():
    # the generators' AR(1) recursion, as the loop it replaced wrote it
    innovations = np.random.default_rng(5).normal(size=500)
    for coeff in (0.8, 0.9):
        want, acc = np.empty(500), 0.0
        for t, e in enumerate(innovations):
            acc = coeff * acc + e
            want[t] = acc
        assert _ar1(innovations, coeff).tobytes() == want.tobytes()


def test_independent_channels_are_uncorrelated():
    panel = gen_independent(4, 4000, seed=9)
    corr = np.corrcoef(panel.values)
    off = np.abs(corr - np.diag(np.diag(corr)))
    assert off.max() < 0.1


def test_generator_validation():
    with pytest.raises(ConfigError):
        gen_leadlag(1, 100, lag=2, noise_sigma=0.0, seed=0)
    with pytest.raises(ConfigError):
        gen_leadlag(3, 100, lag=0, noise_sigma=0.0, seed=0)
    with pytest.raises(ConfigError):
        gen_independent(0, 10, seed=0)
