"""Tests for Dataset, CSV ingestion, and deterministic CSV output."""

import numpy as np
import pytest

from quantcord import Dataset, IngestionError, InvalidArgumentError, read_csv
from quantcord.dataset import FLOAT_FMT, _column_values, csv_text
from oracles import read_csv_cell_by_cell


class TestDataset:

    def test_columns_coerced_to_float(self):
        d = Dataset(columns={"a": [1, 2, 3]})
        assert d.column("a").dtype == np.float64
        assert d.n == 3
        assert d.names == ("a",)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="length"):
            Dataset(columns={"a": [1.0, 2.0], "b": [1.0]})

    def test_needs_a_column(self):
        with pytest.raises(InvalidArgumentError, match="at least one column"):
            Dataset(columns={})

    def test_unknown_column_lists_available(self):
        d = Dataset(columns={"a": [1.0, 2.0]})
        with pytest.raises(InvalidArgumentError, match="available"):
            d.column("b")

    def test_contains(self):
        d = Dataset(columns={"a": [1.0, 2.0]})
        assert "a" in d.names
        assert "b" not in d.names

    def test_take_keeps_rows_paired(self):
        d = Dataset(columns={"y1": [1.0, 2.0, 3.0], "y2": [10.0, 20.0, 30.0]})
        sub = d.take([2, 0, 2])
        np.testing.assert_array_equal(sub.column("y1"), [3.0, 1.0, 3.0])
        np.testing.assert_array_equal(sub.column("y2"), [30.0, 10.0, 30.0])

    @pytest.mark.parametrize("indices, match", [
        (np.array([True, False, True]), "must be integers, got bool"),
        ([0.9, 2.2], "must be integers, got float64"),
        ([0, 3], "row index 3 is out of range for 3 rows"),
        ([-1], "row index -1 is out of range for 3 rows"),
    ])
    def test_take_rejects_masks_floats_and_rows_out_of_range(self, indices, match):
        d = Dataset(columns={"a": [1.0, 2.0, 3.0]})
        with pytest.raises(InvalidArgumentError, match=match):
            d.take(indices)

    def test_take_of_no_indices_has_no_rows(self):
        d = Dataset(columns={"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        sub = d.take([])
        assert sub.n == 0
        assert sub.names == ("a", "b")

    def test_take_rows_are_copies_of_originals(self):
        rng = np.random.default_rng(1)
        d = Dataset(columns={"a": rng.standard_normal(20), "b": rng.standard_normal(20)})
        original_rows = {
            (round(d.column("a")[i], 12), round(d.column("b")[i], 12))
            for i in range(20)
        }
        sub = d.take(rng.integers(0, 20, 20))
        for i in range(20):
            row = (round(sub.column("a")[i], 12), round(sub.column("b")[i], 12))
            assert row in original_rows


class TestReadCsv:

    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_clean_three_rows(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1.5,2.5\n-0.5,0.25\n3,4\n")
        data, dropped = read_csv(p)
        assert data.n == 3
        assert dropped == ()
        np.testing.assert_array_equal(data.column("y1"), [1.5, -0.5, 3.0])

    def test_missing_cell_drops_row_with_report(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1,2\n,3\n4,5\n")
        data, dropped = read_csv(p)
        assert data.n == 2
        assert dropped == (2,)
        np.testing.assert_array_equal(data.column("y1"), [1.0, 4.0])

    def test_na_tokens_count_as_missing(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1,NA\nnan,2\n3,4\n")
        data, dropped = read_csv(p)
        assert dropped == (1, 2)
        assert data.n == 1

    def test_unused_column_with_missing_values_is_ignored(self, tmp_path):
        p = self._write(tmp_path, "y1,y2,extra\n1,2,\n3,4,x\n")
        data, dropped = read_csv(p, columns=["y1", "y2"])
        assert data.n == 2
        assert dropped == ()
        assert "extra" not in data.names

    def test_unparseable_cell_names_coordinates(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1,2\n3,abc\n")
        with pytest.raises(IngestionError, match=r"'abc' at data row 2, column 'y2'"):
            read_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-Infinity"])
    @pytest.mark.parametrize("column", ["y1", "x"], ids=["response", "covariate"])
    def test_non_finite_cell_names_coordinates(self, tmp_path, cell, column):
        row2 = dict({"y1": "2", "x": "4"}, **{column: cell})
        p = self._write(tmp_path, f"y1,y2,x\n1,0.5,3\n{row2['y1']},0.5,{row2['x']}\n")
        with pytest.raises(IngestionError,
                           match=rf"non-finite cell '{cell}' at data row 2, column '{column}'"):
            read_csv(p, columns=["y1", "y2", "x"])

    def test_missing_column_error(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1,2\n")
        with pytest.raises(IngestionError, match="missing columns \\['y3'\\]"):
            read_csv(p, columns=["y1", "y3"])

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(IngestionError, match="empty"):
            read_csv(p)

    def test_header_only(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n")
        with pytest.raises(IngestionError, match="no usable data rows"):
            read_csv(p)

    def test_binary_column_validated(self, tmp_path):
        p = self._write(tmp_path, "y,g\n1,0\n2,1\n3,2\n")
        with pytest.raises(IngestionError, match="binary column 'g' contains 2.0"):
            read_csv(p, binary=["g"])

    def test_binary_error_names_row(self, tmp_path):
        p = self._write(tmp_path, "y,g\n1,0\n2,2\n3,1\n")
        with pytest.raises(IngestionError, match="data row 2"):
            read_csv(p, binary=["g"])

    def test_binary_error_counts_blank_lines(self, tmp_path):
        # data rows are numbered as in dropped_rows, blank lines included
        p = self._write(tmp_path, "y1,y2,g\n1,2,0\n\n\n3,4,1\n5,6,7\n")
        with pytest.raises(IngestionError, match="contains 7.0 at data row 5$"):
            read_csv(p, binary=["g"])

    def test_repeated_header_column_rejected(self, tmp_path):
        p = self._write(tmp_path, "y1,y2,x,x\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(IngestionError, match="repeats columns \\['x'\\]"):
            read_csv(p, columns=["y1", "y2", "x"])

    def test_binary_ok(self, tmp_path):
        p = self._write(tmp_path, "y,g\n1,0\n2,1\n3,1\n")
        data, _ = read_csv(p, binary=["g"])
        np.testing.assert_array_equal(data.column("g"), [0.0, 1.0, 1.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = self._write(tmp_path, "y1,y2\n1,2\n\n3,4\n")
        data, dropped = read_csv(p)
        assert data.n == 2
        assert dropped == ()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfy1,y2,x\n1.5,2.5,3.5\n")
        data, _ = read_csv(p, columns=["y1", "y2"])
        assert data.names == ("y1", "y2")
        np.testing.assert_array_equal(data.column("y1"), [1.5])

    def test_repeated_used_column_read_once(self, tmp_path):
        # a name given twice in ``columns`` once came out with every value
        # twice (or, beside another column, as a length mismatch)
        p = self._write(tmp_path, "y1,y2\n1,2\n3,4\n")
        data, _ = read_csv(p, columns=["y1", "y2", "y1"])
        assert data.names == ("y1", "y2")
        np.testing.assert_array_equal(data.column("y1"), [1.0, 3.0])

    def test_whitespace_tolerated(self, tmp_path):
        p = self._write(tmp_path, " y1 , y2 \n 1.5 , 2.5 \n")
        data, _ = read_csv(p)
        np.testing.assert_array_equal(data.column("y1"), [1.5])

    @pytest.mark.parametrize("text, message", [
        # a decimal comma in y1 would read as y1 = 1, y2 = 5, x = 2.0
        ("y1,y2,x\n1,5,2.0,3.0\n", "data row 1: 4, where the header has 3"),
        # found before any cell is parsed: row 1's bad cell is not named
        ("y1,y2\nabc,1\n2,3\n4,5,\n", "data row 3: 3, where the header has 2"),
    ], ids=["decimal-comma", "before-cells"])
    def test_row_longer_than_header_rejected(self, tmp_path, text, message):
        p = self._write(tmp_path, text)
        with pytest.raises(IngestionError, match=f"too many cells at {message}$"):
            read_csv(p)


# cells float() accepts, with their values, and cells it rejects
ACCEPTED = {
    " 2 ": 2.0, "+3": 3.0, "1_000": 1000.0, "\u0661\u0662\u0663": 123.0,
    "\U0001d7d1.5": 3.5, "\xa05": 5.0, ".5": 0.5, "1e-400": 0.0, "-0": -0.0,
}
NON_FINITE = ("nan", "-nan", "NaN", "inf", "-Infinity", "1e400")
REJECTED = ("0x10", "", "  ", "na", "1,5", "1 000", "1d3", "--1", "1_", "1\x00", "abc")


class TestColumnConversion:
    """One numpy conversion per column, with the cells it cannot take, or
    takes to a non-finite number, singled out for the per-cell checks."""

    def test_accepts_exactly_what_float_accepts(self):
        tokens = list(ACCEPTED) + list(NON_FINITE) + list(REJECTED)
        for column in [tokens, list(ACCEPTED) + list(NON_FINITE)] + [[t] for t in tokens]:
            values, check = _column_values(column)
            for k, token in enumerate(column):
                try:
                    x = float(token)
                except ValueError:
                    assert k in check and np.isnan(values[k]), repr(token)
                    continue
                assert (k in check) == (not np.isfinite(x)), repr(token)
                if np.isfinite(x):
                    assert values[k] == ACCEPTED[token] == x, repr(token)
                    assert np.signbit(values[k]) == np.signbit(x), repr(token)

    def test_matches_cell_by_cell_reference(self, tmp_path):
        # random tables of numbers, missing tokens, short rows, blank lines,
        # an unused column and, in some, cells that are not finite numbers
        # or rows longer than the header
        pool = ["1.5", " -2 ", "+3", "1_000", "\u0663.25", "7", "0.125", "1e-3"]
        missing = ["", "NA", "nan", " None ", "null", "  "]
        bad = ["abc", "-nan", "inf", "1e400", "0x10", "-Infinity"]
        outcomes = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            lines = ["y1, y2 ,x,unused"]
            for _ in range(int(rng.integers(1, 12))):
                u = rng.random()
                if u < 0.08:
                    lines.append("")
                    continue
                cells = []
                for _ in range(4):
                    v = rng.random()
                    src = bad if v < 0.03 else missing if v < 0.15 else pool
                    cells.append(src[int(rng.integers(len(src)))])
                if u < 0.15:
                    cells = cells[:int(rng.integers(1, 4))]
                elif u > 0.98:
                    cells += pool[:int(rng.integers(1, 3))]
                lines.append(",".join(cells))
            p = self._write(tmp_path, "\n".join(lines) + "\n")
            expected = read_csv_cell_by_cell(p, ["y1", "y2", "x"])
            if isinstance(expected, str):
                with pytest.raises(IngestionError) as err:
                    read_csv(p, columns=["y1", "y2", "x"])
                assert str(err.value) == expected, f"seed {seed}"
                outcomes.add(expected.split(": ")[1].split(" cell")[0])
                continue
            data, dropped = read_csv(p, columns=["y1", "y2", "x"])
            columns, expected_dropped = expected
            assert dropped == expected_dropped, f"seed {seed}"
            for c, values in columns.items():
                assert data.column(c).tolist() == values, f"seed {seed}"
            outcomes.add("dropped" if dropped else "clean")
        assert outcomes >= {"clean", "dropped", "cannot parse", "non-finite",
                            "too many", "no usable data rows"}

    def _write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return p


def _columns_csv(columns):
    rows = ([FLOAT_FMT % v for v in row] for row in zip(*columns.values()))
    return csv_text(list(columns), rows)


class TestCsvText:

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        cols = {"y1": rng.standard_normal(50), "y2": rng.standard_normal(50)}
        p = tmp_path / "out.csv"
        p.write_text(_columns_csv(cols), encoding="utf-8")
        data, _ = read_csv(p)
        np.testing.assert_array_equal(data.column("y1"), cols["y1"])
        np.testing.assert_array_equal(data.column("y2"), cols["y2"])

    def test_byte_identical_reruns(self):
        rng = np.random.default_rng(8)
        cols = {"a": rng.standard_normal(20)}
        assert _columns_csv(cols) == _columns_csv(cols)

    def test_header_order_is_column_order(self):
        text = csv_text(["b", "a"], [["1", "2"]])
        assert text == "b,a\n1,2\n"
