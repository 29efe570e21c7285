"""Delimited-text ingestion: detection, validation, label mapping."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covproj import (
    ConfigError,
    DatasetFormatError,
    datasets,
    load_dataset,
    load_matrix,
    load_vector,
)


class TestLoadDataset:
    def test_comma_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        data, names = load_dataset(path, "label")
        assert names == ["a", "b"]
        assert data.z.tolist() == [1, 2, 1]
        assert_allclose(data.X, [[1, 2], [3, 4], [5, 6]])

    def test_tab_delimiter_detected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tlabel\n1.5\t1\n2.5\t2\n")
        data, _ = load_dataset(path, "label")
        assert_allclose(data.X.ravel(), [1.5, 2.5])

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,10\n2,9\n")
        data, _ = load_dataset(path, "label")
        assert data.z.tolist() == [2, 1]

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1\nnan,2\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, "label")
        assert "line 3" in str(err.value)

    def test_non_numeric_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1\n2,2\nfoo,1\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, "label")
        assert "line 4" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,1\n3,1\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, "label")
        assert "line 3" in str(err.value)

    def test_label_column_must_exist(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "label")

    def test_header_required_for_label_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "label")

    def test_exactly_two_label_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1\n2,2\n3,3\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path / "absent.csv", "label")

    @pytest.mark.parametrize(
        "labels, line", [(["nan", "1", "nan"], 2), (["1", "2", "inf"], 4), (["-inf", "1", "2"], 2)]
    )
    def test_non_finite_numeric_label_rejected_with_line_number(self, tmp_path, labels, line):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n" + "".join(f"{i},{z}\n" for i, z in enumerate(labels)))
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, "label")
        assert f"line {line}" in str(err.value)

    def test_labels_spelling_one_number_map_by_text(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,1.0\n2,1\n3,1.0\n")
        data, _ = load_dataset(path, "label")
        assert data.z.tolist() == [2, 1, 2]


def test_load_peak_memory_follows_the_result(tmp_path):
    """Parsing a 2000 x 301 table (about 5 MB of text) into a preallocated
    array keeps the traced peak near text + result, not a list of Python
    token lists and float lists (about 60 MB)."""
    g = np.random.default_rng(20260811)
    table = np.column_stack([np.repeat([1, 2], 1000), g.standard_normal((2000, 300))])
    path = tmp_path / "wide.csv"
    header = "label," + ",".join(f"x{j}" for j in range(300))
    np.savetxt(path, table, fmt=["%d"] + ["%.6f"] * 300, delimiter=",", header=header, comments="")
    tracemalloc.start()
    try:
        data, _ = load_dataset(path, "label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.X.shape == (2000, 300)
    assert peak < 20 * 2**20


def test_clean_files_never_reach_the_row_parser(tmp_path, monkeypatch):
    """numpy's C reader parses a clean file whole, so a regression that
    sends every file down the row loop fails here rather than only slowing."""

    def row_parser(tokens, lineno):
        raise AssertionError(f"line {lineno} reached the row parser")

    monkeypatch.setattr(datasets, "_parse_row", row_parser)
    files = {
        "d.csv": "a,label,b\r\n 1.5 ,x,-2e3\r\n\r\n+3,y,4\r\n",
        "m.tsv": "2\t0.5\n \n0.5\t1\n",
        "v.csv": "1\n2\n3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    data, names = load_dataset(tmp_path / "d.csv", "label")
    assert names == ["a", "b"] and data.z.tolist() == [1, 2]
    assert data.X.tolist() == [[1.5, -2000.0], [3.0, 4.0]]
    assert load_matrix(tmp_path / "m.tsv").entries.tolist() == [[2.0, 0.5], [0.5, 1.0]]
    assert load_vector(tmp_path / "v.csv").tolist() == [1.0, 2.0, 3.0]


class TestLoadMatrixAndVector:
    def test_matrix_headerless(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2.0,0.5\n0.5,1.0\n")
        m = load_matrix(path)
        assert_allclose(m.entries, [[2.0, 0.5], [0.5, 1.0]])

    def test_matrix_must_be_square(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0,0\n0,1,0\n")
        with pytest.raises(ConfigError) as err:
            load_matrix(path)
        assert err.value.field == "matrix"

    def test_vector_row_or_column(self, tmp_path):
        row = tmp_path / "r.csv"
        row.write_text("1,2,3\n")
        col = tmp_path / "c.csv"
        col.write_text("1\n2\n3\n")
        assert_allclose(load_vector(row), [1, 2, 3])
        assert_allclose(load_vector(col), [1, 2, 3])

    def test_vector_shape_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(DatasetFormatError):
            load_vector(path)


class TestRowParser:
    """Values and error messages pinned token by token against ``float``."""

    def test_values_equal_float_bit_for_bit(self, tmp_path):
        rows = [
            [" 1.5 ", "-0.0", "1e-320", "1_000"],
            ["0.1", "+2.5E3", ".5", "-7."],
            ["123456.789012", "-1e-300", "5e-324", "1.7976931348623157e308"],
        ]
        path = tmp_path / "d.csv"
        body = "".join(",".join(r) + f",{k % 2}\n" for k, r in enumerate(rows))
        path.write_text("a,b,c,d,label\n" + body)
        data, _ = load_dataset(path, "label")
        expected = np.array([[float(tok) for tok in r] for r in rows])
        assert data.X.dtype == np.float64
        assert data.X.tobytes() == expected.tobytes()
        assert np.signbit(data.X[0, 1])

    @pytest.mark.parametrize(
        "header, rows, names",
        [
            ("a,label,b", ["1,x,2", "3,y,4", "5,x,6"], ["a", "b"]),
            ("a,b,label", ["1,2,x", "3,4,y", "5,6,x"], ["a", "b"]),
            ("label,a,b", ["x,1,2", "y,3,4", "x,5,6"], ["a", "b"]),
        ],
    )
    def test_label_column_anywhere(self, tmp_path, header, rows, names):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        data, feature_names = load_dataset(path, "label")
        assert feature_names == names
        assert data.z.tolist() == [1, 2, 1]
        assert data.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2,x\ninf,foo,y\n", "line 3: non-finite value 'inf'"),
            ("1,2,x\nfoo,inf,y\n", "line 3: cannot parse 'foo' as a number"),
            ("1,2,x\n3,foo,y\ninf,4,x\n", "line 3: cannot parse 'foo' as a number"),
            ("1,2,x\n3,1e500,y\n5,foo,x\n", "line 3: non-finite value '1e500'"),
            ("1,nan,x\n3,4,y\n", "line 2: non-finite value 'nan'"),
        ],
    )
    def test_first_bad_token_in_row_major_order(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n" + body)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, "label")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,label\n1,2,x\nfoo,4,y\n5,6\n", "line 4: expected 3 fields, found 2"),
            ("a,b,label\n1,foo,x,7\n3,4,y,8\n", "line 1: header has 3 fields but rows have 4"),
            ("a,b,c\n1,foo,x\n3,4,y\n", "label_column: 'label' not found in header ['a', 'b', 'c']"),
            ("a,b,label\n1,foo,1\n3,4,nan\n5,6,2\n", "line 3: non-finite value 'nan'"),
            ("a,b,label\n1,foo,x\n3,4,y\n5,6,z\n", "label column must have exactly 2 distinct values, found 3"),
        ],
    )
    def test_error_precedence_with_two_defects(self, tmp_path, text, message):
        """A ragged row outranks everything, then a header of the wrong
        width, then the label checks, and a bad feature token comes last,
        wherever in the file each defect sits."""
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises((ConfigError, DatasetFormatError)) as err:
            load_dataset(path, "label")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0\n0,foo\n", "line 2: cannot parse 'foo' as a number"),
            ("a,b\n1,0\n\n0,-inf\n", "line 4: non-finite value '-inf'"),
        ],
    )
    def test_matrix_reports_line_number(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            load_matrix(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n2\nbar\n", "line 3: cannot parse 'bar' as a number"),
            ("1,2,3\n4,nan,5\n", "line 2: non-finite value 'nan'"),
        ],
    )
    def test_vector_reports_line_number(self, tmp_path, text, message):
        path = tmp_path / "v.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            load_vector(path)
        assert str(err.value) == message
