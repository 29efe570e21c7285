"""Delimited-text ingestion for labeled tabular data and square matrices.

Rows are observations, columns are features. The delimiter is always
detected: tab if the first non-blank line holds one, else comma. Whether that
line is a header is detected too; a label column can be selected by name,
which requires a header. Non-numeric or non-finite values are rejected with
the offending 1-based line number.

The numbers are parsed by numpy's C reader (``np.loadtxt``), which rounds
as Python's ``float`` does. A file it cannot take whole (a ragged row, a
token such as ``1_0`` or an empty field, a non-finite value) is parsed
again by the row loop, which ``float`` drives and which finds and reports
the first defect; both paths give the same bits.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import ConfigError, DatasetFormatError, LabeledDataset, SpdMatrix, _text_lines, make_spd


def _split_line(line: str, delimiter: str) -> list[str]:
    return list(map(str.strip, line.rstrip("\n").rstrip("\r").split(delimiter)))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Table(NamedTuple):
    """A delimited file read in one pass."""

    header: list[str] | None
    values: np.ndarray  # one row per data line; the label column left out
    labels: list[str]  # label tokens in file order, when a label column is read
    line_numbers: list[int]
    error: DatasetFormatError | None  # the first bad value token, in file order


def _read_table(path: str | Path, label_column: str | None = None) -> _Table:
    """Read a delimited file into a float64 array.

    Bytes that are not UTF-8 raise ``DatasetFormatError`` naming the file
    and the line. The delimiter and the header are detected from the first
    non-blank line. The content lines go to ``_parse_fast`` first. When it
    declines, each data row is parsed straight into its row of a
    preallocated array, so beyond the file's text only the result and the
    label tokens are held. Errors keep a fixed precedence: a ragged row
    anywhere, then a header of the wrong width, then a missing label column;
    the first bad value token is returned rather than raised, so that a
    caller can rank its own checks above it.
    """
    try:
        with open(path, "rb") as fh:
            lines = list(_text_lines(fh, path, DatasetFormatError))
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}")
    content = [i for i, ln in enumerate(lines) if ln.strip() != ""]
    if not content:
        raise DatasetFormatError("file contains no data")
    delimiter = "\t" if "\t" in lines[content[0]] else ","
    first_tokens = _split_line(lines[content[0]], delimiter)
    header = None
    if not all(_is_float(tok) for tok in first_tokens):
        header = first_tokens
        content = content[1:]
        if not content:
            raise DatasetFormatError("file contains a header but no data rows")
    width = len(_split_line(lines[content[0]], delimiter))
    fits = header is None or len(header) == width
    label_idx = header.index(label_column) if header and label_column in header else None
    # a file that fails the header or label checks is only scanned for ragged rows
    parse = fits and (label_column is None or label_idx is not None)
    fast = _parse_fast([lines[i] for i in content], delimiter, width, label_idx) if parse else None
    if fast is not None:
        return _Table(header, *fast, [i + 1 for i in content], None)
    values = np.empty((len(content), width - (label_idx is not None)))
    labels: list[str] = []
    error = None
    for row, i in enumerate(content):
        tokens = _split_line(lines[i], delimiter)
        if len(tokens) != width:
            raise DatasetFormatError(
                f"expected {width} fields, found {len(tokens)}", line=i + 1
            )
        if not parse:
            continue
        if label_idx is not None:
            labels.append(tokens.pop(label_idx))
        if error is None:
            try:
                values[row] = _parse_row(tokens, i + 1)
            except DatasetFormatError as exc:
                error = exc
    if not fits:
        raise DatasetFormatError(
            f"header has {len(header)} fields but rows have {width}", line=1
        )
    if label_column is not None:
        if header is None:
            raise ConfigError(
                "label_column", "a header line is required to select a label column"
            )
        if label_idx is None:
            raise ConfigError(
                "label_column", f"{label_column!r} not found in header {header}"
            )
    return _Table(header, values, labels, [i + 1 for i in content], error)


def _parse_fast(
    rows: list[str], delimiter: str, width: int, label_idx: int | None
) -> tuple[np.ndarray, list[str]] | None:
    """Parse clean content lines with numpy's C reader.

    Returns the values and the label tokens, or None when any line needs the
    row loop: a ragged row, a delimiter or a token ``np.loadtxt`` rejects (an
    empty token, ``1_0``), or a value that is not finite. The row loop then
    parses every line again and reports the first defect.
    """
    # np.loadtxt drops the fields of a row beyond ``usecols``, so a long row
    # is caught here
    if any(row.count(delimiter) != width - 1 for row in rows):
        return None
    cols = [j for j in range(width) if j != label_idx]
    try:
        values = np.loadtxt(
            rows, delimiter=delimiter, usecols=cols, comments=None, dtype=np.float64, ndmin=2
        )
    except (TypeError, ValueError):
        return None
    if values.shape != (len(rows), len(cols)) or not np.isfinite(values).all():
        return None
    if label_idx is None:
        return values, []
    return values, [row.split(delimiter, label_idx + 1)[label_idx].strip() for row in rows]


def _checked(table: _Table) -> np.ndarray:
    if table.error is not None:
        raise table.error
    return table.values


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetFormatError(f"cannot parse {token!r} as a number", line=lineno)
    if not math.isfinite(value):
        raise DatasetFormatError(f"non-finite value {token!r}", line=lineno)
    return value


def _parse_row(tokens: list[str], lineno: int) -> list[float]:
    """Parse one row of number tokens with Python's ``float``.

    The whole row is converted and checked at once; a row that fails is
    parsed again token by token, so the error names its first bad token.
    """
    try:
        values = list(map(float, tokens))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    return [_parse_float(tok, lineno) for tok in tokens]


def load_matrix(path: str | Path) -> SpdMatrix:
    """Load a square matrix file and validate it as symmetric PSD."""
    return make_spd(_checked(_read_table(path)))


def load_vector(path: str | Path) -> np.ndarray:
    """Load a one-row or one-column numeric file as a flat vector."""
    arr = _checked(_read_table(path))
    if 1 not in arr.shape:
        raise DatasetFormatError(f"expected a vector, got shape {arr.shape}")
    return arr.ravel()


def load_dataset(path: str | Path, label_column: str) -> tuple[LabeledDataset, list[str]]:
    """Load a labeled dataset; returns it with the feature column names.

    The label column must contain exactly two distinct values, which are
    mapped to labels 1 and 2 in ascending order (numeric when every label
    parses as a number, lexicographic otherwise). Numeric labels must be
    finite: a non-finite one is rejected with its line number.
    """
    table = _read_table(path, label_column)
    label_idx = table.header.index(label_column)
    feature_names = table.header[:label_idx] + table.header[label_idx + 1 :]
    distinct = set(table.labels)
    if all(map(_is_float, distinct)):
        # NaN has no place in a numeric order, so the mapping would follow
        # the set's hash order; ties between spellings of one number break
        # on the text for the same reason
        for token, lineno in zip(table.labels, table.line_numbers):
            _parse_float(token, lineno)
        values = sorted(distinct, key=lambda v: (float(v), v))
    else:
        values = sorted(distinct)
    if len(values) != 2:
        raise DatasetFormatError(
            f"label column must have exactly 2 distinct values, found {len(values)}"
        )
    label_map = {values[0]: 1, values[1]: 2}
    z = np.array([label_map[token] for token in table.labels], dtype=np.int64)
    return LabeledDataset(_checked(table), z), feature_names


def _class_blocks(
    path: str | Path, label_column: str, ps: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The label-1 rows and the label-2 rows of a labeled file, for sweeps and
    ``covproj eval``; each feature count in ``ps`` must fit its columns."""
    data, _ = load_dataset(path, label_column)
    if not all(1 <= p <= data.dim for p in ps):
        raise ConfigError("p", f"must lie in [1, {data.dim}], the dataset's feature columns")
    return data.class_rows(1), data.class_rows(2)
