"""Delimited-text ingestion for labeled tabular data and square matrices.

Rows are observations, columns are features. The delimiter (comma or tab) and
the presence of a header line are detected automatically; a label column can
be selected by name, which requires a header. Non-numeric or non-finite
values are rejected with the offending 1-based line number.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import ConfigError, DatasetFormatError, LabeledDataset, SpdMatrix, make_spd


def _split_line(line: str, delimiter: str) -> list[str]:
    return list(map(str.strip, line.rstrip("\n").rstrip("\r").split(delimiter)))


def _detect_delimiter(first_line: str) -> str:
    return "\t" if "\t" in first_line else ","


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_table(path: str | Path, delimiter: str | None):
    """Return (header or None, rows of string tokens, line numbers)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}")
    content = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip() != ""]
    if not content:
        raise DatasetFormatError("file contains no data")
    if delimiter is None:
        delimiter = _detect_delimiter(content[0][1])
    first_tokens = _split_line(content[0][1], delimiter)
    header = None
    if not all(_is_float(tok) for tok in first_tokens):
        header = first_tokens
        content = content[1:]
        if not content:
            raise DatasetFormatError("file contains a header but no data rows")
    width = len(_split_line(content[0][1], delimiter))
    rows, line_numbers = [], []
    for lineno, ln in content:
        tokens = _split_line(ln, delimiter)
        if len(tokens) != width:
            raise DatasetFormatError(
                f"expected {width} fields, found {len(tokens)}", line=lineno
            )
        rows.append(tokens)
        line_numbers.append(lineno)
    if header is not None and len(header) != width:
        raise DatasetFormatError(
            f"header has {len(header)} fields but rows have {width}", line=1
        )
    return header, rows, line_numbers


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


def load_matrix(path: str | Path, delimiter: str | None = None) -> SpdMatrix:
    """Load a square matrix file and validate it as symmetric PSD."""
    _, rows, line_numbers = _read_table(path, delimiter)
    data = np.array([_parse_row(row, ln) for row, ln in zip(rows, line_numbers)])
    return make_spd(data)


def load_vector(path: str | Path, delimiter: str | None = None) -> np.ndarray:
    """Load a one-row or one-column numeric file as a flat vector."""
    _, rows, line_numbers = _read_table(path, delimiter)
    arr = np.array([_parse_row(row, ln) for row, ln in zip(rows, line_numbers)])
    if 1 not in arr.shape:
        raise DatasetFormatError(f"expected a vector, got shape {arr.shape}")
    return arr.ravel()


def load_dataset(
    path: str | Path,
    label_column: str,
    delimiter: str | None = None,
) -> tuple[LabeledDataset, list[str]]:
    """Load a labeled dataset; returns it with the feature column names.

    The label column must contain exactly two distinct values, which are
    mapped to labels 1 and 2 in ascending order (numeric when every label
    parses as a number, lexicographic otherwise). Numeric labels must be
    finite: a non-finite one is rejected with its line number.
    """
    header, rows, line_numbers = _read_table(path, delimiter)
    if header is None:
        raise ConfigError(
            "label_column", "a header line is required to select a label column"
        )
    if label_column not in header:
        raise ConfigError(
            "label_column", f"{label_column!r} not found in header {header}"
        )
    label_idx = header.index(label_column)
    feature_names = [name for i, name in enumerate(header) if i != label_idx]
    raw_labels = [row[label_idx] for row in rows]
    distinct = set(raw_labels)
    if all(map(_is_float, distinct)):
        # NaN has no place in a numeric order, so the mapping would follow
        # the set's hash order; ties between spellings of one number break
        # on the text for the same reason
        for token, lineno in zip(raw_labels, line_numbers):
            _parse_float(token, lineno)
        values = sorted(distinct, key=lambda v: (float(v), v))
    else:
        values = sorted(distinct)
    if len(values) != 2:
        raise DatasetFormatError(
            f"label column must have exactly 2 distinct values, found {len(values)}"
        )
    label_map = {values[0]: 1, values[1]: 2}
    x = np.array(
        [
            _parse_row(row[:label_idx] + row[label_idx + 1 :], lineno)
            for row, lineno in zip(rows, line_numbers)
        ]
    )
    z = np.array([label_map[row[label_idx]] for row in rows], dtype=np.int64)
    return LabeledDataset(x, z), feature_names
