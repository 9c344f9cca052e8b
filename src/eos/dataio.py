"""CSV ingestion with strict cell-level error reporting.

A file whose every column is a feature is parsed at C speed by
``np.loadtxt``; any file that parse does not accept whole, and every file
with a label or dropped column, goes through the row-by-row reader, which
alone words every ``ParseError``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .data import Dataset
from .exceptions import InvalidConfigError, ParseError

__all__ = ["parse_csv_dataset"]


def parse_csv_dataset(
    path: str | Path,
    label_column: str | None = None,
    drop_columns: tuple[str, ...] = (),
    label_map: dict[str, int] | None = None,
) -> Dataset:
    """Load a headered CSV of numeric features into a Dataset.

    ``drop_columns`` are removed before anything else (an id column, say).
    ``label_column`` values go through ``label_map`` (e.g. {"M": 1, "B": 0});
    without a map they must already be 0/1.  Every remaining cell must be a
    non-blank number; violations name the file line and column.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: file is empty, expected a header row") from None

        for name in drop_columns:
            if name not in header:
                raise InvalidConfigError(f"{path}: drop column {name!r} not found in header")
        if label_column is not None and label_column not in header:
            raise InvalidConfigError(f"{path}: label column {label_column!r} not found in header")

        if label_column is None and not drop_columns:
            values = _load_all_numeric(path, handle, reader.line_num, len(header))
            if values is not None:
                return Dataset(values, None, tuple(header))
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)

        dropped = set(drop_columns)
        feature_cols = [
            (i, name)
            for i, name in enumerate(header)
            if name not in dropped and name != label_column
        ]
        feature_idx = [i for i, _ in feature_cols]
        label_idx = header.index(label_column) if label_column is not None else None

        labels: list[int] = []
        n_rows = 0

        def feature_cells():
            # One row at a time into np.fromiter: no per-row Python lists
            # outlive their row.
            nonlocal n_rows
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: line {line_no} has {len(row)} cells, header has {len(header)}"
                    )
                try:
                    yield from map(float, [row[i] for i in feature_idx])
                except ValueError:
                    _raise_cell_error(path, row, feature_cols, line_no)
                    raise
                if label_idx is not None:
                    labels.append(_parse_label(path, row[label_idx].strip(), label_map, line_no))
                n_rows += 1

        values = np.fromiter(feature_cells(), dtype=float)

    if n_rows == 0:
        raise ParseError(f"{path}: no data rows")
    return Dataset(
        values.reshape(n_rows, len(feature_cols)),
        np.asarray(labels, dtype=int) if label_idx is not None else None,
        tuple(name for _, name in feature_cols),
    )


def _load_all_numeric(
    path: Path, handle: Iterable[str], header_lines: int, n_columns: int
) -> np.ndarray | None:
    """Every cell after the header as one float matrix, or None when the
    row-by-row reader must decide.

    ``handle`` stands just after the header's ``header_lines`` lines.
    ``np.loadtxt`` rounds like ``float()``, but it skips blank lines and
    never looks at the header, so its result counts only when no data line
    is blank and its shape is (data lines, header columns).
    """
    n_lines = 0
    for line in handle:
        if not line.strip():
            return None
        n_lines += 1
    if n_lines == 0:
        return None
    try:
        values = np.loadtxt(
            path, delimiter=",", comments=None, skiprows=header_lines, ndmin=2, encoding="utf-8"
        )
    except ValueError:
        return None
    return values if values.shape == (n_lines, n_columns) else None


def _raise_cell_error(
    path: Path, row: list[str], feature_cols: list[tuple[int, str]], line_no: int
) -> None:
    """Raise the ParseError naming the first feature cell of ``row`` that is
    blank or not a number."""
    for col_idx, col_name in feature_cols:
        cell = row[col_idx].strip()
        if cell == "":
            raise ParseError(
                f"{path}: blank cell at line {line_no}, column {col_name!r}"
            ) from None
        try:
            float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric cell {cell!r} at line {line_no}, column {col_name!r}"
            ) from None


def _parse_label(path: Path, cell: str, label_map: dict[str, int] | None, line_no: int) -> int:
    if label_map is not None:
        if cell not in label_map:
            raise ParseError(
                f"{path}: label value {cell!r} at line {line_no} not in label map "
                f"{sorted(label_map)}"
            )
        return int(label_map[cell])
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: label value {cell!r} at line {line_no} is not numeric; "
            "provide a label map"
        ) from None
    if value != 0.0 and value != 1.0:
        raise ParseError(
            f"{path}: label value {cell!r} at line {line_no} is not 0/1; "
            "provide a label map"
        )
    return int(value)
