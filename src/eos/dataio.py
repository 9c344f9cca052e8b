"""CSV ingestion with strict cell-level error reporting."""

from __future__ import annotations

import csv
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
        value = int(float(cell))
    except ValueError:
        raise ParseError(
            f"{path}: label value {cell!r} at line {line_no} is not numeric; "
            "provide a label map"
        ) from None
    if value not in (0, 1):
        raise ParseError(
            f"{path}: label value {cell!r} at line {line_no} is not 0/1; "
            "provide a label map"
        )
    return value
