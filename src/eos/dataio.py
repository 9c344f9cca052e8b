"""CSV ingestion with strict cell-level error reporting.

Every value comes from one ``np.loadtxt`` pass over the whole file, which
rounds like ``float()``; label and dropped columns go through converters so
that each row's cells are still counted.  Before it, a pass over the file's
bytes in large chunks counts its lines, so a blank line, which
``np.loadtxt`` skips, is a missing row.  It counts bytes, because decoding
the file and stepping through it one line at a time costs more than the count.
Only when the parse refuses a file or misses a row does a row-by-row scan
read it again, to word the ``ParseError`` with line and column; it returns
no values.
"""

from __future__ import annotations

import csv
import functools
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .data import Dataset
from .exceptions import InvalidConfigError, ParseError

__all__ = ["parse_csv_dataset"]

_LINE_CHUNK = 2**20  # bytes read at a time by the line count


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
    non-blank number; violations name the file line and column.  A file
    that is missing or cannot be read raises ``ParseError`` naming the path,
    and one that is not UTF-8 names the first line that does not decode.
    """
    for key, value in (label_map or {}).items():
        if value not in (0, 1):
            raise InvalidConfigError(
                f"label map value for {key!r} must be 0 or 1, got {value!r}"
            )
    path = Path(path)
    try:
        return _read_csv(path, label_column, drop_columns, label_map)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, or not readable
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(_undecodable(path, exc)) from None


def _read_csv(
    path: Path,
    label_column: str | None,
    drop_columns: tuple[str, ...],
    label_map: dict[str, int] | None,
) -> Dataset:
    """``parse_csv_dataset`` after its label map is checked; OS and decoding
    errors pass through to it."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: file is empty, expected a header row") from None

        selected = [("drop column", name) for name in drop_columns]
        if label_column is not None:
            selected.append(("label column", label_column))
        for kind, name in selected:
            if name not in header:
                raise InvalidConfigError(f"{path}: {kind} {name!r} not found in header")
            if header.count(name) > 1:
                raise InvalidConfigError(
                    f"{path}: {kind} {name!r} names {header.count(name)} columns of the header"
                )

        dropped = set(drop_columns)
        feature_cols = [
            (i, name)
            for i, name in enumerate(header)
            if name not in dropped and name != label_column
        ]
        if not feature_cols:
            error = InvalidConfigError if header else ParseError  # no header: the file's fault
            raise error(f"{path}: no feature column left in header {header}; drop columns "
                        f"{list(drop_columns)}, label column {label_column!r}")
        label_idx = header.index(label_column) if label_column is not None else None

        header_lines = reader.line_num
    n_lines = _count_lines(path) - header_lines
    if n_lines == 0:
        raise ParseError(f"{path}: no data rows")

    converters = {i: (lambda cell: 0.0) for i, name in enumerate(header) if name in dropped}
    if label_idx is not None:
        # Decoded once per distinct cell; a bad label is worded by the row scan.
        converters[label_idx] = functools.cache(
            lambda cell: _parse_label(path, cell.strip(), label_map, 0)
        )
    try:
        with warnings.catch_warnings():  # all data lines empty: no rows, worded by the row scan
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                path, delimiter=",", comments=None, quotechar='"', skiprows=header_lines,
                ndmin=2, encoding="utf-8", converters=converters or None,
            )
        if values.shape != (n_lines, len(header)):
            raise ValueError(
                f"read {values.shape[0]} rows of {values.shape[1]} cells from {n_lines} data lines"
            )
    except ValueError as exc:
        _raise_row_error(path, header, feature_cols, label_idx, label_map, str(exc))

    labels = values[:, label_idx].astype(np.int64) if label_idx is not None else None
    if len(feature_cols) < len(header):
        values = values.take([i for i, _ in feature_cols], axis=1)
    return Dataset._adopt(values, labels, tuple(name for _, name in feature_cols))


def _count_lines(path: Path) -> int:
    """The number of lines a text read of ``path`` with ``newline=""`` yields:
    ``\n``, ``\r\n`` and a lone ``\r`` each end one, and a last line
    without an ending counts.  Neither byte occurs inside a UTF-8 sequence.
    A numpy comparison counts bytes several times faster than ``bytes.count``."""
    lines, last = 0, b""
    with open(path, "rb") as handle:
        while chunk := handle.read(_LINE_CHUNK):
            codes = np.frombuffer(chunk, dtype=np.uint8)
            lines += int(np.count_nonzero(codes == ord("\n")))
            if b"\r" in chunk:  # add the \r count, less the \r\n count
                cr = codes == ord("\r")
                lines += int(np.count_nonzero(cr))
                lines -= int(np.count_nonzero(cr[:-1] & (codes[1:] == ord("\n"))))
            if last == b"\r" and chunk.startswith(b"\n"):  # a \r\n split between chunks
                lines -= 1
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def _undecodable(path: Path, exc: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8: the first physical line whose
    bytes do not decode and where in that line.  The decoder's own position
    counts from the start of the chunk it was given, not of the file."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"{path}: line {line_no} is not valid UTF-8: {bad}"
    return f"{path}: not valid UTF-8: {exc}"  # the file changed since it was read


def _raise_row_error(
    path: Path,
    header: list[str],
    feature_cols: list[tuple[int, str]],
    label_idx: int | None,
    label_map: dict[str, int] | None,
    reason: str,
) -> NoReturn:
    """Raise the ParseError naming the first row of ``path`` whose cell count
    differs from the header's, whose feature cell is blank or not a number,
    or whose label is invalid; when every row reads, raise it for ``reason``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line_no} has {len(row)} cells, header has {len(header)}"
                )
            for col_idx, col_name in feature_cols:
                cell = row[col_idx].strip()
                if cell == "":
                    raise ParseError(f"{path}: blank cell at line {line_no}, column {col_name!r}")
                try:
                    # float() also reads '1_0' and non-ASCII digits; np.loadtxt does not.
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(cell)
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell {cell!r} at line {line_no}, column {col_name!r}"
                    ) from None
            if label_idx is not None:
                _parse_label(path, row[label_idx].strip(), label_map, line_no)
    raise ParseError(f"{path}: {reason}")


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
