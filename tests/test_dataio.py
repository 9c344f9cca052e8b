from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

import eos.dataio
from eos import EosError, InvalidConfigError, InvalidInputError, ParseError, parse_csv_dataset


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_plain_numeric_csv(tmp_path):
    path = _write(tmp_path, "plain.csv", "x,y\n1,2\n3,4\n5,6\n")
    data = parse_csv_dataset(path)
    assert data.n_instances == 3
    assert data.n_features == 2
    assert data.labels is None
    assert data.feature_names == ("x", "y")
    assert np.array_equal(data.instances, [[1, 2], [3, 4], [5, 6]])


def test_parse_hands_over_the_parsed_matrix_without_a_copy(tmp_path, monkeypatch):
    # A file of feature columns only: the Dataset holds loadtxt's own matrix, frozen.
    path = _write(tmp_path, "plain.csv", "x,y\n1,2\n3,4\n5,6\n")
    parsed = []
    loadtxt = np.loadtxt

    def recorded_loadtxt(*args, **kwargs):
        parsed.append(loadtxt(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(np, "loadtxt", recorded_loadtxt)
    data = parse_csv_dataset(path)
    assert len(parsed) == 1
    assert data.instances is parsed[0]
    assert not data.instances.flags.writeable


def test_wdbc_shaped_file(tmp_path):
    header = "id,diagnosis," + ",".join(f"f{i}" for i in range(30))
    rows = []
    rng = np.random.default_rng(0)
    for i, label in enumerate(["M", "B", "B", "M", "B"]):
        values = ",".join(f"{v:.4f}" for v in rng.uniform(0.1, 30.0, size=30))
        rows.append(f"{842000 + i},{label},{values}")
    path = _write(tmp_path, "wdbc.csv", header + "\n" + "\n".join(rows) + "\n")

    data = parse_csv_dataset(
        path,
        label_column="diagnosis",
        drop_columns=("id",),
        label_map={"M": 1, "B": 0},
    )
    assert data.n_instances == 5
    assert data.n_features == 30
    assert data.labels.tolist() == [1, 0, 0, 1, 0]
    assert data.feature_names[0] == "f0"


def test_blank_cell_names_location(tmp_path):
    path = _write(tmp_path, "blank.csv", "a,b\n1,2\n3,\n")
    with pytest.raises(ParseError, match=r"line 3.*'b'"):
        parse_csv_dataset(path)


def test_non_numeric_cell_names_location(tmp_path):
    path = _write(tmp_path, "bad.csv", "a,b\n1,2\nfoo,4\n")
    with pytest.raises(ParseError, match=r"'foo'.*line 3.*'a'"):
        parse_csv_dataset(path)


def test_whitespace_padded_cells_parse_and_blank_cells_do_not(tmp_path):
    path = _write(tmp_path, "padded.csv", "a,b\n 1.5 ,2\n3,\t-4e0 \n")
    assert np.array_equal(parse_csv_dataset(path).instances, [[1.5, 2.0], [3.0, -4.0]])
    blank = _write(tmp_path, "blank.csv", "a,b\n1,2\n3,4\n5,  \n")
    with pytest.raises(ParseError, match=r"blank cell at line 4, column 'b'"):
        parse_csv_dataset(blank)


@pytest.mark.parametrize(
    "header, kwargs, expected",
    [
        ("id,y", {"drop_columns": ("id", "y")},
         (InvalidConfigError, "['id', 'y']; drop columns ['id', 'y'], label column None")),
        ("id,y", {"drop_columns": ("id",), "label_column": "y"},
         (InvalidConfigError, "['id', 'y']; drop columns ['id'], label column 'y'")),
        ("y", {"label_column": "y"}, (InvalidConfigError, "['y']; drop columns [], label column 'y'")),
        ("", {}, (ParseError, "[]; drop columns [], label column None")),
    ],
    ids=["all-dropped", "dropped-and-label", "label-only", "empty-header-line"],
)
def test_no_feature_columns_left(tmp_path, monkeypatch, header, kwargs, expected):
    # Refused from the header alone: the rows, a whitespace-only line among them, are never read.
    path = _write(tmp_path, "data.csv", f"{header}\n1,0\n  \n3,1\n")

    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    error, names = expected
    with pytest.raises(EosError) as info:
        parse_csv_dataset(path, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: no feature column left in header {names}"


@pytest.mark.parametrize("label", ["0.5", "1.9", "-0.7", "inf", "nan"])
def test_label_that_is_not_exactly_zero_or_one_is_rejected(tmp_path, label):
    path = _write(tmp_path, "data.csv", f"a,y\n1,0\n2,{label}\n3,1\n")
    with pytest.raises(ParseError, match=rf"label value '{label}' at line 3 is not 0/1"):
        parse_csv_dataset(path, label_column="y")


def test_labels_spelled_as_floats_parse(tmp_path):
    path = _write(tmp_path, "data.csv", "a,y\n1,1e0\n2,1.0\n3,0.0\n4,-0\n")
    assert parse_csv_dataset(path, label_column="y").labels.tolist() == [1, 1, 0, 0]


def test_bad_label_on_a_valid_row_names_its_line(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,7\n7,8,0\n")
    with pytest.raises(ParseError, match=r"label value '7' at line 4 is not 0/1"):
        parse_csv_dataset(path, label_column="y")


def test_missing_label_column_is_config_error(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b\n1,2\n")
    with pytest.raises(InvalidConfigError, match="label"):
        parse_csv_dataset(path, label_column="target")


def test_unknown_drop_column_is_config_error(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b\n1,2\n")
    with pytest.raises(InvalidConfigError, match="drop"):
        parse_csv_dataset(path, drop_columns=("id",))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"label_column": "a"}, "label column 'a' names 2 columns of the header"),
        ({"drop_columns": ("a",)}, "drop column 'a' names 2 columns of the header"),
    ],
    ids=["label", "drop"],
)
def test_option_naming_a_repeated_column_is_config_error(tmp_path, kwargs, message):
    path = _write(tmp_path, "data.csv", "a,a,y\n1,2,0\n3,4,1\n")
    with pytest.raises(InvalidConfigError, match=message):
        parse_csv_dataset(path, **kwargs)
    # A repeated name that no option selects still reads.
    data = parse_csv_dataset(path, label_column="y")
    assert data.feature_names == ("a", "a")
    assert data.instances.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("value", [5, -1, 0.5, "1"])
def test_label_map_value_other_than_zero_or_one_is_config_error(tmp_path, value):
    path = _write(tmp_path, "data.csv", "a,label\n1,M\n2,B\n")
    message = f"label map value for 'M' must be 0 or 1, got {value!r}"
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        parse_csv_dataset(path, label_column="label", label_map={"M": value, "B": 0})


def test_parse_peak_memory_stays_near_the_matrix(tmp_path):
    # The parsed matrix is handed to Dataset frozen, so it is not copied again.
    x = np.random.default_rng(5).standard_normal((20_000, 10))
    path = tmp_path / "big.csv"
    np.savetxt(path, x, delimiter=",", header=",".join(f"c{j}" for j in range(10)), comments="")
    tracemalloc.start()
    try:
        data = parse_csv_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.instances, x)
    assert peak < 1.5 * x.nbytes


def test_label_value_outside_map(tmp_path):
    path = _write(tmp_path, "data.csv", "a,label\n1,M\n2,X\n")
    with pytest.raises(ParseError, match="'X'"):
        parse_csv_dataset(path, label_column="label", label_map={"M": 1, "B": 0})


def test_numeric_labels_without_map(tmp_path):
    path = _write(tmp_path, "data.csv", "a,label\n1,0\n2,1\n")
    data = parse_csv_dataset(path, label_column="label")
    assert data.labels.tolist() == [0, 1]


def test_ragged_row_rejected(tmp_path):
    path = _write(tmp_path, "data.csv", "a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_csv_dataset(path)


def test_empty_and_missing_files(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(ParseError, match="empty"):
        parse_csv_dataset(path)
    with pytest.raises(ParseError, match="no such file"):
        parse_csv_dataset(tmp_path / "nowhere.csv")
    header_only = _write(tmp_path, "header.csv", "a,b\n")
    with pytest.raises(ParseError, match="no data rows"):
        parse_csv_dataset(header_only)


@pytest.mark.parametrize(
    "content",
    [b"a,b\r\n1,2\r\n3,4\r\n", b"a,b\r1,2\r\r3,4\r", b"a,b\n1,2\n3,4", b"a,b\r\n1,2\r3,4\n\n5,6\r"],
    ids=["crlf", "lone-cr", "no-final-newline", "mixed"],
)
def test_byte_line_count_equals_the_text_count(tmp_path, monkeypatch, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with open(path, newline="", encoding="utf-8") as handle:
        expected = sum(1 for _ in handle)
    # For each \r\n, one of these chunk sizes ends a chunk between its \r and \n.
    for chunk in (2**20, *range(1, len(content) + 1)):
        monkeypatch.setattr(eos.dataio, "_LINE_CHUNK", chunk)
        assert eos.dataio._count_lines(path) == expected


_DECODE = " is not valid UTF-8: 'utf-8' codec can't decode byte"


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read {path}: Is a directory"),
     (b"a,b\xff\n1,2\n", "{path}: line 1" + _DECODE + " 0xff in position 3: invalid start byte"),
     # Past the first read of the file, so the header decodes.
     (b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n",
      "{path}: line 5002" + _DECODE + " 0xff in position 2: invalid start byte"),
     (b"a,b\r\n1,2\r\n3,4\xe2\x82",
      "{path}: line 3" + _DECODE + "s in position 3-4: unexpected end of data")],
    ids=["directory", "header-byte", "data-row-byte", "cut-last-line"],
)
def test_unreadable_file_raises_parse_error_naming_the_path(tmp_path, content, message):
    path = tmp_path / "data.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ParseError) as error:
        parse_csv_dataset(path)
    assert str(error.value) == message.format(path=path)


# ---------------------------------------------------------------------------
# the whole-file parse keeps the outcomes of the row-by-row reader
# ---------------------------------------------------------------------------

_MB = {"label_column": "y", "label_map": {"M": 1, "B": 0}}


@pytest.mark.parametrize(
    "text, kwargs, expected",
    [
        ("a,b\n1,2\n\n3,4\n", {}, (ParseError, "<path>: line 3 has 0 cells, header has 2")),
        ("a,b\n1,2\n3,4\n\n", {}, (ParseError, "<path>: line 4 has 0 cells, header has 2")),
        ("a,b\n# note\n1,2\n", {}, (ParseError, "<path>: line 2 has 1 cells, header has 2")),
        ("a,b\n#1,2\n", {}, (ParseError, "<path>: non-numeric cell '#1' at line 2, column 'a'")),
        ("a,b\n1_0,2\n", {}, (ParseError, "<path>: non-numeric cell '1_0' at line 2, column 'a'")),
        (
            "a,b\n\u0661\u0662,2\n", {},
            (ParseError, "<path>: non-numeric cell '\u0661\u0662' at line 2, column 'a'"),
        ),
        ('a,b\n"1.5",2\n', {}, ([[1.5, 2.0]], None, ("a", "b"))),
        ("a,b\n 1.5 ,\t2\n3\t, -4e0 \n", {}, ([[1.5, 2.0], [3.0, -4.0]], None, ("a", "b"))),
        ("a,b\r\n1,2\r\n3,4\r\n", {}, ([[1.0, 2.0], [3.0, 4.0]], None, ("a", "b"))),
        ("a,b\r1,2\r3,4\r", {}, ([[1.0, 2.0], [3.0, 4.0]], None, ("a", "b"))),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n", {}, (ParseError, "<path>: line 3 has 0 cells, header has 2")),
        ("a,b\r1,2\r\r3,4\r", {}, (ParseError, "<path>: line 3 has 0 cells, header has 2")),
        ("a,b\n1,2\n\f\n3,4\n", {}, (ParseError, "<path>: line 3 has 1 cells, header has 2")),
        ("a,b\n\n\n", {}, (ParseError, "<path>: line 2 has 0 cells, header has 2")),
        ("a,b\n1,2\n3\n5,6\n", {}, (ParseError, "<path>: line 3 has 1 cells, header has 2")),
        ("a,b\n1\n3\n", {}, (ParseError, "<path>: line 2 has 1 cells, header has 2")),
        ("a,b\n1,2,\n", {}, (ParseError, "<path>: line 2 has 3 cells, header has 2")),
        ("a,b\n1,2\n  \n", {}, (ParseError, "<path>: line 3 has 1 cells, header has 2")),
        ("a\n1\n \n", {}, (ParseError, "<path>: blank cell at line 3, column 'a'")),
        ("a,b\n1,2\n3,4", {}, ([[1.0, 2.0], [3.0, 4.0]], None, ("a", "b"))),
        ("a,b\n", {}, (ParseError, "<path>: no data rows")),
        ("a,b", {}, (ParseError, "<path>: no data rows")),
        (
            "a,b\nnan,1\n", {},
            (InvalidInputError, "instances contain a non-finite entry at row 0, column 0"),
        ),
        (
            "a,b\n1,1e400\n", {},
            (InvalidInputError, "instances contain a non-finite entry at row 0, column 1"),
        ),
        (
            "a,b\n4.9e-324,2.2250738585072014e-308\n1e-310,-5e-324\n", {},
            ([[5e-324, 2.2250738585072014e-308], [1e-310, -5e-324]], None, ("a", "b")),
        ),
        ("a,b\n+.5,-1.\n", {}, ([[0.5, -1.0]], None, ("a", "b"))),
        ('a,y\n1,"M"\n2,B\n', _MB, ([[1.0], [2.0]], [1, 0], ("a",))),
        (
            'a,y\n1,"M,B"\n2,B\n', {"label_column": "y", "label_map": {"M,B": 1, "B": 0}},
            ([[1.0], [2.0]], [1, 0], ("a",)),
        ),
        (
            "id,a,b\n7,1,2\n8,3\n9,5,6\n", {"drop_columns": ("id",)},
            (ParseError, "<path>: line 3 has 2 cells, header has 3"),
        ),
        (
            "a,y\n1,0\n2,1\n3,2\n4,0\n", {"label_column": "y"},
            (ParseError, "<path>: label value '2' at line 4 is not 0/1; provide a label map"),
        ),
        (
            "a,y\n1,0\n2,M\n", {"label_column": "y"},
            (ParseError,
             "<path>: label value 'M' at line 3 is not numeric; provide a label map"),
        ),
        (
            "a,y\n1,M\n2,B\n3,X\n", _MB,
            (ParseError, "<path>: label value 'X' at line 4 not in label map ['B', 'M']"),
        ),
        (
            "id,a,y\nx1,1,M\nx2,2.5,B\n", {**_MB, "drop_columns": ("id",)},
            ([[1.0], [2.5]], [1, 0], ("a",)),
        ),
    ],
    ids=[
        "blank-middle", "blank-end", "comment-line", "comment-cell", "underscore",
        "arabic-indic-digits", "quoted", "padded", "crlf", "bare-cr", "blank-crlf", "blank-bare-cr",
        "form-feed-line", "blank-lines-only", "one-short-row",
        "all-rows-short", "trailing-comma", "whitespace-line", "whitespace-line-one-column",
        "no-final-newline", "header-only", "header-only-no-newline", "nan", "overflow",
        "subnormal", "signs-and-points", "quoted-label", "quoted-label-with-comma",
        "short-row-with-dropped-id", "bad-label-after-valid-rows", "non-numeric-label-no-map",
        "label-not-in-map", "non-numeric-dropped-id",
    ],
)
def test_whole_file_parse_matches_the_row_reader(tmp_path, text, kwargs, expected):
    """Each outcome is the one the row-by-row reader gave: bit-identical
    values, labels and names, or the same error type and message.  The two
    exceptions are ``underscore`` and ``arabic-indic-digits``: ``float()``
    reads ``1_0`` and non-ASCII digits, but they are not CSV numbers, so
    they are refused as non-numeric cells."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(EosError) as info:
            parse_csv_dataset(path, **kwargs)
        assert type(info.value) is error
        assert str(info.value) == message.replace("<path>", str(path))
    else:
        values, labels, names = expected
        data = parse_csv_dataset(path, **kwargs)
        assert data.instances.tobytes() == np.array(values).tobytes()
        assert data.instances.shape == np.shape(values)
        assert (None if data.labels is None else data.labels.tolist()) == labels
        assert data.feature_names == names


@pytest.mark.parametrize("fmt", ["%.17g", "%.6g", "%e"])
def test_whole_file_parse_rounds_like_float(tmp_path, fmt):
    # Random bit patterns reach every exponent a Dataset accepts, subnormals
    # included: |x| up to sqrt(float max / 80) at D = 10.
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    accepted = np.abs(bits) <= math.sqrt(np.finfo(float).max / 80)
    cells = [fmt % v for v in bits[accepted][:10_000]]
    lines = [",".join(cells[i : i + 10]) for i in range(0, len(cells), 10)]
    header = ",".join(f"c{j}" for j in range(10))
    path = _write(tmp_path, "floats.csv", header + "\n" + "\n".join(lines) + "\n")
    expected = np.array([float(cell) for cell in cells]).reshape(-1, 10)
    assert parse_csv_dataset(path).instances.tobytes() == expected.tobytes()
    # The same cells between an id column and a label column.
    labeled = [f"r{i},{line},{'MB'[i % 2]}" for i, line in enumerate(lines)]
    path = _write(tmp_path, "labeled.csv", f"id,{header},y\n" + "\n".join(labeled) + "\n")
    data = parse_csv_dataset(path, drop_columns=("id",), **_MB)
    assert data.instances.tobytes() == expected.tobytes()
    assert data.labels.tolist() == [1 - i % 2 for i in range(len(lines))]
