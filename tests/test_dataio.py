from __future__ import annotations

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
    "kwargs",
    [{"drop_columns": ("id", "y")}, {"drop_columns": ("id",), "label_column": "y"}],
    ids=["all-dropped", "dropped-and-label"],
)
def test_no_feature_columns_left(tmp_path, kwargs):
    path = _write(tmp_path, "data.csv", "id,y\n1,0\n2,1\n3,1\n")
    with pytest.raises(InvalidInputError, match=r"at least 1x1, got \(3, 0\)"):
        parse_csv_dataset(path, **kwargs)


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


# ---------------------------------------------------------------------------
# the whole-file parse against the row-by-row reader
# ---------------------------------------------------------------------------

def _parse_both_ways(path, monkeypatch):
    """(outcome of the whole-file parse, outcome of the row-by-row reader,
    whether the whole-file parse was accepted); an outcome is the Dataset or
    the EosError raised."""
    accepted = []
    load = eos.dataio._load_all_numeric

    def spy(*args):
        values = load(*args)
        accepted.append(values is not None)
        return values

    def outcome():
        try:
            return parse_csv_dataset(path)
        except EosError as exc:
            return exc

    with monkeypatch.context() as patch:
        patch.setattr(eos.dataio, "_load_all_numeric", spy)
        fast = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(eos.dataio, "_load_all_numeric", lambda *args: None)
        rowwise = outcome()
    return fast, rowwise, accepted == [True]


def _assert_same_outcome(fast, rowwise):
    if isinstance(rowwise, Exception):
        assert type(fast) is type(rowwise)
        assert str(fast) == str(rowwise)
    else:
        assert fast.instances.tobytes() == rowwise.instances.tobytes()
        assert fast.instances.shape == rowwise.instances.shape
        assert fast.feature_names == rowwise.feature_names
        assert fast.labels is None and rowwise.labels is None


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("a,b\n1,2\n\n3,4\n", False),
        ("a,b\n1,2\n3,4\n\n", False),
        ("a,b\n# note\n1,2\n", False),
        ("a,b\n#1,2\n", False),
        ("a,b\n1_0,2\n", False),
        ('a,b\n"1.5",2\n', False),
        ("a,b\n 1.5 ,\t2\n3\t, -4e0 \n", True),
        ("a,b\r\n1,2\r\n3,4\r\n", True),
        ("a,b\r1,2\r3,4\r", True),
        ("a,b\n1,2\n3\n5,6\n", False),
        ("a,b\n1\n3\n", False),
        ("a,b\n1,2,\n", False),
        ("a,b\n1,2\n  \n", False),
        ("a\n1\n \n", False),
        ("a,b\n1,2\n3,4", True),
        ("a,b\n", False),
        ("a,b", False),
        ("a,b\nnan,1\n", True),
        ("a,b\n1,1e400\n", True),
        ("a,b\n4.9e-324,2.2250738585072014e-308\n1e-310,-5e-324\n", True),
        ("a,b\n+.5,-1.\n", True),
    ],
    ids=[
        "blank-middle", "blank-end", "comment-line", "comment-cell", "underscore", "quoted",
        "padded", "crlf", "bare-cr", "one-short-row", "all-rows-short", "trailing-comma",
        "whitespace-line", "whitespace-line-one-column", "no-final-newline", "header-only",
        "header-only-no-newline", "nan", "overflow", "subnormal", "signs-and-points",
    ],
)
def test_whole_file_parse_matches_the_row_reader(tmp_path, monkeypatch, text, accepted):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    fast, rowwise, fast_accepted = _parse_both_ways(path, monkeypatch)
    _assert_same_outcome(fast, rowwise)
    assert fast_accepted is accepted


@pytest.mark.parametrize("fmt", ["%.17g", "%.6g", "%e"])
def test_whole_file_parse_rounds_like_float(tmp_path, monkeypatch, fmt):
    # Random bit patterns reach every exponent, subnormals included.
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    cells = [fmt % v for v in bits[np.isfinite(bits)][:10_000]]
    lines = [",".join(cells[i : i + 10]) for i in range(0, len(cells), 10)]
    header = ",".join(f"c{j}" for j in range(10))
    path = _write(tmp_path, "floats.csv", header + "\n" + "\n".join(lines) + "\n")
    fast, rowwise, accepted = _parse_both_ways(path, monkeypatch)
    assert accepted
    expected = np.array([float(cell) for cell in cells]).reshape(-1, 10)
    assert fast.instances.tobytes() == expected.tobytes()
    _assert_same_outcome(fast, rowwise)
