from __future__ import annotations

import numpy as np
import pytest

from eos import InvalidConfigError, InvalidInputError, ParseError, parse_csv_dataset


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
