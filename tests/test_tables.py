import csv
import re
import warnings

import numpy as np
import pytest

from gcsf import tables


def csv_module_bytes(path, header, *columns):
    """The csv.writer + repr(float(x)) loop every table writer used before."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row])
    return path.read_bytes()


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1.0 / 3.0,
               2.0, -7.0, 1e16, 123456789.0, 0.1, 2.2250738585072014e-308, 1e-5]


def test_edge_values_match_the_csv_module_and_read_back(tmp_path):
    a = np.array(EDGE_VALUES)
    b = a[::-1].copy()
    ints = list(range(len(a)))  # whole numbers given as ints are written as floats
    path = tmp_path / "t.csv"
    tables.write_columns(path, {"a": a, "b": b, "n": ints})
    assert path.read_bytes() == csv_module_bytes(tmp_path / "ref.csv", ["a", "b", "n"],
                                                 a, b, ints)
    assert path.read_bytes().startswith(b"a,b,n\r\n0.0,1e-05,0.0\r\n-0.0,")
    back = tables.read_columns(path)
    assert list(back) == ["a", "b", "n"]
    np.testing.assert_array_equal(back["a"], a)
    np.testing.assert_array_equal(np.signbit(back["a"]), np.signbit(a))
    np.testing.assert_array_equal(back["b"], b)
    np.testing.assert_array_equal(back["n"], ints)


def test_tables_longer_than_a_chunk_match_the_csv_module(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * tables.CHUNK_ROWS + 17
    x = np.cumsum(rng.random(n))
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    path = tmp_path / "t.csv"
    tables.write_columns(path, {"x": x, "y": y})
    assert path.read_bytes() == csv_module_bytes(tmp_path / "ref.csv", ["x", "y"], x, y)
    back = tables.read_columns(path)
    assert list(back) == ["x", "y"]
    np.testing.assert_array_equal(back["x"], x)
    np.testing.assert_array_equal(back["y"], y)


def test_empty_table_is_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    tables.write_columns(path, {"t": [], "y": []})
    assert path.read_bytes() == b"t,y\r\n"
    # Read back, it is an error that names the file, with no warning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has no data rows$"):
            tables.read_columns(path)


def test_a_table_of_one_row_reads_back_as_columns(tmp_path):
    path = tmp_path / "t.csv"
    tables.write_columns(path, {"t": [1.0], "y": [2.0]})
    back = tables.read_columns(path)
    assert list(back) == ["t", "y"]
    np.testing.assert_array_equal(back["t"], [1.0])
    np.testing.assert_array_equal(back["y"], [2.0])


def test_the_header_keeps_the_mapping_order(tmp_path):
    path = tmp_path / "t.csv"
    columns = {"z": [3.0, 1.0], "a": [2.0, 5.0], "m": [0.5, -0.5]}
    tables.write_columns(path, columns)
    assert path.read_bytes() == b"z,a,m\r\n3.0,2.0,0.5\r\n1.0,5.0,-0.5\r\n"
    back = tables.read_columns(path)
    assert list(back) == ["z", "a", "m"]
    for name, column in columns.items():
        np.testing.assert_array_equal(back[name], column)


def test_a_column_the_header_lacks_is_an_error_naming_the_file(tmp_path):
    path = tmp_path / "ode.csv"
    path.write_bytes(b"t,rho,slope\r\n0.0,1.0,2.0\r\n")
    back = tables.read_columns(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has no column 'drho'$"):
        back["drho"]


@pytest.mark.parametrize("text", [b"t,t\r\n0.0,1.0\r\n", b"t\r\n0.0,1.0\r\n",
                                  b"t,y,z\r\n0.0,1.0\r\n"])
def test_a_header_that_does_not_name_each_column_once_is_rejected(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}'s header does not name"):
        tables.read_columns(path)


@pytest.mark.parametrize("header,columns", [
    ([], ()),
    (["a", "b"], ([1.0, 2.0], [1.0])),
    (["a"], ([[1.0, 2.0]],)),
])
def test_mismatched_columns_are_rejected(tmp_path, header, columns):
    # No columns, columns of two lengths, a column that is not 1-D.
    with pytest.raises(ValueError):
        tables.write_columns(tmp_path / "t.csv", dict(zip(header, columns)))
