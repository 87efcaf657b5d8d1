import glob
import os

import numpy as np
import pytest

from fracdecay.errors import ConfigError
from fracdecay.io import (format_value, parse_experiment_file,
                          read_csv_columns, write_csv_atomic)


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(7)
    t = np.sort(rng.random(50))
    e = rng.random(50) * np.exp(rng.integers(-200, 200, 50).astype(float))
    path = str(tmp_path / "trace.csv")
    write_csv_atomic(path, ["t", "E"], [t, e])
    names, cols = read_csv_columns(path)
    assert names == ["t", "E"]
    assert np.array_equal(cols["t"], t)
    assert np.array_equal(cols["E"], e)


def test_csv_bytes_are_the_per_element_format(tmp_path):
    # the column-wise writer formats each value as format_value does on
    # the NumPy element itself
    rng = np.random.default_rng(11)
    floats = np.concatenate([[-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                              -5e-324, 1.7976931348623157e308, 0.1, 1e16],
                             rng.standard_normal(6) * 10.0 ** rng.integers(
                                 -300, 300, 6)])
    ints = np.array([0, -1, 7, 2 ** 53 + 1, -(2 ** 62), 3] + [12] * 10,
                    dtype=np.int64)
    bools = np.arange(16) % 3 == 0
    small = np.array([-0.0, np.nan, -np.inf, 1e-45, 0.1, 3.4e38] * 2
                     + [1.0] * 4, dtype=np.float32)
    columns = [floats, ints, bools, small, list(range(16))]
    header = ["f", "i", "b", "f32", "py"]
    path = str(tmp_path / "types.csv")
    write_csv_atomic(path, header, columns)
    arrays = [np.asarray(c) for c in columns]
    expected = "".join(
        [",".join(header) + "\n"]
        + [",".join(format_value(c[i]) for c in arrays) + "\n"
           for i in range(16)])
    assert open(path, "rb").read() == expected.encode()


def test_csv_unix_line_endings_and_header(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv_atomic(path, ["a", "b"], [[1.0], [2.0]])
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.startswith(b"a,b\n")
    assert raw.endswith(b"\n")


def test_no_temp_files_left_behind(tmp_path):
    path = str(tmp_path / "y.csv")
    write_csv_atomic(path, ["a"], [[1.0]])
    assert glob.glob(str(tmp_path / "*.tmp")) == []


def test_column_validation(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ConfigError):
        write_csv_atomic(path, ["a", "b"], [[1.0]])
    with pytest.raises(ConfigError):
        write_csv_atomic(path, ["a", "b"], [[1.0], [1.0, 2.0]])
    assert not os.path.exists(path)


def test_read_rejects_ragged_and_non_numeric(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0\n")
    with pytest.raises(ConfigError):
        read_csv_columns(str(p))
    p.write_text("a,b\n1.0,x\n")
    with pytest.raises(ConfigError):
        read_csv_columns(str(p))


def test_experiment_file_sections_and_lists(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[scan]\nalpha = 0.5\nm = 1, 2\noperator = porous_medium\n"
                 "steps = 128\n")
    cfg = parse_experiment_file(str(p))
    assert cfg["scan"]["alpha"] == "0.5"
    assert cfg["scan"]["m"] == ["1", "2"]
    assert cfg["scan"]["operator"] == "porous_medium"
    assert cfg["scan"]["steps"] == "128"


def test_missing_experiment_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_experiment_file(str(tmp_path / "absent.ini"))
