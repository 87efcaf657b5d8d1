"""CSV emission and experiment-file parsing.

CSV files carry a header row, 17-significant-digit decimal values (lossless
double round-trip) and UNIX line endings, and are written atomically via a
temp file in the target directory followed by rename.  Experiment files are
flat key-value text with ``[section]`` headers; values are read back as
strings, and comma-separated values as lists of strings.
"""

from __future__ import annotations

import configparser
import os
import tempfile

import numpy as np

from .errors import ConfigError


def format_value(x) -> str:
    return "%.17g" % float(x)


def write_csv_atomic(path: str, header, columns) -> str:
    """Write columns (equal-length 1-d arrays) under `header` names."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ConfigError("header/column count mismatch")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ConfigError("columns must have equal length")
    # one tolist() per column: Python numbers format as their NumPy
    # elements do, without a NumPy scalar per value
    cells = [map(format_value, c.tolist()) for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    body = "\n".join(lines) + "\n"
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_csv_columns(path: str):
    """Read a header CSV back as (names, dict of float arrays)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file") from exc
    if not lines:
        raise ConfigError(f"{path}: empty file")
    names = lines[0].split(",")
    if len(set(names)) < len(names):
        raise ConfigError(f"{path}: repeated column name in {lines[0]!r}")
    data = {n: [] for n in names}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ConfigError(f"{path}: ragged row {ln!r}")
        for n, v in zip(names, parts):
            try:
                data[n].append(float(v))
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric field {v!r}") from exc
    return names, {n: np.asarray(v) for n, v in data.items()}


def parse_experiment_file(path: str):
    """Sections of key-value pairs; values are strings, or lists of
    strings where they hold commas, for the caller to type."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive parameter names
    try:
        read = cp.read(path)
        # values are interpolated, and may fail, only when read out
        items = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read experiment file {path}")
    # a value with a comma is a grid of values
    return {section: {k: [p.strip() for p in v.split(",") if p.strip()]
                      if "," in v else v.strip() for k, v in kv}
            for section, kv in items.items()}
