"""CSV emission and experiment-file parsing.

CSV files carry a header row, 17-significant-digit decimal values (lossless
double round-trip) and UNIX line endings, and are written atomically via a
temp file in the target directory followed by rename.  Experiment files are
flat key-value text with ``[section]`` headers; comma-separated values are
read back as lists.
"""

from __future__ import annotations

import configparser
import os
import tempfile

import numpy as np

from .errors import ConfigError


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def write_csv_atomic(path: str, header, columns) -> str:
    """Write columns (equal-length 1-d arrays) under `header` names."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ConfigError("header/column count mismatch")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ConfigError("columns must have equal length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(format_value(c[i]) for c in columns))
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
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty file")
    names = lines[0].split(",")
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


def _coerce(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_coerce(part) for part in raw.split(",") if part.strip()]
    try:
        v = float(raw)
        return int(v) if v == int(v) and "." not in raw and "e" not in raw.lower() else v
    except ValueError:
        return raw


def parse_experiment_file(path: str):
    """Sections of key-value pairs; values coerced to numbers/lists."""
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
    return {section: {k: _coerce(v) for k, v in kv}
            for section, kv in items.items()}
