import os
from pathlib import Path

import pytest

import fracdecay


def pytest_configure(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so a fracdecay reached through PYTHONPATH would silently go untested
    here = Path(fracdecay.__file__).resolve().parent
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        other = (Path(entry) / "fracdecay").resolve()
        if entry and (other / "__init__.py").is_file() and other != here:
            raise pytest.UsageError(
                f"PYTHONPATH holds {other}, but pytest imports {here}; "
                "run pytest in the checkout it should test")
