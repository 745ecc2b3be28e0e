"""``src`` on the import path of the processes the tests start (``python -m revtri.cli``),
as ``pythonpath`` in pyproject.toml puts it on the test process's own: a bare
``python -m pytest`` then runs the whole suite."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path)
