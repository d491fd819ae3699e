"""Shared test setup."""

import os
from pathlib import Path

# Child processes started by the tests import gwlambda from this checkout's
# src/, installed or not.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
