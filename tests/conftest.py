"""The ``pythonpath`` setting in pyproject.toml puts ``src`` on the path of
the test process only; tests that run ``python -m flowrag.cli`` in a
subprocess need it in the environment as well."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in (str(Path(p).resolve()) for p in paths):
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
