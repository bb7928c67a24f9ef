"""Let the CLI tests' `python -m cobarext` children import the package from
src/ when it is not installed; pyproject's `pythonpath` only reaches this
process."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
