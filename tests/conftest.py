"""Let the CLI tests' `python -m cobarext` children import the package from
src/ when it is not installed; pyproject's `pythonpath` only reaches this
process.  Also the `slice_cap` fixture, for tests of the slice size guard."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def slice_cap(monkeypatch):
    """A function that sets cobar.MAX_SLICE_DIM for the rest of the test.

    Both complex LRUs are cleared whenever the cap is set and after the
    test: a slice already listed, by a cached complex or in a chain table it
    shares, is never checked against the cap again, and the LRUs hold the
    only references to the complexes that keep those tables alive."""
    from cobarext import cobar, koszul

    def clear():
        cobar._shared_complex.cache_clear()
        koszul._shared_koszul.cache_clear()

    def set_cap(cap: int) -> None:
        monkeypatch.setattr(cobar, "MAX_SLICE_DIM", cap)
        clear()

    yield set_cap
    clear()
