"""Fixtures shared by every test module."""

import pytest

from ms4 import model


@pytest.fixture(autouse=True)
def cold_memo():
    """Start each test with an empty `model.memo`, so the order in which
    tests run cannot decide whether a test takes the cold or warm path."""
    model.memo.cache_clear()
