"""Fixtures shared by every test module."""

import pytest

from ms4 import ssm


@pytest.fixture(autouse=True)
def cold_memo():
    """Start each test with an empty kernel and scanner memo, so the order in
    which tests run cannot decide whether a test takes the cold or warm path."""
    ssm.memo.cache_clear()
