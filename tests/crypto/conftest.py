import pytest

from repro.crypto import precompute


@pytest.fixture
def clean_tables():
    """No shared comb table or promotion count before or after the test."""
    precompute.clear_caches()
    yield
    precompute.clear_caches()
