import pytest

from fsiegel import symplectic


@pytest.fixture
def fresh_cell():
    """An empty cell slot before and after the test, so no table built under a patch outlives it."""
    symplectic._slot.clear()
    yield
    symplectic._slot.clear()
