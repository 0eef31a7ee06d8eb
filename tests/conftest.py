import pytest

from ellipfim import simulate


@pytest.fixture(autouse=True)
def empty_simulation_memo():
    """Each test starts with no kept scale-free half: a run reads only what
    its own test computed."""
    simulate._MEMO.clear()
