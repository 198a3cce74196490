import pytest


@pytest.fixture(scope="session")
def default_search():
    """The odd blocks within the default search bounds, computed once."""
    from nccwk.harness.search import search_odd_blocks

    return search_odd_blocks()
