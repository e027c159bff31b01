"""Shared fixtures."""

import pytest

from thetasum import engine


def _clear_engine_memos():
    # every lru_cache in the engine module, so a new memo is cleared too
    for value in vars(engine).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(scope="session")
def clear_memos():
    """The function that empties every per-exponent memo of the engine."""
    return _clear_engine_memos
