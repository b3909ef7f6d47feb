"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def trace_cache_home(tmp_path, monkeypatch):
    """Each test's trace cache lives under its own tmp_path, never in the
    user's cache directory; returns the directory the cache files go in."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "eastsim" / "traces"
