"""Fixtures and Hypothesis profiles shared by every test module."""

import pytest
from hypothesis import Phase, settings

# For tests/mutants.py, which needs only whether the suite fails: a failing
# property stops at its first failing example instead of shrinking it, which
# runs the reference executor again on every candidate.
settings.register_profile("no-shrink", phases=[phase for phase in Phase if phase != Phase.shrink])


@pytest.fixture(autouse=True)
def trace_cache_home(tmp_path, monkeypatch):
    """Each test's trace cache lives under its own tmp_path, never in the
    user's cache directory; returns the directory the cache files go in."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "eastsim" / "traces"
