"""Fixtures and Hypothesis profiles shared by every test module."""

from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import Phase, settings

# For tests/mutants.py, which needs only whether the suite fails: a failing
# property stops at its first failing example instead of shrinking it, which
# runs the reference executor again on every candidate.
settings.register_profile("no-shrink", phases=[phase for phase in Phase if phase != Phase.shrink])


class CacheDirs(NamedTuple):
    """The directories eastsim's two caches write their files in."""

    traces: Path
    walks: Path


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """The cache location of fixtures wider than one test, such as a
    module's shared runs, which start before ``cache_dirs``: a directory of
    the session's own, never the user's cache directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def cache_dirs(tmp_path, monkeypatch):
    """Each test's trace and walk caches live under its own tmp_path, never
    in the user's cache directory; returns the directories their files go
    in."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    root = tmp_path / "xdg-cache" / "eastsim"
    return CacheDirs(traces=root / "traces", walks=root / "walks")
