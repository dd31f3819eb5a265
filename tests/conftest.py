"""Suite-wide fixtures."""

import os

import pytest

from repro import faults
from repro.exec.cache import CACHE_ENV_VAR
from repro.faults import plane as fault_plane


@pytest.fixture(autouse=True)
def _chaos_state_left_clean():
    """Fail any test that leaves a fault plane armed or its env set.

    An armed plane, or a ``REPRO_FAULTS_*`` variable that the next fresh
    process re-arms from, injects faults into every later test.  The
    state is reset before failing, so only the leaking test fails.
    pytest sets up autouse fixtures in name order: this name sorts
    before every fixture that uses ``monkeypatch``, so the check runs
    after a test's ``monkeypatch`` changes are undone.
    """
    yield
    leaked = [
        key
        for key in (faults.PLAN_ENV_VAR, faults.SEED_ENV_VAR)
        if key in os.environ
    ]
    armed = faults.is_active()
    if not (leaked or armed):
        return
    for key in leaked:
        del os.environ[key]
    fault_plane._PLANE, fault_plane._ENV_CHECKED = None, False
    pytest.fail(
        "test left chaos state behind: "
        + ", ".join((["fault plane armed"] if armed else []) + leaked)
    )


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Point the experiment result cache at a per-session temp directory.

    Keeps tests hermetic: nothing under ``~/.cache/repro`` is read or
    written, and cached results can never leak between unrelated runs of
    the suite and the user's own evaluations.
    """
    cache_root = tmp_path_factory.getbasetemp() / "repro-result-cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_root))
