"""Shared fixtures.

Seeding policy
--------------
Every test that draws randomness must route it through the canonical ``rng``
fixture (or a stream spawned from it, like ``rng2``) — never through the
legacy ``numpy.random`` global state or ad-hoc module-level generators.
Each test gets a *fresh* generator, so no test can perturb another's stream
(cross-test seed bleed), and the ``_isolate_global_rng`` autouse fixture
restores ``numpy.random``'s global state after every test so even code that
does touch the legacy API cannot leak between tests.

Explicit model-init seeds inside tests (``np.random.default_rng(7)``) are
fine: they are self-contained, not shared state.

Teardown check
--------------
The concurrent-runtime suites use the ``no_leaks`` fixture: after each test
no child process may be alive, no ``/dev/shm`` entry may be new, no
``pipe-*`` worker or reader thread may outlive a bounded 2 s wait, and no
``pmnet-*`` socket directory may be new in the temp dir.

Timeouts
--------
``@pytest.mark.timeout(seconds)`` is honored even without the
``pytest-timeout`` plugin: when the plugin is absent, a SIGALRM-based
fallback aborts the test with ``Failed`` instead of letting a deadlocked
queue hang CI forever.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time

import numpy as np
import pytest

from helpers import make_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """The canonical per-test random stream (seed 0, PCG64)."""
    return make_rng(0)


@pytest.fixture
def rng2(rng) -> np.random.Generator:
    """A second, independent stream derived from the canonical fixture
    (used e.g. to pick which entries a gradcheck samples)."""
    return rng.spawn(1)[0]


@pytest.fixture(autouse=True)
def _isolate_global_rng():
    """Snapshot/restore ``numpy.random``'s legacy global state around every
    test, so nothing can bleed seeds across tests through the global RNG."""
    state = np.random.get_state()
    yield
    np.random.set_state(state)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than this "
        "(enforced via SIGALRM when pytest-timeout is not installed)",
    )
    config.addinivalue_line(
        "markers",
        "overlap: overlapped-optimizer-boundary suites (two steps in flight"
        " per pool); CI runs them as a dedicated lane with a tightened"
        " timeout so a version-gating bug surfaces as a timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "hybrid: hybrid data × pipeline parallelism suites (replica groups"
        " sharing one version clock); CI runs them as a dedicated lane with"
        " a tightened timeout so a replica-lockstep bug surfaces as a"
        " timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "net: socket-transport suites (wire framing, the socket runtime's"
        " differential grid, and fault injection across all backends); CI"
        " runs them as a dedicated lane with a tightened timeout so a lost"
        " frame or a broken failure path surfaces as a timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "chaos: seeded chaos soaks (random kills/drops/delays against the"
        " elastic-recovery stack); CI runs them as a dedicated lane with a"
        " tight timeout and uploads the per-seed fault logs from"
        " $CHAOS_LOG_DIR as artifacts when the lane fails",
    )


@pytest.fixture(autouse=True)
def _enforce_timeout_marker(request):
    """Fallback enforcement of ``@pytest.mark.timeout`` without the plugin."""
    marker = request.node.get_closest_marker("timeout")
    if (
        marker is None
        or not marker.args
        or request.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = float(marker.args[0])

    def _alarm(signum, frame):
        raise pytest.fail.Exception(f"test exceeded timeout of {seconds:g}s")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _pmnet_dirs() -> set[str]:
    return {n for n in os.listdir(tempfile.gettempdir()) if n.startswith("pmnet-")}


@pytest.fixture
def no_leaks():
    """Teardown check for the runtime suites: whatever path the test took
    (clean run, worker error, deadlock, kill), the runtime must leave no
    child process, shared-memory segment, ``pipe-*`` thread or socket
    directory behind."""
    shm, pmnet = _shm_entries(), _pmnet_dirs()
    yield
    assert not multiprocessing.active_children(), (
        f"child processes left alive: {multiprocessing.active_children()}"
    )
    deadline = time.monotonic() + 2.0
    while True:
        threads = [t.name for t in threading.enumerate() if t.name.startswith("pipe-")]
        if not threads or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not threads, f"pipe threads still alive after 2 s: {threads}"
    assert not _shm_entries() - shm, f"new /dev/shm entries: {_shm_entries() - shm}"
    assert not _pmnet_dirs() - pmnet, f"new socket dirs: {_pmnet_dirs() - pmnet}"
