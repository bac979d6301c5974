"""Shared test fixtures.

The worker-pool circuit breaker (:mod:`repro.driver.resilience`) is
process-global on purpose — a pool that keeps dying under one client
should stop every client from hammering it.  In the test suite that
globalness would leak: a fault-tolerance test that records three
consecutive failures trips the breaker open, and every later test's
offloads would silently degrade to inline execution.  Reset it around
every test so each starts with a closed, pristine breaker built from
the (also per-test) environment.

The explicit overrides of :mod:`repro.settings` are process-global for
the same reason; one reset around every test replaces a hand-written
epilogue after each ``settings.set`` / ``configure_disk_cache``.
"""

import pytest


@pytest.fixture(autouse=True)
def _fresh_process_state():
    from repro import settings
    from repro.driver.resilience import reset_pool_breaker
    settings.reset()
    reset_pool_breaker()
    yield
    settings.reset()
    reset_pool_breaker()
