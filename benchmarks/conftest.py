"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's evaluation has a `test_*` target here
that (a) regenerates the numbers through the machine models and prints
them next to the paper's values, and (b) asserts the *shape* — who wins,
roughly by how much — rather than absolute times (see DESIGN.md).
Wall-clock micro-benchmarks of the real generated code run under
pytest-benchmark in test_wallclock.py.

Nothing here gates on a single wall-clock sample: every timing claim
is a ``BENCHMARK.json`` metric measured by ``python3 -m bench.run``
(repeated, with its dispersion, compared by the pairs rule), and the
gates in this directory assert the deterministic fact each claim rests
on — which stages ran, how many jobs compiled, how many Omega tests a
memo saved — naming the metric that carries the timing.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """The worker-pool circuit breaker and the settings overrides are
    process-global on purpose; in a benchmark session that globalness
    would leak from one gate into the next (see tests/conftest.py)."""
    from repro import settings
    from repro.driver.resilience import reset_pool_breaker
    settings.reset()
    reset_pool_breaker()
    yield
    settings.reset()
    reset_pool_breaker()


def print_table(title: str, rows) -> None:
    out = [f"\n===== {title} ====="]
    if isinstance(rows, dict):
        for k, v in rows.items():
            out.append(f"  {str(k):24s} {v}")
    else:
        out.append(str(rows))
    print("\n".join(out), file=sys.stderr)
