import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Any warning fails a test under tests/. The mark goes first, so a
    test's own filterwarnings marks take precedence over it."""
    for item in items:
        if item.path.is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def peak_traced_bytes(fn) -> int:
    """The peak of the memory that tracemalloc traces while fn() runs, in
    bytes; tracing stops when fn returns or raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
