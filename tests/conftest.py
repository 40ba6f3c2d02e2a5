import tracemalloc

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def peak_traced_bytes(fn) -> int:
    """The peak of the memory that tracemalloc traces while fn() runs, in
    bytes; tracing stops when fn returns or raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
