"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(call):
    """call's result and the traced peak of the memory it allocates."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
