"""The tier-1 hypothesis profile: every run draws the same cases
(derandomize), none is timed out (deadline), and nothing is written under
the repository: there is no example database, and the cache of constants
that hypothesis reads from local modules goes to a temporary home
directory instead of ./.hypothesis; and the one tracemalloc helper of
the memory tests, traced."""

import tempfile
import tracemalloc

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def traced(fn):
    """fn() under tracemalloc: (its result, the peak bytes allocated above
    those traced on entry, the bytes still held on return)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - entry, held - entry
