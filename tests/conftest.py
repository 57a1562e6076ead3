"""The tier-1 hypothesis profile: every run draws the same cases
(derandomize), none is timed out (deadline), and nothing is written under
the repository: there is no example database, and the cache of constants
that hypothesis reads from local modules goes to a temporary home
directory instead of ./.hypothesis."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
