"""Shared test settings.

Every Hypothesis test runs derandomized and without an example database,
so each run draws the same examples on every checkout and a failure seen
once repeats.
"""

from hypothesis import settings

settings.register_profile("patmod", derandomize=True, database=None, deadline=None)
settings.load_profile("patmod")
