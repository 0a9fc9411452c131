"""Test-wide settings: property tests draw the same cases on every run."""

from hypothesis import settings

# derandomize and no example database: every run draws the same examples, so a
# failure reproduces; no deadline: example times swing with the host's speed
settings.register_profile("modend", derandomize=True, database=None, deadline=None)
settings.load_profile("modend")
