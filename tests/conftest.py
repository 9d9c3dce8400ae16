"""Test-wide settings: the hypothesis tests draw the same examples on every
run, so a tier-1 result does not depend on the run it came from."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
