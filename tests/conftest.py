"""Shared pytest set-up: one hypothesis profile for every property test.

derandomize makes each property test draw the same examples on every
run, and deadline=None keeps slow shared hosts from failing an example
on time alone.
"""

from hypothesis import settings

settings.register_profile("hawkes-bvm", deadline=None, derandomize=True)
settings.load_profile("hawkes-bvm")
