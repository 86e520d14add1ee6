"""Hypothesis settings profiles.

``ci`` derandomizes every property test, keeps no example database and
sets no time limit, so a run fails only where the code under test
changed, never on a counterexample drawn by chance or on a slow machine.
Select it with ``pytest --hypothesis-profile=ci``; without the flag,
local runs keep their random search. Recent Hypothesis versions ship a
``ci`` profile of these settings and load it on their own under GitHub
Actions; this one replaces it, and defines it on the older versions
that ``hypothesis>=6`` allows.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
