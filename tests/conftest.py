"""Suite-wide Hypothesis profiles, selected by ``HYPOTHESIS_PROFILE``.

Tiers:

* ``dev`` (the default) — Hypothesis' own defaults: fresh random draws
  on every run, with failures replayed from the local example database.
* ``ci`` — ``derandomize=True``: every property test draws the same
  examples on every run, so a tier-1 result depends only on the code.

Run ``HYPOTHESIS_PROFILE=ci python -m pytest`` to reproduce CI's draws.

pytest loads this file before it imports any test module, so a test's
own ``@settings(max_examples=...)`` sets only its example budget and
inherits every other setting, derandomization included, from the
profile loaded here.
"""

import os

from hypothesis import settings

settings.register_profile("dev", settings())
settings.register_profile("ci", settings(derandomize=True))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
