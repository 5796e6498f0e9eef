"""Test-suite settings.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and writes nothing under ``.hypothesis/``.
The deadline is off because host load, not the code, decides how long
one example takes.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
