"""Shared test settings: every Hypothesis property runs derandomized, with
no deadline and no example database, so a run repeats exactly; each test
module sets only its own example count."""

from hypothesis import settings

settings.register_profile("diffeokit", deadline=None, derandomize=True, database=None)
settings.load_profile("diffeokit")
