"""Settings shared by the whole suite."""

from hypothesis import settings

# one profile for every property test: a fixed example sequence and no
# example database, so the suite stays deterministic and writes nothing
# into the working directory; each test sets only its own max_examples
settings.register_profile("hmdn", derandomize=True, database=None, deadline=None)
settings.load_profile("hmdn")
