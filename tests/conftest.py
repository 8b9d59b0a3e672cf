"""One hypothesis profile for the whole suite: the same draws on every run,
and no per-example deadline, since a single Newton solve can take longer
than the default on a slow host.  Tests set only their max_examples."""

from hypothesis import settings

settings.register_profile("monoflow", derandomize=True, deadline=None)
settings.load_profile("monoflow")
