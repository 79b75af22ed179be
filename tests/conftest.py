"""Hypothesis profiles.  The default profile is Hypothesis's own; run
``pytest --hypothesis-profile thorough`` for 2,000 examples per property
test, with no deadline."""

from hypothesis import settings

settings.register_profile("thorough", max_examples=2000, deadline=None)
