"""Hypothesis profiles, and the import path of the tests' child processes.

The default Hypothesis profile is Hypothesis's own; run
``pytest --hypothesis-profile thorough`` for 2,000 examples per property
test, with no deadline.

``pyproject.toml`` puts ``src`` on the tests' import path, so a bare
``pytest`` in a checkout finds the package without installing it; the
tests that run ``python -m sikorski.cli`` as a child process get the same
path through ``PYTHONPATH``."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("thorough", max_examples=2000, deadline=None)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, paths)])
