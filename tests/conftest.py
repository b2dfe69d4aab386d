"""Shared test setup."""

import tempfile

from hypothesis import configuration


def pytest_configure(config):
    """Keep Hypothesis' on-disk cache of the source's constants, which it
    writes even with no example database, in a temporary directory removed
    after the run, not in a `.hypothesis/` directory of the working tree."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)
