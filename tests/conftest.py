import random

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(0xD1CE)


@pytest.fixture
def no_tables(monkeypatch):
    """Make building any reduced map table fail the test."""
    from padicdyn import dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("a reduced map table was built")

    monkeypatch.setattr(dynamics, "reduced_map_table", refuse)
