import random
import sys

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(0xD1CE)


@pytest.fixture
def no_tables(monkeypatch):
    """Make building any reduced map table fail the test, under every
    name that binds it in any padicdyn module."""
    from padicdyn.dynamics import reduced_map_table

    def refuse(*args, **kwargs):
        raise AssertionError("a reduced map table was built")

    for name, module in list(sys.modules.items()):
        if name == "padicdyn" or name.startswith("padicdyn."):
            for attr, obj in list(vars(module).items()):
                if obj is reduced_map_table:
                    monkeypatch.setattr(module, attr, refuse)
