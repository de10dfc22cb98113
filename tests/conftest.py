import os
import random

import pytest
from hypothesis import settings

from shardlab import DEFAULT_MODULUS, PrimeField

# CI runs replay a fixed set of examples, so a red run reproduces locally with CI=1;
# the example counts stay those of the default profile.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def gf7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def gf97():
    return PrimeField(97)


@pytest.fixture(scope="session")
def field():
    return PrimeField(DEFAULT_MODULUS)


@pytest.fixture
def rng():
    return random.Random(0xC0DE)
