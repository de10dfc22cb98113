import os
import random
import resource
from pathlib import Path

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


@pytest.fixture
def bounded_memory():
    """Cap the address space at 1 GiB above its current size for one test, so code that
    lists a tuple space of 2^30 or more raises MemoryError instead of filling the machine."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + 2**30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
