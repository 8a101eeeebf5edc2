import random

import pytest

from trelliskit.fixtures import CARRIERS


@pytest.fixture
def pentagon():
    return CARRIERS["pentagon"]()


@pytest.fixture
def hourglass():
    return CARRIERS["hourglass7"]()


@pytest.fixture
def rng():
    return random.Random(99)
