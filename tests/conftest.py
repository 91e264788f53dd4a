import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from specs import make_spec3, make_spec118
from windsed.grid_model import load_case

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="session")
def case3():
    return load_case(DATA / "case3.txt")


@pytest.fixture(scope="session")
def case118():
    return load_case(DATA / "case118.txt")


@pytest.fixture(scope="session")
def spec3(case3):
    return make_spec3(case3)


@pytest.fixture(scope="session")
def spec118(case118):
    return make_spec118(case118)
