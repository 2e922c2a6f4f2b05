import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from numsgps.oracle import enumerate_by_genus


@pytest.fixture(scope="session")
def catalog8():
    return enumerate_by_genus(8)


@pytest.fixture(scope="session")
def catalog10():
    return enumerate_by_genus(10)


@pytest.fixture(scope="session")
def catalog12():
    return enumerate_by_genus(12)
