"""Session fixtures shared by the test modules."""

import time
from dataclasses import dataclass

import pytest

from support import rejection_study_cocycles


@dataclass(frozen=True)
class RejectionStudy:
    """The solvable tries of the criterion-4 rejection study, in order, and
    the seconds it took to sample them."""

    cocycles: tuple
    sample_s: float


@pytest.fixture(scope="session")
def rejection_study() -> RejectionStudy:
    start = time.monotonic()
    cocycles = tuple(rejection_study_cocycles())
    return RejectionStudy(cocycles, time.monotonic() - start)
