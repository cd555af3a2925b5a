import pytest

from qpalg.qperm import magic_presentation, semi_magic_presentation
from qpalg.rewrite import complete


@pytest.fixture(scope="session")
def magic():
    return {n: magic_presentation(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def completed_magic(magic):
    return {n: complete(magic[n].system, 8) for n in range(1, 5)}


@pytest.fixture(scope="session")
def semi_magic():
    return {n: semi_magic_presentation(n) for n in range(1, 6)}
