import pytest

from nfr4.dsl import parse
from nfr4.fixtures import ATM_PATH, LIBRARY_PATH
from nfr4.model import Model


def parse_fixture(path):
    model = parse(path.read_bytes())
    assert isinstance(model, Model), model
    return model


@pytest.fixture(scope="session")
def library_model():
    return parse_fixture(LIBRARY_PATH)


@pytest.fixture(scope="session")
def atm_model():
    return parse_fixture(ATM_PATH)


@pytest.fixture(scope="session")
def library_text():
    return LIBRARY_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def atm_text():
    return ATM_PATH.read_text(encoding="utf-8")
