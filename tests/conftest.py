import pytest

import coopsim as cs
from configs import CONFIG_DIR


@pytest.fixture(scope="session")
def toy_single():
    return cs.load_config(CONFIG_DIR / "toy_single.json")


@pytest.fixture(scope="session")
def toy_goodbad():
    return cs.load_config(CONFIG_DIR / "toy_goodbad.json")


@pytest.fixture(scope="session")
def desk():
    return cs.load_config(CONFIG_DIR / "desk.json")
