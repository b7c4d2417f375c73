import json

import pytest

from mvsde.core import make_time_grid
from mvsde.models import get_model


@pytest.fixture(scope="session")
def example11():
    return get_model("example11")


@pytest.fixture(scope="session")
def pure_jump():
    return get_model("pure_jump")


@pytest.fixture(scope="session")
def logistic():
    return get_model("logistic_mf")


@pytest.fixture
def grid100():
    return make_time_grid(1.0, 100)


@pytest.fixture
def grid400():
    return make_time_grid(1.0, 400)


@pytest.fixture
def degenerate_file(tmp_path):
    """A 2-d affine model file whose noise reaches x0 only, so the moderate
    response Gramian G = A W^-1 A^T is diag(1, 0): singular."""
    file = tmp_path / "degenerate.json"
    file.write_text(json.dumps({
        "name": "degenerate", "dim": 2, "initial": [0, 0],
        "diffusion": {"const": [[1, 0], [0, 0]]},
    }))
    return file
