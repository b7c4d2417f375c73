import json

import numpy as np
import pytest

from mvsde.core import make_time_grid
from mvsde.models import get_model
from mvsde.rng import BrownianBands, SeedBlock


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


@pytest.fixture
def pcg64_brownian(monkeypatch):
    """SeedBlock.from_seed with PCG64 on both children, the Brownian one
    included, and no band generators (every block whole from one
    generator): the stream that the engine's bit pins were taken on (by
    reference code that is gone), so they keep checking that the engine's
    arithmetic has not moved."""

    def from_seed(cls, seed):
        children = np.random.SeedSequence(seed).spawn(2)
        brownian = BrownianBands(np.random.default_rng(children[0]))
        return cls(brownian, np.random.default_rng(children[1]))

    monkeypatch.setattr(SeedBlock, "from_seed", classmethod(from_seed))
