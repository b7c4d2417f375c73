import json

import numpy as np
import pytest

from mvsde.core import make_time_grid
from mvsde.errors import InvalidArgumentError
from mvsde.models import get_model, list_models, load_model_file
from mvsde.skeleton import solve_limit_ode


def test_registry_contents():
    names = list_models()
    assert {"example11", "linear_gaussian", "pure_jump", "logistic_mf"} <= set(names)
    assert names == sorted(names)


def test_unknown_name_lists_options():
    with pytest.raises(InvalidArgumentError) as err:
        get_model("nope")
    assert "example11" in str(err.value)


def test_example11_limit_is_exponential(example11):
    path = solve_limit_ode(example11, make_time_grid(1.0, 200))
    np.testing.assert_allclose(path.terminal, [np.e], atol=1e-10)


def test_logistic_structure(logistic):
    assert logistic.has_jumps
    assert logistic.n_mark_cells == 1


def test_pure_jump_shapes(pure_jump):
    t = 0.0
    x = np.zeros((4, 1))
    g = pure_jump.jump_rows(t, x, None, np.array([1.0]))
    np.testing.assert_allclose(g, np.ones((4, 1)))
    np.testing.assert_allclose(pure_jump.drift_rows(t, x, None), np.zeros((4, 1)))


def test_json_model_roundtrip(tmp_path):
    raw = {
        "name": "affine_demo",
        "dim": 2,
        "initial": [1.0, 0.0],
        "drift": {
            "const": [0.1, 0.0],
            "linear_x": [[0.0, 1.0], [0.0, 0.0]],
            "linear_mean": [[0.5, 0.0], [0.0, 0.5]],
        },
        "diffusion": {"const": [[0.3, 0.0], [0.0, 0.3]]},
        "jump": {"mark_matrix": [[1.0], [0.0]]},
        "intensity": {"atoms": [[0.5], [-0.5]], "masses": [1.0, 2.0]},
        "constants": {"lipschitz": 2.0},
    }
    f = tmp_path / "affine.json"
    f.write_text(json.dumps(raw))
    spec = load_model_file(f)
    assert spec.name == "affine_demo"
    assert spec.dim == 2 and spec.n_mark_cells == 2
    # drift evaluates the declared affine form
    from mvsde.core import LawSummary

    x = np.array([[1.0, 2.0]])
    law = LawSummary.dirac(np.array([1.0, 2.0]))
    np.testing.assert_allclose(
        spec.drift(0.0, x, law), [[0.1 + 2.0 + 0.5, 0.0 + 0.0 + 1.0]]
    )
    # the file path is accepted by the registry front door too
    same = get_model(str(f))
    assert same.name == "affine_demo"
    # and the model integrates without blowing up
    solve_limit_ode(spec, make_time_grid(0.5, 50))


def test_json_model_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "dim": 1}))
    with pytest.raises(InvalidArgumentError):
        load_model_file(bad)
    bad.write_text("{not json")
    with pytest.raises(InvalidArgumentError):
        load_model_file(bad)
    with pytest.raises(InvalidArgumentError):
        load_model_file(tmp_path / "missing.json")
    for raw in ([1], {"name": "x", "dim": "one", "initial": [0.0]},
                {"name": "x", "dim": 1.5, "initial": [0.0]},
                {"name": "x", "dim": [1], "initial": [0.0]},
                {"name": "x", "dim": True, "initial": [0.0]}):
        bad.write_text(json.dumps(raw))
        with pytest.raises(InvalidArgumentError):
            load_model_file(bad)
    # non-numeric entries and blocks that are not objects
    base = {"name": "x", "dim": 1, "initial": [0.0]}
    jumps = {"jump": {"mark_matrix": [[1.0]]}, "intensity": {"atoms": [[1.0]], "masses": [1.0]}}
    for extra in ({"initial": ["a"]}, {"initial": [[0.0], [1.0, 2.0]]},
                  {"drift": {"const": ["b"]}}, {"drift": [1]}, {"diffusion": "s"},
                  {**jumps, "intensity": {"atoms": [["x"]], "masses": [1.0]}},
                  {**jumps, "intensity": {"atoms": [[1.0]], "masses": ["m"]}},
                  {**jumps, "intensity": [1.0]}, {**jumps, "jump": [[1.0]]}):
        bad.write_text(json.dumps({**base, **extra}))
        with pytest.raises(InvalidArgumentError):
            load_model_file(bad)
    bad.write_text(json.dumps({**base, **jumps}))
    assert load_model_file(bad).n_mark_cells == 1
    lop = tmp_path / "lop.json"
    lop.write_text(
        json.dumps({"name": "x", "dim": 1, "initial": [0.0], "jump": {"mark_matrix": [[1.0]]}})
    )
    with pytest.raises(InvalidArgumentError):
        load_model_file(lop)
