import json

import numpy as np
import pytest

from mvsde.core import Control, MdpControl, Path, make_time_grid
from mvsde.dynamics import simulate_mvsde
from mvsde.errors import InvalidArgumentError
from mvsde.io import (
    ensemble_summary,
    load_control,
    load_path_csv,
    make_manifest,
    save_control,
    save_path_csv,
    save_report,
)
from mvsde.skeleton import solve_limit_ode


def test_path_csv_roundtrip_is_exact(tmp_path, example11):
    path = solve_limit_ode(example11, make_time_grid(1.0, 37))
    f = tmp_path / "p.csv"
    save_path_csv(f, path)
    back = load_path_csv(f)
    np.testing.assert_array_equal(back.values, path.values)  # repr round trip
    np.testing.assert_array_equal(back.grid.nodes, path.grid.nodes)


def test_path_csv_rejects_garbage(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidArgumentError):
        load_path_csv(f)
    f.write_text("t,x0\n0.0,1.0\n")  # single row is not a path
    with pytest.raises(InvalidArgumentError):
        load_path_csv(f)
    for body in ("t,x0\n0.0,1.0\n1.0,abc\n", "t,x0\n0.0,1.0\n1.0,2.0,3.0\n"):
        f.write_text(body)  # a non-numeric cell, a ragged row
        with pytest.raises(InvalidArgumentError):
            load_path_csv(f)


@pytest.mark.parametrize(
    "raw",
    [
        [1.0, 2.0],
        "control",
        {"nodes": [0.0, 0.5, 1.0], "phi": [["a"], [0.0]], "psi": [[], []]},
        {"nodes": [0.0, "x", 1.0], "phi": [[0.0], [0.0]], "psi": [[], []]},
        {"nodes": [0.0, 0.5, 1.0], "phi": [[0.0], [0.0, 1.0]], "psi": [[], []]},
        {"nodes": [0.0, 0.5, 1.0], "phi": 0.0, "psi": [[], []]},
        {"nodes": [0.0, 0.5, 1.0], "phi": [[0.0], [0.0]], "psi": [[], []],
         "psi_bounds": [1.0, 2.0, 3.0]},
        {"kind": "mdp", "nodes": [0.0, 0.5, 1.0], "phi": [[0.0], [0.0]], "tilt": {}},
    ],
)
def test_control_file_rejects_garbage(tmp_path, raw):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(InvalidArgumentError):
        load_control(f)


def test_control_roundtrip_both_kinds(tmp_path):
    grid = make_time_grid(1.0, 12)
    rng = np.random.default_rng(0)
    ldp = Control(
        grid,
        rng.standard_normal((12, 2)),
        rng.uniform(0.5, 1.5, (12, 3)),
        psi_bounds=(0.5, 1.5),
    )
    f = tmp_path / "c.json"
    save_control(f, ldp)
    back = load_control(f)
    assert isinstance(back, Control)
    np.testing.assert_array_equal(back.phi, ldp.phi)
    np.testing.assert_array_equal(back.psi, ldp.psi)
    assert back.psi_bounds == ldp.psi_bounds

    mdp = MdpControl(grid, rng.standard_normal((12, 2)), rng.standard_normal((12, 3)))
    save_control(f, mdp)
    back2 = load_control(f)
    assert isinstance(back2, MdpControl)
    np.testing.assert_array_equal(back2.tilt, mdp.tilt)


def test_manifest_is_stable_and_tagged():
    m1 = make_manifest("rate", model="example11", steps=10)
    m2 = make_manifest("rate", model="example11", steps=10)
    assert m1 == m2  # no timestamps or other run-dependent fields
    assert m1["tool"] == "mvsde" and m1["command"] == "rate"
    assert m1["model"] == "example11"


def test_save_report_serializes_numpy(tmp_path):
    f = tmp_path / "r.json"
    save_report(f, {"x": np.float64(1.5), "v": np.arange(3), "ok": np.bool_(True)})
    raw = json.loads(f.read_text())
    assert raw == {"x": 1.5, "v": [0, 1, 2], "ok": True}


def test_ensemble_summary_fields(example11):
    grid = make_time_grid(1.0, 30)
    ref = solve_limit_ode(example11, grid)
    ens = simulate_mvsde(example11, grid, 0.05, 50, seed=1, reference=ref)
    s = ensemble_summary(ens)
    for key in ("kind", "eps", "n_particles", "terminal_mean", "terminal_std"):
        assert key in s
    assert s["n_particles"] == 50
    assert s["mean_sup_sq_to_reference"] is not None
    json.dumps(s)  # plain JSON types only
