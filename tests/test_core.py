import numpy as np
import pytest

from mvsde.core import (
    Control,
    LawSummary,
    ModelSpec,
    Path,
    TimeGrid,
    eval_path,
    make_time_grid,
    null_control,
    null_mdp_control,
    path_sup_distance,
    probe_drift_monotonicity,
)
from mvsde.errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidControlError,
)
from mvsde.rng import SeedBlock, derive_seed


def test_time_grid_basics():
    grid = make_time_grid(2.0, 8)
    assert grid.n_steps == 8
    assert grid.horizon == pytest.approx(2.0)
    assert grid.nodes[0] == 0.0
    np.testing.assert_allclose(grid.dt, 0.25)
    assert grid.step_of(0.0) == 0
    assert grid.step_of(0.26) == 1
    assert grid.step_of(2.0) == 7  # terminal time belongs to the last cell


def test_time_grid_rejects_bad_nodes():
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(InvalidArgumentError):
        make_time_grid(1.0, 0)


def test_time_grid_equality():
    assert make_time_grid(1.0, 4) == make_time_grid(1.0, 4)
    assert make_time_grid(1.0, 4) != make_time_grid(1.0, 5)


def test_path_shapes_and_terminal():
    grid = make_time_grid(1.0, 4)
    values = np.linspace(0.0, 1.0, 5)[:, None]
    path = Path(grid, values, kind="linear")
    assert path.dim == 1
    np.testing.assert_allclose(path.terminal, [1.0])
    with pytest.raises(InvalidArgumentError):
        Path(grid, values[:-1], kind="linear")
    with pytest.raises(InvalidArgumentError):
        Path(grid, values, kind="smooth")


def test_path_values_are_read_only():
    grid = make_time_grid(1.0, 2)
    path = Path(grid, np.zeros((3, 1)), kind="linear")
    with pytest.raises(ValueError):
        path.values[0, 0] = 1.0


def test_eval_path_linear_and_cadlag():
    grid = make_time_grid(1.0, 2)
    values = np.array([[0.0], [1.0], [3.0]])
    lin = Path(grid, values, kind="linear")
    step = Path(grid, values, kind="cadlag_step")
    np.testing.assert_allclose(eval_path(lin, 0.25), [0.5])
    np.testing.assert_allclose(eval_path(lin, 1.0), [3.0])
    # cadlag: value of the most recent node, right-continuous
    np.testing.assert_allclose(eval_path(step, 0.25), [0.0])
    np.testing.assert_allclose(eval_path(step, 0.5), [1.0])
    np.testing.assert_allclose(eval_path(step, 0.75), [1.0])


def test_path_sup_distance_wants_matching_grids():
    a = Path(make_time_grid(1.0, 2), np.zeros((3, 1)), kind="linear")
    b = Path(make_time_grid(1.0, 2), np.ones((3, 1)), kind="linear")
    c = Path(make_time_grid(1.0, 3), np.ones((4, 1)), kind="linear")
    assert path_sup_distance(a, b) == pytest.approx(1.0)
    with pytest.raises(GridMismatchError):
        path_sup_distance(a, c)


def test_control_validation():
    grid = make_time_grid(1.0, 4)
    ctl = null_control(grid, dim=2, n_mark_cells=3)
    assert not ctl.phi.any() and (ctl.psi == 1.0).all()
    assert ctl.phi.shape == (4, 2)
    assert ctl.psi.shape == (4, 3)
    with pytest.raises(InvalidControlError):
        Control(grid, np.zeros((3, 2)), np.ones((4, 3)), psi_bounds=(1.0, 1.0))
    with pytest.raises(InvalidControlError):
        Control(grid, np.zeros((4, 2)), np.ones((4, 3)), psi_bounds=(0.0, 1.0))
    with pytest.raises(InvalidControlError):
        Control(grid, np.zeros((4, 2)), 2 * np.ones((4, 3)), psi_bounds=(1.0, 1.5))


def test_null_mdp_control_is_zero():
    grid = make_time_grid(1.0, 4)
    ctl = null_mdp_control(grid, dim=1, n_mark_cells=2)
    assert not ctl.phi.any()
    assert not ctl.tilt.any()


def test_law_summary_dirac_and_empirical():
    dirac = LawSummary.dirac(np.array([1.0, 2.0]))
    np.testing.assert_allclose(dirac.mean, [1.0, 2.0])
    cloud = LawSummary.empirical(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(cloud.mean, [1.0])
    assert cloud.cloud.shape == (2, 1)
    batch = LawSummary.dirac(np.array([[1.0], [3.0]]))  # one point per particle
    assert batch.mean.shape == (2, 1)


def test_model_spec_jump_requires_intensity(example11):
    assert not example11.has_jumps
    assert example11.n_mark_cells == 0
    with pytest.raises(InvalidArgumentError):
        ModelSpec(
            name="broken",
            dim=1,
            initial=np.array([0.0]),
            drift=example11.drift,
            diffusion=example11.diffusion,
            jump=lambda t, x, law, z: np.ones_like(x),
            intensity=None,
        )


def test_probe_drift_monotonicity_flags_bad_constant(example11):
    import dataclasses

    from mvsde.core import ModelConstants

    from mvsde.models import get_model

    ok = probe_drift_monotonicity(example11, seed=0)
    assert ok.ok
    # the drift b(x) = x has one-sided constant 1; claiming 0 must fail
    bad_spec = dataclasses.replace(
        get_model("linear_gaussian"), constants=ModelConstants(lipschitz=0.0)
    )
    bad = probe_drift_monotonicity(bad_spec, seed=0)
    assert not bad.ok
    assert bad.worst_excess > 0
    assert len(bad.violations) <= 10


def test_seed_block_split_is_stable():
    a = SeedBlock.from_seed(123)
    b = SeedBlock.from_seed(123)
    assert a.brownian.standard_normal(5) == pytest.approx(
        b.brownian.standard_normal(5)
    )
    assert a.jumps.integers(0, 1 << 30) == b.jumps.integers(0, 1 << 30)
    # brownian and jump streams must be distinct
    c = SeedBlock.from_seed(123)
    assert not np.allclose(
        c.brownian.standard_normal(5), SeedBlock.from_seed(123).jumps.standard_normal(5)
    )


def test_derive_seed_is_deterministic_and_label_sensitive():
    assert derive_seed(7, "check_ldp") == derive_seed(7, "check_ldp")
    assert derive_seed(7, "check_ldp") != derive_seed(7, "check_mdp")
    assert derive_seed(8, "check_ldp") != derive_seed(7, "check_ldp")
