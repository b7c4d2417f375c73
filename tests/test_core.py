import numpy as np
import pytest

from mvsde.core import (
    Control,
    LawSummary,
    MdpControl,
    ModelSpec,
    Path,
    TimeGrid,
    _as_rows,
    make_time_grid,
    null_control,
    null_mdp_control,
)
from mvsde.dynamics import Lane, simulate_lanes, simulate_mdp_controlled
from mvsde.errors import (
    GridMismatchError, InvalidArgumentError, InvalidControlError, UnsupportedError,
)
from mvsde.models import get_model
from mvsde.rng import SeedBlock, derive_seed
from mvsde.skeleton import solve_ldp_skeleton, solve_mdp_skeleton


def test_time_grid_basics():
    grid = make_time_grid(2.0, 8)
    assert grid.n_steps == 8
    assert grid.horizon == pytest.approx(2.0)
    assert grid.nodes[0] == 0.0
    np.testing.assert_allclose(grid.dt, 0.25)


def test_coefficient_rows_broadcast_one_row_and_reject_wrong_shapes():
    x = np.linspace(0.0, 1.0, 5)[:, None]
    law = LawSummary.empirical(x)
    full = get_model("linear_gaussian").drift_rows(0.0, x, law)
    assert full.shape == x.shape and not full.flags.writeable
    row = get_model("pure_jump").drift_rows(0.0, x, law)
    assert row.shape == x.shape and row.strides[0] == 0
    wrong = ModelSpec(
        name="wrong_rows",
        dim=1,
        initial=np.zeros(1),
        drift=lambda t, x, law: np.zeros((x.shape[0] + 1, 1)),
        diffusion=lambda t, x, law: np.eye(1),
    )
    with pytest.raises(ValueError):
        wrong.drift_rows(0.0, x, law)


def test_one_row_is_a_read_only_stride_0_view():
    x = np.zeros((5, 2))
    base = np.arange(6.0)
    for value, strides in ((base[2:4], (0, 8)), (base[::3], (0, 24))):
        # a contiguous row (here at an offset) is viewed directly; a
        # non-contiguous one takes the np.broadcast_to fallback
        rows = _as_rows(value, x, 2)
        assert rows.strides == strides and not rows.flags.writeable
        np.testing.assert_array_equal(rows, np.broadcast_to(value, x.shape))
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


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
    path = Path(grid, values)
    assert path.dim == 1
    np.testing.assert_allclose(path.terminal, [1.0])
    with pytest.raises(InvalidArgumentError):
        Path(grid, values[:-1])


def test_path_values_are_read_only():
    grid = make_time_grid(1.0, 2)
    path = Path(grid, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        path.values[0, 0] = 1.0


def test_control_validation():
    grid = make_time_grid(1.0, 4)
    ctl = null_control(grid, dim=2, n_mark_cells=3)
    assert not ctl.phi.any() and (ctl.psi == 1.0).all()
    assert ctl.phi.shape == (4, 2)
    assert ctl.psi.shape == (4, 3)
    with pytest.raises(InvalidControlError):
        Control(grid, np.zeros((3, 2)), np.ones((4, 3)))
    with pytest.raises(InvalidControlError):
        Control(grid, np.zeros((4, 2)), np.zeros((4, 3)))
    # the thinning bound is max(1, max psi), read off the table
    assert ctl.psi_bar == 1.0
    assert Control(grid, np.zeros((4, 2)), np.full((4, 3), 0.5)).psi_bar == 1.0
    assert Control(grid, np.zeros((4, 2)), np.full((4, 3), 2.0)).psi_bar == 2.0


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
    assert dirac.cloud.shape == (1, 2)  # one atom
    batch = LawSummary.dirac(np.array([[1.0], [3.0]]))  # one point per particle
    assert batch.mean.shape == (2, 1)
    with pytest.raises(UnsupportedError, match="law.mean"):
        batch.cloud


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


def _ldp_control(grid, d, c):
    return Control(grid, np.zeros((grid.n_steps, d)), np.ones((grid.n_steps, c)))


def _mdp_control(grid, d, c):
    return MdpControl(grid, np.zeros((grid.n_steps, d)), np.zeros((grid.n_steps, c)))


CONTROLLED = {
    "simulate_lanes": (
        _ldp_control,
        lambda spec, grid, ctl: simulate_lanes(spec, grid, [Lane(0.1, ctl)], 4, 0),
    ),
    "simulate_mdp_controlled": (
        _mdp_control,
        lambda spec, grid, ctl: simulate_mdp_controlled(spec, grid, 0.01, 0.3, ctl, 4, 0),
    ),
    "solve_ldp_skeleton": (_ldp_control, solve_ldp_skeleton),
    "solve_mdp_skeleton": (_mdp_control, solve_mdp_skeleton),
}


@pytest.mark.parametrize("entry", sorted(CONTROLLED))
def test_controls_must_fit_the_model(entry, example11, logistic):
    # one rule everywhere: one phi column per state dimension, one psi or
    # tilt column per mark cell (none without jumps), the run's own grid
    make, run = CONTROLLED[entry]
    grid = make_time_grid(1.0, 10)
    for spec, d, c in ((example11, 2, 0), (example11, 1, 1), (logistic, 1, 0), (logistic, 1, 2)):
        with pytest.raises(InvalidControlError):
            run(spec, grid, make(grid, d, c))
    with pytest.raises(GridMismatchError):
        run(logistic, grid, make(make_time_grid(1.0, 12), 1, 1))

