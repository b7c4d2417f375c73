import hashlib

import numpy as np
import pytest

import mvsde.dynamics as dynamics
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
from mvsde.rng import _BANDED_MIN, _BANDS, SeedBlock, derive_seed
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


def _normals(brownian, band, n):
    return brownian.standard_normal(out=np.empty(n), band=band)


BROWNIAN_BANDS = [None, *range(_BANDS)]  # None: the one-generator stream


def test_seed_block_split_is_stable():
    a = SeedBlock.from_seed(123)
    b = SeedBlock.from_seed(123)
    for band in BROWNIAN_BANDS:
        assert _normals(a.brownian, band, 5).tobytes() == _normals(b.brownian, band, 5).tobytes()
    assert a.jumps.integers(0, 1 << 30) == b.jumps.integers(0, 1 << 30)
    # the brownian generators and the jump stream must be distinct
    c = SeedBlock.from_seed(123)
    draws = [_normals(c.brownian, band, 5) for band in BROWNIAN_BANDS]
    draws.append(SeedBlock.from_seed(123).jumps.standard_normal(5))
    for i, u in enumerate(draws):
        for v in draws[i + 1:]:
            assert not np.allclose(u, v)


def test_seed_block_draws_brownian_from_sfc64_and_jumps_from_pcg64():
    # unbanded blocks come from SFC64 on the SeedSequence's first child, band
    # i of a banded block from SFC64 on the i-th child that it spawns
    for seed in (0, 123):
        children = np.random.SeedSequence(seed).spawn(2)
        bands = children[0].spawn(_BANDS)
        block = SeedBlock.from_seed(seed)
        np.testing.assert_array_equal(
            _normals(block.brownian, None, 1000),
            np.random.Generator(np.random.SFC64(children[0])).standard_normal(1000),
        )
        for i in range(_BANDS):
            np.testing.assert_array_equal(
                _normals(block.brownian, i, 1000),
                np.random.Generator(np.random.SFC64(bands[i])).standard_normal(1000),
            )
        np.testing.assert_array_equal(
            block.jumps.random(1000),
            np.random.Generator(np.random.PCG64(children[1])).random(1000),
        )


def test_blocks_are_banded_from_banded_min():
    brownian = SeedBlock.from_seed(0).brownian
    assert brownian.bands(_BANDED_MIN - 1, 1) == [(None, slice(0, _BANDED_MIN - 1))]
    assert brownian.bands(_BANDED_MIN // 2 - 1, 2) == [(None, slice(0, _BANDED_MIN // 2 - 1))]
    n = _BANDED_MIN // 2
    assert brownian.bands(n, 2) == [
        (i, slice(n * i // _BANDS, n * (i + 1) // _BANDS)) for i in range(_BANDS)
    ]


def _terminal_sha256(rungs):
    h = hashlib.sha256()
    for r in rungs:
        h.update(r.terminal.tobytes())
    return h.hexdigest()


def test_gaussian_ladder_keeps_its_bits(example11):
    # pins the production stream: SFC64 normals under the Euler engine; at
    # 2,000 particles each block comes whole from one generator
    lanes = [Lane(eps) for eps in (0.2, 0.1, 0.05)]
    rungs = simulate_lanes(example11, make_time_grid(1.0, 50), lanes, 2000, seed=11)
    assert _terminal_sha256(rungs) == (
        "ea8827cc1c7f00d382c2dd302e1a268f3a6d6bb81b42c8bb63b439887f6e4bcd"
    )


def test_banded_gaussian_ladder_keeps_its_bits(example11):
    # the same ladder at _BANDED_MIN particles: each block in _BANDS row
    # bands, read ahead and shared by the two threads
    lanes = [Lane(eps) for eps in (0.2, 0.1, 0.05)]
    grid = make_time_grid(1.0, 50)
    rungs = simulate_lanes(example11, grid, lanes, _BANDED_MIN, seed=11)
    assert _terminal_sha256(rungs) == (
        "10aba23d4cd4be404796160dd4192ef47e7a784dc1106fc106bddbf123e2ae85"
    )


@pytest.mark.parametrize("model", ["example11", "logistic_mf"])
def test_read_ahead_draws_the_inline_bytes(model, monkeypatch):
    # at 10,000 particles the blocks are read ahead by a worker thread; with
    # the threshold above the block size they are drawn inline at each step
    n_particles = 10_000
    assert n_particles >= dynamics._READ_AHEAD_MIN
    spec, grid = get_model(model), make_time_grid(1.0, 40)
    lanes = [Lane(0.2), Lane(0.05)]
    ahead = simulate_lanes(spec, grid, lanes, n_particles, seed=5)
    monkeypatch.setattr(dynamics, "_READ_AHEAD_MIN", n_particles * spec.dim + 1)
    inline = simulate_lanes(spec, grid, lanes, n_particles, seed=5)
    assert _terminal_sha256(ahead) == _terminal_sha256(inline)


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

