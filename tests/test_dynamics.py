import dataclasses
import hashlib
import io
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.core import (
    Control,
    LawSummary,
    MdpControl,
    ModelSpec,
    make_time_grid,
    null_control,
    null_mdp_control,
)
from mvsde.dynamics import (
    Lane,
    simulate_controlled_frozen,
    simulate_controlled_selfconsistent,
    simulate_lanes,
    simulate_mdp_controlled,
    simulate_mvsde,
)
from mvsde.dynamics import _euler_limit_path
from mvsde.errors import DivergenceError, InvalidArgumentError, UnsupportedError
from mvsde.levy import IntensityMeasure
from mvsde.models import get_model, load_model_file
from mvsde.rate import EventSpec, OptimizerConfig, _mdp_response, ldp_rate, mdp_rate
from mvsde.rng import _BANDED_MIN, _BANDS, BrownianBands, SeedBlock
from mvsde.skeleton import _DIVERGENCE_LIMIT, _guard, solve_ldp_skeleton, solve_limit_ode

# forward Euler applied to x' = x from 1.0 on 400 equal cells
EULER_400 = 2.7148917443812293


def test_vanishing_noise_recovers_euler_recursion(example11):
    grid = make_time_grid(1.0, 400)
    ens = simulate_mvsde(example11, grid, eps=1e-12, n_particles=50, seed=0)
    assert abs(ens.mean_path()[-1, 0] - EULER_400) < 1e-4


def test_null_control_lanes_are_bit_identical(example11):
    grid = make_time_grid(1.0, 100)
    ctl = null_control(grid, 1, 0)
    plain = simulate_mvsde(example11, grid, 0.05, 64, seed=9)
    # self-consistent lane under the null control is literally the plain system
    selfc = simulate_controlled_selfconsistent(example11, grid, 0.05, ctl, 64, seed=9)
    np.testing.assert_array_equal(plain.paths, selfc.paths)
    # frozen lane fed a replay of the plain run's empirical flow reproduces it
    # exactly, and so does the frozen lane on its lockstep companion
    replay = simulate_controlled_frozen(
        example11, grid, 0.05, ctl, lambda k: LawSummary.empirical(plain.paths[k]), 64, seed=9
    )
    np.testing.assert_array_equal(plain.paths, replay.paths)
    frozen = simulate_controlled_frozen(example11, grid, 0.05, ctl, "companion", 64, seed=9)
    np.testing.assert_array_equal(plain.paths, frozen.paths)
    # fed the deterministic limit instead, it is close but NOT the same system
    frozen_limit = simulate_controlled_frozen(
        example11, grid, 0.05, ctl, solve_limit_ode(example11, grid), 64, seed=9
    )
    gap = np.max(np.abs(plain.paths - frozen_limit.paths))
    assert 0 < gap < 0.05


def test_null_control_coupling_with_jumps(logistic):
    grid = make_time_grid(1.0, 80)
    ctl = null_control(grid, 1, 1)
    plain = simulate_mvsde(logistic, grid, 0.02, 32, seed=4)
    selfc = simulate_controlled_selfconsistent(logistic, grid, 0.02, ctl, 32, seed=4)
    np.testing.assert_array_equal(plain.paths, selfc.paths)


def test_pure_jump_terminal_is_count_minus_compensator(pure_jump):
    # b = 0, sigma = 0, G = 1, nu({1}) = 1: X_T = eps * N_T - T exactly
    grid = make_time_grid(1.0, 50)
    eps = 0.05
    ens = simulate_mvsde(pure_jump, grid, eps, 200, seed=2)
    increments = np.diff(ens.paths[:, :, 0], axis=0)
    # all path increments are multiples of eps shifted by the compensator drift
    dt = grid.dt[:, None]
    counts = (increments + dt) / eps
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
    mean_terminal = ens.terminal[:, 0].mean()
    assert abs(mean_terminal) < 4 * np.sqrt(eps / 200)  # centered by design


def test_jump_memory_does_not_grow_with_steps(pure_jump):
    # jumps are sampled one step at a time, so peak memory is O(N * C) plus
    # one step's jumps, not O(N * n_steps)
    def peak(n_steps):
        grid = make_time_grid(1.0, n_steps)
        tracemalloc.start()
        try:
            simulate_mvsde(pure_jump, grid, 0.05, 20_000, seed=0, record="summary")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.5 * peak(100)


def test_summary_record_matches_full(example11):
    grid = make_time_grid(1.0, 60)
    ref = solve_limit_ode(example11, grid)
    full = simulate_mvsde(example11, grid, 0.1, 40, seed=5, reference=ref)
    light = simulate_mvsde(
        example11, grid, 0.1, 40, seed=5, record="summary", reference=ref
    )
    assert light.paths is None
    np.testing.assert_array_equal(full.terminal, light.terminal)
    np.testing.assert_allclose(full.sup_sq, light.sup_sq, rtol=1e-12)


def test_eps_validation_and_warning(example11):
    grid = make_time_grid(1.0, 10)
    with pytest.raises(InvalidArgumentError):
        simulate_mvsde(example11, grid, 0.0, 8, seed=0)
    with pytest.raises(InvalidArgumentError):
        simulate_mvsde(example11, grid, -1.0, 8, seed=0)
    noisy = simulate_mvsde(example11, grid, 0.9, 8, seed=0)
    assert any("eps" in w for w in noisy.meta["warnings"])


def test_divergence_error_carries_step():
    blowup = ModelSpec(
        name="blowup",
        dim=1,
        initial=np.array([3.0]),
        drift=lambda t, x, law: x**3,
        diffusion=lambda t, x, law: np.eye(1),
    )
    grid = make_time_grid(1.0, 400)
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(blowup, grid, 1e-6, 4, seed=0)
    assert 0 <= err.value.step < 400


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.paths, b.paths)
    assert a.meta["n_jumps"] == b.meta["n_jumps"]
    assert a.meta["n_proposed"] == b.meta["n_proposed"]


def test_lockstep_lanes_equal_their_solo_runs(example11, logistic):
    # [plain, frozen on the companion, self-consistent] in one call: each lane
    # equals its solo run bit for bit (the frozen one against a replay of the
    # recorded plain run), on example11 and on logistic_mf with jumps at hi = 1
    grid = make_time_grid(1.0, 60)
    for spec, ctl in (
        (example11, Control(grid, np.ones((60, 1)), np.ones((60, 0)))),
        (
            logistic,
            Control(grid, np.full((60, 1), 0.3), np.full((60, 1), 0.6)),
        ),
    ):
        lanes = [
            Lane(0.02, record="full"),
            Lane(0.02, ctl, 0, record="full"),
            Lane(0.02, ctl, "self", record="full"),
        ]
        plain, frozen, selfc = simulate_lanes(spec, grid, lanes, 48, seed=6)
        solo = simulate_mvsde(spec, grid, 0.02, 48, seed=6)
        replay = simulate_controlled_frozen(
            spec, grid, 0.02, ctl, lambda k: LawSummary.empirical(solo.paths[k]), 48, seed=6
        )
        _assert_same_run(plain, solo)
        _assert_same_run(frozen, replay)
        _assert_same_run(selfc, simulate_controlled_selfconsistent(spec, grid, 0.02, ctl, 48, seed=6))
        assert not np.array_equal(frozen.paths, selfc.paths)
    assert plain.meta["n_jumps"] > frozen.meta["n_jumps"] > 0


def test_lockstep_thinning_is_monotone_in_psi(pure_jump):
    # b = 0, sigma = 0, G = 1: X_T = eps * N_T - T in every lane. The psi = 2
    # lane thins the same proposals as the plain lane at the shared hi = 2, so
    # it keeps every jump the plain lane keeps
    grid = make_time_grid(1.0, 50)
    ctl = Control(grid, np.zeros((50, 1)), np.full((50, 1), 2.0))
    plain, tilted = simulate_lanes(
        pure_jump, grid, [Lane(0.05), Lane(0.05, ctl, 0)], 500, seed=3
    )
    assert np.all(tilted.terminal >= plain.terminal)
    assert tilted.meta["n_jumps"] > 1.5 * plain.meta["n_jumps"]


def test_divergence_guard_catches_nan():
    # the drift turns NaN at t = 0.5 (step 50); the guard stops the run there
    nan_late = ModelSpec(
        name="nan_late",
        dim=1,
        initial=np.array([1.0]),
        drift=lambda t, x, law: np.full_like(x, np.nan) if t > 0.495 else x,
        diffusion=lambda t, x, law: np.eye(1),
    )
    grid = make_time_grid(1.0, 100)
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(nan_late, grid, 1e-4, 8, seed=0)
    assert err.value.step == 50


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_divergence_guard_catches_inf(bad):
    # the drift turns +-inf at t = 0.5 (step 50); the guard stops the run there
    inf_late = ModelSpec(
        name="inf_late",
        dim=1,
        initial=np.array([1.0]),
        drift=lambda t, x, law: np.full_like(x, bad) if t > 0.495 else x,
        diffusion=lambda t, x, law: np.eye(1),
    )
    grid = make_time_grid(1.0, 100)
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(inf_late, grid, 1e-4, 8, seed=0)
    assert err.value.step == 50


def test_divergence_guard_trips_just_past_the_limit():
    cloud = np.zeros((1000, 2))
    cloud[417, 1] = -1.01 * _DIVERGENCE_LIMIT
    with pytest.raises(DivergenceError) as err:
        _guard(cloud, 7, "particle system")
    assert err.value.step == 7


def test_divergence_guard_trips_on_one_far_entry_in_a_large_cloud():
    # one entry twice past the limit among 1e5 ordinary ones; a check that
    # first accepts a cloud by its sum of squares must still trip here
    cloud = np.random.default_rng(0).standard_normal((100_000, 1))
    cloud[31_337, 0] = 2e10
    with pytest.raises(DivergenceError) as err:
        _guard(cloud, 11, "particle system")
    assert err.value.step == 11


def test_divergence_guard_passes_a_large_cloud_within_the_limit():
    # every entry sits exactly on the limit, which the guard still allows,
    # although the cloud's norm is twice the limit
    cloud = np.full((4, 1), _DIVERGENCE_LIMIT)
    cloud[1] = -_DIVERGENCE_LIMIT
    _guard(cloud, 0)


def test_divergence_guard_catches_a_nan_row_drift():
    # a one-row drift moves the cloud by carried bounds; NaN from t = 0.5
    # (step 50) makes them NaN, so the exact test runs there and trips
    nan_row = ModelSpec(
        name="nan_row",
        dim=1,
        initial=np.array([1.0]),
        drift=lambda t, x, law: np.full(1, np.nan if t > 0.495 else 1.0),
        diffusion=lambda t, x, law: np.zeros((1, 1)),
    )
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(nan_row, make_time_grid(1.0, 100), 1e-4, 8, seed=0, record="summary")
    assert err.value.step == 50


def test_divergence_guard_catches_a_nan_row_jump(pure_jump):
    # a one-row G that is NaN when every time it is handed is past 0.495: the
    # jumps of step 49 include earlier times, the compensator of step 50
    # (t = 0.5) does not
    nan_jump = dataclasses.replace(
        pure_jump, jump=lambda t, x, law, z: np.full(1, np.nan if np.min(t) > 0.495 else 1.0)
    )
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(nan_jump, make_time_grid(1.0, 100), 0.05, 200, seed=0, record="summary")
    assert err.value.step == 50


@pytest.mark.parametrize("rows", [lambda t: 1, np.size], ids=["table", "rank_loop"])
def test_divergence_guard_catches_nan_that_only_the_jumps_carry(pure_jump, rows):
    # G is 1 at the step's left endpoint (a scalar t) and NaN at the jumps'
    # own times, so the compensator and the carried row stay finite and only
    # the jumpers' rows turn NaN, at the first step with a jump (step 0);
    # one row lands from a table, one row per jump takes the rank loop
    nan_jumps = dataclasses.replace(
        pure_jump,
        jump=lambda t, x, law, z: np.full((rows(t), 1), np.nan if np.ndim(t) else 1.0),
    )
    with pytest.raises(DivergenceError) as err:
        simulate_mvsde(nan_jumps, make_time_grid(1.0, 100), 0.05, 200, seed=0, record="summary")
    assert err.value.step == 0


def _guard_models(tmp_path):
    """Models whose clouds move every way the divergence guard tells apart."""
    row_drift = ModelSpec(
        name="row_drift",  # sigma = 0, no jumps: every step moves by one row
        dim=1,
        initial=np.array([0.2]),
        drift=lambda t, x, law: np.array([3.0 * np.cos(6.0 * t) - 0.5]),
        diffusion=lambda t, x, law: np.zeros((1, 1)),
    )
    two_atoms = _affine_jump_model(tmp_path, 2)  # noisy, a two-cell table
    return {
        "pure_jump": get_model("pure_jump"),  # one row, one-cell table
        "two_atoms": two_atoms,
        "two_atoms_quiet": dataclasses.replace(  # one row, a two-cell table
            two_atoms, diffusion=lambda t, x, law: np.zeros((2, 2))
        ),
        "row_drift": row_drift,
        # G reads x: the rank loop, after a per-particle compensator
        "reads_x": dataclasses.replace(
            get_model("pure_jump"), drift=row_drift.drift, jump=lambda t, x, law, z: 1.0 - x
        ),
        # G reads t per jump: the rank loop, after one row
        "reads_t": dataclasses.replace(
            get_model("pure_jump"),
            drift=row_drift.drift,
            jump=lambda t, x, law, z: np.reshape(1.0 - 2.0 * np.asarray(t, dtype=float), (-1, 1)),
        ),
    }


@pytest.fixture(scope="module")
def guard_models(tmp_path_factory):
    return _guard_models(tmp_path_factory.mktemp("guard_models"))


def _first_trip(spec, grid, ladder, n_particles, seed, limit):
    """The first step k after which some lane has an entry beyond limit, or a
    non-finite one, in a run at the default limit; None if none has."""
    lanes = [Lane(eps, record="full") for eps in ladder]
    runs = simulate_lanes(spec, grid, lanes, n_particles, seed)
    far = [
        k for r in runs for k in range(grid.n_steps) if not (np.abs(r.paths[k + 1]) <= limit).all()
    ]
    return min(far, default=None)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        ["pure_jump", "two_atoms", "two_atoms_quiet", "row_drift", "reads_x", "reads_t"]
    ),
    seed=st.integers(0, 2**32 - 1),
    n_particles=st.integers(1, 8),
    limit=st.floats(0.02, 0.8),
    ladder=st.sampled_from([[0.05], [0.2, 0.05]]),
)
def test_carried_bounds_trip_at_the_step_the_exact_test_does(
    guard_models, name, seed, n_particles, limit, ladder
):
    # lanes carry bounds on their entries and run the exact test only when
    # the bounds leave [-limit, limit]; a run at a small limit must stop at
    # the first step where some cloud truly has an entry beyond it
    from mvsde import skeleton

    spec, grid = guard_models[name], make_time_grid(1.0, 40)
    expected = _first_trip(spec, grid, ladder, n_particles, seed, limit)
    lanes = [Lane(eps) for eps in ladder]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(skeleton, "_DIVERGENCE_LIMIT", limit)
        if expected is None:
            simulate_lanes(spec, grid, lanes, n_particles, seed)
            return
        with pytest.raises(DivergenceError) as err:
            simulate_lanes(spec, grid, lanes, n_particles, seed)
    assert err.value.step == expected


def test_law_flow_variants_agree_for_mean_drift(example11):
    # the frozen lane on its lockstep companion equals, bit for bit, the
    # frozen lane fed a replay of the recorded uncontrolled run (the oracle);
    # drift reads only the law mean, so a dirac(limit) flow drives it the same
    # way up to the Euler-vs-limit discretization gap of the cloud itself
    grid = make_time_grid(1.0, 100)
    ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
    plain = simulate_mvsde(example11, grid, 1e-6, 4000, seed=1)
    replay = simulate_controlled_frozen(
        example11, grid, 1e-6, ctl, lambda k: LawSummary.empirical(plain.paths[k]),
        4000, seed=1,
    )
    lockstep = simulate_controlled_frozen(
        example11, grid, 1e-6, ctl, "companion", 4000, seed=1
    )
    np.testing.assert_array_equal(lockstep.paths, replay.paths)
    limit = simulate_controlled_frozen(
        example11, grid, 1e-6, ctl, solve_limit_ode(example11, grid), 4000, seed=1
    )
    assert np.max(np.abs(limit.terminal - lockstep.terminal)) < 0.05


def test_mdp_lane_null_control_variance(example11):
    # A = d_x b(t, xbar, d_xbar) = 0, so dM = sqrt(eps)/a dW: Var M_T = eps/a^2
    grid = make_time_grid(1.0, 200)
    eps, a = 1e-4, 1e-1
    ens = simulate_mdp_controlled(example11, grid, eps, a, None, 5000, seed=11)
    var = ens.terminal[:, 0].var()
    target = eps / a**2
    assert abs(ens.terminal[:, 0].mean()) < 0.01
    assert 0.8 * target < var < 1.2 * target
    assert ens.kind == "fluctuation"
    assert ens.meta["a"] == a


def test_mdp_null_control_is_the_particle_system(logistic):
    # the fluctuation lane is (X - xbar) / a of the plain run, bit for bit,
    # with xbar the engine's own noise-free Euler path
    grid = make_time_grid(1.0, 60)
    eps, a = 1e-3, 1e-3**0.25
    plain = simulate_mvsde(logistic, grid, eps, 48, seed=3)
    fluct = simulate_mdp_controlled(logistic, grid, eps, a, None, 48, seed=3)
    xbar = _euler_limit_path(logistic, grid)
    np.testing.assert_array_equal(fluct.paths, (plain.paths - xbar[:, None, :]) / a)
    np.testing.assert_array_equal(fluct.terminal, (plain.terminal - xbar[-1]) / a)
    assert fluct.meta["n_jumps"] == plain.meta["n_jumps"] > 0


@pytest.mark.parametrize("name", ["example11", "logistic_mf", "pure_jump"])
def test_mdp_lane_variance_matches_skeleton_gramian(name):
    # Var M(1) / h -> A W^-1 A^T of the moderate skeleton (h = eps / a^2);
    # 5 % is 5 standard errors of a sample variance from 2e4 particles
    spec = get_model(name)
    grid = make_time_grid(1.0, 200)
    eps = 1e-2
    a = eps**0.25
    ens = simulate_mdp_controlled(
        spec, grid, eps, a, None, 20_000, seed=5, record="summary"
    )
    ratio = ens.terminal[:, 0].var() / (eps / a**2)
    resp, w = _mdp_response(spec, grid)
    gramian = ((resp / w) @ resp.T)[0, 0]
    assert ratio == pytest.approx(gramian, rel=0.05)


def test_mdp_psi_floor_clamps(pure_jump):
    grid = make_time_grid(1.0, 50)
    # tilt so negative that 1 + a * tilt would go below zero
    ctl = MdpControl(grid, np.zeros((50, 1)), np.full((50, 1), -100.0))
    ens = simulate_mdp_controlled(pure_jump, grid, 1e-4, 0.1, ctl, 16, seed=0)
    assert ens.meta["clamped_cells"] == 50
    ok = simulate_mdp_controlled(
        pure_jump, grid, 1e-4, 0.1, null_mdp_control(grid, 1, 1), 16, seed=0
    )
    assert ok.meta["clamped_cells"] == 0


def test_mdp_validates_scale(example11):
    grid = make_time_grid(1.0, 10)
    with pytest.raises(InvalidArgumentError):
        simulate_mdp_controlled(example11, grid, 1e-4, 0.0, None, 8, seed=0)
    big_a = simulate_mdp_controlled(example11, grid, 1e-4, 1.5, None, 8, seed=0)
    assert big_a.meta["warnings"]


def test_seed_determinism_across_calls(logistic):
    grid = make_time_grid(1.0, 40)
    a = simulate_mvsde(logistic, grid, 0.05, 25, seed=123)
    b = simulate_mvsde(logistic, grid, 0.05, 25, seed=123)
    c = simulate_mvsde(logistic, grid, 0.05, 25, seed=124)
    np.testing.assert_array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


def test_mean_path(example11):
    grid = make_time_grid(1.0, 20)
    ens = simulate_mvsde(example11, grid, 0.01, 30, seed=1)
    assert ens.mean_path().shape == (21, 1)
    np.testing.assert_allclose(ens.mean_path()[5], ens.paths[5].mean(axis=0))
    with pytest.raises(InvalidArgumentError):
        simulate_mvsde(example11, grid, 0.01, 30, seed=1, record="summary").mean_path()


# README's model file: two mark atoms, a jump G = mark_matrix z that does not
# read x
README_MODEL = {
    "name": "affine_demo", "dim": 2, "initial": [1.0, 0.0],
    "drift": {"const": [0, 0], "linear_x": [[0, 1], [0, 0]],
              "linear_mean": [[0.5, 0], [0, 0.5]]},
    "diffusion": {"const": [[0.3, 0], [0, 0.3]]},
    "jump": {"mark_matrix": [[1.0], [0.0]]},
    "intensity": {"atoms": [[0.5], [-0.5]], "masses": [1.0, 2.0]},
}


def _readme_model(tmp_path):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_MODEL))
    return load_model_file(path)


@pytest.mark.parametrize("name", ["example11", "readme"])
def test_mean_record_matches_full(name, tmp_path):
    # record="mean" keeps each node's cloud mean, (n_nodes, d) floats, and
    # gives the bits that the full (n_nodes, N, d) record averages to
    spec = _readme_model(tmp_path) if name == "readme" else get_model(name)
    grid = make_time_grid(1.0, 40)
    full = simulate_mvsde(spec, grid, 0.05, 5001, seed=8)
    light = simulate_mvsde(spec, grid, 0.05, 5001, seed=8, record="mean")
    assert light.paths is None and light.means.shape == (41, spec.dim)
    np.testing.assert_array_equal(light.terminal, full.terminal)
    np.testing.assert_array_equal(light.mean_path(), full.mean_path())
    # in fluctuation coordinates the means are mapped as the paths are
    ctl = null_mdp_control(grid, spec.dim, spec.n_mark_cells)
    runs = [
        simulate_mdp_controlled(spec, grid, 0.01, 0.3, ctl, 500, seed=8, record=record)
        for record in ("mean", "full")
    ]
    np.testing.assert_allclose(runs[0].mean_path(), runs[1].mean_path(), rtol=0, atol=1e-12)


def test_ladder_rungs_equal_their_solo_runs(example11, logistic):
    # one lane per eps over one Brownian draw per step: without jumps every
    # rung is bit-identical to its solo run; with jumps the rung at the
    # run's rate bound (the smallest eps) is
    grid = make_time_grid(1.0, 60)
    ladder = [0.2, 0.1, 0.05]
    lanes = [Lane(eps, record="full") for eps in ladder]
    for eps, rung in zip(ladder, simulate_lanes(example11, grid, lanes, 64, seed=8)):
        _assert_same_run(rung, simulate_mvsde(example11, grid, eps, 64, seed=8))
        assert rung.eps == eps
    rungs = simulate_lanes(logistic, grid, lanes, 64, seed=8)
    solo = simulate_mvsde(logistic, grid, 0.05, 64, seed=8)
    _assert_same_run(rungs[-1], solo)
    assert all(r.meta["n_proposed"] == solo.meta["n_proposed"] for r in rungs)
    # the larger-eps rungs keep fewer of the shared proposals
    assert rungs[0].meta["n_jumps"] < rungs[1].meta["n_jumps"] < rungs[2].meta["n_jumps"]


def test_thinned_rungs_have_the_poisson_law(pure_jump):
    # b = 0, sigma = 0, G = 1, nu({1}) = 1: each rung's X(1) = eps K - 1 with
    # K ~ Poisson(1 / eps), though every rung thins the smallest eps's proposals
    grid = make_time_grid(1.0, 50)
    ladder = [0.2, 0.1, 0.05]
    n = 20_000
    rungs = simulate_lanes(pure_jump, grid, [Lane(eps) for eps in ladder], n, seed=12)
    for eps, rung in zip(ladder, rungs):
        counts = (rung.terminal[:, 0] + 1.0) / eps
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        lam = 1.0 / eps
        assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / n)
        # Var of the sample variance of Poisson(lam): (lam + 2 lam^2) / n
        assert abs(counts.var(ddof=1) - lam) < 4 * np.sqrt((lam + 2 * lam**2) / n)


def _mean_reader(read):
    """logistic_mf-like model whose drift and jump read the law through read."""
    return ModelSpec(
        name="mean_reader",
        dim=1,
        initial=np.array([0.5]),
        drift=lambda t, x, law: x * (1.0 - read(law)),
        diffusion=lambda t, x, law: np.array([[0.5]]),
        jump=lambda t, x, law, z: -0.2 * float(z[0]) * (x - read(law)),
        intensity=IntensityMeasure(np.array([[1.0]]), np.array([0.5])),
    )


def test_lockstep_coefficients_read_the_left_endpoint_cloud():
    # law.mean is taken on its first read in the step; law.cloud.mean(axis=0)
    # is taken at each call. They agree bit for bit only if no cloud moves
    # before every coefficient call that can read it (lanes move last to
    # first, so lanes 2 and 3 move before the lanes 0 and 1 they read; jumps
    # run on a copy)
    grid = make_time_grid(1.0, 60)
    ctl = Control(grid, np.full((60, 1), 0.3), np.full((60, 1), 0.6))
    runs = []
    for read in (lambda law: law.mean, lambda law: law.cloud.mean(axis=0)):
        lanes = [
            Lane(0.02, record="full"),
            Lane(0.05, record="full"),
            Lane(0.02, ctl, 0, record="full"),
            Lane(0.05, ctl, 1, record="full"),
            Lane(0.02, ctl, "self", record="full"),
        ]
        runs.append(simulate_lanes(_mean_reader(read), grid, lanes, 48, seed=6))
    for by_mean, by_cloud in zip(*runs):
        _assert_same_run(by_mean, by_cloud)
        assert by_mean.meta["n_jumps"] > 0


def test_point_mass_batches_refuse_cloud():
    # the skeletons and the rates freeze the law as one point mass per node;
    # a coefficient reading atoms there would average over every node
    spec = _mean_reader(lambda law: law.cloud.mean(axis=0))
    grid = make_time_grid(1.0, 20)
    event = EventSpec.halfspace([1.0], 0.3)
    with pytest.raises(UnsupportedError, match="law.mean"):
        solve_ldp_skeleton(spec, grid, null_control(grid, 1, 1))
    with pytest.raises(UnsupportedError):
        mdp_rate(spec, grid, event)
    with pytest.raises(UnsupportedError):
        ldp_rate(spec, grid, event, OptimizerConfig(n_starts=1, control_cells=2))


def _affine_jump_model(tmp_path, n_atoms):
    """A two-dimensional JSON model with n_atoms mark atoms."""
    raw = {
        "name": f"affine_{n_atoms}_atoms",
        "dim": 2,
        "initial": [0.5, 0.5],
        "drift": {"linear_mean": [[-0.5, 0.0], [0.0, -0.5]]},
        "diffusion": {"const": [[0.3, 0.0], [0.0, 0.3]]},
        "jump": {"mark_matrix": [[1.0], [-0.5]]},
        "intensity": {
            "atoms": [[1.0], [-0.5], [0.25]][:n_atoms],
            "masses": [2.0, 1.0, 0.7][:n_atoms],
        },
    }
    path = tmp_path / f"affine_{n_atoms}.json"
    path.write_text(json.dumps(raw))
    return load_model_file(path)


def _ladder(spec):
    grid = make_time_grid(1.0, 100)
    return simulate_lanes(spec, grid, [Lane(eps) for eps in (0.2, 0.1, 0.05)], 3000, seed=11)


def _lanes_sha256(lanes):
    """sha256 of the lanes' terminal clouds, each followed by its sup_sq if any."""
    h = hashlib.sha256()
    for r in lanes:
        h.update(r.terminal.tobytes())
        if r.sup_sq is not None:
            h.update(r.sup_sq.tobytes())
    return h.hexdigest()


def _on_pin_stream(request, name):
    """The sha256 pins below were taken by reference code that is gone, on
    the stream that drew the Brownian child from PCG64: a pinned run that
    draws normals rebuilds that stream (pcg64_brownian). pure_jump draws
    none (sigma = 0), so its pins run on the production stream."""
    if name != "pure_jump":
        request.getfixturevalue("pcg64_brownian")


# sha256 of the three terminal clouds of _ladder, taken when thin_step still
# ranked with three argsorts per lane and the compensator was one einsum
LADDER_SHA256 = {
    "pure_jump": "cf84bd42e2348e67df9d98aac96aba904573b9cfef64b3bb1c9bcf125bf420b6",
    "logistic_mf": "a637173a21324d7f07e7670c4b654ae26bea38174fc70324d8f157266ec66e93",
    "two_atoms": "9f7f4210e4a6b9cad87c748fe1d2dba578c747307731d086ee62c3bc3187267d",
}


@pytest.mark.parametrize("name", sorted(LADDER_SHA256))
def test_jump_ladders_keep_their_bits(name, tmp_path, request):
    _on_pin_stream(request, name)
    spec = _affine_jump_model(tmp_path, 2) if name == "two_atoms" else get_model(name)
    assert _lanes_sha256(_ladder(spec)) == LADDER_SHA256[name]


@pytest.mark.usefixtures("pcg64_brownian")
def test_three_atom_compensator_agrees_with_einsum_to_rounding(tmp_path):
    # summed atom by atom, a three-atom compensator can round differently
    # from the (N, C, d) einsum that the means below were taken with
    einsum_means = [
        [0.3085869075201868, 0.30017271753705266],
        [0.30875245340824947, 0.30004942459432454],
        [0.3071527122860539, 0.30082064318956875],
    ]
    rungs = _ladder(_affine_jump_model(tmp_path, 3))
    means = [r.terminal.mean(axis=0) for r in rungs]
    np.testing.assert_allclose(means, einsum_means, rtol=1e-13, atol=0)


def test_one_row_jump_coefficient_broadcasts(pure_jump):
    # G returning one (d,) row means that row for every particle, in the
    # particle engine and in the skeleton alike
    one_row = dataclasses.replace(pure_jump, jump=lambda t, x, law, z: np.ones(1))
    grid = make_time_grid(1.0, 50)
    a = simulate_mvsde(one_row, grid, 0.05, 200, seed=3)
    b = simulate_mvsde(pure_jump, grid, 0.05, 200, seed=3)
    assert a.meta["n_jumps"] > 0
    _assert_same_run(a, b)
    ctl = Control(grid, np.zeros((50, 1)), np.full((50, 1), 1.5))
    np.testing.assert_array_equal(
        solve_ldp_skeleton(one_row, grid, ctl).path.values,
        solve_ldp_skeleton(pure_jump, grid, ctl).path.values,
    )


def test_lanes_share_one_sort_per_step(tmp_path, monkeypatch):
    # a lane that needs the proposals in (stream, time) order shares one sort
    # per step with the other lanes; one-cell jumps that land in one scatter
    # (pure_jump) take them in draw order and sort nothing
    calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    grid = make_time_grid(1.0, 40)
    specs = {
        "pure_jump": get_model("pure_jump"),
        "logistic_mf": get_model("logistic_mf"),  # the rank loop
        "two_atoms": _affine_jump_model(tmp_path, 2),  # a two-cell table
    }
    counts = {}
    for name, spec in specs.items():
        for ladder in ([0.05], [0.2, 0.1, 0.05]):
            calls.clear()
            simulate_lanes(spec, grid, [Lane(eps) for eps in ladder], 500, seed=2)
            counts.setdefault(name, []).append(len(calls))
    assert counts["pure_jump"] == [0, 0]
    for name in ("logistic_mf", "two_atoms"):
        assert counts[name][0] == counts[name][1] > 0


def test_the_exact_guard_runs_only_where_no_bounds_carry(monkeypatch):
    # a pure_jump lane moves by one row and lands its jumps from a table, so
    # it carries its bounds and never scans its cloud; example11's noise is
    # per particle, so each lane runs the exact test at every step
    import mvsde.dynamics as dynamics

    calls = []
    guard = dynamics._guard

    def counting_guard(*args):
        calls.append(args[1])
        return guard(*args)

    monkeypatch.setattr(dynamics, "_guard", counting_guard)
    _ladder(get_model("pure_jump"))
    assert calls == []
    _ladder(get_model("example11"))
    assert len(calls) == 100 * 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_particles=st.integers(1, 12),
    d=st.sampled_from([1, 2]),
    row=st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False), min_size=2, max_size=2
    ),
)
def test_one_cell_scatter_does_not_depend_on_jump_order(seed, n_particles, d, row):
    # every jump of a particle adds the same table row when one cell is
    # proposed, so the scatter gives the same bits in draw order and in
    # (stream, time) order, however often a stream repeats, and the same as
    # adding the row jump by jump
    from mvsde.dynamics import _scatter_jumps
    from mvsde.levy import propose_step, thin_step, time_order

    rng = np.random.default_rng(seed)
    intensity = IntensityMeasure(np.array([[1.0]]), np.array([1.0]))
    proposal = propose_step(intensity, 40.0, 0.0, 0.1, 2.0, n_particles, rng)
    x0 = rng.standard_normal((n_particles, d)) * 10.0 ** rng.integers(-3, 4, (n_particles, d))
    table = np.array(row[:d])[None]
    psi_k = np.array([rng.uniform(0.5, 2.0)])
    clouds = []
    for jumps in (thin_step(proposal, psi_k), thin_step(time_order(proposal, n_particles), psi_k)):
        x = x0.copy()
        _scatter_jumps(x, jumps[0], jumps[2], table)
        clouds.append(x.tobytes())
    x = x0.copy()
    for s in jumps[0]:
        x[s] += table[0]
    assert clouds[0] == clouds[1] == x.tobytes()


def test_two_cell_steps_thin_the_time_ordered_set(tmp_path, monkeypatch):
    # a table lane on a step that proposes two cells thins the proposals in
    # (stream, time) order; a one-cell step thins them in draw order
    import mvsde.dynamics as dynamics

    seen = []
    thin_step = dynamics.thin_step

    def recording_thin_step(proposal, psi_k):
        stream, time = proposal[0], proposal[1]
        ordered = np.array_equal(np.lexsort((time, stream)), np.arange(stream.size))
        seen.append((np.unique(proposal[2]).size, ordered))
        return thin_step(proposal, psi_k)

    monkeypatch.setattr(dynamics, "thin_step", recording_thin_step)
    grid = make_time_grid(1.0, 40)
    lanes = [Lane(0.2), Lane(0.1)]
    simulate_lanes(_affine_jump_model(tmp_path, 2), grid, lanes, 300, seed=4)
    assert len(seen) == 80
    assert all(ordered for cells, ordered in seen if cells >= 2)
    assert any(cells >= 2 for cells, _ in seen)
    seen.clear()
    simulate_lanes(get_model("pure_jump"), grid, lanes, 300, seed=4)
    assert len(seen) == 80
    assert not all(ordered for _, ordered in seen)


def _shared_work_cases(name):
    grid = make_time_grid(1.0, 100)
    if name == "ladder":
        spec = get_model("example11")
        limit = solve_limit_ode(spec, grid)
        return spec, grid, [Lane(eps, reference=limit) for eps in (0.2, 0.1, 0.05)]
    if name == "demo":
        spec = get_model("example11")
        ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
        return spec, grid, [Lane(0.01), Lane(0.01, ctl, 0), Lane(0.01, ctl, "self")]
    if name == "state_sigma":
        # a state-dependent (n, d, d) sigma: every lane forms its own sigma dW
        spec = dataclasses.replace(
            get_model("example11"),
            diffusion=lambda t, x, law: (0.5 + 0.25 * np.sin(x))[:, :, None],
        )
        ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
        return spec, grid, [Lane(0.01), Lane(0.01, ctl, 0), Lane(0.01, ctl, "self")]
    if name == "law_sigma":
        # a (d, d) sigma read from the law: the frozen and self lanes differ
        spec = dataclasses.replace(
            get_model("logistic_mf"),
            diffusion=lambda t, x, law: 0.5 * (1.0 + law.mean**2)[None],
        )
        c = spec.n_mark_cells
        ctl = Control(grid, np.full((100, 1), 0.5), np.full((100, c), 1.5))
        limit = solve_limit_ode(spec, grid)
        return spec, grid, [Lane(0.05), Lane(0.05, ctl, limit, limit), Lane(0.05, ctl, "self")]
    spec = get_model(name.removeprefix("frozen_"))
    c = spec.n_mark_cells
    ctl = Control(grid, np.full((100, 1), 0.5), np.full((100, c), 1.5))
    skeleton = solve_ldp_skeleton(spec, grid, ctl).path
    return spec, grid, [Lane(0.05), Lane(0.05, ctl, 0, skeleton)]


# sha256 of the terminal clouds (and sup_sq, where a reference is given) of
# _shared_work_cases, taken when every lane formed its own law, sigma dW,
# sqrt(eps) scaling and drift increment: an example11 ladder of distinct eps,
# the demo's three equal-eps lanes, and a frozen lane tracking its skeleton
# next to its companion (example11, and logistic_mf with jumps), and two
# models whose lanes do not share sigma: a state-dependent one and, with
# jumps, one read from the law
SHARED_WORK_SHA256 = {
    "ladder": "efaf72a837e97e69cebe44887874eddb6fb238c0dd350a055f626f4c270c4a42",
    "demo": "4eb32b86ed2a6bd43f801d3b868235b01642f8a68eec23b53ccfdbea53c40a4f",
    "frozen_example11": "a3c60f6ffdd08892f8760f7dd7257d312450ff3a17d0ab2cd7e5e1b7d9d28120",
    "frozen_logistic_mf": "a0f8dc5c41ad5ee0bae8c6cf049439477f114f6fdf0330ca338fb950d4d623a7",
    "state_sigma": "0f62911383be8bf49461c9251c21d35773acc3aab0f057ecf75210f4c7e0a6cb",
    "law_sigma": "968257cf553fc8cc113163635194e3fef7d50d302343856d255684af1863e7a6",
}


@pytest.mark.parametrize("name", sorted(SHARED_WORK_SHA256))
def test_shared_step_work_keeps_the_bits(name, request):
    _on_pin_stream(request, name)
    spec, grid, lanes = _shared_work_cases(name)
    rungs = simulate_lanes(spec, grid, lanes, 3000, seed=11)
    assert _lanes_sha256(rungs) == SHARED_WORK_SHA256[name]


def test_ladder_forms_sigma_dw_once_per_step(example11, monkeypatch):
    # a ladder of one constant sigma applies sigma to the Brownian increment
    # once per step, not once per lane
    import mvsde.dynamics as dynamics

    n_particles, n_steps = 300, 40
    brownian = []
    matvec = dynamics._matvec

    def counting_matvec(mat, vec, out=None):
        brownian.append(np.shape(vec)[0] == n_particles)
        return matvec(mat, vec, out=out)

    monkeypatch.setattr(dynamics, "_matvec", counting_matvec)
    grid = make_time_grid(1.0, n_steps)
    simulate_lanes(example11, grid, [Lane(eps) for eps in (0.2, 0.1, 0.05)], n_particles, 3)
    assert sum(brownian) == n_steps


def test_demo_builds_two_laws_per_step(monkeypatch):
    # the companion lane reuses lane 0's law: 2 empirical laws per step, not 3
    from mvsde.verify import demo_frozen_vs_selfconsistent

    laws = []
    empirical = LawSummary.empirical.__func__

    def counting_empirical(cls, cloud):
        laws.append(1)
        return empirical(cls, cloud)

    monkeypatch.setattr(LawSummary, "empirical", classmethod(counting_empirical))
    demo_frozen_vs_selfconsistent(eps=0.01, n_particles=300, n_steps=40)
    assert len(laws) == 2 * 40


def test_empty_lane_list_is_a_typed_error(example11):
    with pytest.raises(InvalidArgumentError):
        simulate_lanes(example11, make_time_grid(1.0, 10), [], 10, seed=0)


@pytest.mark.parametrize(
    "law, match",
    [
        pytest.param(2, "lane 1 reads lane 2; a lane reads", id="2-out of range"),
        pytest.param(-1, "lane 1 reads lane -1; a lane reads", id="-1-out of range"),
        pytest.param(1, "lane 1 reads lane 1; a lane reads", id="1-own index"),
        ("companion", "cannot interpret"),
        (True, "cannot interpret"),
    ],
)
def test_bad_lane_index_is_a_typed_error(example11, law, match):
    grid = make_time_grid(1.0, 10)
    lanes = [Lane(0.05), Lane(0.05, law=law)]
    with pytest.raises(InvalidArgumentError, match=match):
        simulate_lanes(example11, grid, lanes, 10, seed=0)


def test_a_chain_of_earlier_lanes_carries_the_null_coupling(logistic):
    # lane 2 reads lane 1, which reads lane 0: under the null control and one
    # eps the three clouds stay bit-identical; a lane may not read a later one
    grid = make_time_grid(1.0, 40)
    lanes = [Lane(0.05, record="full")]
    lanes += [Lane(0.05, law=i, record="full") for i in range(2)]
    plain, first, second = simulate_lanes(logistic, grid, lanes, 64, seed=5)
    assert plain.meta["n_jumps"] > 0
    _assert_same_run(plain, first)
    _assert_same_run(plain, second)
    with pytest.raises(InvalidArgumentError, match="lane 0 reads lane 1"):
        simulate_lanes(logistic, grid, [Lane(0.05, law=1), Lane(0.05)], 10, seed=0)


def test_lanes_move_last_to_first(example11, monkeypatch):
    # the demo's [plain, frozen on 0, self-consistent] moves as [2, 1, 0], and
    # a ladder of plain lanes and their frozen lanes as [3, 2, 1, 0]
    import mvsde.dynamics as dynamics

    calls = []
    record = dynamics._Recorder.record

    def logging_record(self, k, x, scratch):
        calls.append((k, self))
        return record(self, k, x, scratch)

    monkeypatch.setattr(dynamics._Recorder, "record", logging_record)
    grid = make_time_grid(1.0, 4)
    ctl = Control(grid, np.ones((4, 1)), np.ones((4, 0)))
    cases = (
        ([Lane(0.01), Lane(0.01, ctl, 0), Lane(0.01, ctl, "self")], [2, 1, 0]),
        ([Lane(0.1), Lane(0.05), Lane(0.1, ctl, 0), Lane(0.05, ctl, 1)], [3, 2, 1, 0]),
    )
    for lanes, order in cases:
        calls.clear()
        simulate_lanes(example11, grid, lanes, 5, seed=0)
        recs = [rec for k, rec in calls if k == 0]  # created in lane order
        assert [recs.index(rec) for k, rec in calls if k == 1] == order


def test_law_means_are_taken_only_when_read(monkeypatch):
    # an empirical law takes its mean on first read: never on pure_jump,
    # whose coefficients do not read the law, once per law cloud and step on
    # the demo's lanes (clouds 0 and 2) and on an example11 ladder (3 clouds)
    n_particles, n_steps = 200, 30
    calls = []
    mean = np.mean

    def counting_mean(a, *args, **kwargs):
        calls.append(np.shape(a) == (n_particles, 1))
        return mean(a, *args, **kwargs)

    monkeypatch.setattr(np, "mean", counting_mean)
    grid = make_time_grid(1.0, n_steps)
    ctl = Control(grid, np.ones((n_steps, 1)), np.ones((n_steps, 0)))
    cases = (
        ("pure_jump", [Lane(eps) for eps in (0.2, 0.1, 0.05)]),
        ("example11", [Lane(0.01), Lane(0.01, ctl, 0), Lane(0.01, ctl, "self")]),
        ("example11", [Lane(eps) for eps in (0.2, 0.1, 0.05)]),
    )
    counts = []
    for name, lanes in cases:
        calls.clear()
        simulate_lanes(get_model(name), grid, lanes, n_particles, seed=4)
        counts.append(sum(calls))
    assert counts == [0, 2 * n_steps, 3 * n_steps]


def _compensator_case(name, tmp_path):
    """A model and lanes whose compensator is one row (pure_jump, README's
    model), the (N, d) atom loop (README's model with a jump that reads x) or
    one row that the second atom turns into the loop (mixed); the equal-eps
    lanes 1 and 2 reuse one scaled noise unless the compensator takes its
    buffer."""
    spec = get_model(name) if name == "pure_jump" else _readme_model(tmp_path)
    if name in ("reads_x", "mixed"):
        def jump(t, x, law, z):
            if name == "mixed" and z[0] > 0:
                return np.array([z[0], 0.0])
            return float(z[0]) * (1.0 - 0.5 * np.tanh(x))

        spec = dataclasses.replace(spec, jump=jump)
    grid = make_time_grid(1.0, 100)
    d, c = spec.dim, spec.n_mark_cells
    ctl = Control(grid, np.full((100, d), 0.5), np.full((100, c), 1.5))
    lanes = [Lane(0.1), Lane(0.1, ctl, 0), Lane(0.1, ctl, "self"), Lane(0.05)]
    return spec, grid, lanes


# sha256 of the terminal clouds of _compensator_case, taken when every
# compensator was summed atom by atom over the whole cloud
COMPENSATOR_SHA256 = {
    "mixed": "4069e7c7750cefd4cb850a0ac28d4a0401f1884db474f53786557c8221446d2a",
    "pure_jump": "b3f7054306dc4a27a893e6dc105c4305f2f3043f89478e2ceb4f5bd55ca2a796",
    "readme": "ffb4047e88ca6afedaef161150aea3ccb6cb4234278adc8d103785326c0d6bcc",
    "reads_x": "9bfb35ca63d6e54a578e8088cd05891a45e92d91a1f443b857739cf27878a973",
}


@pytest.mark.parametrize("name", sorted(COMPENSATOR_SHA256))
def test_one_row_compensator_keeps_the_bits(name, tmp_path, request):
    _on_pin_stream(request, name)
    spec, grid, lanes = _compensator_case(name, tmp_path)
    x = np.zeros((3, spec.dim))
    one_row = spec.jump_rows(0.0, x, LawSummary.empirical(x), spec.intensity.atoms[0])
    assert (one_row.strides[0] == 0) == (name != "reads_x")  # the first atom's G
    rungs = simulate_lanes(spec, grid, lanes, 2000, seed=13)
    assert all(r.meta["n_jumps"] > 0 for r in rungs)
    assert _lanes_sha256(rungs) == COMPENSATOR_SHA256[name]


def _switching_sigma_model():
    """sigma = 0 on the first 3 of 40 steps and on every step k with
    k mod 3 = 1, 0.7 otherwise: noisy steps follow quiet ones at every gap."""

    def diffusion(t, x, law):
        k = int(round(t * 40))
        return np.array([[0.0 if k < 3 or k % 3 == 1 else 0.7]])

    return ModelSpec(
        name="switching_sigma",
        dim=1,
        initial=np.array([0.5]),
        drift=lambda t, x, law: np.sin(x) - 0.5 * law.mean,
        diffusion=diffusion,
    )


# enough particles for a worker thread to read the Brownian blocks ahead
# (test_read_ahead_starts_one_worker_per_call checks that it does)
READ_AHEAD_N = 10_000


@pytest.fixture
def banded(monkeypatch):
    """Cut every Brownian block into rng._BANDS row bands: the production
    threshold rng._BANDED_MIN is set by speed, and the sharing of bands
    between the threads does not depend on it, so the tests below stay
    small."""
    import mvsde.rng as rng

    monkeypatch.setattr(rng, "_BANDED_MIN", 1)


# sha256 of the terminal clouds of two lanes (eps 0.2 and 0.05) over 40 steps
# at READ_AHEAD_N particles, taken when every block was drawn inline at its
# own step
READ_AHEAD_SHA256 = {
    "switching_sigma": "7aa5dbf1132d5502617e744dd8f60bd754b69d2590ea7f03e7cfcc3429543ecd",
    "logistic_mf": "4343cc862ac8da317591049d150f146dd9ac9198c2579124299d70237c400ca7",
}


@pytest.mark.parametrize("name", sorted(READ_AHEAD_SHA256))
def test_read_ahead_keeps_the_bits(name, request):
    _on_pin_stream(request, name)
    spec = _switching_sigma_model() if name == "switching_sigma" else get_model(name)
    lanes = [Lane(0.2), Lane(0.05)]
    rungs = simulate_lanes(spec, make_time_grid(1.0, 40), lanes, READ_AHEAD_N, seed=5)
    assert _lanes_sha256(rungs) == READ_AHEAD_SHA256[name]


def _row_cases(name):
    """A model whose increment is one row until a per-particle term joins
    it: every term a row (pure_jump), a row drift then an (N, d)
    compensator (pure_jump with a jump that reads x), a one-row compensator
    with a jump that reads each jump's own time (pure_jump with G = 1 + t,
    one row only at one time), or a law-only drift on a sigma that is zero
    on some steps."""
    if name == "law_drift":
        spec = _switching_sigma_model()
        return dataclasses.replace(spec, drift=lambda t, x, law: 0.3 - 0.5 * law.mean)
    spec = get_model("pure_jump")
    if name == "jump_reads_x":
        spec = dataclasses.replace(spec, jump=lambda t, x, law, z: 1.0 - 0.5 * np.tanh(x))
    if name == "jump_reads_t":
        spec = dataclasses.replace(
            spec, jump=lambda t, x, law, z: np.reshape(1.0 + np.asarray(t), (-1, 1))
        )
    return spec


def _full_rows(spec):
    """spec with its drift and jump returned as full (N, d) arrays of the
    same values (times ones, which keeps every bit)."""
    def drift(t, x, law):
        return spec.drift(t, x, law) * np.ones_like(x)

    def jump(t, x, law, z):
        return spec.jump(t, x, law, z) * np.ones_like(x)

    return dataclasses.replace(spec, drift=drift, jump=jump if spec.has_jumps else None)


@pytest.mark.parametrize("name", ["all_rows", "jump_reads_x", "jump_reads_t", "law_drift"])
def test_row_increment_matches_full_coefficients(name):
    # a lane whose terms are one (d,) row moves bit for bit as the same lane
    # with full (N, d) coefficients, plain and controlled, at two eps
    spec = _row_cases(name)
    full = _full_rows(spec)
    x = np.zeros((3, 1))
    law = LawSummary.empirical(x)
    assert spec.drift_rows(0.0, x, law).strides[0] == 0
    assert full.drift_rows(0.0, x, law).strides[0] != 0
    grid = make_time_grid(1.0, 40)
    c = spec.n_mark_cells
    ctl = Control(grid, np.full((40, 1), 0.4), np.full((40, c), 1.5))
    lanes = [Lane(0.2), Lane(0.2, ctl), Lane(0.05), Lane(0.05, ctl)]
    rows = simulate_lanes(spec, grid, lanes, 2000, seed=8)
    fulls = simulate_lanes(full, grid, lanes, 2000, seed=8)
    for a, b in zip(rows, fulls):
        assert a.terminal.tobytes() == b.terminal.tobytes()
        assert a.meta["n_jumps"] == b.meta["n_jumps"]
    assert all(r.meta["n_jumps"] > 0 for r in rows) == spec.has_jumps


@pytest.mark.parametrize("name, rank_loop", [
    ("pure_jump", False),
    ("two_atoms", False),
    ("logistic_mf", True),  # G reads x
    ("jump_reads_t", True),  # G reads each jump's own time
])
def test_jumps_that_read_no_state_land_in_one_scatter(name, rank_loop, tmp_path, monkeypatch):
    # a G that gives one row per mark cell skips the rank loop of _apply_jumps
    import mvsde.dynamics as dynamics

    calls = []
    apply_jumps = dynamics._apply_jumps

    def counting_apply_jumps(*args):
        calls.append(args[0].size)
        return apply_jumps(*args)

    monkeypatch.setattr(dynamics, "_apply_jumps", counting_apply_jumps)
    if name == "two_atoms":
        spec = _affine_jump_model(tmp_path, 2)
    elif name == "jump_reads_t":
        spec = _row_cases(name)
    else:
        spec = get_model(name)
    rungs = _ladder(spec)
    assert all(r.meta["n_jumps"] > 0 for r in rungs)
    assert (sum(calls) > 0) == rank_loop


@pytest.fixture
def workers(monkeypatch):
    """The names of the threads started while the test runs."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


@pytest.mark.parametrize("model, n_particles, expected", [
    ("example11", READ_AHEAD_N, 1),
    ("pure_jump", READ_AHEAD_N, 0),  # sigma = 0: no normals are drawn
    ("example11", 300, 0),  # small blocks are drawn inline
])
def test_read_ahead_starts_one_worker_per_call(model, n_particles, expected, workers):
    # imported here, so the bit pins above also run on an engine without read-ahead
    from mvsde.dynamics import _READ_AHEAD_MIN

    assert READ_AHEAD_N >= _READ_AHEAD_MIN > 300
    before = threading.active_count()
    lanes = [Lane(0.2), Lane(0.1), Lane(0.05)]
    simulate_lanes(get_model(model), make_time_grid(1.0, 10), lanes, n_particles, seed=1)
    assert len(workers) == expected
    assert threading.active_count() == before


def test_divergence_stops_the_worker(workers):
    blowup = ModelSpec(
        name="blowup",
        dim=1,
        initial=np.array([1.0]),
        drift=lambda t, x, law: 1e3 * x**2,
        diffusion=lambda t, x, law: np.eye(1),
    )
    before = threading.active_count()
    with pytest.raises(DivergenceError):
        simulate_mvsde(blowup, make_time_grid(1.0, 40), 0.1, READ_AHEAD_N, seed=0)
    assert len(workers) == 1
    assert threading.active_count() == before


def _drawn_by(monkeypatch, side):
    """Let only one side draw the bands of each block read ahead: the
    worker ("worker", the caller leaving every band to it as under a
    free-threaded build) or the main thread ("main")."""
    import mvsde.dynamics as dynamics

    if side == "worker":
        monkeypatch.setattr(dynamics, "_CALLER_DRAWS", False)
        return
    draw = dynamics._ReadAhead._draw_queued

    def gated(self):
        if threading.current_thread() is threading.main_thread():
            draw(self)

    monkeypatch.setattr(dynamics._ReadAhead, "_draw_queued", gated)


def _band_draws(monkeypatch):
    """A list that gets, per band drawn, whether the main thread drew it."""
    drawn = []
    standard_normal = BrownianBands.standard_normal

    def recording(self, **kwargs):
        drawn.append(threading.current_thread() is threading.main_thread())
        return standard_normal(self, **kwargs)

    monkeypatch.setattr(BrownianBands, "standard_normal", recording)
    return drawn


@pytest.mark.usefixtures("banded")
def test_a_failed_draw_reaches_the_caller(example11, monkeypatch):
    # a band of the second block, the first one read ahead, fails on the
    # thread that draws it: the worker, or the main thread taking it over
    import mvsde.dynamics as dynamics

    class FailingDraws:
        def __init__(self, brownian):
            self.brownian, self.calls, self.failed_on = brownian, 0, []

        def bands(self, n_rows, width):
            return self.brownian.bands(n_rows, width)

        def standard_normal(self, *, out, band):
            self.calls += 1
            if self.calls == _BANDS + 3:
                self.failed_on.append(threading.current_thread())
                raise RuntimeError("draw failed")
            return self.brownian.standard_normal(out=out, band=band)

    seed_block = dynamics.SeedBlock
    draws = []

    class FailingSeedBlock:
        @staticmethod
        def from_seed(seed):
            block = seed_block.from_seed(seed)
            block.brownian = FailingDraws(block.brownian)
            draws.append(block.brownian)
            return block

    monkeypatch.setattr(dynamics, "SeedBlock", FailingSeedBlock)
    for side in ("worker", "main"):
        with monkeypatch.context() as patch:
            _drawn_by(patch, side)
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="draw failed"):
                simulate_mvsde(example11, make_time_grid(1.0, 40), 0.1, READ_AHEAD_N, seed=0)
            assert threading.active_count() == before
        (failed_on,) = draws.pop().failed_on
        assert (failed_on is threading.main_thread()) == (side == "main")


@pytest.mark.parametrize("n_rows, dim", [
    (1, 1), (1003, 2), (READ_AHEAD_N, 1), (_BANDED_MIN // 2, 2),
])
def test_blocks_are_row_bands_of_the_band_generators(n_rows, dim):
    # a block of at least _BANDED_MIN normals: rows [N i // K, N (i + 1) // K)
    # of every block come from generator i, in block order; a smaller one
    # comes whole from the generator on the Brownian child itself. The last
    # two cases read their blocks ahead on the worker.
    from mvsde.dynamics import _ReadAhead

    seed = 21
    child = np.random.SeedSequence(seed).spawn(2)[0]
    if n_rows * dim < _BANDED_MIN:
        rows = [slice(0, n_rows)]
        refs = [np.random.Generator(np.random.SFC64(child))]
    else:
        rows = [slice(n_rows * i // _BANDS, n_rows * (i + 1) // _BANDS) for i in range(_BANDS)]
        refs = [np.random.Generator(np.random.SFC64(c)) for c in child.spawn(_BANDS)]
    block = np.empty((n_rows, dim))
    with _ReadAhead(SeedBlock.from_seed(seed).brownian, n_rows, dim) as normals:
        for k in range(3):
            block = normals.next_into(block, k < 2)
            for band, ref in zip(rows, refs):
                np.testing.assert_array_equal(
                    block[band], ref.standard_normal((band.stop - band.start, dim))
                )


@pytest.mark.usefixtures("banded")
@pytest.mark.parametrize("model", ["example11", "affine_2d"])
@pytest.mark.parametrize("side", ["worker", "main"])
def test_either_thread_draws_the_inline_bytes(model, side, tmp_path, monkeypatch):
    # the bytes do not depend on which thread draws a band: the worker alone
    # or the main thread alone, against every block drawn inline
    import mvsde.dynamics as dynamics

    spec = _affine_jump_model(tmp_path, 1) if model == "affine_2d" else get_model(model)
    grid, lanes = make_time_grid(1.0, 30), [Lane(0.2), Lane(0.05)]
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_READ_AHEAD_MIN", READ_AHEAD_N * spec.dim + 1)
        inline = simulate_lanes(spec, grid, lanes, READ_AHEAD_N, seed=4)
    _drawn_by(monkeypatch, side)
    drawn = _band_draws(monkeypatch)
    shared = simulate_lanes(spec, grid, lanes, READ_AHEAD_N, seed=4)
    # the first block is drawn inline, every later one read ahead
    assert drawn == [True] * _BANDS + [side == "main"] * ((grid.n_steps - 1) * _BANDS)
    assert _lanes_sha256(shared) == _lanes_sha256(inline)


@pytest.mark.usefixtures("banded")
def test_contended_bands_keep_the_inline_bytes(monkeypatch):
    # the caller asks for each block at once, so both threads draw bands of
    # most blocks, with the GIL switching every microsecond; a band drawn
    # twice or never would change the bytes
    import mvsde.dynamics as dynamics

    n_rows, n_blocks = 64, 2000

    def blocks():
        h = hashlib.sha256()
        with dynamics._ReadAhead(SeedBlock.from_seed(3).brownian, n_rows, 1) as normals:
            block = np.empty((n_rows, 1))
            for k in range(n_blocks):
                block = normals.next_into(block, k + 1 < n_blocks)
                h.update(block.tobytes())
        return h.hexdigest()

    monkeypatch.setattr(dynamics, "_READ_AHEAD_MIN", n_rows + 1)
    inline = blocks()
    monkeypatch.setattr(dynamics, "_READ_AHEAD_MIN", n_rows)
    drawn = _band_draws(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = blocks()
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == n_blocks * _BANDS
    assert 0 < drawn.count(False) < len(drawn) - _BANDS
    assert shared == inline


@pytest.mark.usefixtures("banded")
def test_the_caller_waits_for_the_band_in_flight(monkeypatch):
    # the caller asks for each block once the worker has begun a band of
    # it, which takes the worker 5 ms, so the caller draws the bands still
    # queued and then has to wait for the worker's band
    import time

    import mvsde.dynamics as dynamics

    n_rows, n_blocks = 64, 20
    began = threading.Event()

    def blocks(shared):
        h = hashlib.sha256()
        with dynamics._ReadAhead(SeedBlock.from_seed(6).brownian, n_rows, 1) as normals:
            block = np.empty((n_rows, 1))
            for k in range(n_blocks):
                block = normals.next_into(block, k + 1 < n_blocks)
                h.update(block.tobytes())
                if shared and k + 1 < n_blocks:
                    assert began.wait(timeout=10)
                    began.clear()
        return h.hexdigest()

    monkeypatch.setattr(dynamics, "_READ_AHEAD_MIN", n_rows + 1)
    inline = blocks(shared=False)
    monkeypatch.setattr(dynamics, "_READ_AHEAD_MIN", n_rows)
    standard_normal = BrownianBands.standard_normal
    on_worker = []

    def slow_on_worker(self, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            on_worker.append(kwargs["band"])
            began.set()
            time.sleep(0.005)
        return standard_normal(self, **kwargs)

    monkeypatch.setattr(BrownianBands, "standard_normal", slow_on_worker)
    assert blocks(shared=True) == inline
    assert n_blocks - 1 <= len(on_worker) < (n_blocks - 1) * _BANDS


@pytest.mark.usefixtures("banded")
@pytest.mark.parametrize("n_particles", [1, 3])
def test_fewer_particles_than_bands(n_particles, tmp_path):
    # some bands hold no row and draw nothing; the run repeats bit for bit
    assert n_particles < _BANDS
    spec = _affine_jump_model(tmp_path, 1)
    grid, lanes = make_time_grid(1.0, 20), [Lane(0.2), Lane(0.05)]
    runs = [simulate_lanes(spec, grid, lanes, n_particles, seed=9) for _ in range(2)]
    assert _lanes_sha256(runs[0]) == _lanes_sha256(runs[1])
    assert np.isfinite(runs[0][1].terminal).all()


GiB = 1 << 30
PROC_CGROUP_V2 = "0::/user.slice/user-1000.slice/session-3.scope\n"
PROC_CGROUP_V1 = "5:cpu,cpuacct:/job\n4:memory:/jobs/job-7\n0::/\n"


@pytest.mark.parametrize("proc_cgroup, files, expected", [
    (None, {}, 8 * GiB),  # no /proc/self/cgroup
    (PROC_CGROUP_V2, {}, 8 * GiB),  # no limit file readable
    # a namespaced (container) cgroup is the root of its own view
    ("0::/\n", {"/sys/fs/cgroup/memory.max": "max\n"}, 8 * GiB),
    ("0::/\n", {"/sys/fs/cgroup/memory.max": f"{2 * GiB}\n"}, 2 * GiB),
    # a host cgroup: the smallest limit on the way to the root counts
    (PROC_CGROUP_V2, {
        "/sys/fs/cgroup/user.slice/user-1000.slice/session-3.scope/memory.max": "max\n",
        "/sys/fs/cgroup/user.slice/user-1000.slice/memory.max": f"{3 * GiB}\n",
        "/sys/fs/cgroup/user.slice/memory.max": f"{4 * GiB}\n",
    }, 3 * GiB),
    (PROC_CGROUP_V2, {"/sys/fs/cgroup/user.slice/memory.max": f"{16 * GiB}\n"}, 8 * GiB),
    # a v1 memory controller
    (PROC_CGROUP_V1, {
        "/sys/fs/cgroup/memory/jobs/job-7/memory.limit_in_bytes": f"{GiB}\n",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
    }, GiB),
])
def test_memory_limit_is_physical_memory_or_a_smaller_cgroup_cap(
    proc_cgroup, files, expected, monkeypatch
):
    import mvsde.dynamics as dynamics

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    files = dict(files)
    if proc_cgroup is not None:
        files["/proc/self/cgroup"] = proc_cgroup

    def fake_open(path):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(dynamics, "open", fake_open, raising=False)
    assert dynamics._memory_limit() == expected


def test_the_memory_budget_counts_recorders_and_jumps(example11, pure_jump, monkeypatch):
    # one lane of 1,000 particles in 1-d: its cloud and four (N, d) blocks;
    # record="full" adds 11 nodes, and jumps add one step's proposals
    import mvsde.dynamics as dynamics

    grid, block = make_time_grid(1.0, 10), 8 * 1000
    monkeypatch.setattr(dynamics, "_memory_limit", lambda: 5 * block)
    simulate_mvsde(example11, grid, 0.1, 1000, seed=0, record="summary")
    for spec, record in [(example11, "full"), (pure_jump, "summary")]:
        with pytest.raises(InvalidArgumentError, match="needs about"):
            simulate_mvsde(spec, grid, 0.1, 1000, seed=0, record=record)
    monkeypatch.setattr(dynamics, "_memory_limit", lambda: 16 * block)
    simulate_mvsde(example11, grid, 0.1, 1000, seed=0, record="full")
