import dataclasses
import json

import numpy as np
import pytest

from mvsde.core import (
    Control, LawSummary, MdpControl, ModelSpec, make_time_grid, null_control,
)
from mvsde import skeleton as skeleton_module
from mvsde.errors import DivergenceError, NoConvergenceError
from mvsde.models import get_model, load_model_file
from mvsde.rate import EventSpec, OptimizerConfig, _LdpProblem, _mdp_response, ldp_rate
from mvsde.skeleton import (
    jacobian_b_x,
    solve_ldp_skeleton,
    solve_limit_ode,
    solve_mdp_skeleton,
)

E = 2.718281828459045


def test_limit_ode_hits_exponential(example11):
    grid = make_time_grid(1.0, 800)
    path = solve_limit_ode(example11, grid)
    assert abs(path.terminal[0] - E) < 1e-12


def test_limit_ode_divergence_guard():
    blowup = ModelSpec(
        name="blowup",
        dim=1,
        initial=np.array([2.0]),
        drift=lambda t, x, law: x**2,
        diffusion=lambda t, x, law: np.eye(1),
    )
    with pytest.raises(DivergenceError):
        solve_limit_ode(blowup, make_time_grid(1.0, 200))


def test_null_control_is_exact_fixed_point(example11):
    grid = make_time_grid(1.0, 200)
    sol = solve_ldp_skeleton(example11, grid, null_control(grid, 1, 0))
    assert sol.iterations == 1
    assert sol.residual == 0.0
    np.testing.assert_array_equal(
        sol.path.values, solve_limit_ode(example11, grid).values
    )


def test_constant_brownian_control_shifts_by_t(example11):
    # drift depends on the (frozen) law only, so y = xbar + t exactly
    grid = make_time_grid(1.0, 800)
    ctl = Control(grid, np.ones((800, 1)), np.ones((800, 0)))
    sol = solve_ldp_skeleton(example11, grid, ctl)
    assert abs(sol.path.terminal[0] - (E + 1.0)) < 1e-10


def test_constant_jump_tilt_integrates_mass(pure_jump):
    # b = 0, G = 1, nu({1}) = 1: y(T) = (psi - 1) T exactly
    grid = make_time_grid(1.0, 100)
    c = 1.75
    ctl = Control(grid, np.zeros((100, 1)), np.full((100, 1), c))
    sol = solve_ldp_skeleton(pure_jump, grid, ctl)
    assert sol.path.terminal[0] == pytest.approx(c - 1.0, abs=1e-12)


def test_picard_reports_non_convergence(monkeypatch):
    spec = get_model("linear_gaussian")  # drift depends on the state itself
    grid = make_time_grid(1.0, 100)
    ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
    monkeypatch.setattr(skeleton_module, "_PICARD_MAX_ITER", 1)
    monkeypatch.setattr(skeleton_module, "_PICARD_TOL", 1e-12)
    with pytest.raises(NoConvergenceError) as stalled:
        solve_ldp_skeleton(spec, grid, ctl)
    assert stalled.value.residual > 1e-12
    # the rate optimizer scores the stalled point as infinite
    problem = _LdpProblem(
        spec, grid, EventSpec.halfspace([1.0], 2.0), OptimizerConfig(control_cells=4)
    )
    assert problem.evaluate(np.ones(problem.n_params)) == (np.inf, np.inf, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_skeleton_raises_divergence_error():
    # b = x^2 from x0 = 0 under the Brownian control phi = 20: the skeleton
    # y' = y^2 + 20 leaves every bound near t = pi / (2 sqrt(20)) < 0.9, and
    # its Picard iterates overflow
    spec = ModelSpec(
        name="blowup",
        dim=1,
        initial=np.array([0.0]),
        drift=lambda t, x, law: x**2,
        diffusion=lambda t, x, law: np.eye(1),
    )
    grid = make_time_grid(0.9, 50)
    ctl = Control(grid, np.full((50, 1), 20.0), np.ones((50, 0)))
    with pytest.raises(DivergenceError):
        solve_ldp_skeleton(spec, grid, ctl)
    event = EventSpec.halfspace([1.0], 5.0)
    problem = _LdpProblem(spec, grid, event, OptimizerConfig(control_cells=1))
    assert problem.evaluate(np.full(1, 20.0)) == (np.inf, np.inf, None)
    # the optimizer steps through diverging points and still returns
    res = ldp_rate(spec, grid, event, OptimizerConfig(n_starts=2, control_cells=4))
    assert np.isfinite(res.value)


def test_jacobian_freezes_the_law(logistic, example11):
    # b(t, x, mu) = x (1 - mean(mu)): with the law frozen at d_x the partial
    # derivative is 1 - x, not the total derivative 1 - 2x of x (1 - x)
    x = np.array([0.37])
    np.testing.assert_allclose(jacobian_b_x(logistic, 0.2, x), [[1.0 - 0.37]], atol=1e-8)
    # example11 reads the law only
    np.testing.assert_allclose(jacobian_b_x(example11, 0.2, x), [[0.0]], atol=1e-12)


def test_mdp_skeleton_linear_response(example11):
    # A(t) = d_x b = 0 for this model, so phi = 1 gives m(t) = t
    grid = make_time_grid(1.0, 800)
    ctl = MdpControl(grid, np.ones((800, 1)), np.ones((800, 0)))
    m = solve_mdp_skeleton(example11, grid, ctl)
    assert abs(m.terminal[0] - 1.0) < 1e-12


def test_mdp_skeleton_null_is_zero(logistic):
    grid = make_time_grid(1.0, 60)
    from mvsde.core import null_mdp_control

    m = solve_mdp_skeleton(logistic, grid, null_mdp_control(grid, 1, 1))
    assert not m.values.any()


def test_mdp_skeleton_jump_tilt(pure_jump):
    # m' = tilt (G = 1, mass 1, A = 0): constant tilt integrates linearly
    grid = make_time_grid(1.0, 100)
    ctl = MdpControl(grid, np.zeros((100, 1)), np.full((100, 1), -0.6))
    m = solve_mdp_skeleton(pure_jump, grid, ctl)
    assert m.terminal[0] == pytest.approx(-0.6, abs=1e-12)


# README's model file: the only d >= 2 case, with two mark atoms.
AFFINE_DEMO = {
    "name": "affine_demo", "dim": 2, "initial": [1.0, 0.0],
    "drift": {"const": [0, 0], "linear_x": [[0, 1], [0, 0]],
              "linear_mean": [[0.5, 0], [0, 0.5]]},
    "diffusion": {"const": [[0.3, 0], [0, 0.3]]},
    "jump": {"mark_matrix": [[1.0], [0.0]]},
    "intensity": {"atoms": [[0.5], [-0.5]], "masses": [1.0, 2.0]},
    "constants": {"lipschitz": 2.0},
}


@pytest.mark.parametrize("name", ["logistic_mf", "linear_gaussian", "affine_demo"])
def test_mdp_skeleton_is_the_tangent_of_the_ldp_skeleton_map(name, tmp_path, monkeypatch):
    # One linear-response operator: the moderate skeleton is the tangent of
    # the implicit-trapezoid skeleton map at the null control, and the
    # terminal response A that mdp_rate takes from that tangent's reverse
    # sweep agrees with the forward recursion on every control.
    if name == "affine_demo":
        model_file = tmp_path / "affine.json"
        model_file.write_text(json.dumps(AFFINE_DEMO))
        spec = load_model_file(model_file)
    else:
        spec = get_model(name)
    n, d, c = 200, spec.dim, spec.n_mark_cells
    grid = make_time_grid(1.0, n)
    rng = np.random.default_rng(3)
    phi, tilt = rng.normal(size=(n, d)), rng.normal(size=(n, c))
    m = solve_mdp_skeleton(spec, grid, MdpControl(grid, phi, tilt)).values

    # the 1e-9 bound needs tighter Picard solves than the defaults
    monkeypatch.setattr(skeleton_module, "_PICARD_MAX_ITER", 500)
    monkeypatch.setattr(skeleton_module, "_PICARD_TOL", 1e-14)
    delta = 1e-4

    def skeleton(sign):
        ctl = Control(grid, sign * delta * phi, 1.0 + sign * delta * tilt)
        return solve_ldp_skeleton(spec, grid, ctl).path.values

    central = (skeleton(1.0) - skeleton(-1.0)) / (2.0 * delta)
    assert np.max(np.abs(central - m)) <= 1e-9

    a_mat, _ = _mdp_response(spec, grid)
    assert a_mat.shape == (d, n * (d + c))
    for _ in range(3):
        u = rng.normal(size=(n, d + c))  # stacked per cell: phi, then tilt
        forward = solve_mdp_skeleton(spec, grid, MdpControl(grid, u[:, :d], u[:, d:]))
        terminal = forward.terminal
        assert np.max(np.abs(a_mat @ u.ravel() - terminal)) <= 1e-12 * np.max(np.abs(terminal))


def test_one_row_drift_broadcasts(pure_jump):
    # b returning one (d,) row means that row for every state, in the
    # skeleton and the jacobian as in the particle engine
    one_row = dataclasses.replace(pure_jump, drift=lambda t, x, law: np.full(1, 0.5))
    rows = dataclasses.replace(pure_jump, drift=lambda t, x, law: np.full(np.shape(x), 0.5))
    grid = make_time_grid(1.0, 50)
    ctl = Control(grid, np.zeros((50, 1)), np.full((50, 1), 1.5))
    np.testing.assert_array_equal(
        solve_ldp_skeleton(one_row, grid, ctl).path.values,
        solve_ldp_skeleton(rows, grid, ctl).path.values,
    )
    x = np.array([[0.0], [1.0], [2.0]])
    law = LawSummary.dirac(x)
    phi, tilt_w = np.ones((3, 1)), np.full((3, 1), 0.5)
    for args in ((), (law, phi, tilt_w)):
        np.testing.assert_array_equal(
            jacobian_b_x(one_row, 0.5, x, *args), jacobian_b_x(rows, 0.5, x, *args)
        )
