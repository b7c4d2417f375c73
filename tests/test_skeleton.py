import dataclasses

import numpy as np
import pytest

from mvsde.core import (
    Control, LawSummary, MdpControl, ModelSpec, make_time_grid, null_control,
)
from mvsde.errors import DivergenceError, NoConvergenceError
from mvsde.models import get_model
from mvsde.rate import _mdp_response
from mvsde.skeleton import (
    PicardConfig,
    jacobian_b_x,
    ldp_vjp,
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
    assert sol.converged
    np.testing.assert_array_equal(
        sol.path.values, solve_limit_ode(example11, grid).values
    )


def test_constant_brownian_control_shifts_by_t(example11):
    # drift depends on the (frozen) law only, so y = xbar + t exactly
    grid = make_time_grid(1.0, 800)
    ctl = Control(grid, np.ones((800, 1)), np.ones((800, 0)), psi_bounds=(1.0, 1.0))
    sol = solve_ldp_skeleton(example11, grid, ctl)
    assert abs(sol.path.terminal[0] - (E + 1.0)) < 1e-10
    assert sol.converged


def test_constant_jump_tilt_integrates_mass(pure_jump):
    # b = 0, G = 1, nu({1}) = 1: y(T) = (psi - 1) T exactly
    grid = make_time_grid(1.0, 100)
    c = 1.75
    ctl = Control(grid, np.zeros((100, 1)), np.full((100, 1), c), psi_bounds=(0.5, 2.0))
    sol = solve_ldp_skeleton(pure_jump, grid, ctl)
    assert sol.path.terminal[0] == pytest.approx(c - 1.0, abs=1e-12)


def test_picard_reports_non_convergence():
    spec = get_model("linear_gaussian")  # drift depends on the state itself
    grid = make_time_grid(1.0, 100)
    ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)), psi_bounds=(1.0, 1.0))
    strict = PicardConfig(max_iter=1, tol=1e-12)
    with pytest.raises(NoConvergenceError):
        solve_ldp_skeleton(spec, grid, ctl, config=strict)
    soft = PicardConfig(max_iter=1, tol=1e-12, raise_on_fail=False)
    sol = solve_ldp_skeleton(spec, grid, ctl, config=soft)
    assert not sol.converged
    assert sol.residual > 1e-12


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


@pytest.mark.parametrize("name", ["logistic_mf", "linear_gaussian"])
def test_mdp_skeleton_is_the_tangent_of_the_ldp_skeleton_map(name):
    # One linear-response operator: the moderate skeleton is the tangent of
    # the implicit-trapezoid skeleton map at the null control, and ldp_vjp
    # runs that tangent's adjoint, so both match the map to rounding.
    spec = get_model(name)
    n, d, c = 200, spec.dim, spec.n_mark_cells
    grid = make_time_grid(1.0, n)
    rng = np.random.default_rng(3)
    phi, tilt = rng.normal(size=(n, d)), rng.normal(size=(n, c))
    m = solve_mdp_skeleton(spec, grid, MdpControl(grid, phi, tilt)).values

    delta, tight = 1e-4, PicardConfig(max_iter=500, tol=1e-14)

    def skeleton(sign):
        ctl = Control(grid, sign * delta * phi, 1.0 + sign * delta * tilt, (0.5, 2.0))
        return solve_ldp_skeleton(spec, grid, ctl, config=tight).path.values

    central = (skeleton(1.0) - skeleton(-1.0)) / (2.0 * delta)
    assert np.max(np.abs(central - m)) <= 1e-9

    limit = solve_limit_ode(spec, grid)
    a_mat, _ = _mdp_response(spec, grid)
    null = null_control(grid, d, c)
    for j in range(d):
        dphi, dpsi = ldp_vjp(spec, grid, null, limit, limit, n, np.eye(d)[j])
        row = np.hstack([dphi, dpsi]).reshape(-1)
        assert np.max(np.abs(a_mat[j] - row)) <= 1e-12 * np.max(np.abs(row))


def test_one_row_drift_broadcasts(pure_jump):
    # b returning one (d,) row means that row for every state, in the
    # skeleton and the jacobian as in the particle engine
    one_row = dataclasses.replace(pure_jump, drift=lambda t, x, law: np.full(1, 0.5))
    rows = dataclasses.replace(pure_jump, drift=lambda t, x, law: np.full(np.shape(x), 0.5))
    grid = make_time_grid(1.0, 50)
    ctl = Control(grid, np.zeros((50, 1)), np.full((50, 1), 1.5), psi_bounds=(1.5, 1.5))
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
