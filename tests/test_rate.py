import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import rate
from mvsde.core import (
    Control,
    MdpControl,
    ModelSpec,
    Path,
    make_time_grid,
    null_control,
    null_mdp_control,
)
from mvsde.errors import InvalidArgumentError, UnsupportedError
from mvsde.levy import IntensityMeasure
from mvsde.models import get_model
from mvsde.rate import (
    EventSpec,
    OptimizerConfig,
    ell,
    ldp_rate,
    mdp_cost,
    mdp_rate,
    q1_cost,
    q2_cost,
)
from mvsde.skeleton import PicardConfig, solve_mdp_skeleton

E = 2.718281828459045


def test_ell_frozen_values():
    assert ell(1.0) == 0.0
    assert ell(0.0) == 1.0
    assert ell(2.0) == pytest.approx(0.386294361120, abs=1e-12)
    assert ell(-0.1) == np.inf
    # strictly convex with minimum at 1
    assert ell(0.5) > 0 and ell(1.5) > 0


def test_costs_vanish_on_null_controls(logistic):
    grid = make_time_grid(1.0, 30)
    nu = logistic.intensity
    ctl = null_control(grid, 1, 1)
    assert q1_cost(ctl) == 0.0
    assert q2_cost(ctl, nu) == 0.0
    assert mdp_cost(null_mdp_control(grid, 1, 1), nu) == 0.0


def test_q1_quadrature():
    grid = make_time_grid(1.0, 4)
    ctl = Control(grid, 2.0 * np.ones((4, 1)), np.ones((4, 0)), psi_bounds=(1.0, 1.0))
    assert q1_cost(ctl) == pytest.approx(0.5 * 4.0)  # 1/2 |phi|^2 T


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_q2_nonnegative_zero_only_at_one(seed):
    grid = make_time_grid(1.0, 8)
    nu = IntensityMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 1.5]))
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.05, 3.0, size=(8, 2))
    ctl = Control(grid, np.zeros((8, 1)), psi, psi_bounds=(0.05, 3.0))
    cost = q2_cost(ctl, nu)
    assert cost >= 0.0
    assert (cost == 0.0) == bool(np.all(psi == 1.0))


def test_q2_requires_intensity(logistic):
    grid = make_time_grid(1.0, 4)
    ctl = null_control(grid, 1, 1)
    with pytest.raises(InvalidArgumentError):
        q2_cost(ctl, None)


def test_event_excess_and_indicator_signs():
    grid = make_time_grid(1.0, 2)
    path = Path(grid, np.array([[0.0], [0.5], [2.0]]))
    pin = EventSpec.pin([2.0], tol=0.5)
    assert pin.excess(path) <= 0.0
    assert pin.residual(path) == 0.0
    far = EventSpec.pin([3.0], tol=0.5)
    assert far.excess(path) == pytest.approx(0.5)
    half = EventSpec.halfspace([1.0], 1.5)
    assert half.excess(path) <= 0.0
    assert EventSpec.halfspace([1.0], 2.5).residual(path) == pytest.approx(0.5)


def test_pin_indicator_needs_positive_tol():
    ev = EventSpec.pin([1.0], tol=0.0)
    with pytest.raises(InvalidArgumentError):
        ev.indicator(np.zeros((4, 1)))


def test_halfspace_indicator_forgives_float_dust():
    ev = EventSpec.halfspace([1.0], 1.0)
    terminal = np.array([[1.0 - 5e-17], [1.0 + 1e-12], [0.9]])
    hits = ev.indicator(terminal)
    assert hits.tolist() == [True, True, False]


def _counting_solves(monkeypatch):
    calls = []
    solve = rate.solve_ldp_skeleton

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rate, "solve_ldp_skeleton", counted)
    return calls


def test_ldp_rate_gaussian_pin(example11, monkeypatch):
    # brownian-only pin: cheapest drift phi is constant, J = (x_T - e)^2 / 2
    grid = make_time_grid(1.0, 400)
    event = EventSpec.pin([E + 0.5], tol=1e-3)
    calls = _counting_solves(monkeypatch)
    config = OptimizerConfig(seed=0)
    res = ldp_rate(example11, grid, event, config)
    assert res.feasible
    assert res.value == pytest.approx(0.5 * 0.499**2, abs=2e-5)
    assert res.residual < 1e-6
    assert res.skeleton.terminal[0] == pytest.approx(E + 0.499, abs=1e-3)
    selected = [t for t in res.trace if t["selected"]]
    assert len(selected) == 1
    # per-start work counts: every solve is attributed to one start, and each
    # ALM round takes at least one gradient
    keys = ("skeleton_solves", "gradients", "alm_rounds")
    counts = [tuple(t[key] for key in keys) for t in res.trace]
    for solves, grads, rounds in counts:
        assert all(type(v) is int for v in (solves, grads, rounds))
        assert 1 <= rounds <= rate._OUTER_ROUNDS
        assert grads >= rounds and solves >= 1
    assert sum(solves for solves, _, _ in counts) == len(calls)
    again = ldp_rate(example11, grid, event, config)
    assert again.trace == res.trace


def _fd_gradient(fn, params, rel_step=1e-6):
    """Central finite differences: the oracle for the optimizer's gradient."""
    grad = np.empty_like(params)
    for i in range(params.size):
        h = rel_step * (1.0 + abs(params[i]))
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def _far_event(kind, limit):
    """An event out of reach of small controls, so the ALM hinge is active."""
    end = float(limit.terminal[0])
    if kind == "halfspace":
        return EventSpec.halfspace([1.0], end + 2.0)
    if kind == "pin_terminal":
        return EventSpec.pin([end + 2.0], tol=1e-3)
    shifted = limit.values + 0.5 + limit.grid.nodes[:, None]
    ref = Path(limit.grid, shifted)
    return EventSpec.pin_path(ref, tol=0.01)


@pytest.mark.parametrize(
    "model, kind, clipped",
    [
        (model, kind, False)
        for model in ("example11", "pure_jump", "logistic_mf")
        for kind in ("halfspace", "pin_terminal", "pin_path")
    ]
    + [("logistic_mf", "halfspace", True)],
)
def test_ldp_gradient_matches_finite_differences(model, kind, clipped):
    spec = get_model(model)
    grid = make_time_grid(1.0, 60)
    config = OptimizerConfig(control_cells=6)
    limit = rate.solve_limit_ode(spec, grid)
    problem = rate._LdpProblem(spec, grid, _far_event(kind, limit), config)
    params = np.random.default_rng(7).normal(0.0, 0.3, problem.n_params)
    if clipped:
        params[-2] = -(rate._THETA_CLIP + 1.0)
    lam, rho = 0.5, 10.0
    _, g, _ = problem.evaluate(params)
    assert g + lam / (2.0 * rho) > 0.0
    value, gradient = rate._alm_objective(problem, lam, rho)
    exact = gradient(params)
    np.testing.assert_allclose(exact, _fd_gradient(value, params), rtol=0, atol=1e-6)
    if clipped:
        assert exact[-2] == 0.0


def test_ldp_rate_reuses_known_skeletons(pure_jump, monkeypatch):
    # gradients come from the adjoint of the cached path: finite differences
    # took 16,384 solves for this call
    calls = _counting_solves(monkeypatch)
    grid = make_time_grid(1.0, 400)
    res = ldp_rate(
        pure_jump, grid, EventSpec.halfspace([1.0], 1.0),
        OptimizerConfig(control_cells=16, seed=3),
    )
    assert res.feasible
    assert len(calls) <= 1000
    assert sum(t["skeleton_solves"] for t in res.trace) == len(calls)


def test_stalled_skeleton_scores_as_blow_up(logistic):
    grid = make_time_grid(1.0, 60)
    problem = rate._LdpProblem(
        logistic, grid, EventSpec.halfspace([1.0], 1.5),
        OptimizerConfig(control_cells=6),
    )
    problem.picard = PicardConfig(max_iter=1, raise_on_fail=False)
    params = np.full(problem.n_params, 0.3)
    cost, g, path = problem.evaluate(params)
    assert cost == np.inf and g == np.inf and path is None
    value, gradient = rate._alm_objective(problem, 0.0, 10.0)
    assert value(params) == np.inf
    assert not gradient(params).any()
    # the null control is an exact fixed point after one sweep
    cost, g, path = problem.evaluate(np.zeros(problem.n_params))
    assert cost == 0.0 and path is not None


def test_ldp_rate_halfspace(example11):
    grid = make_time_grid(1.0, 400)
    event = EventSpec.halfspace([1.0], E + 0.5)
    res = ldp_rate(example11, grid, event, OptimizerConfig(seed=0))
    assert res.feasible
    assert res.value == pytest.approx(0.125, abs=1e-4)


def test_ldp_rate_pure_jump_pin(pure_jump):
    # reach 1.0 by tilting unit jumps: constant psi = 2 - tol is optimal
    grid = make_time_grid(1.0, 200)
    event = EventSpec.pin([1.0], tol=1e-3)
    res = ldp_rate(pure_jump, grid, event, OptimizerConfig(seed=0))
    assert res.feasible
    assert res.value == pytest.approx(ell(1.999), abs=1e-4)
    assert abs(res.value - ell(2.0)) < 1e-3


def test_mdp_rate_exact_pin_two_grids(example11):
    # A = 0, so m(1) = int phi: inf (1/2) int phi^2 with m(1) = 1 gives 1/2
    target = 0.5
    vals = {}
    for n in (400, 800):
        res = mdp_rate(example11, make_time_grid(1.0, n), EventSpec.pin([1.0]))
        assert res.feasible
        vals[n] = res.value
        assert res.value == pytest.approx(target, abs=1e-6)
        assert res.skeleton.terminal[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(vals[400] - vals[800]) < 1e-6


def test_mdp_rate_exact_pin_with_nonzero_linearization():
    # linear_gaussian: b = x, sigma = 1, so A = 1 and m(1) = int e^(1-t) phi dt;
    # the Gramian is int_0^1 e^(2(1-t)) dt = (e^2 - 1)/2, and a pin (or, in 1d,
    # the halfspace) at c costs c^2 / (2 * Gramian) = c^2 / (e^2 - 1)
    spec = get_model("linear_gaussian")
    grid = make_time_grid(1.0, 400)
    c = 0.8
    exact = c**2 / (E**2 - 1.0)
    by_pin = mdp_rate(spec, grid, EventSpec.pin([c]))
    by_half = mdp_rate(spec, grid, EventSpec.halfspace([1.0], c))
    assert by_pin.feasible and by_half.feasible
    assert by_pin.value == pytest.approx(exact, rel=1e-5)
    assert by_half.value == pytest.approx(exact, rel=1e-5)
    assert by_pin.skeleton.terminal[0] == pytest.approx(c, abs=1e-9)


def test_mdp_rate_solves_the_limit_ode_once(monkeypatch):
    # the response matrix and the optimal control's skeleton share one set of
    # tangent maps, so one mdp_rate call integrates the limit ODE once
    from mvsde import skeleton

    calls = []
    solve = skeleton.solve_limit_ode

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(skeleton, "solve_limit_ode", counting)
    grid = make_time_grid(1.0, 100)
    for name, event in (
        ("example11", EventSpec.pin([0.5])),
        ("logistic_mf", EventSpec.halfspace([1.0], 0.3)),
    ):
        calls.clear()
        res = mdp_rate(get_model(name), grid, event)
        assert res.feasible
        assert len(calls) == 1


def test_mdp_rate_memory_grows_linearly_with_steps(logistic):
    # A's rows come from one reverse sweep, so peak memory is O(n_steps):
    # doubling the steps about doubles the peak (a basis of unit controls
    # pushed forward would about quadruple it)
    event = EventSpec.halfspace([1.0], 0.3)

    def peak(n_steps):
        tracemalloc.start()
        try:
            mdp_rate(logistic, make_time_grid(1.0, n_steps), event)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm-up: first-call allocations are not the solve's
    assert peak(800) <= 2.5 * peak(400)


def test_mdp_rate_halfspace_matches_pin_in_1d(example11):
    grid = make_time_grid(1.0, 300)
    c = 0.7
    by_pin = mdp_rate(example11, grid, EventSpec.pin([c]))
    by_half = mdp_rate(example11, grid, EventSpec.halfspace([1.0], c))
    assert by_half.value == pytest.approx(by_pin.value, rel=1e-9)
    # level below zero is free: the null control already satisfies it
    free = mdp_rate(example11, grid, EventSpec.halfspace([1.0], -0.1))
    assert free.value == 0.0 and free.feasible


def test_mdp_rate_pin_tol_shrinks_value(example11):
    grid = make_time_grid(1.0, 300)
    exact = mdp_rate(example11, grid, EventSpec.pin([1.0]))
    loose = mdp_rate(example11, grid, EventSpec.pin([1.0], tol=0.1))
    assert loose.value < exact.value
    assert loose.skeleton.terminal[0] == pytest.approx(0.9, abs=1e-6)


def test_mdp_rate_unreachable_is_infinite():
    dead = ModelSpec(
        name="dead",
        dim=1,
        initial=np.array([0.0]),
        drift=lambda t, x, law: np.zeros_like(x),
        diffusion=lambda t, x, law: np.zeros((1, 1)),
    )
    res = mdp_rate(dead, make_time_grid(1.0, 50), EventSpec.pin([1.0]))
    assert res.value == np.inf
    assert not res.feasible


def test_mdp_rate_rejects_path_events(example11):
    grid = make_time_grid(1.0, 50)
    ref = Path(grid, np.zeros((51, 1)))
    with pytest.raises(UnsupportedError):
        mdp_rate(example11, grid, EventSpec.pin_path(ref, tol=0.1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mdp_skeleton_is_linear_in_the_control(logistic, seed):
    grid = make_time_grid(1.0, 40)
    rng = np.random.default_rng(seed)
    u = MdpControl(grid, rng.standard_normal((40, 1)), rng.standard_normal((40, 1)))
    v = MdpControl(grid, rng.standard_normal((40, 1)), rng.standard_normal((40, 1)))
    al, be = rng.uniform(-2, 2, size=2)
    mix = MdpControl(grid, al * u.phi + be * v.phi, al * u.tilt + be * v.tilt)
    lhs = solve_mdp_skeleton(logistic, grid, mix).values
    rhs = (
        al * solve_mdp_skeleton(logistic, grid, u).values
        + be * solve_mdp_skeleton(logistic, grid, v).values
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_rate_result_to_dict_is_json_shaped(example11):
    grid = make_time_grid(1.0, 100)
    res = mdp_rate(example11, grid, EventSpec.pin([0.5]))
    d = res.to_dict()
    assert {"value", "residual", "feasible", "trace"} <= set(d)
