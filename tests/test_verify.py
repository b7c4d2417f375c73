import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from mvsde.core import ModelSpec, make_time_grid
from mvsde.core import Control
from mvsde.dynamics import simulate_controlled_frozen, simulate_mvsde
from mvsde.errors import InvalidArgumentError
from mvsde.models import get_model
from mvsde.rate import EventSpec
from mvsde.rng import derive_seed
from mvsde.skeleton import solve_ldp_skeleton, solve_limit_ode
from mvsde.verify import (
    SlopeRow,
    check_controlled_convergence,
    check_ldp,
    check_limit_convergence,
    check_mdp,
    demo_frozen_vs_selfconsistent,
    fit_rate_extrapolation,
)


def synthetic_rows(rate, correction, eps_list, n, censor=()):
    """Rows with p = exp(-(rate + correction*h)/h), exact hit counts."""
    rows = []
    for eps in eps_list:
        h = eps
        p = float(np.exp(-(rate + correction * h) / h))
        hits = 0 if eps in censor else max(1, int(round(p * n)))
        p_hat = hits / n
        stat = -h * np.log(p_hat) if hits else np.nan
        se = h * np.sqrt((1 - p_hat) / (n * p_hat)) if hits else np.nan
        rows.append(
            SlopeRow(
                eps=eps, speed=h, n_samples=n, hits=hits, p_hat=p_hat,
                stat=stat, stderr=se, censored=hits == 0,
            )
        )
    return rows


def test_fit_plain_linear_recovers_exact_intercept():
    # large probabilities: the plain two-term fit must be selected
    rows = synthetic_rows(0.1, 0.3, [0.4, 0.2, 0.1], n=10**9)
    method, intercept, details = fit_rate_extrapolation(rows)
    assert method == "plain_linear"
    assert intercept == pytest.approx(0.1, abs=1e-3)
    assert details["n_used"] == 3


def test_fit_rare_prefactor_branch():
    rows = synthetic_rows(0.5, 0.2, [0.12, 0.1, 0.08], n=10**9)
    assert all(r.p_hat <= 0.25 and r.hits >= 50 for r in rows)
    method, intercept, _ = fit_rate_extrapolation(rows)
    assert method == "rare_prefactor"
    assert intercept == pytest.approx(0.5, abs=5e-3)


def test_fit_sparse_corrected_branch():
    rows = synthetic_rows(0.8, 0.0, [0.1, 0.08, 0.06], n=20_000)
    assert any(r.hits < 50 for r in rows)
    method, intercept, _ = fit_rate_extrapolation(rows)
    assert method == "sparse_corrected"
    assert np.isfinite(intercept)


def test_fit_excludes_censored_rows():
    rows = synthetic_rows(0.5, 0.1, [0.2, 0.1, 0.05], n=10**6, censor=(0.05,))
    method, intercept, details = fit_rate_extrapolation(rows)
    assert details["censored_eps"] == [0.05]
    assert details["n_used"] == 2
    assert np.isfinite(intercept)


def test_fit_insufficient_rows():
    rows = synthetic_rows(0.5, 0.1, [0.2, 0.1], n=100, censor=(0.2, 0.1))
    method, intercept, _ = fit_rate_extrapolation(rows)
    assert method == "insufficient"
    assert np.isnan(intercept)


def test_check_ldp_smoke_and_jobs_determinism(example11):
    grid = make_time_grid(1.0, 100)
    event = EventSpec.halfspace([1.0], np.e + 0.5)
    kw = dict(n_particles=2000, seed=3, target=0.125, tol=0.5)
    r1 = check_ldp(example11, grid, [0.3, 0.2], event, **kw)
    r2 = check_ldp(example11, grid, [0.3, 0.2], event, **kw)
    assert r1.to_dict() == r2.to_dict()
    assert r1.kind == "ldp"
    assert [row.eps for row in r1.rows] == [0.3, 0.2]
    assert all(row.hits > 0 for row in r1.rows)
    assert "boundary_gap_per_eps" in r1.details
    assert r1.passed  # tol is deliberately loose here


def test_check_ldp_validates_eps(example11):
    grid = make_time_grid(1.0, 50)
    ev = EventSpec.halfspace([1.0], 3.0)
    with pytest.raises(InvalidArgumentError):
        check_ldp(example11, grid, [0.1], ev, 100, 0)
    with pytest.raises(InvalidArgumentError):
        check_ldp(example11, grid, [0.2, -0.1], ev, 100, 0)
    # unsorted input is accepted and normalized to a descending ladder
    rep = check_ldp(example11, grid, [0.2, 0.4], ev, 200, 0)
    assert [row.eps for row in rep.rows] == [0.4, 0.2]


def test_check_mdp_smoke(example11):
    grid = make_time_grid(1.0, 100)
    event = EventSpec.halfspace([1.0], 0.5)
    rep = check_mdp(
        example11, grid, [0.01, 0.004], event, 4000, seed=1,
        target=0.125, tol=0.5,
    )
    assert rep.kind == "mdp"
    assert all(row.a is not None and 0 < row.a < 1 for row in rep.rows)
    # moderate speed is eps / a^2 = eps^(1 - 2 a_exp)
    for row in rep.rows:
        assert row.speed == pytest.approx(row.eps / row.a**2)
    assert rep.passed


def test_check_mdp_validates_a_exp(example11):
    grid = make_time_grid(1.0, 20)
    ev = EventSpec.halfspace([1.0], 1.0)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(InvalidArgumentError):
            check_mdp(example11, grid, [0.01, 0.004], ev, 100, 0, a_exp=bad)


def test_check_limit_convergence_smoke(example11):
    grid = make_time_grid(1.0, 100)
    rep = check_limit_convergence(
        example11, grid, [0.2, 0.1, 0.05], n_particles=400, seed=0
    )
    assert rep.kind == "limit_convergence"
    assert len(rep.values) == 3
    assert rep.values[0] > rep.values[-1]  # shrinking with eps
    assert 0.5 < rep.slope < 1.5
    assert isinstance(rep.passed, bool)
    assert "terminal_w2_to_limit" in rep.details
    assert len(rep.details["terminal_w2_to_limit"]) == 3


def _plane_ou():
    """Two uncoupled mean-reverting coordinates, so the distance sums over d."""
    return ModelSpec(
        name="plane_ou",
        dim=2,
        initial=np.array([1.0, -0.5]),
        drift=lambda t, x, law: -np.asarray(x, dtype=float),
        diffusion=lambda t, x, law: np.diag([1.0, 2.0]),
    )


@pytest.mark.parametrize("model", ["example11", "plane_ou"])
def test_terminal_w2_is_the_point_mass_closed_form(model):
    spec = _plane_ou() if model == "plane_ou" else get_model(model)
    grid = make_time_grid(1.0, 50)
    eps_list, n, seed = [0.2, 0.1], 500, 7
    rep = check_limit_convergence(spec, grid, eps_list, n_particles=n, seed=seed)
    xbar = solve_limit_ode(spec, grid).terminal
    # every rung runs from the ladder seed, and without jumps each rung is
    # bit-identical to its solo run
    for i, eps in enumerate(eps_list):
        ens = simulate_mvsde(spec, grid, eps, n, derive_seed(seed, "check_limit"))
        brute = np.sqrt(np.mean(np.sum((ens.terminal - xbar) ** 2, axis=1)))
        assert rep.details["terminal_w2_to_limit"][i] == pytest.approx(brute, abs=1e-12)


def test_check_controlled_convergence_smoke(example11):
    grid = make_time_grid(1.0, 100)
    ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
    rep = check_controlled_convergence(
        example11, grid, [0.1, 0.05, 0.025], ctl, n_particles=400, seed=2
    )
    assert rep.kind == "controlled_convergence"
    assert len(rep.values) == 3
    assert rep.values[-1] < rep.values[0]
    assert np.isfinite(rep.slope)
    assert rep.passed
    for bad in (float("nan"), -1.0):
        with pytest.raises(InvalidArgumentError, match="tol must be"):
            check_controlled_convergence(
                example11, grid, [0.1, 0.05], ctl, n_particles=400, seed=2, tol=bad
            )


def test_controlled_ladder_equals_its_solo_runs(example11):
    # every rung is a frozen lane on its own plain lane, all from the ladder
    # seed; without jumps each rung is bit-identical to its solo run
    grid = make_time_grid(1.0, 100)
    ctl = Control(grid, np.ones((100, 1)), np.ones((100, 0)))
    eps_list, n, seed = [0.1, 0.05, 0.025], 400, 2
    rep = check_controlled_convergence(example11, grid, eps_list, ctl, n, seed)
    skeleton = solve_ldp_skeleton(example11, grid, ctl).path
    for value, eps in zip(rep.values, eps_list):
        solo = simulate_controlled_frozen(
            example11, grid, eps, ctl, "companion", n, derive_seed(seed, "check_controlled"),
            record="summary", reference=skeleton,
        )
        assert value == pytest.approx(float(solo.sup_sq.mean()), abs=1e-12)


def test_check_controlled_convergence_is_one_simulation(example11, monkeypatch):
    import mvsde.dynamics as dynamics
    import mvsde.verify as verify

    calls = []
    simulate_lanes = dynamics.simulate_lanes

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate_lanes(*args, **kwargs)

    monkeypatch.setattr(dynamics, "simulate_lanes", counting)
    monkeypatch.setattr(verify, "simulate_lanes", counting)
    grid = make_time_grid(1.0, 20)
    ctl = Control(grid, np.ones((20, 1)), np.ones((20, 0)))
    check_controlled_convergence(example11, grid, [0.1, 0.05, 0.025], ctl, 50, seed=0)
    assert len(calls) == 1


def test_demo_report_shape_cheap():
    rep = demo_frozen_vs_selfconsistent(
        eps=1e-4, n_particles=800, n_steps=200, seed=3
    )
    d = asdict(rep)
    for key in (
        "frozen_center", "selfconsistent_center", "frozen_target",
        "selfconsistent_target", "gap", "passed", "narrative",
    ):
        assert key in d
    assert len(rep.narrative) == 4
    # the structural separation shows up even at these cheap settings
    assert rep.gap > 0.5
    assert abs(rep.frozen_center - rep.frozen_target) < abs(
        rep.frozen_center - rep.selfconsistent_target
    )


def test_demo_memory_does_not_grow_with_steps():
    # the three lanes step in lockstep, so no lane records the horizon:
    # peak memory is O(N), not O(N * n_steps)
    def peak(n_steps):
        tracemalloc.start()
        try:
            demo_frozen_vs_selfconsistent(n_particles=10_000, n_steps=n_steps, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800) <= 1.5 * peak(200)
