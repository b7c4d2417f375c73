"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each criterion is one test,
so the verbose listing reads as the acceptance scorecard. Detail lines are
printed and surface on failure.
"""
import dataclasses
import time

import numpy as np
import pytest

from mvsde.core import Control, MdpControl, make_time_grid, null_control
from mvsde.dynamics import (
    simulate_controlled_selfconsistent,
    simulate_mvsde,
)
from mvsde.levy import propose_step, thin_step
from mvsde.models import get_model
from mvsde.rate import EventSpec, OptimizerConfig, ell, ldp_rate, mdp_rate, q2_cost
from mvsde.skeleton import solve_ldp_skeleton, solve_limit_ode, solve_mdp_skeleton
from mvsde.verify import (
    check_ldp,
    check_limit_convergence,
    check_mdp,
    demo_frozen_vs_selfconsistent,
)

E = float(np.e)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_particle_mean_tracks_limit():
    # eps = 0.01, N = 2000, 400 cells: ensemble mean lands on e within the
    # euler-bias + monte-carlo budget, in well under ten seconds
    t0 = time.perf_counter()
    spec = get_model("example11")
    grid = make_time_grid(1.0, 400)
    ens = simulate_mvsde(spec, grid, eps=0.01, n_particles=2000, seed=0)
    err = abs(float(ens.mean_path()[-1, 0]) - E)
    elapsed = time.perf_counter() - t0
    _line(1, err < 0.018235 and elapsed < 10.0,
          f"terminal mean error {err:.6f} (budget 0.018235), {elapsed:.2f}s")


def test_criterion_2_frozen_vs_selfconsistent_demo():
    rep = demo_frozen_vs_selfconsistent(
        eps=1e-4, n_particles=10_000, n_steps=800, seed=7
    )
    detail = (
        f"frozen {rep.frozen_center:.5f} vs e+1 "
        f"(err {abs(rep.frozen_center - rep.frozen_target):.5f}), "
        f"self {rep.selfconsistent_center:.5f} vs 2e-1 "
        f"(err {abs(rep.selfconsistent_center - rep.selfconsistent_target):.5f}), "
        f"gap {rep.gap:.3f}"
    )
    _line(2, rep.passed, detail)


def test_criterion_3_skeleton_solver_exactness():
    spec = get_model("example11")
    grid = make_time_grid(1.0, 800)
    ctl = Control(grid, np.ones((800, 1)), np.ones((800, 0)))
    shifted = solve_ldp_skeleton(spec, grid, ctl)
    err = abs(float(shifted.path.terminal[0]) - (E + 1.0))
    null = solve_ldp_skeleton(spec, grid, null_control(grid, 1, 0))
    _line(3, err < 1e-6 and null.residual <= 1e-10,
          f"phi=1 terminal error {err:.2e} (tol 1e-6), "
          f"null-control residual {null.residual:.1e} (tol 1e-10)")


def test_criterion_4_gaussian_rate_and_monte_carlo():
    t0 = time.perf_counter()
    spec = get_model("example11")
    grid = make_time_grid(1.0, 400)
    res = ldp_rate(spec, grid, EventSpec.pin([E + 0.5], tol=1e-3),
                   OptimizerConfig(seed=0))
    opt_err = abs(res.value - 0.125)
    rep = check_ldp(
        spec, grid, [0.2, 0.1, 0.05], EventSpec.halfspace([1.0], E + 0.5),
        n_particles=100_000, seed=0, target=0.125, tol=0.03, jobs=2,
    )
    elapsed = time.perf_counter() - t0
    mc_err = abs(rep.intercept - 0.125)
    # the naive rate lets the law follow the controlled path: b = x, which
    # is linear_gaussian
    naive = ldp_rate(get_model("linear_gaussian"), grid, EventSpec.pin([E + 0.5], tol=1e-3),
                     OptimizerConfig(seed=0)).value
    _line(4, res.feasible and opt_err <= 1e-3 and rep.passed and elapsed < 300.0,
          f"optimizer {res.value:.6f} (err {opt_err:.1e}, tol 1e-3), "
          f"mc extrapolation {rep.intercept:.4f} (err {mc_err:.4f}, tol 0.03, "
          f"fit {rep.fit_method}; naive {naive:.4f}, {abs(naive - 0.125):.4f} away), "
          f"{elapsed:.1f}s")


def test_criterion_5_jump_rate_and_monte_carlo():
    spec = get_model("pure_jump")
    grid = make_time_grid(1.0, 400)
    res = ldp_rate(spec, grid, EventSpec.pin([1.0], tol=1e-3),
                   OptimizerConfig(seed=0))
    target = float(ell(2.0))  # 2 ln 2 - 1
    opt_err = abs(res.value - target)
    rep = check_ldp(
        spec, grid, [0.2, 0.1, 0.05], EventSpec.halfspace([1.0], 1.0),
        n_particles=100_000, seed=0, target=target, tol=0.05, jobs=2,
    )
    mc_err = abs(rep.intercept - target)
    _line(5, res.feasible and opt_err <= 1e-3 and rep.passed,
          f"optimizer {res.value:.6f} vs ell(2)={target:.6f} "
          f"(err {opt_err:.1e}, tol 1e-3), mc extrapolation {rep.intercept:.4f} "
          f"(err {mc_err:.4f}, tol 0.05, fit {rep.fit_method})")


def test_criterion_6_moderate_rate_exact_and_monte_carlo():
    # A = d_x b(t, xbar, d_xbar) = 0 on example11, so M(1) = int phi dt + noise:
    # the pin M(1) = 1 costs exactly 1/2 and the halfspace M(1) >= 1/2 costs 1/8.
    # The MC level 1/2 was fixed from the exact law before running: it expects
    # about 5692 / 2340 / 246 hits on the three rungs (level 1 expects 78 / 3.5 / 0).
    spec = get_model("example11")
    target = 0.5
    vals = {}
    for n in (400, 800):
        r = mdp_rate(spec, make_time_grid(1.0, n), EventSpec.pin([1.0]))
        vals[n] = r.value
    exact_err = abs(vals[400] - target)
    grid_gap = abs(vals[400] - vals[800])
    mc_target = 0.125
    rep = check_mdp(
        spec, make_time_grid(1.0, 400), [1e-2, 4e-3, 1e-3],
        EventSpec.halfspace([1.0], 0.5), n_particles=100_000, seed=0,
        a_exp=0.25, target=mc_target, tol=0.05, jobs=2,
    )
    mc_err = abs(rep.intercept - mc_target)
    # the naive rate lets the law follow the controlled path: b = x, which
    # is linear_gaussian
    naive = mdp_rate(get_model("linear_gaussian"), make_time_grid(1.0, 400),
                     EventSpec.halfspace([1.0], 0.5)).value
    _line(6, exact_err <= 1e-4 and grid_gap <= 1e-6 and rep.passed,
          f"least-norm value {vals[400]:.9f} vs 1/2 "
          f"(err {exact_err:.1e}, tol 1e-4), grid gap {grid_gap:.1e} (tol 1e-6), "
          f"mc extrapolation {rep.intercept:.4f} vs 1/8 (err {mc_err:.4f}, tol 0.05; "
          f"naive {naive:.4f}, {abs(naive - mc_target):.4f} away)")


def test_criterion_7_limit_convergence_order():
    spec = get_model("example11")
    grid = make_time_grid(1.0, 400)
    rep = check_limit_convergence(
        spec, grid, [0.2, 0.1, 0.05, 0.025], n_particles=2000, seed=0, jobs=2
    )
    _line(7, rep.passed,
          f"E[sup|X-xbar|^2] log-log slope {rep.slope:.3f} "
          f"(expected 1.0 +/- {rep.tol:g})")


def test_criterion_8_structural_invariants():
    checks = []
    # (a) null-control coupling is bit-identical to the plain system
    spec = get_model("logistic_mf")
    grid = make_time_grid(1.0, 80)
    plain = simulate_mvsde(spec, grid, 0.02, 32, seed=4)
    nullc = simulate_controlled_selfconsistent(
        spec, grid, 0.02, null_control(grid, 1, 1), 32, seed=4
    )
    checks.append(("null coupling", np.array_equal(plain.paths, nullc.paths)))
    # (b) thinned jump acceptance is monotone in psi: one proposal set per
    # step at a shared dominating rate, thinned with each psi row
    nu = spec.intensity
    lo = Control(grid, np.zeros((80, 1)), np.full((80, 1), 0.7))
    hi = Control(grid, np.zeros((80, 1)), np.full((80, 1), 1.8))
    rng = np.random.default_rng(0)
    monotone = True
    for t0, dt, psi_lo, psi_hi in zip(grid.nodes, grid.dt, lo.psi, hi.psi):
        proposal = propose_step(nu, 50.0, t0, dt, 2.0, 2, rng)
        lo_set = set(zip(*(a.tolist() for a in thin_step(proposal, psi_lo)[:2])))
        hi_set = set(zip(*(a.tolist() for a in thin_step(proposal, psi_hi)[:2])))
        monotone &= lo_set <= hi_set
    checks.append(("monotone thinning", monotone))
    # (c) jump cost vanishes exactly at psi = 1 and only there
    ctl_null = null_control(grid, 1, 1)
    checks.append(("q2 ground state",
                   q2_cost(ctl_null, nu) == 0.0 and q2_cost(lo, nu) > 0.0))
    # (d) the moderate skeleton responds linearly to its control
    rng = np.random.default_rng(1)
    u = MdpControl(grid, rng.standard_normal((80, 1)), rng.standard_normal((80, 1)))
    v = MdpControl(grid, rng.standard_normal((80, 1)), rng.standard_normal((80, 1)))
    mix = MdpControl(grid, 0.3 * u.phi + 1.7 * v.phi, 0.3 * u.tilt + 1.7 * v.tilt)
    lhs = solve_mdp_skeleton(spec, grid, mix).values
    rhs = (0.3 * solve_mdp_skeleton(spec, grid, u).values
           + 1.7 * solve_mdp_skeleton(spec, grid, v).values)
    checks.append(("mdp linearity", bool(np.max(np.abs(lhs - rhs)) < 1e-9)))
    failed = [name for name, ok in checks if not ok]
    _line(8, not failed,
          f"{len(checks)} structural invariants"
          + (f", failed: {failed}" if failed else " all hold"))


def test_criterion_9_moderate_rate_with_jumps_and_nonzero_linearization():
    # logistic_mf: A(t) = 1 - xbar(t) != 0 and the noise jumps. The rate
    # freezes the law at the limit; the naive linearization lets it follow
    # the controlled path, b = x (1 - x), and sits 0.116 away. The seed was
    # fixed before running.
    t0 = time.perf_counter()
    spec = get_model("logistic_mf")
    grid = make_time_grid(1.0, 400)
    event = EventSpec.halfspace([1.0], 0.3)
    target = mdp_rate(spec, grid, event).value
    naive_spec = dataclasses.replace(spec, drift=lambda t, x, law: x * (1.0 - x))
    naive = mdp_rate(naive_spec, grid, event).value
    rep = check_mdp(
        spec, grid, [1e-2, 4e-3, 1e-3], event, n_particles=20_000, seed=14,
        a_exp=0.25, target=target, tol=0.05,
    )
    elapsed = time.perf_counter() - t0
    mc_err = rep.intercept - target
    _line(9, rep.passed,
          f"mdp_rate {target:.5f}, mc extrapolation {rep.intercept:.4f} "
          f"(err {mc_err:+.4f}, tol 0.05, fit {rep.fit_method}); "
          f"naive {naive:.5f}, {abs(naive - target):.4f} away, {elapsed:.1f}s")


def test_criterion_10_ldp_rate_bridges_to_the_moderate_rate():
    # the moderate rate is the quadratic part of the large-deviation rate at
    # the limit: for x(T) >= xbar(T) + a r, I_LDP(a) / a^2 -> I_MDP with an
    # O(a) error, which Richardson's 2 v(a/2) - v(a) removes. No Monte Carlo;
    # every bound was fixed before the first run.
    t0 = time.perf_counter()
    spec = get_model("logistic_mf")
    grid = make_time_grid(1.0, 400)
    x_t = float(solve_limit_ode(spec, grid).terminal[0])
    target = mdp_rate(spec, grid, EventSpec.halfspace([1.0], 0.3)).value
    config = OptimizerConfig(n_starts=1, control_cells=400, seed=0)
    scales = (0.1, 0.05, 0.025)
    v = [ldp_rate(spec, grid, EventSpec.halfspace([1.0], x_t + a * 0.3), config).value / a**2
         for a in scales]
    gaps = [x / target - 1.0 for x in v]
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    richardson = 2.0 * v[2] - v[1]
    rich_err = richardson / target - 1.0
    naive_spec = dataclasses.replace(spec, drift=lambda t, x, law: x * (1.0 - x))
    naive = mdp_rate(naive_spec, grid, EventSpec.halfspace([1.0], 0.3)).value
    # pure_jump: the tilt psi = 1 + a r costs exactly ell(1 + a r)
    jump = get_model("pure_jump")
    coarse = make_time_grid(1.0, 50)
    x_jump = float(solve_limit_ode(jump, coarse).terminal[0])
    jump_config = OptimizerConfig(n_starts=1, control_cells=50, seed=0)
    jump_err = max(
        abs(ldp_rate(jump, coarse, EventSpec.halfspace([1.0], x_jump + a * 0.5), jump_config)
            .value / float(ell(1.0 + a * 0.5)) - 1.0)
        for a in scales
    )
    elapsed = time.perf_counter() - t0
    ok = (all(1.8 <= r <= 2.2 for r in ratios) and abs(rich_err) <= 1e-4
          and jump_err <= 1e-4)
    _line(10, ok,
          f"logistic_mf I_LDP/a^2 {', '.join(f'{x:.6f}' for x in v)} at a = "
          f"{', '.join(f'{a:g}' for a in scales)}; gap ratios "
          f"{ratios[0]:.3f}, {ratios[1]:.3f} (in [1.8, 2.2]); richardson "
          f"{richardson:.7f} vs mdp_rate {target:.7f} (rel {rich_err:+.1e}, tol 1e-4); "
          f"naive {naive:.5f}; pure_jump vs ell(1 + a r) rel {jump_err:.1e} "
          f"(tol 1e-4); {elapsed:.2f}s")
