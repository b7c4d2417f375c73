"""Monte Carlo verification of the deviation asymptotics.

For a rare event E and speed h(eps) (h = eps in the small-noise regime,
h = eps / a(eps)^2 in the moderate regime), the statistic y = -h ln p_hat
approaches the rate of E as eps -> 0, with a prefactor expansion
y = I + c1 h + c2 h ln h + o(h). The extrapolated intercept is read off by
weighted least squares, choosing the basis by what the data can support:

  rare_prefactor   all p_hat <= 0.25, every point >= 50 hits, >= 3 points:
                   fit {1, h, h ln h}.
  sparse_corrected some point has < 50 hits: subtract the universal
                   1/2 h ln(1/h) prefactor term, then fit {1, h}.
  plain_linear     events not rare at the largest eps (p_hat > 0.25):
                   fit {1, h}.

Zero-hit points cannot produce a statistic; they are dropped from the fit
and flagged as censored. Weights come from the binomial delta rule
se(y) = h sqrt((1 - p_hat) / (n p_hat)).

The rungs of every ladder are lanes of dynamics.simulate_lanes from one
ladder seed, derive_seed(seed, label): common random numbers, which narrow
the spread of the intercept (the fit weights still treat the rungs as
independent). A rung is bit-identical to its solo run from the ladder seed
when its rate bound is the ladder's (every rung without jumps, the
smallest-eps rung with them). check_controlled_convergence runs 2k lanes
for k rungs: the plain lanes, then one frozen-law lane per rung that reads
the plain lane of its eps by index. The ladders accept jobs (an integer
>= 1) but do not use it, and it changes neither the work nor any result:
one simulation over all the rungs draws each step's increments once, while
splitting the rungs into thread groups that each draw them again cost
8.6 % more peak memory for 9 % less wall time (3-rung ladder, N = 1e5,
2 vCPUs). The second core serves the simulation itself instead: a worker
thread draws the next step's Brownian block while the rungs move, and the
main thread draws the bands of the block (rng.BrownianBands: row bands
from rng._BANDED_MIN normals on, else the whole block) that the worker has
not reached when the rungs are done first; each band has its own
generator, so the bits do not depend on which thread drew it. It costs one
extra (N, d) block; blocks below dynamics._READ_AHEAD_MIN normals are
drawn inline.
The second core also serves the target: check_ldp and check_mdp take it
as a number or as a zero-argument callable, called once after the
simulation, and the CLI's --target auto passes one that waits for a forked
process computing the rate while the ladder runs; until that process ends,
the read-ahead worker shares the second core with it.

The limit check's terminal W2 distance to the point mass at xbar(T) is the
closed form sqrt(mean_i |X_i(T) - xbar(T)|^2): every coupling costs the same.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Control, ModelSpec, TimeGrid
from .dynamics import (
    Lane,
    _euler_limit_path,
    _moderate_lane,
    simulate_controlled_frozen,  # noqa: F401 -- perfbench/tracing.py wraps it here
    simulate_controlled_selfconsistent,  # noqa: F401 -- perfbench/tracing.py wraps it here
    simulate_lanes,
    simulate_mdp_controlled,  # noqa: F401 -- perfbench/tracing.py wraps it here
    simulate_mvsde,  # noqa: F401 -- perfbench/tracing.py wraps it here
)
from .errors import InvalidArgumentError
from .rate import BOUNDARY_ATOL, EventSpec, _check_tol
from .rng import derive_seed
from .skeleton import solve_ldp_skeleton, solve_limit_ode

__all__ = [
    "SlopeRow",
    "SlopeReport",
    "ConvergenceReport",
    "DemoReport",
    "fit_rate_extrapolation",
    "check_ldp",
    "check_mdp",
    "check_limit_convergence",
    "check_controlled_convergence",
    "demo_frozen_vs_selfconsistent",
]


@dataclass
class SlopeRow:
    eps: float
    speed: float
    n_samples: int
    hits: int
    p_hat: float
    stat: float
    stderr: float
    censored: bool
    a: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.a is None:
            del out["a"]
        return out


@dataclass
class SlopeReport:
    kind: str
    event: str
    rows: list
    fit_method: str
    intercept: float
    target: float | None
    tol: float | None
    passed: bool | None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "rows": [r.to_dict() for r in self.rows]}


def _wls(design: np.ndarray, y: np.ndarray, se: np.ndarray):
    w = 1.0 / np.maximum(se, 1e-12)
    coef, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    return coef


def fit_rate_extrapolation(rows: list) -> tuple[str, float, dict]:
    """Extrapolate the rate from slope rows; returns (method, intercept, details)."""
    usable = [r for r in rows if not r.censored]
    censored = [r.eps for r in rows if r.censored]
    details: dict = {"censored_eps": censored, "n_used": len(usable)}
    if len(usable) < 2:
        return "insufficient", float("nan"), details
    h = np.array([r.speed for r in usable])
    y = np.array([r.stat for r in usable])
    se = np.array([r.stderr for r in usable])
    p = np.array([r.p_hat for r in usable])
    hits = np.array([r.hits for r in usable])

    if np.any(p > 0.25):
        method = "plain_linear"
        design = np.stack([np.ones_like(h), h], axis=1)
        coef = _wls(design, y, se)
    elif np.all(hits >= 50) and len(usable) >= 3:
        method = "rare_prefactor"
        design = np.stack([np.ones_like(h), h, h * np.log(h)], axis=1)
        coef = _wls(design, y, se)
    else:
        method = "sparse_corrected"
        y_adj = y - 0.5 * h * np.log(1.0 / h)
        design = np.stack([np.ones_like(h), h], axis=1)
        coef = _wls(design, y_adj, se)
    details["coefficients"] = coef.tolist()
    return method, float(coef[0]), details


def _run_ladder(spec, grid, lanes, n_particles, seed, label) -> list:
    """Run the rungs as lockstep lanes of one simulation from the ladder seed."""
    return simulate_lanes(spec, grid, lanes, n_particles, derive_seed(seed, label))


def _add_warnings(details: dict, ensembles) -> dict:
    """details with the rungs' warnings under "warnings", when there are any."""
    warnings = [w for ens in ensembles for w in ens.meta["warnings"]]
    if warnings:
        details["warnings"] = warnings
    return details


def _slope_report(kind, event, ensembles, speeds, scale_a, target, tol) -> SlopeReport:
    """Slope rows of the rungs' ensembles at the given speeds (and moderate
    scales a, or None), their extrapolated fit, and the gate at target (a
    number, a zero-argument callable that returns it, or None)."""
    rows = []
    for ens, h, a in zip(ensembles, speeds, scale_a):
        n = ens.n_particles
        hits = int(np.count_nonzero(event.indicator(ens.terminal, ens.sup_sq)))
        p_hat = hits / n
        if hits > 0:
            stat = -h * np.log(p_hat)
            stderr = h * float(np.sqrt((1.0 - p_hat) / (n * p_hat)))
        else:
            stat, stderr = float("nan"), float("nan")
        rows.append(SlopeRow(
            ens.eps, float(h), n, hits, p_hat, stat, stderr, hits == 0,
            None if a is None else float(a),
        ))
    method, intercept, details = fit_rate_extrapolation(rows)
    if event.kind == "halfspace":
        details["boundary_gap_per_eps"] = _boundary_gaps(event, [e.terminal for e in ensembles])
    _add_warnings(details, ensembles)
    passed = None
    if callable(target):
        target = float(target())
    if target is not None:
        tol = 0.05 if tol is None else tol
        passed = bool(np.isfinite(intercept) and abs(intercept - target) <= tol)
    return SlopeReport(
        kind, event.describe(), rows, method, intercept, target, tol, passed, details
    )


def _boundary_gaps(event: EventSpec, terminals: list) -> list:
    """Hit-count gap between the closed and open threshold conventions."""
    slack = BOUNDARY_ATOL * (1.0 + abs(event.level))
    gaps = []
    for terminal in terminals:
        proj = terminal @ event.normal
        gaps.append(int(np.sum(proj >= event.level - slack) - np.sum(proj >= event.level + slack)))
    return gaps


def _validate_eps_list(eps_list) -> list:
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise InvalidArgumentError("verification needs at least two eps values")
    if any(e <= 0 for e in eps_list):
        raise InvalidArgumentError("eps values must be positive")
    if len(set(eps_list)) < len(eps_list):
        raise InvalidArgumentError("eps values must be distinct")
    return sorted(eps_list, reverse=True)


def _check_jobs(jobs) -> None:
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise InvalidArgumentError(f"jobs must be an integer >= 1, not {jobs!r}")


def check_ldp(
    spec: ModelSpec,
    grid: TimeGrid,
    eps_list,
    event: EventSpec,
    n_particles: int,
    seed: int,
    target: float | Callable[[], float] | None = None,
    tol: float | None = None,
    jobs: int = 1,
) -> SlopeReport:
    """Estimate the small-noise rate of an event by slope extrapolation.
    A callable target is called once, after the simulation."""
    eps_list = _validate_eps_list(eps_list)
    _check_jobs(jobs)
    _check_tol(tol)
    event.check_dim(spec.dim)
    lanes = [Lane(eps, reference=event.ref_path) for eps in eps_list]
    ensembles = _run_ladder(spec, grid, lanes, n_particles, seed, "check_ldp")
    return _slope_report(
        "ldp", event, ensembles, eps_list, [None] * len(eps_list), target, tol
    )


def check_mdp(
    spec: ModelSpec,
    grid: TimeGrid,
    eps_list,
    event: EventSpec,
    n_particles: int,
    seed: int,
    a_exp: float = 0.25,
    target: float | Callable[[], float] | None = None,
    tol: float | None = None,
    jobs: int = 1,
) -> SlopeReport:
    """Estimate the moderate rate of a fluctuation event, a(eps) = eps^a_exp.

    The event is read in fluctuation coordinates M = (X - xbar) / a; samples
    come from the particle system under the null control. A callable target
    is called once, after the simulation.
    """
    eps_list = _validate_eps_list(eps_list)
    _check_jobs(jobs)
    _check_tol(tol)
    event.check_dim(spec.dim)
    if not (0.0 < a_exp < 0.5):
        raise InvalidArgumentError(
            "a_exp must lie in (0, 1/2): a -> 0 with eps/a^2 -> 0"
        )
    scale_a = [e**a_exp for e in eps_list]
    speeds = [e / a**2 for e, a in zip(eps_list, scale_a)]

    xbar = _euler_limit_path(spec, grid)
    rungs = [
        _moderate_lane(spec, grid, eps, a, None, xbar, reference=event.ref_path)
        for eps, a in zip(eps_list, scale_a)
    ]
    ensembles = _run_ladder(
        spec, grid, [lane for lane, _ in rungs], n_particles, seed, "check_mdp"
    )
    ensembles = [to_fluctuation(ens) for (_, to_fluctuation), ens in zip(rungs, ensembles)]
    return _slope_report("mdp", event, ensembles, speeds, scale_a, target, tol)


@dataclass
class ConvergenceReport:
    kind: str
    eps: list
    values: list
    slope: float
    log_intercept: float
    expected_slope: float
    tol: float
    passed: bool
    details: dict = field(default_factory=dict)


def _convergence_report(kind, eps_list, rungs, tol, details) -> ConvergenceReport:
    """The log-log slope of the rungs' mean sup_sq against eps, gated at
    1 +/- tol."""
    values = [float(ens.sup_sq.mean()) for ens in rungs]
    slope, intercept = (float(c) for c in np.polyfit(np.log(eps_list), np.log(values), 1))
    return ConvergenceReport(
        kind, list(eps_list), values, slope, intercept, 1.0, tol,
        bool(abs(slope - 1.0) <= tol), _add_warnings(details, rungs),
    )


def check_limit_convergence(
    spec: ModelSpec,
    grid: TimeGrid,
    eps_list,
    n_particles: int,
    seed: int,
    tol: float = 0.2,
    jobs: int = 1,
) -> ConvergenceReport:
    """Check E[sup_t |X - xbar|^2] = O(eps) along the given eps ladder, and
    report W2(X(T), delta_xbar(T)) = sqrt(mean_i |X_i(T) - xbar(T)|^2)."""
    eps_list = _validate_eps_list(eps_list)
    _check_jobs(jobs)
    _check_tol(tol)
    limit = solve_limit_ode(spec, grid)
    lanes = [Lane(eps, reference=limit) for eps in eps_list]
    ensembles = _run_ladder(spec, grid, lanes, n_particles, seed, "check_limit")
    w2_terminal = [
        float(np.sqrt(np.mean(np.sum((ens.terminal - limit.terminal) ** 2, axis=1))))
        for ens in ensembles
    ]
    return _convergence_report(
        "limit_convergence", eps_list, ensembles, tol,
        {"terminal_w2_to_limit": w2_terminal},
    )


def check_controlled_convergence(
    spec: ModelSpec,
    grid: TimeGrid,
    eps_list,
    control: Control,
    n_particles: int,
    seed: int,
    tol: float = 0.35,
) -> ConvergenceReport:
    """Check that the frozen-law controlled system tracks its skeleton:
    E[sup_t |Xbar - skeleton|^2] -> 0 at a rate close to O(eps). Rung i is
    a frozen lane on the plain lane i of its eps."""
    eps_list = _validate_eps_list(eps_list)
    _check_tol(tol)
    skeleton = solve_ldp_skeleton(spec, grid, control).path
    lanes = [Lane(eps) for eps in eps_list]
    lanes += [Lane(eps, control, i, skeleton) for i, eps in enumerate(eps_list)]
    ensembles = _run_ladder(spec, grid, lanes, n_particles, seed, "check_controlled")
    return _convergence_report(
        "controlled_convergence", eps_list, ensembles[len(eps_list):], tol,
        {"control_event": "frozen-law tracking"},
    )


_DEMO_TOL = 5e-3
_DEMO_MIN_GAP = 0.5


@dataclass
class DemoReport:
    eps: float
    n_particles: int
    n_steps: int
    seed: int
    frozen_center: float
    selfconsistent_center: float
    frozen_target: float
    selfconsistent_target: float
    skeleton_terminal: float
    tol: float
    min_gap: float
    gap: float
    frozen_ok: bool
    selfconsistent_separates: bool
    gap_ok: bool
    passed: bool
    narrative: list


def demo_frozen_vs_selfconsistent(
    eps: float = 1e-4,
    n_particles: int = 10_000,
    n_steps: int = 800,
    seed: int = 7,
) -> DemoReport:
    """Show, on the mean-field pull model, why the controlled system must
    freeze the law of the UNCONTROLLED solution.

    With the unit Brownian control, the skeleton (law frozen at the limit
    flow exp(t)) ends at e + 1. Freezing the law of the uncontrolled cloud
    reproduces that center. Letting the controlled cloud feed its own law
    back into the drift compounds the control through the interaction and
    lands at 2e - 1 instead: a different deterministic object, not the one
    the deviation bounds are about. The three clouds (uncontrolled, frozen on
    it, self-consistent) step in lockstep over one set of draws, so the gap
    is pure law-coupling, not noise, and memory is O(N), not O(N x steps).
    The report passes when each center is within 5e-3 of its target and the
    two centers are at least 0.5 apart.
    """
    from .models import get_model
    from .core import make_time_grid

    spec = get_model("example11")
    grid = make_time_grid(1.0, n_steps)
    control = Control(grid, np.ones((n_steps, 1)), np.ones((n_steps, 0)))
    lanes = [Lane(eps), Lane(eps, control, 0), Lane(eps, control, "self")]
    reference, frozen, selfc = simulate_lanes(spec, grid, lanes, n_particles, seed)
    skeleton = solve_ldp_skeleton(spec, grid, control).path
    frozen_center = float(frozen.terminal.mean())
    self_center = float(selfc.terminal.mean())
    frozen_target = float(np.e + 1.0)
    self_target = float(2.0 * np.e - 1.0)
    gap = abs(self_center - frozen_center)
    frozen_ok = abs(frozen_center - frozen_target) <= _DEMO_TOL
    self_sep = abs(self_center - self_target) <= _DEMO_TOL
    gap_ok = gap >= _DEMO_MIN_GAP
    passed = frozen_ok and self_sep and gap_ok
    narrative = [
        f"uncontrolled mean ends near e = {np.e:.6f} "
        f"(measured {float(reference.terminal.mean()):.6f})",
        f"frozen-law controlled center {frozen_center:.6f} matches the "
        f"skeleton terminal {float(skeleton.terminal[0]):.6f} "
        f"(theory e + 1 = {frozen_target:.6f})",
        f"self-consistent controlled center {self_center:.6f} matches "
        f"2e - 1 = {self_target:.6f}: the control leaks into the law and "
        "compounds through the interaction",
        "the deviation principles quantify the frozen-law object; the "
        f"self-consistent lane sits {gap:.3f} away from it and is the wrong "
        "equation for rate evaluation",
    ]
    return DemoReport(
        eps=float(eps),
        n_particles=n_particles,
        n_steps=n_steps,
        seed=int(seed),
        frozen_center=frozen_center,
        selfconsistent_center=self_center,
        frozen_target=frozen_target,
        selfconsistent_target=self_target,
        skeleton_terminal=float(skeleton.terminal[0]),
        tol=_DEMO_TOL,
        min_gap=_DEMO_MIN_GAP,
        gap=gap,
        frozen_ok=frozen_ok,
        selfconsistent_separates=self_sep,
        gap_ok=gap_ok,
        passed=passed,
        narrative=narrative,
    )
