"""Deviation rate functions: control costs, event specs, and optimizers.

Costs. The Brownian part pays q1 = 1/2 int |phi|^2 dt; the jump part pays
q2 = int sum_j ell(psi_j) nu_j dt with ell(x) = x ln x - x + 1 (ell(0) = 1).
The moderate-regime cost is quadratic in both coordinates,
1/2 int |phi|^2 dt + 1/2 int sum_j tilt_j^2 nu_j dt.

ldp_rate minimizes q1 + q2 over piecewise-constant controls on a coarse cell
grid subject to the event constraint on the skeleton, by an augmented
Lagrangian (smooth one-sided PHR form, multiplier update
lambda <- max(0, lambda + 2 rho g), rho doubled up to a ceiling per round)
whose inner problems are solved with Barzilai-Borwein gradient steps under a
nonmonotone backtracking rule, with psi = exp(theta) keeping tilts positive.
Gradients are exact: the costs are differentiated by hand, and the event
excess by the adjoint of the implicit-trapezoid skeleton map that
solve_ldp_skeleton solves (skeleton.ldp_vjp), so a gradient costs no extra
skeleton solve. A stalled or diverging skeleton scores as infinite: its
Picard iteration raises a NumericError (no sweep within
skeleton._PICARD_TOL after skeleton._PICARD_MAX_ITER, or a non-finite
residual), and that exception is the one way a point scores inf. Several
starts are run and ranked (feasible, cost, residual, start index); each
trace row counts its start's skeleton solves, gradients and ALM rounds.
The ALM and descent settings (penalty schedule, round and iteration caps,
tolerances, the theta clip and the random start scale) are fixed module
constants; OptimizerConfig sets only the starts, the control cells and the
seed.

mdp_rate is exact: the moderate skeleton is linear in the control, so the
cheapest control that steers it to a terminal r is the least-norm solution
u = W^-1 A^T alpha of G alpha = r, G = A W^-1 A^T, from its terminal
response matrix A and the cost weights W. A's d rows come from one reverse
sweep of the trapezoid skeleton map's tangent at the null control, batched
over the unit cotangents: the adjoint that gives ldp_rate its gradients, in
O(steps) memory. Each event kind only picks its cheapest terminal r: a pin
shrinks its target by its tolerance toward the origin in the metric of G,
a halfspace takes max(level, 0) G n / (n^T G n) on its boundary (0 when
n^T G n = 0). One least-squares solve then gives alpha, so a singular G
(noise that reaches only some coordinates) needs no special case. As in
ldp_rate, the result is feasible iff its skeleton's event residual is at
most _FEASIBILITY_TOL, and its value is the cost of the control it returns
(inf when infeasible).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Control, MdpControl, ModelSpec, Path, TimeGrid
from .errors import (
    InvalidArgumentError,
    NumericError,
    UnsupportedError,
)
from .levy import IntensityMeasure
from .skeleton import (
    _adjoint,
    _mdp_coefficients,
    _propagate_mdp,
    ldp_vjp,
    solve_ldp_skeleton,
    solve_limit_ode,
)

__all__ = [
    "ell",
    "q1_cost",
    "q2_cost",
    "mdp_cost",
    "EventSpec",
    "OptimizerConfig",
    "RateResult",
    "ldp_rate",
    "mdp_rate",
]


def ell(x):
    """Jump deviation integrand x ln x - x + 1, extended by ell(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.inf)
    pos = x > 0
    with np.errstate(invalid="ignore"):
        out[pos] = x[pos] * np.log(x[pos]) - x[pos] + 1.0
    out[x == 0] = 1.0
    return out if out.ndim else float(out)


def q1_cost(control: Control) -> float:
    """Brownian control energy 1/2 int |phi|^2 dt."""
    return float(0.5 * np.sum(control.phi**2 * control.grid.dt[:, None]))


def q2_cost(control: Control, intensity: IntensityMeasure | None) -> float:
    """Jump control cost int sum_j ell(psi_j) nu_j dt."""
    if control.n_mark_cells == 0:
        return 0.0
    if intensity is None or intensity.n_cells != control.n_mark_cells:
        raise InvalidArgumentError("q2_cost needs the matching intensity measure")
    vals = ell(control.psi) * intensity.masses
    return float(np.sum(vals * control.grid.dt[:, None]))


def mdp_cost(control: MdpControl, intensity: IntensityMeasure | None) -> float:
    """Moderate-regime energy 1/2 int |phi|^2 dt + 1/2 int tilt^2 dnu dt."""
    dt = control.grid.dt[:, None]
    total = 0.5 * np.sum(control.phi**2 * dt)
    if control.tilt.shape[1]:
        if intensity is None or intensity.n_cells != control.tilt.shape[1]:
            raise InvalidArgumentError("mdp_cost needs the matching intensity measure")
        total += 0.5 * np.sum(control.tilt**2 * intensity.masses * dt)
    return float(total)


# Halfspace sample indicators accept terminals down to
# level - BOUNDARY_ATOL * (1 + |level|).
BOUNDARY_ATOL = 1e-9


def _check_tol(tol, what: str = "tol") -> None:
    """Raise unless tol is None or a finite number >= 0."""
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise InvalidArgumentError(f"{what} must be a finite number >= 0")


@dataclass(frozen=True)
class EventSpec:
    """A deviation event, usable both on skeleton paths and on samples.

    kinds:
      pin_terminal    |x(T) - target| <= tol
      pin_path        sup_t |x(t) - ref(t)| <= tol
      halfspace       normal . x(T) >= level

    Sample indicators of a halfspace are loosened by
    BOUNDARY_ATOL * (1 + |level|) so that laws with an atom exactly on the
    threshold (pure jump counts) are not split by float roundoff.
    """

    kind: str
    target: Optional[np.ndarray] = None
    ref_path: Optional[Path] = None
    normal: Optional[np.ndarray] = None
    level: float = 0.0
    tol: float = 0.0

    @classmethod
    def pin(cls, target, tol: float = 0.0) -> "EventSpec":
        target = np.atleast_1d(np.asarray(target, dtype=float))
        if not np.isfinite(target).all():
            raise InvalidArgumentError("pin target must be finite")
        _check_tol(tol, "pin tolerance")
        return cls(kind="pin_terminal", target=target, tol=float(tol))

    @classmethod
    def pin_path(cls, ref_path: Path, tol: float) -> "EventSpec":
        _check_tol(tol, "pin tolerance")
        return cls(kind="pin_path", ref_path=ref_path, tol=float(tol))

    @classmethod
    def halfspace(cls, normal, level: float) -> "EventSpec":
        normal = np.atleast_1d(np.asarray(normal, dtype=float))
        if not (np.isfinite(normal).all() and np.isfinite(level)):
            raise InvalidArgumentError("halfspace normal and level must be finite")
        if not normal.any():
            raise InvalidArgumentError("halfspace normal must be nonzero")
        return cls(kind="halfspace", normal=normal, level=float(level))

    def check_dim(self, dim: int) -> None:
        """Raise unless the event's target, path or normal has dim components."""
        if self.kind == "pin_terminal":
            what, n = "pin target", self.target.size
        elif self.kind == "pin_path":
            what, n = "event path", self.ref_path.dim
        elif self.kind == "halfspace":
            what, n = "halfspace normal", self.normal.size
        else:
            raise InvalidArgumentError(f"unknown event kind {self.kind!r}")
        if n != dim:
            raise InvalidArgumentError(f"{what} has {n} components, model has {dim}")

    def excess(self, path: Path) -> float:
        """Signed constraint excess g; the event holds iff g <= 0."""
        if self.kind == "pin_terminal":
            return float(np.linalg.norm(path.terminal - self.target) - self.tol)
        if self.kind == "pin_path":
            if path.grid != self.ref_path.grid:
                raise InvalidArgumentError("event path lives on a different grid")
            diff = np.linalg.norm(path.values - self.ref_path.values, axis=1)
            return float(diff.max() - self.tol)
        if self.kind == "halfspace":
            return float(self.level - float(self.normal @ path.terminal))
        raise InvalidArgumentError(f"unknown event kind {self.kind!r}")

    def residual(self, path: Path) -> float:
        return max(0.0, self.excess(path))

    def indicator(self, terminal: np.ndarray, sup_sq=None) -> np.ndarray:
        """Event membership per sample; pin_path consumes running sup_sq."""
        if self.kind == "pin_terminal":
            if self.tol <= 0:
                raise InvalidArgumentError(
                    "sampling a pin event needs a positive tolerance"
                )
            return np.linalg.norm(terminal - self.target, axis=1) <= self.tol
        if self.kind == "pin_path":
            if sup_sq is None:
                raise InvalidArgumentError(
                    "path events need runs recorded against the event's path"
                )
            return sup_sq <= self.tol**2
        if self.kind == "halfspace":
            slack = BOUNDARY_ATOL * (1.0 + abs(self.level))
            return terminal @ self.normal >= self.level - slack
        raise InvalidArgumentError(f"unknown event kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "pin_terminal":
            return f"pin x(T) to {np.ravel(self.target).tolist()} within {self.tol:g}"
        if self.kind == "pin_path":
            return f"pin the whole path within {self.tol:g}"
        return (
            f"halfspace {np.ravel(self.normal).tolist()} . x(T) >= {self.level:g}"
        )


# ALM penalty schedule: rho starts at _RHO0 and grows by _RHO_GROWTH per
# round up to _RHO_MAX, for at most _OUTER_ROUNDS rounds.
_RHO0 = 10.0
_RHO_GROWTH = 2.0
_RHO_MAX = 1e8
_OUTER_ROUNDS = 16
# Barzilai-Borwein inner solve: iteration cap and relative gradient tolerance.
_INNER_ITERS = 80
_GTOL = 1e-7
# Jump tilts are psi = exp(theta), theta clipped to +-_THETA_CLIP.
_THETA_CLIP = 30.0
# A start is feasible when its event excess is at most _FEASIBILITY_TOL.
_FEASIBILITY_TOL = 1e-6
# Starts after the first begin at N(0, _START_SCALE^2) raw parameters.
_START_SCALE = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    n_starts: int = 5
    control_cells: int = 16
    seed: int = 0

    def __post_init__(self):
        if min(self.n_starts, self.control_cells) < 1:
            raise InvalidArgumentError("n_starts and control_cells must be >= 1")


@dataclass
class RateResult:
    value: float
    control: object
    skeleton: Path
    residual: float
    feasible: bool
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "feasible": self.feasible,
            "trace": self.trace,
        }


def _coarse_map(n_fine: int, n_coarse: int) -> np.ndarray:
    """Fine-cell -> coarse-cell index map (contiguous blocks)."""
    return np.minimum((np.arange(n_fine) * n_coarse) // n_fine, n_coarse - 1)


def _excess_cotangent(event: EventSpec, path: Path):
    """(node, vector): the excess moves by vector . dy(t_node) to first order."""
    n = path.grid.n_steps
    if event.kind == "halfspace":
        return n, -np.asarray(event.normal, dtype=float)
    if event.kind == "pin_terminal":
        gap, node = path.terminal - event.target, n
    else:
        diff = path.values - event.ref_path.values
        node = int(np.argmax(np.linalg.norm(diff, axis=1)))
        gap = diff[node]
    norm = float(np.linalg.norm(gap))
    return node, (gap / norm if norm > 0.0 else np.zeros_like(gap))


class _LdpProblem:
    """Objective plumbing shared by all starts of one ldp_rate call.

    Remembers its last evaluated point, so the gradient at an accepted
    line-search point reuses that point's control and skeleton. Counts
    skeleton solves and gradients for the trace.
    """

    def __init__(self, spec, grid, event, config):
        self.spec, self.grid, self.event = spec, grid, event
        self.d = spec.dim
        self.n_cells = spec.n_mark_cells
        self.k = min(config.control_cells, grid.n_steps)
        self.map = _coarse_map(grid.n_steps, self.k)
        # first fine cell of each coarse cell
        self.first_fine = np.searchsorted(self.map, np.arange(self.k))
        self.cell_dt = np.add.reduceat(grid.dt, self.first_fine)
        self.n_params = self.k * (self.d + self.n_cells)
        self.limit = solve_limit_ode(spec, grid)
        self.solves = 0
        self.gradients = 0
        self._last = None

    def expand(self, params: np.ndarray) -> Control:
        k, d, c = self.k, self.d, self.n_cells
        phi = params[: k * d].reshape(k, d)[self.map]
        theta = np.clip(params[k * d :].reshape(k, c), -_THETA_CLIP, _THETA_CLIP)
        return Control(self.grid, phi, np.exp(theta)[self.map])

    def evaluate(self, params: np.ndarray):
        """-> (cost, excess, skeleton path | None); (inf, inf, None) when
        the skeleton solve raises a NumericError."""
        return self._solve(params)[0]

    def _solve(self, params: np.ndarray):
        """-> (evaluate's answer, the Control) at params."""
        if self._last is not None and np.array_equal(self._last[0], params):
            return self._last[1:]
        control = self.expand(params)
        self.solves += 1
        try:
            sol = solve_ldp_skeleton(self.spec, self.grid, control, limit_path=self.limit)
        except NumericError:
            out = (np.inf, np.inf, None)
        else:
            cost = q1_cost(control) + q2_cost(control, self.spec.intensity)
            out = (cost, self.event.excess(sol.path), sol.path)
        self._last = (params.copy(), out, control)
        return out, control

    def gradient(self, params: np.ndarray, weight: float) -> np.ndarray:
        """Gradient of cost + weight * excess in the raw parameters, at a
        point whose cost is finite."""
        self.gradients += 1
        k, d, c = self.k, self.d, self.n_cells
        phi = params[: k * d].reshape(k, d)
        grad = np.empty_like(params)
        grad[: k * d] = (phi * self.cell_dt[:, None]).ravel()
        if c:
            raw = params[k * d :].reshape(k, c)
            theta = np.clip(raw, -_THETA_CLIP, _THETA_CLIP)
            # dpsi/dtheta, flat where theta is clipped; d/dpsi ell(psi) = theta.
            dpsi_dtheta = np.exp(theta) * (np.abs(raw) <= _THETA_CLIP)
            masses = self.spec.intensity.masses
            dtheta = theta * dpsi_dtheta * masses * self.cell_dt[:, None]
        if weight > 0.0:
            (_, _, path), control = self._solve(params)
            node, cotangent = _excess_cotangent(self.event, path)
            dphi, dpsi = ldp_vjp(
                self.spec, self.grid, control, path, self.limit, node, cotangent
            )
            grad[: k * d] += weight * np.add.reduceat(dphi, self.first_fine).ravel()
            if c:
                dpsi = np.add.reduceat(dpsi, self.first_fine)
                dtheta = dtheta + weight * dpsi_dtheta * dpsi
        if c:
            grad[k * d :] = dtheta.ravel()
        return grad


def _alm_objective(problem, lam, rho):
    """The augmented Lagrangian cost + rho max(0, g + lam / 2 rho)^2 as a
    (value, gradient) pair of callables on the raw parameters."""

    def hinge(params):
        cost, g, _ = problem.evaluate(params)
        return cost, max(0.0, g + lam / (2.0 * rho))  # inf with the cost

    def value(params):
        cost, h = hinge(params)
        return cost + rho * h * h

    def gradient(params):
        cost, h = hinge(params)
        if not np.isfinite(cost):
            return np.zeros_like(params)
        return problem.gradient(params, 2.0 * rho * h)

    return value, gradient


def _bb_minimize(value, gradient, params):
    """Barzilai-Borwein descent with a nonmonotone backtracking rule."""
    p = params.copy()
    f = value(p)
    g = gradient(p)
    history = [f]
    step = 1.0 / (np.linalg.norm(g) + 1.0)
    for _ in range(_INNER_ITERS):
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= _GTOL * (1.0 + abs(f)):
            break
        ref = max(history[-5:])
        t = step
        accepted = False
        for _ls in range(40):
            p_new = p - t * g
            f_new = value(p_new)
            if f_new <= ref - 1e-4 * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        g_new = gradient(p_new)
        s = p_new - p
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-16 else min(t * 2.0, 1e8)
        step = float(np.clip(step, 1e-10, 1e8))
        p, f, g = p_new, f_new, g_new
        history.append(f)
    return p, f


def _alm_solve(problem, params0):
    """-> (params, ALM rounds run)."""
    lam, rho = 0.0, _RHO0
    p = params0.copy()
    for rounds in range(1, _OUTER_ROUNDS + 1):
        p, _ = _bb_minimize(*_alm_objective(problem, lam, rho), p)
        _, g, _ = problem.evaluate(p)
        if g <= _FEASIBILITY_TOL and lam > 0.0:
            break
        lam = max(0.0, lam + 2.0 * rho * max(g, -lam / (2.0 * rho)))
        rho = min(rho * _RHO_GROWTH, _RHO_MAX)
    return p, rounds


def ldp_rate(
    spec: ModelSpec,
    grid: TimeGrid,
    event: EventSpec,
    config: OptimizerConfig = OptimizerConfig(),
) -> RateResult:
    """Minimize q1 + q2 over controls whose skeleton realizes the event."""
    event.check_dim(spec.dim)
    problem = _LdpProblem(spec, grid, event, config)
    rng = np.random.default_rng(config.seed)
    candidates = []
    for start in range(config.n_starts):
        if start == 0:
            p0 = np.zeros(problem.n_params)
        else:
            p0 = rng.normal(0.0, _START_SCALE, problem.n_params)
        solves, gradients = problem.solves, problem.gradients
        p, rounds = _alm_solve(problem, p0)
        cost, g, path = problem.evaluate(p)
        counts = {
            "skeleton_solves": problem.solves - solves,
            "gradients": problem.gradients - gradients,
            "alm_rounds": rounds,
        }
        feasible = g <= _FEASIBILITY_TOL
        candidates.append((not feasible, cost, max(g, 0.0), start, p, path, counts))
    candidates.sort(key=lambda row: row[:4])
    # Start 0 begins at the null control, an exact skeleton fixed point, and
    # descent accepts finite points only, so the best row has a path.
    infeasible, cost, residual, start, p, path, _ = candidates[0]
    trace = [
        {
            "start": s,
            "feasible": not bad,
            "cost": c,
            "residual": r,
            "selected": s == start,
            **counts,
        }
        for bad, c, r, s, _, _, counts in sorted(candidates, key=lambda row: row[3])
    ]
    return RateResult(
        value=float(cost),
        control=problem.expand(p),
        skeleton=path,
        residual=float(residual),
        feasible=not infeasible,
        trace=trace,
    )


def _mdp_response(spec: ModelSpec, grid: TimeGrid, coeffs=None):
    """Terminal response A (d, n_controls) of the moderate skeleton and the
    quadratic cost weights w (n_controls,), controls stacked phi then tilt.
    coeffs is _mdp_coefficients(spec, grid), built here when not given."""
    d, c = spec.dim, spec.n_mark_cells
    if coeffs is None:
        coeffs = _mdp_coefficients(spec, grid)
    dphi, dpsi = _adjoint(coeffs, np.eye(d))
    a_mat = np.concatenate([dphi, dpsi], axis=2).reshape(d, -1)
    masses = spec.intensity.masses if c else np.zeros(0)
    w = (grid.dt[:, None] * np.concatenate([np.ones(d), masses])).ravel()
    return a_mat, w


def _shrink_pin_target(r: np.ndarray, gram: np.ndarray, tol: float) -> np.ndarray:
    """Replace r by the cheapest point of the ball |r' - r| <= tol, cost
    measured by the quadratic form 1/2 r'^T gram^+ r'; gram may be singular."""
    norm = float(np.linalg.norm(r))
    if tol <= 0.0 or norm == 0.0:
        return r
    if norm <= tol:
        return np.zeros_like(r)
    if r.size == 1:
        return np.sign(r) * (norm - tol)
    # KKT: r'(mu) = mu gram (I + mu gram)^-1 r; |r'(mu) - r| = tol.
    eye = np.eye(r.size)

    def shrink(mu: float) -> np.ndarray:
        return mu * gram @ np.linalg.solve(eye + mu * gram, r)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(shrink(hi) - r) > tol:
        hi *= 2.0
        if hi > 1e16:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(shrink(mid) - r) > tol:
            lo = mid
        else:
            hi = mid
    return shrink(0.5 * (lo + hi))


def mdp_rate(spec: ModelSpec, grid: TimeGrid, event: EventSpec) -> RateResult:
    """Exact least-norm value of the moderate rate function for the event.

    The moderate skeleton starts at 0, so pin targets and halfspace levels
    are read in fluctuation coordinates. The result is feasible iff the
    least-norm control's skeleton realizes the event; otherwise its value
    is inf and it carries that control and its residual.
    """
    event.check_dim(spec.dim)
    if event.kind == "pin_path":
        raise UnsupportedError(
            "moderate path pins are not supported; use a terminal pin"
        )
    coeffs = _mdp_coefficients(spec, grid)
    a_mat, w = _mdp_response(spec, grid, coeffs=coeffs)
    d, n, c = spec.dim, grid.n_steps, spec.n_mark_cells
    gram = (a_mat / w) @ a_mat.T  # A W^-1 A^T, (d, d)
    if event.kind == "pin_terminal":
        r = _shrink_pin_target(np.reshape(event.target, (d,)), gram, event.tol)
    else:
        # the cheapest terminal on the boundary lies along gram n
        normal = np.reshape(event.normal, (d,))
        reach = gram @ normal
        denom = float(normal @ reach)
        r = max(event.level, 0.0) * reach / denom if denom > 0.0 else np.zeros(d)
    alpha, *_ = np.linalg.lstsq(gram, r, rcond=None)
    stacked = ((a_mat.T @ alpha) / w).reshape(n, d + c)
    control = MdpControl(grid, stacked[:, :d], stacked[:, d:])
    path = Path(grid, _propagate_mdp(spec, grid, control.phi, control.tilt, coeffs=coeffs))
    residual = event.residual(path)
    feasible = residual <= _FEASIBILITY_TOL
    return RateResult(
        value=mdp_cost(control, spec.intensity) if feasible else np.inf,
        control=control,
        skeleton=path,
        residual=residual,
        feasible=feasible,
        trace=[{"method": "least_norm"}],
    )
