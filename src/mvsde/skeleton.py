"""Deterministic limit dynamics and controlled skeleton equations.

The limit ODE couples the law as the running point mass, x' = b(t, x, d_x).
The large-deviation skeleton for a control (phi, psi) solves

    y(t) = x0 + int_0^t [ b(s, y, d_xbar) + sigma(s, y, d_xbar) phi(s)
                         + sum_j G(s, y, d_xbar, z_j) (psi(s, z_j) - 1) nu_j ] ds

with the law frozen at the limit path xbar. It is computed in deviation form,
y = xbar + (integral of the difference against the limit drift), so the null
control is an exact fixed point of the Picard map and the discretization
error of the limit path does not leak into the correction term.

The Picard iteration runs until two sweeps differ by at most _PICARD_TOL
(1e-10) in sup norm, for at most _PICARD_MAX_ITER (200) sweeps, both read
at call time. It fails in one way, by raising: a non-finite residual raises
DivergenceError at that sweep, and a sweep cap reached above the tolerance
raises NoConvergenceError.

The moderate-deviation skeleton is the linearization of the large-deviation
skeleton at the null control: m' = A(t) m + sigma(t) phi + sum_j G(t, z_j)
tilt_j nu_j with A(t) = d_x b(t, xbar, d_xbar), the law again frozen at the
limit. The particle law sits O(sqrt(eps)) from d_xbar, so its derivative
term is O(sqrt(eps) / a) and vanishes in the moderate window.

One linear-response operator serves both regimes: the tangent of the
discrete (implicit-trapezoid) skeleton map, built cell by cell in
_cell_maps. Its exact reverse sweep (_adjoint) gives the rate optimizer's
gradients (ldp_vjp) and, at the null control, where the state jacobian is
A, the rows of the moderate terminal response; the forward recursion
(_propagate_mdp) only solves the moderate skeleton for one control.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Control, LawSummary, MdpControl, ModelSpec, Path, TimeGrid, check_control,
    null_control,
)
from .errors import DivergenceError, GridMismatchError, NoConvergenceError

__all__ = [
    "SkeletonSolution",
    "solve_limit_ode",
    "solve_ldp_skeleton",
    "jacobian_b_x",
    "ldp_vjp",
    "solve_mdp_skeleton",
]

_DIVERGENCE_LIMIT = 1e10
_PICARD_MAX_ITER = 200
_PICARD_TOL = 1e-10


@dataclass(frozen=True)
class SkeletonSolution:
    path: Path
    iterations: int
    residual: float


def _field(spec: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    """Point-mass-coupled drift field B(t, x) = b(t, x, d_x) for one state."""
    out = spec.drift(t, x[None, :], LawSummary.dirac(x))
    return np.reshape(np.asarray(out, dtype=float), (spec.dim,))


def _guard(x: np.ndarray, step: int, what: str = "limit dynamics"):
    """x's min and max, in two passes and no temporary; DivergenceError when
    an entry is NaN or beyond _DIVERGENCE_LIMIT (read at call time)."""
    hi, lo = x.max(), x.min()
    if not (hi <= _DIVERGENCE_LIMIT and lo >= -_DIVERGENCE_LIMIT):
        raise DivergenceError(f"{what} diverged at step {step}", step=step)
    return lo, hi


def solve_limit_ode(spec: ModelSpec, grid: TimeGrid) -> Path:
    """Integrate the limit ODE with two fourth-order stages per grid cell."""
    n, d = grid.n_steps, spec.dim
    x = spec.initial.copy()
    nodes = np.empty((n + 1, d))
    nodes[0] = x
    dts = grid.dt
    for k in range(n):
        t0, dt = float(grid.nodes[k]), float(dts[k])
        for half in range(2):
            ta = t0 + 0.5 * dt * half
            h = 0.5 * dt
            k1 = _field(spec, ta, x)
            k2 = _field(spec, ta + 0.5 * h, x + 0.5 * h * k1)
            k3 = _field(spec, ta + 0.5 * h, x + 0.5 * h * k2)
            k4 = _field(spec, ta + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _guard(x, k)
        nodes[k + 1] = x
    return Path(grid, nodes)


def _matvec(mat: np.ndarray, vec: np.ndarray, out=None) -> np.ndarray:
    """Apply (d,d) or (n,d,d) matrices to (n,d) row vectors, into out if given."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape == (1, 1):
        return np.multiply(vec, mat, out=out)
    if mat.ndim == 2:
        return np.matmul(vec, mat.T, out=out)
    return np.einsum("nij,nj->ni", mat, vec, out=out)


def _coefficients(spec: ModelSpec, t, y: np.ndarray, law: LawSummary):
    """Drift (n, d), diffusion ((d, d) or (n, d, d)) and the jump columns
    (n, C, d), one per mark atom, at a row batch y of states."""
    n, d = y.shape
    b = spec.drift_rows(t, y, law)
    sig = np.asarray(spec.diffusion(t, y, law), dtype=float)
    atoms = spec.intensity.atoms if spec.has_jumps else ()
    g = np.zeros((n, len(atoms), d))
    for j, z in enumerate(atoms):
        g[:, j] = spec.jump_rows(t, y, law, z)
    return b, sig, g


def solve_ldp_skeleton(
    spec: ModelSpec,
    grid: TimeGrid,
    control: Control,
    limit_path: Path | None = None,
) -> SkeletonSolution:
    """Picard iteration for the controlled skeleton, law frozen at the limit."""
    check_control(control, spec, grid)
    if limit_path is None:
        limit_path = solve_limit_ode(spec, grid)
    elif limit_path.grid != grid:
        raise GridMismatchError("limit path lives on a different grid")
    xbar = limit_path.values
    t = grid.nodes
    dt = grid.dt[:, None]
    law = LawSummary.dirac(xbar)
    b_base = spec.drift_rows(t, xbar, law)
    phi = control.phi
    tilt_w = (control.psi - 1.0) * spec.intensity.masses if spec.has_jumps else None

    y = xbar.copy()
    # a diverging sweep overflows; its non-finite residual raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, _PICARD_MAX_ITER + 1):
            b, sig, g_nodes = _coefficients(spec, t, y, law)
            f = b - b_base
            sig_lo, sig_hi = (sig, sig) if sig.ndim == 2 else (sig[:-1], sig[1:])
            # phi is constant on each cell, so it multiplies both cell endpoints.
            f_lo = f[:-1] + _matvec(sig_lo, phi)
            f_hi = f[1:] + _matvec(sig_hi, phi)
            if spec.has_jumps:
                f_lo = f_lo + np.einsum("ncd,nc->nd", g_nodes[:-1], tilt_w)
                f_hi = f_hi + np.einsum("ncd,nc->nd", g_nodes[1:], tilt_w)
            increments = 0.5 * dt * (f_lo + f_hi)
            y_new = xbar.copy()
            y_new[1:] += np.cumsum(increments, axis=0)
            residual = float(np.max(np.abs(y_new - y)))  # NaN if any entry is
            y = y_new
            if residual <= _PICARD_TOL:
                return SkeletonSolution(Path(grid, y), iterations, residual)
            if not math.isfinite(residual):
                raise DivergenceError(
                    f"skeleton Picard iteration diverged at sweep {iterations}"
                )
    raise NoConvergenceError(
        f"skeleton Picard iteration stalled at residual {residual:.3e}",
        residual=residual,
    )


def jacobian_b_x(
    spec: ModelSpec,
    t,
    x: np.ndarray,
    law: LawSummary | None = None,
    phi: np.ndarray | None = None,
    tilt_w: np.ndarray | None = None,
) -> np.ndarray:
    """State jacobian of the controlled drift b + sigma phi + sum_j G_j tilt_w_j
    by central differences, the law frozen while the state moves.

    x is one state (d,), giving (d, d), or a row batch (n, d) with t a scalar
    or (n,) array, giving (n, d, d). The law defaults to the point mass on x
    and the control (phi (n, d), tilt_w (n, C)) to none, giving
    d_x b(t, x, d_x), the moderate skeleton's A on the limit path; _cell_maps
    passes the skeleton's control and the law frozen at the limit path.
    """
    x = np.asarray(x, dtype=float)
    rows = np.reshape(x, (-1, spec.dim))
    n, d = rows.shape
    if law is None:
        law = LawSummary.dirac(rows)

    def field(y: np.ndarray) -> np.ndarray:
        if phi is None:
            return spec.drift_rows(t, y, law)
        b, sig, g = _coefficients(spec, t, y, law)
        return b + _matvec(sig, phi) + np.einsum("ncd,nc->nd", g, tilt_w)

    h = 1e-6 * (1.0 + np.abs(rows))
    jac = np.empty((n, d, d))
    for i in range(d):
        step = np.zeros((n, d))
        step[:, i] = h[:, i]
        jac[:, :, i] = (field(rows + step) - field(rows - step)) / (2.0 * h[:, i, None])
    return jac if x.ndim > 1 else jac[0]


def _cell_maps(
    spec: ModelSpec,
    grid: TimeGrid,
    control: Control,
    path: Path,
    limit_path: Path,
    node: int,
):
    """Tangent of the implicit-trapezoid skeleton map along the control's
    skeleton path (law frozen at limit_path), for cells 0..node-1: cell k
    solves (I - dt/2 J_hi) dy_{k+1} = (I + dt/2 J_lo) dy_k + dt/2 (F_lo +
    F_hi)_u du_k, J = d_y [b + sigma phi_k + sum_j G_j (psi_kj - 1) nu_j] at
    its end nodes. Returns the step maps (I - dt/2 J_hi)^-1 (I + dt/2 J_lo),
    the inverses (I - dt/2 J_hi)^-1 and the control columns
    dt/2 (sigma_lo + sigma_hi), all (node, d, d), and dt/2 (G_lo + G_hi) nu
    (node, C, d).
    """
    n, d, c = grid.n_steps, spec.dim, spec.n_mark_cells
    masses = spec.intensity.masses if c else np.zeros(0)
    # Rows 0..n-1 are the cells' left ends, rows n..2n-1 their right ends.
    ends = np.concatenate([np.arange(n), np.arange(1, n + 1)])
    t, y = grid.nodes[ends], path.values[ends]
    law = LawSummary.dirac(limit_path.values[ends])
    phi = np.concatenate([control.phi, control.phi])
    tilt_w = np.concatenate([(control.psi - 1.0) * masses] * 2)
    jac = jacobian_b_x(spec, t, y, law, phi, tilt_w)
    _, sig, g = _coefficients(spec, t, y, law)
    sig = np.broadcast_to(sig, (2 * n, d, d))

    lo, hi = slice(0, node), slice(n, n + node)
    half = 0.5 * grid.dt[:node, None, None]
    eye = np.eye(d)
    eyes = np.broadcast_to(eye, (node, d, d))
    maps = np.linalg.solve(
        eye - half * jac[hi], np.concatenate([eye + half * jac[lo], eyes], axis=2)
    )
    col_phi = half * (sig[lo] + sig[hi])
    col_psi = half * (g[lo] + g[hi]) * masses[:, None]
    return maps[..., :d], maps[..., d:], col_phi, col_psi


def ldp_vjp(
    spec: ModelSpec,
    grid: TimeGrid,
    control: Control,
    path: Path,
    limit_path: Path,
    node: int,
    cotangent: np.ndarray,
):
    """Gradient of cotangent . y(t_node) in the fine-cell controls, where y is
    the skeleton path of the control (the fixed point solve_ldp_skeleton
    returns) and limit_path the limit it froze the law at.

    Runs the tangent of the implicit-trapezoid map itself (_cell_maps) in
    reverse (_adjoint), so nothing loops over steps. Returns dphi
    (n_steps, d) and dpsi (n_steps, C), zero past node.
    """
    n, d, c = grid.n_steps, spec.dim, spec.n_mark_cells
    dphi, dpsi = np.zeros((n, d)), np.zeros((n, c))
    if node > 0:
        maps = _cell_maps(spec, grid, control, path, limit_path, node)
        dphi[:node], dpsi[:node] = _adjoint(maps, cotangent)
    return dphi, dpsi


def _adjoint(maps, cotangent: np.ndarray):
    """Reverse sweep of the tangent maps (_cell_maps): gradients dphi
    (..., node, d) and dpsi (..., node, C) of cotangent . dy(t_node), for one
    (d,) cotangent or an (r, d) batch. The step maps' suffix products come
    from a doubling scan (log2(node) batched matmuls) on a copy of them."""
    step, inv, col_phi, col_psi = maps
    node, d = step.shape[0], step.shape[1]
    step = step.copy()
    # Suffix products: step[k] becomes step[node-1] @ ... @ step[k].
    shift = 1
    while shift < node:
        step[:-shift] = step[shift:] @ step[:-shift]
        shift *= 2
    adjoint = np.empty(cotangent.shape[:-1] + (node, d))  # adjoint of dy_{k+1}
    adjoint[..., -1, :] = cotangent
    adjoint[..., :-1, :] = np.einsum("kij,...i->...kj", step[1:], cotangent)
    source = np.einsum("kij,...ki->...kj", inv, adjoint)
    dphi = np.einsum("kij,...ki->...kj", col_phi, source)
    return dphi, np.einsum("kcd,...kd->...kc", col_psi, source)


def _mdp_coefficients(spec: ModelSpec, grid: TimeGrid):
    """The skeleton map's tangent maps (_cell_maps) at the null control along
    the limit path, where J is A = d_x b(t, xbar, d_xbar)."""
    limit_path = solve_limit_ode(spec, grid)
    null = null_control(grid, spec.dim, spec.n_mark_cells)
    return _cell_maps(spec, grid, null, limit_path, limit_path, grid.n_steps)


def _propagate_mdp(
    spec: ModelSpec,
    grid: TimeGrid,
    phi: np.ndarray,
    tilt: np.ndarray,
    coeffs,
) -> np.ndarray:
    """Forward tangent recursion of the linear moderate skeleton,
    m_{k+1} = step_k m_k + inv_k (col_phi_k phi_k + col_psi_k^T tilt_k).

    phi (n_steps, d) and tilt (n_steps, C) are cellwise constant controls;
    returns the (n_steps + 1, d) solution. coeffs is _mdp_coefficients.
    """
    step, inv, col_phi, col_psi = coeffs
    m = np.zeros((grid.n_steps + 1, spec.dim))
    for k in range(grid.n_steps):
        source = phi[k] @ col_phi[k].T + tilt[k] @ col_psi[k]
        m[k + 1] = m[k] @ step[k].T + source @ inv[k].T
    return m


def solve_mdp_skeleton(
    spec: ModelSpec, grid: TimeGrid, control: MdpControl
) -> Path:
    """Solve the moderate skeleton m' = A m + sigma phi + G tilt nu, m(0)=0."""
    check_control(control, spec, grid)
    coeffs = _mdp_coefficients(spec, grid)
    m = _propagate_mdp(spec, grid, control.phi, control.tilt, coeffs)
    return Path(grid, m)
