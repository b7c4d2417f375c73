"""Interacting particle systems under small Brownian and Poisson noise.

One Euler engine (simulate_lanes) drives every lane; the lanes differ only
in where each step reads its law (the lane's own cloud, the cloud of the
companion lane 0, or a frozen flow) and in which control they apply. The
plain system is literally the controlled engine fed the null control, so
plain and null-controlled runs from one seed agree bit for bit.

Several lanes step in lockstep over one set of draws per step: they share
one Brownian increment and one jump proposal set, drawn at the largest psi
bound of the lanes and thinned by each lane with its own psi. A lockstep
lane is bit-identical to its solo run when its psi bound equals the shared
one; otherwise it is equal in law.

Per step k, with the law frozen at the left endpoint:

    X <- X + dt * b                 (drift)
         + sqrt(eps) * sigma dW     (Brownian)
         + dt * sigma phi_k         (Brownian control)
         - dt * sum_j G nu_j        (compensator)

followed by the step's accepted jumps, X += eps * G, applied in time
order per particle (grouped by occurrence rank, vectorized across particles).
The step's jumps are sampled inside the loop (levy.propose_step and
levy.thin_step), so memory holds one step's jumps, not the horizon's. The
Brownian increment is drawn only when some lane's sigma is not identically
zero at that step; otherwise the Brownian substream is left untouched.
Jumps arrive at the tilted rate psi / eps; their compensator
dt * sum_j G psi_kj nu_j and the control shift dt * sum_j G (psi_kj - 1) nu_j
cancel to the plain compensator, so psi acts only through the thinning.

The moderate lane is the same engine read in fluctuation coordinates
M = (X - xbar) / a. Under the null control it runs the plain particle
system; under a control (phi, tilt) it runs the frozen-law lane with the
law flow d_xbar and the control (a phi, max(psi_floor, 1 + a tilt)), clamps
counted in meta. The matching moderate rate linearizes with
A(t) = d_x b(t, xbar, d_xbar), the law frozen at the noise-free solution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .core import (
    Control,
    LawSummary,
    MdpControl,
    ModelSpec,
    Path,
    TimeGrid,
    null_control,
)
from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidControlError,
)
from .levy import sample_controlled_prm  # noqa: F401 -- perfbench/tracing.py wraps it here
from .levy import propose_step, thin_step
from .rng import SeedBlock
from .skeleton import _field, _guard, _matvec
from .skeleton import solve_limit_ode  # noqa: F401 -- perfbench/tracing.py wraps it here

__all__ = [
    "Lane",
    "ParticleEnsemble",
    "simulate_lanes",
    "simulate_mvsde",
    "simulate_controlled_frozen",
    "simulate_controlled_selfconsistent",
    "simulate_mdp_controlled",
]


@dataclass
class ParticleEnsemble:
    """Result of one particle-system run.

    paths is (n_nodes, n_particles, d) under record="full" and None under
    record="summary"; terminal is always the final (n_particles, d) cloud.
    sup_sq holds each particle's running max squared distance to the
    reference path when one was supplied.
    """

    grid: TimeGrid
    eps: float
    n_particles: int
    dim: int
    seed: int
    kind: str
    terminal: np.ndarray
    paths: np.ndarray | None = None
    sup_sq: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def law_at(self, k: int) -> LawSummary:
        if self.paths is None:
            raise InvalidArgumentError("law_at needs record='full'")
        return LawSummary.empirical(self.paths[k])

    def mean_path(self) -> np.ndarray:
        if self.paths is None:
            raise InvalidArgumentError("mean_path needs record='full'")
        return self.paths.mean(axis=1)


class _Recorder:
    """Full path buffer under record="full" (None under "summary"), plus each
    particle's running max squared distance to the reference, if any."""

    def __init__(self, record, n_nodes, n_particles, dim, reference):
        if record not in ("full", "summary"):
            raise InvalidArgumentError(f"unknown record mode {record!r}")
        full = record == "full"
        self.paths = np.empty((n_nodes, n_particles, dim)) if full else None
        self.reference = reference
        self.sup_sq = None if reference is None else np.zeros(n_particles)

    def record(self, k, x):
        if self.paths is not None:
            self.paths[k] = x
        if self.reference is not None:
            d2 = np.sum((x - self.reference[k]) ** 2, axis=1)
            np.maximum(self.sup_sq, d2, out=self.sup_sq)


def _as_reference(reference, grid: TimeGrid, dim: int):
    if reference is None:
        return None
    if isinstance(reference, Path):
        if reference.grid != grid:
            raise GridMismatchError("reference path lives on a different grid")
        return reference.values
    ref = np.asarray(reference, dtype=float)
    if ref.ndim == 1:
        ref = ref[:, None]
    if ref.shape != (grid.nodes.size, dim):
        raise InvalidArgumentError("reference must be (n_nodes, dim)")
    return ref


@dataclass(frozen=True)
class Lane:
    """One particle cloud of simulate_lanes. law is where its coefficients
    read the law each step: "self" (its own cloud), "companion" (lane 0's
    cloud at the step's left endpoint), a Path (point masses along it) or a
    callable step -> LawSummary. control None is the null control."""

    control: Control | None = None
    law: object = "self"
    reference: object = None
    record: str = "summary"


def _law_source(law, grid: TimeGrid):
    if isinstance(law, str) and law in ("self", "companion"):
        return law
    if isinstance(law, Path):
        if law.grid != grid:
            raise GridMismatchError("frozen flow lives on a different grid")
        values = law.values
        return lambda k: LawSummary.dirac(values[k])
    if callable(law):
        return law
    raise InvalidArgumentError("cannot interpret the frozen law flow")


def _lane_control(control, spec: ModelSpec, grid: TimeGrid) -> Control:
    if control is None:
        return null_control(grid, spec.dim, spec.n_mark_cells)
    if control.grid != grid:
        raise GridMismatchError("control grid does not match the simulation grid")
    if control.dim != spec.dim:
        raise InvalidControlError("control dimension does not match the model")
    if spec.has_jumps and control.n_mark_cells != spec.intensity.n_cells:
        raise InvalidControlError("control psi does not cover the mark cells")
    return control


def _check_eps(eps: float, warnings: list):
    if not (eps > 0 and np.isfinite(eps)):
        raise InvalidArgumentError("eps must be positive and finite")
    if eps > 0.5:
        warnings.append(
            f"eps={eps:g} is outside the small-noise regime; deviation "
            "asymptotics are unreliable at this scale"
        )


def _apply_jumps(streams, times, cells, ranks, x, law, spec, eps):
    """Apply one step's accepted jumps, sorted by (rank, stream), in
    per-particle time order."""
    pos = 0
    r = 0
    while pos < ranks.size:
        end = int(np.searchsorted(ranks, r + 1))
        for j in np.flatnonzero(np.bincount(cells[pos:end])):
            sel = pos + np.flatnonzero(cells[pos:end] == j)
            pid = streams[sel]
            z = spec.intensity.atoms[j]
            g = spec.jump(times[sel], x[pid], law, z)
            x[pid] += eps * np.asarray(g, dtype=float).reshape(pid.size, -1)
        pos = end
        r += 1


def simulate_lanes(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    lanes: list,
    n_particles: int,
    seed: int,
) -> list:
    """Step the lanes in lockstep over one set of draws per step (see the
    module docstring); returns one ParticleEnsemble per lane."""
    warnings: list = []
    _check_eps(eps, warnings)
    if n_particles < 1:
        raise InvalidArgumentError("n_particles must be >= 1")
    controls = [_lane_control(lane.control, spec, grid) for lane in lanes]
    sources = [_law_source(lane.law, grid) for lane in lanes]

    n, d, big_n = grid.n_steps, spec.dim, n_particles
    sb = SeedBlock.from_seed(seed)
    hi = max(ctl.psi_bounds[1] for ctl in controls)
    n_jumps = [0] * len(lanes)
    n_proposed = 0
    recs = [
        _Recorder(lane.record, n + 1, big_n, d, _as_reference(lane.reference, grid, d))
        for lane in lanes
    ]
    xs = [np.tile(spec.initial, (big_n, 1)) for _ in lanes]
    for rec, x in zip(recs, xs):
        rec.record(0, x)
    sqrt_eps = float(np.sqrt(eps))
    phi_active = [bool(ctl.phi.any()) for ctl in controls]

    for k in range(n):
        t_k = float(grid.nodes[k])
        dt = float(grid.dt[k])
        # every lane reads its law before any lane moves
        laws = [
            src(k) if callable(src) else LawSummary.empirical(x if src == "self" else xs[0])
            for x, src in zip(xs, sources)
        ]
        sigs = [spec.diffusion(t_k, x, law) for x, law in zip(xs, laws)]
        if any(np.any(sig) for sig in sigs):
            dw = sb.brownian.standard_normal((big_n, d)) * np.sqrt(dt)
        if spec.has_jumps:
            proposal = propose_step(spec.intensity, 1.0 / eps, t_k, dt, hi, big_n, sb.jumps)
            n_proposed += proposal[0].size
        for i, (x, law, sig, ctl) in enumerate(zip(xs, laws, sigs, controls)):
            drift = np.asarray(spec.drift(t_k, x, law), dtype=float)
            incr = dt * np.broadcast_to(drift, (big_n, d))
            if np.any(sig):
                incr = incr + sqrt_eps * _matvec(sig, dw)
            if phi_active[i]:
                # a (d, d) sigma gives one (1, d) row sigma phi_k for all particles
                row = ctl.phi[k][None]
                phi_k = row if np.ndim(sig) == 2 else np.broadcast_to(row, (big_n, d))
                incr = incr + dt * _matvec(sig, phi_k)
            if spec.has_jumps:
                g_stack = np.stack(
                    [
                        np.broadcast_to(
                            np.asarray(spec.jump(t_k, x, law, z), dtype=float),
                            (big_n, d),
                        )
                        for z in spec.intensity.atoms
                    ],
                    axis=1,
                )  # (N, C, d)
                incr -= dt * np.einsum("ncd,c->nd", g_stack, spec.intensity.masses)
            x = x + incr
            if spec.has_jumps:
                stream, time, cell, rank = thin_step(proposal, ctl.psi[k])
                n_jumps[i] += stream.size
                _apply_jumps(stream, time, cell, rank, x, law, spec, eps)
            _guard(x, k, "particle system")
            recs[i].record(k + 1, x)
            xs[i] = x

    return [
        ParticleEnsemble(grid, eps, big_n, d, int(seed), "state", x, rec.paths, rec.sup_sq, {
            "warnings": list(warnings),
            "law_mode": src if isinstance(src, str) else "frozen",
            "rate_scale": 1.0 / eps,
            "n_jumps": int(jumps),
            "n_proposed": int(n_proposed),
        })
        for x, rec, src, jumps in zip(xs, recs, sources, n_jumps)
    ]


def simulate_mvsde(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    n_particles: int,
    seed: int,
    record: str = "full",
    reference=None,
) -> ParticleEnsemble:
    """Plain interacting particle system coupled through its own cloud."""
    lane = Lane(reference=reference, record=record)
    return simulate_lanes(spec, grid, eps, [lane], n_particles, seed)[0]


def simulate_controlled_selfconsistent(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    control: Control,
    n_particles: int,
    seed: int,
    record: str = "full",
    reference=None,
) -> ParticleEnsemble:
    """Controlled system whose coefficients read the controlled cloud itself.

    This feeds the control back into the law, which is NOT the object the
    deviation bounds quantify over; it exists so the discrepancy can be
    demonstrated against the frozen-law lane.
    """
    lane = Lane(control, "self", reference, record)
    return simulate_lanes(spec, grid, eps, [lane], n_particles, seed)[0]


def simulate_controlled_frozen(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    control: Control,
    law_flow,
    n_particles: int,
    seed: int,
    record: str = "full",
    reference=None,
) -> ParticleEnsemble:
    """Controlled system with coefficients reading a frozen law flow.

    The correct flow to freeze is the law of the UNCONTROLLED system.
    law_flow "companion" steps the uncontrolled cloud from the same seed in
    lockstep and reads its empirical law at each step, so memory is O(N),
    not O(N x steps). law_flow may also be a Path (point masses along it) or
    a callable step -> LawSummary.
    """
    lane = Lane(control, law_flow, reference, record)
    lanes = [Lane(), lane] if law_flow == "companion" else [lane]
    return simulate_lanes(spec, grid, eps, lanes, n_particles, seed)[-1]


def _euler_limit_path(spec: ModelSpec, grid: TimeGrid) -> np.ndarray:
    """Noise-free Euler path xbar_{k+1} = xbar_k + dt_k b(t_k, xbar_k, d_xbar_k).

    The fluctuation lane centres on this path, not on solve_limit_ode: the
    particles follow the Euler scheme, and its O(dt) gap to the exact limit
    would be divided by a and bias M."""
    xbar = np.empty((grid.n_steps + 1, spec.dim))
    xbar[0] = spec.initial
    for k in range(grid.n_steps):
        xbar[k + 1] = xbar[k] + grid.dt[k] * _field(spec, float(grid.nodes[k]), xbar[k])
        _guard(xbar[k + 1], k)
    return xbar


def simulate_mdp_controlled(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    a: float,
    control: MdpControl | None,
    n_particles: int,
    seed: int,
    psi_floor: float = 1e-3,
    record: str = "full",
    reference=None,
) -> ParticleEnsemble:
    """Moderate-regime fluctuation M = (X - xbar) / a of the particle system.

    The null control (None, or phi = 0 and tilt = 0) runs the plain particle
    system; any other control runs the frozen-law lane with the law flow
    d_xbar and the control (a phi, max(psi_floor, 1 + a tilt)). Paths,
    terminal and sup_sq (against the reference read in M coordinates) all
    come back in M coordinates.
    """
    if not (a > 0 and np.isfinite(a)):
        raise InvalidArgumentError("the moderate scale a must be positive")
    window = []
    if a >= 1.0 or eps / a**2 >= 1.0:
        window.append(
            f"a={a:g}, eps/a^2={eps / a**2:g}: outside the moderate window "
            "(a -> 0 with eps/a^2 -> 0)"
        )
    if control is not None:
        if control.grid != grid:
            raise GridMismatchError("control grid does not match the simulation grid")
        if control.dim != spec.dim:
            raise InvalidControlError("control dimension does not match the model")
        if spec.has_jumps and control.tilt.shape[1] != spec.intensity.n_cells:
            raise InvalidControlError("control tilt does not cover the mark cells")

    d = spec.dim
    xbar = _euler_limit_path(spec, grid)
    ref = _as_reference(reference, grid, d)
    ref_x = None if ref is None else xbar + a * ref
    clamped = 0
    if control is None or not (control.phi.any() or control.tilt.any()):
        lane = Lane(reference=ref_x, record=record)
    else:
        raw = 1.0 + a * control.tilt
        psi = np.maximum(psi_floor, raw)
        clamped = int(np.count_nonzero(raw < psi_floor))
        bounds = (float(psi.min(initial=1.0)), float(psi.max(initial=1.0)))
        ctl = Control(grid, a * control.phi, psi, psi_bounds=bounds)
        lane = Lane(ctl, Path(grid, xbar), ref_x, record)
    ens = simulate_lanes(spec, grid, eps, [lane], n_particles, seed)[0]

    if ens.paths is not None:
        ens.paths -= xbar[:, None, :]
        ens.paths /= a
    if ens.sup_sq is not None:
        ens.sup_sq /= a**2
    ens.terminal = (ens.terminal - xbar[-1]) / a
    ens.kind = "fluctuation"
    ens.meta["warnings"].extend(window)
    ens.meta.update(
        a=float(a), speed=eps / a**2, clamped_cells=clamped, psi_floor=psi_floor
    )
    return ens
