"""Interacting particle systems under small Brownian and Poisson noise.

One Euler engine (simulate_lanes) drives every lane; the lanes differ only
in their eps, in where each step reads its law (the lane's own cloud, the
cloud of another lane named by its index, or a frozen flow) and in which
control they apply. The plain system is literally the controlled engine fed
the null control, so plain and null-controlled runs from one seed agree bit
for bit.

Several lanes step in lockstep over one set of draws per step. They share
one Brownian increment dW, which lane i scales by its own sqrt(eps_i), and
one jump proposal set at rate (1 / eps_ref) * hi * nu, with eps_ref the
smallest eps, psibar_i the upper psi bound of lane i and
hi = max_i psibar_i * eps_ref / eps_i; lane i keeps a
proposal iff u * hi < psi_i(cell) * eps_ref / eps_i, so thinning stays
monotone in psi. A lane is bit-identical to its solo run when its rate
bound is the run's (eps_i = eps_ref, psibar_i = hi; the factor is exactly
1.0 for one lane or lanes of one eps), and so is every lane of a model
without jumps; the others are equal in law. The Brownian increment is drawn
only when some lane's sigma is not identically zero at that step; otherwise
the Brownian substream is left untouched.

Per step k, with the law frozen at the left endpoint:

    X <- X + dt * b                 (drift)
         + sqrt(eps) * sigma dW     (Brownian)
         + dt * sigma phi_k         (Brownian control)
         - dt * sum_j G nu_j        (compensator)

followed by the step's accepted jumps, X += eps * G, applied in time
order per particle (grouped by occurrence rank, vectorized across particles).
Each cloud moves in place through step buffers shared by all lanes. Every
coefficient call still sees the left-endpoint cloud through law.cloud: the
jump coefficients run on a gathered copy of the jumping particles'
post-drift states, and the lanes that no other lane reads move first, in
index order, then the lanes that another lane reads (the law sources), in
index order; a law source may not itself read another lane. The step's
jumps are sampled inside the loop, sorted once (levy.propose_step) and
masked per lane (levy.thin_step), so no lane sorts and memory holds one
step's jumps, not the horizon's. The compensator is summed atom by atom;
with three or more mark atoms its last bit can differ from an einsum's.
Jumps arrive at the tilted rate psi / eps; their compensator
dt * sum_j G psi_kj nu_j and the control shift dt * sum_j G (psi_kj - 1) nu_j
cancel to the plain compensator, so psi acts only through the thinning.

Work that lanes share is done once per step, in the same operations and
order as per lane, so no bit changes: one LawSummary per cloud read (a
lane that reads lane j reuses lane j's); sigma dW once, in the place of dW,
when every lane's sigma is the same constant (d, d) matrix (a state-dependent
(n, d, d) sigma stays per lane); its sqrt(eps) scaling once per run of
lanes of one eps; and a law-only drift (rows all equal: a (d,) value, or a
view with row stride 0) scaled as one row and added in the noise pass,
fl(n + fl(dt b)) = fl(fl(dt b) + n). The scaled noise stays valid across
lanes until a buffer takes it as scratch: the compensator does, and
invalidates it; the recorder takes the increment buffer instead, which is
free once the cloud has moved.

The moderate lane is the same engine read in fluctuation coordinates
M = (X - xbar) / a (_moderate_lane). Under the null control it runs the
plain particle system; under a control (phi, tilt) it runs the frozen-law
lane with the law flow d_xbar and the control (a phi, max(1e-3, 1 + a tilt)):
the fixed floor 1e-3 keeps the tilted jump rate positive, and meta counts the
clamped cells. The matching moderate rate linearizes with
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
    check_control,
    null_control,
)
from .errors import GridMismatchError, InvalidArgumentError
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

# Lower bound on the moderate lane's jump tilt psi = 1 + a tilt.
_PSI_FLOOR = 1e-3


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
        self.d2 = None if reference is None else np.empty(n_particles)

    def record(self, k, x, scratch):
        """Record the cloud x at node k; scratch is a free (N, d) buffer."""
        if self.paths is not None:
            self.paths[k] = x
        if self.reference is not None:
            np.subtract(x, self.reference[k], out=scratch)
            np.square(scratch, out=scratch)
            np.sum(scratch, axis=1, out=self.d2)
            np.maximum(self.sup_sq, self.d2, out=self.sup_sq)


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
    """One particle cloud of simulate_lanes at noise level eps. law is where
    its coefficients read the law each step: "self" (its own cloud), the
    index of another lane (that lane's cloud at the step's left endpoint;
    the lane read must not read another lane itself), a Path (point masses
    along it) or a callable step -> LawSummary. control None is the null
    control."""

    eps: float
    control: Control | None = None
    law: object = "self"
    reference: object = None
    record: str = "summary"


def _law_source(law, grid: TimeGrid, lane: int, n_lanes: int):
    """The index of the lane whose cloud the lane reads, or a callable
    step -> LawSummary."""
    if isinstance(law, str) and law == "self":
        return lane
    if isinstance(law, int) and not isinstance(law, bool):
        if not 0 <= law < n_lanes:
            raise InvalidArgumentError(f"lane {lane} reads lane {law}, out of range")
        if law == lane:
            raise InvalidArgumentError(f'lane {lane} reads its own index; use "self"')
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
    check_control(control, spec, grid)
    return control


def _check_eps(eps: float, warnings: list):
    if not (eps > 0 and np.isfinite(eps)):
        raise InvalidArgumentError("eps must be positive and finite")
    if eps > 0.5:
        warnings.append(
            f"eps={eps:g} is outside the small-noise regime; deviation "
            "asymptotics are unreliable at this scale"
        )


def _apply_jumps(streams, times, cells, ranks, x, incr, law, spec, eps):
    """Apply one step's accepted jumps, given in (stream, time) order, in
    per-particle time order to the post-drift states x + incr of the
    particles that jump. The jump coefficients run on a gathered copy, so x
    (which law.cloud may be) keeps the step's left endpoint; returns the
    jumping particles and their end-of-step states."""
    # rank 0 holds every jumping particle once, in stream order, and a
    # stream's jump of rank r + 1 sits right after its jump of rank r
    head = np.append(ranks == 0, True)
    now = np.flatnonzero(head[:-1])
    movers = streams[now]
    moved = np.take(x, movers, axis=0) + np.take(incr, movers, axis=0)
    slot = np.arange(movers.size)
    while now.size:
        cells_now = cells[now]
        present = np.flatnonzero(np.bincount(cells_now))
        for j in present:
            sel = slice(None) if present.size == 1 else np.flatnonzero(cells_now == j)
            at = slot[sel]
            g = spec.jump_rows(times[now[sel]], moved[at], law, spec.intensity.atoms[j])
            moved[at] += eps * g
        more = np.flatnonzero(~head[now + 1])
        now, slot = now[more] + 1, slot[more]
    return movers, moved


def simulate_lanes(
    spec: ModelSpec,
    grid: TimeGrid,
    lanes: list,
    n_particles: int,
    seed: int,
) -> list:
    """Step the lanes in lockstep over one set of draws per step (see the
    module docstring); returns one ParticleEnsemble per lane."""
    if not lanes:
        raise InvalidArgumentError("simulate_lanes needs at least one lane")
    warnings = [[] for _ in lanes]
    for lane, notes in zip(lanes, warnings):
        _check_eps(lane.eps, notes)
    if n_particles < 1:
        raise InvalidArgumentError("n_particles must be >= 1")
    controls = [_lane_control(lane.control, spec, grid) for lane in lanes]
    sources = [_law_source(lane.law, grid, i, len(lanes)) for i, lane in enumerate(lanes)]
    # the cloud whose empirical law each lane reads (None: a frozen flow)
    clouds = [None if callable(src) else src for src in sources]
    read_clouds = set(clouds) - {None}
    # the law sources: the clouds that another lane reads
    law_sources = {c for i, c in enumerate(clouds) if c not in (None, i)}
    for c in law_sources:
        if clouds[c] not in (None, c):
            raise InvalidArgumentError(f"lane {c} is a law source but reads lane {clouds[c]}")
    # proposals at rate (1 / eps_ref) * hi * nu dominate every lane's
    # psi_i / eps_i; lane i keeps one iff u * hi < psi_i(cell) * eps_ref / eps_i
    eps_ref = min(lane.eps for lane in lanes)
    scale = [eps_ref / lane.eps for lane in lanes]
    hi = max(ctl.psi_bounds[1] * f for ctl, f in zip(controls, scale))
    thin_psi = [ctl.psi * f for ctl, f in zip(controls, scale)]

    n, d, big_n = grid.n_steps, spec.dim, n_particles
    sb = SeedBlock.from_seed(seed)
    n_jumps = [0] * len(lanes)
    n_proposed = 0
    recs = [
        _Recorder(lane.record, n + 1, big_n, d, _as_reference(lane.reference, grid, d))
        for lane in lanes
    ]
    # step buffers shared by all lanes: the Brownian increment (or sigma dW
    # when every lane has the same constant sigma), one lane's increment (then
    # the recorders' scratch) and its sqrt(eps) sigma dW (then the compensator's)
    dw, incr, noise = (np.empty((big_n, d)) for _ in range(3))
    xs = [np.tile(spec.initial, (big_n, 1)) for _ in lanes]
    for rec, x in zip(recs, xs):
        rec.record(0, x, incr)
    sqrt_eps = [float(np.sqrt(lane.eps)) for lane in lanes]
    phi_active = [bool(ctl.phi.any()) for ctl in controls]
    # a law source moves after every lane that reads it
    order = [i for i in range(len(lanes)) if i not in law_sources] + sorted(law_sources)

    for k in range(n):
        t_k = float(grid.nodes[k])
        dt = float(grid.dt[k])
        # every lane reads its law at the left endpoint: no cloud moves until
        # every coefficient call that can read it is done
        empirical = {c: LawSummary.empirical(xs[c]) for c in read_clouds}
        laws = [src(k) if c is None else empirical[c] for src, c in zip(sources, clouds)]
        sigs = [spec.diffusion(t_k, x, law) for x, law in zip(xs, laws)]
        noisy = [bool(np.any(sig)) for sig in sigs]
        if any(noisy):
            sb.brownian.standard_normal(out=dw)
            dw *= np.sqrt(dt)
        shared_sig = (
            noisy[0]
            and np.ndim(sigs[0]) == 2
            and all(np.array_equal(sig, sigs[0]) for sig in sigs[1:])
        )
        if shared_sig:
            # sigma dW into the noise buffer, which stands in for dW this step
            _matvec(sigs[0], dw, out=noise)
            dw, noise = noise, dw
        noise_scale = None  # the sqrt(eps) that noise holds sigma dW at
        if spec.has_jumps:
            proposal = propose_step(spec.intensity, 1.0 / eps_ref, t_k, dt, hi, big_n, sb.jumps)
            n_proposed += proposal[0].size
        for i in order:
            x, law, sig, ctl = xs[i], laws[i], sigs[i], controls[i]
            if noisy[i] and not shared_sig:
                _matvec(sig, dw, out=noise)
                noise *= sqrt_eps[i]
            elif noisy[i] and noise_scale != sqrt_eps[i]:
                np.multiply(dw, sqrt_eps[i], out=noise)
                noise_scale = sqrt_eps[i]
            drift = spec.drift_rows(t_k, x, law)
            if noisy[i] and drift.strides[0] == 0:
                # a law-only drift: scale its one row and add it in the noise
                # pass, the same bits as dt * b + noise
                np.add(noise, dt * drift[0], out=incr)
            else:
                np.multiply(dt, drift, out=incr)
                if noisy[i]:
                    incr += noise
            if phi_active[i]:
                # a (d, d) sigma gives one (1, d) row sigma phi_k for all particles
                row = ctl.phi[k][None]
                phi_k = row if np.ndim(sig) == 2 else np.broadcast_to(row, (big_n, d))
                incr += dt * _matvec(sig, phi_k)
            if spec.has_jumps:
                # the compensator, atom by atom into the free noise buffer
                atoms, masses = spec.intensity.atoms, spec.intensity.masses
                np.multiply(spec.jump_rows(t_k, x, law, atoms[0]), masses[0], out=noise)
                for z, mass in zip(atoms[1:], masses[1:]):
                    noise += spec.jump_rows(t_k, x, law, z) * mass
                noise *= dt
                incr -= noise
                noise_scale = None
                jumps = thin_step(proposal, thin_psi[i][k])
                n_jumps[i] += jumps[0].size
                movers, moved = _apply_jumps(*jumps, x, incr, law, spec, lanes[i].eps)
            x += incr
            if spec.has_jumps:
                x[movers] = moved
            _guard(x, k, "particle system")
            recs[i].record(k + 1, x, incr)

    return [
        ParticleEnsemble(grid, lane.eps, big_n, d, int(seed), "state", x, rec.paths, rec.sup_sq, {
            "warnings": notes,
            "law_mode": "frozen" if callable(src) else lane.law,
            "rate_scale": 1.0 / lane.eps,
            "n_jumps": int(jumps),
            "n_proposed": int(n_proposed),
        })
        for lane, x, rec, src, jumps, notes in zip(lanes, xs, recs, sources, n_jumps, warnings)
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
    lane = Lane(eps, reference=reference, record=record)
    return simulate_lanes(spec, grid, [lane], n_particles, seed)[0]


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
    lane = Lane(eps, control, "self", reference, record)
    return simulate_lanes(spec, grid, [lane], n_particles, seed)[0]


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
    lockstep, as lane 0, and reads its empirical law at each step, so memory
    is O(N), not O(N x steps). law_flow may also be a Path (point masses
    along it) or a callable step -> LawSummary.
    """
    companion = law_flow == "companion"
    lane = Lane(eps, control, 0 if companion else law_flow, reference, record)
    lanes = [Lane(eps), lane] if companion else [lane]
    return simulate_lanes(spec, grid, lanes, n_particles, seed)[-1]


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


def _moderate_lane(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    a: float,
    control: MdpControl | None,
    xbar: np.ndarray,
    record: str = "summary",
    reference=None,
):
    """The lane that runs the fluctuation M = (X - xbar) / a, and the map that
    reads its ensemble in M coordinates (paths, terminal, and sup_sq against
    the reference read in M coordinates). xbar is _euler_limit_path.

    The null control (None, or phi = 0 and tilt = 0) runs the plain particle
    system; any other control runs the frozen-law lane with the law flow
    d_xbar and the control (a phi, max(1e-3, 1 + a tilt)): the fixed floor
    1e-3 (_PSI_FLOOR) keeps the tilted jump rate positive, and meta counts
    the clamped cells.
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
        check_control(control, spec, grid)

    ref = _as_reference(reference, grid, spec.dim)
    ref_x = None if ref is None else xbar + a * ref
    clamped = 0
    if control is None or not (control.phi.any() or control.tilt.any()):
        lane = Lane(eps, reference=ref_x, record=record)
    else:
        raw = 1.0 + a * control.tilt
        psi = np.maximum(_PSI_FLOOR, raw)
        clamped = int(np.count_nonzero(raw < _PSI_FLOOR))
        bounds = (float(psi.min(initial=1.0)), float(psi.max(initial=1.0)))
        ctl = Control(grid, a * control.phi, psi, psi_bounds=bounds)
        lane = Lane(eps, ctl, Path(grid, xbar), ref_x, record)

    def to_fluctuation(ens: ParticleEnsemble) -> ParticleEnsemble:
        if ens.paths is not None:
            ens.paths -= xbar[:, None, :]
            ens.paths /= a
        if ens.sup_sq is not None:
            ens.sup_sq /= a**2
        ens.terminal = (ens.terminal - xbar[-1]) / a
        ens.kind = "fluctuation"
        ens.meta["warnings"].extend(window)
        ens.meta.update(
            a=float(a), speed=eps / a**2, clamped_cells=clamped, psi_floor=_PSI_FLOOR
        )
        return ens

    return lane, to_fluctuation


def simulate_mdp_controlled(
    spec: ModelSpec,
    grid: TimeGrid,
    eps: float,
    a: float,
    control: MdpControl | None,
    n_particles: int,
    seed: int,
    record: str = "full",
    reference=None,
) -> ParticleEnsemble:
    """Moderate-regime fluctuation M = (X - xbar) / a of the particle system,
    run as the one lane of _moderate_lane."""
    xbar = _euler_limit_path(spec, grid)
    lane, to_fluctuation = _moderate_lane(
        spec, grid, eps, a, control, xbar, record, reference
    )
    return to_fluctuation(simulate_lanes(spec, grid, [lane], n_particles, seed)[0])
