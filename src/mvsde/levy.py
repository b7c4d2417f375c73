"""Finite-activity Poisson random measures on an atomic mark space.

Sampling is by thinning from the dominating intensity rate_scale * hi * nu:
a proposed jump at (s, z_j) is accepted iff u * hi < psi(s, z_j) with
u ~ U[0,1). The engine samples one time cell at a time, so memory holds
the jumps of one step, never the whole horizon. Each step is one proposal
draw, sorted once by (stream, time) after the draws (propose_step), then
one sort-free pass per psi row that thins with a mask and ranks with a
running count (thin_step); lanes stepped in lockstep share the proposals,
drawn at the run's rate bound, and each thins them with its own psi,
scaled by its own eps (dynamics.simulate_lanes). Per step the draw order
is fixed: Poisson proposal counts per cell for all streams together
(superposition), then a uniform stream index per proposal, then its
in-step time uniform, then its acceptance uniform. Counts depend only on
hi, never on psi, so two runs from the same generator state with the same
hi propose identical jumps and differ only through psi, and a jump
accepted at psi is accepted at every psi' >= psi. The plain sampler is the
controlled one with psi = 1, hi = 1 (every proposal accepted), which makes
the null-control coupling exact, bit for bit.
sample_prm and sample_controlled_prm loop the same step sampler over the
grid and return the whole horizon as one JumpStream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Control, TimeGrid
from .errors import GridMismatchError, InvalidArgumentError, InvalidControlError

__all__ = [
    "IntensityMeasure",
    "JumpStream",
    "propose_step",
    "thin_step",
    "sample_step",
    "sample_prm",
    "sample_controlled_prm",
]


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite measure nu = sum_j masses[j] * delta(atoms[j]) on the mark space."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        masses = np.asarray(self.masses, dtype=float).reshape(-1)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise InvalidArgumentError("intensity needs an (n_cells, mark_dim) atom array")
        if masses.shape[0] != atoms.shape[0]:
            raise InvalidArgumentError("one mass per atom required")
        if not np.isfinite(atoms).all() or not np.isfinite(masses).all():
            raise InvalidArgumentError("intensity atoms and masses must be finite")
        if (masses <= 0).any():
            raise InvalidArgumentError("atom masses must be positive")
        atoms.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @property
    def n_cells(self) -> int:
        return self.atoms.shape[0]

    @property
    def mark_dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class JumpStream:
    """Accepted jumps for a batch of independent streams, engine-ordered.

    Arrays are parallel and sorted by (step, rank, stream), where rank is the
    occurrence index of a jump within its (stream, step) cell in time order.
    step_offsets[k]:step_offsets[k+1] slices out step k.
    """

    grid: TimeGrid
    intensity: IntensityMeasure
    n_streams: int
    stream: np.ndarray
    step: np.ndarray
    time: np.ndarray
    cell: np.ndarray
    rank: np.ndarray
    step_offsets: np.ndarray
    n_proposed: int

    @property
    def n_jumps(self) -> int:
        return self.stream.size


def propose_step(
    intensity: IntensityMeasure,
    rate_scale: float,
    t0: float,
    dt: float,
    hi: float,
    n_streams: int,
    rng: np.random.Generator,
):
    """Proposed jumps of one time cell [t0, t0 + dt) at the dominating rate
    rate_scale * hi * nu: (stream, time, cell, u * hi), sorted by (stream, time)."""
    # Proposal counts per cell for all streams at once (superposition).
    lam = n_streams * rate_scale * hi * dt * intensity.masses
    cell = np.repeat(np.arange(intensity.n_cells), rng.poisson(lam))
    stream = rng.integers(0, n_streams, size=cell.size)
    # Times are drawn per proposal, independent of its cell and its stream.
    u = rng.random(cell.size)
    u_hi = rng.random(cell.size) * hi
    # One quicksort on an exact integer key: the stream in the high bits, the
    # leading bits of u (time is monotone in u) below it.
    bits = min(53, 63 - int(n_streams - 1).bit_length())
    order = np.argsort((u * 2.0**bits).astype(np.int64) | stream << bits)
    return tuple(np.take(a, order) for a in (stream, t0 + u * dt, cell, u_hi))


def thin_step(proposal, psi_k: np.ndarray):
    """Keep the proposals with u * hi < psi_k[cell] and rank them.

    Returns (stream, time, cell, rank) in the proposals' (stream, time)
    order, where rank is the occurrence index of a jump within its stream.
    """
    stream, time, cell, u_hi = proposal
    # integer gathers beat boolean compresses on a random keep mask
    keep = np.flatnonzero(u_hi < psi_k[cell])
    if keep.size < stream.size:
        stream, time, cell = (np.take(a, keep) for a in (stream, time, cell))
    idx = np.arange(stream.size)
    first = np.concatenate(([True], stream[1:] != stream[:-1]))
    return stream, time, cell, idx - np.maximum.accumulate(np.where(first, idx, 0))


def sample_step(
    intensity: IntensityMeasure,
    rate_scale: float,
    t0: float,
    dt: float,
    psi_k: np.ndarray,
    hi: float,
    n_streams: int,
    rng: np.random.Generator,
):
    """Accepted jumps of one time cell: (stream, time, cell, rank, n_proposed)."""
    proposal = propose_step(intensity, rate_scale, t0, dt, hi, n_streams, rng)
    return (*thin_step(proposal, psi_k), proposal[0].size)


def _sample_thinned(
    grid: TimeGrid,
    intensity: IntensityMeasure,
    rate_scale: float,
    psi: np.ndarray,
    hi: float,
    n_streams: int,
    rng: np.random.Generator,
) -> JumpStream:
    if not (rate_scale > 0 and np.isfinite(rate_scale)):
        raise InvalidArgumentError("rate_scale must be positive and finite")
    if n_streams < 1:
        raise InvalidArgumentError("n_streams must be >= 1")
    steps = []
    for t0, dt, psi_k in zip(grid.nodes, grid.dt, psi):
        *jumps, proposed = sample_step(intensity, rate_scale, t0, dt, psi_k, hi, n_streams, rng)
        # a stable sort by rank turns (stream, time) order into (rank, stream)
        by_rank = np.argsort(jumps[3], kind="stable")
        steps.append((*(a[by_rank] for a in jumps), proposed))
    stream, time, cell, rank, proposed = zip(*steps)
    sizes = [s.size for s in stream]
    return JumpStream(
        grid=grid,
        intensity=intensity,
        n_streams=n_streams,
        stream=np.concatenate(stream),
        step=np.repeat(np.arange(grid.n_steps), sizes),
        time=np.concatenate(time),
        cell=np.concatenate(cell),
        rank=np.concatenate(rank),
        step_offsets=np.concatenate(([0], np.cumsum(sizes))),
        n_proposed=int(sum(proposed)),
    )


def sample_prm(
    grid: TimeGrid,
    intensity: IntensityMeasure,
    rate_scale: float,
    n_streams: int,
    rng: np.random.Generator,
) -> JumpStream:
    """Sample plain Poisson random measures at intensity rate_scale * nu(dz) dt."""
    psi = np.ones((grid.n_steps, intensity.n_cells))
    return _sample_thinned(grid, intensity, rate_scale, psi, 1.0, n_streams, rng)


def sample_controlled_prm(
    grid: TimeGrid,
    intensity: IntensityMeasure,
    rate_scale: float,
    control: Control,
    n_streams: int,
    rng: np.random.Generator,
) -> JumpStream:
    """Sample tilted measures at intensity rate_scale * psi(t, z) nu(dz) dt,
    thinned from proposals at rate_scale * control.psi_bar * nu."""
    if control.grid != grid:
        raise GridMismatchError("control grid does not match the sampling grid")
    if control.n_mark_cells != intensity.n_cells:
        raise InvalidControlError("control psi does not cover the mark cells")
    return _sample_thinned(
        grid, intensity, rate_scale, control.psi, control.psi_bar, n_streams, rng
    )
