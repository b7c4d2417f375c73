"""Finite-activity Poisson random measures on an atomic mark space.

Sampling is by thinning from the dominating intensity rate_scale * hi * nu:
a proposed jump at (s, z_j) is accepted iff u * hi < psi(s, z_j) with
u ~ U[0,1). The draw order is fixed -- counts, then jump-time uniforms, then
acceptance uniforms, each as one bulk draw -- so two runs from the same
generator state propose identical jumps and differ only through psi. The
plain sampler is the controlled one with psi = 1, hi = 1 (every proposal
accepted), which makes the null-control coupling exact, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Control, TimeGrid
from .errors import GridMismatchError, InvalidArgumentError, InvalidControlError

__all__ = [
    "IntensityMeasure",
    "JumpStream",
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

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


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
    n_steps, n_cells = grid.n_steps, intensity.n_cells

    # Draw 1: proposal counts per (stream, step, cell) under the dominating rate.
    lam = rate_scale * hi * np.multiply.outer(grid.dt, intensity.masses)
    counts = rng.poisson(np.broadcast_to(lam, (n_streams, n_steps, n_cells)))
    flat = counts.reshape(-1)
    n_proposed = int(flat.sum())
    idx = np.repeat(np.arange(flat.size), flat)
    cell = idx % n_cells
    step = (idx // n_cells) % n_steps
    stream = idx // (n_cells * n_steps)

    # Draw 2: jump times, uniform within each proposal's time cell.
    u_time = rng.random(n_proposed)
    time = grid.nodes[step] + u_time * grid.dt[step]

    # Draw 3: acceptance uniforms, then thin.
    u_acc = rng.random(n_proposed)
    keep = u_acc * hi < psi[step, cell]
    stream, step, time, cell = stream[keep], step[keep], time[keep], cell[keep]

    # Rank within (stream, step) in time order, then engine order (step, rank, stream).
    order = np.lexsort((time, step, stream))
    stream, step, time, cell = stream[order], step[order], time[order], cell[order]
    group = stream * n_steps + step
    if group.size:
        new = np.empty(group.size, dtype=bool)
        new[0] = True
        np.not_equal(group[1:], group[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, group.size))
        rank = np.arange(group.size) - np.repeat(starts, sizes)
    else:
        rank = np.zeros(0, dtype=np.int64)
    order = np.lexsort((stream, rank, step))
    stream, step, time, cell, rank = (
        stream[order], step[order], time[order], cell[order], rank[order],
    )
    step_offsets = np.searchsorted(step, np.arange(n_steps + 1))
    return JumpStream(
        grid=grid,
        intensity=intensity,
        n_streams=n_streams,
        stream=stream,
        step=step,
        time=time,
        cell=cell,
        rank=rank,
        step_offsets=step_offsets,
        n_proposed=n_proposed,
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
    """Sample tilted measures at intensity rate_scale * psi(t, z) nu(dz) dt."""
    if control.grid != grid:
        raise GridMismatchError("control grid does not match the sampling grid")
    if control.n_mark_cells != intensity.n_cells:
        raise InvalidControlError("control psi does not cover the mark cells")
    lo, hi = control.psi_bounds
    return _sample_thinned(grid, intensity, rate_scale, control.psi, hi, n_streams, rng)
