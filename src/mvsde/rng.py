"""Seeding scheme.

One master seed fans out through numpy's SeedSequence into two independent
substreams, fixed in this order:

    index 0 -> brownian increments, from an SFC64 generator
    index 1 -> jump sampling (per step: counts, stream indices, times,
               acceptance uniforms; sorted by (stream, time) only after),
               from a PCG64 generator (np.random.default_rng)

The Brownian draw is the critical path of every run with sigma != 0, and
numpy's normal sampler (its ziggurat) fills 1e5 normals in about 0.73 ms
from SFC64's bits against 0.90 ms from PCG64's (numpy 2.4, one Xeon core),
so the Brownian child uses SFC64. The jump child stays on PCG64: its draws
are not the bottleneck, and runs with sigma = 0 keep the realizations they
had when both children were PCG64. A Gaussian run's realizations for a
given seed therefore differ from those of versions that drew the Brownian
child from PCG64, with the same law.

Every simulation entry point takes the master seed; re-running with the same
seed reproduces trajectories bit for bit, including the split between plain
and controlled jump sampling (both consume the jump stream in the same fixed
draw order). Lockstep lanes share one SeedBlock: per step, one Brownian
increment, which each lane scales by its own sqrt(eps), and one jump
proposal set at the run's rate bound, sorted once, that each lane masks
with its own psi and eps. A lane is bit-identical to its solo run when its
rate bound is the run's, otherwise equal in law. Brownian increments are
drawn only at steps where some lane's diffusion is not identically zero,
so a model with sigma = 0 leaves the Brownian substream untouched. A run
whose blocks reach dynamics._READ_AHEAD_MIN normals draws the next step's
block on a worker thread while the lanes move (dynamics._ReadAhead): the
same blocks, in the same order, from the same generator, so no draw
changes.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["SeedBlock", "derive_seed"]


@dataclass
class SeedBlock:
    """The two substream generators for one simulation run."""

    brownian: np.random.Generator
    jumps: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "SeedBlock":
        children = np.random.SeedSequence(seed).spawn(2)
        return cls(
            np.random.Generator(np.random.SFC64(children[0])),
            np.random.default_rng(children[1]),
        )


def derive_seed(master: int, label: str) -> int:
    """Stable seed of one labelled job (a verification ladder), from a
    dedicated SeedSequence over [master, 0, crc32(label)]."""
    digest = np.random.SeedSequence(
        [int(master), 0, zlib.crc32(label.encode("utf-8"))]
    ).generate_state(1)[0]
    return int(digest)
