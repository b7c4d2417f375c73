"""Seeding scheme.

One master seed fans out through numpy's SeedSequence into two independent
substreams, fixed in this order:

    index 0 -> brownian increments
    index 1 -> jump sampling (per step: counts, stream indices, times,
               acceptance uniforms; sorted by (stream, time) only after)

Every simulation entry point takes the master seed; re-running with the same
seed reproduces trajectories bit for bit, including the split between plain
and controlled jump sampling (both consume the jump stream in the same fixed
draw order). Lockstep lanes share one SeedBlock: per step, one Brownian
increment, which each lane scales by its own sqrt(eps), and one jump
proposal set at the run's rate bound, sorted once, that each lane masks
with its own psi and eps. A lane is bit-identical to its solo run when its
rate bound is the run's, otherwise equal in law. Brownian increments are
drawn only at steps where some lane's diffusion is not identically zero,
so a model with sigma = 0 leaves the Brownian substream untouched.
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
        return cls(np.random.default_rng(children[0]), np.random.default_rng(children[1]))


def derive_seed(master: int, label: str) -> int:
    """Stable seed of one labelled job (a verification ladder), from a
    dedicated SeedSequence over [master, 0, crc32(label)]."""
    digest = np.random.SeedSequence(
        [int(master), 0, zlib.crc32(label.encode("utf-8"))]
    ).generate_state(1)[0]
    return int(digest)
