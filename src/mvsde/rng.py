"""Seeding scheme.

One master seed fans out through numpy's SeedSequence into two independent
substreams, fixed in this order:

    index 0 -> brownian increments: a block of fewer than _BANDED_MIN
               normals from an SFC64 generator on index 0 itself, a larger
               one in _BANDS row bands, band i from an SFC64 generator on
               the i-th child that index 0 spawns
    index 1 -> jump sampling (per step: counts, stream indices, times,
               acceptance uniforms; sorted by (stream, time) only after),
               from a PCG64 generator (np.random.default_rng)

The Brownian draw is the critical path of every run with sigma != 0, and
numpy's normal sampler (its ziggurat) fills 1e5 normals in about 0.73 ms
from SFC64's bits against 0.90 ms from PCG64's (numpy 2.4, one Xeon core),
so the Brownian generators are SFC64. The jump child stays on PCG64: its
draws are not the bottleneck, and runs with sigma = 0 keep the realizations
they had when both children were PCG64.

A block of at least _BANDED_MIN normals (N * d) is cut into _BANDS fixed
row bands: rows [N i // K, N (i + 1) // K) of every block come from band
generator i, in block order (K = _BANDS; a band is empty when N < K). One
sequential generator cannot be split between threads, but K independent
ones can, so two threads can share a block (dynamics._ReadAhead), and the
bits depend on the seed, N and d only, not on which thread drew which
band. A run with such blocks gets other realizations for a given seed,
with the same law, than versions that drew every block from one generator
(SFC64, or PCG64 before it). Smaller blocks are not banded: each band
costs a sampler call and, on a worker thread, a GIL hand-off, more than
sharing a small block saves. They come whole from the one generator, so
those runs keep the bits they had when every block did.

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

__all__ = ["BrownianBands", "SeedBlock", "derive_seed"]

# Row bands per Brownian block of at least _BANDED_MIN normals: both are
# part of the seeding scheme, so changing either changes Gaussian
# realizations. K set from demo-example11 (3 lanes of 1e5 particles, 800
# steps, 2 vCPUs, one BLAS thread), in-process wall, medians of 5, two
# passes: K = 4 gave 633-637 ms, 6 596-600, 8 594-607, 12 607-608 and 16
# 620-631, against 655-656 ms with one generator. With fewer bands the main
# thread waits longer for the band in flight; each band more costs one
# sampler call and one GIL hand-off.
_BANDS = 8

# Fewest normals (N * d) per block drawn in bands, set where 8 bands stop
# costing time against one generator, both read ahead, medians of 9 (7 for
# the demo) in-process runs, 2 vCPUs, one BLAS thread, 2 passes. An
# example11 ladder (3 lanes, 400 steps), whose lanes take longer than the
# draw: +50 to +52 % at N = 10,000, +27 to +30 % at 20,000, +9 to +10 % at
# 30,000, +3 % at 40,000, +1 % at 50,000, -0.2 to +0.2 % at 55,000, -1 %
# at 60,000, -1.2 to -1.5 % at 65,000, -1.6 to -1.8 % at 70,000 and +0.5
# % at 1e5. demo-example11 (3 lanes, 800 steps), whose lanes are done
# before the draw: +38 to +40 % at 10,000, +25 % at 20,000, +6 to +7 % at
# 30,000, -1 to -3 % at 40,000, -3 % at 50,000, -4 to -5 % at 65,000 and
# -7 to -9 % at 1e5.
_BANDED_MIN = 65536


class BrownianBands:
    """The Brownian substream: one generator for blocks too small to band,
    and one generator per row band of a larger block. Every Brownian normal
    is drawn through standard_normal."""

    def __init__(self, whole, bands=()):
        self.whole = whole
        self.generators = tuple(bands)

    def bands(self, n_rows: int, width: int) -> list:
        """(band, row slice) for each band of an (n_rows, width) block, in
        block order; band None is the whole block, from the one generator
        (so is every block when there are no band generators)."""
        k = len(self.generators)
        if k == 0 or n_rows * width < _BANDED_MIN:
            return [(None, slice(0, n_rows))]
        return [(i, slice(n_rows * i // k, n_rows * (i + 1) // k)) for i in range(k)]

    def standard_normal(self, *, out: np.ndarray, band: int | None = None) -> np.ndarray:
        """Fill out, the rows of one band of the next block (band None: the
        whole block), from that band's generator; returns out."""
        gen = self.whole if band is None else self.generators[band]
        return gen.standard_normal(out=out)


@dataclass
class SeedBlock:
    """The two substreams for one simulation run."""

    brownian: BrownianBands
    jumps: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "SeedBlock":
        children = np.random.SeedSequence(seed).spawn(2)
        whole, *bands = (
            np.random.Generator(np.random.SFC64(s))
            for s in [children[0], *children[0].spawn(_BANDS)]
        )
        return cls(BrownianBands(whole, bands), np.random.default_rng(children[1]))


def derive_seed(master: int, label: str) -> int:
    """Stable seed of one labelled job (a verification ladder), from a
    dedicated SeedSequence over [master, 0, crc32(label)]."""
    digest = np.random.SeedSequence(
        [int(master), 0, zlib.crc32(label.encode("utf-8"))]
    ).generate_state(1)[0]
    return int(digest)
