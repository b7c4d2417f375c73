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
smallest eps, psibar_i = Control.psi_bar = max(1, max psi) of lane i and
hi = max_i psibar_i * eps_ref / eps_i; lane i keeps a
proposal iff u * hi < psi_i(cell) * eps_ref / eps_i, so thinning stays
monotone in psi. A lane is bit-identical to its solo run when its rate
bound is the run's (eps_i = eps_ref, psibar_i = hi; the factor is exactly
1.0 for one lane or lanes of one eps), and so is every lane of a model
without jumps; the others are equal in law. The Brownian increment is drawn
only when some lane's sigma is not identically zero at that step; otherwise
the Brownian substream is left untouched.

The increment's standard normals come in one raw (N, d) block per noisy
step, scaled by sqrt(dt) at that step, from the seed's Brownian substream
(rng.BrownianBands: SFC64, in fixed row bands from rng._BANDED_MIN normals
on); the jump draws come from the PCG64 jump substream. The draw is the
critical path of every run with sigma != 0, so a block of at least
_READ_AHEAD_MIN normals is read ahead by one worker thread (_ReadAhead)
while the lanes move, and the main thread draws the bands that the worker
has not reached. Each band comes from its own generator, so the bits depend
on the seed, N and d only, not on which thread drew a band, nor on
_READ_AHEAD_MIN. Smaller blocks are drawn inline, a run whose sigma is zero
at every step starts no thread, and a draw that fails on either thread
raises on the caller. Before its first allocation, simulate_lanes refuses a
run that cannot fit in memory (_check_memory).

Per step k, with the law frozen at the left endpoint:

    X <- X + dt * b                 (drift)
         + sqrt(eps) * sigma dW     (Brownian)
         + dt * sigma phi_k         (Brownian control)
         - dt * sum_j G nu_j        (compensator)

followed by the step's accepted jumps, X += eps * G, applied in time
order per particle. While the compensator is one row (below), G reads no x
(models), and G is evaluated once per present mark cell over that cell's
jumps at their own times; when each answer is one row, the jumps land after
X += increment in one scatter (np.add.at, one add at a time in the order
the jumps come in) from a (C, d) table of eps * G (_jump_table). Any
other G (one that reads x, or t per jump) takes the rank loop
(_apply_jumps): grouped by occurrence rank, vectorized across particles, on
a gathered copy of the jumping particles' post-drift states. Both give each
particle fl(x + increment), then + fl(eps * G) once per jump in time order,
so they agree bit for bit. Each cloud moves in place through step buffers
shared by all lanes. Every coefficient call still sees the left-endpoint
cloud through law.cloud: the jump coefficients run before the cloud moves
or on a gathered copy, and the lanes move last to first while a lane reads
only an earlier lane, so each reader moves before the cloud it reads. The
step's jumps are sampled inside the loop (levy.propose_step) and masked per
lane (levy.thin_step, which keeps the order it is given and ranks nothing),
so memory holds one step's jumps, not the horizon's. They come in draw
order. A lane whose bits depend on (stream, time) order (the rank loop, or
a table lane on a step that proposes two or more mark cells) thins them as
levy.time_order sorts them, once per step, on first need, shared by the
later lanes. A table lane on a step that proposes one cell scatters them in
draw order: every jump of a particle then adds the same table row, so the
order of the adds moves no bit. The compensator is summed atom by atom;
with three or more mark atoms its last bit can differ from an einsum's.
While every atom's G has its rows all equal (a (d,) value, or a view with
row stride 0, as pure_jump and the JSON models give) it is summed as one
(d,) row, fl(fl(sum_j fl(G_j m_j)) dt): the same bits as the (N, d) atom
loop.

The step's increment stays one (d,) row while every term so far is a row
(a drift with rows all equal, sigma phi_k from a (d, d) sigma, a one-row
compensator); the first per-particle term joins it in the increment buffer
as row + term, and the cloud moves by X += increment. Each value keeps its
operations and their order, so no bit changes, and a lane of row terms only
(pure_jump) moves in one pass over the cloud.
Jumps arrive at the tilted rate psi / eps; their compensator
dt * sum_j G psi_kj nu_j and the control shift dt * sum_j G (psi_kj - 1) nu_j
cancel to the plain compensator, so psi acts only through the thinning.

The divergence guard stops a run at the first step after which a cloud has
an entry beyond L = skeleton._DIVERGENCE_LIMIT or a non-finite one. A lane
carries bounds (lo, hi) on its entries through each step that moves it by
one row c, to fl(lo + min c) and fl(hi + max c) (rounding is monotone), and
folds in its jumpers' end-of-step rows; a per-particle increment, or bounds
that are NaN or leave [-L, L], runs the exact test (skeleton._guard), whose
min and max become the bounds (_carry_bounds).

Work that lanes share is done once per step, in the same operations and
order as per lane, so no bit changes: one LawSummary per cloud read (a
lane that reads lane j reuses lane j's), whose mean is taken on its first
read, so a step whose coefficients never read law.mean takes none (the
move-order rule above makes that read see the left-endpoint cloud); sigma
dW once, in the place of dW, when every lane's sigma is the same constant
(d, d) matrix (a state-dependent (n, d, d) sigma stays per lane); and its
sqrt(eps) scaling once per run of lanes of one eps. The scaled noise stays
valid across lanes until a buffer takes it as scratch: an (N, d)
compensator does, and invalidates it (a one-row compensator does not); the
recorder takes the increment buffer instead, which is free once the cloud
has moved.

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
import itertools
import math
import os
import sys
import threading

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
from .levy import propose_step, thin_step, time_order
from . import skeleton
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

# Fewest normals (N * d) per block that a worker thread reads ahead; smaller
# blocks are drawn inline, since handing a block between threads then costs
# more than drawing it. Set at the measured crossover, on the one-generator
# SFC64 draw that every block below rng._BANDED_MIN uses: example11, 3
# lanes, 400 steps, 2 vCPUs, one BLAS thread, medians of 9 in-process runs
# per pass, read-ahead against inline, 2 passes: +33 to +34 % at N = 3,000,
# +9 to +10 % at N = 5,000, +2 to +4 % at N = 6,000, -0.3 to +0.7 % at
# N = 6,500, -3 to -4 % at N = 7,000, -11 to -12 % at N = 8,192 and -19 %
# at N = 10,000 (before blocks were shared between the threads, and on the
# PCG64 draw, it was at the same place). It must stay below
# rng._BANDED_MIN: a banded block drawn inline pays for its bands and
# gains nothing. Every benchmark workload that draws normals is above both
# (N = 1e5), so only in-process runs, such as demo-example11 at its default
# 10,000 particles, exercise the one-generator read-ahead, and only smaller
# ones the inline side.
_READ_AHEAD_MIN = 6500

# Whether the caller draws the queued bands of a block read ahead: only
# under the GIL, which makes the shared queue safe (see _ReadAhead).
_CALLER_DRAWS = getattr(sys, "_is_gil_enabled", lambda: True)()


def _memory_limit() -> int | None:
    """Bytes of memory this process can use: the machine's physical memory,
    or the smallest cgroup limit on the way from this process's cgroup to
    the root when that is smaller; None where the platform does not report
    its physical memory. Free memory is no limit: it shrinks as the page
    cache grows, and the kernel hands the cache back."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return min([limit, *_cgroup_caps()])


def _cgroup_caps() -> list:
    """The memory limits set on this process's cgroup and its ancestors, as
    /proc/self/cgroup names them: memory.max under cgroup v2 (the "0::"
    line), memory.limit_in_bytes under a v1 memory controller. A limit file
    that is missing or reads "max" sets none."""
    try:
        with open("/proc/self/cgroup") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    caps = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if controllers == "":
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(root, *parts[:depth], name)) as fh:
                    cap = fh.read().strip()
            except OSError:
                continue
            if cap.isdigit():
                caps.append(int(cap))
    return caps


def _check_memory(lanes, spec: ModelSpec, grid: TimeGrid, n_particles: int, jump_rate: float):
    """Refuse a run whose buffers cannot fit in memory, before any of them is
    allocated: the lanes' clouds, the three step buffers and the read-ahead
    spare, the recorders, and one step's proposed jumps at jump_rate * nu
    per particle. Temporaries that the model's coefficients return are not
    counted. Sizes add up in MiB, so that even a huge count stays finite."""
    limit = _memory_limit()
    if limit is None:
        return
    word = 8.0 / 2**20  # MiB per float64
    n_nodes, block = grid.n_steps + 1, word * n_particles * spec.dim
    need = (len(lanes) + 4) * block
    for lane in lanes:
        if lane.record == "full":
            need += n_nodes * block
        elif lane.record == "mean":
            need += word * n_nodes * spec.dim
        if lane.reference is not None:
            need += 2 * word * n_particles  # sup_sq and the squared distances
    if spec.has_jumps:
        # the proposals of the longest step, Poisson, bounded by mean + 10 sd;
        # each holds at most about 16 + 4 d words at once (propose_step's
        # arrays, time_order's key, order and sorted copy when a lane needs
        # them, a lane's thinned copy, the scatter's indices and values, then
        # the jumpers' gathered end-of-step rows); held is word * mean
        held = word * n_particles * jump_rate * float(spec.intensity.masses.sum() * grid.dt.max())
        need += (held + 10.0 * math.sqrt(word * held)) * (16 + 4 * spec.dim)
    if need > limit / 2**20:
        size = f"{need:,.0f}" if need < 1e12 else f"{need:.3g}"
        raise InvalidArgumentError(
            f"the run needs about {size} MiB of memory, more than "
            f"the {limit / 2**20:,.0f} MiB this process may use"
        )


@dataclass
class ParticleEnsemble:
    """Result of one particle-system run.

    paths is (n_nodes, n_particles, d) under record="full" and None
    otherwise; means is the (n_nodes, d) cloud mean at each node under
    record="mean" and None otherwise; terminal is always the final
    (n_particles, d) cloud. sup_sq holds each particle's running max squared
    distance to the reference path when one was supplied.
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
    means: np.ndarray | None = None

    def mean_path(self) -> np.ndarray:
        """The (n_nodes, d) cloud mean at each node; the same bits under
        record="mean" as under "full"."""
        if self.means is not None:
            return self.means
        if self.paths is None:
            raise InvalidArgumentError("mean_path needs record='full' or 'mean'")
        return self.paths.mean(axis=1)


class _Recorder:
    """Full path buffer under record="full", each node's cloud mean under
    "mean" (neither under "summary"), plus each particle's running max
    squared distance to the reference, if any."""

    def __init__(self, record, n_nodes, n_particles, dim, reference):
        if record not in ("full", "mean", "summary"):
            raise InvalidArgumentError(f"unknown record mode {record!r}")
        self.paths = np.empty((n_nodes, n_particles, dim)) if record == "full" else None
        self.means = np.empty((n_nodes, dim)) if record == "mean" else None
        self.reference = reference
        self.sup_sq = None if reference is None else np.zeros(n_particles)
        self.d2 = None if reference is None else np.empty(n_particles)

    def record(self, k, x, scratch):
        """Record the cloud x at node k; scratch is a free (N, d) buffer."""
        if self.paths is not None:
            self.paths[k] = x
        if self.means is not None:
            self.means[k] = x.mean(axis=0)
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
    index of an earlier lane (that lane's cloud at the step's left endpoint),
    a Path (point masses along it) or a callable step -> LawSummary. control
    None is the null control."""

    eps: float
    control: Control | None = None
    law: object = "self"
    reference: object = None
    record: str = "summary"


def _law_source(law, grid: TimeGrid, lane: int):
    """The index of the lane whose cloud the lane reads, or a callable
    step -> LawSummary."""
    if isinstance(law, str) and law == "self":
        return lane
    if isinstance(law, int) and not isinstance(law, bool):
        if not 0 <= law < lane:
            raise InvalidArgumentError(
                f'lane {lane} reads lane {law}; a lane reads "self" or an earlier lane'
            )
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


def _join(op, inc, term, out):
    """op(inc, term) for a step increment inc: one (d,) row while inc and
    term are rows, else into the (N, d) buffer out (which inc may be)."""
    return op(inc, term) if inc.ndim == term.ndim == 1 else op(inc, term, out=out)


def _present_cells(cells, n_cells):
    """The mark cells that occur in cells, in ascending order (one cell: no scan)."""
    if n_cells == 1:
        return np.arange(min(cells.size, 1))
    seen = np.zeros(n_cells, dtype=bool)
    seen[cells] = True
    return np.flatnonzero(seen)


def _jump_table(streams, times, cells, x, law, spec, eps):
    """eps * G as one (C, d) table, row c for mark cell c, when G gives one
    row over each present cell's jumps at their own times; else None. x
    (which law.cloud may be) is read only for the jumpers' rows, the batch
    that G is handed."""
    table = np.empty((spec.n_mark_cells, spec.dim))
    present = _present_cells(cells, spec.n_mark_cells)
    for j in present:
        sel = slice(None) if present.size == 1 else np.flatnonzero(cells == j)
        batch = np.take(x, streams[sel], axis=0)
        g = spec.jump_rows(times[sel], batch, law, spec.intensity.atoms[j])
        if g.strides[0] != 0:
            return None
        table[j] = eps * g[0]
    return table


def _scatter_jumps(x, streams, cells, table):
    """x[s] += table[c] for each jump (s, c), one add at a time in the order
    the jumps are given, through flat indices s * d + component of the
    C-contiguous cloud x; a (1, 1) table's one entry is added ungathered."""
    d = x.shape[1]
    at = streams if d == 1 else (streams[:, None] * d + np.arange(d)).ravel()
    rows = table[0, 0] if table.shape == (1, 1) else np.take(table, cells, axis=0).ravel()
    np.add.at(x.reshape(-1), at, rows)


def _carry_bounds(x, k, bounds, inc, jumped):
    """Step k's divergence guard (module docstring): bounds (lo, hi) on x, carried
    from bounds by a one-row inc and the jumpers' rows jumped, or _guard's."""
    lo = hi = np.nan
    if inc.ndim == 1:
        lo, hi = bounds[0] + inc.min(), bounds[1] + inc.max()
        if jumped is not None and jumped.size:
            # np.minimum and np.maximum keep a NaN; min() and max() may drop it
            lo, hi = np.minimum(lo, jumped.min()), np.maximum(hi, jumped.max())
    if -skeleton._DIVERGENCE_LIMIT <= lo and hi <= skeleton._DIVERGENCE_LIMIT:
        return lo, hi
    return _guard(x, k, "particle system")


def _apply_jumps(streams, times, cells, x, incr, law, spec, eps):
    """Apply one step's accepted jumps, given in (stream, time) order, in
    per-particle time order to the post-drift states x + incr of the
    particles that jump; incr is the (N, d) increment or one (d,) row for
    every particle. The jump coefficients run on a gathered copy, so x
    (which law.cloud may be) keeps the step's left endpoint; returns the
    jumping particles and their end-of-step states."""
    # head marks each stream's first jump (and a sentinel past the end):
    # they hold every jumping particle once, in stream order, and a stream's
    # jump of rank r + 1 sits right after its jump of rank r
    head = np.ones(streams.size + 1, dtype=bool)
    np.not_equal(streams[1:], streams[:-1], out=head[1:-1])
    now = np.flatnonzero(head[:-1])
    movers = streams[now]
    moved = np.take(x, movers, axis=0)
    moved += incr if incr.ndim == 1 else np.take(incr, movers, axis=0)
    slot = np.arange(movers.size)
    while now.size:
        cells_now = cells[now]
        present = _present_cells(cells_now, spec.n_mark_cells)
        for j in present:
            sel = slice(None) if present.size == 1 else np.flatnonzero(cells_now == j)
            # while slot is every mover (rank 0), one present cell adds in place
            at = sel if now.size == movers.size else slot[sel]
            g = spec.jump_rows(times[now[sel]], moved[at], law, spec.intensity.atoms[j])
            moved[at] += eps * g
        more = np.flatnonzero(~head[now + 1])
        now, slot = now[more] + 1, slot[more]
    return movers, moved


class _ReadAhead:
    """The Brownian substream's standard normals, one (N, d) block per noisy
    step, each block drawn as the bands of rng.BrownianBands (one band when
    the block is too small to band). When a block holds at least
    _READ_AHEAD_MIN normals, one worker thread draws the block after the
    one handed out into a spare block while the caller moves the lanes: it
    takes the block's bands in order from a queue shared with the caller
    until none is left. A caller that asks for the block before the worker
    is done takes and draws the bands still queued, then waits only for the
    band that the worker is drawing. The worker starts at the first block
    read ahead. Use it as a context manager: leaving the with statement
    stops the worker.

    The queue is a builtin iterator and the count of bands drawn an
    itertools.count: next() on either runs whole under the GIL (threading
    counts its thread names the same way), so each band is taken once and
    counted once without a lock; a lock-guarded counter measured 2 % slower
    on the demo at N = 10,000. Without a GIL (a free-threaded build) next()
    gives no such guarantee, so there the caller leaves every band to the
    worker."""

    def __init__(self, normals, n_rows: int, width: int):
        self._normals = normals
        self._bands = normals.bands(n_rows, width)
        self._spare = None  # the block the worker draws into
        self._worker = None
        self._pending = False  # the worker holds or draws the next block
        # the pending block's bands not yet taken, and the count of its
        # bands drawn
        self._queue, self._drawn = iter(()), itertools.count(1)
        self._error = None
        self._closed = False
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)  # released when the last band is drawn

    def _draw_queued(self):
        """Take and draw the pending block's queued bands until none is left."""
        for band, rows in self._queue:
            try:
                self._normals.standard_normal(out=self._spare[rows], band=band)
            except BaseException as exc:  # re-raised on the caller
                self._error = exc
            if next(self._drawn) == len(self._bands):
                self._done.release()

    def next_into(self, buf: np.ndarray, more: bool) -> np.ndarray:
        """The next block: buf filled inline, or the block read ahead, which
        takes the place of buf (buf becomes the spare). When more is true,
        the worker starts drawing the block after."""
        if self._pending:
            if _CALLER_DRAWS:
                self._draw_queued()
            self._done.acquire()
            self._pending = False
            if self._error is not None:
                raise self._error
            buf, self._spare = self._spare, buf
        else:
            for band, rows in self._bands:
                self._normals.standard_normal(out=buf[rows], band=band)
        if more and buf.size >= _READ_AHEAD_MIN:
            if self._worker is None:
                self._spare = np.empty_like(buf)
                self._worker = threading.Thread(
                    target=self._draw, name="mvsde-read-ahead", daemon=True
                )
                self._worker.start()
            self._queue, self._drawn = iter(self._bands), itertools.count(1)
            self._pending = True
            self._go.release()
        return buf

    def _draw(self):
        # one release of _go per block read ahead; the caller may have drawn
        # every band of it by the time the worker wakes
        while True:
            self._go.acquire()
            if self._closed:
                return
            self._draw_queued()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._worker is not None:
            self._closed = True
            self._go.release()
            self._worker.join()


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
    sources = [_law_source(lane.law, grid, i) for i, lane in enumerate(lanes)]
    # the cloud whose empirical law each lane reads (None: a frozen flow)
    clouds = [None if callable(src) else src for src in sources]
    read_clouds = set(clouds) - {None}
    # proposals at rate (1 / eps_ref) * hi * nu dominate every lane's
    # psi_i / eps_i; lane i keeps one iff u * hi < psi_i(cell) * eps_ref / eps_i
    eps_ref = min(lane.eps for lane in lanes)
    scale = [eps_ref / lane.eps for lane in lanes]
    hi = max(ctl.psi_bar * f for ctl, f in zip(controls, scale))
    thin_psi = [ctl.psi * f for ctl, f in zip(controls, scale)]

    n, d, big_n = grid.n_steps, spec.dim, n_particles
    _check_memory(lanes, spec, grid, big_n, hi / eps_ref)
    sb = SeedBlock.from_seed(seed)
    n_jumps = [0] * len(lanes)
    n_proposed = 0
    recs = [
        _Recorder(lane.record, n + 1, big_n, d, _as_reference(lane.reference, grid, d))
        for lane in lanes
    ]
    # step buffers shared by all lanes: the Brownian increment (or sigma dW
    # when every lane has the same constant sigma), one lane's increment (then
    # the recorders' scratch) and its sqrt(eps) sigma dW (then the compensator's);
    # the read-ahead swaps its spare block in for dw
    dw, incr, noise = (np.empty((big_n, d)) for _ in range(3))
    xs = [np.tile(spec.initial, (big_n, 1)) for _ in lanes]
    bounds = [(spec.initial.min(), spec.initial.max())] * len(lanes)  # _carry_bounds
    for rec, x in zip(recs, xs):
        rec.record(0, x, incr)
    sqrt_eps = [float(np.sqrt(lane.eps)) for lane in lanes]
    phi_active = [bool(ctl.phi.any()) for ctl in controls]

    dts = grid.dt
    with _ReadAhead(sb.brownian, big_n, d) as normals:
        for k in range(n):
            t_k = float(grid.nodes[k])
            dt = float(dts[k])
            # every lane reads its law at the left endpoint: no cloud moves until
            # every coefficient call that can read it is done
            empirical = {c: LawSummary.empirical(xs[c]) for c in read_clouds}
            laws = [src(k) if c is None else empirical[c] for src, c in zip(sources, clouds)]
            sigs = [spec.diffusion(t_k, x, law) for x, law in zip(xs, laws)]
            noisy = [bool(np.any(sig)) for sig in sigs]
            if any(noisy):
                dw = normals.next_into(dw, k + 1 < n)
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
                # cells come ascending, so the step proposes one cell iff the
                # first and the last agree
                cells = proposal[2]
                one_cell = cells.size == 0 or cells[0] == cells[-1]
                ordered = None  # time_order(proposal), sorted on first need
            # last to first: a lane reads only earlier lanes, which move after it
            for i in reversed(range(len(lanes))):
                x, law, sig, ctl = xs[i], laws[i], sigs[i], controls[i]
                if noisy[i] and not shared_sig:
                    _matvec(sig, dw, out=noise)
                    noise *= sqrt_eps[i]
                elif noisy[i] and noise_scale != sqrt_eps[i]:
                    np.multiply(dw, sqrt_eps[i], out=noise)
                    noise_scale = sqrt_eps[i]
                # one (d,) row until a per-particle term joins it (module docstring)
                drift = spec.drift_rows(t_k, x, law)
                inc = dt * drift[0] if drift.strides[0] == 0 else np.multiply(dt, drift, out=incr)
                if noisy[i]:
                    inc = _join(np.add, inc, noise, incr)
                if phi_active[i]:
                    # a (d, d) sigma gives one (1, d) row sigma phi_k for all particles
                    one = np.ndim(sig) == 2
                    row = ctl.phi[k][None]
                    sig_phi = dt * _matvec(sig, row if one else np.broadcast_to(row, (big_n, d)))
                    inc = _join(np.add, inc, sig_phi[0] if one else sig_phi, incr)
                if spec.has_jumps:
                    # the compensator, atom by atom: one (d,) row while every G
                    # so far is one row (stride 0), else into the free noise buffer
                    comp = None
                    for z, mass in zip(spec.intensity.atoms, spec.intensity.masses):
                        g = spec.jump_rows(t_k, x, law, z)
                        if g.strides[0] == 0 and (comp is None or comp.ndim == 1):
                            comp = g[0] * mass if comp is None else comp + g[0] * mass
                        elif comp is None:
                            comp = np.multiply(g, mass, out=noise)
                        else:
                            comp = np.add(comp, g * mass, out=noise)
                    comp *= dt
                    inc = _join(np.subtract, inc, comp, incr)
                    if comp is noise:
                        noise_scale = None
                    # a G that gives the cloud one row reads no x (models): its
                    # jumps land in one scatter if it gives each cell one row.
                    # With one cell every jump of a particle adds the same
                    # row, so that scatter takes the jumps in draw order
                    draw_order = one_cell and comp.ndim == 1
                    table = None
                    if draw_order:
                        jumps = thin_step(proposal, thin_psi[i][k])
                        table = _jump_table(*jumps, x, law, spec, lanes[i].eps)
                    if table is None:
                        # the rank loop and a table over two or more cells
                        # read the jumps in (stream, time) order; a G that
                        # gave no table in draw order gives none here either
                        if ordered is None:
                            ordered = time_order(proposal, big_n)
                        jumps = thin_step(ordered, thin_psi[i][k])
                        if comp.ndim == 1 and not draw_order:
                            table = _jump_table(*jumps, x, law, spec, lanes[i].eps)
                        if table is None:
                            movers, moved = _apply_jumps(*jumps, x, inc, law, spec, lanes[i].eps)
                    n_jumps[i] += jumps[0].size
                x += inc
                jumped = None  # the jumpers' end-of-step rows, when the bounds need them
                if spec.has_jumps and table is None:
                    x[movers] = jumped = moved
                elif spec.has_jumps:
                    _scatter_jumps(x, jumps[0], jumps[2], table)
                    jumped = np.take(x, jumps[0], axis=0) if inc.ndim == 1 else None
                bounds[i] = _carry_bounds(x, k, bounds[i], inc, jumped)
                recs[i].record(k + 1, x, incr)

    return [
        ParticleEnsemble(grid, lane.eps, big_n, d, int(seed), "state", x, rec.paths, rec.sup_sq, {
            "warnings": notes,
            "law_mode": "frozen" if callable(src) else lane.law,
            "rate_scale": 1.0 / lane.eps,
            "n_jumps": int(jumps),
            "n_proposed": int(n_proposed),
        }, rec.means)
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
    dts = grid.dt
    for k in range(grid.n_steps):
        xbar[k + 1] = xbar[k] + dts[k] * _field(spec, float(grid.nodes[k]), xbar[k])
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
        ctl = Control(grid, a * control.phi, psi)
        lane = Lane(eps, ctl, Path(grid, xbar), ref_x, record)

    def to_fluctuation(ens: ParticleEnsemble) -> ParticleEnsemble:
        if ens.paths is not None:
            ens.paths -= xbar[:, None, :]
            ens.paths /= a
        if ens.means is not None:
            ens.means -= xbar
            ens.means /= a
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
