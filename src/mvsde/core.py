"""Core value types: time grids, paths, controls, law summaries, model specs.

Everything here is immutable after construction; numpy buffers are marked
read-only so downstream code can hold views without defensive copies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import (
    GridMismatchError, InvalidArgumentError, InvalidControlError, UnsupportedError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, type hints only
    from .levy import IntensityMeasure

__all__ = [
    "TimeGrid",
    "Path",
    "Control",
    "MdpControl",
    "LawSummary",
    "ModelSpec",
    "make_time_grid",
    "null_control",
    "null_mdp_control",
    "check_control",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _as_rows(value, x, dim: int) -> np.ndarray:
    """A coefficient value as rows shaped like the (n, d) batch x."""
    rows = np.asarray(value, dtype=float).reshape(-1, dim)
    shape = np.shape(x)
    if rows.shape[0] == 1 and rows.flags.c_contiguous and shape[1:] == (dim,):
        # a read-only stride-0 view, at a third of np.broadcast_to's cost
        view = np.ndarray(shape, float, rows, 0, (0, rows.itemsize))
        view.flags.writeable = False
        return view
    return np.broadcast_to(rows, shape)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes 0 = t_0 < ... < t_n = horizon."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidArgumentError("time grid needs at least two nodes")
        if not np.isfinite(nodes).all():
            raise InvalidArgumentError("time grid nodes must be finite")
        if nodes[0] != 0.0:
            raise InvalidArgumentError("time grid must start at 0")
        if not (np.diff(nodes) > 0).all():
            raise InvalidArgumentError("time grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.nodes.size, self.horizon))


def make_time_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Uniform grid on [0, horizon] with n_steps cells."""
    if not (horizon > 0 and np.isfinite(horizon)):
        raise InvalidArgumentError("horizon must be positive and finite")
    if n_steps < 1:
        raise InvalidArgumentError("n_steps must be >= 1")
    return TimeGrid(np.linspace(0.0, float(horizon), n_steps + 1))


@dataclass(frozen=True)
class Path:
    """Values on a time grid, one row per node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.grid.nodes.size:
            raise GridMismatchError("path values must have one row per grid node")
        if not np.isfinite(values).all():
            raise InvalidArgumentError("path values must be finite")
        values = _frozen_array(values)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def _cell_table(values, grid: TimeGrid, what: str) -> np.ndarray:
    """A control's cellwise table: one finite row per grid cell (a 1-d table
    is one column), read-only."""
    table = np.asarray(values, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    if table.ndim != 2 or table.shape[0] != grid.n_steps:
        raise InvalidControlError(f"{what} needs one row per grid cell")
    if not np.isfinite(table).all():
        raise InvalidControlError("control coefficients must be finite")
    return _frozen_array(table)


@dataclass(frozen=True)
class Control:
    """Deterministic control u = (phi, psi) on a time grid.

    phi is piecewise constant per grid cell with values in R^d; psi is a
    positive jump tilt, piecewise constant on time cells x mark cells.
    """

    grid: TimeGrid
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _cell_table(self.phi, self.grid, "phi"))
        object.__setattr__(self, "psi", _cell_table(self.psi, self.grid, "psi"))
        if (self.psi <= 0.0).any():
            raise InvalidControlError("psi must be positive")

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    @property
    def n_mark_cells(self) -> int:
        return self.psi.shape[1]

    @property
    def psi_bar(self) -> float:
        """The thinning bound max(1, max psi): jumps are proposed at psi_bar * nu."""
        return max(1.0, float(self.psi.max(initial=1.0)))


def null_control(grid: TimeGrid, dim: int, n_mark_cells: int = 0) -> Control:
    """The null control (phi = 0, psi = 1)."""
    return Control(
        grid, np.zeros((grid.n_steps, dim)), np.ones((grid.n_steps, n_mark_cells))
    )


@dataclass(frozen=True)
class MdpControl:
    """Moderate-regime control (phi, tilt); tilt is the signed jump intensity
    perturbation, mapped to psi = 1 + a(eps) * tilt at simulation time."""

    grid: TimeGrid
    phi: np.ndarray
    tilt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _cell_table(self.phi, self.grid, "phi"))
        object.__setattr__(self, "tilt", _cell_table(self.tilt, self.grid, "tilt"))

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    @property
    def n_mark_cells(self) -> int:
        return self.tilt.shape[1]


def null_mdp_control(grid: TimeGrid, dim: int, n_mark_cells: int = 0) -> MdpControl:
    return MdpControl(
        grid, np.zeros((grid.n_steps, dim)), np.zeros((grid.n_steps, n_mark_cells))
    )


class LawSummary:
    """Summary of a probability law passed to model coefficients.

    dirac(point): a point mass, point (d,); or a batch of point masses,
    point (n, d), one per row of the state batch, as the skeletons and the
    moderate linearization freeze the law along the limit path.
    empirical(cloud): uniform weights on an (N, d) atom cloud, held by
    reference, not copied; its mean is np.mean(cloud, axis=0), taken on the
    first read of `mean`, so a law that no coefficient reads costs no pass
    over the cloud. That is safe only under the move-order contract: every
    read of the law happens before its cloud moves (simulate_lanes moves a
    cloud only after every coefficient call that can read it). A frozen-law
    callable must not hand out an empirical law whose cloud moves before its
    mean is read.
    Coefficients should consume `mean` (and `cloud` when they need atoms).
    A batch of point masses has no single cloud, so its `cloud` raises
    UnsupportedError: a coefficient that reads atoms cannot run there.
    """

    __slots__ = ("_mean", "_cloud")

    def __init__(self, mean: np.ndarray, cloud: np.ndarray | None):
        self._mean = mean
        self._cloud = cloud

    @classmethod
    def dirac(cls, point) -> "LawSummary":
        point = np.asarray(point, dtype=float)
        return cls(point, point[None] if point.ndim == 1 else None)

    @classmethod
    def empirical(cls, cloud) -> "LawSummary":
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim != 2 or cloud.shape[0] < 1:
            raise InvalidArgumentError("empirical summary needs an (N, d) cloud")
        return cls(None, cloud)

    @property
    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = np.mean(self._cloud, axis=0)
        return self._mean

    @property
    def cloud(self) -> np.ndarray:
        if self._cloud is None:
            raise UnsupportedError(
                "a batch of point masses has no atom cloud; read law.mean instead"
            )
        return self._cloud

    def __repr__(self):
        return f"LawSummary(mean={np.ravel(self.mean)[:4]})"


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and structure of one mean-field jump-diffusion model.

    Coefficients are callables
        drift(t, x, law) -> (..., d)
        diffusion(t, x, law) -> (d, d) or (n, d, d)
        jump(t, x, law, z) -> (..., d)
    where t may be a scalar or an (n,) array, x is (n, d), and law is a
    LawSummary. The particle engine, the skeletons and the rate functions
    all read these same coefficients.
    """

    name: str
    dim: int
    initial: np.ndarray
    drift: Callable
    diffusion: Callable
    jump: Callable | None = None
    intensity: "IntensityMeasure | None" = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        initial = _frozen_array(np.reshape(np.asarray(self.initial, dtype=float), (-1,)))
        if initial.size != self.dim:
            raise InvalidArgumentError("initial condition does not match dim")
        if not np.isfinite(initial).all():
            raise InvalidArgumentError("initial condition must be finite")
        if (self.jump is None) != (self.intensity is None):
            raise InvalidArgumentError("jump coefficient and intensity come together")
        object.__setattr__(self, "initial", initial)

    @property
    def has_jumps(self) -> bool:
        return self.jump is not None

    @property
    def n_mark_cells(self) -> int:
        return 0 if self.intensity is None else self.intensity.n_cells

    def drift_rows(self, t, x, law) -> np.ndarray:
        """drift(t, x, law) as rows shaped like the (n, d) batch x; a (d,) value broadcasts."""
        return _as_rows(self.drift(t, x, law), x, self.dim)

    def jump_rows(self, t, x, law, z) -> np.ndarray:
        """jump(t, x, law, z) as rows shaped like the (n, d) batch x; a (d,) value broadcasts."""
        return _as_rows(self.jump(t, x, law, z), x, self.dim)


def check_control(control, spec: ModelSpec, grid: TimeGrid) -> None:
    """Check that a Control or MdpControl fits the model and the run: a
    GridMismatchError unless it lives on grid, an InvalidControlError unless
    it has one phi column per state dimension and one psi (or tilt) column
    per mark cell of spec, none on a model without jumps."""
    if control.grid != grid:
        raise GridMismatchError("control grid does not match the run's grid")
    if control.dim != spec.dim:
        raise InvalidControlError("control dimension does not match the model")
    if control.n_mark_cells != spec.n_mark_cells:
        raise InvalidControlError(
            f"control has {control.n_mark_cells} mark cells, model has {spec.n_mark_cells}"
        )
