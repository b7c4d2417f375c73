"""On-disk formats: path CSV, control JSON, report JSON, run manifests.

Paths travel as CSV with a header row t,x0,...,x{d-1}. Controls travel as
JSON carrying the grid nodes and the cellwise coefficient tables, tagged by
lane ("ldp" controls hold phi/psi, "mdp" controls hold phi/tilt). Reports
are plain JSON dicts produced by the to_dict methods, wrapped with a
manifest of the producing parameters; manifests never include timestamps,
so rerunning a command reproduces its output byte for byte.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .core import Control, MdpControl, Path, TimeGrid
from .errors import InvalidArgumentError

__all__ = [
    "save_path_csv",
    "load_path_csv",
    "save_control",
    "load_control",
    "save_report",
    "ensemble_summary",
    "make_manifest",
]


class _NumpyEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def save_path_csv(file, path: Path) -> None:
    file = FsPath(file)
    with file.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j}" for j in range(path.dim)])
        for t, row in zip(path.grid.nodes, path.values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def _read_text(file, what: str) -> str:
    """The text of a user-named input file; an InvalidArgumentError when it
    cannot be read (missing, a directory, unreadable) or is not UTF-8."""
    try:
        return FsPath(file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {what} file {file}: {exc}")


def load_path_csv(file) -> Path:
    reader = csv.reader(_read_text(file, "path").splitlines())
    header = next(reader, None)
    rows = [row for row in reader if row]
    if not header or header[0] != "t" or len(rows) < 2:
        raise InvalidArgumentError(f"{file} is not a path CSV (header t,x0,...)")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError:
        raise InvalidArgumentError(f"{file} has a non-numeric cell or a ragged row")
    return Path(TimeGrid(data[:, 0]), data[:, 1:])


def save_control(file, control) -> None:
    if isinstance(control, Control):
        payload = {
            "kind": "ldp",
            "nodes": control.grid.nodes.tolist(),
            "phi": control.phi.tolist(),
            "psi": control.psi.tolist(),
        }
    elif isinstance(control, MdpControl):
        payload = {
            "kind": "mdp",
            "nodes": control.grid.nodes.tolist(),
            "phi": control.phi.tolist(),
            "tilt": control.tilt.tolist(),
        }
    else:
        raise InvalidArgumentError("save_control takes a Control or MdpControl")
    FsPath(file).write_text(json.dumps(payload, indent=2, cls=_NumpyEncoder) + "\n")


def load_control(file):
    """A Control or MdpControl from its JSON file; a file with no "kind"
    reads as "ldp", and keys that the kind does not use are ignored."""
    try:
        raw = json.loads(_read_text(file, "control"))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"control file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"control file is not a JSON object: {file}")
    kind = raw.get("kind", "ldp")
    if kind not in ("ldp", "mdp"):
        raise InvalidArgumentError(f"control file kind must be ldp or mdp, not {kind!r}")
    mdp = kind == "mdp"
    try:
        nodes = np.asarray(raw["nodes"], dtype=float)
        phi = np.asarray(raw["phi"], dtype=float)
        other = np.asarray(raw["tilt" if mdp else "psi"], dtype=float)
    except KeyError as exc:
        raise InvalidArgumentError(f"control file is missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"control file entries must be numeric: {exc}")
    grid = TimeGrid(nodes)
    if mdp:
        return MdpControl(grid, phi, other)
    return Control(grid, phi, other)


def save_report(file, payload: dict) -> None:
    FsPath(file).write_text(json.dumps(payload, indent=2, cls=_NumpyEncoder) + "\n")


def ensemble_summary(ens) -> dict:
    """Compact JSON-ready digest of a particle run."""
    terminal = ens.terminal
    qs = np.percentile(terminal, [5, 25, 50, 75, 95], axis=0)
    out = {
        "kind": ens.kind,
        "eps": ens.eps,
        "n_particles": ens.n_particles,
        "dim": ens.dim,
        "seed": ens.seed,
        "horizon": ens.grid.horizon,
        "n_steps": ens.grid.n_steps,
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_std": terminal.std(axis=0).tolist(),
        "terminal_quantiles": {
            "q05": qs[0].tolist(),
            "q25": qs[1].tolist(),
            "q50": qs[2].tolist(),
            "q75": qs[3].tolist(),
            "q95": qs[4].tolist(),
        },
        "meta": ens.meta,
    }
    if ens.sup_sq is not None:
        out["mean_sup_sq_to_reference"] = float(np.mean(ens.sup_sq))
    return out


def make_manifest(command: str, **params) -> dict:
    """Reproducibility block for report files: inputs only, no timestamps."""
    return {"tool": "mvsde", "version": __version__, "command": command, **params}
