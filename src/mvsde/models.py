"""Built-in model registry and the declarative JSON model format.

Coefficient conventions: drift(t, x, law) -> (n, d) with x an (n, d) state
batch and t a scalar or (n,) array; diffusion returns a (d, d) matrix (or an
(n, d, d) batch); jump(t, x, law, z) -> (n, d) for one mark atom z. A drift
or jump that does not read x may return one (d,) row instead: drift_rows and
jump_rows broadcast it to every particle as a read-only view of row stride
0, and the particle engine keeps the step's increment as one row until a
per-particle term joins it (pure_jump has none). Laws arrive as LawSummary;
models should read law.mean (broadcast against x) and law.cloud only if they
truly need atoms: the skeletons and the rates freeze the law as one point
mass per row, which has no cloud, and refuse them.

No model supplies a jacobian: the moderate skeleton linearizes every model
the same way, with A(t) = d_x b(t, xbar, d_xbar), the law frozen at the
noise-free solution (skeleton.jacobian_b_x). The derivative in the measure
argument drops out of the moderate limit.
"""
from __future__ import annotations

import json

import numpy as np

from .core import ModelSpec
from .errors import InvalidArgumentError
from .io import _read_text
from .levy import IntensityMeasure

__all__ = ["get_model", "list_models", "load_model_file"]


def _mean_like(law, x):
    return np.broadcast_to(law.mean, np.shape(x))


def _example11() -> ModelSpec:
    """Mean-field pull: each particle drifts at the population mean.

    The limit flow from 1.0 is exp(t). The drift does not read the state
    itself, so A = d_x b = 0 and M(1) has variance h = eps / a^2.
    """

    def drift(t, x, law):
        return _mean_like(law, x)

    def diffusion(t, x, law):
        return np.eye(1)

    return ModelSpec(
        name="example11",
        dim=1,
        initial=np.array([1.0]),
        drift=drift,
        diffusion=diffusion,
    )


def _linear_gaussian() -> ModelSpec:
    """Law-independent linear drift, unit diffusion: b = x, sigma = 1."""

    def drift(t, x, law):
        return np.asarray(x, dtype=float)

    def diffusion(t, x, law):
        return np.eye(1)

    return ModelSpec(
        name="linear_gaussian",
        dim=1,
        initial=np.array([1.0]),
        drift=drift,
        diffusion=diffusion,
    )


def _pure_jump() -> ModelSpec:
    """Compensated unit jumps at unit intensity, no drift, no diffusion."""

    def drift(t, x, law):
        return np.zeros(1)

    def diffusion(t, x, law):
        return np.zeros((1, 1))

    def jump(t, x, law, z):
        return np.ones(1)

    return ModelSpec(
        name="pure_jump",
        dim=1,
        initial=np.array([0.0]),
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        intensity=IntensityMeasure(np.array([[1.0]]), np.array([1.0])),
    )


def _logistic_mf() -> ModelSpec:
    """Logistic growth damped by the population mean, with small down-jumps.

    b(t, x, mu) = x (1 - mean(mu)); the limit solves the logistic equation
    x' = x (1 - x), and A = d_x b(t, xbar, d_xbar) = 1 - xbar.
    """

    def drift(t, x, law):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - _mean_like(law, x))

    def diffusion(t, x, law):
        return np.array([[0.5]])

    def jump(t, x, law, z):
        return -0.2 * float(z[0]) * np.asarray(x, dtype=float)

    return ModelSpec(
        name="logistic_mf",
        dim=1,
        initial=np.array([0.5]),
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        intensity=IntensityMeasure(np.array([[1.0]]), np.array([0.5])),
    )


_REGISTRY = {
    "example11": _example11,
    "linear_gaussian": _linear_gaussian,
    "pure_jump": _pure_jump,
    "logistic_mf": _logistic_mf,
}


def list_models() -> list[str]:
    return sorted(_REGISTRY)


def get_model(name: str) -> ModelSpec:
    """Look up a built-in model, or load a .json model file by path."""
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if str(name).endswith(".json"):
        return load_model_file(name)
    raise InvalidArgumentError(
        f"unknown model {name!r}; available: {', '.join(list_models())} "
        "or a path to a .json model file"
    )


def _floats(entry, what: str) -> np.ndarray:
    try:
        return np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"model file: {what} must be numbers, not {entry!r}")


def _block(raw: dict, key: str) -> dict:
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise InvalidArgumentError(f"model file: {key} must be an object, not {block!r}")
    return block


def _matrix(entry, shape, what: str) -> np.ndarray:
    arr = _floats(entry, what)
    if arr.shape != shape:
        raise InvalidArgumentError(f"model file: {what} must have shape {shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"model file: {what} must be finite")
    return arr


def load_model_file(path) -> ModelSpec:
    """Build a model from a JSON description of affine coefficients.

    Schema (all blocks optional except name/dim/initial):
      drift:     {"const": [d], "linear_x": [d][d], "linear_mean": [d][d]}
                 b(t, x, mu) = const + linear_x x + linear_mean mean(mu)
      diffusion: {"const": [d][d]}
      jump:      {"mark_matrix": [d][m]}      G(t, x, mu, z) = mark_matrix z
      intensity: {"atoms": [c][m], "masses": [c]}
    """
    try:
        raw = json.loads(_read_text(path, "model"))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"model file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"model file is not a JSON object: {path}")
    for key in ("name", "dim", "initial"):
        if key not in raw:
            raise InvalidArgumentError(f"model file: missing required key {key!r}")
    d = raw["dim"]
    if type(d) is not int or d < 1:  # a JSON integer; bool is an int subclass
        raise InvalidArgumentError(f"model file: dim must be an integer >= 1, not {d!r}")

    dr = _block(raw, "drift")
    const = _matrix(dr.get("const", np.zeros(d)), (d,), "drift.const")
    lin_x = _matrix(dr.get("linear_x", np.zeros((d, d))), (d, d), "drift.linear_x")
    lin_m = _matrix(
        dr.get("linear_mean", np.zeros((d, d))), (d, d), "drift.linear_mean"
    )

    def drift(t, x, law):
        x = np.asarray(x, dtype=float)
        m = np.broadcast_to(law.mean, x.shape)
        return const + x @ lin_x.T + m @ lin_m.T

    sig_mat = _matrix(
        _block(raw, "diffusion").get("const", np.zeros((d, d))),
        (d, d),
        "diffusion.const",
    )

    def diffusion(t, x, law):
        return sig_mat

    jump = None
    intensity = None
    if "jump" in raw or "intensity" in raw:
        if "jump" not in raw or "intensity" not in raw:
            raise InvalidArgumentError("model file: jump and intensity come together")
        intens = _block(raw, "intensity")
        atoms = _floats(intens.get("atoms"), "intensity.atoms")
        masses = _floats(intens.get("masses"), "intensity.masses")
        intensity = IntensityMeasure(atoms, masses)
        mark = _matrix(
            _block(raw, "jump").get("mark_matrix"),
            (d, intensity.mark_dim),
            "jump.mark_matrix",
        )

        def jump(t, x, law, z, _mark=mark):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(_mark @ np.asarray(z, dtype=float), x.shape)

    return ModelSpec(
        name=str(raw["name"]),
        dim=d,
        initial=_floats(raw["initial"], "initial"),
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        intensity=intensity,
    )
