"""Re-measure the single-call reference timings of ROADMAP item 1.

    python3 perfbench/reference.py

Times each library call in this interpreter (N = 1e5 particles, 400 steps)
and prints a markdown table: the reference value, the median of REPEATS
calls and their ratio. The Gaussian-draw and jump-sampler shares come from one
extra traced call each (tracing.py). Set OPENBLAS_NUM_THREADS=1 before
running to match the benchmark's environment; the script sets it when unset.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mvsde import dynamics, levy, rate, skeleton, verify  # noqa: E402
from mvsde.cli import parse_event  # noqa: E402
from mvsde.core import make_time_grid  # noqa: E402
from mvsde.models import get_model  # noqa: E402

N = 100_000
GRID = make_time_grid(1.0, 400)
LDP_EPS = [0.2, 0.1, 0.05]
MDP_EPS = [0.01, 0.004, 0.001]
REPEATS = 3


def _simulate(model: str, eps: float):
    spec = get_model(model)
    return lambda: dynamics.simulate_mvsde(spec, GRID, eps, N, 0, record="summary")


def _ldp_rate(model: str, event: str):
    spec = get_model(model)
    ev = parse_event(event, spec.dim)
    return lambda: rate.ldp_rate(spec, GRID, ev)


def _check_ldp(jobs: int):
    spec = get_model("example11")
    ev = parse_event("half:1.0:3.218281828", 1)
    return lambda: verify.check_ldp(spec, GRID, LDP_EPS, ev, N, 0, jobs=jobs)


def _check_mdp():
    spec = get_model("example11")
    ev = parse_event("half:1.0:1.0", 1)
    return lambda: verify.check_mdp(spec, GRID, MDP_EPS, ev, N, 0)


def _sample_prm():
    intensity = get_model("pure_jump").intensity
    return lambda: levy.sample_prm(GRID, intensity, 100.0, N, np.random.default_rng(0))


# (label, reference seconds as printed in ROADMAP item 1, callable)
ENTRIES = [
    ("simulate_mvsde example11, eps 0.05", "1.37", _simulate("example11", 0.05)),
    ("simulate_mvsde logistic_mf, eps 0.05", "3.2", _simulate("logistic_mf", 0.05)),
    ("simulate_mvsde pure_jump, eps 0.05", "4.4", _simulate("pure_jump", 0.05)),
    ("simulate_mvsde pure_jump, eps 0.01", "9.5", _simulate("pure_jump", 0.01)),
    ("sample_prm, rate 100", "7.8", _sample_prm()),
    ("ldp_rate example11 pin", "0.51", _ldp_rate("example11", "pin:3.218281828:0.001")),
    ("ldp_rate pure_jump pin", "4.5", _ldp_rate("pure_jump", "pin:1.0:0.001")),
    ("_mdp_response", "0.066-0.125", lambda: rate._mdp_response(get_model("example11"), GRID)),
    ("solve_limit_ode", "0.025-0.054", lambda: skeleton.solve_limit_ode(get_model("example11"), GRID)),
    ("check_ldp example11, 3 rungs, jobs=1", "3.2", _check_ldp(1)),
    ("check_ldp example11, 3 rungs, jobs=2", "2.5", _check_ldp(2)),
    ("check_mdp example11, 3 rungs", "4.1", _check_mdp()),
]

# (label, reference seconds, simulate call, traced span name)
SHARES = [
    ("Gaussian draws in simulate_mvsde example11, eps 0.05", "0.83",
     _simulate("example11", 0.05), "dynamics.gauss"),
    ("jump sampler in simulate_mvsde pure_jump, eps 0.05", "2.3",
     _simulate("pure_jump", 0.05), "levy.sample"),
]


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _ratio(measured: float, reference: str) -> str:
    lo, _, hi = reference.partition("-")
    lo_s, hi_s = float(lo), float(hi or lo)
    if lo_s <= measured <= hi_s:
        return "within range"
    nearest = lo_s if measured < lo_s else hi_s
    return f"{measured / nearest:.2f}x"


def main() -> int:
    print("| call | ROADMAP (s) | measured median (s) | measured / ROADMAP |")
    print("|---|---|---|---|")
    for label, ref, fn in ENTRIES:
        m = statistics.median(_seconds(fn) for _ in range(REPEATS))
        print(f"| {label} | {ref} | {m:.3f} | {_ratio(m, ref)} |", flush=True)

    import tracing

    tracer = tracing.Tracer("reference")
    tracing.install(tracer)
    for label, ref, fn, span in SHARES:
        tracer.spans.clear()
        fn()
        m = sum(s[2] - s[1] for s in tracer.spans if s[0] == span)
        print(f"| {label} (traced) | {ref} | {m:.3f} | {_ratio(m, ref)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
