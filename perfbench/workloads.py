"""Workloads, output checks and the per-layer metric table of the benchmark.

Each workload is one README command, run through ``mvsde.cli.main`` in a
fresh interpreter. The benchmark appends ``--seed`` and ``--out`` to it. A
sample passes when the command exits 0 and, where a workload has a check,
the check accepts the written report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    args: tuple
    # Reads the written report; None when exit 0 already proves the output.
    check: Callable[[dict], str | None] | None = None

    @property
    def jobs(self) -> int:
        """Ladder worker threads: the command's --jobs, default 1."""
        return int(self.args[self.args.index("--jobs") + 1]) if "--jobs" in self.args else 1


def _target_near(value: float, label: str) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        target = payload["report"]["target"]
        if abs(target - value) > 1e-3:
            return f"auto target {target!r} is not within 1e-3 of {label}"
        return None

    return check


# ROADMAP item 2 replaces the moderate linearization A = d/dx b(x, delta_x)
# (today: A = 1 on example11) by the law-frozen A = d/dx b(x, delta_xbar)
# (A = 0). The level of mdp_fluct is chosen from the exact Gaussian law of
# M(1) so that every rung expects >= 50 hits under both; see mdp_expected_hits.
MDP_LEVEL = 0.5
MDP_EPS = (0.01, 0.004, 0.001)
MDP_A_EXP = 0.25
MDP_PARTICLES = 100_000


def mdp_expected_hits(a_coef: float, level: float = MDP_LEVEL) -> list[float]:
    """Expected hits of M(1) >= level per rung of mdp_fluct on example11.

    M solves dM = a_coef M dt + (sqrt(eps)/a) dW, M(0) = 0, so M(1) is
    centred Gaussian with variance h (e^(2 a_coef) - 1) / (2 a_coef), where
    h = eps / a^2 is the speed (variance h when a_coef = 0).
    """
    hits = []
    for eps in MDP_EPS:
        h = eps / (eps**MDP_A_EXP) ** 2
        var = h if a_coef == 0 else h * math.expm1(2 * a_coef) / (2 * a_coef)
        p = 0.5 * math.erfc(level / math.sqrt(2 * var))
        hits.append(MDP_PARTICLES * p)
    return hits


WORKLOADS = {
    "ldp_gauss": Workload(
        args=(
            "verify-ldp", "--model", "example11",
            "--event", "half:1.0:3.218281828", "--eps-list", "0.2,0.1,0.05",
            "--particles", "100000", "--target", "auto", "--tol", "0.03",
            "--jobs", "2",
        ),
        check=_target_near(0.125, "1/8"),
    ),
    "ldp_jump": Workload(
        args=(
            "verify-ldp", "--model", "pure_jump",
            "--event", "half:1.0:1.0", "--eps-list", "0.2,0.1,0.05",
            "--particles", "100000", "--target", "auto", "--tol", "0.05",
            "--jobs", "1",
        ),
        check=_target_near(2 * math.log(2) - 1, "2 ln 2 - 1"),
    ),
    "mdp_fluct": Workload(
        args=(
            "verify-mdp", "--model", "example11",
            "--event", f"half:1.0:{MDP_LEVEL}",
            "--eps-list", ",".join(str(e) for e in MDP_EPS),
            "--a-exp", str(MDP_A_EXP), "--particles", str(MDP_PARTICLES),
            "--target", "auto", "--jobs", "1",
        ),
    ),
    "demo_frozen": Workload(
        args=("demo-example11", "--particles", "100000"),
    ),
}


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric of BENCHMARK.json, with the end-to-end metric it
    should move and the workloads it should move on (BENCHMARK.json holds
    the unit and the direction, and admits no further keys)."""

    name: str
    moves: str
    on: str


_LDP = "ldp_gauss, ldp_jump"
_SIM = "ldp_gauss, mdp_fluct, demo_frozen"

PER_LAYER = (
    LayerMetric("setup.import_mvsde_s", "setup_s", "all"),
    LayerMetric("setup.import_measure_s", "setup_s", "all"),
    LayerMetric("trace.overhead_s", "none (traced minus untraced wall_s)", "all"),
    LayerMetric("trace.top_coverage", "none (share of wall_s under top-level spans)", "all"),
    LayerMetric("cli.self_s", "wall_s", "all"),
    LayerMetric("verify.ladder_s", "wall_s", "ldp_gauss, ldp_jump, mdp_fluct"),
    LayerMetric("verify.parallel_eff", "wall_s", "ldp_gauss"),
    LayerMetric("verify.self_s", "wall_s", "all"),
    LayerMetric("dynamics.simulate_mvsde_s", "wall_s", "ldp_gauss, ldp_jump, demo_frozen"),
    LayerMetric("dynamics.simulate_controlled_frozen_s", "wall_s", "demo_frozen"),
    LayerMetric("dynamics.simulate_controlled_selfconsistent_s", "wall_s", "demo_frozen"),
    LayerMetric("dynamics.simulate_mdp_controlled_s", "wall_s", "mdp_fluct"),
    LayerMetric("dynamics.particle_steps", "wall_s", _SIM),
    LayerMetric("dynamics.ns_per_particle_step", "wall_s", _SIM),
    LayerMetric("dynamics.gauss_s", "wall_s", _SIM + "; pure waste on ldp_jump"),
    LayerMetric("dynamics.gauss_bytes", "wall_s", _SIM + "; pure waste on ldp_jump"),
    LayerMetric("dynamics.record_bytes", "peak_rss_mb", "demo_frozen"),
    LayerMetric("dynamics.self_s", "wall_s", "all"),
    LayerMetric("levy.sample_s", "wall_s", "ldp_jump"),
    LayerMetric("levy.stream_bytes", "peak_rss_mb", "ldp_jump"),
    LayerMetric("levy.proposed", "none (count)", "ldp_jump"),
    LayerMetric("levy.accepted", "none (count)", "ldp_jump"),
    LayerMetric("levy.accept_ratio", "none (count ratio)", "ldp_jump"),
    LayerMetric("models.drift_calls", "wall_s", "all"),
    LayerMetric("models.diffusion_calls", "wall_s", "all"),
    LayerMetric("models.jump_calls", "wall_s", "ldp_jump"),
    LayerMetric("models.coeff_s", "wall_s", "all"),
    LayerMetric("skeleton.ldp_solves", "wall_s", _LDP),
    LayerMetric("skeleton.picard_iters", "wall_s", _LDP),
    LayerMetric("skeleton.picard_iters_max", "wall_s", _LDP),
    LayerMetric("skeleton.ldp_s", "wall_s", _LDP),
    LayerMetric("skeleton.limit_ode_calls", "wall_s", "mdp_fluct"),
    LayerMetric("skeleton.limit_ode_s", "wall_s", "mdp_fluct"),
    LayerMetric("skeleton.mdp_response_s", "wall_s", "mdp_fluct"),
    LayerMetric("rate.ldp_s", "wall_s", _LDP),
    LayerMetric("rate.ldp_self_s", "wall_s", _LDP),
    LayerMetric("rate.mdp_s", "wall_s", "mdp_fluct"),
    LayerMetric("src.lines", "none (provenance)", "-"),
)
