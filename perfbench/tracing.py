"""In-memory span tracer that times mvsde's layers from outside.

``install`` replaces, inside the mvsde modules, the names that one module
calls in another with pass-through wrappers. No file of the package changes,
and every wrapper returns exactly what the wrapped call returned, so a traced
run writes the same report, byte for byte, as an untraced one.

A span is (name, start, end, parent span id, span id); spans share the run
id of the tracer. Counts are taken at the same boundaries. A worker thread of
the verification ladder has no span of its own on entry, so its spans hang
under the span the main thread has open at that moment (the ladder).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

ROOT = "cli.main"
SIMULATE = (
    "simulate_mvsde",
    "simulate_controlled_frozen",
    "simulate_controlled_selfconsistent",
    "simulate_mdp_controlled",
)
COEFFICIENTS = ("drift", "diffusion", "jump")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, parent, span_id))

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def timed(self, name: str, fn, after=None):
        """A pass-through of fn that records a span; after(result) counts."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        setattr(module, attr, self.timed(name, getattr(module, attr), after))

    def dump(self, file) -> None:
        with open(file, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)

    def metrics(self, jobs: int) -> dict:
        """Per-layer numbers: totals, self times and counts from the spans."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[3]].append(span)
        total = Counter()
        self_time = Counter()
        for name, start, end, _parent, span_id in self.spans:
            total[name] += end - start
            self_time[name] += end - start - _covered(children[span_id], start, end)

        root = [s for s in self.spans if s[0] == ROOT]
        wall = sum(s[2] - s[1] for s in root)
        top = sum(_covered(children[s[4]], s[1], s[2]) for s in root)
        ladders = {s[4] for s in self.spans if s[0] == "verify.ladder"}
        rung_time = sum(
            s[2] - s[1]
            for s in self.spans
            if s[3] in ladders and s[0].startswith("dynamics.simulate_")
        )
        sim_names = [f"dynamics.{fn}" for fn in SIMULATE]
        sim_total = sum(total[n] for n in sim_names)
        steps = self.counts["dynamics.particle_steps"]
        proposed = self.counts["levy.proposed"]
        n_spans = Counter(s[0] for s in self.spans)
        out = {
            "trace.top_coverage": top / wall if wall else 0.0,
            "cli.self_s": self_time[ROOT] + self_time["io.save_report"],
            "verify.ladder_s": total["verify.ladder"],
            "verify.parallel_eff": (
                rung_time / (jobs * total["verify.ladder"]) if ladders else 0.0
            ),
            "verify.self_s": self_time["verify.ladder"] + self_time["verify.demo"],
            "dynamics.particle_steps": steps,
            "dynamics.ns_per_particle_step": sim_total / steps * 1e9 if steps else 0.0,
            "dynamics.gauss_s": total["dynamics.gauss"],
            "dynamics.gauss_bytes": self.counts["dynamics.gauss_bytes"],
            "dynamics.record_bytes": self.counts["dynamics.record_bytes"],
            "dynamics.self_s": sum(self_time[n] for n in sim_names),
            "levy.sample_s": total["levy.sample"],
            "levy.stream_bytes": self.counts["levy.stream_bytes"],
            "levy.proposed": proposed,
            "levy.accepted": self.counts["levy.accepted"],
            "levy.accept_ratio": self.counts["levy.accepted"] / proposed if proposed else 0.0,
            "models.coeff_s": sum(total[f"models.{c}"] for c in COEFFICIENTS),
            "skeleton.ldp_solves": n_spans["skeleton.ldp"],
            "skeleton.picard_iters": self.counts["skeleton.picard_iters"],
            "skeleton.picard_iters_max": self.counts["skeleton.picard_iters_max"],
            "skeleton.ldp_s": total["skeleton.ldp"],
            "skeleton.limit_ode_calls": n_spans["skeleton.limit_ode"],
            "skeleton.limit_ode_s": total["skeleton.limit_ode"],
            "skeleton.mdp_response_s": total["skeleton.mdp_response"],
            "rate.ldp_s": total["rate.ldp"],
            "rate.ldp_self_s": self_time["rate.ldp"],
            "rate.mdp_s": total["rate.mdp"],
        }
        for fn in SIMULATE:
            out[f"dynamics.{fn}_s"] = total[f"dynamics.{fn}"]
        for c in COEFFICIENTS:
            out[f"models.{c}_calls"] = n_spans[f"models.{c}"]
        return out


def _covered(spans, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    covered = 0.0
    reach = start
    for s in sorted(spans, key=lambda s: s[1]):
        lo, hi = max(s[1], reach), min(s[2], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class _Draws:
    """Proxy of the Brownian generator that times its normal draws."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("dynamics.gauss", self._gen.standard_normal, *args, **kwargs)
        self._tracer.add("dynamics.gauss_bytes", out.nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(tracer: Tracer) -> None:
    """Wrap the cross-module names of mvsde that bound each layer."""
    from mvsde import cli, dynamics, models, rate, verify

    def on_ensemble(ens):
        tracer.add("dynamics.particle_steps", ens.n_particles * ens.grid.n_steps)
        if ens.paths is not None:
            tracer.add("dynamics.record_bytes", ens.paths.nbytes)
        tracer.add("levy.proposed", ens.meta["n_proposed"])
        tracer.add("levy.accepted", ens.meta["n_jumps"])

    def on_skeleton(sol):
        tracer.add("skeleton.picard_iters", sol.iterations)
        tracer.peak("skeleton.picard_iters_max", sol.iterations)

    def on_stream(js):
        tracer.add(
            "levy.stream_bytes",
            sum(a.nbytes for a in (js.stream, js.step, js.time, js.cell, js.rank, js.step_offsets)),
        )

    def traced_spec(spec):
        timed = {
            c: tracer.timed(f"models.{c}", getattr(spec, c))
            for c in COEFFICIENTS
            if getattr(spec, c) is not None
        }
        return dataclasses.replace(spec, **timed)

    get_model = models.get_model

    def get_traced_model(name):
        return traced_spec(get_model(name))

    # cli reads get_model at import; the demo imports it from models at call time.
    cli.get_model = get_traced_model
    models.get_model = get_traced_model

    tracer.wrap(cli, "ldp_rate", "rate.ldp")
    tracer.wrap(cli, "mdp_rate", "rate.mdp")
    tracer.wrap(cli, "check_ldp", "verify.ladder")
    tracer.wrap(cli, "check_mdp", "verify.ladder")
    tracer.wrap(cli, "demo_frozen_vs_selfconsistent", "verify.demo")
    tracer.wrap(cli, "save_report", "io.save_report")
    for fn in SIMULATE:
        tracer.wrap(verify, fn, f"dynamics.{fn}", on_ensemble)
    for module in (rate, verify):
        tracer.wrap(module, "solve_ldp_skeleton", "skeleton.ldp", on_skeleton)
    for module in (rate, dynamics, verify):
        tracer.wrap(module, "solve_limit_ode", "skeleton.limit_ode")
    tracer.wrap(rate, "_mdp_coefficients", "skeleton.mdp_response")
    tracer.wrap(rate, "_propagate_mdp", "skeleton.mdp_response")
    tracer.wrap(dynamics, "sample_controlled_prm", "levy.sample", on_stream)

    seed_block = dynamics.SeedBlock

    class _SeedBlock:
        @staticmethod
        def from_seed(seed):
            block = seed_block.from_seed(seed)
            block.brownian = _Draws(block.brownian, tracer)
            return block

    dynamics.SeedBlock = _SeedBlock

