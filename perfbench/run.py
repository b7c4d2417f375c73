"""Benchmark of the mvsde command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs one workload command (see workloads.py) in a fresh
interpreter through ``mvsde.cli.main``, with ``--seed N`` and ``--out``
appended, and checks the report it writes. Everything a run starts counts
against S seconds: the import-only interpreters, then samples, the next one
only while one as long as the last would still end within S seconds. The
first sample (in a traced run, the first pair) always runs.

``--trace 0`` reports the end-to-end metrics, each the median over the run:
``wall_s`` (command start to report written, import excluded), ``setup_s``
(fresh interpreter until ``import mvsde.cli`` returns, from import-only
interpreters and from every sample) and ``peak_rss_mb`` (``ru_maxrss`` of
the sample's interpreter). ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics of tracing.py, their medians over
the traced samples, plus the tracing overhead and the import profile.

The last line of standard output is the result object; the line before it
records the environment. A sample fails when the command exits non-zero,
its check fails, or its report differs from the run's first report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Imports read the bytecode cache, as in an installed package; the
    # first import of a run fills it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Compute threads stay <= --jobs: NumPy links a threaded OpenBLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(result: Path, args: list, timeout: float, flags: tuple = ()):
    """Run child.py in a fresh interpreter; returns (measurements, stderr)."""
    result.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, str(HERE / "child.py"), str(result), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child {args[:1]} exited {proc.returncode}:\n{proc.stderr}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["import_done"] - start
    return data, proc.stderr


class Run:
    def __init__(self, name: str, seed: int, seconds: int):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.start = time.perf_counter()
        self.setups: list[float] = []
        self.samples: list[dict] = []
        self.failed = 0
        self.first_digest = None
        self.versions = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        left = DEADLINE_S - self.elapsed()
        if left <= 5:
            raise BenchError("out of time before the run could finish")
        return left

    def import_sample(self, flags: tuple = ()):
        data, stderr = spawn(OUT / "import.json", ["import"], self.timeout(), flags)
        self.versions = data["versions"]
        return data, stderr

    def sample(self, mode: str) -> None:
        index = len(self.samples)
        report = OUT / f"report-{self.name}.json"
        report.unlink(missing_ok=True)
        cmd = [*self.workload.args, "--seed", str(self.seed), "--out", str(report)]
        run_id = f"{self.name}-{self.seed}-{index}"
        data, stderr = spawn(
            OUT / f"sample-{self.name}.json",
            [mode, str(self.workload.jobs), run_id, *cmd],
            self.timeout(),
        )
        problem = self.check(data, report)
        if problem:
            self.failed += 1
            print(f"{run_id} ({mode}) failed: {problem}\n{stderr}", file=sys.stderr)
        report.unlink(missing_ok=True)
        data["mode"] = mode
        self.samples.append(data)
        self.setups.append(data["setup_s"])

    def check(self, data: dict, report: Path) -> str | None:
        if data["exit_code"] != 0:
            return f"exit code {data['exit_code']}"
        if not report.exists():
            return "no report written"
        raw = report.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return "report differs from the first report of this seed"
        if self.workload.check is None:
            return None
        return self.workload.check(json.loads(raw))

    def more(self, step: int) -> bool:
        """Room for `step` more samples as long as the last one."""
        if not self.samples:
            return True
        last = self.samples[-1]["wall_s"] + self.samples[-1]["setup_s"]
        return self.elapsed() + step * last <= self.seconds


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def import_profile(run: Run) -> dict:
    """Cumulative import times from ``-X importtime``, in seconds."""
    _, stderr = run.import_sample(("-X", "importtime"))
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    # A module that is no longer imported at start-up costs 0 s there.
    return {
        "setup.import_mvsde_s": cumulative.get("mvsde.cli", 0.0),
        "setup.import_measure_s": cumulative.get("mvsde.measure", 0.0),
    }


def measure(run: Run) -> dict:
    for _ in range(1 + SETUP_SAMPLES):
        data, _ = run.import_sample()
        run.setups.append(data["setup_s"])
    run.setups.pop(0)  # the first import fills the bytecode and file caches
    while run.more(1):
        run.sample("run")
    return {
        "wall_s": statistics.median(s["wall_s"] for s in run.samples),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in run.samples),
    }


def measure_traced(run: Run) -> dict:
    run.import_sample()
    layers = import_profile(run)
    while run.more(2):
        # Alternate which side of a pair runs first.
        first, second = ("run", "trace") if len(run.samples) % 4 == 0 else ("trace", "run")
        run.sample(first)
        run.sample(second)
    traced = [s for s in run.samples if s["mode"] == "trace"]
    plain = [s for s in run.samples if s["mode"] == "run"]
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(s["layers"][key] for s in traced)
    layers["trace.overhead_s"] = statistics.median(
        s["wall_s"] for s in traced
    ) - statistics.median(s["wall_s"] for s in plain)
    layers["src.lines"] = src_lines()
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (mvsde seeds are non-negative)")
    if not (SRC / "mvsde" / "cli.py").is_file():
        print(f"no mvsde sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = measure_traced(run) if args.trace else measure(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)),
            **run.versions,
            "src_lines": src_lines(),
            "samples": len(run.samples),
            "sample_wall_s": [round(s["wall_s"], 4) for s in run.samples],
            "sample_cpu_s": [round(s["cpu_s"], 4) for s in run.samples],
            "setup_samples": len(run.setups),
            "elapsed_s": run.elapsed(),
        }
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
