"""Smoke-size self-check of the benchmark; not part of the package tests.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against its schema and its names against the tables
in workloads.py, checks the expected-hit calculation behind the mdp_fluct
level, and runs each workload kind once untraced and once traced at a tiny
size: both runs must write byte-identical reports, and the traced run must
produce every per-layer metric. Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import re
import sys

import run
from workloads import PER_LAYER, WORKLOADS, mdp_expected_hits

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

SMOKE = {
    "ldp_gauss": ("verify-ldp", "--model", "example11", "--event", "half:1.0:3.218281828",
                  "--particles", "2000", "--steps", "40", "--cells", "4", "--tol", "100",
                  "--jobs", "2"),
    "ldp_jump": ("verify-ldp", "--model", "pure_jump", "--event", "half:1.0:1.0",
                 "--particles", "2000", "--steps", "40", "--cells", "4", "--tol", "100"),
    "mdp_fluct": ("verify-mdp", "--model", "example11", "--event", "half:1.0:0.5",
                  "--eps-list", "0.01,0.004", "--particles", "2000", "--steps", "40",
                  "--tol", "100"),
    "demo_frozen": ("demo-example11", "--particles", "2000", "--steps", "40"),
}


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


# Filled by run.py from the import profile and the untraced samples.
FROM_PARENT = {"setup.import_mvsde_s", "setup.import_measure_s", "trace.overhead_s", "src.lines"}


def check_schema(bench: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    require(set(bench) == keys, "top-level keys")
    require(1 <= len(bench["paths"]) <= 16, "number of paths")
    for p in bench["paths"]:
        require(PATH.fullmatch(p) and ".." not in p.split("/"), p)
        require((run.ROOT / p).is_dir(), p)
    require(1 <= len(bench["command"]) <= 32, "command length")
    for arg in bench["command"]:
        require(isinstance(arg, str) and len(arg) <= 200 and not arg.startswith("/"), arg)
    seconds = bench["run_seconds"]
    require(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds")
    require(2 <= len(bench["workloads"]) <= 8, "number of workloads")
    require(1 <= len(bench["end_to_end"]) <= 16, "number of end_to_end metrics")
    require(1 <= len(bench["per_layer"]) <= 128, "number of per_layer metrics")
    names = []
    for w in bench["workloads"]:
        require(set(w) == {"name", "why"}, w)
        require(len(w["why"]) <= 200 and "\n" not in w["why"], w)
        names.append(w["name"])
    require(sorted(names) == sorted(WORKLOADS), "workload names differ from workloads.py")
    for m in bench["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"}, m)
        require(0 < m["bound"] <= 0.25, m)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    require(setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]), "setup_s bound")
    for m in bench["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, m)
    layer_names = [m["name"] for m in bench["per_layer"]]
    require(layer_names == [m.name for m in PER_LAYER], "per_layer names differ from workloads.PER_LAYER")
    for m in bench["end_to_end"] + bench["per_layer"]:
        require(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m)
        require(m["better"] in ("lower", "higher"), m)
        names.append(m["name"])
    require(len(names) == len(set(names)), "a name is used twice")


def check_mdp_level() -> None:
    today, fixed = mdp_expected_hits(1.0), mdp_expected_hits(0.0)
    require(min(today + fixed) >= 50, (today, fixed))
    print(f"mdp_fluct expected hits per rung: A=1 {[round(h) for h in today]}, "
          f"A=0 {[round(h) for h in fixed]}")


def smoke(name: str, args: tuple) -> None:
    jobs = WORKLOADS[name].jobs
    reports = []
    for mode in ("run", "trace"):
        report = run.OUT / f"selfcheck-{name}-{mode}.json"
        data, stderr = run.spawn(
            run.OUT / "selfcheck.json",
            [mode, str(jobs), f"selfcheck-{name}", *args, "--seed", "3", "--out", str(report)],
            timeout=120,
        )
        # At this size a verification gate may fail (exit 4); the run still counts.
        require(data["exit_code"] in (0, 4), stderr)
        reports.append(report.read_bytes())
        report.unlink()
    require(reports[0] == reports[1], f"{name}: traced report differs from untraced")
    layers = set(data["layers"]) | FROM_PARENT
    require(layers == {m.name for m in PER_LAYER}, layers ^ {m.name for m in PER_LAYER})
    require(data["layers"]["trace.top_coverage"] > 0.5, data["layers"])
    print(f"{name}: traced and untraced reports identical, "
          f"top-level coverage {data['layers']['trace.top_coverage']:.3f}")


def main() -> int:
    raw = (run.ROOT / "BENCHMARK.json").read_bytes()
    require(len(raw) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    bench = json.loads(raw)
    check_schema(bench)
    print("BENCHMARK.json matches the schema and workloads.py")
    check_mdp_level()
    run.OUT.mkdir(exist_ok=True)
    for name, args in SMOKE.items():
        smoke(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
