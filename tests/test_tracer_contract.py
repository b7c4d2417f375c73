"""The benchmark's span tracer (perfbench/tracing.py) wraps mvsde names by
attribute; every name it wraps must stay importable where it is wrapped, and
its smoke-size self-check (traced and untraced reports byte-identical, every
per-layer metric produced) must pass against the engine as it is."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_tracer_installs():
    proc = _run(["-c", "import tracing; tracing.install(tracing.Tracer('t'))"], 120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selfcheck_passes():
    proc = _run(["perfbench/selfcheck.py"], 600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
