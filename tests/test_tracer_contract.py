"""The benchmark's span tracer (perfbench/tracing.py) wraps mvsde names by
attribute; every name it wraps must stay importable where it is wrapped, and
its smoke-size self-check (traced and untraced reports byte-identical, every
per-layer metric produced) must pass against the engine as it is. An import
of mvsde that carries `# noqa` is one the tracer wraps, so the tracer must
replace each one."""
import ast
import json
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


def _noqa_imports():
    """(module, name) for each name that a module of mvsde imports on a line
    carrying `# noqa`."""
    pairs = []
    for path in sorted((ROOT / "src" / "mvsde").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                pairs += [
                    (f"mvsde.{path.stem}", alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa" in lines[alias.lineno - 1]
                ]
    return pairs


def test_tracer_replaces_every_noqa_import():
    # test_surface's unused-import guard skips `# noqa` lines; this names any
    # such import that the tracer no longer wraps, so it can be deleted
    pairs = _noqa_imports()
    assert pairs
    script = (
        "import importlib, json, sys, tracing\n"
        "pairs = json.loads(sys.argv[1])\n"
        "before = [getattr(importlib.import_module(m), n) for m, n in pairs]\n"
        "tracing.install(tracing.Tracer('t'))\n"
        "print(json.dumps([p for p, fn in zip(pairs, before)\n"
        "                  if getattr(importlib.import_module(p[0]), p[1]) is fn]))\n"
    )
    proc = _run(["-c", script, json.dumps(pairs)], 120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_benchmark_selfcheck_passes():
    proc = _run(["perfbench/selfcheck.py"], 600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
