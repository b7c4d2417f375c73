"""The package's exported names, and the imports of its modules."""
import ast
import importlib
import pathlib

import pytest

import mvsde

SRC = pathlib.Path(mvsde.__file__).parent
MODULES = ["mvsde"] + [
    f"mvsde.{p.stem}" for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"
]

# Library surface that no command, model or paper-claim test reached.
DELETED = {
    "probe_drift_monotonicity",
    "DriftProbeReport",
    "ModelConstants",
    "eval_path",
    "path_sup_distance",
}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert sorted(DELETED.intersection(exported)) == []


def _unused_imports(source: str) -> list[str]:
    """Names that a module imports and never reads. An import line carrying
    `# noqa` is skipped, and a name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "IntensityMeasure | None", and __all__
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_an_unused_name():
    source = (
        "from typing import Any, Callable\n"
        "import numpy as np  # noqa: F401\n"
        "f: Callable\n"
        'g: "Optional[int]"\n'
        "from typing import Optional\n"
    )
    assert _unused_imports(source) == ["Any (line 1)"]
