"""Every module under ``src/repro`` lies on a job's import path.

Starting from ``jobs/*.py``, follow the ``import`` statements of each reached
module (function-local imports included) and require that every module of
the package is reached.  ``repro.oracle`` is the one exception: it is the
DuckDB test oracle, used only by the tests.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NOT_ON_JOB_PATH = {"repro.oracle"}


def _module_file(name: str) -> Path | None:
    base = SRC.joinpath(*name.split("."))
    for f in (base.with_suffix(".py"), base / "__init__.py"):
        if f.is_file():
            return f
    return None


def _imports(path: Path) -> set[str]:
    """The ``repro`` modules ``path`` imports anywhere in its body.

    Relative imports are not followed (the package uses none), so one would
    show up here as an unreached module rather than pass unchecked.
    """
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
            # ``from pkg import name`` may name a submodule
            out.update(f"{node.module}.{a.name}" for a in node.names)
    return {n for n in out if n.split(".")[0] == "repro" and _module_file(n)}


def _with_parents(name: str) -> set[str]:
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def reached_modules() -> set[str]:
    todo: set[str] = set()
    for job in sorted((ROOT / "jobs").glob("*.py")):
        todo |= _imports(job)
    seen: set[str] = set()
    while todo:
        for mod in _with_parents(todo.pop()) - seen:
            seen.add(mod)
            todo |= _imports(_module_file(mod)) - seen
    return seen


def all_modules() -> set[str]:
    out = set()
    for f in (SRC / "repro").rglob("*.py"):
        parts = f.relative_to(SRC).with_suffix("").parts
        out.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return out


def test_every_module_is_on_a_job_path():
    reached = reached_modules()
    unreached = all_modules() - reached - NOT_ON_JOB_PATH
    assert not unreached, f"modules no job imports: {sorted(unreached)}"
    assert NOT_ON_JOB_PATH.isdisjoint(reached), "drop the stale exception"
