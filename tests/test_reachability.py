"""Every module under ``src/repro`` lies on a job's import path, and every
public function in it is used outside the tests.

Starting from ``jobs/*.py``, follow the ``import`` statements of each reached
module (function-local imports included) and require that every module of
the package is reached.  ``repro.oracle`` is the one exception: it is the
DuckDB test oracle, used only by the tests.

The second check is by name: each public top-level function and public
method must be named (as a variable, an attribute or an imported name) in
some non-test file under ``src/``, ``jobs/`` or ``perfbench/``.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NOT_ON_JOB_PATH = {"repro.oracle"}
# Used only by the tests, on purpose: the DuckDB oracle, and the pandas
# reference the Spark flow count is checked against.
TEST_ONLY = {
    "repro.oracle.assert_equivalent",
    "repro.dataflow.trajectory_flows.count_door_flows_pandas",
}


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


def public_functions() -> set[str]:
    """``module.name`` / ``module.Class.name`` of every public def in ``repro``."""
    out = set()
    for f in (SRC / "repro").rglob("*.py"):
        mod = ".".join(f.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(f.read_text(), str(f)).body:
            if isinstance(node, ast.FunctionDef):
                out.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.update(
                    f"{mod}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                )
    return {q for q in out if not q.rsplit(".", 1)[1].startswith("_")}


def names_used_off_tests() -> set[str]:
    """Every name used, read as an attribute, or imported outside the tests."""
    used = set()
    for f in program_files():
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return used


def test_every_public_function_is_used_off_tests():
    funcs = public_functions()
    used = names_used_off_tests()
    unused = {q for q in funcs if q.rsplit(".", 1)[1] not in used} - TEST_ONLY
    assert not unused, f"public functions only tests use: {sorted(unused)}"
    stale = {q for q in TEST_ONLY if q not in funcs or q.rsplit(".", 1)[1] in used}
    assert not stale, f"drop the stale exceptions: {sorted(stale)}"


# The door-reporting schedule is tabulated once, on the model; the door
# periods it is built from are generated in ``repro.space``.
SCHEDULE_NAMES = {"reporting_mask", "door_period"}
SCHEDULE_OWNERS = {SRC / "repro" / "core" / "model.py", SRC / "repro" / "space"}


def program_files():
    """Every non-test ``.py`` file under ``src/``, ``jobs/`` and ``perfbench/``."""
    for top in ("src", "jobs", "perfbench"):
        for f in (ROOT / top).rglob("*.py"):
            if not (f.name.startswith("test_") or f.name == "conftest.py"):
                yield f


def test_schedule_is_computed_only_on_the_model():
    offenders = set()
    for f in program_files():
        if any(f == o or o in f.parents for o in SCHEDULE_OWNERS):
            continue
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if name in SCHEDULE_NAMES:
                offenders.add(f"{f.relative_to(ROOT)}:{node.lineno} {name}")
    assert not offenders, f"door schedule computed off the model: {sorted(offenders)}"


def test_lambdas_installed_only_on_the_model():
    """The model's Eq. 6 flow tables are built from λ, so only the model
    writes ``e_lam``: ``__post_init__`` and ``set_lambdas`` rebuild them."""
    owner = SRC / "repro" / "core" / "model.py"
    offenders = set()
    for f in program_files():
        if f == owner:
            continue
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for sub in (n for t in targets for n in ast.walk(t)):
                if isinstance(sub, ast.Attribute) and sub.attr == "e_lam":
                    offenders.add(f"{f.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, f"e_lam written off the model: {sorted(offenders)}"


def test_perfbench_imports_resolve():
    """Every ``from repro… import name`` in the benchmark's own files
    (function-local imports included) names something the program still
    has, so a rename surfaces here rather than as a failed benchmark run."""
    missing = set()
    for f in program_files():
        if f.parent != ROOT / "perfbench":
            continue
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if not (isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"):
                continue
            mod = importlib.import_module(node.module)
            missing.update(
                f"{f.name}: {node.module}.{a.name}"
                for a in node.names
                if not hasattr(mod, a.name)
            )
    assert not missing, f"perfbench imports names the program lacks: {sorted(missing)}"


def test_only_the_search_imports_heapq():
    """One label-setting loop: outside the tests, ``core/search.py`` alone
    imports ``heapq``, so no module grows a second search."""
    owner = SRC / "repro" / "core" / "search.py"
    offenders = set()
    for f in program_files():
        if f == owner:
            continue
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "heapq" in names:
                offenders.add(f"{f.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, f"heapq imported off the search: {sorted(offenders)}"
