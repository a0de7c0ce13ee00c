"""Guard against library code that only the tests use.

Every public function, class and method of ``src/isopo_lab`` must be named by
code in ``src/`` or ``perfbench/``: loaded as a name, read as an attribute or
imported. The scan matches by name, so it catches code whose last caller
outside the tests is gone; an entry of ``ALLOWED`` keeps such code on purpose,
with the reason. An entry of ``PERFBENCH_ONLY`` names code that only
``perfbench/`` reads, which can go once the benchmark stops reading it.
The package's modules also stay within a line budget.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isopo_lab"

ALLOWED = {
    "policy.load_checkpoint": "the checkpoint reader, the counterpart of save_checkpoint",
    "isopo.rescaling": "the per-matrix reference that the non-interacting tests compare against",
}

PERFBENCH_ONLY = {
    "tasks.Microbatch.groups": "perfbench/tracing.py counts zero-signal groups from them",
    "tasks.Microbatch.records": "perfbench/worker.py hashes step 1's tokens from them",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions() -> dict[str, str]:
    """``module.name`` or ``module.Class.method`` -> the defined name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(*dirs: Path) -> set[str]:
    """Every name that code in ``dirs`` loads, reads as an attribute or imports."""
    names = set()
    for path in [path for d in dirs for path in d.glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def unreferenced() -> list[str]:
    names = referenced_names(PACKAGE, ROOT / "perfbench")
    return sorted(key for key, name in public_definitions().items() if name not in names)


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_every_allowlisted_name_is_still_unreferenced():
    # an entry whose code is gone or has gained a caller is stale
    assert sorted(set(ALLOWED) - set(unreferenced())) == []


def test_every_perfbench_only_name_is_read_by_perfbench_alone():
    # an entry that has gained a reader in src/, or lost its perfbench reader, is stale
    defined = public_definitions()
    in_src = referenced_names(PACKAGE)
    in_perfbench = referenced_names(ROOT / "perfbench")
    for key in PERFBENCH_ONLY:
        assert key in defined, key
        assert defined[key] not in in_src and defined[key] in in_perfbench, key


def test_package_stays_within_the_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= 3000, f"src/isopo_lab/*.py is {lines} lines, over the 3000-line budget"
