"""The names the benchmark harness (perfbench/) takes from polymer_lab exist.

perfbench/invoke.py wraps (owner, attr) pairs in `install` for the traced
run, and perfbench/checks.py calls package functions to check outputs.  Both
are read as source here, so a rename under src/ fails this test instead of
crashing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for a pure Name.attr.attr chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _package_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> module for `import polymer_lab` / `from polymer_lab import x`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "polymer_lab":
                    aliases[alias.asname or alias.name] = "polymer_lab"
        elif isinstance(node, ast.ImportFrom) and node.module == "polymer_lab":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"polymer_lab.{alias.name}"
    return aliases


def _package_names(filename: str) -> list[str]:
    """Every dotted package name the file uses, spelled from the package root."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    aliases = _package_aliases(tree)
    names = set()
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted and dotted.split(".")[0] in aliases:
            head, _, rest = dotted.partition(".")
            names.add(f"{aliases[head]}.{rest}")
    return sorted(names)


def _install_targets() -> list[str]:
    """owner.attr for every (owner, attr, name, count) row wrapped by install()."""
    tree = ast.parse((PERFBENCH / "invoke.py").read_text())
    aliases = _package_aliases(tree)
    install = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    loop = next(node for node in ast.walk(install) if isinstance(node, ast.For))
    targets = []
    for row in loop.iter.elts:
        owner, attr = _dotted(row.elts[0]), row.elts[1].value
        head, _, rest = owner.partition(".")
        targets.append(".".join(p for p in (aliases[head], rest, attr) if p))
    return targets


def _resolve(dotted: str):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


INSTALL_TARGETS = _install_targets()
CHECK_NAMES = _package_names("checks.py")
INVOKE_NAMES = _package_names("invoke.py")


def test_contract_was_read():
    # Guards against the parsing above silently finding nothing.
    assert "polymer_lab.moments.ek2_expansion" in INSTALL_TARGETS
    assert "polymer_lab.cli.parse_and_dispatch" in INSTALL_TARGETS
    assert "polymer_lab.moments.ez2_pairwalk" in CHECK_NAMES
    assert "polymer_lab.cli.parse_and_dispatch" in INVOKE_NAMES


@pytest.mark.parametrize("target", INSTALL_TARGETS)
def test_traced_functions_exist(target):
    assert callable(_resolve(target)), f"{target} is not callable"


@pytest.mark.parametrize("name", sorted(set(CHECK_NAMES) | set(INVOKE_NAMES)))
def test_package_names_used_by_the_benchmark_exist(name):
    _resolve(name)
