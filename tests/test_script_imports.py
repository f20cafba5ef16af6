"""The standalone scripts import only names the package still has.

``benchmarks/*.py`` and ``examples/*.py`` are not collected by pytest,
and several import engine internals inside functions that only a full
run reaches.  Parsing them catches a renamed or deleted symbol without
running anything.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("benchmarks", "examples")
    for path in (ROOT / folder).glob("*.py")
)


def repro_imports(source: str):
    """``(line, module, name)`` for every ``from repro… import name``,
    at any depth."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # a submodule that its package does not import eagerly
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_there_are_scripts_to_check():
    assert any(path.startswith("benchmarks/") for path in SCRIPTS)
    assert any(path.startswith("examples/") for path in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_repro_import_resolves(script):
    source = (ROOT / script).read_text()
    broken = [
        f"{script}:{line}: from {module} import {name}"
        for line, module, name in repro_imports(source)
        if not resolves(module, name)
    ]
    assert not broken, "names the package no longer has:\n" + "\n".join(broken)


def test_a_deleted_name_is_caught():
    source = "def later():\n    from repro.engine import no_such_function\n"
    found = list(repro_imports(source))
    assert found == [(2, "repro.engine", "no_such_function")]
    assert not resolves("repro.engine", "no_such_function")
    assert resolves("repro.engine", "run_branches")
