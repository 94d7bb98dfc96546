"""Import layering of the ``gusbox`` modules, read from their source with
``ast`` (nothing is imported to check it):

- ``plan`` imports only ``errors`` and ``model``;
- the modules that describe, parse, read or rewrite a plan (``algebra``,
  ``dsl``, ``exprs``, ``ingest``, ``model``, ``plan``, ``samplers``) import
  nothing from ``engine``, ``cli`` or ``oracle``, so none of them can run a
  plan;
- ``cli`` imports ``datagen`` only inside ``run_generate``, so ``gusbox
  estimate`` never builds the generator's tables.
"""

import ast
from pathlib import Path

import pytest

import gusbox

SRC = Path(gusbox.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _targets(node) -> list[str]:
    """The gusbox modules one import statement reads from."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("gusbox.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        package = node.module
    elif node.level == 0 and node.module and node.module.split(".")[0] == "gusbox":
        package = node.module.partition(".")[2]
    else:
        return []
    return [package.split(".")[0]] if package else [a.name for a in node.names]


def imports(module: str) -> list[tuple[str, str | None]]:
    """(imported gusbox module, enclosing top-level function or None) for
    every import statement in ``gusbox.<module>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                found.extend((target, function) for target in _targets(child))
                visit(child, function)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


def test_the_reader_sees_every_import_form():
    assert ("engine", None) in imports("cli")
    assert ("estimator", None) in imports("cli")       # from . import estimator, ...
    assert ("datagen", "run_generate") in imports("cli")
    assert set(MODULES) >= {"algebra", "cli", "datagen", "dsl", "engine", "oracle", "plan"}


def test_plan_imports_only_errors_and_model():
    assert {target for target, _ in imports("plan")} == {"errors", "model"}


@pytest.mark.parametrize("module", ["algebra", "dsl", "exprs", "ingest", "model", "plan",
                                    "samplers"])
def test_plan_layers_import_nothing_that_runs_a_plan(module):
    assert not [target for target, _ in imports(module)
                if target in ("engine", "cli", "oracle")]


def test_cli_imports_datagen_only_to_generate():
    assert {function for target, function in imports("cli")
            if target == "datagen"} == {"run_generate"}
