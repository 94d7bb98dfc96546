"""Import layering of the ``gusbox`` modules, read from their source with
``ast`` (nothing is imported to check it):

- ``plan`` imports only ``errors`` and ``model``;
- the modules that describe, parse, read or rewrite a plan (``algebra``,
  ``dsl``, ``exprs``, ``ingest``, ``model``, ``plan``, ``samplers``) import
  nothing from ``engine``, ``cli`` or ``oracle``, so none of them can run a
  plan;
- ``cli`` imports ``datagen`` only inside ``run_generate``, so ``gusbox
  estimate`` never builds the generator's tables;
- only ``plan.fold`` and ``dsl`` build an input's path: no other f-string
  appends ``.child``, ``.left`` or ``.right`` to a formatted value, so a
  walker cannot restate the path notation.
"""

import ast
import re
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


def _each_node(source: str):
    """(node, enclosing top-level function or None) for every node of ``source``."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                yield child, function
                yield from visit(child, function)

    return visit(ast.parse(source), None)


def _source(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def imports(module: str) -> list[tuple[str, str | None]]:
    """(imported gusbox module, enclosing top-level function or None) for
    every import statement in ``gusbox.<module>``."""
    return [(target, function) for node, function in _each_node(_source(module))
            for target in _targets(node)]


_INPUT_SEGMENT = re.compile(r"\.(child|left|right)\b")


def input_paths(source: str) -> list[tuple[str | None, int]]:
    """(enclosing top-level function or None, line) of every f-string in
    ``source`` that appends ``.child``, ``.left`` or ``.right`` straight
    after a formatted value."""
    return [(function, node.lineno) for node, function in _each_node(source)
            if isinstance(node, ast.JoinedStr)
            and any(isinstance(value, ast.FormattedValue) and isinstance(text, ast.Constant)
                    and _INPUT_SEGMENT.match(text.value)
                    for value, text in zip(node.values, node.values[1:]))]


def test_the_reader_sees_every_import_form():
    assert ("engine", None) in imports("cli")
    assert ("estimator", None) in imports("cli")       # from . import estimator, ...
    assert ("datagen", "run_generate") in imports("cli")
    assert set(MODULES) >= {"algebra", "cli", "datagen", "dsl", "engine", "oracle", "plan"}


def test_the_reader_sees_every_input_path():
    source = ('def rec(node, path):\n'
              '    return rec(node.child, f"{path}.child"), f"{path}.left.x", f"{path}.right"\n'
              'WHERE = f"{__name__}.child[0]"\n'
              'FINE = (f"{path}.childish", f"{path}.eq[{i}].left", f"{path}.{name}", ".left")\n')
    assert input_paths(source) == [("rec", 2), ("rec", 2), ("rec", 2), (None, 3)]


def test_only_the_fold_and_the_parser_build_input_paths():
    assert [(module, function, line) for module in MODULES if module != "dsl"
            for function, line in input_paths(_source(module))
            if (module, function) != ("plan", "fold")] == []


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
