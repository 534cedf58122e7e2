"""Every AST the package builds from source goes through one locked helper.

CPython 3.11 keeps the AST constructor's recursion-depth counter in
interpreter-wide state: two threads inside ``ast.parse`` at once can fail
with ``SystemError: AST constructor recursion depth mismatch``.
``repro serve`` parses on two threads (the admission cost estimate on the
event loop, the static passes on the campaign thread), so
:func:`repro.core.virtualsource.parse_source` holds a process-wide lock
and this test bans any other call of ``ast.parse`` under ``src/``.

Deliberately a source scan, not an import hook: it catches calls in
modules the test run never imports.
"""

import ast
import os

from repro.core.virtualsource import parse_source

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)

#: The one module allowed to call ``ast.parse`` itself.
HELPER = os.path.join("repro", "core", "virtualsource.py")


def _python_files():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _bare_parses(tree):
    """Line numbers of ``ast.parse`` calls and ``from ast import parse``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ast":
            if any(alias.name == "parse" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "parse":
            if isinstance(node.value, ast.Name) and node.value.id == "ast":
                yield node.lineno


def _violations():
    found = []
    for path in _python_files():
        rel = os.path.relpath(path, os.path.join(SRC_ROOT, os.pardir))
        if rel == HELPER:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found.extend(f"{rel}:{line}" for line in _bare_parses(tree))
    return found


def test_no_bare_ast_parse_outside_the_helper():
    violations = _violations()
    assert not violations, (
        "ast.parse called outside repro.core.virtualsource.parse_source "
        "(route it through the helper, which serializes AST builds):\n"
        + "\n".join(violations)
    )


def test_the_scan_sees_a_bare_parse():
    tree = ast.parse("import ast\ntree = ast.parse(text)\nfrom ast import parse\n")
    assert sorted(_bare_parses(tree)) == [2, 3]


def test_helper_is_the_helper_file_and_parses():
    assert os.path.exists(os.path.join(SRC_ROOT, os.pardir, HELPER))
    assert isinstance(parse_source("x = 1"), ast.Module)
    assert isinstance(parse_source("x + 1", mode="eval"), ast.Expression)

