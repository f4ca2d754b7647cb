"""No test-only code in src/: every function, class and method that
src/iiotsim defines is named somewhere in src/iiotsim, so the testbed runs
it. A name counts as a Name, an attribute, an import or an exact string
constant (getattr(svc, "on_open") names on_open). Dunders are exempt, and
so is each name perfbench/spans.py wraps: the benchmark's traced run looks
those up by name, so a span dropped there makes its name count here again.
A reference that only tests compare against belongs in tests/conftest.py."""

import ast
import os

from test_spans import wrapped_names

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "iiotsim")


def src_trees() -> dict:
    """Path relative to src/iiotsim -> parsed module, for every .py file."""
    trees = {}
    for root, dirs, files in os.walk(SRC):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    trees[os.path.relpath(path, SRC)] = ast.parse(fh.read())
    return trees


def named(trees) -> set:
    """Every name the modules use as a Name, attribute, import or string."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                out.add(node.value)
    return out


def unnamed_definitions(trees) -> list:
    """(file, line, name) of each definition no module names."""
    used = named(trees) | {attr for _, attr in wrapped_names()}
    return sorted(
        (path, node.lineno, node.name)
        for path, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)


def test_every_definition_in_src_is_named_in_src():
    assert unnamed_definitions(src_trees()) == []


def test_the_rule_flags_a_definition_only_a_test_names():
    trees = {"m.py": ast.parse(
        "def used():\n    pass\n\n"
        "def only_tested():\n    pass\n\n"
        "class Service:\n"
        "    def on_open(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def start(svc):\n"
        "    used()\n"
        "    return Service, getattr(svc, 'on_open')\n")}
    assert unnamed_definitions(trees) == [("m.py", 4, "only_tested"),
                                          ("m.py", 13, "start")]
