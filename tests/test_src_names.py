"""No test-only code in src/: every function, class and method that
src/iiotsim defines is named somewhere in src/iiotsim, so the testbed runs
it. A name counts as an attribute, an import or an exact string constant
(getattr(svc, "on_open") names on_open), and, for a function or class, as a
Name too: a local variable of a method's name does not reach the method.
Dunders are exempt, and
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


def named(trees) -> tuple:
    """(every name the modules use as a Name, every name they use as an
    attribute, import or string)."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                attrs.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                attrs.add(node.value)
    return names, attrs


def unnamed_definitions(trees) -> list:
    """(file, line, name) of each definition no module names."""
    names, attrs = named(trees)
    attrs |= {attr for _, attr in wrapped_names()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(child) for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for child in node.body if isinstance(child, functions)}
    return sorted(
        (path, node.lineno, node.name)
        for path, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (*functions, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attrs
        and (id(node) in methods or node.name not in names))


def test_every_definition_in_src_is_named_in_src():
    assert unnamed_definitions(src_trees()) == []


def test_the_rule_flags_a_definition_only_a_test_names():
    trees = {"m.py": ast.parse(
        "def used():\n    pass\n\n"
        "def only_tested():\n    pass\n\n"
        "class Service:\n"
        "    def on_open(self):\n        pass\n"
        "    def query(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def start(svc):\n"
        "    used()\n"
        "    query = svc.rows\n"
        "    return Service, getattr(svc, 'on_open'), query\n")}
    # the local query does not name the method query
    assert unnamed_definitions(trees) == [("m.py", 4, "only_tested"),
                                          ("m.py", 10, "query"),
                                          ("m.py", 15, "start")]
