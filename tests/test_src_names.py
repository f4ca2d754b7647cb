"""No test-only code or state in src/.

Definitions: every function, class and method that src/iiotsim defines is
named somewhere in src/iiotsim, so the testbed runs it. A name counts as an
attribute, an import or an exact string constant (getattr(svc, "on_open")
names on_open), and, for a function or class, as a Name too: a local
variable of a method's name does not reach the method. Dunders are exempt,
and so is each name perfbench/spans.py wraps: the benchmark's traced run
looks those up by name, so a span dropped there makes its name count here
again. A reference that only tests compare against belongs in
tests/conftest.py.

Stored state: every attribute src/iiotsim stores (self.x = ..., obj.x = ...,
x += ...) or declares as a class field (a dataclass's x: int) is read
somewhere, by name, in src/iiotsim or perfbench/*.py. A read is an attribute
load that is not the receiver of append, extend, add, update or clear, or a
string constant that names an attribute, as the second argument of getattr
or hasattr (add_parser("report") reads no report); a list only ever appended
to is a transcript nothing reads.
A test observes the run through its bundle, its capture, its logs or a hook
src/ already calls, not through state kept for it."""

import ast
import glob
import os

from test_spans import wrapped_names

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "iiotsim")
PERFBENCH = os.path.join(ROOT, "perfbench")
GROWERS = {"append", "extend", "add", "update", "clear"}
# read only as getattr(self, f"on_{state}") in netsim.TcpStream._set_state
READ_THROUGH_GETATTR = {"on_established", "on_closed", "on_refused"}


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


def reads(tree) -> set:
    """Every attribute tree loads, but as the receiver of a GROWERS call,
    and every string constant it passes as getattr's or hasattr's name."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    grown = {id(call.func.value) for call in calls
             if isinstance(call.func, ast.Attribute)
             and call.func.attr in GROWERS}
    named = {call.args[1].value for call in calls
             if isinstance(call.func, ast.Name)
             and call.func.id in ("getattr", "hasattr") and len(call.args) > 1
             and isinstance(call.args[1], ast.Constant)
             and isinstance(call.args[1].value, str)}
    return named | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in grown}


def stored(trees) -> list:
    """(file, line, name) of each attribute store and class field."""
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Store):
                out.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ClassDef):
                out.extend((path, item.lineno, item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name))
    return out


def unread_state(trees, other_trees=()) -> list:
    """(file, line, name) of each store or field of trees whose name
    neither trees nor other_trees read."""
    read = set().union(*map(reads, [*trees.values(), *other_trees]))
    return sorted(s for s in stored(trees) if s[2] not in read)


def perfbench_trees() -> list:
    trees = []
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            trees.append(ast.parse(fh.read()))
    return trees


def test_all_state_src_stores_is_read():
    unread = unread_state(src_trees(), perfbench_trees())
    assert [s for s in unread if s[2] not in READ_THROUGH_GETATTR] == []
    # an exemption whose name src/ no longer stores goes too
    assert {s[2] for s in unread} == READ_THROUGH_GETATTR


def test_the_rule_flags_state_only_a_test_reads():
    trees = {"m.py": ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Window:\n"
        "    t0: int\n"
        "    gaps: int\n\n"
        "class Client:\n"
        "    def __init__(self):\n"
        "        self.sent = []\n"
        "        self.log = []\n"
        "        self.count = 0\n"
        "        self.hook = None\n"
        "        self.probe = None\n"
        "        self.report = {}\n"
        "        self.done = set()\n\n"
        "    def send(self, w):\n"
        "        self.sent.append(w.t0)\n"
        "        self.log.append(self.sent[-1])\n"
        "        self.done.add(w)\n"
        "        self.count += 1\n"
        "        w.closed = True\n"
        "        hasattr(self, 'probe'), parser.add('report')\n"
        "        return getattr(self, 'hook'), w in self.done\n")}
    # appended to, counted up or set, and never read; a string read only
    # where it names an attribute
    assert unread_state(trees) == [("m.py", 6, "gaps"), ("m.py", 11, "log"),
                                   ("m.py", 12, "count"),
                                   ("m.py", 15, "report"),
                                   ("m.py", 22, "count"),
                                   ("m.py", 23, "closed")]
    # a load elsewhere, such as in perfbench, reads it
    assert unread_state(trees, [ast.parse("print(run.log, w.closed)")]) == [
        ("m.py", 6, "gaps"), ("m.py", 12, "count"), ("m.py", 15, "report"),
        ("m.py", 22, "count")]
