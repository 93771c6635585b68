"""Checks on the package as a whole, each in a child interpreter so that the
running tests' imports stay untouched: re-importing the package frees the
old copy, the golden constructions come out the same under python -O, the
constructions leave the interpreter's state alone, and a violated claim
or an oracle answer out of contract raises a typed error with or without
-O.  One more reads the source: no
assert statement (python -O strips them), no import inside a function, no
module-level import that its module never uses, no import of
dataclasses (its decorator generates and compiles code at every import;
the records are plain classes on graph.Record), no ``object.__setattr__``
outside graph.Record (its one ``__init__`` sets every record's fields from
``_fields``), and no underscore-prefixed
module-level name that nothing in the package reads (a replaced routine
left beside its replacement)."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sepdecomp

SRC = Path(sepdecomp.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

REIMPORT = """
import gc, sys, weakref
import sepdecomp
old = weakref.ref(sepdecomp.graph.Graph)
for name in [m for m in sys.modules if m == "sepdecomp" or m.startswith("sepdecomp.")]:
    del sys.modules[name]
del sepdecomp
import sepdecomp
gc.collect()
print(json.dumps({"file": sepdecomp.__file__, "old_alive": old() is not None}))
"""

# prints one golden section, recomputed by the expression `pins`
OPTIMIZED = """
import sys
sys.path.insert(0, {tests!r})
import sepdecomp
from test_golden import (CONSTRUCT_CASES, construct_digest, cut_vertex_cases, kernel_cases,
                         menger_cases, run_cut_vertex, run_kernel, run_menger)
print(json.dumps({{"file": sepdecomp.__file__, "debug": __debug__, "pins": {pins}}}))
"""

STATE = """
import gc, sys
import sepdecomp
from sepdecomp.generators import gnp_graph, path_graph
limit = sys.getrecursionlimit()
gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
sepdecomp.construct(path_graph(400), 1, {0})
sepdecomp.construct_theorem2(gnp_graph(12, 0.3, 0), 2)
sepdecomp.separation_tree(path_graph(60), 1, 4)
gc.collect()
garbage = sorted({type(x).__name__ for x in gc.garbage})
print(json.dumps({
    "file": sepdecomp.__file__,
    "limit": [limit, sys.getrecursionlimit()],
    "garbage": garbage,
}))
"""

CLAIM = """
import sepdecomp
from sepdecomp import constructor
from sepdecomp.errors import PostconditionFailedError
from sepdecomp.generators import path_graph

class NoBagFits(constructor.Constants):
    def width_bound_ok(self, w, a):
        return False

constructor.CONSTANTS = NoBagFits()
try:
    constructor.construct(path_graph(100), 1, {0})
    message = None
except PostconditionFailedError as exc:
    message = str(exc)
print(json.dumps({"file": sepdecomp.__file__, "message": message}))
"""

ANSWER = """
import sepdecomp
from sepdecomp.errors import OracleFailureError
from sepdecomp.generators import path_graph
from sepdecomp.separations import SeparatorOracleOutcome

def oracle(H):
    return SeparatorOracleOutcome((H.full_mask(), 1 << H.n), certified=True)

try:
    sepdecomp.separation_tree(path_graph(30), 1, 4, oracle)
    certified = None
except OracleFailureError as exc:
    certified = exc.certified
print(json.dumps({"file": sepdecomp.__file__, "certified": certified}))
"""


def run_child(code: str, *flags: str) -> dict:
    """Run `code` in a fresh interpreter that imports sepdecomp from the
    same tree as the running tests; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import json\n" + code],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert Path(out["file"]).resolve().is_relative_to(SRC)
    return out


def test_reimport_frees_the_old_copy():
    # a typing alias over a package class would sit in typing's cache and
    # keep the old classes and modules alive
    assert run_child(REIMPORT)["old_alive"] is False


def test_golden_construct_under_optimize():
    pins = "{name: construct_digest(name) for name in CONSTRUCT_CASES}"
    out = run_child(OPTIMIZED.format(tests=str(TESTS), pins=pins), "-O")
    assert out["debug"] is False
    golden = json.loads((TESTS / "data" / "golden.json").read_text())
    assert out["pins"] == golden["construct"]


def test_golden_menger_under_optimize():
    # the flow's lost-unit and cut-size checks are plain code, so -O keeps
    # them; the paths, separators and W-sequences stay the pinned ones
    pins = "{key: run_menger(case) for key, case in menger_cases().items()}"
    out = run_child(OPTIMIZED.format(tests=str(TESTS), pins=pins), "-O")
    assert out["debug"] is False
    golden = json.loads((TESTS / "data" / "golden.json").read_text())
    assert out["pins"] == {key: case["result"] for key, case in golden["menger"].items()}


def test_golden_kernels_under_optimize():
    # the separation search's postcondition is a plain raise, so -O keeps
    # it; the kernel tuples and the cut-vertex searches stay the pinned ones
    pins = ('{"kernels": {key: [run_kernel(int(key), case) for case in cases]'
            ' for key, cases in kernel_cases().items()},'
            ' "cut_vertex": {key: run_cut_vertex(case)'
            ' for key, case in cut_vertex_cases().items()}}')
    out = run_child(OPTIMIZED.format(tests=str(TESTS), pins=pins), "-O")
    assert out["debug"] is False
    golden = json.loads((TESTS / "data" / "golden.json").read_text())
    kernel_pins = {key: [c["result"] for c in cases] for key, cases in golden["kernels"].items()}
    cut_pins = {key: case["result"] for key, case in golden["cut_vertex"].items()}
    assert out["pins"] == {"kernels": kernel_pins, "cut_vertex": cut_pins}


def test_constructions_leave_interpreter_state_alone():
    # no recursion limit is raised, and no reference cycle is left behind
    out = run_child(STATE)
    assert out["limit"][1] == out["limit"][0]
    assert out["garbage"] == []


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_violated_claim_raises_typed_error(flags):
    out = run_child(CLAIM, *flags)
    assert (out["message"] or "").startswith("construct: claim treewidth_bound violated")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_out_of_contract_answer_rejected(flags):
    # the re-check of an oracle's sides is plain code, so -O keeps it
    assert run_child(ANSWER, *flags)["certified"] is False


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name the module never
    reads, counting a name listed in ``__all__`` as read."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def dataclass_imports(tree: ast.Module) -> list[int]:
    """Lines that import the dataclasses module or a name from it."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses" and not node.level
    ]


def field_setters(tree: ast.Module, owner: str = "") -> list[int]:
    """Lines that name ``object.__setattr__`` outside the module-level class
    called `owner`."""
    exempt = {
        id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == owner
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
        and id(node) not in exempt
    )


def test_source_has_no_assert_or_function_level_import():
    paths = sorted((SRC / "sepdecomp").rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found.extend(f"{path.name}:{line}: unused import {n}" for line, n in unused_imports(tree))
        found.extend(f"{path.name}:{line}: dataclasses import" for line in dataclass_imports(tree))
        # only graph.Record.__init__ sets a record's fields
        owner = "Record" if path.name == "graph.py" else ""
        found.extend(f"{path.name}:{line}: field setter" for line in field_setters(tree, owner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{path.name}:{inner.lineno}: import in {node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert found == []


def test_unused_import_guard_reads_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional as Opt, Iterable\n"
        "from .graph import Graph, mask_of\n"
        "__all__ = ['mask_of']\n"
        "def f(x: Opt[int]) -> Graph:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(tree) == [(3, "Iterable")]


def test_dataclass_guard_reads_imports():
    tree = ast.parse(
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from .dataclasses import x\n"
        "def f():\n"
        "    import dataclasses\n"
    )
    assert dataclass_imports(tree) == [1, 2, 5]


def test_field_setter_guard_reads_classes():
    tree = ast.parse(
        "class Record:\n"
        "    def __init__(self, v):\n"
        "        object.__setattr__(self, 'v', v)\n"
        "class Point(Record):\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "set_field = object.__setattr__\n"
        "def f(r):\n"
        "    class Record:\n"
        "        pass\n"
        "    super(Record, r).__setattr__('x', 1)\n"
        "    object.__setattr__(r, 'x', 1)\n"
    )
    assert field_setters(tree, "Record") == [6, 7, 12]
    assert field_setters(tree) == [3, 6, 7, 12]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each underscore-prefixed module-level function,
    class or constant (dunders exempt) that no module reads outside the
    name's own definition, as a name or as an attribute."""

    def reads(node: ast.AST) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
        )

    total = sum((reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = reads(node)
            unread += [
                f"{module}:{name}" for name in names
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                and total[name] == own[name]
            ]
    return unread


def test_source_has_no_unread_private_name():
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted((SRC / "sepdecomp").rglob("*.py"))
    }
    assert trees
    assert unread_private_names(trees) == []


def test_unread_private_name_guard_reads_uses():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "_LEFT: int = 1\n"
            "__all__ = []\n"
            "def _used(x):\n"
            "    return x + _LIMIT\n"
            "def _recursive(x):\n"
            "    return _recursive(x - 1)\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b.py": ast.parse("from . import a\nprint(a._used(1), a._Kept())\n"),
    }
    assert unread_private_names(trees) == ["a.py:_LEFT", "a.py:_recursive"]
