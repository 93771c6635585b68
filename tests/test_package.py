"""Checks on the package as a whole, each in a child interpreter so that the
running tests' imports stay untouched: re-importing the package frees the
old copy, and the golden constructions come out the same under python -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

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

OPTIMIZED = """
import sys
sys.path.insert(0, {tests!r})
import sepdecomp
from test_golden import CONSTRUCT_CASES, construct_digest
print(json.dumps({{
    "file": sepdecomp.__file__,
    "debug": __debug__,
    "construct": {{name: construct_digest(name) for name in CONSTRUCT_CASES}},
}}))
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
    out = run_child(OPTIMIZED.format(tests=str(TESTS)), "-O")
    assert out["debug"] is False
    golden = json.loads((TESTS / "data" / "golden.json").read_text())
    assert out["construct"] == golden["construct"]
