"""The library names the benchmark under perfbench/ relies on.

perfbench stays fixed while the library changes, so a rename or deletion in
sepdecomp must not break it unseen.  These tests load its span table
read-only, check every name it and the audit read, and run one traced pass
the way ``perfbench --trace 1`` does.
"""

import importlib
import re
import types
from pathlib import Path

import sepdecomp
from sepdecomp import kernels
from sepdecomp.constructor import RecursionStats
from sepdecomp.generators import path_graph
from sepdecomp.separations import SeparatorOracleOutcome, make_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CALLS = re.compile(r"\bsepdecomp\.(\w+)\(")
IMPORTS = re.compile(r"^\s*from sepdecomp(?:\.(\w+))? import (?:\(([^)]*)\)|(.*))$", re.M)


def load_spans():
    """perfbench/spans.py as a fresh module, compiled in memory so that no
    bytecode cache is written next to it."""
    path = PERFBENCH / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    spans = load_spans()
    for mod_name, fn_name, _ in spans.TRACED:
        module = importlib.import_module(f"sepdecomp.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"sepdecomp.{mod_name}.{fn_name}"


def test_imported_and_called_names_exist():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        text = path.read_text()
        for name in CALLS.findall(text):
            assert hasattr(sepdecomp, name), (path.name, name)
            checked += 1
        for mod_name, grouped, single in IMPORTS.findall(text):
            module = importlib.import_module("sepdecomp" + (f".{mod_name}" if mod_name else ""))
            for name in re.findall(r"\w+", grouped or single):
                assert hasattr(module, name), (path.name, mod_name, name)
                checked += 1
    assert checked > 10


def test_fields_the_benchmark_reads():
    assert isinstance(kernels.IMPLEMENTATION, str)
    spans = load_spans()
    spans.Tracer().record_stats(RecursionStats())  # reads the stats fields
    assert SeparatorOracleOutcome(None, certified=True).found is False


def test_traced_pass():
    spans = load_spans()
    tracer = spans.Tracer()
    G, original = path_graph(100), sepdecomp.constructor.construct
    tracer.install()
    try:
        rep = sepdecomp.constructor.construct(G, 1, {0}, oracle=tracer.timed_oracle(make_oracle(1)))
    finally:
        tracer.uninstall()
    assert sepdecomp.constructor.construct is original
    tracer.record_stats(rep.recursion_stats)
    metrics = tracer.metrics()
    assert 0 in rep.decomposition.bags[rep.certificate_node]
    assert metrics["constructor.construct_calls"] == rep.recursion_stats.construct_calls
    assert metrics["separations.oracle.calls"] == rep.recursion_stats.oracle_calls > 0
    assert metrics["constructor.construct.self_s"] > 0
