"""Per-layer trace of sepdecomp, taken from outside the library.

Each traced function is replaced, for the duration of a traced pass, at
every name under which a sepdecomp module looks it up (for example
``wsequence.disjoint_paths`` and ``separations.disjoint_paths`` both hold
``menger.disjoint_paths``), by a wrapper that records a span.  A span's self
time is its duration minus the time of the traced spans it encloses.  The
oracle is traced by handing ``construct`` a timed oracle.  Times are raw
wall seconds per traced pass, to be compared within one run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# The compiled kernels take n <= 62; larger graphs fall back to pure Python.
COMPILED_MAX_N = 62

# (module, function, extra counters read from (result, args))
TRACED = (
    ("menger", "disjoint_paths", lambda res, args: {"paths": len(res.paths)}),
    ("menger", "separates", None),
    ("wsequence", "build_w_sequence", lambda res, args: {"rounds": len(res.levels) - 1}),
    ("separations", "stz_separation", None),
    (
        "kernels", "min_balanced_separation",
        lambda res, args: {"big_n_calls": int(args[0] > COMPILED_MAX_N)},
    ),
    ("kernels", "treewidth", None),
    ("kernels", "separation_number", None),
    ("decomposition", "separation_tree", None),
    ("decomposition", "restrict_decomposition", None),
    ("decomposition", "validate_decomposition", None),
    ("graph", "induced_subgraph", lambda res, args: {"vertices": res[0].n}),
    ("constructor", "construct", None),
    ("constructor", "construct_theorem2", None),
    ("verification", "treewidth_exact", None),
    ("pace", "write_td", None),
    ("pace", "parse_td", None),
)

ORACLE = "separations.oracle"
VALIDATE = "decomposition.validate_decomposition"
# validation is reported by caller: inside restriction, called by the
# benchmark itself (final), or inside write_td / treewidth_exact (other)
VALIDATE_CALLER = {"decomposition.restrict_decomposition": "restrict", None: "final"}

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("menger.disjoint_paths.calls", "count"),
    ("menger.disjoint_paths.self_s", "s"),
    ("menger.disjoint_paths.paths", "count"),
    ("menger.separates.calls", "count"),
    ("menger.separates.self_s", "s"),
    ("wsequence.build_w_sequence.calls", "count"),
    ("wsequence.build_w_sequence.self_s", "s"),
    ("wsequence.build_w_sequence.rounds", "count"),
    ("separations.oracle.calls", "count"),
    ("separations.oracle.self_s", "s"),
    ("separations.oracle.found_ratio", "ratio"),
    ("separations.oracle.exact_calls", "count"),
    ("separations.oracle.heuristic_calls", "count"),
    ("separations.oracle.heuristic_found_ratio", "ratio"),
    ("separations.stz_separation.calls", "count"),
    ("separations.stz_separation.self_s", "s"),
    ("kernels.min_balanced_separation.calls", "count"),
    ("kernels.min_balanced_separation.self_s", "s"),
    ("kernels.min_balanced_separation.big_n_calls", "count"),
    ("kernels.treewidth.calls", "count"),
    ("kernels.treewidth.self_s", "s"),
    ("kernels.separation_number.calls", "count"),
    ("kernels.separation_number.self_s", "s"),
    ("decomposition.separation_tree.calls", "count"),
    ("decomposition.separation_tree.self_s", "s"),
    ("decomposition.restrict_decomposition.calls", "count"),
    ("decomposition.restrict_decomposition.self_s", "s"),
    ("decomposition.validate_decomposition.restrict.calls", "count"),
    ("decomposition.validate_decomposition.restrict.self_s", "s"),
    ("decomposition.validate_decomposition.final.calls", "count"),
    ("decomposition.validate_decomposition.final.self_s", "s"),
    ("decomposition.validate_decomposition.other.calls", "count"),
    ("decomposition.validate_decomposition.other.self_s", "s"),
    ("graph.induced_subgraph.calls", "count"),
    ("graph.induced_subgraph.self_s", "s"),
    ("graph.induced_subgraph.vertices", "count"),
    ("constructor.construct.self_s", "s"),
    ("constructor.construct_theorem2.self_s", "s"),
    ("constructor.construct_calls", "count"),
    ("constructor.base_cases", "count"),
    ("constructor.max_depth", "count"),
    ("constructor.separation_tree_nodes", "count"),
    ("constructor.oracle_calls", "count"),
    ("verification.treewidth_exact.self_s", "s"),
    ("pace.write_td.self_s", "s"),
    ("pace.parse_td.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span recorder for one traced pass; ``install`` patches, ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, seconds of enclosed spans]
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn, extra):
        stack = self._stack
        values = self.values

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = name
                if name == VALIDATE:
                    caller = parent[0] if parent is not None else None
                    key = f"{name}.{VALIDATE_CALLER.get(caller, 'other')}"
                values[key + ".calls"] += 1
                values[key + ".self_s"] += elapsed - frame[1]
            if extra is not None:
                for counter, amount in extra(result, args).items():
                    values[f"{name}.{counter}"] += amount
            return result

        return traced

    def install(self):
        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "sepdecomp" or mod_name.startswith("sepdecomp."))
        }
        for mod_name, fn_name, extra in TRACED:
            original = getattr(modules[f"sepdecomp.{mod_name}"], fn_name)
            wrapper = self._record(f"{mod_name}.{fn_name}", original, extra)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def timed_oracle(self, oracle):
        """Wrap an oracle; a call that reached the exact kernel is exact,
        any other call is heuristic."""
        values = self.values
        traced = self._record(ORACLE, oracle, None)
        kernel_calls = "kernels.min_balanced_separation.calls"

        def counted(H):
            before = values[kernel_calls]
            outcome = traced(H)
            kind = "exact" if values[kernel_calls] > before else "heuristic"
            values[f"{ORACLE}.{kind}_calls"] += 1
            values[f"{ORACLE}.{kind}_found"] += outcome.found
            return outcome

        return counted

    def record_stats(self, stats):
        """Add one construct call's RecursionStats."""
        for field in ("construct_calls", "base_cases", "separation_tree_nodes", "oracle_calls"):
            self.values[f"constructor.{field}"] += getattr(stats, field)
        key = "constructor.max_depth"
        self.values[key] = max(self.values[key], stats.max_depth)

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer values (without trace.overhead_ratio)."""
        v = self.values
        out = {name: float(v[name]) for name, _ in PER_LAYER[:-1]}
        calls = v[f"{ORACLE}.calls"]
        found = v[f"{ORACLE}.exact_found"] + v[f"{ORACLE}.heuristic_found"]
        heuristic = v[f"{ORACLE}.heuristic_calls"]
        # a ratio over zero calls reads 0
        out[f"{ORACLE}.found_ratio"] = found / calls if calls else 0.0
        out[f"{ORACLE}.heuristic_found_ratio"] = (
            v[f"{ORACLE}.heuristic_found"] / heuristic if heuristic else 0.0
        )
        return out
