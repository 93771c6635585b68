"""Independent oracles and property checkers.

Everything here exists to certify the constructive pipeline from the
outside: exact treewidth with a validating witness, the exact-rational
inequality relating a W-sequence to an arbitrary separation of its top
level, the sep <= tw + 1 cross-check, and a corpus runner producing
JSON-serializable reports.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Optional

from . import generators, kernels
from .constructor import construct
from .decomposition import RootedTreeDecomposition, validate_decomposition, width
from .errors import (
    PostconditionFailedError,
    PreconditionFailedError,
    SizeLimitExceededError,
)
from .graph import Graph, Record, Separation, is_separation, mask_vertices
from .separations import EXACT_LIMIT_SEP_NUMBER, separation_number
from .wsequence import WSequence, validate_w_sequence

EXACT_LIMIT_TREEWIDTH = 16


class TreewidthResult(Record):
    __slots__ = _fields = ("value", "elimination_order", "decomposition")


def _witness_from_elimination(G: Graph, order: tuple[int, ...]) -> RootedTreeDecomposition:
    """Tree decomposition read off an elimination order.

    Bag i is the i-th eliminated vertex plus its later neighbours in the
    filled graph (``kernels.eliminate``); its parent is the bag of the
    vertex's parent in the elimination forest, or bag i + 1 for a root.
    """
    if G.n == 0:
        return RootedTreeDecomposition(0, (-1,), (frozenset(),))
    _, later, parent = kernels.eliminate(G.adj_masks, order)
    position = {v: i for i, v in enumerate(order)}
    bags = tuple(frozenset(mask_vertices(later[v] | 1 << v)) for v in order)
    parents = tuple(position.get(parent[v], i + 1) for i, v in enumerate(order[:-1]))
    return RootedTreeDecomposition(G.n, parents + (-1,), bags)


def treewidth_exact(G: Graph) -> TreewidthResult:
    """Exact treewidth by subset DP, with a validated witness decomposition
    (n <= EXACT_LIMIT_TREEWIDTH)."""
    if G.n > EXACT_LIMIT_TREEWIDTH:
        raise SizeLimitExceededError(G.n, EXACT_LIMIT_TREEWIDTH, "exact treewidth")
    value, order = kernels.treewidth(G.n, G.adj_masks)
    td = _witness_from_elimination(G, order)
    ok, violations = validate_decomposition(G, td)
    if not ok:
        raise PostconditionFailedError(f"treewidth_exact: invalid witness: {violations[:3]}")
    if width(td) != value:
        raise PostconditionFailedError(
            f"treewidth_exact: witness width {width(td)} is not the treewidth {value}"
        )
    return TreewidthResult(value, order, td)


class ZWCheck(Record):
    __slots__ = _fields = ("holds", "lhs", "rhs", "secondary_holds", "secondary_rhs")


def check_zw_inequality(G: Graph, ws: WSequence, ab: Separation) -> ZWCheck:
    """|W \\ B| + |Z \\ B| against (13/6)|A \\ B|/(l+2) + 3|A n B|.

    `ab` must be a separation of the induced subgraph on the W-sequence's
    top level, given in G's vertex ids.  Also evaluates the weaker
    2|A \\ B|/(l+1) + 3|A n B| bound as a secondary flag.
    """
    ok, tags = validate_w_sequence(G, ws)
    if not ok:
        raise PreconditionFailedError(f"invalid W-sequence: {tags}")
    ell = ws.ell
    if ell < 1:
        raise PreconditionFailedError("requires l >= 1")
    top = ws.levels[ell + 1]
    if not (ab.a_side | ab.b_side) == top:
        raise PreconditionFailedError("separation does not cover the top level")
    A, B = ab.a_side, ab.b_side
    # (A, B) separates G[top] exactly when adding the rest of G to both
    # sides gives a separation of G
    rest = frozenset(range(G.n)) - top
    if not is_separation(G, Separation(A | rest, B | rest)):
        raise PreconditionFailedError("not a separation of the top level")
    W = ws.levels[0]
    Z = ws.z_set
    lhs = Fraction(len(W - B) + len(Z - B))
    rhs = Fraction(13, 6) * len(A - B) / (ell + 2) + 3 * len(A & B)
    secondary_rhs = Fraction(2) * len(A - B) / (ell + 1) + 3 * len(A & B)
    return ZWCheck(lhs <= rhs, lhs, rhs, lhs <= secondary_rhs, secondary_rhs)


def check_sep_le_tw(G: Graph) -> bool:
    """sep(G) <= tw(G) + 1, both sides exact (n <= EXACT_LIMIT_SEP_NUMBER,
    the smaller of the two limits)."""
    return separation_number(G) <= treewidth_exact(G).value + 1


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------


class InstanceSpec(Record):
    # kind: path | cycle | tree | grid | complete | gnp; a None: exact when
    # small, else structural
    __slots__ = _fields = ("kind", "params", "a", "graph_id")
    _defaults = {"a": None, "graph_id": None}

    def ident(self) -> str:
        if self.graph_id:
            return self.graph_id
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


class SuiteConfig(Record):
    __slots__ = _fields = ("instances", "seed")
    _defaults = {"seed": 0}


class InstanceRecord:
    """One suite instance's outcome, filled in as it runs."""

    def __init__(self, graph_id: str, n: int, m: int):
        self.graph_id, self.n, self.m = graph_id, n, m
        self.a_used: Optional[int] = None
        self.sep: Optional[int] = None
        self.tw: Optional[int] = None
        self.width: Optional[int] = None
        self.bound_num: Optional[int] = None
        self.bound_den: Optional[int] = None
        self.validated = self.bound_ok = self.passed = False
        self.assertions = self.oracle_calls = 0
        self.elapsed_ms = 0.0
        self.error: Optional[str] = None

    def to_json(self) -> dict[str, Any]:
        return dict(self.__dict__)


class SuiteReport:
    def __init__(self):
        self.records: list[InstanceRecord] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "total": len(self.records),
            "failures": sum(not r.passed for r in self.records),
            "records": [r.to_json() for r in self.records],
        }


def structural_a(kind: str, G: Graph) -> Optional[int]:
    """Known-correct separation numbers for structured families."""
    if kind == "path" or kind == "tree":
        return 1
    if kind == "cycle":
        return 1 if G.n <= 3 else 2
    if kind == "complete":
        return -(-G.n // 3)
    return None


def _choose_a(spec: InstanceSpec, G: Graph, sep: Optional[int]) -> int:
    """The configured a, else the exact separation number `sep` (None when
    G is too large for it), else the family's known value."""
    if spec.a is not None:
        return spec.a
    if sep is not None:
        return sep
    a = structural_a(spec.kind, G)
    if a is None:
        # no known value: ceil(n/3) always suffices, since (any ceil(n/3)
        # vertices, V) is a balanced separation of G, and likewise of every
        # subgraph the oracle is handed
        a = -(-G.n // 3)
    return a


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run construct + validation over the configured corpus.

    Per-instance failures are recorded, never raised; the report is
    deterministic given the config (including its seed).
    """
    report = SuiteReport()
    for idx, spec in enumerate(config.instances):
        record = InstanceRecord(graph_id=spec.ident(), n=0, m=0)
        report.records.append(record)
        start = time.perf_counter()
        try:
            G = generators.generate(
                spec.kind, spec.params, seed=config.seed * 10007 + idx
            )
            record.n, record.m = G.n, G.m
            if G.n <= EXACT_LIMIT_SEP_NUMBER:
                record.sep = separation_number(G)
                record.tw = treewidth_exact(G).value
            a = _choose_a(spec, G, record.sep)
            record.a_used = a
            rep = construct(G, a, {0})
            record.width = rep.width
            record.bound_num = rep.bound_num
            record.bound_den = rep.bound_den
            record.oracle_calls = rep.recursion_stats.oracle_calls
            record.assertions = sum(rep.recursion_stats.claims.values())
            # construct raises unless its output validates within the bound
            record.validated = record.bound_ok = record.passed = True
        except Exception as exc:  # noqa: BLE001 - suite must never abort
            record.error = f"{type(exc).__name__}: {exc}"
            record.passed = False
        record.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
