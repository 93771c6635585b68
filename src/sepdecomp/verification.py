"""Independent oracles and property checkers.

Everything here exists to certify the constructive pipeline from the
outside: exact treewidth with a validating witness, the exact-rational
inequality relating a W-sequence to an arbitrary separation of its top
level, the sep <= tw + 1 cross-check, and a corpus runner producing
JSON-serializable reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from . import generators, kernels
from .constructor import CONSTANTS, construct
from .decomposition import RootedTreeDecomposition, validate_decomposition, width
from .errors import (
    PostconditionFailedError,
    PreconditionFailedError,
    SizeLimitExceededError,
)
from .graph import Graph, Separation, VertexSet, is_separation
from .separations import EXACT_LIMIT_SEP_NUMBER, separation_number
from .wsequence import WSequence, validate_w_sequence

EXACT_LIMIT_TREEWIDTH = 16


@dataclass(frozen=True)
class TreewidthResult:
    value: int
    elimination_order: tuple[int, ...]
    decomposition: RootedTreeDecomposition


def _witness_from_elimination(G: Graph, order: tuple[int, ...]) -> RootedTreeDecomposition:
    """Tree decomposition read off an elimination order.

    Bag i is the eliminated vertex plus its current (fill-graph) neighbors;
    its parent is the bag of the earliest-eliminated such neighbor, or the
    next bag when the vertex ends up isolated.
    """
    n = G.n
    if n == 0:
        return RootedTreeDecomposition(0, (-1,), (frozenset(),))
    adj = [set(G.neighbors(v)) for v in range(n)]
    position = {v: i for i, v in enumerate(order)}
    bags: list[VertexSet] = []
    neigh_sets: list[set[int]] = []
    alive = set(range(n))
    for v in order:
        alive.discard(v)
        nb = adj[v] & alive
        bags.append(frozenset({v} | nb))
        neigh_sets.append(nb)
        for u in nb:
            adj[u] |= nb - {u}
            adj[u].discard(v)
    parents = [-1] * n
    for i in range(n - 1):
        nb = neigh_sets[i]
        parents[i] = min(position[u] for u in nb) if nb else i + 1
    return RootedTreeDecomposition(n, tuple(parents), tuple(bags))


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


@dataclass(frozen=True)
class ZWCheck:
    holds: bool
    lhs: Fraction
    rhs: Fraction
    secondary_holds: bool
    secondary_rhs: Fraction


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


@dataclass(frozen=True)
class InstanceSpec:
    kind: str  # path | cycle | tree | grid | complete | gnp
    params: dict
    a: Optional[int] = None  # None: exact when small, else structural
    graph_id: Optional[str] = None

    def ident(self) -> str:
        if self.graph_id:
            return self.graph_id
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class SuiteConfig:
    instances: tuple[InstanceSpec, ...]
    seed: int = 0


@dataclass
class InstanceRecord:
    graph_id: str
    n: int
    m: int
    a_used: Optional[int] = None
    sep: Optional[int] = None
    tw: Optional[int] = None
    width: Optional[int] = None
    bound_num: Optional[int] = None
    bound_den: Optional[int] = None
    validated: bool = False
    bound_ok: bool = False
    passed: bool = False
    assertions: int = 0
    oracle_calls: int = 0
    elapsed_ms: float = 0.0
    error: Optional[str] = None

    def to_json(self) -> dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class SuiteReport:
    records: list[InstanceRecord] = field(default_factory=list)

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
            ok, _ = validate_decomposition(G, rep.decomposition)
            record.validated = ok
            record.bound_ok = CONSTANTS.width_bound_ok(rep.width, rep.a_used)
            record.passed = ok and record.bound_ok
        except Exception as exc:  # noqa: BLE001 - suite must never abort
            record.error = f"{type(exc).__name__}: {exc}"
            record.passed = False
        record.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
