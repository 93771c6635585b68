"""Tree-decomposition constructors driven by balanced separations.

``construct`` is the main recursion: it turns an order-a balanced-separation
oracle into a decomposition of width below (7915/139)*a, threading a marked
vertex set W through the recursion so that some bag always contains it.
``construct_theorem2`` is the classical iteration that gets width below 4a
out of W-balanced separations.  All threshold comparisons are exact integer
cross-multiplications; the constants are exact rationals.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .decomposition import (
    RootedTreeDecomposition,
    restrict_decomposition,
    separation_tree,
    width,
)
from .errors import (
    InvalidInputError,
    OracleFailureError,
    RecursionGuardError,
    SizeLimitExceededError,
    WBalancedUnavailableError,
)
from .graph import (
    Graph,
    Separation,
    VertexSet,
    _check_vertices,
    induced_subgraph,
    mask_of,
    mask_vertices,
)
from .kernels import separators
from .separations import Oracle, make_oracle, stz_separation
from .wsequence import _sequence_tail


@dataclass(frozen=True)
class Constants:
    """h, t and c from the width analysis, as exact rationals."""

    h: int = 4
    t: Fraction = Fraction(3888, 139)
    c: Fraction = Fraction(7915, 139)

    def __post_init__(self):
        derived = 4 * self.h / (1 - Fraction(13, 6) * Fraction(2, 3) ** self.h)
        if self.t != derived or self.c != 2 * self.t + 1:
            raise InvalidInputError("inconsistent constants")

    def base_case(self, n: int, a: int) -> bool:
        # n < t*a, cross-multiplied
        return self.t.denominator * n < self.t.numerator * a

    def w_small_enough(self, w_size: int, a: int) -> bool:
        # |W| <= t*a
        return self.t.denominator * w_size <= self.t.numerator * a

    def width_bound_ok(self, w: int, a: int) -> bool:
        # every bag strictly below c*a: 139*(width+1) < 7915*a
        return self.c.denominator * (w + 1) < self.c.numerator * a


CONSTANTS = Constants()


@dataclass
class RecursionStats:
    construct_calls: int = 0
    base_cases: int = 0
    oracle_calls: int = 0
    separation_tree_nodes: int = 0
    max_depth: int = 0
    max_subproblem: int = 0


@dataclass
class AssertionRecord:
    claim: str
    context: str
    ok: bool


@dataclass(frozen=True)
class ConstructReport:
    decomposition: RootedTreeDecomposition
    a_used: int
    width: int
    bound_num: int  # width must stay strictly below bound_num / bound_den
    bound_den: int
    certificate_node: int
    recursion_stats: RecursionStats
    assertion_log: tuple[AssertionRecord, ...]

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.width, self.a_used) if self.a_used else Fraction(0)


def _counted_oracle(oracle: Oracle, stats: RecursionStats) -> Oracle:
    def counted(H: Graph):
        stats.oracle_calls += 1
        return oracle(H)

    return counted


class _Claims:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.log: list[AssertionRecord] = []

    def check(self, claim: str, ok: bool, context: str):
        if not self.enabled:
            return
        self.log.append(AssertionRecord(claim, context, ok))
        if not ok:
            raise AssertionError(f"claim {claim} violated: {context}")


def construct(
    G: Graph,
    a: int,
    W: Iterable[int],
    oracle: Optional[Oracle] = None,
    debug_assertions: bool = True,
) -> ConstructReport:
    """Decomposition of width < (7915/139)*a with W inside some bag.

    The oracle must produce balanced separations of order <= a for every
    subgraph it is handed; with an exact oracle a failure certifies
    sep(G) > a.
    """
    W = _check_vertices(G, W)
    if a < 1:
        raise InvalidInputError("a must be >= 1")
    if not W:
        raise InvalidInputError("W must be non-empty")
    if not CONSTANTS.w_small_enough(len(W), a):
        raise InvalidInputError(f"|W|={len(W)} exceeds t*a for a={a}")
    if oracle is None:
        oracle = make_oracle(a)
    stats = RecursionStats()
    claims = _Claims(debug_assertions)
    oracle = _counted_oracle(oracle, stats)
    limit = max(sys.getrecursionlimit(), 40 * (G.n + 100))
    sys.setrecursionlimit(limit)
    td, cert = _construct(G, a, W, oracle, stats, claims, G.n + 1, 0)
    w = width(td)
    if not CONSTANTS.width_bound_ok(w, a):
        raise AssertionError(f"width {w} violates the (7915/139)*a bound for a={a}")
    assert W <= td.bags[cert]
    return ConstructReport(
        decomposition=td,
        a_used=a,
        width=w,
        bound_num=7915 * a,
        bound_den=139,
        certificate_node=cert,
        recursion_stats=stats,
        assertion_log=tuple(claims.log),
    )


def _single_bag(G: Graph) -> RootedTreeDecomposition:
    return RootedTreeDecomposition(G.n, (-1,), (frozenset(range(G.n)),))


def _reroot(td: RootedTreeDecomposition, r: int) -> RootedTreeDecomposition:
    parents = list(td.parents)
    prev = -1
    x = r
    while x != -1:
        nxt = parents[x]
        parents[x] = prev
        prev = x
        x = nxt
    return RootedTreeDecomposition(td.host_n, tuple(parents), td.bags)


def _construct(
    G: Graph,
    a: int,
    W: VertexSet,
    oracle: Oracle,
    stats: RecursionStats,
    claims: _Claims,
    parent_n: int,
    depth: int,
) -> tuple[RootedTreeDecomposition, int]:
    if G.n >= parent_n:
        raise RecursionGuardError(
            f"subproblem size {G.n} did not decrease below {parent_n}"
        )
    stats.construct_calls += 1
    stats.max_depth = max(stats.max_depth, depth)
    stats.max_subproblem = max(stats.max_subproblem, G.n)

    if CONSTANTS.base_case(G.n, a):
        stats.base_cases += 1
        return _single_bag(G), 0

    w_ell, w_top, Z, ell_is_zero = _sequence_tail(G, W)
    S = frozenset(range(G.n)) - w_ell
    sep_xy = stz_separation(G, S, Z, W)
    X, Y = sep_xy.a_side, sep_xy.b_side
    claims.check("z_lt_w", len(Z) < len(W), f"|Z|={len(Z)} |W|={len(W)}")
    claims.check("xy_order", len(X & Y) == len(Z), f"order={len(X & Y)}")
    claims.check("y_in_wtop", Y <= w_top, f"|Y\\W_top|={len(Y - w_top)}")

    if ell_is_zero:
        ty = RootedTreeDecomposition(G.n, (-1,), (W | Z,))
        ty_root = 0
    else:
        ty, ty_root = _build_t_y(G, a, W, Z, X, Y, w_top, oracle, stats, claims, depth)
    assert (W | Z) <= ty.bags[ty_root]
    claims.check(
        "treewidth_bound",
        all(CONSTANTS.width_bound_ok(len(b) - 1, a) for b in ty.bags),
        f"max T_Y bag {max(len(b) for b in ty.bags)} vs a={a}",
    )

    if not (X - Y):
        return ty, ty_root

    w_next = Z if Z else frozenset({min(X)})
    HX, new_to_old = induced_subgraph(G, X)
    old_to_new = {o: nw for nw, o in new_to_old.items()}
    tx, tx_cert = _construct(
        HX, a, frozenset(old_to_new[v] for v in w_next),
        oracle, stats, claims, G.n, depth + 1,
    )
    tx = _reroot(tx, tx_cert)
    parents = list(ty.parents)
    bags = list(ty.bags)
    offset = len(parents)
    for x in range(tx.size):
        p = tx.parents[x]
        parents.append(ty_root if p == -1 else p + offset)
        bags.append(frozenset(new_to_old[v] for v in tx.bags[x]))
    return RootedTreeDecomposition(G.n, tuple(parents), tuple(bags)), ty_root


def _build_t_y(
    G: Graph,
    a: int,
    W: VertexSet,
    Z: VertexSet,
    X: VertexSet,
    Y: VertexSet,
    w_top: VertexSet,
    oracle: Oracle,
    stats: RecursionStats,
    claims: _Claims,
    depth: int,
) -> tuple[RootedTreeDecomposition, int]:
    """Decompose G[Y] with W ∪ Z in the root bag (the ell >= 1 case)."""
    H, new_to_old = induced_subgraph(G, w_top)
    old_to_new = {o: nw for nw, o in new_to_old.items()}

    t_prime = separation_tree(H, a, CONSTANTS.h, oracle)
    stats.separation_tree_nodes += t_prime.size

    if claims.enabled:
        wz_local = frozenset(old_to_new[v] for v in (W | Z) if v in old_to_new)
        depths = t_prime.depths()
        for y, intr in enumerate(t_prime.interiors()):
            d = depths[y]
            lhs = len(intr & wz_local)
            rhs = Fraction(13, 6) * CONSTANTS.t * a * Fraction(2, 3) ** d + 3 * d * a
            claims.check("cell_bound", lhs <= rhs, f"depth {d}: {lhs} <= {rhs}")

    a_local = frozenset(
        old_to_new[v] for v in ((X & w_top) | W)
    )
    b_local = frozenset(old_to_new[v] for v in Y)
    t_dbl = restrict_decomposition(H, t_prime, Separation(a_local, b_local))
    root = t_dbl.root
    assert frozenset(old_to_new[v] for v in (W | Z)) <= t_dbl.bags[root]

    boundaries = t_dbl.boundaries()
    interiors = t_dbl.interiors()
    leaves = set(t_dbl.leaves())
    assert root not in leaves or t_dbl.size == 1

    parents: list[int] = []
    bags: list[VertexSet] = []
    new_idx: dict[int, int] = {}
    for y in t_dbl.preorder():
        p = t_dbl.parents[y]
        new_parent = -1 if p == -1 else new_idx[p]
        if y not in leaves:
            new_idx[y] = len(parents)
            parents.append(new_parent)
            bags.append(frozenset(new_to_old[v] for v in t_dbl.bags[y]))
            continue
        bnd = boundaries[y]
        claims.check(
            "leaf_interface",
            CONSTANTS.t.denominator * len(bnd) <= CONSTANTS.t.numerator * a,
            f"leaf boundary {len(bnd)} vs t*a, a={a}",
        )
        region = frozenset(new_to_old[v] for v in (interiors[y] | bnd))
        if not region:
            new_idx[y] = len(parents)
            parents.append(new_parent)
            bags.append(frozenset())
            continue
        w_leaf = frozenset(new_to_old[v] for v in bnd) or frozenset({min(region)})
        HY, leaf_to_old = induced_subgraph(G, region)
        leaf_old_to_new = {o: nw for nw, o in leaf_to_old.items()}
        sub, sub_cert = _construct(
            HY, a, frozenset(leaf_old_to_new[v] for v in w_leaf),
            oracle, stats, claims, G.n, depth + 1,
        )
        sub = _reroot(sub, sub_cert)
        offset = len(parents)
        new_idx[y] = offset  # the grafted root replaces the leaf
        for x in range(sub.size):
            sp = sub.parents[x]
            parents.append(new_parent if sp == -1 else sp + offset)
            bags.append(frozenset(leaf_to_old[v] for v in sub.bags[x]))
    return RootedTreeDecomposition(G.n, tuple(parents), tuple(bags)), new_idx[root]


# ---------------------------------------------------------------------------
# Width < 4a by iterating W-balanced separations of the remainder.
# ---------------------------------------------------------------------------


def _useful_w_balanced(G: Graph, w_mask: int, wpad_mask: int, a: int):
    """Min-order separation of G balancing the padded set, moving the
    iteration forward.

    Balance is measured against wpad (W padded up to 3a); degeneracy against
    the true W: a candidate is rejected when one full side together with a
    separator inside W would hand a child the parent's own (X, Y) state.
    Among the groupings of the first separator that has a useful one, the
    lexicographically smallest A side (by sorted vertex tuple) wins; every
    grouping of components is tried.  Returns (z_mask, a_mask) or raises.
    """
    full = G.full_mask()
    hi = (2 * wpad_mask.bit_count()) // 3
    saw_degenerate = False
    for _, z_mask, comps in separators(G.adj_masks, range(G.n), full, range(min(a, G.n) + 1)):
        weights = [(c & wpad_mask).bit_count() for c in comps]
        lo = (wpad_mask & ~z_mask).bit_count() - hi
        best = None
        for sel in range(1 << len(comps)):
            s = sum(wt for i, wt in enumerate(weights) if sel >> i & 1)
            if not (lo <= s <= hi):
                continue
            a_mask = z_mask
            for i, c in enumerate(comps):
                if sel >> i & 1:
                    a_mask |= c
            b_mask = (full & ~a_mask) | z_mask
            degenerate = (
                a_mask == full and (a_mask & b_mask) & ~w_mask == 0
            ) or (b_mask == full and a_mask & ~w_mask == 0)
            if degenerate:
                saw_degenerate = True
                continue
            key = tuple(mask_vertices(a_mask))
            if best is None or key < best[0]:
                best = (key, a_mask)
        if best is not None:
            return z_mask, best[1]
    if saw_degenerate:
        raise RecursionGuardError(
            "only degenerate W-balanced separations available"
        )
    raise WBalancedUnavailableError(frozenset(mask_vertices(wpad_mask)), a)


def construct_theorem2(
    G: Graph, a: int, exact_limit: int = 20, debug_assertions: bool = True
) -> ConstructReport:
    """Width < 4a via the W-balanced separation iteration.

    Maintains a separation (X, Y) of order <= 3a and a decomposition of
    G[Y] with X ∩ Y inside a bag; each step peels a separation of G[X] that
    balances X ∩ Y (padded up to 3a, which is what forces termination) off
    into a new leaf bag of size <= 4a.
    """
    if a < 1:
        raise InvalidInputError("a must be >= 1")
    if G.n > exact_limit:
        raise SizeLimitExceededError(G.n, exact_limit, "exhaustive separation search")
    stats = RecursionStats()
    claims = _Claims(debug_assertions)
    parents: list[int] = [-1]
    bags: list[VertexSet] = [frozenset()]

    def extend(X: VertexSet, Y: VertexSet, node: int):
        stats.construct_calls += 1
        W = X & Y
        claims.check("order_3a", len(W) <= 3 * a, f"|X∩Y|={len(W)}")
        rem = X - Y
        if not rem:
            return
        if len(X) <= 4 * a:
            claims.check("bag_4a", len(X) <= 4 * a, f"leaf bag {len(X)}")
            parents.append(node)
            bags.append(X)
            return
        # pad W to exactly 3a with the smallest uncovered vertices; balancing
        # the padded set is what forces both child states to shrink
        pad = sorted(rem)[: 3 * a - len(W)]
        wpad = W | frozenset(pad)
        H, new_to_old = induced_subgraph(G, X)
        old_to_new = {o: nw for nw, o in new_to_old.items()}
        stats.oracle_calls += 1
        z_mask, a_mask = _useful_w_balanced(
            H,
            mask_of(old_to_new[v] for v in W),
            mask_of(old_to_new[v] for v in wpad),
            a,
        )
        A = frozenset(new_to_old[v] for v in mask_vertices(a_mask))
        sep_z = frozenset(new_to_old[v] for v in mask_vertices(z_mask))
        B = (X - A) | sep_z
        bag = W | sep_z
        claims.check("bag_4a", len(bag) <= 4 * a, f"bag {len(bag)}")
        parents.append(node)
        bags.append(bag)
        here = len(parents) - 1
        extend(A, Y | sep_z, here)
        extend(B, Y | A, here)

    if G.n > 0:
        limit = max(sys.getrecursionlimit(), 40 * (G.n + 100))
        sys.setrecursionlimit(limit)
        extend(frozenset(range(G.n)), frozenset(), 0)
    td = RootedTreeDecomposition(G.n, tuple(parents), tuple(bags))
    w = width(td)
    if not w < 4 * a:
        raise AssertionError(f"width {w} violates the 4a bound for a={a}")
    return ConstructReport(
        decomposition=td,
        a_used=a,
        width=w,
        bound_num=4 * a,
        bound_den=1,
        certificate_node=0,
        recursion_stats=stats,
        assertion_log=tuple(claims.log),
    )


def find_min_feasible_a(
    G: Graph, W: Iterable[int], oracle_factory=None, debug_assertions: bool = True
) -> ConstructReport:
    """Smallest a for which construct succeeds, by increasing scan."""
    W = _check_vertices(G, W)
    if G.n == 0:
        raise InvalidInputError("graph has no vertices")
    if not W:
        raise InvalidInputError("W must be non-empty")
    if oracle_factory is None:
        oracle_factory = make_oracle
    start = max(1, -(-(139 * len(W)) // 3888))
    for a in range(start, G.n + 1):
        try:
            return construct(
                G, a, W, oracle=oracle_factory(a), debug_assertions=debug_assertions
            )
        except (OracleFailureError, RecursionGuardError):
            continue
    raise InvalidInputError("no feasible a found up to n")  # pragma: no cover
