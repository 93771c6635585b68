"""Tree-decomposition constructors driven by balanced separations.

``construct`` is the main recursion: it turns an order-a balanced-separation
oracle into a decomposition of width below (7915/139)*a, threading a marked
vertex set W through the recursion so that some bag always contains it.
``construct_theorem2`` is the classical iteration that gets width below 4a
out of W-balanced separations.  Both check their claims on every run, and
every threshold comparison is an exact integer cross-multiplication; the
constants are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    PostconditionFailedError,
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
from .kernels import _sum_in_window, separators
from .separations import EXACT_LIMIT_SEPARATION, Oracle, make_oracle, stz_separation
from .wsequence import _sequence_tail


class Constants:
    """h, t and c from the width analysis, as exact rationals, with the
    threshold tests built on them; each test is an integer
    cross-multiplication.  t and c are derived from h here, once."""

    __slots__ = ()
    h = 4
    t = 4 * h / (1 - Fraction(13, 6) * Fraction(2, 3) ** h)  # 3888/139
    c = 2 * t + 1  # 7915/139

    def base_case(self, n: int, a: int) -> bool:
        # n < t*a, cross-multiplied
        return self.t.denominator * n < self.t.numerator * a

    def w_small_enough(self, w_size: int, a: int) -> bool:
        # |W| <= t*a
        return self.t.denominator * w_size <= self.t.numerator * a

    def width_bound_ok(self, w: int, a: int) -> bool:
        # every bag strictly below c*a: 139*(width+1) < 7915*a
        return self.c.denominator * (w + 1) < self.c.numerator * a

    def cell_bound_ok(self, count: int, d: int, a: int) -> bool:
        # count <= (13/6)*t*a*(2/3)^d + 3*d*a, times 6 * t.denominator * 3^d
        den, pow3 = self.t.denominator, 3**d
        return 6 * den * pow3 * count <= (13 * self.t.numerator * 2**d + 18 * den * pow3 * d) * a


CONSTANTS = Constants()


@dataclass(slots=True)
class RecursionStats:
    construct_calls: int = 0
    base_cases: int = 0
    oracle_calls: int = 0
    separation_tree_nodes: int = 0
    max_depth: int = 0
    claims: dict[str, int] = field(default_factory=dict)  # claim -> times checked

    def check(self, where: str, claim: str, ok: bool, context: str) -> None:
        """Count one check of `claim`, raising if it failed."""
        self.claims[claim] = self.claims.get(claim, 0) + 1
        if not ok:
            raise PostconditionFailedError(f"{where}: claim {claim} violated: {context}")


@dataclass(frozen=True)
class ConstructReport:
    decomposition: RootedTreeDecomposition
    a_used: int
    width: int
    bound_num: int  # width must stay strictly below bound_num / bound_den
    bound_den: int
    certificate_node: int
    recursion_stats: RecursionStats


def construct(
    G: Graph,
    a: int,
    W: Iterable[int],
    oracle: Optional[Oracle] = None,
) -> ConstructReport:
    """Decomposition of width < (7915/139)*a with W inside the root bag.

    The oracle must produce balanced separations of order <= a for every
    subgraph it is handed; with an exact oracle a failure certifies
    sep(G) > a.  The certificate node is the root, node 0.
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
    td = _construct(G, a, W, oracle, stats)
    w = width(td)
    if not CONSTANTS.width_bound_ok(w, a):
        raise PostconditionFailedError(
            f"construct: width {w} violates the (7915/139)*a bound for a={a}"
        )
    if not W <= td.bags[0]:
        raise PostconditionFailedError("construct: W is not inside the root bag")
    return ConstructReport(
        decomposition=td,
        a_used=a,
        width=w,
        bound_num=CONSTANTS.c.numerator * a,
        bound_den=CONSTANTS.c.denominator,
        certificate_node=0,
        recursion_stats=stats,
    )


def _construct(
    G: Graph,
    a: int,
    W: VertexSet,
    oracle: Oracle,
    stats: RecursionStats,
) -> RootedTreeDecomposition:
    """The recursion of ``construct``, run on an explicit stack of work items.

    A frame ``(H, host, W, ids, p, parent_n, depth)`` decomposes the induced
    subgraph H, whose vertex v is ``host[v]`` in G, below the node ``ids[p]``.
    A bag item ``(bag, ids, y, p)`` is the inner node y of a frame's T_Y,
    with its bag in host ids.  Items are popped in the order the recursion
    visits them: a frame's T_Y in preorder, each leaf's subproblem in place
    of the leaf, then the X side.  So every node is appended once, after its
    parent, and ``ids`` records the node id of each T_Y node as it comes.
    """
    parents: list[int] = []
    bags: list[VertexSet] = []
    stack: list[tuple] = [(G, tuple(range(G.n)), W, [-1], 0, G.n + 1, 0)]
    while stack:
        item = stack.pop()
        if len(item) == 4:
            bag, ids, y, p = item
            ids[y] = len(parents)
            parents.append(ids[p])
            bags.append(bag)
            continue
        H, host, W, up, p, parent_n, depth = item
        if H.n >= parent_n:
            raise RecursionGuardError(
                f"subproblem size {H.n} did not decrease below {parent_n}"
            )
        stats.construct_calls += 1
        stats.max_depth = max(stats.max_depth, depth)
        if CONSTANTS.base_case(H.n, a):
            stats.base_cases += 1
            parents.append(up[p])
            bags.append(frozenset(host))
            continue

        w_ell, w_top, Z, ell_is_zero = _sequence_tail(H, W)
        S = frozenset(range(H.n)) - w_ell
        sep_xy = stz_separation(H, S, Z, W)
        X, Y = sep_xy.a_side, sep_xy.b_side
        stats.check("construct", "z_lt_w", len(Z) < len(W), f"|Z|={len(Z)} |W|={len(W)}")
        stats.check("construct", "xy_order", len(X & Y) == len(Z), f"order={len(X & Y)}")
        stats.check("construct", "y_in_wtop", Y <= w_top, f"|Y\\W_top|={len(Y - w_top)}")

        if ell_is_zero:
            t_y = RootedTreeDecomposition(H.n, (-1,), (W | Z,))
            leaves = frozenset()
        else:
            t_y = _t_y(H, host, a, W, Z, X, Y, w_top, oracle, stats)
            leaves = frozenset(t_y.leaves())
        order = t_y.preorder()
        root = order[0]
        if root in leaves or not (W | Z) <= t_y.bags[root]:
            raise PostconditionFailedError(
                "construct: the T_Y root is a leaf or misses W ∪ Z"
            )
        inner = [len(t_y.bags[y]) for y in order if y not in leaves]
        stats.check(
            "construct",
            "treewidth_bound",
            all(CONSTANTS.width_bound_ok(size - 1, a) for size in inner),
            f"max T_Y bag {max(inner)} vs a={a}",
        )

        ids = [0] * t_y.size
        ids[root] = len(parents)
        parents.append(up[p])
        bags.append(frozenset(host[v] for v in t_y.bags[root]))
        if X - Y:
            w_next = Z if Z else frozenset({min(X)})
            stack.append(_frame(H, host, X, w_next, ids, root, depth))
        boundaries = t_y.boundaries()
        interiors = t_y.interiors()
        items = []
        for y in order[1:]:
            q = t_y.parents[y]
            if y not in leaves:
                items.append((frozenset(host[v] for v in t_y.bags[y]), ids, y, q))
                continue
            bnd = boundaries[y]
            stats.check(
                "construct",
                "leaf_interface",
                CONSTANTS.w_small_enough(len(bnd), a),
                f"leaf boundary {len(bnd)} vs t*a, a={a}",
            )
            region = interiors[y] | bnd
            if region:
                w_leaf = bnd or frozenset({min(region)})
                items.append(_frame(H, host, region, w_leaf, ids, q, depth))
            else:
                items.append((frozenset(), ids, y, q))
        stack.extend(reversed(items))
    return RootedTreeDecomposition(G.n, tuple(parents), tuple(bags))


def _frame(
    H: Graph,
    host: tuple[int, ...],
    region: VertexSet,
    W: VertexSet,
    ids: list[int],
    p: int,
    depth: int,
) -> tuple:
    """The frame for the subproblem H[region] with W (in H's ids) marked,
    below the node ids[p]."""
    sub, sub_to_h = induced_subgraph(H, region)
    h_to_sub = {o: nw for nw, o in sub_to_h.items()}
    sub_host = tuple(host[sub_to_h[v]] for v in range(sub.n))
    return sub, sub_host, frozenset(h_to_sub[v] for v in W), ids, p, H.n, depth + 1


def _t_y(
    G: Graph,
    host: tuple[int, ...],
    a: int,
    W: VertexSet,
    Z: VertexSet,
    X: VertexSet,
    Y: VertexSet,
    w_top: VertexSet,
    oracle: Oracle,
    stats: RecursionStats,
) -> RootedTreeDecomposition:
    """The restricted separation tree of G[Y], in G's ids, whose root bag
    holds W ∪ Z (the ell >= 1 case); its leaves are still to be decomposed.
    An oracle failure is raised with its witness in host ids (G's vertex v
    is host[v])."""
    H, new_to_old = induced_subgraph(G, w_top)
    old_to_new = {o: nw for nw, o in new_to_old.items()}

    try:
        t_prime = separation_tree(H, a, CONSTANTS.h, oracle)
    except OracleFailureError as exc:
        witness = {host[new_to_old[v]] for v in exc.witness}
        raise OracleFailureError(witness, exc.certified) from exc
    stats.separation_tree_nodes += t_prime.size
    # one oracle call per inner node
    stats.oracle_calls += t_prime.size - len(t_prime.leaves())

    wz_local = frozenset(old_to_new[v] for v in (W | Z) if v in old_to_new)
    depths = t_prime.depths()
    for y, intr in enumerate(t_prime.interiors()):
        d = depths[y]
        lhs = len(intr & wz_local)
        stats.check(
            "construct",
            "cell_bound",
            CONSTANTS.cell_bound_ok(lhs, d, a),
            f"depth {d}: {lhs} vs (13/6)*t*a*(2/3)^d + 3*d*a, a={a}",
        )

    a_local = frozenset(
        old_to_new[v] for v in ((X & w_top) | W)
    )
    b_local = frozenset(old_to_new[v] for v in Y)
    t_dbl = restrict_decomposition(H, t_prime, Separation(a_local, b_local))
    return RootedTreeDecomposition(
        G.n, t_dbl.parents, tuple(frozenset(new_to_old[v] for v in b) for b in t_dbl.bags)
    )


# ---------------------------------------------------------------------------
# Width < 4a by iterating W-balanced separations of the remainder.
# ---------------------------------------------------------------------------


def _useful_w_balanced(G: Graph, w_mask: int, wpad_mask: int, a: int):
    """Min-order separation of G balancing the padded set, moving the
    iteration forward.

    Balance is measured against wpad (W padded up to 3a); degeneracy against
    the true W: a candidate is rejected when one full side together with a
    separator inside W would hand a child the parent's own (X, Y) state,
    that is when Z ⊆ W and the grouping takes no component or every one.
    Among the groupings of the first separator that has a useful one, the
    lexicographically smallest A side (by sorted vertex tuple) wins.  The
    walk over the components, by lowest vertex m, finds it: it stops once
    the running weight fits, the grouping is useful and A has no vertex
    above m, as A is then a prefix of every later choice; otherwise it
    takes the component whenever a useful completion still exists with it.
    Returns (z_mask, a_mask) or raises.
    """
    full = G.full_mask()
    hi = (2 * wpad_mask.bit_count()) // 3
    saw_degenerate = False
    for _, z_mask, comps in separators(G.adj_masks, range(G.n), full, range(min(a, G.n) + 1)):
        weights = [(c & wpad_mask).bit_count() for c in comps]
        lo = (wpad_mask & ~z_mask).bit_count() - hi
        guard = (z_mask & ~w_mask) == 0  # may the grouping be degenerate?
        # sums[i][e][f]: the subset sums of comps[i:] over the subsets that
        # are non-empty if e and leave some component out if f
        sums = [[[1, 0], [0, 0]]]
        for wt in reversed(weights):
            nxt = sums[-1]
            sums.append([[nxt[e][0] | nxt[0][f] << wt for f in (0, 1)] for e in (0, 1)])
        sums.reverse()
        if not _sum_in_window(sums[0][guard][guard], lo, hi):
            saw_degenerate |= guard and (lo <= 0 <= hi or lo <= sum(weights) <= hi)
            continue
        a_mask, s, took, skipped = z_mask, 0, False, False
        for i, c in enumerate(comps):
            if lo <= s <= hi and (took or not guard) and a_mask < (c & -c):
                break
            wt = weights[i]
            if _sum_in_window(sums[i + 1][0][guard and not skipped], lo - s - wt, hi - s - wt):
                a_mask |= c
                s += wt
                took = True
            else:
                skipped = True
        return z_mask, a_mask
    if saw_degenerate:
        raise RecursionGuardError(
            "only degenerate W-balanced separations available"
        )
    raise WBalancedUnavailableError(frozenset(mask_vertices(wpad_mask)), a)


def construct_theorem2(G: Graph, a: int) -> ConstructReport:
    """Width < 4a via the W-balanced separation iteration.

    Maintains a separation (X, Y) of order <= 3a and a decomposition of
    G[Y] with X ∩ Y inside a bag; each step peels a separation of G[X] that
    balances X ∩ Y (padded up to 3a, which is what forces termination) off
    into a new leaf bag of size <= 4a.
    """
    if a < 1:
        raise InvalidInputError("a must be >= 1")
    if G.n > EXACT_LIMIT_SEPARATION:
        raise SizeLimitExceededError(
            G.n, EXACT_LIMIT_SEPARATION, "exhaustive separation search"
        )
    stats = RecursionStats()
    parents: list[int] = [-1]
    bags: list[VertexSet] = [frozenset()]
    # (X, Y, node): extend the decomposition below `node` by one of G[X]
    stack = [(frozenset(range(G.n)), frozenset(), 0)] if G.n else []
    while stack:
        X, Y, node = stack.pop()
        stats.construct_calls += 1
        W = X & Y
        stats.check("construct_theorem2", "order_3a", len(W) <= 3 * a, f"|X∩Y|={len(W)}")
        rem = X - Y
        if not rem:
            continue
        if len(X) <= 4 * a:
            stats.check("construct_theorem2", "bag_4a", len(X) <= 4 * a, f"leaf bag {len(X)}")
            parents.append(node)
            bags.append(X)
            continue
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
        stats.check("construct_theorem2", "bag_4a", len(bag) <= 4 * a, f"bag {len(bag)}")
        parents.append(node)
        bags.append(bag)
        here = len(parents) - 1
        stack.append((B, Y | A, here))
        stack.append((A, Y | sep_z, here))
    td = RootedTreeDecomposition(G.n, tuple(parents), tuple(bags))
    w = width(td)
    if not w < 4 * a:
        raise PostconditionFailedError(
            f"construct_theorem2: width {w} violates the 4a bound for a={a}"
        )
    return ConstructReport(
        decomposition=td,
        a_used=a,
        width=w,
        bound_num=4 * a,
        bound_den=1,
        certificate_node=0,
        recursion_stats=stats,
    )

