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

from collections.abc import Callable
from fractions import Fraction
from typing import Iterable, Optional

from .decomposition import (
    RootedTreeDecomposition,
    _bag_sets,
    _split,
    _validate,
    width,
)
from .errors import (
    InvalidInputError,
    PostconditionFailedError,
    RecursionGuardError,
    SizeLimitExceededError,
    WBalancedUnavailableError,
)
from .graph import (
    Graph,
    Record,
    _check_vertices,
    _induced,
    _lift,
    _stz_sides,
    mask_of,
    mask_vertices,
)
from .kernels import _sum_in_window, separators
from .separations import EXACT_LIMIT_SEPARATION, Oracle, make_oracle
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


class RecursionStats:
    __slots__ = ("construct_calls", "base_cases", "oracle_calls", "separation_tree_nodes",
                 "max_depth", "claims")

    def __init__(self):
        self.construct_calls = self.base_cases = self.oracle_calls = 0
        self.separation_tree_nodes = self.max_depth = 0
        self.claims: dict[str, int] = {}  # claim -> times checked

    def check(self, where: str, claim: str, ok: bool, context: Callable[[], str]) -> None:
        """Count one check of `claim`, raising if it failed; `context` builds
        the message, and is called only then."""
        self.claims[claim] = self.claims.get(claim, 0) + 1
        if not ok:
            raise PostconditionFailedError(f"{where}: claim {claim} violated: {context()}")


class ConstructReport(Record):
    # the checked bound b = bound_num / bound_den: construct's bags each have
    # fewer than b = 7915a/139 vertices (139*(width+1) < 7915*a), and
    # construct_theorem2's width is below b = 4a
    __slots__ = _fields = (
        "decomposition", "a_used", "width", "bound_num", "bound_den", "certificate_node",
        "recursion_stats",
    )


def construct(
    G: Graph,
    a: int,
    W: Iterable[int],
    oracle: Optional[Oracle] = None,
) -> ConstructReport:
    """Decomposition whose bags each have fewer than (7915/139)*a
    vertices, that is 139*(width+1) < 7915*a, with W inside the root bag.

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
    parents, bags = _construct(G, a, mask_of(W), oracle, stats)
    c = CONSTANTS.c
    report = _checked_report("construct", G, parents, bags, a, stats, CONSTANTS.width_bound_ok,
                             "(7915/139)*a", c.numerator * a, c.denominator)
    if not W <= report.decomposition.bags[0]:
        raise PostconditionFailedError("construct: W is not inside the root bag")
    return report


def _checked_report(where: str, G: Graph, parents: list[int], bags: list[int], a: int,
                    stats: RecursionStats, bound_ok, bound_name: str, bound_num: int,
                    bound_den: int) -> ConstructReport:
    """The report on the decomposition of these parents and bag masks, once
    it validates and its width w passes bound_ok(w, a); otherwise raises."""
    td = RootedTreeDecomposition(G.n, tuple(parents), _bag_sets(bags))
    ok, violations = _validate(G, td, 0, bags)
    if not ok:
        raise PostconditionFailedError(
            f"{where}: invalid decomposition: {'; '.join(violations[:3])}"
        )
    w = width(td)
    if not bound_ok(w, a):
        raise PostconditionFailedError(
            f"{where}: width {w} violates the {bound_name} bound for a={a}"
        )
    return ConstructReport(
        decomposition=td, a_used=a, width=w, bound_num=bound_num, bound_den=bound_den,
        certificate_node=0, recursion_stats=stats,
    )


def _construct(G: Graph, a: int, W: int, oracle: Oracle,
               stats: RecursionStats) -> tuple[list[int], list[int]]:
    """The recursion of ``construct``, run on an explicit stack of work items.

    A frame ``(region, W, p, parent_n, depth)`` decomposes G[region], with W
    marked, below node p; G[region] is induced only when the frame recurses.
    A cell ``(vset, bnd, p, d, pbag, frame)`` is one node of T_Y below node
    p, whose bag is pbag: the depth-d node of G[W_top]'s separation tree
    with vertex set vset and boundary bnd, expanded by ``_split`` and
    restricted along (X, Y); ``frame`` is the shared (X ∩ W_top ∪ W, Y,
    W ∪ Z, |W_top|, n, depth).  A leaf cell becomes the frame of G[vset ∩ Y].
    Items pop in the recursion's order: T_Y in preorder, A child first, as
    ``separation_tree`` builds it, each leaf's subproblem in place of the
    leaf, then the X side; so each node is appended once, after its parent.
    All sets are bitmasks of G.  Nothing here checks the bags it returns
    with the parents; ``construct`` validates the whole output once.
    """
    parents: list[int] = []
    bags: list[int] = []
    stack: list[tuple] = [(G.full_mask(), W, -1, G.n + 1, 0)]
    while stack:
        item = stack.pop()
        if len(item) == 6:
            vset, bnd, p, d, pbag, frame = item
            x_side, Y, wz, top_n, n, depth = frame
            stats.separation_tree_nodes += 1
            inner = vset & ~bnd
            lhs = (inner & wz).bit_count()
            stats.check("construct", "cell_bound", CONSTANTS.cell_bound_ok(lhs, d, a),
                        lambda: f"depth {d}: {lhs} vs (13/6)*t*a*(2/3)^d + 3*d*a, a={a}")
            split = _split(G, vset, bnd, top_n, a, CONSTANTS.h, oracle)
            if split is None:
                if not d:
                    raise PostconditionFailedError("construct: the T_Y root is a leaf")
                region = vset & Y
                leaf_bnd = region & pbag
                size = leaf_bnd.bit_count()
                stats.check("construct", "leaf_interface", CONSTANTS.w_small_enough(size, a),
                            lambda: f"leaf boundary {size} vs t*a, a={a}")
                if region:
                    stack.append((region, leaf_bnd or region & -region, p, n, depth + 1))
                else:
                    parents.append(p)
                    bags.append(region)
                continue
            stats.oracle_calls += 1
            bag, A, B = split
            rbag = (bag | vset & x_side) & Y
            if not (d or wz & ~rbag == 0):
                raise PostconditionFailedError("construct: the T_Y root bag misses W ∪ Z")
            _check_t_y_bag(stats, rbag, a)
            parents.append(p)
            bags.append(rbag)
            stack.append((B, bag, len(bags) - 1, d + 1, rbag, frame))
            stack.append((A, bag, len(bags) - 1, d + 1, rbag, frame))
            continue
        region, W, p, parent_n, depth = item
        n = region.bit_count()
        if n >= parent_n:
            raise RecursionGuardError(f"subproblem size {n} did not decrease below {parent_n}")
        stats.construct_calls += 1
        stats.max_depth = max(stats.max_depth, depth)
        if CONSTANTS.base_case(n, a):
            stats.base_cases += 1
            parents.append(p)
            bags.append(region)
            continue

        H, to_g = _induced(G, region)
        # W's ids in H: each vertex's rank in the region
        w_h = mask_of((region & ((1 << g) - 1)).bit_count() for g in mask_vertices(W))
        w_ell, w_top, Z, ell_is_zero = _sequence_tail(H, w_h)
        sides = _stz_sides(H, H.full_mask() & ~w_ell, Z, w_h)
        stats.check("construct", "z_separates", sides is not None,
                    lambda: "a path from V - W_l to W misses Z")
        X, Y, Z, w_top = (_lift(m, to_g) for m in (*sides, Z, w_top))
        w_size, z_size, order = W.bit_count(), Z.bit_count(), (X & Y).bit_count()
        stats.check("construct", "z_lt_w", z_size < w_size, lambda: f"|Z|={z_size} |W|={w_size}")
        stats.check("construct", "xy_order", order == z_size, lambda: f"order={order}")
        stats.check("construct", "y_in_wtop", Y & ~w_top == 0,
                    lambda: f"|Y\\W_top|={(Y & ~w_top).bit_count()}")

        # the X side hangs below the T_Y root, which is appended next
        if X & ~Y:
            stack.append((X, Z or X & -X, len(parents), n, depth + 1))
        if ell_is_zero:
            _check_t_y_bag(stats, W | Z, a)
            parents.append(p)
            bags.append(W | Z)
        else:
            frame = ((X & w_top) | W, Y, W | Z, w_top.bit_count(), n, depth)
            stack.append((w_top, 0, p, 0, None, frame))
    return parents, bags


def _check_t_y_bag(stats: RecursionStats, bag: int, a: int) -> None:
    size = bag.bit_count()
    stats.check("construct", "treewidth_bound", CONSTANTS.width_bound_ok(size - 1, a),
                lambda: f"T_Y bag of {size} vertices vs a={a}")


# ---------------------------------------------------------------------------
# Width < 4a by iterating W-balanced separations of the remainder.
# ---------------------------------------------------------------------------


def _useful_w_balanced(G: Graph, x_mask: int, w_mask: int, wpad_mask: int, a: int):
    """Min-order separation of G[X] balancing the padded set, moving the
    iteration forward; X, W, wpad and the result are masks of G.

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
    hi = (2 * wpad_mask.bit_count()) // 3
    saw_degenerate = False
    verts = mask_vertices(x_mask)
    for _, z_mask, comps in separators(G.adj_masks, verts, x_mask, range(min(a, len(verts)) + 1)):
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
    bags: list[int] = [0]
    # (X, Y, node) as masks: extend the decomposition below `node` by one of G[X]
    stack = [(G.full_mask(), 0, 0)] if G.n else []
    while stack:
        X, Y, node = stack.pop()
        stats.construct_calls += 1
        W = X & Y
        order = W.bit_count()
        stats.check("construct_theorem2", "order_3a", order <= 3 * a, lambda: f"|X∩Y|={order}")
        rem = X & ~Y
        if not rem:
            continue
        if X.bit_count() <= 4 * a:
            parents.append(node)
            bags.append(X)
            continue
        # pad W to exactly 3a with the smallest uncovered vertices; balancing
        # the padded set is what forces both child states to shrink
        wpad = W | mask_of(mask_vertices(rem)[: 3 * a - order])
        stats.oracle_calls += 1
        Z, A = _useful_w_balanced(G, X, W, wpad, a)
        size = (W | Z).bit_count()
        stats.check("construct_theorem2", "bag_4a", size <= 4 * a, lambda: f"bag {size}")
        parents.append(node)
        bags.append(W | Z)
        here = len(parents) - 1
        stack.append(((X & ~A) | Z, Y | A, here))
        stack.append((A, Y | Z, here))
    return _checked_report(
        "construct_theorem2", G, parents, bags, a, stats, lambda w, a: w < 4 * a, "4a", 4 * a, 1
    )

