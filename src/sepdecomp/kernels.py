"""Search kernels over bitmask adjacency.

These are the hot inner loops: minimum (W-)balanced separation search,
separation number, exact treewidth and fill-in elimination.  They are plain
Python and work for any n, since vertex sets are Python ints used as bitmasks.

Graphs come in as ``(n, adj_masks)`` where ``adj_masks[v]`` is the neighbor
bitmask of vertex v.  ``separators`` lists candidate separators of the
subgraph induced on a universe mask by increasing size, with the components
each leaves behind; the separation number (over each subset) and the
W-balanced iteration of ``construct_theorem2`` (over each X of the input
graph, with no induced copy) apply their own rules to it.  The
(W-)balanced separation search visits the same candidates in the same
order, but gets their pieces from one DFS on masks per separator prefix
instead of one component search per candidate; on the subsets of at most
14 vertices that ``separation_number`` walks, that DFS costs more than it
saves.  ``eliminate``, the one fill-in elimination (in a given order, or by
minimum degree off degree buckets), feeds the witness and the centroid bag.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Iterable, Iterator, Optional, Sequence

from .errors import PostconditionFailedError
from .graph import component_mask, components_in, mask_of, mask_vertices

IMPLEMENTATION = "python"


def separators(
    adj_masks: Sequence[int], verts: Sequence[int], universe: int, sizes: Iterable[int]
) -> Iterator[tuple[int, int, list[int]]]:
    """Candidate separators Z of the graph induced on `universe`.

    Yields ``(|Z|, z_mask, components)`` for every Z drawn from `verts`
    with |Z| in `sizes` (increasing), in ``combinations`` order within a
    size; the components of the graph minus Z are ordered by lowest vertex.
    """
    for k in sizes:
        for zs in combinations(verts, k):
            z_mask = mask_of(zs)
            yield k, z_mask, components_in(adj_masks, universe & ~z_mask)


def _sum_in_window(sums: int, lo: int, hi: int) -> bool:
    """Does the subset-sum bitset `sums` (bit s set: s is a sum) hold a sum
    within [lo, hi]?"""
    lo = max(lo, 0)
    return lo <= hi and (sums >> lo) & ((2 << (hi - lo)) - 1) != 0


def _sum_window_reachable(sizes, lo: int, hi: int) -> bool:
    """Is some subset sum of `sizes` within [lo, hi]?"""
    ach = 1
    for s in sizes:
        ach |= ach << s
    return _sum_in_window(ach, lo, hi)


def _greedy_a_side(z_mask: int, comps, weights, lo: int, hi: int):
    """The A side Z + (chosen components) picked by the greedy rule.

    A grouping is feasible when the chosen components' total weight lands
    in [lo, hi].  Components must be ordered by lowest vertex.  The walk
    stops as soon as the running weight is feasible; otherwise it takes a
    component exactly when a feasible completion still exists with it.
    This is deterministic but not the lexicographically smallest A side:
    on edges {0,4}, {2,3} with isolated 1 it returns {0,4}, not {0,1,4}.
    Returns None if no grouping is feasible.
    """
    # suffix[i]: the subset sums of weights[i:], as a bitset
    suffix = [1]
    for wt in reversed(weights):
        suffix.append(suffix[-1] | suffix[-1] << wt)
    suffix.reverse()
    if not _sum_in_window(suffix[0], lo, hi):
        return None
    a_mask = z_mask
    cur = 0
    for i, comp in enumerate(comps):
        if lo <= cur <= hi:
            return a_mask
        if _sum_in_window(suffix[i + 1], lo - cur - weights[i], hi - cur - weights[i]):
            a_mask |= comp
            cur += weights[i]
    if not lo <= cur <= hi:
        raise PostconditionFailedError(
            f"_greedy_a_side: weight {cur} outside [{lo}, {hi}] after the walk"
        )
    return a_mask


def min_w_balanced_separation(n, adj_masks, w_mask, max_order):
    """Minimum-order separation balancing the vertices of W.

    Both strict sides may hold at most 2|W|/3 vertices of W.  Returns
    (order, z_mask, a_mask) with the deterministic tie-break (smallest
    order, first separator in ``combinations`` order, then the greedy A
    side of ``_greedy_a_side``), or None if no such separation of order
    <= max_order exists.  The B side is the complement of (a_mask minus
    z_mask).

    A separator Z of size k >= 1 is a prefix Z' of k-1 vertices plus a
    last vertex z > max Z'.  For each prefix, one DFS per component of
    G - Z' (Hopcroft & Tarjan's articulation-point search, on subtree
    masks) lists the subtrees each vertex cuts off, so the pieces of
    G - Z' - z, the winner's components included, come out for every z
    without a component search.  The order-0 test and the empty prefix
    share one component search of G.
    """
    hi = (2 * w_mask.bit_count()) // 3
    comps = components_in(adj_masks, (1 << n) - 1)
    if max_order >= 0:
        weights = [(c & w_mask).bit_count() for c in comps]
        a_mask = _greedy_a_side(0, comps, weights, w_mask.bit_count() - hi, hi)
        if a_mask is not None:
            return 0, 0, a_mask
    for k in range(1, min(max_order, n) + 1):
        for prefix in combinations(range(n), k - 1):
            found = _first_feasible_last_vertex(adj_masks, w_mask, prefix, hi, comps)
            if found is not None:
                return k, *found
    return None


def _a_side(adj_masks, w_mask: int, z_mask: int, hi: int):
    """``_greedy_a_side`` over the components of G - Z."""
    comps = components_in(adj_masks, ((1 << len(adj_masks)) - 1) & ~z_mask)
    weights = [(c & w_mask).bit_count() for c in comps]
    return _greedy_a_side(z_mask, comps, weights, (w_mask & ~z_mask).bit_count() - hi, hi)


def _first_feasible_last_vertex(adj_masks, w_mask, prefix, hi, comps):
    """(z_mask, a_mask) for the smallest z > max(prefix) such that
    Z = prefix + z leaves pieces with a W-balanced grouping, or None.

    `comps` are the components of G, used when the prefix is empty.  A
    vertex p cuts its DFS child v's subtree off exactly when no vertex
    outside that subtree and p neighbours it.  The pieces of G - Z are the
    subtrees z cuts off, the rest of z's component, and the other
    components; one heavier than `hi` fits on neither side.
    """
    n = len(adj_masks)
    start = prefix[-1] + 1 if prefix else 0
    if start >= n:
        return None
    z_prefix = mask_of(prefix)
    alive = ((1 << n) - 1) & ~z_prefix
    if prefix:
        comps = components_in(adj_masks, alive)
    comp_w = [(c & w_mask).bit_count() for c in comps]
    heavy = [i for i, wt in enumerate(comp_w) if wt > hi]  # at most one
    lo = (w_mask & alive).bit_count() - hi
    comp_of = [0] * n
    sub = [0] * n  # DFS subtree of each vertex
    reach = [0] * n  # the alive neighbours of the subtree's vertices
    cuts: dict[int, list[int]] = {}  # z -> masks of the subtrees z cuts off
    # the z worth testing: those that cut a subtree off, and those of a
    # component light enough that the rest of it may fit
    cand = 0
    for i, c in enumerate(comps):
        if not c >> start or heavy and heavy != [i]:
            continue  # no z here, or z would leave the heavy component whole
        if comp_w[i] <= hi + 1:
            cand |= c
        v = (c & -c).bit_length() - 1
        left = c ^ 1 << v
        sub[v], reach[v], comp_of[v] = 1 << v, adj_masks[v] & alive, i
        stack = [v]
        while True:
            nxt = adj_masks[v] & left
            if nxt:
                bit = nxt & -nxt
                left ^= bit
                v = bit.bit_length() - 1
                sub[v], reach[v], comp_of[v] = bit, adj_masks[v] & alive, i
                stack.append(v)
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1]
            s, r = sub[v], reach[v]
            sub[p] |= s
            reach[p] |= r
            if not r & ~(s | 1 << p):
                cuts.setdefault(p, []).append(s)
            v = p
    cand |= mask_of(cuts)
    for z in mask_vertices(cand >> start << start):
        i = comp_of[z]
        wz = w_mask >> z & 1
        pieces = [(s & w_mask).bit_count() for s in cuts.get(z, ())]
        pieces.append(comp_w[i] - wz - sum(pieces))  # 0 when z is the DFS root
        if max(pieces) > hi:
            continue
        pieces += comp_w[:i] + comp_w[i + 1 :]
        if _sum_window_reachable(pieces, lo - wz, hi):
            z_mask = z_prefix | 1 << z
            tail = comps[i] & ~z_mask
            for s in cuts.get(z, ()):
                tail &= ~s
            parts = [c for c in (*cuts.get(z, ()), tail, *comps[:i], *comps[i + 1 :]) if c]
            parts.sort(key=lambda c: c & -c)
            weights = [(c & w_mask).bit_count() for c in parts]
            a_mask = _greedy_a_side(z_mask, parts, weights, lo - wz, hi)
            if a_mask is None:
                raise PostconditionFailedError(
                    "min_w_balanced_separation: the pieces of the separator "
                    "balance, its components do not"
                )
            return z_mask, a_mask
    return None


def min_balanced_separation(n, adj_masks, max_order):
    """Minimum-order balanced separation: the W = V case of
    ``min_w_balanced_separation``, with the same result and tie-break."""
    return min_w_balanced_separation(n, adj_masks, (1 << n) - 1, max_order)


def separation_number(n, adj_masks) -> int:
    """max over induced subgraphs of the minimum balanced-separation order."""
    best = 0
    for sub in range(1, 1 << n):
        nn = sub.bit_count()
        if (nn + 2) // 3 <= best:
            # (Z, V) with |Z| = ceil(nn/3) is always balanced
            continue
        hi = (2 * nn) // 3
        # the search ends by |Z| = ceil(nn/3) at the latest
        for k, _, comps in separators(adj_masks, mask_vertices(sub), sub, count(best)):
            if _sum_window_reachable([c.bit_count() for c in comps], nn - k - hi, hi):
                best = k
                break
    return best


def treewidth(n, adj_masks):
    """Exact treewidth via DP over subsets of elimination prefixes.

    Returns (tw, elimination_order).
    """
    if n == 0:
        return -1, ()
    size = 1 << n
    opt = [0] * size
    choice = [0] * size
    opt[0] = -1
    for sub in range(1, size):
        best_cost = n
        best_v = -1
        for v in mask_vertices(sub):
            prev = sub ^ (1 << v)
            reach = component_mask(adj_masks, sub, v)
            nbr = 0
            for u in mask_vertices(reach):
                nbr |= adj_masks[u]
            cost = max(opt[prev], (nbr & ~sub).bit_count())
            if cost < best_cost:
                best_cost = cost
                best_v = v
        opt[sub] = best_cost
        choice[sub] = best_v
    order = [0] * n
    sub = size - 1
    for pos in range(n - 1, -1, -1):
        v = choice[sub]
        order[pos] = v
        sub ^= 1 << v
    return opt[size - 1], tuple(order)


def eliminate(adj_masks: Sequence[int], order: Optional[Sequence[int]] = None):
    """Eliminate every vertex with fill-in: in `order` (a permutation), or, if
    it is None, by minimum degree in the filled graph, lowest id first, read
    off one mask of the vertices left per degree (Bodlaender & Koster 2010).

    Returns (order, later, parent): ``later[v]`` is v's neighbour mask when
    it is eliminated, and ``parent[v]`` the earliest-eliminated vertex of
    ``later[v]``, or -1 when there is none.
    """
    n = len(adj_masks)
    # earlier[u]: the vertices v with u in later[v]
    adj, later, earlier, parent = list(adj_masks), [0] * n, [0] * n, [-1] * n
    degree = [m.bit_count() for m in adj]
    by_degree = [0] * (n + 1)  # the vertices left of each degree
    for v, d in enumerate(degree):
        by_degree[d] |= 1 << v
    low, orphans = 0, 0  # no degree left below low; orphans: gone, no parent yet
    done = [] if order is None else list(order)
    for step in range(n):
        if order is None:
            while not by_degree[low]:
                low += 1
            bit = by_degree[low] & -by_degree[low]
            by_degree[low] ^= bit
            done.append(bit.bit_length() - 1)
        v = done[step]
        # v is the first of later[x] to go for the orphans x that name it
        kids = earlier[v] & orphans
        orphans ^= kids | 1 << v
        for x in mask_vertices(kids):
            parent[x] = v
        nb = later[v] = adj[v]
        for u in mask_vertices(nb):
            earlier[u] |= 1 << v
            m = adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
            if order is None and m.bit_count() != degree[u]:
                by_degree[degree[u]] ^= 1 << u
                d = degree[u] = m.bit_count()
                by_degree[d] |= 1 << u
                low = min(low, d)
    return done, later, parent
