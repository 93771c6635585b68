"""Search kernels over bitmask adjacency.

These are the hot inner loops: minimum balanced / W-balanced separation
search, separation number, and exact treewidth.  They are plain Python and
work for any n, since vertex sets are Python ints used as bitmasks.

Graphs come in as ``(n, adj_masks)`` where ``adj_masks[v]`` is the neighbor
bitmask of vertex v; the (W-)balanced separation searches also take the
sorted neighbour lists the caller holds (``Graph.adjacency``) for their DFS.
``separators`` lists candidate separators of the subgraph induced on a
universe mask by increasing size, with the components each leaves behind;
the separation number (over each subset) and the W-balanced iteration of
``construct_theorem2`` (over each X of the input graph, with no induced
copy) apply their own rules to it.  The (W-)balanced separation search
visits the same candidates in the same order, but gets their pieces from
one low-link DFS per separator prefix instead of one component search per
candidate.  The two split by input size.  On a whole graph the DFS wins:
0.15 ms against 0.61 ms on a 60-vertex path, 0.34 ms against 0.80 ms on a
40-vertex partial 2-tree of separation order 2 (Xeon, CPython 3.11).  On
the subsets of at most 14 vertices that ``separation_number`` walks, its
per-prefix set-up costs more than it saves: moved onto the DFS with
``_useful_w_balanced``, it kept every output but took the benchmark's 32
certify graphs (seeds 0-1) from 0.55 s to 2.2 s (1.6 s with neighbour
lists built once), and ``construct_theorem2`` from 0.033 s to 0.041 s
(medians of 5).
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Iterable, Iterator, Sequence

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
    if not _sum_window_reachable(weights, lo, hi):
        return None
    a_mask = z_mask
    cur = 0
    for i, comp in enumerate(comps):
        if lo <= cur <= hi:
            return a_mask
        rest = weights[i + 1 :]
        if _sum_window_reachable(rest, lo - cur - weights[i], hi - cur - weights[i]):
            a_mask |= comp
            cur += weights[i]
    if not lo <= cur <= hi:
        raise PostconditionFailedError(
            f"_greedy_a_side: weight {cur} outside [{lo}, {hi}] after the walk"
        )
    return a_mask


def min_w_balanced_separation(n, adj_masks, adjacency, w_mask, max_order):
    """Minimum-order separation balancing the vertices of W.

    Both strict sides may hold at most 2|W|/3 vertices of W.  Returns
    (order, z_mask, a_mask) with the deterministic tie-break (smallest
    order, first separator in ``combinations`` order, then the greedy A
    side of ``_greedy_a_side``), or None if no such separation of order
    <= max_order exists.  The B side is the complement of (a_mask minus
    z_mask).

    A separator Z of size k >= 1 is a prefix Z' of k-1 vertices plus a
    last vertex z > max Z'.  For each prefix, one DFS per component of
    G - Z' records discovery times, low-links and W-weights of subtrees
    (Hopcroft & Tarjan's articulation-point search), so the W-weights of
    the pieces of G - Z' - z come out in O(deg z) for every z: the child
    subtrees c of z with low[c] >= disc[z], the rest of z's component
    unless z is the DFS root, and the other components unchanged.  Whether
    a balanced grouping exists depends only on those weights, so the
    components themselves are only listed for the winning separator.
    """
    hi = (2 * w_mask.bit_count()) // 3
    for k in range(min(max_order, n) + 1):
        if k == 0:
            a_mask = _a_side(adj_masks, w_mask, 0, hi)
            if a_mask is not None:
                return 0, 0, a_mask
            continue
        for prefix in combinations(range(n), k - 1):
            z = _first_feasible_last_vertex(n, adj_masks, adjacency, w_mask, prefix, hi)
            if z is not None:
                z_mask = mask_of(prefix) | 1 << z
                a_mask = _a_side(adj_masks, w_mask, z_mask, hi)
                if a_mask is None:
                    raise PostconditionFailedError(
                        "min_w_balanced_separation: the pieces of the separator "
                        "balance, its components do not"
                    )
                return k, z_mask, a_mask
    return None


def _a_side(adj_masks, w_mask: int, z_mask: int, hi: int):
    """``_greedy_a_side`` over the components of G - Z."""
    comps = components_in(adj_masks, ((1 << len(adj_masks)) - 1) & ~z_mask)
    weights = [(c & w_mask).bit_count() for c in comps]
    return _greedy_a_side(z_mask, comps, weights, (w_mask & ~z_mask).bit_count() - hi, hi)


def _first_feasible_last_vertex(n, adj_masks, adjacency, w_mask, prefix, hi):
    """Smallest z > max(prefix) such that Z = prefix + z leaves pieces
    with a W-balanced grouping, or None."""
    start = prefix[-1] + 1 if prefix else 0
    if start >= n:
        return None
    z_prefix = mask_of(prefix)
    lo_prefix = (w_mask & ~z_prefix).bit_count() - hi
    disc = [-1] * n
    for v in prefix:
        disc[v] = -2  # removed: neither visited nor a back-edge target
    low = [0] * n
    sub_w = [0] * n
    root_of = [-1] * n
    cut_pieces: dict[int, list[int]] = {}  # z -> nonzero W-weights of split-off subtrees
    comps = components_in(adj_masks, ((1 << n) - 1) & ~z_prefix)
    comp_w = [(c & w_mask).bit_count() for c in comps]
    t = 0
    for c in comps:
        if not c >> start:
            continue  # no candidate z in this component
        root = (c & -c).bit_length() - 1
        disc[root] = low[root] = t
        t += 1
        sub_w[root] = w_mask >> root & 1
        root_of[root] = root
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            v, p, it = stack[-1]
            for u in it:
                d = disc[u]
                if d == -1:
                    disc[u] = low[u] = t
                    t += 1
                    sub_w[u] = w_mask >> u & 1
                    root_of[u] = root
                    stack.append((u, v, iter(adjacency[u])))
                    break
                if d >= 0 and u != p and d < low[v]:
                    low[v] = d
            else:
                stack.pop()
                if p >= 0:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    sub_w[p] += sub_w[v]
                    if low[v] >= disc[p] and sub_w[v]:
                        cut_pieces.setdefault(p, []).append(sub_w[v])
    # the other components' nonzero weights, per component (keyed by root)
    others: dict[int, list[int]] = {}
    for z in range(start, n):
        root = root_of[z]
        rest = others.get(root)
        if rest is None:
            rest = others[root] = [
                wt for c, wt in zip(comps, comp_w) if wt and not c >> root & 1
            ]
        wz = w_mask >> z & 1
        pieces = cut_pieces.get(z, [])
        if z != root:
            pieces = pieces + [sub_w[root] - wz - sum(pieces)]
        if _sum_window_reachable(rest + pieces, lo_prefix - wz, hi):
            return z
    return None


def min_balanced_separation(n, adj_masks, adjacency, max_order):
    """Minimum-order balanced separation: the W = V case of
    ``min_w_balanced_separation``, with the same result and tie-break."""
    return min_w_balanced_separation(n, adj_masks, adjacency, (1 << n) - 1, max_order)


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
