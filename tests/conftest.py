"""Helpers shared by several test modules."""

import heapq

from sepdecomp.graph import Separation, components_in, induced_subgraph, is_separation, mask_vertices


def elimination_width(G, order) -> int:
    """Largest later-neighbourhood met while eliminating in `order` with
    fill-in."""
    adj = [set(G.neighbors(v)) for v in range(G.n)]
    alive = set(range(G.n))
    worst = -1
    for v in order:
        alive.discard(v)
        nb = adj[v] & alive
        worst = max(worst, len(nb))
        for u in nb:
            adj[u] |= nb - {u}
    return worst


def heap_eliminate(adj_masks, order=None):
    """Reference for ``kernels.eliminate``: fill-in elimination in `order`,
    or by minimum degree from a heap of (degree, vertex) entries that skips
    the stale ones, with each forest parent the earliest-eliminated later
    neighbour."""
    n = len(adj_masks)
    adj = list(adj_masks)
    # (degree, v) entries, or (step, v) when the order is given
    heap = [(m.bit_count(), v) for v, m in enumerate(adj)] if order is None else [*enumerate(order)]
    heapq.heapify(heap)
    pos = [-1] * n  # elimination step of each vertex
    done = []
    later = [0] * n
    while heap:
        d, v = heapq.heappop(heap)
        if pos[v] >= 0 or order is None and d != adj[v].bit_count():
            continue  # stale entry
        pos[v] = len(done)
        done.append(v)
        nb = later[v] = adj[v]
        for u in mask_vertices(nb):
            adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
            if order is None:
                heapq.heappush(heap, (adj[u].bit_count(), u))
    parent = [min(mask_vertices(m), key=pos.__getitem__) if m else -1 for m in later]
    return done, later, parent


def random_separation(G, rng):
    """A uniform-ish separation: random separator, components dealt to sides."""
    k = rng.randint(0, max(0, G.n - 1))
    zset = frozenset(rng.sample(range(G.n), k))
    H, new_to_old = induced_subgraph(G, set(range(G.n)) - zset)
    A, B = set(zset), set(zset)
    for c in components_in(H.adj_masks, H.full_mask()):
        (A if rng.random() < 0.5 else B).update(new_to_old[v] for v in mask_vertices(c))
    sep = Separation(frozenset(A), frozenset(B))
    assert is_separation(G, sep)
    return sep


def subtree_unions(t):
    """Each node's union of the bags in its subtree."""
    children = t.children()
    out = [frozenset()] * t.size
    for x in reversed(t.preorder()):
        out[x] = t.bags[x].union(*(out[c] for c in children[x]))
    return out


def boundaries(t):
    """Each node's bag ∩ its parent's bag, empty at the root."""
    return [t.bags[x] & t.bags[p] if p != -1 else frozenset() for x, p in enumerate(t.parents)]


def interiors(t):
    """Each node's subtree union minus its boundary."""
    return [u - b for u, b in zip(subtree_unions(t), boundaries(t))]
