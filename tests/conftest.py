"""Helpers shared by several test modules."""


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
