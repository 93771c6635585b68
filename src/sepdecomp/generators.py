"""Deterministic graph generators for tests, suites, and the CLI."""

from __future__ import annotations

import heapq
import random
from typing import Optional

from .errors import InvalidInputError
from .graph import Graph, _check_order, build_graph


def path_graph(n: int) -> Graph:
    _check_order("path_graph", "n", n, 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_order("cycle_graph", "n", n, 3)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check_order("complete_graph", "n", n, 1)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    _check_order("grid_graph", "rows", rows, 1)
    _check_order("grid_graph", "cols", cols, 1)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence."""
    _check_order("random_tree", "n", n, 1)
    if n == 1:
        return build_graph(1, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return build_graph(n, edges)


def gnp_graph(n: int, p: float, seed: int = 0) -> Graph:
    _check_order("gnp_graph", "n", n, 1)
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def partial_ktree(n: int, k: int, keep: float = 0.8, seed: int = 0) -> Graph:
    """Random partial k-tree: treewidth <= k, so every subgraph has a
    balanced separation of order <= k+1.

    A k-tree grows from a (k+1)-clique by joining each new vertex to a
    uniformly chosen k-clique; each edge is then kept with probability
    `keep`.  Vertices keep their insertion order as ids, so eliminating
    them from the highest id down meets each vertex with at most its k
    attachment vertices still present.
    """
    _check_order("partial_ktree", "k", k, 0)
    _check_order("partial_ktree", "n", n, k + 1)
    if not 0.0 <= keep <= 1.0:
        raise InvalidInputError("keep must be in [0, 1]")
    rng = random.Random(seed)
    edges = {(u, v) for v in range(k + 1) for u in range(v)}
    cliques = [tuple(c for c in range(k + 1) if c != x) for x in range(k + 1)]
    for v in range(k + 1, n):
        clique = cliques[rng.randrange(len(cliques))]
        edges.update((u, v) for u in clique)
        cliques.extend(tuple(c for c in clique if c != x) + (v,) for x in clique)
    return build_graph(n, [e for e in sorted(edges) if rng.random() < keep])


# kind -> (function, {param: type}), the function's keyword arguments; those
# in OPTIONAL may be left out, and a grid's cols defaults to its rows
KINDS = {
    "path": (path_graph, {"n": int}),
    "cycle": (cycle_graph, {"n": int}),
    "tree": (random_tree, {"n": int, "seed": int}),
    "grid": (grid_graph, {"rows": int, "cols": int}),
    "complete": (complete_graph, {"n": int}),
    "gnp": (gnp_graph, {"n": int, "p": float, "seed": int}),
    "ktree": (partial_ktree, {"n": int, "k": int, "keep": float, "seed": int}),
}
OPTIONAL = frozenset({"seed", "keep"})


def checked_params(kind: str, params: dict, seed: Optional[int] = None) -> dict:
    """`params` as keyword arguments of `kind`'s function; each value is a
    number or its decimal text.  For the seeded kinds `seed` is used only
    when params has no "seed": params["seed"] wins.  InvalidInputError names
    the kind and the key of an unknown kind, a missing or unknown param, or
    a value of the wrong type."""
    if kind not in KINDS:
        raise InvalidInputError(f"unknown generator kind {kind!r} (known: {list(KINDS)})")
    types = KINDS[kind][1]
    params = dict(params)
    if seed is not None and "seed" in types:
        params.setdefault("seed", seed)
    if "rows" in params:
        params.setdefault("cols", params["rows"])
    for key in params:
        if key not in types:
            raise InvalidInputError(f"{kind}: unknown param {key!r} (allowed: {list(types)})")
    for key in types:
        if key not in params and key not in OPTIONAL:
            raise InvalidInputError(f"{kind}: missing param {key!r}")
    return {key: _number(kind, key, value, types[key]) for key, value in params.items()}


def _number(kind: str, key: str, value, typ: type):
    if isinstance(value, str) or type(value) is typ or (typ is float and type(value) is int):
        try:
            return typ(value)
        except ValueError:
            pass
    what = "an integer" if typ is int else "a number"
    raise InvalidInputError(f"{kind}: param {key!r} must be {what}, got {value!r}")


def generate(kind: str, params: dict, seed: Optional[int] = None) -> Graph:
    """Dispatch by family name, with the params of ``checked_params``."""
    args = checked_params(kind, params, seed)
    return KINDS[kind][0](**args)
