"""Deterministic graph generators for tests, suites, and the CLI."""

from __future__ import annotations

import heapq
import random
from typing import Optional

from .errors import InvalidInputError
from .graph import Graph, build_graph


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidInputError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidInputError("complete graph needs n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InvalidInputError("grid needs positive dimensions")
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
    if n < 1:
        raise InvalidInputError("tree needs n >= 1")
    if n == 1:
        return build_graph(1, [])
    if n == 2:
        return build_graph(2, [(0, 1)])
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
    if n < 1:
        raise InvalidInputError("gnp needs n >= 1")
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
    if k < 0 or n <= k:
        raise InvalidInputError(f"a partial k-tree needs 0 <= k < n, got k={k}, n={n}")
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


def generate(kind: str, params: dict, seed: Optional[int] = None) -> Graph:
    """Dispatch by family name.  For the seeded kinds (tree, gnp, ktree)
    `seed` is used only when params has no "seed": params["seed"] wins."""
    params = dict(params)
    if seed is not None and kind in ("tree", "gnp", "ktree"):
        params.setdefault("seed", seed)
    if kind == "path":
        return path_graph(int(params["n"]))
    if kind == "cycle":
        return cycle_graph(int(params["n"]))
    if kind == "complete":
        return complete_graph(int(params["n"]))
    if kind == "grid":
        rows = int(params.get("rows", params.get("k", 0)))
        cols = int(params.get("cols", rows))
        return grid_graph(rows, cols)
    if kind == "tree":
        return random_tree(int(params["n"]), int(params.get("seed", 0)))
    if kind == "gnp":
        return gnp_graph(
            int(params["n"]), float(params["p"]), int(params.get("seed", 0))
        )
    if kind == "ktree":
        return partial_ktree(
            int(params["n"]),
            int(params["k"]),
            float(params.get("keep", 0.8)),
            int(params.get("seed", 0)),
        )
    raise InvalidInputError(f"unknown generator kind {kind!r}")
