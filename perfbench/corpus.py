"""Seeded instance corpora for the three benchmark workloads.

Every instance is feasible by construction: paths and trees have a balanced
separation of order 1 in every subgraph, cycles one of order 2, and a
partial k-tree one of order k+1 (a bag of a width-k decomposition).  A
certified failure on any of them is therefore a wrong answer.

``sepdecomp`` is imported inside the corpus functions, so that the benchmark
can time a fresh import followed by corpus generation as one set-up step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# fraction of the k-tree's edges kept in a partial k-tree
KTREE_KEEP = 0.8
GNP_P = 0.3

# One pass over a corpus takes a few seconds on one core, so that a run
# times every instance about ten times, spread over the run: on a shared
# host, speed drifts by up to ~1.5x in phases of 5-20 s, and only a median
# over samples spread across the whole run stays steady from run to run.
SPARSE_SIZES = (200, 300)
# Partial 2-trees with a=3: n >= 84 > (3888/139)*3 so that construct
# recurses, and C(n, <=3) candidates fit separations.CANDIDATE_BUDGET, so the
# oracle is exact and certifying.
KTREE_EXACT_SIZES = tuple(range(84, 204, 12))
# (k, n) past the budget, so the heuristic oracle runs
KTREE_HEURISTIC = ((3, 120), (3, 140), (3, 160), (2, 280))
CERTIFY_SIZES = (11, 12, 13, 14)
CERTIFY_KINDS = ("gnp", "gnp", "ktree2", "ktree3")


@dataclass(frozen=True)
class Instance:
    kind: str
    graph: object  # sepdecomp.Graph
    a: Optional[int]  # None: the audit uses the exact separation number
    k: Optional[int] = None  # width bound of a partial k-tree


def partial_ktree(n: int, k: int, rng: random.Random):
    """Random partial k-tree as (edges, elimination order of width <= k).

    A k-tree grows from a (k+1)-clique by joining each new vertex to a
    uniformly chosen k-clique; each edge is then kept with probability
    KTREE_KEEP.  Vertices keep their insertion order as ids, so eliminating
    them from the highest id down meets each vertex with at most its k
    attachment vertices still present.  (With ids shuffled at random, the
    time of the exact oracle's lexicographic separator search varies by
    about 1.5x per instance from seed to seed, which no affordable corpus
    size averages out.)
    """
    if n <= k:
        raise ValueError(f"a partial {k}-tree needs n > {k}, got {n}")
    edges = {(u, v) for v in range(k + 1) for u in range(v)}
    cliques = [tuple(c for c in range(k + 1) if c != x) for x in range(k + 1)]
    for v in range(k + 1, n):
        clique = cliques[rng.randrange(len(cliques))]
        edges.update((u, v) for u in clique)
        cliques.extend(
            tuple(c for c in clique if c != x) + (v,) for x in clique
        )
    kept = [e for e in sorted(edges) if rng.random() < KTREE_KEEP]
    return kept, tuple(reversed(range(n)))


def elimination_width(n: int, edges, order) -> int:
    """Width of the elimination order: largest later-neighbourhood met while
    eliminating with fill-in."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    worst = -1
    for v in order:
        alive.discard(v)
        nb = adj[v] & alive
        worst = max(worst, len(nb))
        for u in nb:
            adj[u] |= nb - {u}
    return worst


def _ktree_instance(n: int, k: int, a: Optional[int], rng: random.Random) -> Instance:
    from sepdecomp import build_graph

    edges, order = partial_ktree(n, k, rng)
    if elimination_width(n, edges, order) > k:
        raise RuntimeError(f"partial {k}-tree generator broke its width bound")
    return Instance(f"ktree{k}", build_graph(n, edges), a, k)


def _sparse(rng: random.Random) -> list[Instance]:
    from sepdecomp.generators import cycle_graph, path_graph, random_tree

    out = []
    for n in SPARSE_SIZES:
        out.append(Instance("path", path_graph(n), 1))
        out.append(Instance("cycle", cycle_graph(n), 2))
        out.append(Instance("tree", random_tree(n, rng.randrange(1 << 30)), 1))
    return out


def _ktree(rng: random.Random) -> list[Instance]:
    out = [_ktree_instance(n, 2, 3, rng) for n in KTREE_EXACT_SIZES]
    out += [_ktree_instance(n, k, k + 1, rng) for k, n in KTREE_HEURISTIC]
    return out


def _certify(rng: random.Random) -> list[Instance]:
    from sepdecomp.generators import gnp_graph

    out = []
    for n in CERTIFY_SIZES:
        for kind in CERTIFY_KINDS:
            if kind == "gnp":
                out.append(Instance("gnp", gnp_graph(n, GNP_P, rng.randrange(1 << 30)), None))
            else:
                out.append(_ktree_instance(n, int(kind[-1]), None, rng))
    return out


CORPORA = {"sparse": _sparse, "ktree": _ktree, "certify": _certify}


def build(workload: str, seed: int) -> list[Instance]:
    return CORPORA[workload](random.Random(seed))
