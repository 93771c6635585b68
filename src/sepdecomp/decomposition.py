"""Rooted tree decompositions and the balanced-separation recursion tree."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidInputError,
    InvalidSeparationError,
    OracleFailureError,
    VertexOutOfRangeError,
)
from .graph import Graph, Separation, VertexSet, induced_subgraph, is_balanced


@dataclass(frozen=True)
class RootedTreeDecomposition:
    """Bags indexed by a rooted tree; parents[x] is -1 exactly at the root."""

    host_n: int
    parents: tuple[int, ...]
    bags: tuple[VertexSet, ...]

    def __post_init__(self):
        roots = [i for i, p in enumerate(self.parents) if p == -1]
        if len(self.parents) != len(self.bags):
            raise InvalidInputError("parents and bags length mismatch")
        if len(roots) != 1:
            raise InvalidInputError(f"need exactly one root, found {len(roots)}")

    @property
    def size(self) -> int:
        return len(self.bags)

    @property
    def root(self) -> int:
        return self.parents.index(-1)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.parents]
        for x, p in enumerate(self.parents):
            if p != -1:
                out[p].append(x)
        return out

    def depths(self) -> list[int]:
        depth = [-1] * self.size
        depth[self.root] = 0
        order = self.preorder()
        for x in order:
            if x != self.root:
                depth[x] = depth[self.parents[x]] + 1
        return depth

    def preorder(self) -> list[int]:
        children = self.children()
        order = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(reversed(children[x]))
        return order

    def subtree_unions(self) -> list[VertexSet]:
        children = self.children()
        out: list[VertexSet] = [frozenset()] * self.size
        for x in reversed(self.preorder()):
            u = self.bags[x]
            for c in children[x]:
                u |= out[c]
            out[x] = u
        return out

    def boundaries(self) -> list[VertexSet]:
        return [
            self.bags[x] & self.bags[p] if p != -1 else frozenset()
            for x, p in enumerate(self.parents)
        ]

    def interiors(self) -> list[VertexSet]:
        unions = self.subtree_unions()
        bnd = self.boundaries()
        return [unions[x] - bnd[x] for x in range(self.size)]

    def leaves(self) -> list[int]:
        children = self.children()
        return [x for x in range(self.size) if not children[x]]


def width(td: RootedTreeDecomposition) -> int:
    return max(len(b) for b in td.bags) - 1


def validate_decomposition(G: Graph, td: RootedTreeDecomposition) -> tuple[bool, list[str]]:
    """Check tree well-formedness and both tree-decomposition properties."""
    violations: list[str] = []
    n_nodes = td.size
    # well-formed tree: valid parents, no cycles, all nodes reach the root
    depth = [-2] * n_nodes
    for x in range(n_nodes):
        chain = []
        y = x
        while depth[y] == -2:
            chain.append(y)
            p = td.parents[y]
            if p == -1:
                depth[y] = 0
                break
            if not (0 <= p < n_nodes):
                violations.append(f"node {y}: parent {p} out of range")
                return False, violations
            if p in chain:
                violations.append(f"cycle through node {p}")
                return False, violations
            y = p
        for y in reversed(chain):
            if depth[y] == -2:
                depth[y] = depth[td.parents[y]] + 1
    # one pass over the bags: holders[v] lists the nodes holding v, ascending
    holders: list[list[int]] = [[] for _ in range(G.n)]
    for x, b in enumerate(td.bags):
        for v in b:
            if 0 <= v < G.n:
                holders[v].append(x)
            else:
                violations.append(f"bag vertex {v} out of range")
    # (i) every edge inside some bag: scan the shorter holder list
    for u, v in G.edges():
        nodes, other = (holders[u], v) if len(holders[u]) <= len(holders[v]) else (holders[v], u)
        if not any(other in td.bags[x] for x in nodes):
            violations.append(f"edge ({u},{v}) uncovered")
    # (ii) the nodes holding each vertex induce a non-empty subtree
    for v, hs in enumerate(holders):
        if not hs:
            violations.append(f"vertex {v} in no bag")
            continue
        holder_set = set(hs)
        internal_edges = sum(
            1 for x in hs
            if td.parents[x] != -1 and td.parents[x] in holder_set
        )
        if internal_edges != len(hs) - 1:
            violations.append(f"vertex {v} bags not connected")
    return not violations, violations


def restrict_decomposition(
    G: Graph, td_prime: RootedTreeDecomposition, sep: Separation
) -> RootedTreeDecomposition:
    """Restrict a decomposition of G to G[Y] along a separation (X, Y).

    New bag rule: (old bag ∩ Y) plus (old interior ∩ X ∩ Y).  The tree shape
    is preserved and the root bag picks up all of X ∩ Y.
    """
    from .graph import is_separation

    ok, _ = validate_decomposition(G, td_prime)
    if not ok:
        raise InvalidInputError("td_prime does not decompose G")
    if not is_separation(G, sep):
        raise InvalidInputError("(X, Y) is not a separation of G")
    X, Y = sep.a_side, sep.b_side
    interiors = td_prime.interiors()
    bags = tuple(
        (td_prime.bags[x] & Y) | (interiors[x] & X & Y)
        for x in range(td_prime.size)
    )
    return RootedTreeDecomposition(G.n, td_prime.parents, bags)


def separation_tree(
    G: Graph, a: int, h: int, oracle=None
) -> RootedTreeDecomposition:
    """Height-<= h decomposition from repeated balanced separations.

    Recursion state is a (subgraph, boundary) pair; a node becomes a leaf
    with bag V(G') once the non-boundary part fits under n*(2/3)^h, compared
    in exact integers.  Interior/boundary sizes then satisfy
    |interior| <= n*(2/3)^depth and |boundary| <= depth*a at every node.

    Each inner node is one oracle call.  A miss raises OracleFailureError
    with the oracle's ``certified`` flag; an answer that is not a balanced
    separation of order <= a of the graph handed over raises an uncertified
    one.  Either way the witness is that graph's vertex set, in G's ids.
    """
    if h < 0:
        raise InvalidInputError("h must be >= 0")
    if oracle is None:
        from .separations import make_oracle

        oracle = make_oracle(a)
    n = G.n
    pow3, pow2 = 3 ** h, 2 ** h
    parents: list[int] = []
    bags: list[VertexSet] = []

    # (vertex set, boundary, parent node); the A child is popped first
    stack = [(frozenset(range(n)), frozenset(), -1)]
    while stack:
        vset, bnd, parent = stack.pop()
        idx = len(parents)
        parents.append(parent)
        inner = vset - bnd
        if pow3 * len(inner) <= n * pow2:
            bags.append(vset)
            continue
        H, new_to_old = induced_subgraph(G, inner)
        outcome = oracle(H)
        sep = outcome.separation
        if sep is None:
            raise OracleFailureError(inner, outcome.certified)
        try:
            ok = sep.order <= a and is_balanced(H, sep)
        except (InvalidSeparationError, VertexOutOfRangeError):
            ok = False  # not a separation of H
        if not ok:
            raise OracleFailureError(inner, certified=False)
        A = frozenset(new_to_old[v] for v in sep.a_side)
        B = frozenset(new_to_old[v] for v in sep.b_side)
        bag = bnd | (A & B)
        bags.append(bag)
        # the boundary rides along into both children so that its edges into
        # the interior stay covered; each child's boundary is this node's bag
        stack.append((B | bnd, bag, idx))
        stack.append((A | bnd, bag, idx))
    return RootedTreeDecomposition(n, tuple(parents), tuple(bags))
