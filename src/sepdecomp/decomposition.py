"""Rooted tree decompositions and the balanced-separation recursion tree."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidInputError,
    InvalidSeparationError,
    OracleFailureError,
    VertexOutOfRangeError,
)
from .graph import (
    Graph,
    Separation,
    VertexSet,
    induced_subgraph,
    is_balanced,
    is_separation,
    mask_of,
    mask_vertices,
)
from .separations import make_oracle


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


def width(td: RootedTreeDecomposition) -> int:
    return max(len(b) for b in td.bags) - 1


def validate_decomposition(G: Graph, td: RootedTreeDecomposition) -> tuple[bool, list[str]]:
    """Check tree well-formedness and both tree-decomposition properties,
    on one vertex bitmask per bag."""
    violations: list[str] = []
    n_nodes = td.size
    # well-formed tree: valid parents, no cycles, all nodes reach the root
    # walk[y]: the first node x whose parent chain passed y; every walk that
    # returns here reached the root, so only the current one can meet itself
    walk = [-1] * n_nodes
    for x in range(n_nodes):
        y = x
        while walk[y] == -1:
            walk[y] = x
            p = td.parents[y]
            if p == -1:
                break
            if not (0 <= p < n_nodes):
                violations.append(f"node {y}: parent {p} out of range")
                return False, violations
            if walk[p] == x:
                violations.append(f"cycle through node {p}")
                return False, violations
            y = p
    # one bitmask per bag; an out-of-range vertex is reported and left out
    n, kept = G.n, td.bags
    used = frozenset().union(*kept)
    if used and not (min(used) >= 0 and max(used) < n):
        violations.extend(f"bag vertex {v} out of range" for b in kept for v in b if not 0 <= v < n)
        kept = [[v for v in b if 0 <= v < n] for b in kept]
    masks = [mask_of(b) for b in kept]
    # cover[v]: the union of the bags holding v; held[v]: how many bags hold
    # v; linked[v]: how many tree edges have v in the bags at both ends
    cover, held, linked = [0] * n, [0] * n, [0] * n
    for b, m, p in zip(kept, masks, td.parents):
        pm = masks[p] if p != -1 else 0
        for v in b:
            cover[v] |= m
            held[v] += 1
            linked[v] += pm >> v & 1
    # (i) every edge inside some bag
    for u, (nbrs, cov) in enumerate(zip(G.adj_masks, cover)):
        missing = nbrs & ~cov & -2 << u  # the neighbours v > u outside cover[u]
        if missing:
            violations.extend(f"edge ({u},{v}) uncovered" for v in mask_vertices(missing))
    # (ii) the bags holding each vertex induce a non-empty subtree: a forest
    # on held[v] nodes with linked[v] edges is a tree iff it has one edge less
    for v in range(n):
        if not held[v]:
            violations.append(f"vertex {v} in no bag")
        elif linked[v] != held[v] - 1:
            violations.append(f"vertex {v} bags not connected")
    return not violations, violations


def restrict_decomposition(
    G: Graph, td_prime: RootedTreeDecomposition, sep: Separation
) -> RootedTreeDecomposition:
    """Restrict a decomposition of G to G[Y] along a separation (X, Y).

    New bag rule: (old bag ∩ Y) plus (old interior ∩ X ∩ Y).  The tree shape
    is preserved and the root bag picks up all of X ∩ Y.
    """
    ok, _ = validate_decomposition(G, td_prime)
    if not ok:
        raise InvalidInputError("td_prime does not decompose G")
    if not is_separation(G, sep):
        raise InvalidInputError("(X, Y) is not a separation of G")
    X, Y = sep.a_side, sep.b_side
    bags = tuple((b & Y) | (i & X & Y) for b, i in zip(td_prime.bags, td_prime.interiors()))
    return RootedTreeDecomposition(G.n, td_prime.parents, bags)


def separation_tree(
    G: Graph, a: int, h: int, oracle=None
) -> RootedTreeDecomposition:
    """Height-<= h decomposition from repeated balanced separations, built
    in preorder, A child first, by ``_split``: a node is a leaf, with its
    vertex set as bag, once its interior fits under n*(2/3)^h (in exact
    integers), so |interior| <= n*(2/3)^depth and |boundary| <= depth*a at
    every node.  Each inner node is one oracle call; a miss, or an answer
    that is not a balanced separation of order <= a, raises
    OracleFailureError.
    """
    if a < 0 or h < 0:
        raise InvalidInputError(f"a and h must be >= 0, got a={a}, h={h}")
    if oracle is None:
        oracle = make_oracle(a)
    parents: list[int] = []
    bags: list[VertexSet] = []
    stack = [(frozenset(range(G.n)), frozenset(), -1)]  # (vertex set, boundary, parent)
    while stack:
        vset, bnd, parent = stack.pop()
        parents.append(parent)
        split = _split(G, vset, bnd, G.n, a, h, oracle)
        if split is None:
            bags.append(vset)
            continue
        bag, A, B = split
        bags.append(bag)
        stack.append((B, bag, len(bags) - 1))
        stack.append((A, bag, len(bags) - 1))
    return RootedTreeDecomposition(G.n, tuple(parents), tuple(bags))


def _split(G: Graph, vset: VertexSet, bnd: VertexSet, n: int, a: int, h: int, oracle):
    """One node of the separation tree of an n-vertex region of G, in G's
    ids: None for a leaf, else (bag, A ∪ bnd, B ∪ bnd), its bag and its
    children's vertex sets, whose boundary is the bag.  The oracle is handed
    G[vset - bnd].  A miss raises OracleFailureError with the oracle's
    ``certified`` flag, an answer that is not a balanced separation of order
    <= a of that graph an uncertified one; the witness is vset - bnd.
    """
    inner = vset - bnd
    if 3**h * len(inner) <= n * 2**h:
        return None
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
    A = frozenset(map(new_to_old.__getitem__, sep.a_side))
    B = frozenset(map(new_to_old.__getitem__, sep.b_side))
    # the boundary rides along into both children so that its edges into
    # the interior stay covered
    return bnd | (A & B), A | bnd, B | bnd
