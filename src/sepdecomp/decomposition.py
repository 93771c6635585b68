"""Rooted tree decompositions and the balanced-separation recursion tree."""

from __future__ import annotations

from .errors import InvalidInputError, OracleFailureError
from .graph import (
    Graph,
    Record,
    Separation,
    VertexSet,
    _check_order,
    _induced,
    _lift,
    _sides_balanced,
    _strict_sides,
    is_separation,
    mask_of,
    mask_vertices,
)
from .separations import make_oracle


class RootedTreeDecomposition(Record):
    """Bags indexed by a rooted tree; parents[x] is -1 exactly at the root."""

    __slots__ = _fields = ("host_n", "parents", "bags")

    def __init__(self, host_n: int, parents: tuple[int, ...], bags: tuple[VertexSet, ...]):
        if len(parents) != len(bags):
            raise InvalidInputError("parents and bags length mismatch")
        roots = parents.count(-1)
        if roots != 1:
            raise InvalidInputError(f"need exactly one root, found {roots}")
        super().__init__(host_n, parents, bags)

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


def width(td: RootedTreeDecomposition) -> int:
    return max(len(b) for b in td.bags) - 1


def validate_decomposition(G: Graph, td: RootedTreeDecomposition) -> tuple[bool, list[str]]:
    """Check tree well-formedness and both tree-decomposition properties,
    on the bag sets and the neighbour lists, in time linear in the bag sizes
    and the edges; the violations name 0-based ids."""
    return _validate(G, td, 0)


def _validate(G: Graph, td: RootedTreeDecomposition, base: int) -> tuple[bool, list[str]]:
    """``validate_decomposition``, naming each node and vertex by its id + base."""
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
                violations.append(f"node {y + base}: parent {p + base} out of range")
                return False, violations
            if walk[p] == x:
                violations.append(f"cycle through node {p + base}")
                return False, violations
            y = p
    # v is on top at a node whose parent's bag lacks it; the bags holding v
    # form a subtree iff it is on top exactly once.  top[v]: the first such
    # node's bag (the empty bag after the last: none); more: the others.
    # Every bag vertex is on top somewhere (at the root if nowhere lower),
    # so range-checking the top vertices checks every bag; an out-of-range
    # vertex is reported and left out
    n, bags = G.n, td.bags
    empty: frozenset[int] = frozenset()
    top, more, stray = [empty] * n, {}, False
    for b, p in zip(bags, td.parents):
        for v in (b - bags[p] if p != -1 else b):
            if not 0 <= v < n:
                stray = True
            elif top[v] is empty:
                top[v] = b
            else:
                more.setdefault(v, []).append(b)
    if stray:
        violations.extend(
            f"bag vertex {v + base} out of range" for b in bags for v in b if not 0 <= v < n)
    # (i) every edge inside some bag: two subtrees meet iff one's top node
    # lies in the other, so uv is covered iff a top bag of u holds v or a
    # top bag of v holds u; each edge is tested once, from its lower end
    for u, nbrs in enumerate(G.adjacency):
        tu = top[u]
        for v in nbrs:
            if v > u and v not in tu and u not in top[v] and not (more and (
                    any(v in b for b in more.get(u, ())) or any(u in b for b in more.get(v, ())))):
                violations.append(f"edge ({u + base},{v + base}) uncovered")
    # (ii) the bags holding each vertex induce a non-empty subtree; the
    # vertices are walked only to name a violation
    if more or empty in top:
        for v in range(n):
            if top[v] is empty:
                violations.append(f"vertex {v + base} in no bag")
            elif v in more:
                violations.append(f"vertex {v + base} bags not connected")
    return not violations, violations


def restrict_decomposition(
    G: Graph, td_prime: RootedTreeDecomposition, sep: Separation
) -> RootedTreeDecomposition:
    """Restrict a decomposition of G to G[Y] along a separation (X, Y).

    New bag rule: (old bag ∪ (subtree union ∩ X)) ∩ Y, as ``construct``
    builds each T_Y bag.  It equals (old bag ∩ Y) ∪ (interior ∩ X ∩ Y), the
    interior being the union minus (bag ∩ parent bag), which the bag holds.
    The tree shape is preserved and the root bag picks up all of X ∩ Y.
    """
    ok, _ = validate_decomposition(G, td_prime)
    if not ok:
        raise InvalidInputError("td_prime does not decompose G")
    if not is_separation(G, sep):
        raise InvalidInputError("(X, Y) is not a separation of G")
    xy, y = mask_of(sep.a_side & sep.b_side), mask_of(sep.b_side)
    parents, masks = td_prime.parents, [mask_of(b) for b in td_prime.bags]
    unions = masks[:]  # each node's subtree union, children before parents
    for x in reversed(td_prime.preorder()):
        if parents[x] != -1:
            unions[parents[x]] |= unions[x]
    bags = [(m | u & xy) & y for m, u in zip(masks, unions)]
    return RootedTreeDecomposition(G.n, parents, _bag_sets(bags))


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
    _check_order("separation_tree", "a", a, 0)
    _check_order("separation_tree", "h", h, 0)
    if oracle is None:
        oracle = make_oracle(a)
    parents: list[int] = []
    bags: list[int] = []
    stack = [(G.full_mask(), 0, -1)]  # (vertex set, boundary, parent), as masks
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
    return RootedTreeDecomposition(G.n, tuple(parents), _bag_sets(bags))


def _bag_sets(bags: list[int]) -> tuple[VertexSet, ...]:
    return tuple(frozenset(mask_vertices(b)) for b in bags)


def _split(G: Graph, vset: int, bnd: int, n: int, a: int, h: int, oracle):
    """One node of the separation tree of an n-vertex region of G, on masks
    of G: None for a leaf, else (bag, A ∪ bnd, B ∪ bnd), its bag and its
    children's vertex sets, whose boundary is the bag.  The oracle is handed
    G[vset - bnd].  A miss raises OracleFailureError with the oracle's
    ``certified`` flag, an answer that is not a balanced separation of order
    <= a of that graph an uncertified one; the witness is vset - bnd.
    """
    inner = vset & ~bnd
    if 3**h * inner.bit_count() <= n * 2**h:
        return None
    H, to_g = _induced(G, inner)
    outcome = oracle(H)
    if outcome.sides is None:
        raise OracleFailureError(to_g, outcome.certified)
    a_mask, b_mask = outcome.sides
    sides = _strict_sides(H, a_mask, b_mask)
    if not (sides and (a_mask & b_mask).bit_count() <= a and _sides_balanced(sides, H.full_mask())):
        raise OracleFailureError(to_g, certified=False)
    A, Z = _lift(a_mask, to_g), _lift(a_mask & b_mask, to_g)
    # the boundary rides along into both children so that its edges into
    # the interior stay covered
    return bnd | Z, A | bnd, (inner & ~A) | Z | bnd
