"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are always 0..n-1.  A graph is its neighbour bitmasks; the sorted
neighbour lists are derived from them on first use.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateEdgeError,
    InvalidInputError,
    InvalidSeparationError,
    SelfLoopError,
    VertexOutOfRangeError,
)

VertexSet = frozenset[int]


class Record:
    """Immutable value: equality, hash and repr over `_fields`.  Each subclass
    declares `__slots__`, `_fields` and, for fields that may be left out,
    their `_defaults`; `__init__` binds arguments to the fields in order, and
    one positional per field (the hot records' calls) skips every check.
    Assigning or deleting a field afterwards raises."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        fields, set_field = self._fields, object.__setattr__
        if kwargs or len(args) != len(fields):
            name, rest = type(self).__name__, fields[len(args):]
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
            for f in kwargs:
                if f not in rest:
                    raise TypeError(f"{name}() got field {f!r} twice" if f in fields
                                    else f"{name}() got an unknown field {f!r}")
            values = {**self._defaults, **kwargs}
            for f in rest:
                if f not in values:
                    raise TypeError(f"{name}() missing field {f!r}")
                set_field(self, f, values[f])
        for f, v in zip(fields, args):
            set_field(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Graph(Record):
    # __dict__ holds the cached adjacency
    __slots__ = ("n", "adj_masks", "__dict__")
    _fields = ("n", "adj_masks")  # bit u of adj_masks[v] is set iff uv is an edge

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour lists, built from the masks on first use."""
        return tuple(tuple(mask_vertices(m)) for m in self.adj_masks)

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self.adj_masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def full_mask(self) -> int:
        return (1 << self.n) - 1


class Separation(Record):
    __slots__ = _fields = ("a_side", "b_side")

    @property
    def order(self) -> int:
        return len(self.a_side & self.b_side)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple undirected graph, rejecting loops and repeats."""
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n):
            raise VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError((u, v))
        if masks[u] >> v & 1:
            raise DuplicateEdgeError((u, v))
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def _check_vertices(G: Graph, S: Iterable[int]) -> VertexSet:
    S = frozenset(S)
    for v in S:  # a bool is no vertex, as in _check_order
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidInputError(f"vertex {v!r} is not an integer")
    if S and not (0 <= min(S) and max(S) < G.n):
        raise VertexOutOfRangeError(next(v for v in S if not 0 <= v < G.n), G.n)
    return S


def _check_order(where: str, name: str, value, least: Optional[int] = None) -> None:
    """Raise InvalidInputError, naming `where`, unless `value` is an integer
    (not a bool) of at least `least`, when given."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or least is not None and value < least):
        at_least = "" if least is None else f" >= {least}"
        raise InvalidInputError(f"{where}: {name} must be an integer{at_least}, got {value!r}")


def induced_subgraph(G: Graph, S: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on S, its new ids 0..|S|-1 in the sorted order of S,
    and the new-id -> old-id map."""
    H, old_ids = _induced(G, mask_of(_check_vertices(G, S)))
    return H, dict(enumerate(old_ids))


def _induced(G: Graph, mask: int) -> tuple[Graph, Sequence[int]]:
    """G[mask], numbered in G's order, and the host id of each new id."""
    if mask == G.full_mask():
        return G, range(G.n)  # all of G: G itself, no copy
    old_ids = mask_vertices(mask)
    bit_of = [0] * G.n  # host id -> the bit of its new id, 0 outside the mask
    for new, old in enumerate(old_ids):
        bit_of[old] = 1 << new
    # G is simple, so a list's bits are distinct and their sum is their OR,
    # and the relabelled masks need none of build_graph's checks
    adj, bit = G.adjacency, bit_of.__getitem__
    masks = tuple(sum(map(bit, adj[u])) for u in old_ids)
    return Graph(len(old_ids), masks), old_ids


def _lift(mask: int, ids: Sequence[int]) -> int:
    """The mask of ids[v] over the vertices v of `mask`; ids ascend."""
    if not ids or ids[-1] == len(ids) - 1:
        return mask  # ascending ids ending at len(ids) - 1 are the identity
    return mask_of(map(ids.__getitem__, mask_vertices(mask)))


def component_mask(adj_masks: Sequence[int], universe: int, start: int) -> tuple[int, int]:
    """(comp, around): the component of `start` inside `universe`, and the
    OR of its vertices' neighbour masks, whose part outside `universe` is
    the component's border."""
    comp = frontier = 1 << start
    around = 0
    while frontier:
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            around |= adj_masks[v]
        # the vertices expanded earlier have their neighbours in comp already
        frontier = around & universe & ~comp
        comp |= frontier
    return comp, around


def components_in(adj_masks: Sequence[int], universe: int) -> list[int]:
    """Component masks inside `universe`, ordered by lowest vertex."""
    out = []
    rest = universe
    while rest:
        comp = component_mask(adj_masks, universe, (rest & -rest).bit_length() - 1)[0]
        out.append(comp)
        rest &= ~comp
    return out


def _stz_sides(comps: Iterable[int], s_mask: int, z_mask: int,
               t_mask: int) -> Optional[tuple[int, int]]:
    """Z plus the components `comps` of G - Z that meet S, and Z plus the
    rest, all as bitmasks; None when a component meets both S and T."""
    x_mask = y_mask = z_mask
    for comp in comps:
        if comp & s_mask:
            if comp & t_mask:
                return None
            x_mask |= comp
        else:
            y_mask |= comp
    return x_mask, y_mask


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    size = mask.bit_length()
    if size > 64 and 4 * mask.bit_count() > size:
        # one pass over the binary digits beats a big-int step per vertex
        return [v for v, digit in enumerate(reversed(bin(mask))) if digit == "1"]
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


def mask_of(S: Iterable[int]) -> int:
    m = 0
    for v in S:
        m |= 1 << v
    return m


def _strict_sides(G: Graph, a_mask: int, b_mask: int) -> Optional[tuple[int, int]]:
    """The strict sides A \\ B and B \\ A of the sides A and B as bitmasks, or
    None unless A and B hold V(G) and nothing else (so neither is negative)
    and no edge joins the strict sides."""
    a_only, b_only = a_mask & ~b_mask, b_mask & ~a_mask
    if a_mask | b_mask != G.full_mask() or any(
        G.adj_masks[u] & b_only for u in mask_vertices(a_only)
    ):
        return None
    return a_only, b_only


def _checked_masks(G: Graph, *sets: Iterable[int]):
    return (mask_of(_check_vertices(G, S)) for S in sets)


def is_separation(G: Graph, sep: Separation) -> bool:
    return _strict_sides(G, *_checked_masks(G, sep.a_side, sep.b_side)) is not None


def is_balanced(G: Graph, sep: Separation) -> bool:
    """Both strict sides hold at most 2n/3 vertices (exact arithmetic)."""
    return _balanced(G, sep, G.full_mask())


def is_w_balanced(G: Graph, sep: Separation, W: Iterable[int]) -> bool:
    """Both strict sides hold at most 2|W|/3 vertices of W."""
    return _balanced(G, sep, mask_of(_check_vertices(G, W)))


def _balanced(G: Graph, sep: Separation, w_mask: int) -> bool:
    sides = _strict_sides(G, *_checked_masks(G, sep.a_side, sep.b_side))
    if sides is None:
        raise InvalidSeparationError(f"not a separation of G: {sep}")
    return _sides_balanced(sides, w_mask)


def _sides_balanced(sides: tuple[int, int], w_mask: int) -> bool:
    return all(3 * (s & w_mask).bit_count() <= 2 * w_mask.bit_count() for s in sides)
