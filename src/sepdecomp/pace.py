"""PACE-2017 .gr / .td text formats and a DOT export.

Vertices are 1-indexed on disk and 0-indexed in memory.  Output is
bit-exact: single spaces, ascending vertices within a bag, bags numbered in
pre-order, tree edges written with the smaller endpoint first, every line
newline-terminated.
"""

from __future__ import annotations

from .decomposition import RootedTreeDecomposition, validate_decomposition
from .errors import InvalidDecompositionError, ParseError
from .graph import Graph, build_graph

# parse_gr refuses a header n above this: building a graph allocates a
# mask per vertex, so an edgeless n would cost memory that the file's size
# does not bound
MAX_GR_VERTICES = 2_000_000


def _ints(parts: list[str], message: str, lineno: int) -> list[int]:
    try:
        return [*map(int, parts)]
    except ValueError:
        raise ParseError(message, lineno) from None


def _scan(text: str, usage: str, before: str):
    """Yield (line number, fields) for the header that ``usage`` spells,
    its fields as integers, then for each later line that is neither blank
    nor a comment.  Header errors, and ``before`` for a line ahead of the header,
    are raised as the scan reaches them, so the first bad line decides."""
    tag, kind, *names = usage.split()
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] != tag:
            if not header:
                raise ParseError(before, lineno)
            yield lineno, parts
            continue
        if header:
            raise ParseError("duplicate header", lineno)
        if len(parts) != 2 + len(names) or parts[1] != kind:
            raise ParseError(f"header must be '{usage}'", lineno)
        fields = _ints(parts[2:], "non-integer header fields", lineno)
        if min(fields) < 0:
            raise ParseError("negative header fields", lineno)
        header = True
        yield lineno, fields
    if not header:
        raise ParseError(f"missing '{tag} {kind}' header")


def parse_gr(text: str) -> Graph:
    """Parse "p tw <n> <m>" plus m edge lines; "c" comments allowed."""
    lines = _scan(text, "p tw <n> <m>", "edge before header")
    header, (n, m) = next(lines)
    if n > MAX_GR_VERTICES:
        raise ParseError(f"n = {n} exceeds the limit of {MAX_GR_VERTICES} vertices", header)
    edges: set[tuple[int, int]] = set()
    for lineno, parts in lines:
        if len(parts) != 2:
            raise ParseError("edge line must be '<u> <v>'", lineno)
        u, v = _ints(parts, "non-integer edge endpoints", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range 1..{n}", lineno)
        edge = (min(u, v) - 1, max(u, v) - 1)
        if u == v or edge in edges:
            raise ParseError(f"{'self-loop' if u == v else 'duplicate'} edge {u} {v}", lineno)
        edges.add(edge)
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def write_gr(G: Graph) -> str:
    lines = [f"p tw {G.n} {G.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in G.edges())
    return _text(lines)


def parse_td(text: str) -> RootedTreeDecomposition:
    """Parse "s td <bags> <max-bag> <n>"; the first bag becomes the root."""
    lines = _scan(text, "s td <bags> <max-bag> <n>", "content before header")
    _, (n_bags, max_bag, n) = next(lines)
    bag_lines: dict[int, list[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, parts in lines:
        if parts[0] == "b":
            # a bare "b" has no index, and fails as the integer "b"
            idx, *verts = _ints(parts[1:] or parts, "malformed bag line", lineno)
            if not (1 <= idx <= n_bags) or idx in bag_lines:
                raise ParseError(f"bad bag index {idx}", lineno)
            if any(not (1 <= v <= n) for v in verts):
                raise ParseError("bag vertex out of range", lineno)
            if len(set(verts)) != len(verts):
                raise ParseError("repeated vertex in bag", lineno)
            bag_lines[idx] = verts
            continue
        if len(parts) != 2:
            raise ParseError("tree edge line must be '<i> <j>'", lineno)
        i, j = _ints(parts, "non-integer tree edge", lineno)
        if not (1 <= i <= n_bags and 1 <= j <= n_bags) or i == j:
            raise ParseError("tree edge endpoints out of range", lineno)
        tree_edges.append((i - 1, j - 1))
    if n_bags == 0:
        raise ParseError("decomposition needs at least one bag")
    # indices are distinct and within 1..n_bags, so counting them suffices
    if len(bag_lines) != n_bags:
        raise ParseError("missing bag lines")
    largest = max(len(verts) for verts in bag_lines.values())
    if max_bag != largest:
        raise ParseError(f"header max-bag {max_bag} but largest bag has {largest}")
    if len(tree_edges) != n_bags - 1:
        raise ParseError(f"expected {n_bags - 1} tree edges")
    # n_bags - 1 edges reach every bag only as a tree, whose parents do not
    # depend on the search order; -2 marks a bag not reached yet
    adj: list[list[int]] = [[] for _ in range(n_bags)]
    for i, j in tree_edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [-1] + [-2] * (n_bags - 1)
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if parents[y] == -2:
                parents[y] = x
                stack.append(y)
    if -2 in parents:
        raise ParseError("tree edges do not connect all bags")
    bags = tuple(frozenset(v - 1 for v in bag_lines[i]) for i in range(1, n_bags + 1))
    return RootedTreeDecomposition(n, tuple(parents), bags)


def _preorder_ids(td: RootedTreeDecomposition) -> dict[int, int]:
    """Each node's 1-based place in preorder, its bag id in a file, in that order."""
    return {x: i for i, x in enumerate(td.preorder(), 1)}


def write_td(td: RootedTreeDecomposition, G: Graph) -> str:
    """Serialize a decomposition that validates against G."""
    ok, violations = validate_decomposition(G, td)
    if not ok:
        raise InvalidDecompositionError("; ".join(violations))
    number = _preorder_ids(td)
    max_bag = max(len(b) for b in td.bags)
    lines = [f"s td {td.size} {max_bag} {G.n}"]
    for x in number:
        verts = " ".join(str(v + 1) for v in sorted(td.bags[x]))
        lines.append(f"b {number[x]}{' ' + verts if verts else ''}")
    # preorder numbers a parent before its child
    edges = sorted((number[p], number[x]) for x, p in enumerate(td.parents) if p != -1)
    lines.extend(f"{i} {j}" for i, j in edges)
    return _text(lines)


def export_dot(td: RootedTreeDecomposition) -> str:
    """Graphviz tree with bag contents (1-indexed) as labels."""
    number = _preorder_ids(td)
    lines = ["graph td {"]
    for x in number:
        label = "{" + ", ".join(str(v + 1) for v in sorted(td.bags[x])) + "}"
        lines.append(f'  n{number[x]} [label="{label}"];')
    for x in number:
        p = td.parents[x]
        if p != -1:
            lines.append(f"  n{number[p]} -- n{number[x]};")
    lines.append("}")
    return _text(lines)
