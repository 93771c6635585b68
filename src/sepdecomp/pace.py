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


def parse_gr(text: str) -> Graph:
    """Parse "p tw <n> <m>" plus m edge lines; "c" comments allowed."""
    n = m = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError("header must be 'p tw <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            continue
        if n is None:
            raise ParseError("edge before header", lineno)
        if len(parts) != 2:
            raise ParseError("edge line must be '<u> <v>'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer edge endpoints", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range 1..{n}", lineno)
        edge = (min(u, v) - 1, max(u, v) - 1)
        if u == v or edge in edges:
            raise ParseError(f"{'self-loop' if u == v else 'duplicate'} edge {u} {v}", lineno)
        edges.add(edge)
    if n is None:
        raise ParseError("missing 'p tw' header")
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def write_gr(G: Graph) -> str:
    lines = [f"p tw {G.n} {G.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in G.edges())
    return "".join(line + "\n" for line in lines)


def parse_td(text: str) -> RootedTreeDecomposition:
    """Parse "s td <bags> <max-bag> <n>"; the first bag becomes the root."""
    header = None
    bag_lines: dict[int, list[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError("header must be 's td <bags> <max-bag> <n>'", lineno)
            try:
                header = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if min(header) < 0:
                raise ParseError("negative header fields", lineno)
            continue
        if header is None:
            raise ParseError("content before header", lineno)
        if parts[0] == "b":
            try:
                idx = int(parts[1])
                verts = [int(p) for p in parts[2:]]
            except (ValueError, IndexError):
                raise ParseError("malformed bag line", lineno) from None
            if not (1 <= idx <= header[0]) or idx in bag_lines:
                raise ParseError(f"bad bag index {idx}", lineno)
            if any(not (1 <= v <= header[2]) for v in verts):
                raise ParseError("bag vertex out of range", lineno)
            if len(set(verts)) != len(verts):
                raise ParseError("repeated vertex in bag", lineno)
            bag_lines[idx] = verts
            continue
        if len(parts) != 2:
            raise ParseError("tree edge line must be '<i> <j>'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer tree edge", lineno) from None
        if not (1 <= i <= header[0] and 1 <= j <= header[0]) or i == j:
            raise ParseError("tree edge endpoints out of range", lineno)
        tree_edges.append((i, j))
    if header is None:
        raise ParseError("missing 's td' header")
    n_bags, max_bag, n = header
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
    adj: dict[int, list[int]] = {i: [] for i in range(1, n_bags + 1)}
    for i, j in tree_edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [-2] * n_bags
    parents[0] = -1
    stack = [1]
    seen = {1}
    while stack:
        x = stack.pop()
        for y in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                parents[y - 1] = x - 1
                stack.append(y)
    if len(seen) != n_bags:
        raise ParseError("tree edges do not connect all bags")
    bags = tuple(
        frozenset(v - 1 for v in bag_lines[i]) for i in range(1, n_bags + 1)
    )
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
    edges = sorted(
        tuple(sorted((number[x], number[p])))
        for x, p in enumerate(td.parents)
        if p != -1
    )
    lines.extend(f"{i} {j}" for i, j in edges)
    return "".join(line + "\n" for line in lines)


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
    return "".join(line + "\n" for line in lines)
