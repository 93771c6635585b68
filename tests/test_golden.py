"""Byte-for-byte regression pins for the constructions and the kernels.

``tests/data/golden.json`` holds the sha256 of ``write_td`` for a corpus
that drives the recursion (a = 3 runs the exact certifying oracle, and a
partial 3-tree at a = 4 the cutter past its budget), the
``construct_theorem2`` outputs on small graphs, the raw node ids and bags
of some of those runs, the raw result tuples of
the four search kernels, the separation kernels' tuples on larger graphs
with many cut vertices, the paths, separators and W-sequences of the
Menger layer on seeded graphs, exact treewidth values and elimination
orders on graphs shaped like the benchmark's certify workload, and the two
readers of fill-in elimination: the parents and bags of those treewidth
witnesses, and the cutter's min-degree centroid bag on graphs past the
exact oracle's candidate budget.  A refactor must reproduce all of them
exactly; a change of tie-break has to be argued, not regenerated away.

``python tests/test_golden.py`` prints the current values in the same
format, for comparison by hand; ``python tests/test_golden.py --changed``
prints only the pins that the current code no longer reproduces, one line
each: section, key, and the old and new digest prefixes, and exits with
status 1 when it printed any (0 when every pin holds), so a script can
check the pins.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from sepdecomp import kernels
from sepdecomp.constructor import construct, construct_theorem2
from sepdecomp.errors import RecursionGuardError, WBalancedUnavailableError
from sepdecomp.generators import (
    cycle_graph,
    gnp_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_tree,
)
from sepdecomp.graph import build_graph, mask_of, mask_vertices
from sepdecomp.menger import disjoint_paths
from sepdecomp.pace import write_td
from sepdecomp.separations import _min_degree_centroid_bag, separation_number
from sepdecomp.verification import treewidth_exact
from sepdecomp.wsequence import build_w_sequence

GOLDEN = Path(__file__).parent / "data" / "golden.json"

CONSTRUCT_CASES = {
    "path120_a1": (lambda: path_graph(120), 1),
    "path120_a3": (lambda: path_graph(120), 3),
    "cycle150_a2": (lambda: cycle_graph(150), 2),
    "cycle150_a3": (lambda: cycle_graph(150), 3),
    "tree150s5_a1": (lambda: random_tree(150, 5), 1),
    "tree150s5_a3": (lambda: random_tree(150, 5), 3),
    # partial k-trees: the first runs the exact oracle, the second is past its
    # candidate budget, where the cutter's min-degree centroid bag decides
    "ktree132k2_a3": (lambda: partial_ktree(132, 2, 0.8, 132), 3),
    "ktree140k3_a4": (lambda: partial_ktree(140, 3, 0.8, 140), 4),
}
# a=None runs at a = sep(G); the fixed-a cases make many W-balanced oracle
# calls, and cycle20_a1 fails
THEOREM2_CASES = {
    **{f"gnp12s{s}_asep": (lambda s=s: gnp_graph(12, 0.3, s), None) for s in range(6)},
    **{f"gnp16s{s}_a{a}": (lambda s=s: gnp_graph(16, 0.2, s), a) for s in range(4) for a in (2, 3)},
    "grid4x5_a2": (lambda: grid_graph(4, 5), 2),
    "grid4x5_a3": (lambda: grid_graph(4, 5), 3),
    "cycle20_a1": (lambda: cycle_graph(20), 1),
    "cycle20_a2": (lambda: cycle_graph(20), 2),
    "tree20s3_a1": (lambda: random_tree(20, 3), 1),
    "path20_a1": (lambda: path_graph(20), 1),
}
# the .td digests renumber nodes in preorder; these pin the node ids too
NODE_ID_CASES = {
    **{name: (make, a, lambda G: {0}) for name, (make, a) in CONSTRUCT_CASES.items()},
    "path120_a1_ends": (lambda: path_graph(120), 1, lambda G: {0, G.n - 1}),
    "cycle150_a2_ends": (lambda: cycle_graph(150), 2, lambda G: {0, G.n - 1}),
}
NODE_ID_THEOREM2 = ("grid4x5_a2", "tree20s3_a1")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def construct_digest(name: str) -> str:
    make, a = CONSTRUCT_CASES[name]
    G = make()
    return _sha(write_td(construct(G, a, {0}).decomposition, G))


def theorem2_outcome(name: str) -> dict:
    make, a = THEOREM2_CASES[name]
    G = make()
    if a is None:
        a = separation_number(G)
    try:
        td = construct_theorem2(G, a).decomposition
    except (RecursionGuardError, WBalancedUnavailableError) as exc:
        return {"a": a, "error": type(exc).__name__}
    return {"a": a, "sha256": _sha(write_td(td, G))}


def node_ids_digest(name: str) -> str:
    """sha256 of the raw (parents, bags) of a run."""
    if name in NODE_ID_THEOREM2:
        make, a = THEOREM2_CASES[name]
        td = construct_theorem2(make(), a).decomposition
    else:
        make, a, W = NODE_ID_CASES[name]
        G = make()
        td = construct(G, a, W(G)).decomposition
    return _sha(repr((td.parents, [sorted(b) for b in td.bags])))


def kernel_cases() -> dict[str, list[dict]]:
    """Seeded gnp graphs with n <= 10, keyed by seed, each kernel on several
    orders."""
    groups = {}
    rng = random.Random(7)
    for seed in range(40):
        n = random.Random(seed).randint(1, 10)
        w_mask = rng.randint(1, (1 << n) - 1)
        groups[f"{seed:02d}"] = [
            *({"fn": "min_balanced_separation", "n": n, "max_order": a} for a in sorted({1, 2, n})),
            *({"fn": "min_w_balanced_separation", "n": n, "w_mask": w_mask, "max_order": a}
              for a in sorted({1, n})),
            {"fn": "separation_number", "n": min(n, 9)},
            {"fn": "treewidth", "n": min(n, 8)},
        ]
    return groups


def cut_vertex_cases() -> dict[str, dict]:
    """Separation-kernel calls on seeded trees, paths, cycles and partial
    2-trees with n = 30..120: graphs with many cut vertices, where a
    separator's last vertex splits its component into several pieces.
    W is every vertex (both kernels), a random subset or a sparse one.
    A few 3-row grids add searches that end at order 3."""
    rng = random.Random(29)
    cases = {}
    for i in range(64):
        kind = ("tree", "path", "cycle", "ptree2")[i % 4]
        n = rng.randint(30, 120)
        spec = [kind, n] + ([i] if kind in ("tree", "ptree2") else [])
        case = {"graph": spec, "max_order": 1 + i // 4 % 3}
        w_kind = i // 16
        if w_kind == 1:
            case["w_mask"] = rng.getrandbits(n) or 1
        elif w_kind == 2:
            case["w_mask"] = mask_of(rng.sample(range(n), rng.randint(2, n // 8)))
        elif w_kind == 3:
            case["w_mask"] = (1 << n) - 1
        cases[f"{kind} {i:02d}"] = case
    # 3-row grids need order 3, so the search runs through two-vertex prefixes
    for i in range(4):
        cols = rng.randint(10, 25)
        case = {"graph": ["grid", 3, cols], "max_order": 3}
        if i % 2:
            case["w_mask"] = rng.getrandbits(3 * cols) or 1
        cases[f"grid {i:02d}"] = case
    return cases


def run_cut_vertex(case: dict):
    G = make_graph(case["graph"])
    if "w_mask" in case:
        found = kernels.min_w_balanced_separation(
            G.n, G.adj_masks, case["w_mask"], case["max_order"]
        )
    else:
        found = kernels.min_balanced_separation(G.n, G.adj_masks, case["max_order"])
    return None if found is None else list(found)


def run_kernel(seed: int, case: dict):
    G = gnp_graph(case["n"], 0.4, seed)
    args = [G.n, G.adj_masks] + [case[k] for k in ("w_mask", "max_order") if k in case]
    # JSON has no tuples: compare in the stored form
    return json.loads(json.dumps(getattr(kernels, case["fn"])(*args)))


def partial_2tree(n: int, seed: int):
    """Seeded partial 2-tree with shuffled ids: a 2-tree grown from a
    triangle, each edge kept with probability 0.8 (often disconnected)."""
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    cliques = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        u, w = cliques[rng.randrange(len(cliques))]
        edges |= {(u, v), (w, v)}
        cliques += [(u, v), (w, v)]
    ids = list(range(n))
    rng.shuffle(ids)
    return build_graph(n, [(ids[u], ids[v]) for u, v in sorted(edges) if rng.random() < 0.8])


GRAPH_KINDS = {
    "gnp": gnp_graph, "tree": random_tree, "grid": grid_graph, "cycle": cycle_graph,
    "path": path_graph, "ptree2": partial_2tree, "ktree": partial_ktree,
}


def make_graph(spec: list):
    kind, *args = spec
    return GRAPH_KINDS[kind](*args)


def _graph_spec(rng: random.Random, i: int) -> list:
    kind = ("gnp", "tree", "grid", "cycle", "gnp_sparse")[i % 5]
    if kind == "gnp":
        return ["gnp", rng.randint(2, 30), rng.choice([0.15, 0.3, 0.5]), i]
    if kind == "gnp_sparse":  # mostly disconnected
        return ["gnp", rng.randint(4, 30), 0.06, i]
    if kind == "tree":
        return ["tree", rng.randint(2, 40), i]
    if kind == "grid":
        return ["grid", rng.randint(1, 6), rng.randint(2, 7)]
    return ["cycle", rng.randint(3, 40)]


def menger_cases() -> dict[str, dict]:
    """Seeded (G, S, T, cap) cases for disjoint_paths, and (G, W, w) cases
    for build_w_sequence with |W| in {1, 2, 3}.  Every fourth flow case
    forces S and T to overlap, and every sixth caps at most |S & T|."""
    rng = random.Random(13)
    cases = {}
    for i in range(300):
        spec = _graph_spec(rng, i)
        n = make_graph(spec).n
        S = rng.sample(range(n), rng.randint(0 if i % 50 == 0 else 1, max(1, n // 3)))
        T = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
        if i % 4 == 0:
            T = sorted(set(T) | set(S[: rng.randint(1, 3)]))
        common = len(set(S) & set(T))
        cap = rng.randint(0, common) if i % 6 == 0 else rng.randint(1, n + 1)
        cases[f"disjoint_paths {i:03d}"] = {
            "graph": spec, "S": sorted(S), "T": sorted(T), "cap": cap,
        }
    for i in range(60):
        spec = _graph_spec(rng, i)
        n = make_graph(spec).n
        W = sorted(rng.sample(range(n), min(n, 1 + i % 3)))
        cases[f"build_w_sequence {i:02d}"] = {
            "graph": spec, "W": W, "w": rng.randint(1, len(W)),
        }
    return cases


def run_menger(case: dict) -> dict:
    G = make_graph(case["graph"])
    if "cap" in case:
        res = disjoint_paths(G, case["S"], case["T"], case["cap"])
        return {
            "paths": [list(p) for p in res.paths],
            "separator": None if res.separator is None else sorted(res.separator),
        }
    ws = build_w_sequence(G, case["W"], case["w"])
    return {
        "levels": [sorted(lvl) for lvl in ws.levels],
        "z_set": sorted(ws.z_set),
        "witness_paths": [[list(p) for p in fam] for fam in ws.witness_paths],
    }


def treewidth_cases() -> dict[str, dict]:
    """Graphs shaped like the certify workload: for each n = 11..14, two
    gnp(n, 0.3) graphs and a partial 2-tree and 3-tree keeping 80% of the
    edges, 16 in all."""
    specs = []
    for n in range(11, 15):
        specs += [["gnp", n, 0.3, n], ["gnp", n, 0.3, 100 + n]]
        specs += [["ktree", n, k, 0.8, n] for k in (2, 3)]
    return {" ".join(map(str, spec)): {"graph": spec} for spec in specs}


def run_treewidth(case: dict) -> dict:
    tw = treewidth_exact(make_graph(case["graph"]))
    return {"value": tw.value, "order": list(tw.elimination_order)}


def elimination_cases() -> dict[str, dict]:
    """`treewidth_exact`'s witness on the treewidth graphs, and the cutter's
    min-degree centroid bag on seeded graphs past the exact oracle's
    candidate budget: partial 3- and 4-trees with n = 100..200, two seeds
    each, and the 12x15 grid."""
    cases = {
        f"witness {key}": {"fn": "treewidth_exact", **case}
        for key, case in treewidth_cases().items()
    }
    specs = [["ktree", n, k, 0.8, seed] for k in (3, 4) for n in range(100, 201, 25)
             for seed in (n, 1000 + n)]
    for spec in specs + [["grid", 12, 15]]:
        key = "centroid " + " ".join(map(str, spec))
        cases[key] = {"fn": "_min_degree_centroid_bag", "graph": spec}
    return cases


def run_elimination(case: dict):
    G = make_graph(case["graph"])
    if case["fn"] == "treewidth_exact":
        td = treewidth_exact(G).decomposition
        return _sha(repr((td.parents, [sorted(b) for b in td.bags])))
    return mask_vertices(_min_degree_centroid_bag(G))


def compute_golden() -> dict:
    return {
        "construct": {name: construct_digest(name) for name in CONSTRUCT_CASES},
        "cut_vertex": {key: dict(case, result=run_cut_vertex(case)) for key, case in cut_vertex_cases().items()},
        "menger": {key: dict(case, result=run_menger(case)) for key, case in menger_cases().items()},
        "node_ids": {name: node_ids_digest(name) for name in [*NODE_ID_CASES, *NODE_ID_THEOREM2]},
        "theorem2": {name: theorem2_outcome(name) for name in THEOREM2_CASES},
        "treewidth": {key: dict(case, result=run_treewidth(case)) for key, case in treewidth_cases().items()},
        "elimination": {key: dict(case, result=run_elimination(case)) for key, case in elimination_cases().items()},
        "kernels": {
            key: [dict(case, result=run_kernel(int(key), case)) for case in cases]
            for key, cases in kernel_cases().items()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_td(golden, name):
    assert construct_digest(name) == golden["construct"][name]


@pytest.mark.parametrize("name", sorted(THEOREM2_CASES))
def test_theorem2_td(golden, name):
    assert theorem2_outcome(name) == golden["theorem2"][name]


@pytest.mark.parametrize("name", sorted([*NODE_ID_CASES, *NODE_ID_THEOREM2]))
def test_construct_node_ids(golden, name):
    assert node_ids_digest(name) == golden["node_ids"][name]


def test_kernel_tuples(golden):
    stored = golden["kernels"]
    assert {
        key: [{k: v for k, v in case.items() if k != "result"} for case in cases]
        for key, cases in stored.items()
    } == kernel_cases()
    for key, cases in stored.items():
        for case in cases:
            assert run_kernel(int(key), case) == case["result"], (key, case)


def test_menger_results(golden):
    stored = golden["menger"]
    assert {
        key: {k: v for k, v in case.items() if k != "result"} for key, case in stored.items()
    } == menger_cases()
    wrong = [key for key, case in stored.items() if run_menger(case) != case["result"]]
    assert not wrong


def test_cut_vertex_results(golden):
    stored = golden["cut_vertex"]
    assert {
        key: {k: v for k, v in case.items() if k != "result"} for key, case in stored.items()
    } == cut_vertex_cases()
    wrong = [key for key, case in stored.items() if run_cut_vertex(case) != case["result"]]
    assert not wrong


def test_treewidth_results(golden):
    stored = golden["treewidth"]
    assert {
        key: {k: v for k, v in case.items() if k != "result"} for key, case in stored.items()
    } == treewidth_cases()
    wrong = [key for key, case in stored.items() if run_treewidth(case) != case["result"]]
    assert not wrong


def test_elimination_results(golden):
    stored = golden["elimination"]
    assert {
        key: {k: v for k, v in case.items() if k != "result"} for key, case in stored.items()
    } == elimination_cases()
    wrong = [key for key, case in stored.items() if run_elimination(case) != case["result"]]
    assert not wrong


def dumps(golden: dict) -> str:
    """JSON with one line per case (per graph for the kernels), so a changed
    pin is a one-line diff."""
    sections = []
    for key, pins in sorted(golden.items()):
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())]
        sections.append(json.dumps(key) + ": {\n  " + ",\n  ".join(lines) + "\n }")
    return "{\n " + ",\n ".join(sections) + "\n}\n"


def _digest(value) -> str:
    """A pin's digest: the pin itself when it is one, else its JSON's."""
    return value if isinstance(value, str) else _sha(json.dumps(value, sort_keys=True))


def changed_pins(stored: dict, current: dict) -> list[str]:
    """One line per pin that `current` does not reproduce, in file order:
    section, key and the old -> new digest prefixes ('-' for a pin that
    only one side has)."""
    lines = []
    for section in sorted(stored.keys() | current.keys()):
        old, new = stored.get(section, {}), current.get(section, {})
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                a, b = (_digest(d[key])[:12] if key in d else "-" for d in (old, new))
                lines.append(f"{section}\t{key}\t{a} -> {b}")
    return lines


def main(argv: list[str]) -> int:
    """The command line: 1 when ``--changed`` printed a moved pin, else 0."""
    if argv == ["--changed"]:
        moved = changed_pins(json.loads(GOLDEN.read_text()), compute_golden())
        for line in moved:
            print(line)
        return 1 if moved else 0
    print(dumps(compute_golden()), end="")
    return 0


def test_changed_exit_status(monkeypatch, capsys):
    stored = json.loads(GOLDEN.read_text())
    monkeypatch.setitem(globals(), "compute_golden", lambda: stored)
    assert main(["--changed"]) == 0 and capsys.readouterr().out == ""
    section = sorted(stored)[0]
    key = sorted(stored[section])[0]
    moved = {**stored, section: {**stored[section], key: "moved"}}
    monkeypatch.setitem(globals(), "compute_golden", lambda: moved)
    assert main(["--changed"]) == 1
    assert capsys.readouterr().out.startswith(f"{section}\t{key}\t")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
