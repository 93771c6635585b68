import pytest
from conftest import elimination_width

from sepdecomp.errors import InvalidInputError
from sepdecomp.generators import (
    complete_graph,
    cycle_graph,
    generate,
    gnp_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_tree,
)


class TestPartialKtree:
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("seed", range(5))
    def test_width_bound(self, k, seed):
        # ids follow insertion order, so the reverse order has width <= k
        G = partial_ktree(60, k, seed=seed)
        assert elimination_width(G, reversed(range(G.n))) <= k

    def test_keep_all_is_a_ktree(self):
        G = partial_ktree(30, 3, keep=1.0, seed=2)
        assert G.m == 6 + 3 * (30 - 4)
        assert elimination_width(G, reversed(range(G.n))) == 3

    def test_seeded(self):
        assert partial_ktree(40, 2, seed=7) == partial_ktree(40, 2, seed=7)
        assert partial_ktree(40, 2, seed=7) != partial_ktree(40, 2, seed=8)

    def test_generate_dispatch(self):
        G = generate("ktree", {"n": "25", "k": "2", "keep": "0.5"}, seed=3)
        assert G == partial_ktree(25, 2, keep=0.5, seed=3)

    @pytest.mark.parametrize("n,k,keep", [(3, 3, 0.8), (5, -1, 0.8), (10, 2, 1.5)])
    def test_bad_params(self, n, k, keep):
        with pytest.raises(InvalidInputError):
            partial_ktree(n, k, keep=keep)


@pytest.mark.parametrize(
    "kind,params,build",
    [
        ("tree", {"n": "20"}, lambda seed: random_tree(20, seed)),
        ("gnp", {"n": "15", "p": "0.3"}, lambda seed: gnp_graph(15, 0.3, seed)),
        ("ktree", {"n": "25", "k": "2"}, lambda seed: partial_ktree(25, 2, seed=seed)),
    ],
)
def test_params_seed_wins(kind, params, build):
    # the seed argument only fills in a missing params["seed"], so suite
    # instances that carry their own seed keep it
    assert generate(kind, {**params, "seed": "3"}, seed=9) == build(3)
    assert generate(kind, params, seed=9) == build(9)
    assert build(3) != build(9)


@pytest.mark.parametrize(
    "kind,params,named",
    [
        ("path", {"n": 1.5}, "path: param 'n' must be an integer"),
        ("path", {"n": "1.5"}, "path: param 'n' must be an integer"),
        ("cycle", {"n": True}, "cycle: param 'n' must be an integer"),
        ("gnp", {"n": 5, "p": "high"}, "gnp: param 'p' must be a number"),
        ("path", {"m": 5}, "path: unknown param 'm'"),
        ("grid", {"k": 3}, "grid: unknown param 'k'"),
        ("ktree", {"n": 20}, "ktree: missing param 'k'"),
    ],
)
def test_generate_rejects_bad_params(kind, params, named):
    with pytest.raises(InvalidInputError, match=named):
        generate(kind, params)


@pytest.mark.parametrize(
    "kind,params,message",
    [
        ("path", {"n": 0}, "path needs n >= 1"),
        ("cycle", {"n": 2}, "cycle needs n >= 3"),
        ("complete", {"n": 0}, "complete graph needs n >= 1"),
        ("grid", {"rows": 0}, "grid needs positive dimensions"),
        ("grid", {"rows": 3, "cols": -1}, "grid needs positive dimensions"),
        ("tree", {"n": 0}, "tree needs n >= 1"),
        ("gnp", {"n": 0, "p": 0.5}, "gnp needs n >= 1"),
        ("gnp", {"n": 5, "p": 1.5}, r"p must be in \[0, 1\]"),
        ("ktree", {"n": 3, "k": 3}, "a partial k-tree needs 0 <= k < n"),
        ("ktree", {"n": 5, "k": -1}, "a partial k-tree needs 0 <= k < n"),
        ("ktree", {"n": 5, "k": 2, "keep": -0.1}, r"keep must be in \[0, 1\]"),
    ],
)
def test_generate_passes_on_size_and_range_errors(kind, params, message):
    # well-formed params whose values the generator itself refuses
    with pytest.raises(InvalidInputError, match=message):
        generate(kind, params, seed=0)


@pytest.mark.parametrize(
    "make,named",
    [
        (lambda x: path_graph(x), "path_graph: n must be an integer >= 1"),
        (lambda x: cycle_graph(x), "cycle_graph: n must be an integer >= 3"),
        (lambda x: complete_graph(x), "complete_graph: n must be an integer >= 1"),
        (lambda x: grid_graph(x, 3), "grid_graph: rows must be an integer >= 1"),
        (lambda x: grid_graph(2, x), "grid_graph: cols must be an integer >= 1"),
        (lambda x: gnp_graph(x, 0.3), "gnp_graph: n must be an integer >= 1"),
        (lambda x: random_tree(x, 1), "random_tree: n must be an integer >= 1"),
        (lambda x: partial_ktree(x, 2), "partial_ktree: n must be an integer >= 3"),
        (lambda x: partial_ktree(6, x), "partial_ktree: k must be an integer >= 0"),
    ],
)
@pytest.mark.parametrize("value", [5.0, True])
def test_non_integer_size_names_the_generator(make, named, value):
    # a float or a bool ends in a typed error, not range()'s bare TypeError
    with pytest.raises(InvalidInputError) as ei:
        make(value)
    assert str(ei.value) == f"{named}, got {value!r}"
