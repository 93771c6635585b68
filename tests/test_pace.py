import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdecomp.decomposition import RootedTreeDecomposition, separation_tree
from sepdecomp.errors import InvalidDecompositionError, ParseError, SepDecompError
from sepdecomp.generators import complete_graph, gnp_graph, path_graph
from sepdecomp.graph import build_graph
from sepdecomp.pace import MAX_GR_VERTICES, export_dot, parse_gr, parse_td, write_gr, write_td


def td(host_n, parents, bags):
    return RootedTreeDecomposition(
        host_n, tuple(parents), tuple(frozenset(b) for b in bags)
    )


class TestGrFormat:
    def test_parse_simple(self):
        G = parse_gr("c a comment\np tw 3 2\n1 2\n2 3\n")
        assert G.n == 3 and sorted(G.edges()) == [(0, 1), (1, 2)]

    def test_write_exact(self):
        assert write_gr(path_graph(3)) == "p tw 3 2\n1 2\n2 3\n"
        assert write_gr(build_graph(2, [])) == "p tw 2 0\n"

    def test_round_trip(self):
        for seed in range(5):
            G = gnp_graph(10, 0.3, seed)
            H = parse_gr(write_gr(G))
            assert H.n == G.n and sorted(H.edges()) == sorted(G.edges())

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "p tw 2\n",  # short header
            "p cnf 2 0\n",  # wrong descriptor
            "1 2\np tw 2 1\n",  # edge before header
            "p tw 2 1\n1 3\n",  # vertex out of range
            "p tw 2 2\n1 2\n",  # edge count mismatch
            "p tw 2 1\n1 2\np tw 2 1\n",  # duplicate header
            "p tw 2 1\n1 2 3\n",  # malformed edge
            "p tw -1 0\n",  # negative n
            "p tw 3 2\n1 2\n1 2\n",  # repeated edge
            "p tw 3 2\n1 2\n2 1\n",  # repeated edge, reversed
            "p tw 3 2\n2 2\n1 2\n",  # self-loop
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_gr(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p tw 3 2\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
            ("c comment\np tw 3 2\n2 2\n1 2\n", "line 3: self-loop edge 2 2"),
        ],
    )
    def test_repeated_edge_or_self_loop_named_by_line(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$") as ei:
            parse_gr(text)
        assert ei.value.line == 3

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as ei:
            parse_gr("p tw 2 1\n1 5\n")
        assert "line 2" in str(ei.value) or ei.value.lineno == 2

    def test_huge_header_refused_before_allocating(self):
        # 17 bytes that would ask for a mask per vertex, about 16 GB
        tracemalloc.start()
        try:
            message = f"^line 2: n = 1000000000 exceeds the limit of {MAX_GR_VERTICES} vertices$"
            with pytest.raises(ParseError, match=message) as ei:
                parse_gr("c big\np tw 1000000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.line == 2 and peak < 1 << 20
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_gr(f"p tw {MAX_GR_VERTICES + 1} 0\n")

    def test_edgeless_graph_below_the_limit_parses(self):
        G = parse_gr("p tw 12800 0\n")
        assert G.n == 12800 and G.m == 0


class TestTdFormat:
    def test_single_vertex_exact(self):
        G = complete_graph(1)
        t = td(1, [-1], [{0}])
        assert write_td(t, G) == "s td 1 1 1\nb 1 1\n"

    def test_path_chain_exact(self):
        G = path_graph(3)
        t = td(3, [-1, 0], [{0, 1}, {1, 2}])
        assert write_td(t, G) == "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"

    def test_empty_bag_line(self):
        G = build_graph(0, [])
        t = td(0, [-1], [set()])
        assert write_td(t, G) == "s td 1 0 0\nb 1\n"

    def test_parse_round_trip(self):
        G = gnp_graph(9, 0.35, 4)
        t = separation_tree(G, 3, 2)
        back = parse_td(write_td(t, G))
        assert back.host_n == G.n
        # same bag multiset and same tree shape up to the root orientation
        assert sorted(back.bags) == sorted(t.bags)
        assert write_td(back, G) == write_td(t, G)

    def test_invalid_decomposition_refused(self):
        G = path_graph(3)
        bad = td(3, [-1, 0], [{0, 1}, {2}])
        with pytest.raises(InvalidDecompositionError):
            write_td(bad, G)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "s td 1 1 1\n",  # missing bag
            "s td 2 1 1\nb 1 1\nb 2 1\n",  # missing tree edge
            "s td 1 1 1\nb 1 1\nb 1 1\n",  # duplicate bag index
            "s td 1 1 1\nb 1 2\n",  # vertex out of range
            "s td 2 1 1\nb 1 1\nb 2 1\n1 1\n",  # self-loop tree edge
            "s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n1 2\n",  # disconnected
            "s td 0 0 0\n",  # zero bags
            "s td 1 0 -5\nb 1\n",  # negative n
            "s td 1 1 3\nb 1 1 1 2\n",  # repeated vertex in a bag
            "s td 1 0 3\nb 1 1 2 3\n",  # max-bag field disagrees with the bags
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_td(text)


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_gr, "c x\np tw two 1\n", 2, "non-integer header fields"),
        (parse_gr, "p tw 3 1\n1 x\n", 2, "non-integer edge endpoints"),
        (parse_td, "s td 1 1 one\n", 1, "non-integer header fields"),
        (parse_td, "s td 1 1 2\nb 1 1 x\n", 2, "malformed bag line"),
        (parse_td, "s td 1 1 2\nb\n", 2, "malformed bag line"),
        (parse_td, "s td 2 1 2\nb 1 1\nb 2 2\n1 z\n", 4, "non-integer tree edge"),
        # a header of the wrong shape: too few fields, or the wrong descriptor
        (parse_td, "s td 1 1\n", 1, "header must be 's td <bags> <max-bag> <n>'"),
        (parse_td, "c x\ns tw 1 1 1\n", 2, "header must be 's td <bags> <max-bag> <n>'"),
    ],
)
def test_non_integer_fields_name_their_line(parse, text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}$") as ei:
        parse(text)
    assert ei.value.line == line


class TestDot:
    def test_exact_output(self):
        G = path_graph(3)
        t = td(3, [-1, 0], [{0, 1}, {1, 2}])
        assert export_dot(t) == (
            "graph td {\n"
            '  n1 [label="{1, 2}"];\n'
            '  n2 [label="{2, 3}"];\n'
            "  n1 -- n2;\n"
            "}\n"
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 5000))
def test_gr_td_pipeline_round_trips(n, seed):
    G = gnp_graph(n, 0.4, seed)
    assert parse_gr(write_gr(G)).adj_masks == G.adj_masks
    t = separation_tree(G, -(-n // 3), 1)
    text = write_td(t, G)
    assert write_td(parse_td(text), G) == text


# Fuzz inputs: lines of small integer tokens in the shape of each format,
# and valid files with one line kept, commented, swapped, dropped, repeated
# or rewritten.
_ints = st.integers(-2, 9).map(str)
_noise = st.text(alphabet="pstdwbc -0123456789x", max_size=12)
_gr_line = st.one_of(
    st.tuples(st.just("p tw"), _ints, _ints).map(" ".join),
    st.tuples(_ints, _ints).map(" ".join),
    st.just("c note"),
    st.just(""),
    _noise,
)
_td_line = st.one_of(
    st.tuples(st.just("s td"), _ints, _ints, _ints).map(" ".join),
    st.tuples(st.just("b"), _ints, st.lists(_ints, max_size=4).map(" ".join)).map(" ".join),
    st.tuples(_ints, _ints).map(" ".join),
    st.just("c note"),
    _noise,
)


@st.composite
def _edited(draw, valid_text, line):
    lines = draw(valid_text).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["keep", "comment", "swap", "drop", "repeat", "rewrite"]))
    if edit == "comment":
        lines.insert(i, "c note")
    elif edit == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "rewrite":
        lines[i] = draw(line)
    return "\n".join(lines) + "\n"


_valid_gr = st.builds(lambda n, seed: write_gr(gnp_graph(n, 0.4, seed)),
                      st.integers(1, 6), st.integers(0, 100))


def _valid_td_text(n, seed):
    G = gnp_graph(n, 0.4, seed)
    return write_td(separation_tree(G, -(-n // 3), 1), G)


_valid_td = st.builds(_valid_td_text, st.integers(1, 6), st.integers(0, 100))


def _shape(t):
    """A decomposition up to the numbering of its nodes."""
    pairs = sorted(
        (sorted(t.bags[x]), sorted(t.bags[p])) for x, p in enumerate(t.parents) if p != -1
    )
    return t.host_n, sorted(t.bags[t.root]), pairs


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_gr_line, max_size=6).map(lambda ls: "\n".join(ls) + "\n"),
    _edited(_valid_gr, _gr_line),
))
def test_parse_gr_fuzz(text):
    try:
        G = parse_gr(text)
    except SepDecompError:
        return
    assert parse_gr(write_gr(G)) == G


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_td_line, max_size=6).map(lambda ls: "\n".join(ls) + "\n"),
    _edited(_valid_td, _td_line),
))
def test_parse_td_fuzz(text):
    """A parsed .td either fails validation against the edgeless graph on
    its vertices, or writes back to a file that parses to the same tree."""
    try:
        t = parse_td(text)
    except SepDecompError:
        return
    G = build_graph(t.host_n, [])
    try:
        out = write_td(t, G)
    except InvalidDecompositionError:
        return
    back = parse_td(out)
    assert _shape(back) == _shape(t)
    assert write_td(back, G) == out


# Texts over the PACE token alphabet: an optional header, then lines of
# tokens, bag lines and pairs.  Numbers stay small, since parse_gr hands
# its header's n to build_graph, which makes one mask per vertex.
_small = st.integers(-2, 9).map(str)
_token = st.one_of(
    st.sampled_from(["p", "tw", "s", "td", "b", "c"]),
    _small,
    st.text(alphabet="pstdwbcx+-._", min_size=1, max_size=3),
)
_header = st.builds(lambda head, rest: " ".join([head, *rest]),
                    st.sampled_from(["p tw", "s td"]), st.lists(_small, min_size=2, max_size=3))
_body_line = st.one_of(
    st.lists(_token, max_size=6).map(" ".join),
    st.lists(_small, max_size=4).map(lambda rest: " ".join(["b", *rest])),
    st.lists(_small, min_size=2, max_size=2).map(" ".join),
    _header,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_header, max_size=1), st.lists(_body_line, max_size=8))
def test_parsers_raise_only_parse_error(header, body):
    text = "\n".join(header + body)
    for parse in (parse_gr, parse_td):
        try:
            parse(text)
        except ParseError:
            pass


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 5000), st.data())
def test_body_line_order_does_not_matter(n, seed, data):
    for parse, text in ((parse_gr, write_gr(gnp_graph(n, 0.4, seed))),
                        (parse_td, _valid_td_text(n, seed))):
        head, *body = text.splitlines()
        shuffled = data.draw(st.permutations(body))
        assert parse("\n".join([head, *shuffled]) + "\n") == parse(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_gr, "c no header\n", "missing 'p tw' header"),
        (parse_gr, "p tw 3 2\n1 2\n", "expected 2 edges, found 1"),
        (parse_td, "", "missing 's td' header"),
        (parse_td, "s td 0 0 0\n", "decomposition needs at least one bag"),
        (parse_td, "s td 2 1 1\nb 1 1\n", "missing bag lines"),
        (parse_td, "s td 1 2 1\nb 1 1\n", "header max-bag 2 but largest bag has 1"),
        (parse_td, "s td 2 1 1\nb 1 1\nb 2 1\n", "expected 1 tree edges"),
        (parse_td, "s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n1 2\n",
         "tree edges do not connect all bags"),
    ],
)
def test_whole_file_errors_name_no_line(parse, text, message):
    # these errors belong to no single line, so the message carries none
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == message and ei.value.line is None
