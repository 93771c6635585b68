import json

import pytest

from sepdecomp import cli, constructor
from sepdecomp.cli import dispatch
from sepdecomp.errors import PostconditionFailedError
from sepdecomp.generators import cycle_graph, grid_graph, partial_ktree, path_graph
from sepdecomp.pace import parse_gr, parse_td, write_gr


def gr(tmp_path, G, name="g.gr"):
    p = tmp_path / name
    p.write_text(write_gr(G))
    return str(p)


class TestGen:
    def test_writes_gr(self, tmp_path, capsys):
        out = tmp_path / "p.gr"
        assert dispatch(["gen", "--kind", "path", "--params", "n=5", "--out", str(out)]) == 0
        assert parse_gr(out.read_text()).n == 5

    def test_stdout_default(self, capsys):
        assert dispatch(["gen", "--kind", "complete", "--params", "n=3"]) == 0
        assert capsys.readouterr().out == "p tw 3 3\n1 2\n1 3\n2 3\n"

    def test_ktree(self, capsys):
        assert dispatch(["gen", "--kind", "ktree", "--params", "n=20,k=2", "--seed", "4"]) == 0
        assert parse_gr(capsys.readouterr().out) == partial_ktree(20, 2, seed=4)

    def test_bad_params(self, capsys):
        assert dispatch(["gen", "--kind", "path", "--params", "nonsense"]) == 2

    def test_empty_param_item_skipped(self, capsys):
        assert dispatch(["gen", "--kind", "path", "--params", "n=5,"]) == 0
        assert parse_gr(capsys.readouterr().out) == path_graph(5)


class TestConstruct:
    def test_end_to_end(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(60))
        tdf = tmp_path / "out.td"
        stats = tmp_path / "stats.json"
        code = dispatch(
            [
                "construct", "--input", g, "--a", "1",
                "--td", str(tdf), "--stats", str(stats),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("width ") and "(bags < 7915/139 vertices)" in out
        td = parse_td(tdf.read_text())
        assert td.host_n == 60
        blob = json.loads(stats.read_text())
        assert set(blob) == {
            "n", "m", "a_used", "width", "bound_rhs_num", "bound_rhs_den",
            "oracle_calls", "elapsed_ms", "assertions_checked",
        }
        assert blob["n"] == 60 and blob["a_used"] == 1

    def test_auto_a_small_graph(self, tmp_path, capsys):
        g = gr(tmp_path, cycle_graph(12))
        assert dispatch(["construct", "--input", g]) == 0

    def test_auto_a_refused_when_large(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(40))
        assert dispatch(["construct", "--input", g]) == 2
        assert "error" in capsys.readouterr().err

    def test_explicit_w(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(50))
        assert dispatch(["construct", "--input", g, "--a", "1", "--w", "25"]) == 0

    @pytest.mark.parametrize("w,named", [("0", "0"), ("4", "4"), ("2,9", "9")])
    def test_w_out_of_range_named_one_indexed(self, tmp_path, capsys, w, named):
        g = gr(tmp_path, path_graph(3))
        assert dispatch(["construct", "--input", g, "--a", "1", "--w", w]) == 2
        assert capsys.readouterr().err == f"error: W vertex {named} out of range 1..3\n"

    def test_w_last_vertex_accepted(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(3))
        assert dispatch(["construct", "--input", g, "--a", "1", "--w", "1,3"]) == 0

    def test_infeasible_a_is_usage_error(self, tmp_path, capsys):
        g = gr(tmp_path, grid_graph(6, 6))
        assert dispatch(["construct", "--input", g, "--a", "1"]) == 2

    def test_debug_assertions_default_on(self, tmp_path, capsys):
        # the claim checks always run: there is no switch to turn them off
        g = gr(tmp_path, path_graph(60))
        assert dispatch(["construct", "--input", g, "--a", "1", "--no-debug-assertions"]) == 2
        stats = tmp_path / "stats.json"
        assert dispatch(["construct", "--input", g, "--a", "1", "--stats", str(stats)]) == 0
        assert json.loads(stats.read_text())["assertions_checked"] > 0

    def test_postcondition_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        def fake(G, a, W, **kwargs):
            raise PostconditionFailedError("construct: invalid decomposition: vertex 3 in no bag")

        monkeypatch.setattr(cli, "construct", fake)
        g = gr(tmp_path, path_graph(10))
        assert dispatch(["construct", "--input", g, "--a", "1"]) == 1
        assert "construct: invalid decomposition" in capsys.readouterr().err

    def test_dot_output(self, tmp_path):
        g = gr(tmp_path, path_graph(40))
        dot = tmp_path / "t.dot"
        assert dispatch(["construct", "--input", g, "--a", "1", "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("graph td {")


class TestValidate:
    def test_valid(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(30))
        tdf = tmp_path / "t.td"
        dispatch(["construct", "--input", g, "--a", "1", "--td", str(tdf)])
        capsys.readouterr()
        assert dispatch(["validate", "--input", g, "--td", str(tdf)]) == 0
        assert capsys.readouterr().out.startswith("valid, width ")

    def test_prints_width(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(3))
        tdf = tmp_path / "t.td"
        tdf.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert dispatch(["validate", "--input", g, "--td", str(tdf)]) == 0
        assert capsys.readouterr().out == "valid, width 1\n"

    def test_invalid(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(3))
        tdf = tmp_path / "bad.td"
        tdf.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")  # edge 2-3 uncovered
        assert dispatch(["validate", "--input", g, "--td", str(tdf)]) == 1

    def test_violations_in_file_ids(self, tmp_path, capsys):
        # the vertices and bags are named as the files number them, from 1
        g = tmp_path / "g.gr"
        g.write_text("p tw 3 1\n1 2\n")
        tdf = tmp_path / "t.td"
        tdf.write_text("s td 1 1 3\nb 1 1\n")
        assert dispatch(["validate", "--input", str(g), "--td", str(tdf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "edge (1,2) uncovered", "vertex 2 in no bag", "vertex 3 in no bag",
        ]

    def test_mismatched_sizes(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(4))
        tdf = tmp_path / "t.td"
        tdf.write_text("s td 1 1 1\nb 1 1\n")
        assert dispatch(["validate", "--input", g, "--td", str(tdf)]) == 1


class TestSepTw:
    def test_sep(self, tmp_path, capsys):
        g = gr(tmp_path, cycle_graph(9))
        assert dispatch(["sep", "--input", g]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_tw(self, tmp_path, capsys):
        g = gr(tmp_path, cycle_graph(9))
        assert dispatch(["tw", "--input", g]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_over_limit(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(30))
        assert dispatch(["tw", "--input", g]) == 2

    @pytest.mark.parametrize("command", ["construct", "sep", "tw"])
    def test_no_exact_limit_option(self, tmp_path, capsys, command):
        # the size guards are constants: there is no option to move them
        g = gr(tmp_path, cycle_graph(9))
        assert dispatch([command, "--input", g, "--exact-limit", "20"]) == 2
        assert "--exact-limit" in capsys.readouterr().err


class TestTheorem2:
    def test_end_to_end(self, tmp_path, capsys):
        g = gr(tmp_path, cycle_graph(12))
        tdf = tmp_path / "t.td"
        assert dispatch(["theorem2", "--input", g, "--a", "2", "--td", str(tdf)]) == 0
        assert "width " in capsys.readouterr().out
        assert parse_td(tdf.read_text()).host_n == 12

    def test_auto_a(self, tmp_path, capsys):
        g = gr(tmp_path, path_graph(12))
        assert dispatch(["theorem2", "--input", g]) == 0

    def test_postcondition_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        # construct_theorem2 validates its own output: a bag missing a vertex
        # is a PostconditionFailedError, which the CLI reports with exit 1
        real = constructor.RootedTreeDecomposition

        def corrupt(host_n, parents, bags):
            return real(host_n, parents, bags[:-1] + (bags[-1] - {max(bags[-1])},))

        monkeypatch.setattr(constructor, "RootedTreeDecomposition", corrupt)
        g = gr(tmp_path, cycle_graph(12))
        assert dispatch(["theorem2", "--input", g, "--a", "2"]) == 1
        assert "error: construct_theorem2: invalid decomposition" in capsys.readouterr().err


class TestSuite:
    def test_config_run(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps(
                {
                    "instances": [
                        {"kind": "path", "params": {"n": 40}},
                        {"kind": "complete", "params": {"n": 7}},
                        {"kind": "gnp", "params": {"n": 12, "p": 0.3}},
                    ]
                }
            )
        )
        rep = tmp_path / "report.json"
        assert dispatch(["suite", "--config", str(cfg), "--report", str(rep)]) == 0
        assert capsys.readouterr().out == "3/3 passed\n"
        blob = json.loads(rep.read_text())
        assert blob["passed"] and blob["total"] == 3

    def test_instance_id_names_its_record(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps({"instances": [{"kind": "path", "params": {"n": 12}, "id": "short-path"}]})
        )
        rep = tmp_path / "report.json"
        assert dispatch(["suite", "--config", str(cfg), "--report", str(rep)]) == 0
        assert [r["graph_id"] for r in json.loads(rep.read_text())["records"]] == ["short-path"]

    def test_failing_instance_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps(
                {"instances": [{"kind": "grid", "params": {"rows": 6, "cols": 6}, "a": 1}]}
            )
        )
        assert dispatch(["suite", "--config", str(cfg)]) == 1

    def test_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text("{nope")
        assert dispatch(["suite", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "config,named",
        [
            ([], "JSON object"),
            ({"instances": 5}, "'instances'"),
            ({"instances": ["path"]}, "suite instance 0"),
            ({"instances": [{"params": {"n": 5}}]}, "'kind'"),
            ({"instances": [], "exact_limt": 5}, "'exact_limt'"),
            ({"instances": [], "exact_limit": 14}, "'exact_limit'"),
            ({"instances": [{"kind": "path", "parms": {"n": 5}}]}, "'parms'"),
            ({"instances": [{"kind": "path", "params": {"n": 5}, "a": "2"}]}, "suite instance 0: 'a'"),
            ({"instances": [{"kind": "path", "params": {"n": 5}, "a": 0}]}, "suite instance 0: 'a'"),
            ({"instances": [{"kind": "path", "params": {"n": 5}, "a": True}]}, "suite instance 0: 'a'"),
            ({"instances": [], "seed": 1.5}, "suite config: 'seed'"),
            ({"instances": [{"kind": "path", "params": [5]}]}, "suite instance 0: 'params'"),
            ({"instances": [{"kind": 3}]}, "suite instance 0: 'kind'"),
            ({"instances": [{"kind": "path", "id": 7}]}, "suite instance 0: 'id'"),
            ({"instances": [{"kind": "path", "params": {"n": 5}}, {"kind": "star"}]}, "suite instance 1: unknown generator kind 'star'"),
            ({"instances": [{"kind": "path", "params": {"m": 5}}]}, "suite instance 0: path: unknown param 'm'"),
            ({"instances": [{"kind": "gnp", "params": {"n": 5}}]}, "suite instance 0: gnp: missing param 'p'"),
            ({"instances": [{"kind": "path", "params": {"n": 1.5}}]}, "suite instance 0: path: param 'n'"),
            ({"instances": [{"kind": "grid", "params": {"k": 3}}]}, "suite instance 0: grid: unknown param 'k'"),
        ],
        ids=[
            "top_level_list",
            "instances_not_list",
            "instance_not_object",
            "instance_without_kind",
            "misspelt_key",
            "removed_key",
            "misspelt_instance_key",
            "a_string",
            "a_zero",
            "a_bool",
            "seed_float",
            "params_not_object",
            "kind_not_string",
            "id_not_string",
            "unknown_kind",
            "unknown_param",
            "missing_param",
            "param_not_integral",
            "grid_k_alias",
        ],
    )
    def test_malformed_config(self, tmp_path, capsys, config, named):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(config))
        assert dispatch(["suite", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert dispatch(["sep", "--input", "/nonexistent.gr"]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p tw 3 2\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
            ("p tw 3 2\n1 2\n2 2\n", "line 3: self-loop edge 2 2"),
        ],
    )
    def test_repeated_edge_or_self_loop_in_input(self, tmp_path, capsys, text, message):
        g = tmp_path / "bad.gr"
        g.write_text(text)
        assert dispatch(["sep", "--input", str(g)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
