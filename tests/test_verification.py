import json
from fractions import Fraction

import pytest

from sepdecomp.errors import PreconditionFailedError, SizeLimitExceededError
from sepdecomp.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_tree,
)
from sepdecomp.graph import Separation, build_graph
from sepdecomp.decomposition import validate_decomposition, width
from sepdecomp import constructor, kernels, verification
from sepdecomp.constructor import construct_theorem2
from sepdecomp.separations import (
    EXACT_LIMIT_SEP_NUMBER,
    EXACT_LIMIT_SEPARATION,
    min_balanced_separation,
    min_w_balanced_separation,
    separation_number,
)
from sepdecomp.verification import (
    EXACT_LIMIT_TREEWIDTH,
    InstanceSpec,
    SuiteConfig,
    check_sep_le_tw,
    check_zw_inequality,
    run_suite,
    structural_a,
    treewidth_exact,
)
from sepdecomp.wsequence import build_w_sequence


def _replace(ws, **change):
    """The record `ws` rebuilt from its fields, with those in `change` replaced."""
    return type(ws)(**{f: getattr(ws, f) for f in ws._fields} | change)


class TestTreewidth:
    @pytest.mark.parametrize(
        "G,tw",
        [
            (complete_graph(1), 0),
            (path_graph(7), 1),
            (random_tree(10, seed=2), 1),
            (cycle_graph(5), 2),
            (complete_graph(5), 4),
            (build_graph(4, []), 0),
        ],
    )
    def test_known_values(self, G, tw):
        res = treewidth_exact(G)
        assert res.value == tw

    def test_witness_validates(self):
        for seed in range(6):
            G = gnp_graph(9, 0.35, seed)
            res = treewidth_exact(G)
            ok, v = validate_decomposition(G, res.decomposition)
            assert ok, v
            assert width(res.decomposition) == res.value
            assert sorted(res.elimination_order) == list(range(G.n))

    def test_empty_graph(self):
        res = treewidth_exact(build_graph(0, []))
        assert res.value == -1 or res.value == 0  # single empty bag: width -1
        assert res.value == width(res.decomposition)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceededError):
            treewidth_exact(path_graph(20))


class _Worked(Exception):
    pass


def _no_work(*args, **kwargs):
    raise _Worked


class TestSizeGuards:
    """Each exact search refuses n = its limit + 1 before any search starts,
    and at n = its limit gets as far as its kernel (stubbed out here)."""

    @pytest.mark.parametrize(
        "call,limit",
        [
            (min_balanced_separation, EXACT_LIMIT_SEPARATION),
            (lambda G: min_w_balanced_separation(G, {0}), EXACT_LIMIT_SEPARATION),
            (separation_number, EXACT_LIMIT_SEP_NUMBER),
            (treewidth_exact, EXACT_LIMIT_TREEWIDTH),
            (check_sep_le_tw, EXACT_LIMIT_SEP_NUMBER),
            (lambda G: construct_theorem2(G, 1), EXACT_LIMIT_SEPARATION),
        ],
        ids=[
            "min_balanced_separation",
            "min_w_balanced_separation",
            "separation_number",
            "treewidth_exact",
            "check_sep_le_tw",
            "construct_theorem2",
        ],
    )
    def test_limit(self, call, limit, monkeypatch):
        for name in ("min_w_balanced_separation", "min_balanced_separation", "separation_number", "treewidth"):
            monkeypatch.setattr(kernels, name, _no_work)
        monkeypatch.setattr(constructor, "separators", _no_work)
        with pytest.raises(SizeLimitExceededError) as ei:
            call(path_graph(limit + 1))
        assert (ei.value.n, ei.value.limit) == (limit + 1, limit)
        with pytest.raises(_Worked):
            call(path_graph(limit))


class TestZWInequality:
    def _ws(self, G, W, w):
        return build_w_sequence(G, W, w)

    def test_trivial_b_equals_top(self):
        # A = emptyset, B = top level: LHS = 0, inequality holds
        G = path_graph(8)
        ws = self._ws(G, {0}, 1)
        assert ws.ell >= 1
        top = ws.levels[-1]
        chk = check_zw_inequality(G, ws, Separation(frozenset(), top))
        assert chk.holds and chk.lhs == 0

    def test_a_equals_top(self):
        # A = top level, B = A also works: LHS counts nothing outside B
        G = path_graph(8)
        ws = self._ws(G, {0}, 1)
        top = ws.levels[-1]
        chk = check_zw_inequality(G, ws, Separation(top, top))
        assert chk.holds and chk.lhs == 0 and chk.rhs == 3 * len(top)

    def test_balanced_separator_case(self):
        G = path_graph(12)
        ws = self._ws(G, {0}, 1)
        top = sorted(ws.levels[-1])
        k = len(top)
        mid = top[k // 2]
        A = frozenset(v for v in top if v <= mid)
        B = frozenset(v for v in top if v >= mid)
        chk = check_zw_inequality(G, ws, Separation(A, B))
        assert isinstance(chk.rhs, Fraction)
        # exact rational arithmetic: rhs = (13/6)|A\B|/(l+2) + 3|A n B|
        ell = ws.ell
        assert chk.rhs == Fraction(13, 6) * len(A - B) / (ell + 2) + 3 * len(A & B)
        assert chk.holds

    def test_requires_ell_at_least_one(self):
        G = build_graph(3, [(1, 2)])
        ws = build_w_sequence(G, {0}, 1)  # isolated W: l = 0
        with pytest.raises(PreconditionFailedError):
            check_zw_inequality(
                G, ws, Separation(frozenset(), ws.levels[-1])
            )

    def test_rejects_invalid_w_sequence(self):
        G = path_graph(8)
        ws = _replace(self._ws(G, {0}, 1), width_w=2)  # breaks (b)
        with pytest.raises(PreconditionFailedError, match="invalid W-sequence"):
            check_zw_inequality(G, ws, Separation(frozenset(), ws.levels[-1]))

    def test_rejects_non_cover(self):
        G = path_graph(8)
        ws = self._ws(G, {0}, 1)
        with pytest.raises(PreconditionFailedError):
            check_zw_inequality(G, ws, Separation(frozenset(), frozenset({0})))

    def test_rejects_non_separation(self):
        G = path_graph(8)
        ws = self._ws(G, {0}, 1)
        top = sorted(ws.levels[-1])
        # splitting consecutive path vertices into disjoint sides leaves a
        # crossing edge, so (A, B) is not a separation of the top level
        A = frozenset(top[:1])
        B = frozenset(top[1:])
        with pytest.raises(PreconditionFailedError):
            check_zw_inequality(G, ws, Separation(A, B))


    def test_edges_leaving_the_top_level_are_ignored(self):
        # path 0-5 with W = {0, 2} and w = 2: the top level is {0..4}; the
        # edge 4-5 leaves A \ B = {4} for the rest of G, which is allowed
        G = path_graph(6)
        ws = self._ws(G, {0, 2}, 2)
        assert ws.levels[-1] == frozenset(range(5))
        chk = check_zw_inequality(G, ws, Separation(frozenset({3, 4}), frozenset(range(4))))
        assert chk.lhs == 1 and chk.holds
        with pytest.raises(PreconditionFailedError):
            check_zw_inequality(G, ws, Separation(frozenset({4}), frozenset(range(4))))


class TestSepLeTw:
    @pytest.mark.parametrize(
        "G",
        [complete_graph(1), complete_graph(6), path_graph(9), cycle_graph(9)],
    )
    def test_structured(self, G):
        assert check_sep_le_tw(G)

    def test_random(self):
        for seed in range(10):
            assert check_sep_le_tw(gnp_graph(8, 0.4, seed))


class TestSuite:
    def test_empty_config_passes(self):
        rep = run_suite(SuiteConfig(instances=()))
        assert rep.passed and rep.to_json()["total"] == 0

    def test_mixed_corpus(self):
        cfg = SuiteConfig(
            instances=(
                InstanceSpec("path", {"n": 60}),
                InstanceSpec("cycle", {"n": 50}),
                InstanceSpec("tree", {"n": 40}),
                InstanceSpec("complete", {"n": 8}),
                InstanceSpec("grid", {"rows": 4, "cols": 6}, a=4),
                InstanceSpec("gnp", {"n": 12, "p": 0.3}),
            ),
            seed=1,
        )
        rep = run_suite(cfg)
        assert rep.passed, [r.error for r in rep.records if not r.passed]
        blob = rep.to_json()
        assert blob["failures"] == 0 and blob["total"] == 6
        json.dumps(blob)  # must be serializable as-is
        small = [r for r in rep.records if r.n <= 14]
        assert all(r.sep is not None and r.tw is not None for r in small)
        assert all(r.sep <= r.tw + 1 for r in small)

    def test_failure_recorded_not_raised(self):
        cfg = SuiteConfig(
            instances=(InstanceSpec("grid", {"rows": 6, "cols": 6}, a=1),)
        )
        rep = run_suite(cfg)
        assert not rep.passed
        assert rep.records[0].error

    def test_width_bound_is_strict(self, monkeypatch):
        # 139*(7914+1) == 7915*139: a bag of exactly c*a vertices breaks the
        # bound; construct enforces it, and the suite records its failure
        def one_bag(G, a, W, oracle, stats):
            return [-1], [G.full_mask()]  # the parents and bag masks of one bag

        monkeypatch.setattr(constructor, "_construct", one_bag)
        rep = run_suite(SuiteConfig(instances=(
            InstanceSpec("path", {"n": 7914}, a=139), InstanceSpec("path", {"n": 7915}, a=139),
        )))
        fits, breaks = rep.records
        assert fits.validated and fits.bound_ok and fits.passed and fits.width == 7913
        assert not (breaks.validated or breaks.bound_ok or breaks.passed)
        assert "width 7914 violates the (7915/139)*a bound for a=139" in breaks.error

    def test_separation_number_computed_once(self, monkeypatch):
        # a small instance without "a" uses its exact sep both as a and in the record
        real = verification.separation_number
        calls = []

        def counted(G):
            calls.append(G.n)
            return real(G)

        monkeypatch.setattr(verification, "separation_number", counted)
        rep = run_suite(SuiteConfig(instances=(InstanceSpec("gnp", {"n": 12, "p": 0.3}),)))
        record = rep.records[0]
        assert rep.passed and calls == [12]
        assert record.a_used == record.sep

    def test_ceil_n_over_3_fallback(self):
        # past the exact limit, a gnp instance without "a" has no exact or
        # structural value and runs at a = ceil(n/3)
        rep = run_suite(SuiteConfig(instances=(InstanceSpec("gnp", {"n": 20, "p": 0.3}),)))
        record = rep.records[0]
        assert rep.passed, record.error
        assert (record.n, record.sep, record.tw, record.a_used) == (20, None, None, 7)

    def test_deterministic(self):
        cfg = SuiteConfig(instances=(InstanceSpec("gnp", {"n": 13, "p": 0.25}),))

        def strip_timing(blob):
            for r in blob["records"]:
                r.pop("elapsed_ms")
            return blob

        a = strip_timing(run_suite(cfg).to_json())
        b = strip_timing(run_suite(cfg).to_json())
        assert a == b


class TestStructuralA:
    def test_values(self):
        assert structural_a("path", path_graph(5)) == 1
        assert structural_a("tree", random_tree(5, seed=0)) == 1
        assert structural_a("cycle", cycle_graph(3)) == 1
        assert structural_a("cycle", cycle_graph(8)) == 2
        assert structural_a("complete", complete_graph(7)) == 3
        assert structural_a("gnp", gnp_graph(5, 0.5, 0)) is None
