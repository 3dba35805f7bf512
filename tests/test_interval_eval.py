"""Interval evaluator (Section VI) vs the reference semantics, plus its
fragment boundaries and the coalesced-output conventions of Table II."""
import pytest

from repro.tpg.generator import contact_tracing
from repro.tpg.model import ITPGData, SparkITPG
from repro.trpq import ast
from repro.trpq import queries as Q
from repro.trpq.interval_eval import IntervalEvaluator, UnsupportedFragment
from repro.trpq.match import (
    eval_match_interval,
    eval_match_local,
    out_columns,
    segment_asts,
)
from repro.trpq.semantics import LocalTPG, eval_path as ref_eval
from tests.conftest import ALL_QUERIES


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_queries_match_reference(name, fig1_interval_results, fig1_expected):
    assert fig1_interval_results[name] == fig1_expected[name]


@pytest.mark.parametrize("name", ("Q1", "Q2", "Q5", "Q6", "Q8", "Q9", "Q10", "Q11", "Q12"))
def test_gen_graph_matches_reference(name, gen_interval_ev, gen_local):
    """Same check on a generated contact-tracing graph."""
    q = Q.query(name)
    got = {
        tuple(r)
        for r in eval_match_interval(gen_interval_ev, q)
        .points()
        .select(*out_columns(q))
        .collect()
    }
    assert got == eval_match_local(gen_local, q)


def link_points(rows) -> set[tuple]:
    """Expand box/box/band rows to their ``(o1, t1, o2, t2)`` tuples."""
    got = set()
    for row in rows:
        lo = row["dmin"] if row["dmin"] is not None else -(10**9)
        hi = row["dmax"] if row["dmax"] is not None else 10**9
        for t1 in range(row["s1"], row["e1"] + 1):
            for t2 in range(max(row["s2"], t1 + lo), min(row["e2"], t1 + hi) + 1):
                got.add((row["o1"], t1, row["o2"], t2))
    return got


class TestLinkRelations:
    """eval_link against the reference ⟦·⟧ (expanded to points)."""

    LINKS = [
        ast.seq(ast.TestExpr(ast.LabelTest("Person")), ast.F),
        ast.seq(ast.TestExpr(ast.NODE), ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS), ast.F),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.P, ast.EXISTS), 1, 3)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.seq(ast.N, ast.EXISTS), 2, 2), ast.TestExpr(ast.EXISTS)),
        ast.seq(ast.TestExpr(ast.PropTest("test", "pos")), ast.P, ast.TestExpr(ast.EXISTS)),
        ast.seq(
            ast.TestExpr(ast.NODE),
            ast.union(
                ast.seq(ast.F, ast.AndTest(ast.LabelTest("meets"), ast.EXISTS), ast.F),
                ast.seq(ast.F, ast.AndTest(ast.LabelTest("visits"), ast.EXISTS), ast.F),
            ),
        ),
        ast.seq(ast.TestExpr(ast.NotTest(ast.EXISTS)), ast.N),
        ast.seq(ast.TestExpr(ast.AndTest(ast.NODE, ast.LtTest(5))), ast.Repeat(ast.N, 0, 3)),
        ast.seq(ast.TestExpr(ast.EXISTS), ast.Repeat(ast.P, 2, None)),
        # several temporal segments in one link
        ast.seq(
            ast.TestExpr(ast.NODE),
            ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, None),
            ast.F,
            ast.F,
            ast.Repeat(ast.seq(ast.P, ast.EXISTS), 0, None),
        ),
        ast.seq(
            ast.TestExpr(ast.EXISTS),
            ast.Repeat(ast.seq(ast.P, ast.EXISTS), 0, None),
            ast.F,
            ast.AndTest(ast.LabelTest("meets"), ast.EXISTS),
            ast.F,
            ast.Repeat(ast.seq(ast.N, ast.EXISTS), 0, 12),
            ast.TestExpr(ast.PropTest("test", "pos")),
        ),
        ast.seq(
            ast.TestExpr(ast.EXISTS),
            ast.N,
            ast.N,
            ast.P,
            ast.Repeat(ast.P, 0, 2),
            ast.TestExpr(ast.EXISTS),
        ),
        # static tests folded into one filter over the objects
        ast.seq(
            ast.TestExpr(ast.AndTest(ast.NODE, ast.LabelTest("Person"))),
            ast.B,
            ast.TestExpr(ast.EXISTS),
        ),
        ast.seq(
            ast.TestExpr(ast.AndTest(ast.LabelTest("meets"), ast.EXISTS)),
            ast.F,
            ast.TestExpr(ast.AndTest(ast.NODE, ast.LabelTest("Person"))),
        ),
        ast.seq(
            ast.TestExpr(ast.NODE),
            ast.F,
            ast.TestExpr(ast.OrTest(ast.LabelTest("meets"), ast.LabelTest("visits"))),
            ast.F,
            ast.TestExpr(ast.OrTest(ast.LabelTest("Person"), ast.LabelTest("Room"))),
        ),
        ast.seq(ast.TestExpr(ast.NotTest(ast.LabelTest("Person"))), ast.B),
    ]

    @pytest.mark.parametrize("idx", range(len(LINKS)))
    def test_link_matches_reference(self, idx, fig1_interval_ev, fig1_local):
        link = self.LINKS[idx]
        got = link_points(fig1_interval_ev.eval_link(link).collect())
        assert got == ref_eval(fig1_local, link)

    def test_step_without_middle_witness_is_dropped(self, spark):
        """``o`` is absent at 3..5. From t1 = 2, ``N[1,3]/<4`` ends at
        t2 = 3, so ``(N/∃)[1,12]`` cannot reach ``o``'s second existence
        interval; the composed row must go although its t1 and t3 boxes
        are both non-empty."""
        data = ITPGData.build((1, 10), [("o", "A", [(1, 2), (6, 9)], {})], [])
        link = ast.seq(
            ast.TestExpr(ast.EXISTS),
            ast.Repeat(ast.N, 1, 3),
            ast.TestExpr(ast.LtTest(4)),
            ast.Repeat(ast.seq(ast.N, ast.EXISTS), 1, 12),
        )
        ev = IntervalEvaluator(SparkITPG.from_data(spark, data))
        got = link_points(ev.eval_link(link).collect())
        assert got == ref_eval(LocalTPG.from_data(data), link)


def _executed_plan_nodes(df) -> list[str]:
    """Class names of the nodes of ``df``'s executed plan, cached inputs
    included. ``df`` is collected first; both the initial and the final
    adaptive plan are walked, since on a small graph adaptive execution
    may drop a join whose input came out empty."""
    df.collect()
    names, stack = [], [df._jdf.queryExecution().executedPlan()]
    while stack:
        node = stack.pop()
        name = node.getClass().getSimpleName()
        if name == "AdaptiveSparkPlanExec":
            stack += [node.initialPlan(), node.executedPlan()]
        elif name.endswith("QueryStageExec"):
            stack.append(node.plan())
        elif name == "InMemoryTableScanExec":
            stack.append(node.relation().cacheBuilder().cachedPlan())
        else:
            names.append(name)
            kids = node.children()
            stack.extend(kids.apply(i) for i in range(kids.size()))
    return names


class TestPhysicalPlan:
    """Steps 1–2 join the static graph side by broadcast even with
    automatic broadcasting off, and the evaluator caches nothing."""

    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_links_have_no_sort_merge_join(self, name, spark, gen_interval_ev):
        assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
        for seg in segment_asts(Q.query(name)):
            nodes = _executed_plan_nodes(gen_interval_ev.eval_link(seg))
            assert "SortMergeJoinExec" not in nodes, str(seg)

    def test_static_tests_are_one_filter(self, fig1_interval_ev):
        static = ast.AndTest(
            ast.NODE, ast.OrTest(ast.LabelTest("Person"), ast.LabelTest("Room"))
        )
        nodes = _executed_plan_nodes(fig1_interval_ev.test_table(static))
        assert not [n for n in nodes if "Join" in n]
        negated = _executed_plan_nodes(
            fig1_interval_ev.test_table(ast.NotTest(ast.LabelTest("Person")))
        )
        assert "WindowExec" in negated  # the complement_intervals path

    def test_evaluator_leaves_no_cache_entries(self, spark):
        """On a graph no other test loads: ``cache()`` of a plan that is
        already cached adds no entry, and two graphs loaded from equal data
        have equal plans."""
        g = SparkITPG.from_data(spark, contact_tracing(persons=20, positivity=0.2, seed=23))
        cm = spark._jsparkSession.sharedState().cacheManager()
        try:
            before = cm.numCachedEntries()
            ib = eval_match_interval(IntervalEvaluator(g), Q.query("Q10"))
            ib.materialize()
            ib.df.unpersist(blocking=True)
            assert cm.numCachedEntries() == before
        finally:
            for df in (g.objects, g.exist, g.props):
                df.unpersist(blocking=True)


class TestFragmentBoundaries:
    def test_path_condition_unsupported(self, fig1_interval_ev):
        link = ast.seq(
            ast.TestExpr(ast.PathTest(ast.F)), ast.F
        )
        with pytest.raises(UnsupportedFragment):
            fig1_interval_ev.eval_link(link).count()

    def test_structural_repeat_unsupported(self, fig1_interval_ev):
        link = ast.seq(ast.TestExpr(ast.NODE), ast.Repeat(ast.seq(ast.F, ast.F), 0, None))
        with pytest.raises(UnsupportedFragment):
            fig1_interval_ev.eval_link(link)

    def test_two_temporal_links_unsupported(self, fig1_interval_ev):
        from repro.trpq.parser import parse_match

        q = parse_match("MATCH (x)-/NEXT/-(y)-/PREV/-(z) ON g")
        with pytest.raises(UnsupportedFragment):
            eval_match_interval(fig1_interval_ev, q)


class TestCoalescedOutput:
    def test_q5_coalesced_matches_paper(self, fig1_interval_ev):
        """Section VI's coalesced Q5 table: two interval rows."""
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q5"))
        rows = {
            (r["x"], r["z"], r["y"], r["s"], r["e"])
            for r in ib.coalesced().collect()
        }
        assert rows == {
            ("n1", "e1", "n2", 5, 6),
            ("n2", "e2", "n3", 1, 2),
        }

    def test_q1_coalesced_is_existence_intervals(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q1"))
        rows = {(r["x"], r["s"], r["e"]) for r in ib.coalesced().collect()}
        assert rows == {
            ("n1", 1, 9), ("n2", 1, 9), ("n3", 1, 7), ("n6", 2, 9), ("n7", 4, 9)
        }

    def test_coalesced_requires_aligned(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q6"))
        with pytest.raises(UnsupportedFragment):
            ib.coalesced()

    @pytest.mark.parametrize("name", Q.STRUCTURAL_ONLY)
    def test_structural_queries_are_aligned(self, name, fig1_interval_ev):
        """No temporal link: every variable sits at t1."""
        ib = eval_match_interval(fig1_interval_ev, Q.query(name))
        assert ib.vars_post == []

    @pytest.mark.parametrize("name", [n for n in Q.TABLE2 if n not in Q.STRUCTURAL_ONLY])
    def test_temporal_queries_are_offset(self, name, fig1_interval_ev):
        """The pattern before the temporal link is captured at t1."""
        ib = eval_match_interval(fig1_interval_ev, Q.query(name))
        assert ib.vars_pre


class TestVariableSides:
    def test_q7_pre_post_split(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q7"))
        assert ib.vars_pre == ["x"]
        assert ib.vars_post == ["y", "z"]

    def test_q9_only_pre(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("Q9"))
        assert ib.vars_pre == ["x"] and ib.vars_post == []

    def test_intro_pre_and_post(self, fig1_interval_ev):
        ib = eval_match_interval(fig1_interval_ev, Q.query("INTRO"))
        assert ib.vars_pre == ["x"] and ib.vars_post == ["y"]
