"""MATCH-clause evaluation: from per-link path relations to binding tables.

A parsed MATCH clause is a chain ``pattern - link - pattern - ...``; each
link (together with its endpoint pattern tests) is one NavL[PC,NOI]
expression. The binding table of the clause (the paper's tables with
columns ``x, x_time, y, y_time, ...``) is the join of the per-link
relations on the shared chain positions.

Three backends share this logic:

* :func:`eval_match_point`   — Spark point evaluator (full language);
* :func:`eval_match_local`   — pure-Python reference semantics (oracle);
* :func:`eval_match_interval`— Section VI interval evaluator; returns an
  :class:`IntervalBindings` that separates Steps 1–2 (interval relation)
  from Step 3 (``points()`` expansion), so benchmarks can time them the
  way Table II reports them.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..tpg.sparkutil import coalesce_intervals
from . import ast
from .interval_eval import (
    REL_COLS,
    IntervalEvaluator,
    UnsupportedFragment,
    _contains_temporal,
    compose,
)
from .parser import MatchQuery
from .semantics import LocalTPG, eval_path
from .spark_eval import PointEvaluator

_RESERVED = {"o1", "o2", "s", "e", "s1", "e1", "s2", "e2", "dmin", "dmax", "_cur", "t", "t1", "t2"}


def segment_asts(q: MatchQuery) -> list[ast.Path]:
    """One NavL expression per link: ``test_i / link_i / test_{i+1}``.

    A clause with a single pattern yields the bare pattern test.
    """
    pats, links = q.patterns, q.links
    for v in q.vars:
        if v in _RESERVED:
            raise ValueError(f"variable name {v!r} is reserved")
    if len(q.vars) != len(set(q.vars)):
        raise ValueError("duplicate variable names are not supported")
    if not links:
        return [ast.seq(ast.TestExpr(pats[0].test()))]
    return [
        ast.seq(ast.TestExpr(pats[i].test()), links[i], ast.TestExpr(pats[i + 1].test()))
        for i in range(len(links))
    ]


def out_columns(q: MatchQuery) -> list[str]:
    """Binding-table column names in order: ``x, x_time, y, y_time, ...``."""
    cols: list[str] = []
    for v in q.vars:
        cols += [v, f"{v}_time"]
    return cols


# ----------------------------------------------------------- point backend


def eval_match_point(ev: PointEvaluator, q: MatchQuery) -> DataFrame:
    """Binding table via the point-based evaluator (columns per
    :func:`out_columns`)."""
    segs = segment_asts(q)
    pats = q.patterns

    def tag(df: DataFrame, left_idx: int) -> DataFrame:
        lv, rv = pats[left_idx].var, pats[left_idx + 1].var if left_idx + 1 < len(pats) else None
        sel = [F.col("o2").alias("_cur"), F.col("t2").alias("_curt")]
        if lv:
            sel = [F.col("o1").alias(lv), F.col("t1").alias(f"{lv}_time")] + sel
        if rv:
            sel += [F.col("o2").alias(rv), F.col("t2").alias(f"{rv}_time")]
        return df.select(*sel)

    first = ev.rel(segs[0])
    if len(pats) == 1:
        v = pats[0].var
        out = first.select(F.col("o1").alias(v), F.col("t1").alias(f"{v}_time"))
        return out.distinct()
    acc = tag(first, 0)
    for i in range(1, len(segs)):
        rel = ev.rel(segs[i])
        rv = pats[i + 1].var
        sel = [
            F.col("o1").alias("_cur"),
            F.col("t1").alias("_curt"),
            F.col("o2").alias("_nxt"),
            F.col("t2").alias("_nxtt"),
        ]
        rel = rel.select(*sel)
        acc = (
            acc.join(rel, on=["_cur", "_curt"])
            .drop("_cur", "_curt")
            .withColumnRenamed("_nxt", "_cur")
            .withColumnRenamed("_nxtt", "_curt")
        )
        if rv:
            acc = acc.withColumn(rv, F.col("_cur")).withColumn(
                f"{rv}_time", F.col("_curt")
            )
    return acc.select(*out_columns(q)).distinct()


# ----------------------------------------------------------- local backend


def eval_match_local(g: LocalTPG, q: MatchQuery) -> set[tuple]:
    """Binding table via the reference semantics, as a set of row tuples
    ordered per :func:`out_columns`."""
    segs = segment_asts(q)
    pats = q.patterns
    rels = [eval_path(g, s) for s in segs]
    if len(pats) == 1:
        return {(o1, t1) for o1, t1, _, _ in rels[0]}
    # rows: dict from chain position values; start with first link
    rows = [((o1, t1), (o2, t2)) for o1, t1, o2, t2 in rels[0]]
    chains = [list(r) for r in rows]
    for rel in rels[1:]:
        index: dict[tuple, list[tuple]] = {}
        for o1, t1, o2, t2 in rel:
            index.setdefault((o1, t1), []).append((o2, t2))
        chains = [c + [nxt] for c in chains for nxt in index.get(c[-1], ())]
    out: set[tuple] = set()
    for c in chains:
        row: list = []
        for pat, (o, t) in zip(pats, c):
            if pat.var:
                row += [o, t]
        out.add(tuple(row))
    return out


# -------------------------------------------------------- interval backend


def _q(name: str) -> str:
    """A column name quoted for a SQL expression."""
    return f"`{name}`"


@dataclass
class IntervalBindings:
    """Composed interval relation for a whole MATCH chain (Steps 1–2).

    ``df`` carries one object column per captured variable plus the
    box/box/band columns ``(s1, e1, s2, e2, dmin, dmax)`` of
    :mod:`.interval_eval`. Variables before the chain's temporal link
    (``vars_pre``) sit at ``t1``, the rest (``vars_post``) at ``t2``; a
    chain without a temporal link has every variable in ``vars_pre`` and
    ``t2 = t1``.
    """

    df: DataFrame
    vars_pre: list[str]
    vars_post: list[str]

    @property
    def vars(self) -> list[str]:
        return self.vars_pre + self.vars_post

    def materialize(self) -> int:
        """Force Steps 1–2 (the paper's "interval-based time")."""
        self.df = self.df.cache()
        return self.df.count()

    # ------------------------------------------------------------- Step 3
    def points(self, distinct: bool = True) -> DataFrame:
        """Point-wise expansion to the binding table (Step 3).

        ``distinct=False`` keeps duplicate bindings (bag semantics). The
        paper's Table II output sizes for the temporal-navigation queries
        are bag counts — Q11's 22.9M tuples exceed the graph's 4.8M
        (person, time) pairs, so its dataflow implementation does not
        deduplicate — and the benchmark harness mirrors that convention:
        every valid ``(t1, t2)`` witness pair is expanded, then projected
        to the captured variables.
        """
        if distinct and not (self.vars_pre and self.vars_post):
            out = self._projected().selectExpr(
                *map(_q, self.vars), "explode(sequence(s, e)) AS t"
            )
            times = {v: "t" for v in self.vars}
        else:
            out = self._expand_pairs()
            times = {**{v: "t1" for v in self.vars_pre}, **{v: "t2" for v in self.vars_post}}
        out = out.selectExpr(
            *[c for v in self.vars for c in (_q(v), f"{times[v]} AS {_q(v + '_time')}")]
        )
        return out.distinct() if distinct else out

    def _projected(self) -> DataFrame:
        """``(vars..., s, e)``: each row projected onto the time of the
        one side that holds every captured variable."""
        if self.vars_post:
            lo, hi = "greatest(s2, s1 + dmin)", "least(e2, e1 + dmax)"
        else:
            lo, hi = "greatest(s1, s2 - dmax)", "least(e1, e2 - dmin)"
        return self.df.selectExpr(
            *map(_q, self.vars), f"{lo} AS s", f"{hi} AS e"
        ).filter("s <= e")

    def _expand_pairs(self) -> DataFrame:
        """``(vars..., t1, t2)``: every valid witness pair of every row."""
        lo1, hi1 = "greatest(s1, s2 - dmax)", "least(e1, e2 - dmin)"
        lo2, hi2 = "greatest(s2, t1 + dmin)", "least(e2, t1 + dmax)"
        vs = list(map(_q, self.vars))
        return (
            self.df.filter(f"{lo1} <= {hi1}")
            .selectExpr(*vs, "s2", "e2", "dmin", "dmax", f"explode(sequence({lo1}, {hi1})) AS t1")
            .filter(f"{lo2} <= {hi2}")
            .selectExpr(*vs, "t1", f"explode(sequence({lo2}, {hi2})) AS t2")
        )

    def coalesced(self) -> DataFrame:
        """Temporally coalesced output: one row per variable tuple and
        maximal interval (Q1–Q5 style). Needs every captured variable on
        one side of the chain."""
        if self.vars_pre and self.vars_post:
            raise UnsupportedFragment(
                "coalesced output needs every captured variable at one time"
            )
        return coalesce_intervals(self._projected(), self.vars)


def eval_match_interval(ev: IntervalEvaluator, q: MatchQuery) -> IntervalBindings:
    """Evaluate the chain on the interval backend (Steps 1–2 only).

    Each link relation is joined to the chain on the shared pattern and
    composed with it (:func:`.interval_eval.compose`). At most one link may
    be temporal: a variable captured between two temporal links would need
    a third time column.
    """
    segs = segment_asts(q)
    pats = q.patterns
    temporal = [i for i, s in enumerate(segs) if _contains_temporal(s)]
    if len(temporal) > 1:
        raise UnsupportedFragment("more than one temporal link in a MATCH chain")
    split = temporal[0] + 1 if temporal else len(pats)
    vars_pre = [p.var for p in pats[:split] if p.var]
    vars_post = [p.var for p in pats[split:] if p.var]
    links = [ev.eval_link(s) for s in segs]

    def named(idx: int, col: str) -> list[str]:
        v = pats[idx].var
        return [f"{col} AS {_q(v)}"] if v else []

    box = REL_COLS[2:]
    if len(pats) == 1:
        return IntervalBindings(links[0].selectExpr(*named(0, "o1"), *box), vars_pre, vars_post)
    acc = links[0].selectExpr(*named(0, "o1"), *named(1, "o2"), "o2 AS _cur", *box)
    for i in range(1, len(links)):
        rel = links[i].selectExpr("o1 AS _cur", "o2 AS _nxt", *[f"{c} AS _l{c}" for c in box])
        seen = [_q(p.var) for p in pats[: i + 1] if p.var]
        acc = compose(
            acc.join(rel, "_cur"),
            *[f"_l{c}" for c in box],
            keep=(*seen, *named(i + 1, "_nxt"), "_nxt AS _cur"),
        )
    return IntervalBindings(acc.drop("_cur"), vars_pre, vars_post)
