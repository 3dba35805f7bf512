"""Interval-based TRPQ evaluation (Section VI of the paper).

This is the paper's optimised implementation fragment over
interval-timestamped TPGs, decomposed exactly as in the paper:

* **Step 1** — structural navigation evaluated over the interval
  representation: tests intersect validity intervals, ``F``/``B`` join the
  static edge relation, nothing ever expands to time points;
* **Step 2** — temporal navigation by interval arithmetic: ``(N/∃)[n,m]``
  from ``(o, t)`` reaches ``(o, t')`` iff ``t'−t ∈ [max(n,1), m]`` and
  ``[t+1, t']`` lies inside a single *maximal* existence interval of ``o``
  (coalesced families make this an O(1) interval computation per pair),
  plus the trivial ``t' = t`` case when ``n = 0``;
* **Step 3** — point-wise expansion, performed by the match layer
  (``match.py``) only when the query needs point-based output (Q6–Q12).

Every relation has one shape, ``(o1, o2, s1, e1, s2, e2, dmin, dmax)``: the
path holds from ``(o1, t1)`` to ``(o2, t2)`` for every ``t1 ∈ [s1, e1]``,
``t2 ∈ [s2, e2]`` with ``t2 − t1 ∈ [dmin, dmax]`` (``NULL`` band bounds
mean ∓∞). A row is a box on ``t1``, a box on ``t2`` and a band on their
difference, i.e. a difference-bound matrix (Dill 1989). Structural rows are
the case ``dmin = dmax = 0``. Steps 1 and 2 act on the ``t2`` side; a
temporal block is a :func:`compose` with a step ``t2 → t3``, which
eliminates ``t2`` exactly (Fourier–Motzkin over unit-coefficient difference
constraints), so any number of temporal segments per link stays in the
fragment.

Outside the fragment (structural Kleene stars, nested path conditions) the
evaluator raises :class:`UnsupportedFragment`; the general point-based
evaluator covers those.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..tpg.model import SparkITPG
from ..tpg.sparkutil import complement_intervals, intersect_intervals
from . import ast


class UnsupportedFragment(Exception):
    """The expression falls outside the Section VI interval fragment."""


REL_COLS = ["o1", "o2", "s1", "e1", "s2", "e2", "dmin", "dmax"]


def _sql(v: Optional[int]) -> str:
    """An optional bound as a SQL literal (``None`` is ±∞, i.e. ``NULL``)."""
    return "CAST(NULL AS BIGINT)" if v is None else str(v)


def compose(
    df: DataFrame,
    us: str,
    ue: str,
    vs: str,
    ve: str,
    elo: str,
    ehi: str,
    keep: tuple = ("o1", "o2"),
) -> DataFrame:
    """Compose each row over ``(t1, t2)`` with a step to ``t3`` where
    ``t2 ∈ [us, ue]``, ``t3 ∈ [vs, ve]`` and ``t3 − t2 ∈ [elo, ehi]``.

    Eliminating ``t2`` leaves one box/box/band row over ``(t1, t3)``,
    returned as ``s1, e1, s2, e2, dmin, dmax`` after the ``keep`` columns;
    rows without a witness ``t2`` or with an empty box are dropped. The
    bounds and ``keep`` are SQL expressions over ``df``'s columns: one
    ``selectExpr`` costs a few Py4J calls where a ``select`` of ``Column``
    objects costs several per column. ``NULL`` bounds are ±∞:
    ``greatest``/``least`` skip them and sums with them stay ``NULL``.
    """
    lo, hi = f"greatest(s2, {us})", f"least(e2, {ue})"
    return (
        df.filter(f"{lo} <= {hi}")
        .selectExpr(
            *keep,
            f"greatest(s1, {lo} - dmax) AS s1",
            f"least(e1, {hi} - dmin) AS e1",
            f"greatest({vs}, {lo} + {elo}) AS s2",
            f"least({ve}, {hi} + {ehi}) AS e2",
            f"dmin + {elo} AS dmin",
            f"dmax + {ehi} AS dmax",
        )
        .filter("s1 <= e1 AND s2 <= e2")
    )


@dataclass(frozen=True)
class _TemporalAtom:
    axis: str  # 'N' | 'P'
    lo: int
    hi: Optional[int]  # None = unbounded
    require_exist: bool


def _as_temporal_atom(path: ast.Path) -> Optional[_TemporalAtom]:
    """Recognise ``N``/``P`` repetition blocks (``(N/∃)[n,m]`` etc.)."""
    if isinstance(path, ast.Repeat):
        inner = path.inner
        if isinstance(inner, ast.Axis) and inner.op in ("N", "P"):
            return _TemporalAtom(inner.op, path.lo, path.hi, False)
        if (
            isinstance(inner, ast.Seq)
            and len(inner.parts) == 2
            and isinstance(inner.parts[0], ast.Axis)
            and inner.parts[0].op in ("N", "P")
            and isinstance(inner.parts[1], ast.TestExpr)
            and isinstance(inner.parts[1].test, ast.ExistsTest)
        ):
            return _TemporalAtom(inner.parts[0].op, path.lo, path.hi, True)
    return None


def _contains_temporal(path: ast.Path) -> bool:
    if isinstance(path, ast.Axis):
        return path.op in ("N", "P")
    if isinstance(path, (ast.Seq, ast.Union)):
        return any(_contains_temporal(p) for p in path.parts)
    if isinstance(path, ast.Repeat):
        return _contains_temporal(path.inner)
    return False


def _static_pred(test: ast.Test) -> Optional[Column]:
    """A predicate over ``g.objects`` for a test whose truth does not
    depend on time (``Node``, ``Edge``, labels, and ``∧``/``∨`` of these),
    else ``None``. Such a test is one filter, not a join per conjunct."""
    if isinstance(test, ast.NodeTest):
        return F.col("kind") == "node"
    if isinstance(test, ast.EdgeTest):
        return F.col("kind") == "edge"
    if isinstance(test, ast.LabelTest):
        return F.col("label") == test.label
    if isinstance(test, (ast.AndTest, ast.OrTest)):
        left, right = _static_pred(test.left), _static_pred(test.right)
        if left is not None and right is not None:
            return left & right if isinstance(test, ast.AndTest) else left | right
    return None


class IntervalEvaluator:
    """Evaluates the Section VI fragment over a :class:`SparkITPG`.

    Nothing is cached here: test tables are memoised as DataFrame plans
    over the graph's cached tables, and every join against the static
    graph side (test tables, the F/B hop, existence intervals) is a
    broadcast hash join by hint.
    """

    def __init__(self, g: SparkITPG):
        self.g = g
        self._tmemo: dict[ast.Test, DataFrame] = {}
        self.edges = g.objects.filter(F.col("kind") == "edge").select("id", "src", "tgt")

    # -------------------------------------------------------- test tables
    def test_table(self, test: ast.Test) -> DataFrame:
        """Validity intervals ``(id, s, e)`` of a (path-condition-free)
        test over PTO(G) — Step 1's select inputs."""
        if test in self._tmemo:
            return self._tmemo[test]
        g = self.g
        lo, hi = g.omega
        full = lambda df: df.select(  # noqa: E731
            "id", F.lit(lo).cast("long").alias("s"), F.lit(hi).cast("long").alias("e")
        )
        pred = _static_pred(test)
        if pred is not None:
            out = full(g.objects.filter(pred))
        elif isinstance(test, ast.ExistsTest):
            out = g.exist.select("id", "s", "e")
        elif isinstance(test, ast.PropTest):
            out = g.props.filter(
                (F.col("p") == test.prop) & (F.col("v") == test.value)
            ).select("id", "s", "e")
        elif isinstance(test, ast.LtTest):
            if test.k - 1 < lo:
                out = g.objects.select("id").limit(0).select(
                    "id", F.lit(0).cast("long").alias("s"), F.lit(0).cast("long").alias("e")
                )
            else:
                out = g.objects.select(
                    "id",
                    F.lit(lo).cast("long").alias("s"),
                    F.lit(min(hi, test.k - 1)).cast("long").alias("e"),
                )
        elif isinstance(test, ast.AndTest):
            out = intersect_intervals(
                self.test_table(test.left), self.test_table(test.right), ["id"]
            )
        elif isinstance(test, ast.OrTest):
            out = self.test_table(test.left).unionByName(self.test_table(test.right))
        elif isinstance(test, ast.NotTest):
            out = complement_intervals(
                self.test_table(test.inner), g.objects.select("id"), lo, hi
            )
        elif isinstance(test, ast.PathTest):
            raise UnsupportedFragment(
                "path conditions (?path) are outside the interval fragment"
            )
        else:
            raise TypeError(f"unknown test {test!r}")
        self._tmemo[test] = out
        return out

    # ------------------------------------------------------------- links
    def eval_link(self, path: ast.Path) -> DataFrame:
        """Evaluate a path link (Steps 1 and 2) to an interval relation
        with columns :data:`REL_COLS`."""
        parts = list(path.parts) if isinstance(path, ast.Seq) else [path]
        state = self._seed(parts)
        for part in parts:
            state = self._apply(state, part)
        return state

    def _seed(self, parts: list[ast.Path]) -> DataFrame:
        """Initial structural diagonal. When the link starts with a test
        (all MATCH segments do), seed from its validity intervals instead
        of the full PTO diagonal."""
        ids = None
        if parts and isinstance(parts[0], ast.TestExpr):
            try:
                ids = self.test_table(parts[0].test)
                parts.pop(0)
            except UnsupportedFragment:
                pass
        if ids is None:
            lo, hi = self.g.omega
            ids = self.g.objects.selectExpr(
                "id", f"CAST({lo} AS BIGINT) AS s", f"CAST({hi} AS BIGINT) AS e"
            )
        return ids.selectExpr(
            "id AS o1", "id AS o2", "s AS s1", "e AS e1", "s AS s2", "e AS e2",
            "CAST(0 AS BIGINT) AS dmin", "CAST(0 AS BIGINT) AS dmax",
        )

    # ------------------------------------------------------------ apply
    def _apply(self, state: DataFrame, part: ast.Path) -> DataFrame:
        atom = _as_temporal_atom(part)
        if atom is not None:
            return self._apply_temporal(state, atom)
        if isinstance(part, ast.Axis):
            if part.op in ("F", "B"):
                return self._apply_move(state, part.op)
            return self._apply_temporal(state, _TemporalAtom(part.op, 1, 1, False))
        if isinstance(part, ast.TestExpr):
            return self._apply_test(state, part.test)
        if isinstance(part, ast.Seq):
            for p in part.parts:
                state = self._apply(state, p)
            return state
        if isinstance(part, ast.Union):
            return _union([self._apply(state, p) for p in part.parts])
        if isinstance(part, ast.Repeat):
            if part.lo == 0 and part.hi == 0:
                return state
            raise UnsupportedFragment(
                f"repetition of non-temporal expression: {part}"
            )
        raise TypeError(f"unknown path {part!r}")

    def _apply_test(self, state: DataFrame, test: ast.Test) -> DataFrame:
        tt = self.test_table(test).selectExpr("id AS o2", "s AS s2", "e AS e2")
        return intersect_intervals(state, tt, ["o2"], "s2", "e2")

    def _apply_move(self, state: DataFrame, op: str) -> DataFrame:
        """Structural step F/B: node→edge and edge→node joins; intervals
        unchanged (F/B impose no existence by themselves)."""
        src, tgt = ("src", "tgt") if op == "F" else ("tgt", "src")
        hop = self.edges.selectExpr(f"{src} AS o2", "id AS _new").unionByName(
            self.edges.selectExpr("id AS o2", f"{tgt} AS _new")
        )
        return state.join(F.broadcast(hop), "o2").selectExpr("o1", "_new AS o2", *REL_COLS[2:])

    def _apply_temporal(self, state: DataFrame, atom: _TemporalAtom) -> DataFrame:
        """Step 2: interval arithmetic for a temporal navigation block.

        ``(N/∃)[n,m]`` moves ``t2`` to ``t3`` with ``t3 − t2 ∈ [max(n,1), m]``
        and every step ``t2+1 … t3`` inside one existence interval
        ``[a, b]`` of ``o2``, i.e. ``t2 ∈ [a−1, b−1]`` and ``t3 ∈ [a, b]``;
        ``P`` is the mirror image. Without ``∃``, ``[a, b]`` is Ω.
        """
        parts: list[DataFrame] = []
        if atom.lo == 0:
            # zero repetitions: stay put, no existence requirement.
            parts.append(state)
        if atom.hi is None or atom.hi >= 1:
            if atom.require_exist:
                ex = self.g.exist.selectExpr("id AS o2", "s AS _a", "e AS _b")
                base, a, b = state.join(F.broadcast(ex), "o2"), "_a", "_b"
            else:
                base, (a, b) = state, map(str, self.g.omega)
            lo1, hi = max(atom.lo, 1), atom.hi
            if atom.axis == "N":
                parts.append(compose(base, f"{a} - 1", f"{b} - 1", a, b, _sql(lo1), _sql(hi)))
            else:
                neg_hi = None if hi is None else -hi
                parts.append(compose(base, f"{a} + 1", f"{b} + 1", a, b, _sql(neg_hi), _sql(-lo1)))
        return _union(parts)


def _union(dfs: list[DataFrame]) -> DataFrame:
    out = dfs[0]
    for df in dfs[1:]:
        out = out.unionByName(df)
    return out
