"""DuckDB SQL equivalents of Q1–Q12 and NEAR — the independent correctness
oracle.

Each query of Section IV is re-expressed as plain SQL over the
point-exploded wide tables produced by ``ITPGData.point_tables()``:

* ``nodes_pt(id, t, label, risk, test, ...)`` — one row per (node, time
  point) where the node exists, properties pivoted wide;
* ``edges_pt(id, t, src, tgt, label, ...)`` — likewise for edges.

Temporal navigation with existence (``NEXT*``, ``NEXT[0,12]``, ``PREV``)
becomes recursive CTEs that walk the existence chain one time point at a
time — deliberately naive and totally independent from both Spark
evaluators. Tests feed these to ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..oracle import assert_equivalent
from ..tpg.model import ITPGData

_PERSON = "label = 'Person'"

ORACLE_SQL: dict[str, str] = {
    "Q1": f"SELECT DISTINCT id AS x, t AS x_time FROM nodes_pt WHERE {_PERSON}",
    "Q2": f"SELECT DISTINCT id AS x, t AS x_time FROM nodes_pt WHERE {_PERSON} AND risk = 'low'",
    "Q3": (
        f"SELECT DISTINCT id AS x, t AS x_time FROM nodes_pt "
        f"WHERE {_PERSON} AND risk = 'low' AND t = 1"
    ),
    "Q4": (
        f"SELECT DISTINCT id AS x, t AS x_time FROM nodes_pt "
        f"WHERE {_PERSON} AND risk = 'low' AND t < 10"
    ),
    "Q5": f"""
        SELECT DISTINCT a.id AS x, a.t AS x_time, e.id AS z, e.t AS z_time,
               b.id AS y, b.t AS y_time
        FROM nodes_pt a
        JOIN edges_pt e ON e.src = a.id AND e.t = a.t AND e.label = 'meets'
        JOIN nodes_pt b ON b.id = e.tgt AND b.t = e.t
        WHERE a.{_PERSON} AND a.risk = 'low' AND b.{_PERSON} AND b.risk = 'high'
    """,
    "Q6": f"""
        SELECT DISTINCT a.id AS x, a.t AS x_time, b.id AS y, b.t AS y_time
        FROM nodes_pt a
        JOIN nodes_pt b ON b.id = a.id AND b.t = a.t - 1
        WHERE a.{_PERSON} AND a.test = 'pos'
    """,
    "Q7": f"""
        SELECT DISTINCT a.id AS x, a.t AS x_time, b.id AS y, b.t AS y_time,
               r.id AS z, r.t AS z_time
        FROM nodes_pt a
        JOIN nodes_pt b ON b.id = a.id AND b.t = a.t - 1
        JOIN edges_pt e ON e.src = b.id AND e.t = b.t AND e.label = 'visits'
        JOIN nodes_pt r ON r.id = e.tgt AND r.t = e.t AND r.label = 'Room'
        WHERE a.{_PERSON} AND a.test = 'pos'
    """,
    "Q8": f"""
        WITH RECURSIVE back(id, t0, t) AS (
            SELECT id, t, t FROM nodes_pt WHERE {_PERSON} AND test = 'pos'
            UNION
            SELECT back.id, back.t0, n.t
            FROM back JOIN nodes_pt n ON n.id = back.id AND n.t = back.t - 1
        )
        SELECT DISTINCT back.id AS x, back.t0 AS x_time, r.id AS z, r.t AS z_time
        FROM back
        JOIN edges_pt e ON e.src = back.id AND e.t = back.t AND e.label = 'visits'
        JOIN nodes_pt r ON r.id = e.tgt AND r.t = e.t AND r.label = 'Room'
    """,
    "Q9": f"""
        WITH RECURSIVE reach(id, t) AS (
            SELECT id, t FROM nodes_pt WHERE test = 'pos'
            UNION
            SELECT n.id, n.t
            FROM reach JOIN nodes_pt n ON n.id = reach.id AND n.t = reach.t - 1
        )
        SELECT DISTINCT hx.id AS x, hx.t AS x_time
        FROM nodes_pt hx
        JOIN edges_pt e ON e.src = hx.id AND e.t = hx.t AND e.label = 'meets'
        JOIN reach ON reach.id = e.tgt AND reach.t = e.t
        WHERE hx.{_PERSON} AND hx.risk = 'high'
    """,
    "Q10": f"""
        WITH RECURSIVE up(id, t, d) AS (
            SELECT id, t, 0 FROM nodes_pt WHERE test = 'pos'
            UNION
            SELECT n.id, n.t, up.d + 1
            FROM up JOIN nodes_pt n ON n.id = up.id AND n.t = up.t + 1
            WHERE up.d < 12
        )
        SELECT DISTINCT hx.id AS x, hx.t AS x_time
        FROM nodes_pt hx
        JOIN edges_pt e ON e.src = hx.id AND e.t = hx.t AND e.label = 'meets'
        JOIN up ON up.id = e.tgt AND up.t = e.t
        WHERE hx.{_PERSON} AND hx.risk = 'high'
    """,
    "Q11": f"""
        WITH RECURSIVE fw(id, t, d) AS (
            SELECT id, t, 0 FROM nodes_pt WHERE test = 'pos'
            UNION
            SELECT n.id, n.t, fw.d + 1
            FROM fw JOIN nodes_pt n ON n.id = fw.id AND n.t = fw.t - 1
            WHERE fw.d < 12
        )
        SELECT DISTINCT hx.id AS x, hx.t AS x_time
        FROM nodes_pt hx
        JOIN edges_pt e1 ON e1.src = hx.id AND e1.t = hx.t AND e1.label = 'visits'
        JOIN nodes_pt r ON r.id = e1.tgt AND r.t = e1.t AND r.label = 'Room'
        JOIN edges_pt e2 ON e2.tgt = r.id AND e2.t = r.t AND e2.label = 'visits'
        JOIN fw ON fw.id = e2.src AND fw.t = e2.t
        WHERE hx.{_PERSON} AND hx.risk = 'high'
    """,
    "Q12": f"""
        WITH RECURSIVE fw(id, t, d) AS (
            SELECT id, t, 0 FROM nodes_pt WHERE test = 'pos'
            UNION
            SELECT n.id, n.t, fw.d + 1
            FROM fw JOIN nodes_pt n ON n.id = fw.id AND n.t = fw.t - 1
            WHERE fw.d < 12
        )
        SELECT DISTINCT hx.id AS x, hx.t AS x_time
        FROM nodes_pt hx
        JOIN edges_pt e ON e.src = hx.id AND e.t = hx.t AND e.label = 'meets'
        JOIN fw ON fw.id = e.tgt AND fw.t = e.t
        WHERE hx.{_PERSON} AND hx.risk = 'high'
        UNION
        SELECT DISTINCT hx.id AS x, hx.t AS x_time
        FROM nodes_pt hx
        JOIN edges_pt e1 ON e1.src = hx.id AND e1.t = hx.t AND e1.label = 'visits'
        JOIN nodes_pt r ON r.id = e1.tgt AND r.t = e1.t AND r.label = 'Room'
        JOIN edges_pt e2 ON e2.tgt = r.id AND e2.t = r.t AND e2.label = 'visits'
        JOIN fw ON fw.id = e2.src AND fw.t = e2.t
        WHERE hx.{_PERSON} AND hx.risk = 'high'
    """,
    "NEAR": f"""
        WITH RECURSIVE back(id, t0, t, d) AS (
            SELECT id, t, t, 0 FROM nodes_pt WHERE {_PERSON}
            UNION
            SELECT back.id, back.t0, n.t, back.d + 1
            FROM back JOIN nodes_pt n ON n.id = back.id AND n.t = back.t - 1
            WHERE back.d < 4
        ),
        fw(x, x_time, id, t, d) AS (
            SELECT back.id, back.t0, e.tgt, e.t, 0
            FROM back
            JOIN edges_pt e ON e.src = back.id AND e.t = back.t AND e.label = 'meets'
            UNION
            SELECT fw.x, fw.x_time, n.id, n.t, fw.d + 1
            FROM fw JOIN nodes_pt n ON n.id = fw.id AND n.t = fw.t + 1
            WHERE fw.d < 4
        )
        SELECT DISTINCT fw.x AS x, fw.x_time AS x_time, y.id AS y, y.t AS y_time
        FROM fw
        JOIN nodes_pt y ON y.id = fw.id AND y.t = fw.t
        WHERE y.{_PERSON}
    """,
}


def check_against_oracle(spark_df: DataFrame, data: ITPGData, name: str) -> None:
    """Assert a Spark binding table matches the DuckDB oracle for query
    ``name`` on the graph ``data``."""
    nodes_pt, edges_pt = data.point_tables()
    assert_equivalent(spark_df, ORACLE_SQL[name], nodes_pt=nodes_pt, edges_pt=edges_pt)
