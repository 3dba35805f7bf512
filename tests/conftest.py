"""Shared fixtures for the test suite.

The SparkSession itself comes from the root conftest's ``spark`` fixture.
At import time (before the session is created) we lower the shuffle
partition count the root conftest honours, for the tiny test inputs.
"""
import os

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pytest  # noqa: E402

from repro.tpg.figure1 import figure1  # noqa: E402
from repro.tpg.generator import contact_tracing  # noqa: E402
from repro.tpg.model import SparkITPG  # noqa: E402
from repro.trpq import queries as Q  # noqa: E402
from repro.trpq.interval_eval import IntervalEvaluator  # noqa: E402
from repro.trpq.match import (  # noqa: E402
    eval_match_interval,
    eval_match_local,
    eval_match_point,
    out_columns,
)
from repro.trpq.semantics import LocalTPG  # noqa: E402
from repro.trpq.spark_eval import PointEvaluator  # noqa: E402

ALL_QUERIES = tuple(Q.TABLE2) + ("INTRO", "Q7R", "NEAR")


@pytest.fixture(scope="session")
def fig1_data():
    return figure1()


@pytest.fixture(scope="session")
def fig1_local(fig1_data):
    return LocalTPG.from_data(fig1_data)


@pytest.fixture(scope="session")
def fig1_itpg(spark, fig1_data):
    return SparkITPG.from_data(spark, fig1_data)


@pytest.fixture(scope="session")
def fig1_tpg(fig1_itpg):
    return fig1_itpg.to_tpg()


@pytest.fixture(scope="session")
def fig1_point_ev(fig1_tpg):
    return PointEvaluator(fig1_tpg)


@pytest.fixture(scope="session")
def fig1_interval_ev(fig1_itpg):
    return IntervalEvaluator(fig1_itpg)


@pytest.fixture(scope="session")
def fig1_expected(fig1_local):
    """Reference binding tables for every named query on Figure 1."""
    return {n: eval_match_local(fig1_local, Q.query(n)) for n in ALL_QUERIES}


@pytest.fixture(scope="session")
def fig1_point_results(fig1_point_ev):
    """Point-evaluator binding tables for every named query (one pass)."""
    out = {}
    for n in ALL_QUERIES:
        q = Q.query(n)
        df = eval_match_point(fig1_point_ev, q)
        out[n] = {tuple(r) for r in df.collect()}
    return out


@pytest.fixture(scope="session")
def fig1_interval_results(fig1_interval_ev):
    """Interval-evaluator binding tables for every named query (one pass)."""
    out = {}
    for n in ALL_QUERIES:
        q = Q.query(n)
        ib = eval_match_interval(fig1_interval_ev, q)
        df = ib.points().select(*out_columns(q))
        out[n] = {tuple(r) for r in df.collect()}
    return out


# --- a small generated graph used for cross-backend and oracle checks ----
@pytest.fixture(scope="session")
def gen_data():
    return contact_tracing(persons=30, positivity=0.15, seed=7)


@pytest.fixture(scope="session")
def gen_local(gen_data):
    return LocalTPG.from_data(gen_data)


@pytest.fixture(scope="session")
def gen_itpg(spark, gen_data):
    return SparkITPG.from_data(spark, gen_data)


@pytest.fixture(scope="session")
def gen_interval_ev(gen_itpg):
    return IntervalEvaluator(gen_itpg)


@pytest.fixture(scope="session")
def gen_point_ev(gen_itpg):
    return PointEvaluator(gen_itpg.to_tpg())
