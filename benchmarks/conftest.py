"""Benchmark-session env tuning (mirrors tests/conftest.py).

Must run at import time, before the root conftest's ``spark`` fixture
launches the JVM: modest shuffle parallelism for the G-lite inputs.
"""
import os

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "16")
