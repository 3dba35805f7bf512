"""The paper's queries Q1–Q12 (Section IV), verbatim.

``Q10`` is the one query whose listing is partially garbled in the source
text; the prose defines it as "high-risk people who met someone who tested
positive for an infectious disease 1 hour prior to the meeting" (time unit
5 minutes → 12 steps), and the experiments (Fig. 4) treat its indicator as
``PREV[n,m]`` with ``n = 0`` — so we use ``PREV[0,12]``, symmetric to
Q11/Q12's ``NEXT[0,12]``.

``INTRO`` is the contact-tracing query from Section I-A (Q9 with the
positive contact bound to ``y``). ``Q7R`` and ``NEAR`` are not in the paper's
Table II; ``NEAR`` has a temporal segment on both sides of a ``meets`` hop.
"""
from __future__ import annotations

from .parser import MatchQuery, parse_match

QUERIES: dict[str, str] = {
    "Q1": "MATCH (x:Person) ON contact_tracing",
    "Q2": "MATCH (x:Person {risk = 'low'}) ON contact_tracing",
    "Q3": "MATCH (x:Person {risk = 'low' AND time = '1'}) ON contact_tracing",
    "Q4": "MATCH (x:Person {risk = 'low' AND time < '10'}) ON contact_tracing",
    "Q5": (
        "MATCH (x:Person {risk = 'low'})-[z:meets]->"
        "(y:Person {risk = 'high'}) ON contact_tracing"
    ),
    "Q6": "MATCH (x:Person {test = 'pos'})-/PREV/-(y) ON contact_tracing",
    "Q7": (
        "MATCH (x:Person {test = 'pos'})-/PREV/-(y)-[:visits]->(z:Room) "
        "ON contact_tracing"
    ),
    "Q8": (
        "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) "
        "ON contact_tracing"
    ),
    "Q9": (
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-"
        "({test = 'pos'}) ON contact_tracing"
    ),
    "Q10": (
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/PREV[0,12]/-"
        "({test = 'pos'}) ON contact_tracing"
    ),
    "Q11": (
        "MATCH (x:Person {risk = 'high'})-/FWD/:visits/FWD/:Room/BWD/:visits/"
        "BWD/NEXT[0,12]/-({test = 'pos'}) ON contact_tracing"
    ),
    "Q12": (
        "MATCH (x:Person {risk = 'high'})-"
        "/(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)"
        "/NEXT[0,12]/-({test = 'pos'}) ON contact_tracing"
    ),
    "INTRO": (
        "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-"
        "(y:Person {test = 'pos'}) ON contact_tracing"
    ),
    # Q7 as rewritten in the paper with explicit FWD/BWD operators.
    "Q7R": (
        "MATCH (x:Person {test = 'pos'})-/PREV/FWD/:visits/FWD/-(z:Room) "
        "ON contact_tracing"
    ),
    # Two temporal segments in one link: x met y at most 4 steps ago, and
    # y is bound at most 4 steps after that meeting.
    "NEAR": (
        "MATCH (x:Person)-/PREV[0,4]/FWD/:meets/FWD/NEXT[0,4]/-(y:Person) "
        "ON contact_tracing"
    ),
}

#: Queries whose output stays interval-coalesced (no temporal navigation).
STRUCTURAL_ONLY = ("Q1", "Q2", "Q3", "Q4", "Q5")
#: The Table II query set, in paper order.
TABLE2 = tuple(f"Q{i}" for i in range(1, 13))


def query(name: str) -> MatchQuery:
    """Parse one of the named queries."""
    return parse_match(QUERIES[name])


def with_window(name: str, m: int) -> MatchQuery:
    """Q10/Q11/Q12 with the temporal-navigation bound replaced by
    ``[0, m]`` — the Figure 4 sweep."""
    return parse_match(QUERIES[name].replace("[0,12]", f"[0,{m}]"))
