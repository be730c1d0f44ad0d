"""Reference beta-elimination: every round tests each remaining vertex
against every edge, then rebuilds all edges without the eliminated one.

A frozen copy of nnfopt's original beta_elimination_order and
is_valid_elimination_order.  The library's versions must return the same
orders and verdicts on every hypergraph; keep this copy as it is.
"""

from typing import Optional, Sequence

from nnfopt import Hypergraph


def _is_nest_point_reference(v, edges: Sequence[frozenset]) -> bool:
    incident = [e for e in edges if v in e]
    incident.sort(key=len)
    for a, b in zip(incident, incident[1:]):
        if not a <= b:
            return False
    return True


def beta_elimination_order_reference(h: Hypergraph) -> Optional[tuple]:
    remaining = list(h.vertices)
    edges = [e for e in h.edges]
    order = []
    while remaining:
        pick = None
        for v in sorted(remaining):
            if _is_nest_point_reference(v, edges):
                pick = v
                break
        if pick is None:
            return None
        order.append(pick)
        remaining.remove(pick)
        edges = [e - {pick} for e in edges]
        edges = [e for e in edges if e]
    return tuple(order)


def is_valid_elimination_order_reference(h: Hypergraph, order: Sequence) -> bool:
    if sorted(order, key=repr) != sorted(h.vertices, key=repr):
        return False
    edges = [e for e in h.edges]
    for v in order:
        if not _is_nest_point_reference(v, edges):
            return False
        edges = [e - {v} for e in edges]
        edges = [e for e in edges if e]
    return True
