"""Conflict-serializability checking (the serializability theorem).

A history is conflict-serializable iff its serialization graph —
nodes are committed transactions, edges order conflicting operation
pairs — is acyclic.  :func:`is_serializable_reactor` judges a reactor
history, :func:`is_serializable_classic` its projection; both take
their edges from :func:`repro.formal.history.conflict_edges`.
Theorem 2.7 states they agree through the projection — the property
tests exercise exactly that equivalence on random histories.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.formal.history import ReactorHistory
from repro.formal.projection import ClassicHistory, project


def has_cycle(nodes: Iterable[Hashable],
              edges: set[tuple[Hashable, Hashable]]) -> bool:
    """Iterative three-color DFS cycle detection."""
    adjacency: dict[Hashable, list[Hashable]] = {n: [] for n in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adjacency}
    for start in adjacency:
        if color[start] != WHITE:
            continue
        stack: list[tuple[Hashable, int]] = [(start, 0)]
        color[start] = GREY
        while stack:
            node, edge_index = stack[-1]
            neighbours = adjacency[node]
            if edge_index < len(neighbours):
                stack[-1] = (node, edge_index + 1)
                nxt = neighbours[edge_index]
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return False


def serialization_order(nodes: Iterable[Hashable],
                        edges: set[tuple[Hashable, Hashable]]
                        ) -> list[Hashable] | None:
    """A topological order of the serialization graph, or ``None``
    when the history is not serializable."""
    adjacency: dict[Hashable, list[Hashable]] = {n: [] for n in nodes}
    indegree: dict[Hashable, int] = {n: 0 for n in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        indegree.setdefault(src, 0)
        indegree[dst] = indegree.get(dst, 0) + 1
    ready = sorted((n for n, d in indegree.items() if d == 0),
                   key=repr)
    order: list[Hashable] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in adjacency[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort(key=repr)
    if len(order) != len(indegree):
        return None
    return order


def is_serializable_reactor(history: ReactorHistory) -> bool:
    """Serializability under the reactor model's conflict notion."""
    return not has_cycle(history.committed_txns(),
                         history.conflict_edges())


def is_serializable_classic(history: ClassicHistory) -> bool:
    """Serializability under the classic conflict notion."""
    return not has_cycle(history.committed_txns(),
                         history.conflict_edges())


def theorem_2_7_holds(history: ReactorHistory) -> bool:
    """Check Theorem 2.7 on one history: reactor-model
    serializability must coincide with classic serializability of the
    projection."""
    return (is_serializable_reactor(history)
            == is_serializable_classic(project(history)))
