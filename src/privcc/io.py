"""Edge-list text format.

Layout::

    n m
    [complete]
    u v sign [weight]

The first line carries the vertex count and the number of edge lines.
``sign`` is ``+`` or ``-``; ``weight`` is a decimal and may be omitted
(weight 1, the unweighted shorthand).  A second line consisting of the
single token ``complete`` asserts that every pair is present, which is
then validated.  With or without the marker, a graph is complete when
every pair carries positive weight.  A pair listed once per sign yields a
parallel pair.
"""

from __future__ import annotations

import os

from .graphs import ContractViolation, SignedGraph

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_list", "format_edge_list"]


def parse_edge_list(text: str) -> SignedGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ContractViolation("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ContractViolation(f"header must be 'n m', got {lines[0]!r}")
    n, m = (_number(tok, int, lines[0]) for tok in head)
    body = lines[1:]
    declared_complete = bool(body) and body[0].lower() == "complete"
    if declared_complete:
        body = body[1:]
    if len(body) != m:
        raise ContractViolation(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) not in (3, 4):
            raise ContractViolation(f"bad edge line {ln!r}")
        u, v = (_number(tok, int, ln) for tok in parts[:2])
        sign_tok = parts[2]
        if sign_tok not in ("+", "-"):
            raise ContractViolation(f"sign must be '+' or '-', got {sign_tok!r}")
        w = _number(parts[3], float, ln) if len(parts) == 4 else 1.0
        edges.append((u, v, 1 if sign_tok == "+" else -1, w))
    graph = SignedGraph.from_edges(n, edges)
    if declared_complete and not graph.complete:
        raise ContractViolation("'complete' declared but a pair is missing or weightless")
    return graph


def _number(tok: str, kind: type, line: str):
    try:
        return kind(tok)
    except ValueError:
        raise ContractViolation(f"bad number {tok!r} in line {line!r}") from None


def read_edge_list(path: str | os.PathLike) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(graph: SignedGraph) -> str:
    rows = list(graph.iter_edges())
    out = [f"{graph.n} {len(rows)}"]
    if graph.complete:
        out.append("complete")
    unweighted = graph.is_unweighted
    for u, v, sign, w in rows:
        tok = "+" if sign == 1 else "-"
        if unweighted:
            out.append(f"{u} {v} {tok}")
        else:
            out.append(f"{u} {v} {tok} {w!r}")
    return "\n".join(out) + "\n"


def write_edge_list(graph: SignedGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(graph))
