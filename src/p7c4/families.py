"""Generators for every named graph the toolkit works with.

Vertex layouts are fixed and documented per generator so tests and
serialized output stay stable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .graphs import (
    Graph,
    GraphError,
    blowup_classes,
    clique_blowup,
    complete_graph,
    cycle_graph,
    path_graph,
)


@lru_cache(maxsize=1)
def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i~i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


@lru_cache(maxsize=1)
def graph_f() -> Graph:
    """The 10-vertex exceptional graph F: a 7-hole 0..6 plus a stable set
    {7, 8, 9} where vertex 7+i is adjacent to hole vertices i, i+3, i+4."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    for i in range(3):
        edges += [(7 + i, i), (7 + i, (i + 3) % 7), (7 + i, (i + 4) % 7)]
    return Graph(10, edges)


def g1(t: int) -> Graph:
    """t-size clique blowup of a 7-hole; classes are consecutive blocks of t."""
    if t < 2:
        raise GraphError("G1 requires blowup size t >= 2")
    return clique_blowup(cycle_graph(7), [t] * 7)


def g2(sizes: Sequence[int]) -> Graph:
    """Seven stable sets S_1..S_7 (consecutive blocks), each of size >= 2;
    S_i complete to S_{i-1} and S_{i+1}, anticomplete to the rest."""
    if len(sizes) != 7:
        raise GraphError("G2 needs exactly seven stable-set sizes")
    if any(s < 2 for s in sizes):
        raise GraphError("G2 stable sets need size >= 2")
    blocks = blowup_classes(sizes)
    # a generator: Graph checks the vertex cap before it builds an edge
    return Graph(sum(sizes), ((u, v) for i in range(7) for u in blocks[i] for v in blocks[(i + 1) % 7]))


@lru_cache(maxsize=1)
def g3() -> Graph:
    """7-hole 0..6 plus a 6-vertex tree a,b,c,d,g1,g2 = 7..12.

    Tree edges: a-g2, b-g1, c-g2, d-g1, g1-g2. Hole attachments:
    a~{x2,x6}, b~{x3,x7}, c~{x1,x4}, d~{x1,x5} (x_i is hole vertex i-1).
    """
    a, b, c, d, t1, t2 = 7, 8, 9, 10, 11, 12
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(a, t2), (b, t1), (c, t2), (d, t1), (t1, t2)]
    edges += [(a, 1), (a, 5), (b, 2), (b, 6), (c, 0), (c, 3), (d, 0), (d, 4)]
    return Graph(13, edges)


@lru_cache(maxsize=1)
def g4() -> Graph:
    """8-cycle y1..y8 = 0..7 plus 6-cycle u1..u6 = 8..13 joined by the four
    edges y1u1, y4u2, y5u4, y6u6, plus a stable pair t1=14, t2=15 with
    t1~{y2,y7,u5} and t2~{y3,y8,u3}."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(8 + i, 8 + (i + 1) % 6) for i in range(6)]
    edges += [(0, 8), (3, 9), (4, 11), (5, 13)]
    edges += [(14, 1), (14, 6), (14, 12), (15, 2), (15, 7), (15, 10)]
    return Graph(16, edges)


@lru_cache(maxsize=1)
def g5() -> Graph:
    """7-hole z1..z7 = 0..6 plus a1..a7 = 7..13 where a_i is adjacent to
    exactly z_i, z_{i+3}, z_{i+4}, a_{i+3} and a_{i+4} (indices mod 7)."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    for i in range(7):
        edges += [(7 + i, i), (7 + i, (i + 3) % 7), (7 + i, (i + 4) % 7)]
        edges.append((7 + i, 7 + (i + 3) % 7))
    return Graph(14, edges)


def g6(t: int) -> Graph:
    """t-size clique blowup of G3, t >= 1."""
    if t < 1:
        raise GraphError("G6 requires blowup size t >= 1")
    return clique_blowup(g3(), [t] * 13)


# the parameterless named graphs, by lower-case name; generate and the
# blowup bases both read this table
_FIXED = {"petersen": petersen, "f": graph_f, "g3": g3, "g4": g4, "g5": g5}


def _base_by_name(name: str) -> Graph:
    key = name.strip().lower()
    if key in _FIXED:
        return _FIXED[key]()
    if key.startswith("c") and key[1:].isdigit():
        return cycle_graph(int(key[1:]))
    raise GraphError(f"unknown blowup base {name!r}")


def generate(family: str, **params) -> Graph:
    """Dispatch a named family; parameters are validated per family.

    Accepted names: Petersen, F, G1(t), G2(sizes), G3, G4, G5, G6(t),
    blowup(base, sizes), C(k), P(k), K(k).
    """
    key = family.strip().lower()
    def param(name: str):
        if name not in params:
            raise GraphError(f"family {family!r} needs the parameter {name!r}")
        return params[name]

    if key in _FIXED:
        return _FIXED[key]()
    if key == "g1":
        return g1(int(param("t")))
    if key == "g2":
        return g2(_sizes(param("sizes")))
    if key == "g6":
        return g6(int(param("t")))
    if key == "blowup":
        base = param("base")
        if not isinstance(base, Graph):
            base = _base_by_name(str(base))
        return clique_blowup(base, list(_sizes(param("sizes"))))
    if key == "c":
        return cycle_graph(int(param("k")))
    if key == "p":
        return path_graph(int(param("k")))
    if key == "k":
        return complete_graph(int(param("k")))
    raise GraphError(f"unknown family {family!r}")


def _sizes(raw) -> tuple[int, ...]:
    if isinstance(raw, str):
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    return tuple(int(x) for x in raw)
