"""Small-graph corpora: orderly generation with isomorph rejection.

Canonical forms come from adjacency-string minimization guided by iterated
degree refinement: candidate labelings are explored cell by cell and pruned
against the best prefix found so far. Desk scale only, by design.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, GraphError, _bits, _refine, write_graph6
from .patterns import class_third_pattern, find_induced_pattern


def _perm_bits(adj: tuple[int, ...], perm: list[int], upto: int) -> int:
    # column-major upper-triangle bits of the relabeled graph, restricted to
    # the first `upto` positions, packed into one int (first bit most
    # significant so prefixes compare correctly)
    bits = 0
    for j in range(1, upto):
        col = adj[perm[j]]
        for i in range(j):
            bits = bits << 1 | (col >> perm[i] & 1)
    return bits


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """A relabeling minimizing the adjacency string over all labelings
    consistent with iterated degree refinement.

    Refinement is equivariant under isomorphism, so the minimized string is
    a canonical key: two graphs get the same string iff they are isomorphic.
    """
    n = g.n
    if n <= 1:
        return tuple(range(n))
    adj = g.adj
    m = g.edge_count()
    if m == 0 or m == n * (n - 1) // 2:
        return tuple(range(n))  # empty and complete graphs are label-invariant
    best_bits: int | None = None
    best_perm: list[int] | None = None
    total = n * (n - 1) // 2

    def search(cells: list[list[int]]) -> None:
        nonlocal best_bits, best_perm
        cells = _refine(adj, cells)
        prefix: list[int] = []
        for cell in cells:
            if len(cell) > 1:
                break
            prefix.append(cell[0])
        if best_bits is not None and len(prefix) > 1:
            plen = len(prefix) * (len(prefix) - 1) // 2
            if _perm_bits(adj, prefix, len(prefix)) > best_bits >> (total - plen):
                return
        if len(prefix) == n:
            bits = _perm_bits(adj, prefix, n)
            if best_bits is None or bits < best_bits:
                best_bits = bits
                best_perm = prefix
            return
        pivot = next(i for i, c in enumerate(cells) if len(c) > 1)
        for v in cells[pivot]:
            rest = [u for u in cells[pivot] if u != v]
            search(cells[:pivot] + [[v], rest] + cells[pivot + 1:])

    search([list(range(n))])
    return tuple(best_perm)


def canonical_form(g: Graph) -> Graph:
    perm = canonical_permutation(g)
    pos = {v: i for i, v in enumerate(perm)}
    adj = [0] * g.n
    for u, v in g.edges():
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    return Graph._from_adj(g.n, tuple(adj))


def canonical_key(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal iff isomorphic."""
    return write_graph6(canonical_form(g))


def _extend(parent: Graph, mask: int) -> Graph:
    n = parent.n + 1
    adj = tuple(a | ((mask >> v & 1) << (n - 1)) for v, a in enumerate(parent.adj)) + (mask,)
    return Graph._from_adj(n, adj)


def _grow(n: int, parents_of, first_mask: int, child_of) -> tuple[Graph, ...]:
    """Canonical n-vertex graphs, sorted by graph6, from one-vertex extensions.

    Each (n-1)-vertex graph of parents_of(n - 1) gains a vertex adjacent to
    the vertex set of every mask from first_mask up; child_of(parent, mask)
    builds the child, or returns None to reject it before canonicalization.
    A hereditary family is closed under vertex deletion, so this reaches all
    of its n-vertex members.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if n == 1:
        return (Graph(1),)
    found: dict[str, Graph] = {}
    for parent in parents_of(n - 1):
        for mask in range(first_mask, 1 << (n - 1)):
            child = child_of(parent, mask)
            if child is not None:
                canon = canonical_form(child)
                found.setdefault(write_graph6(canon), canon)
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one canonical copy per class."""
    return _grow(n, all_graphs, 0, _extend)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, canonical copies.

    Extends connected parents by a vertex with a nonempty neighborhood:
    every connected graph has a non-cut vertex, so this reaches everything.
    """
    return _grow(n, connected_graphs, 1, _extend)


def _extension_keeps_p7c4_free(parent: Graph, mask: int) -> bool:
    # any new induced C4 goes through the new vertex x: either some outside
    # vertex sees two nonadjacent members of M, or x plus a common neighbor
    # closes a 4-cycle; both reduce to "adj[v] & mask is a clique" checks
    adj = parent.adj
    for v in range(parent.n):
        if mask >> v & 1:
            continue
        common = adj[v] & mask
        if common.bit_count() >= 2:
            for u in _bits(common):
                if (adj[u] & common) != common ^ (1 << u):
                    return False
    return True


def _p7c4_free_child(parent: Graph, mask: int) -> Graph | None:
    if not _extension_keeps_p7c4_free(parent, mask):
        return None
    child = _extend(parent, mask)
    return child if find_induced_pattern(child, "P7") is None else None


@lru_cache(maxsize=None)
def p7c4_free_graphs(n: int) -> tuple[Graph, ...]:
    """All (P7, C4)-free graphs on exactly n vertices (hereditary closure)."""
    return _grow(n, p7c4_free_graphs, 0, _p7c4_free_child)


@lru_cache(maxsize=None)
def class_members(class_name: str, n: int) -> tuple[Graph, ...]:
    """All (P7, C4, X)-free graphs on exactly n vertices."""
    third = class_third_pattern(class_name)
    return tuple(
        g for g in p7c4_free_graphs(n) if find_induced_pattern(g, third) is None
    )
