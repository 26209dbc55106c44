"""Small-graph corpora: generation by canonical deletion with isomorph rejection.

all_graphs and p7c4_free_graphs on n vertices grow from their own members
on n - 1 vertices by adding a vertex x, once per twin orbit of neighbours,
and connected_graphs keeps the connected members of all_graphs. A child is
kept only if x is the vertex a canonical rule deletes (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998; see _grow), and children
are deduplicated by their canonical adjacency string, read off the same
refinement. A (P7, C4)-free graph's absence memo (graphs) holds P7, C4
and each of the diamond, kite and gem it is free of, proven from its
parent's memo by tests through x, so class_members runs no search.

Canonical forms come from adjacency-string minimization guided by iterated
degree refinement: candidate labelings are explored cell by cell and pruned
against the best prefix found so far (McKay, "Practical graph isomorphism",
1981). A branch vertex that is a twin of an earlier one in its cell is
skipped: swapping the two is an automorphism fixing the partition, so its
subtree repeats leaf strings already met and cannot change the result.
Distinct children of one class can survive the test, so the canonical
string still removes duplicates. Desk scale only, by design.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, GraphError, _bits, _graph_of_bits, _perm_bits, _refine, _twin_classes, write_graph6
from .patterns import _ABSENT_BIT, _has_pattern_through, class_third_pattern


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """A relabeling minimizing the adjacency string over the labelings
    consistent with iterated degree refinement (see _canonical_order)."""
    return _canonical_order(g.adj, _refine(g.adj, [list(range(g.n))]))[1]


def _canonical_order(adj: tuple[int, ...], cells: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """The least adjacency string (_perm_bits) over the labelings that
    refine cells, the unit partition's refinement, and a relabeling giving it.

    Refinement is equivariant under isomorphism, so the string is a
    canonical key, and for one n it is the canonical graph6 body: the ints
    sort as those strings do. The search skips a branch vertex v that is a
    twin of an earlier branch vertex u of the same cell (same neighbours
    outside {u, v}): swapping u and v is an automorphism that fixes the
    partition, so v's subtree holds the leaf strings of u's, none of them
    below the best already met, and the relabeling is the one the unpruned
    search returns.
    """
    bits, perm = _least_leaf(adj, cells, None)
    return bits, tuple(perm)


def _least_leaf(adj: tuple[int, ...], cells: list[list[int]], best: tuple | None) -> tuple:
    """best, or the (bits, perm) of a leaf below cells with a smaller string:
    _canonical_order's search, one call per node."""
    n = len(adj)
    prefix: list[int] = []
    for cell in cells:
        if len(cell) > 1:
            break
        prefix.append(cell[0])
    if best is not None and len(prefix) > 1:
        plen = len(prefix) * (len(prefix) - 1) // 2
        if _perm_bits(adj, prefix, len(prefix)) > best[0] >> (n * (n - 1) // 2 - plen):
            return best
    if len(prefix) == n:
        bits = _perm_bits(adj, prefix, n)
        return (bits, prefix) if best is None or bits < best[0] else best
    pivot = next(i for i, c in enumerate(cells) if len(c) > 1)
    branched: list[int] = []
    for v in cells[pivot]:
        if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in branched):
            continue
        branched.append(v)
        rest = [u for u in cells[pivot] if u != v]
        best = _least_leaf(adj, _refine(adj, [*cells[:pivot], [v], rest, *cells[pivot + 1:]], [[v]]), best)
    return best


def canonical_form(g: Graph) -> Graph:
    """g relabeled by canonical_permutation, decoded from its least string."""
    return _graph_of_bits(g.n, _canonical_order(g.adj, _refine(g.adj, [list(range(g.n))]))[0])


def canonical_key(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal iff isomorphic."""
    return write_graph6(canonical_form(g))


def _orbit_masks(adj: tuple[int, ...]) -> list[int]:
    """One mask per orbit of the group a graph's twin swaps generate: a
    prefix of each twin class, the false-twin classes of two or more
    vertices and the true-twin classes that meet none of them
    (graphs._twin_classes; no vertex has both kinds of twin)."""
    full = (1 << len(adj)) - 1
    false = [c for c in _twin_classes(adj, full, closed=False) if c & c - 1]
    masks, paired = [0], sum(false)
    for c in false + [c for c in _twin_classes(adj, full) if not c & paired]:
        prefix, grown = 0, list(masks)
        for u in _bits(c):
            prefix |= 1 << u
            grown += [m | prefix for m in masks]
        masks = grown
    return masks


def _grow(n: int, parents, forbid: tuple[str, ...] = ()) -> tuple[Graph, ...]:
    """Canonical n-vertex graphs free of the patterns named in forbid whose
    vertex-deleted subgraphs lie in parents(n - 1), a hereditary family.

    Each graph of parents(n - 1) gains a vertex x adjacent to the vertex set
    of each mask of _orbit_masks, one per orbit of the parent's twin swaps.
    A swap s is an automorphism, so s with x fixed maps the child by M onto
    the child by s(M): x, the top label, ends the last refinement cell of
    both or of neither, and both give one key and one answer through x.
    Stamps depend only on the class, as the parents' memos are exact, and
    the output is sorted by key, so it is byte for byte every mask's.
    A child is kept only if x is the last vertex of the last
    cell of the refinement (graphs._refine): the canonical deletion.
    Refinement is equivariant and its cell order canonical, so every wanted
    G has a vertex v in that cell of its own. G - v is isomorphic to some
    parent, whose child by v's neighbours is isomorphic to G with x, the
    image of v, last in its cell (vertices ascend within a cell). So every
    class is reached. The canonical search starts from the cells the test
    read, and its least adjacency string keys found, which removes the
    remaining duplicates; a kept graph is that string decoded
    (_graph_of_bits).

    As the parent is in the family, the child is in it iff x lies on no
    forbidden pattern (patterns._has_pattern_through). C4 fails about half
    the masks, so it is tested before the child is built; every other name
    once per new key, which stays in found as None if rejected. A kept
    graph's memo holds the forbidden names and each of the diamond, kite
    and gem that its parent's memo holds and x lies on no copy of.

    Cells are ordered by degree first, so x's degree k = |mask| must be the
    largest in the child. A parent vertex keeps its degree outside the mask
    and gains one inside it, so one of degree above k outside the mask, or
    of degree k or more inside it, rejects the mask before the child is
    built.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if n == 1:
        return (Graph(1),)
    c4 = "C4" in forbid
    later = [name for name in forbid if name != "C4"]
    stamp = sum(_ABSENT_BIT[name] for name in forbid)
    found: dict[int, Graph | None] = {}  # canonical adjacency string -> canonical graph, or None
    for parent in parents(n - 1):
        adj = parent.adj
        # heavier[k]: the parent's vertices of degree above k
        heavier = [0] * n
        for v in range(n - 1):
            for k in range(adj[v].bit_count()):
                heavier[k] |= 1 << v
        for mask in _orbit_masks(adj):
            k = mask.bit_count()
            if heavier[k] & ~mask or (k and heavier[k - 1] & mask) or c4 and _has_pattern_through(adj, mask, "C4"):
                continue
            child = tuple(a | (mask >> v & 1) << (n - 1) for v, a in enumerate(adj)) + (mask,)
            cells = _refine(child, [list(range(n))])
            if cells[-1][-1] != n - 1:
                continue
            bits = _canonical_order(child, cells)[0]
            if bits in found:
                continue
            found[bits] = None
            if any(_has_pattern_through(adj, mask, name) for name in later):
                continue
            absent = stamp
            for name in ("diamond", "kite", "gem"):  # a diamond-free graph is kite- and gem-free
                bit = _ABSENT_BIT[name]
                if absent & _ABSENT_BIT["diamond"] or (parent._absent & bit & ~absent
                                                       and not _has_pattern_through(adj, mask, name)):
                    absent |= bit
            canon = found[bits] = _graph_of_bits(n, bits)
            canon._absent = absent
    return tuple(g for _, g in sorted(found.items()) if g is not None)


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one canonical copy per class."""
    return _grow(n, all_graphs)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, canonical copies."""
    return tuple(g for g in all_graphs(n) if g.is_connected())


@lru_cache(maxsize=None)
def p7c4_free_graphs(n: int) -> tuple[Graph, ...]:
    """All (P7, C4)-free graphs on exactly n vertices (hereditary closure),
    each with P7, C4 and the diamond, kite and gem it is free of proven
    absent in its memo."""
    graphs = _grow(n, p7c4_free_graphs, ("C4", "P7"))
    if n == 1:
        graphs[0]._absent = sum(_ABSENT_BIT.values())  # K1 is free of every pattern
    return graphs


@lru_cache(maxsize=None)
def class_members(class_name: str, n: int) -> tuple[Graph, ...]:
    """All (P7, C4, X)-free graphs on exactly n vertices: those of
    p7c4_free_graphs(n) whose memo proves X absent."""
    bit = _ABSENT_BIT[class_third_pattern(class_name)]
    return tuple(g for g in p7c4_free_graphs(n) if g._absent & bit)
