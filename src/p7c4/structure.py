"""Decomposition toolbox: clique cutsets and atoms (one pass of Tarjan's
algorithm over one minimal elimination ordering, kept as the list of splits
it yields and the bottom atom), universal-clique peeling,
bisimplicial vertices, clique-blowup recognition, fixed-graph recognition,
and the theorem engine that combines them into the three structure theorems.

All searches break ties toward the lowest vertex index, so results are
deterministic and test-stable.
"""

from __future__ import annotations

from typing import NamedTuple

from .families import graph_f, petersen
from .graphs import (
    Graph,
    GraphError,
    _bits,
    _component,
    _is_clique_mask,
    _mask,
    _relabel,
    _twin_classes,
    _vertex_mask,
    find_isomorphism,
    is_clique,
)
from .patterns import class_third_pattern


class CliqueCutsetSplit(NamedTuple):
    """A clique whose removal separates side_a from side_b."""

    cutset: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]

    def to_json(self) -> dict:
        return {
            "cutset": sorted(self.cutset),
            "side_a": sorted(self.side_a),
            "side_b": sorted(self.side_b),
        }


def validate_split(g: Graph, split: CliqueCutsetSplit) -> None:
    """Raise unless the split is a genuine clique-cutset partition of g."""
    parts = (split.cutset, split.side_a, split.side_b)
    if not split.side_a or not split.side_b:
        raise GraphError("cutset split sides must be nonempty")
    if sum(len(p) for p in parts) != g.n or set().union(*parts) != set(range(g.n)):
        raise GraphError("cutset split must partition the vertex set")
    if not is_clique(g, split.cutset):
        raise GraphError("cutset is not a clique")
    bmask = _mask(split.side_b)
    if any(g.adj[a] & bmask for a in split.side_a):
        raise GraphError("edges cross between the two sides")


def _mcsm(adj, block: int) -> tuple[list[int], list[int]]:
    """MCS-M on the vertices of the mask block: a minimal elimination
    ordering plus its fill-in (Berry, Blair, Heggernes & Peyton, 2004).

    adj holds one adjacency mask per vertex of the whole graph. Returns
    (sigma, fill) where sigma lists block's vertices, sigma[k] at position
    k+1 of the ordering, and fill[v] is v's adjacency mask in the filled
    graph for each v in block. The next vertex is the lowest one of the
    highest non-empty weight bucket. An unnumbered u gains weight (and a
    fill edge to v) iff some path from v to u has all its internal vertices
    unnumbered and lighter than u. The search for such paths visits weight
    levels upwards and stops below the heaviest unnumbered weight, which
    no path can beat.
    """
    fill = list(adj)
    weight = [0] * len(adj)
    buckets = [0] * (block.bit_count() + 1)  # buckets[w]: the unnumbered vertices of weight w
    buckets[0] = unnumbered = block
    top = 0
    order = []
    while unnumbered:
        bit = buckets[top] & -buckets[top]
        v = bit.bit_length() - 1
        buckets[top] ^= bit
        unnumbered ^= bit
        while top and not buckets[top]:
            top -= 1
        reached = gain = adj[v] & unnumbered
        lighter = expanded = 0
        for level in range(top):
            lighter |= buckets[level]
            frontier = reached & lighter & ~expanded
            while frontier:
                expanded |= frontier
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= adj[low.bit_length() - 1]
                    frontier ^= low
                new = grow & unnumbered & ~reached
                reached |= new
                gain |= new & ~lighter
                frontier = new & lighter
        fill[v] |= gain
        while gain:
            low = gain & -gain
            u = low.bit_length() - 1
            gain ^= low
            w = weight[u]
            weight[u] = w + 1
            buckets[w] ^= low
            buckets[w + 1] |= low
            fill[u] |= bit
        if buckets[top + 1]:
            top += 1
        order.append(v)
    order.reverse()
    return order, fill


def _splits(adj, block: int):
    """The clique-cutset splits of the connected vertex mask block, as
    (cutset, side_a, side_b) masks, in one pass over one MCS-M order
    (Tarjan, "Decomposition by clique separators", 1985).

    At each v of sigma, if v's later filled neighbors form a clique that
    separates v's component side_a from the rest, that is a split, and the
    scan goes on in side_b | cutset. Since sigma is a minimal elimination
    ordering, every side_a | cutset is an atom, and the scan splits whenever
    a clique separator exists. No vertex of side_a comes after v: the first
    one on a path from v inside side_a would be a later filled neighbor of v
    (Rose, Tarjan & Lueker's path lemma), so the scan never meets a vertex
    it has cut off.
    """
    if _is_clique_mask(adj, block):
        return
    sigma, fill = _mcsm(adj, block)
    later = block
    for v in sigma:
        later ^= 1 << v
        cut = fill[v] & later
        if not _is_clique_mask(adj, cut):
            continue
        side_a = _component(adj, 1 << v, block & ~cut)
        side_b = block & ~side_a & ~cut
        if side_b:
            yield cut, side_a, side_b
            block = side_b | cut


def find_clique_cutset(g: Graph) -> CliqueCutsetSplit | None:
    """A clique cutset split if one exists, else None.

    The first split of the one-pass scan that decompose_into_atoms keeps:
    by Tarjan's theorem it finds a clique separator whenever one exists.
    """
    if not g.is_connected():
        raise GraphError("clique cutset search requires a connected graph")
    found = next(_splits(g.adj, g.full_mask()), None)
    if found is None:
        return None
    split = CliqueCutsetSplit(*(frozenset(_bits(m)) for m in found))
    validate_split(g, split)
    return split


class AtomDecomposition(NamedTuple):
    """The clique-cutset splits of one scan and the atom they leave.

    cuts holds the (cutset, side_a, side_b) masks that _splits yields, top
    split first; each split cuts off the atom side_a | cutset and the scan
    goes on in side_b | cutset, down to the bottom atom, the mask last. All
    vertex sets refer to the original graph's labels. The splits read as a
    binary tree whose left children are atoms: split and left/right (or
    atom, at a leaf) give its root, and to_json the whole tree nested. The
    sides stay masks until read: a path or spider on n vertices has about n
    splits whose sides hold O(n) vertices each, so stored frozensets would
    take quadratic memory.
    """

    cuts: tuple[tuple[int, int, int], ...]
    last: int

    @property
    def split(self) -> CliqueCutsetSplit | None:
        return CliqueCutsetSplit(*(frozenset(_bits(m)) for m in self.cuts[0])) if self.cuts else None

    @property
    def atom(self) -> frozenset[int] | None:
        return None if self.cuts else frozenset(_bits(self.last))

    @property
    def left(self) -> "AtomDecomposition | None":
        if not self.cuts:
            return None
        cut, side_a, _ = self.cuts[0]
        return AtomDecomposition((), side_a | cut)

    @property
    def right(self) -> "AtomDecomposition | None":
        return AtomDecomposition(self.cuts[1:], self.last) if self.cuts else None

    def leaves(self) -> list[frozenset[int]]:
        return [frozenset(_bits(side_a | cut)) for cut, side_a, _ in self.cuts] + [frozenset(_bits(self.last))]

    def depth(self) -> int:
        return len(self.cuts)

    def to_json(self) -> dict:
        out: dict = {"atom": list(_bits(self.last))}
        for cut, side_a, side_b in reversed(self.cuts):
            split = CliqueCutsetSplit(*(frozenset(_bits(m)) for m in (cut, side_a, side_b)))
            out = {"split": split.to_json(), "left": {"atom": list(_bits(side_a | cut))}, "right": out}
        return out


def decompose_into_atoms(g: Graph) -> AtomDecomposition:
    """Clique-cutset decomposition of a connected graph down to cutset-free
    atoms. The tree is immutable and shared: every call on the same object,
    and the colorers, get the one g keeps (see _decompose)."""
    if not g.is_connected():
        raise GraphError("atom decomposition requires a connected graph")
    return _decompose(g, g.full_mask())


def _decompose(g: Graph, block: int) -> AtomDecomposition:
    """decompose_into_atoms on the connected vertex mask block of g: the
    splits of one scan, and the bottom atom side_b | cutset of the last
    (block if none). The tree of the full vertex mask is computed once per
    object and kept in g._atoms, so the caller gets a shared immutable tree;
    any other block is scanned afresh."""
    full = block == g.full_mask()
    if full and g._atoms is not None:
        return g._atoms
    cuts = tuple(_splits(g.adj, block))
    tree = AtomDecomposition(cuts, cuts[-1][0] | cuts[-1][2] if cuts else block)
    if full:
        g._atoms = tree
    return tree


class BisimplicialCertificate(NamedTuple):
    """A vertex whose neighborhood is covered by two cliques."""

    vertex: int
    clique1: frozenset[int]
    clique2: frozenset[int]

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "clique1": sorted(self.clique1),
            "clique2": sorted(self.clique2),
        }


def _two_cliques(adj, block: int) -> tuple[int, int] | None:
    """Masks of two cliques that partition the mask block, or None: a
    breadth-first 2-coloring of the complement, each component's lowest
    vertex on the first side, which is proper iff both sides are cliques."""
    sides = [0, 0]
    rest = block
    while rest:
        frontier, parity = rest & -rest, 0
        while frontier:
            sides[parity] |= frontier
            rest &= ~frontier
            grow = 0
            for u in _bits(frontier):
                grow |= ~adj[u]  # complement edges are the non-adjacent pairs
            frontier, parity = grow & rest, parity ^ 1
    return tuple(sides) if all(_is_clique_mask(adj, side) for side in sides) else None


def split_into_two_cliques(g: Graph, vertices: frozenset[int]) -> tuple[frozenset[int], frozenset[int]] | None:
    """Partition the set into two cliques of g if possible."""
    got = _two_cliques(g.adj, _vertex_mask(g, vertices))
    return None if got is None else tuple(frozenset(_bits(side)) for side in got)


def _bisimplicial(adj, block: int) -> tuple[int, int, int] | None:
    """Lowest vertex of the mask block whose neighborhood in block splits
    into two cliques, with the masks of the two cliques, or None."""
    for v in _bits(block):
        got = _two_cliques(adj, adj[v] & block)
        if got is not None:
            return v, *got
    return None


def find_bisimplicial(g: Graph) -> BisimplicialCertificate | None:
    """Lowest-index vertex whose neighborhood splits into two cliques."""
    got = _bisimplicial(g.adj, g.full_mask())
    return None if got is None else BisimplicialCertificate(got[0], *(frozenset(_bits(m)) for m in got[1:]))


class PeelResult(NamedTuple):
    """Count of universal vertices peeled off, plus what remains."""

    ell: int
    remainder: frozenset[int]

    def to_json(self) -> dict:
        return {"ell": self.ell, "remainder": sorted(self.remainder)}


def peel_universal_clique(g: Graph) -> PeelResult:
    """Remove every universal vertex in one pass.

    Universal vertices are mutually adjacent, so they form a clique; the
    remainder can contain no universal-in-remainder vertex (such a vertex
    would have been universal in g already).
    """
    return _peel(g.adj, g.full_mask())


def _peel(adj, block: int) -> PeelResult:
    """peel_universal_clique on the subgraph induced on the mask block."""
    universal = [v for v in _bits(block) if adj[v] & block == block ^ 1 << v]
    return PeelResult(ell=len(universal), remainder=frozenset(_bits(block)) - set(universal))


class BlowupCertificate(NamedTuple):
    """Witness that a graph is a clique blowup of the given base."""

    base: Graph
    classes: tuple[frozenset[int], ...]
    class_map: dict[int, int]  # base vertex -> index into classes

    def weights(self) -> tuple[int, ...]:
        return tuple(len(self.classes[self.class_map[i]]) for i in range(self.base.n))

    def to_json(self) -> dict:
        return {
            "classes": [sorted(c) for c in self.classes],
            "class_map": {str(v): i for v, i in self.class_map.items()},
        }


def recognize_clique_blowup(g: Graph, base: Graph) -> BlowupCertificate | None:
    """Decide whether g is a clique blowup of the twin-free base. Bases with
    true twins are rejected: their quotient would be ambiguous."""
    if len(_twin_classes(base.adj, base.full_mask())) != base.n:
        raise GraphError("blowup base must be twin-free")
    return _blowup(g.adj, g.full_mask(), base)


def _blowup(adj, block: int, base: Graph) -> BlowupCertificate | None:
    """Certificate that the mask block induces a clique blowup of the
    twin-free base, or None.

    True-twin classes (equal closed neighborhoods) are the only possible
    blowup classes. True twins are adjacent, so each class is a clique, and
    two classes are complete or anticomplete to each other; so the block is
    a blowup iff the quotient on the classes is isomorphic to the base.
    """
    if not block or block.bit_count() < base.n:
        return None
    classes = _twin_classes(adj, block)
    if len(classes) != base.n:
        return None
    quotient = _relabel(adj, [(c & -c).bit_length() - 1 for c in classes])  # on the lowest vertex of each class
    iso = find_isomorphism(base, quotient)
    if iso is None:
        return None
    return BlowupCertificate(base, tuple(frozenset(_bits(c)) for c in classes), dict(iso))


def recognize_fixed(g: Graph) -> str | None:
    """Name the graph if it is one of the two fixed exceptional graphs."""
    if g.n == 10:
        if find_isomorphism(g, petersen()) is not None:
            return "Petersen"
        if find_isomorphism(g, graph_f()) is not None:
            return "F"
    return None


# the colouring bound each structure theorem yields, as a function of omega
COLORING_BOUNDS = {
    "diamond": lambda omega: max(3, omega),
    "kite": lambda omega: omega + 1,
    "gem": lambda omega: 2 * omega - 1,
}


class TheoremCase(NamedTuple):
    """What a structure theorem says about one connected class member
    without a clique cutset.

    kind is one of
      "petersen"       the block is a Petersen core: the Petersen graph
                       (diamond), a clique joined to it (kite) or a clique
                       blowup of it (gem)
      "eliminate"      vertex sees fewer than budget (the class bound)
                       colors once the rest is colored: its degree is
                       under budget, or it is bisimplicial (gem)
      "contradiction"  no case applies, so the theorem is falsified;
                       detail says how
    A Petersen core comes with its blowup certificate in blowup, over the
    peel remainder under kite. peel is the universal-clique peel, computed
    for the kite class only; its ell is 0 unless a clique is joined.
    """

    kind: str
    peel: PeelResult | None = None
    blowup: BlowupCertificate | None = None
    vertex: int | None = None
    budget: int | None = None
    detail: str = ""


def theorem_case(g: Graph, block: int, class_name: str, omega: int) -> TheoremCase:
    """Apply the class's structure theorem to the subgraph of g induced on
    the vertex mask block, whose clique number is omega; the answer is in
    g's labels.

    The block must induce a connected member of the class with no clique cutset:
      diamond: the Petersen graph, or delta <= max(2, omega-1);
      kite:    if delta >= omega+1, a clique joined to the Petersen graph;
      gem:     a clique blowup of the Petersen graph, or a bisimplicial vertex.
    One test finds the Petersen core in every class: the block, or its peel
    remainder under kite, as a clique blowup of the Petersen graph. In a
    diamond- or kite-class member that blowup is the Petersen graph itself,
    since doubling any Petersen vertex makes a diamond and a kite.
    """
    if not block or block >> g.n:
        raise GraphError(f"block {block:#x} is not a nonempty set of the graph's {g.n} vertices")
    adj = g.adj
    third = class_third_pattern(class_name)
    budget = COLORING_BOUNDS[third](omega)
    peel = _peel(adj, block) if third == "kite" else None
    cert = _blowup(adj, block if peel is None else _mask(peel.remainder), petersen())
    if cert is not None:
        return TheoremCase("petersen", peel=peel, blowup=cert)
    if third == "gem":
        bis = _bisimplicial(adj, block)
        if bis is None:
            return TheoremCase("contradiction", detail=(
                "connected cutset-free member is not a Petersen blowup and has no bisimplicial vertex"
            ))
        # a bisimplicial vertex has degree <= 2*omega - 2, strictly under the bound
        return TheoremCase("eliminate", vertex=bis[0], budget=budget)
    v = min(_bits(block), key=lambda u: (adj[u] & block).bit_count())
    delta = (adj[v] & block).bit_count()
    if delta < budget:
        return TheoremCase("eliminate", peel=peel, vertex=v, budget=budget)
    if third == "diamond":
        detail = (f"connected cutset-free non-exceptional member has delta {delta}"
                  f" > max(2, omega-1) = {max(2, omega - 1)}")
    else:
        detail = (f"connected cutset-free member with delta {delta} >= omega+1 = {omega + 1}"
                  " whose universal-clique peel does not leave the Petersen graph")
    return TheoremCase("contradiction", peel=peel, detail=detail)
