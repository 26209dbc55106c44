"""Detectors for the forbidden induced patterns, with explicit witnesses.

A witness lists vertices in the pattern's canonical labeling order (path
order for paths, cycle order for holes). Searches are exhaustive
backtracking, so a None result proves absence. The returned witness is
always the lexicographically least one, which keeps outputs deterministic.

Each search runs only on the m lowest vertices of every true-twin class of
the graph (vertices with the same closed neighborhood), where m is the size
of the pattern's largest true-twin class: 1 for paths, holes, the gem and
the bull, 2 for the diamond and the kite. This loses no witness. Let W be
the lex-least witness, and suppose it uses v but not a lower twin u of v.
Putting u in place of v still induces the pattern, and the tuple gets
lex-smaller; for a cycle this holds in every rotation and reflection, so
also for its canonical tuple. So W takes an initial segment of each twin
class, and the pattern vertices that land in one class are twins inside
the pattern, so there are at most m of them. The search therefore returns
the same witness, or None, as a search over all vertices would, and clique
blowups cost about as much as their base graph.

The path search also keeps each position of the path to a layer of the
allowed mask. Layer 0 is the mask, and layer j holds the vertices of layer
j-1 with at least two neighbours in layer j-1. The vertex at position p of
an induced P_k lies in layer min(p, k-1-p), its depth. By induction on j,
every path vertex of depth at least j lies in layer j: for j >= 1 such a
vertex and its two path neighbours have depth at least j-1, so all three
lie in layer j-1, and the vertex has two neighbours there. A branch
cut by the layers could not complete, so the lex-least path is unchanged,
and an empty middle layer proves absence at once: a spider whose legs have
at most two edges has nothing in layer 3, however many legs it has.

Each graph remembers which names of PATTERN_NAMES it has been proven
free of: find_induced_pattern sets the name's bit in `Graph._absent` when
its search returns None, and answers a later query for that name with
None at the cost of one bit test. The verifier asks the same member about
P7, C4 and X under several theorems, and the colourers repeat the
membership check their caller already made, so most absence queries of
an exhaustive check are repeats. Witnesses are not memoised: a present
pattern is usually found early in the search, and keeping each witness
alive for as long as its graph would hold thousands of them for the
exhaustive filter's sake. Holes named 'hole(k)' get no bit; no caller
asks for one twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    _bits,
    _true_twin_classes,
    _twin_representatives,
    cycle_graph,
    path_graph,
)

# canonical adjacency for the small fixed patterns; vertex order defines the
# witness labeling
_DIAMOND_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))          # K4 minus 0-3
_KITE_EDGES = _DIAMOND_EDGES + ((3, 4),)                            # pendant at a degree-2 vertex
_GEM_EDGES = ((0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4))  # P4 plus apex
_BULL_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4))              # triangle plus two pendants

PATTERN_NAMES = ("P7", "C4", "C7", "diamond", "kite", "gem", "bull")
_ABSENT_BIT = {name: 1 << i for i, name in enumerate(PATTERN_NAMES)}  # Graph._absent

CLASS_NAMES = ("diamond-class", "kite-class", "gem-class")
# the class each theorem is about; verify checks them, the CLI parser names them
THEOREM_CLASS = {"T1": "diamond-class", "T2": "kite-class", "T3": "gem-class",
                 "C1": "diamond-class", "C2": "kite-class", "C3": "gem-class"}
THEOREMS = tuple(THEOREM_CLASS)


@lru_cache(maxsize=None)
def pattern_graph(name: str) -> Graph:
    """The canonical copy of a named pattern (holes via 'hole(k)')."""
    if name == "P7":
        return path_graph(7)
    if name == "C4":
        return cycle_graph(4)
    if name == "C7":
        return cycle_graph(7)
    if name == "diamond":
        return Graph(4, _DIAMOND_EDGES)
    if name == "kite":
        return Graph(5, _KITE_EDGES)
    if name == "gem":
        return Graph(5, _GEM_EDGES)
    if name == "bull":
        return Graph(5, _BULL_EDGES)
    k = _parse_hole(name)
    if k is not None:
        return cycle_graph(k)
    raise GraphError(f"unknown pattern {name!r}")


def _parse_hole(name: str) -> int | None:
    """k for a name 'hole(k)', else None; k < 4 raises GraphError."""
    if not (name.startswith("hole(") and name.endswith(")")):
        return None
    try:
        k = int(name[5:-1])
    except ValueError:
        return None
    if k < 4:
        raise GraphError("holes have length at least 4")
    return k


@dataclass(frozen=True)
class PatternWitness:
    """A named pattern plus the vertex list inducing it, in canonical order."""

    pattern: str
    vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"pattern": self.pattern, "vertices": list(self.vertices)}


@dataclass(frozen=True)
class ClassCertificate:
    """Membership verdict for one of the three hereditary classes.

    free is True exactly when witness is None; a present witness is a
    forbidden pattern found inside the graph.
    """

    class_name: str
    free: bool
    witness: PatternWitness | None

    def to_json(self) -> dict:
        return {
            "class": self.class_name,
            "free": self.free,
            "witness": self.witness.to_json() if self.witness else None,
        }


def find_induced_pattern(g: Graph, pattern: str) -> PatternWitness | None:
    """Lex-least induced copy of the pattern, or None (proof of absence)."""
    bit = _ABSENT_BIT.get(pattern, 0)
    if g._absent & bit:
        return None
    if pattern == "P7":
        got = _find_induced_path(g, 7, _twin_representatives(g.adj, 1))
    else:
        k = int(pattern[1]) if pattern in ("C4", "C7") else _parse_hole(pattern)
        if k is not None:
            got = _search_induced_cycles(g, k, lambda cycle: True, _twin_representatives(g.adj, 1))
        else:
            pat = pattern_graph(pattern)
            got = _find_fixed_pattern(g, pat, _twin_representatives(g.adj, _largest_twin_class(pat)))
    if got is None:
        g._absent |= bit
        return None
    return PatternWitness(pattern, got)


@lru_cache(maxsize=None)
def _largest_twin_class(pat: Graph) -> int:
    """Size of the pattern's largest true-twin class."""
    return max(c.bit_count() for c in _true_twin_classes(pat.adj, pat.full_mask()))


def find_hole(g: Graph, k: int) -> PatternWitness | None:
    """A k-hole in cycle order, or None with an exhaustive-search guarantee."""
    return find_induced_pattern(g, f"hole({k})")


def _find_fixed_pattern(g: Graph, pat: Graph, allowed: int) -> tuple[int, ...] | None:
    """Backtracking over partial maps into the vertex mask allowed, with
    forward checking.

    Every pattern vertex keeps a candidate mask; placing a vertex narrows the
    mask of each later pattern vertex to its neighbours or non-neighbours, and
    a branch stops as soon as one later mask is empty. Plain backtracking
    would visit the same candidates in the same order and only fail deeper,
    so the first complete map, the lex-least one, is unchanged. A tree fails
    the gem at its second vertex (the apex has no candidate), and a clique
    fails the diamond and kite at the first (vertex 3 has no non-neighbour
    of vertex 0).
    """
    k = pat.n
    if g.n < k:
        return None
    gadj = g.adj
    padj = pat.adj
    # links[pos]: for each later pattern vertex, whether it is adjacent to pos
    links = [tuple(padj[j] >> pos & 1 for j in range(pos + 1, k)) for pos in range(k)]
    chosen = [0] * k

    def place(pos: int, masks: list[int]) -> bool:
        # masks[j - pos]: the candidates for pattern vertex j >= pos
        for v in _bits(masks[0]):
            chosen[pos] = v
            if pos + 1 == k:
                return True
            near = gadj[v]
            far = ~(near | 1 << v)
            rest = [m & (near if linked else far) for m, linked in zip(masks[1:], links[pos])]
            if all(rest) and place(pos + 1, rest):
                return True
        return False

    return tuple(chosen) if place(0, [allowed] * k) else None


def _find_induced_path(g: Graph, k: int, allowed: int) -> tuple[int, ...] | None:
    """Lex-least induced P_k inside the vertex mask allowed, as a
    path-ordered tuple; position p keeps to layer min(p, k-1-p) (see the
    module docstring)."""
    if g.n < k:
        return None
    adj = g.adj
    layers = [allowed]
    for _ in range((k - 1) // 2):
        below = keep = rest = layers[-1]
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1] & below
            if not near & near - 1:  # fewer than two neighbours in the layer below
                keep ^= low
        layers.append(keep)
    if not layers[-1]:
        return None
    at = [layers[min(p, k - 1 - p)] for p in range(k)]
    path = [0] * k

    def extend(pos: int, free: int, blocked: int) -> bool:
        # free: allowed minus the path; blocked: union of neighborhoods of
        # path[0..pos-2]
        last = path[pos - 1]
        cand = adj[last] & free & ~blocked & at[pos]
        for v in _bits(cand):
            path[pos] = v
            if pos + 1 == k:
                return True
            if extend(pos + 1, free & ~(1 << v), blocked | adj[last]):
                return True
        return False

    for start in _bits(allowed):
        path[0] = start
        if k == 1 or extend(1, allowed & ~(1 << start), 0):
            return tuple(path[:k])
    return None


def _search_induced_cycles(g: Graph, k: int, stop, allowed: int) -> tuple[int, ...] | None:
    """Visit every induced C_k inside the vertex mask allowed once, as its
    lex-least cycle-order tuple, in lexicographic order; returns the first
    cycle for which stop(cycle) is true, or None once all are visited.

    The lex-least tuple starts at the cycle's smallest vertex with its
    smaller neighbor second, so searching ascending candidates above the
    start vertex is exhaustive and meets each vertex set exactly once.
    """
    if g.n < k:
        return None
    adj = g.adj
    cyc = [0] * k

    def extend(pos: int, free: int, blocked: int) -> bool:
        # free: allowed minus the cycle so far; blocked: union of
        # neighborhoods of cyc[1..pos-2]; the start vertex is handled
        # separately since the final vertex must close the cycle
        start = cyc[0]
        last = cyc[pos - 1]
        cand = adj[last] & free & ~blocked
        if pos == k - 1:
            cand &= adj[start]
            cand &= ~((1 << (cyc[1] + 1)) - 1)  # mirror symmetry: c1 < c_{k-1}
        elif pos >= 2:
            cand &= ~adj[start]
        # every later vertex exceeds the start in the lex-least tuple
        cand &= ~((1 << (start + 1)) - 1)
        for v in _bits(cand):
            cyc[pos] = v
            if pos + 1 == k:
                if stop(tuple(cyc)):
                    return True
            elif extend(pos + 1, free & ~(1 << v), blocked | (adj[last] if pos >= 2 else 0)):
                return True
        return False

    for start in _bits(allowed):
        cyc[0] = start
        if extend(1, allowed & ~(1 << start), 0):
            return tuple(cyc)
    return None


def _normalize_class(class_name: str) -> str:
    name = class_name.lower()
    if not name.endswith("-class"):
        name += "-class"
    if name not in CLASS_NAMES:
        raise GraphError(f"unknown class {class_name!r}")
    return name


def class_third_pattern(class_name: str) -> str:
    return _normalize_class(class_name).removesuffix("-class")


def class_membership(g: Graph, class_name: str) -> ClassCertificate:
    """Check (P7, C4, X)-freeness for X in {diamond, kite, gem}.

    P7 is tested first, then C4, then X; the first witness found decides.
    """
    name = _normalize_class(class_name)
    for pattern in ("P7", "C4", name.removesuffix("-class")):
        w = find_induced_pattern(g, pattern)
        if w is not None:
            return ClassCertificate(name, False, w)
    return ClassCertificate(name, True, None)
