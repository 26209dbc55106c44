"""Detectors for the forbidden induced patterns, with explicit witnesses.

A witness lists vertices in the pattern's canonical labeling order (path
order for paths, cycle order for holes). Searches are exhaustive
backtracking, so a None result proves absence. The returned witness is
always the lexicographically least one, which keeps outputs deterministic.
Paths and holes have their own searches here. The diamond, kite, gem and
bull are placed by graphs._find_fixed_pattern, the library's one search for
an induced placement of a fixed graph, which find_isomorphism also runs.
_has_pattern_through is the generator's one test of whether a new vertex
lies on a copy of a pattern.

Each witness search runs on the m lowest vertices of every true-twin class of
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
free of, as bits of `Graph._absent`. find_induced_pattern sets a name's bit
when its search returns None and answers a later query for the name with
one bit test, and enumerate.p7c4_free_graphs sets the bits it proves by
induction as it grows each graph. The verifier asks the same member about
P7, C4 and X under several theorems, and the colourers repeat their
caller's membership check, so most absence queries are repeats. Witnesses
are not memoised: a present pattern is usually found early, and keeping
each witness alive as long as its graph would hold thousands of them.
Holes named 'hole(k)' get no bit; no caller asks for one twice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .graphs import (
    Graph,
    GraphError,
    _bits,
    _find_fixed_pattern,
    _is_clique_mask,
    _place,
    _relabel,
    _twin_classes,
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
_FIXED_EDGES = {"diamond": (4, _DIAMOND_EDGES), "kite": (5, _KITE_EDGES), "gem": (5, _GEM_EDGES),
                "bull": (5, _BULL_EDGES)}

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
    if name in _FIXED_EDGES:
        return Graph(*_FIXED_EDGES[name])
    k = int(name[1]) if name in ("C4", "C7") else _parse_hole(name)
    if k is None:
        raise GraphError(f"unknown pattern {name!r}")
    return cycle_graph(k)


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


class PatternWitness(NamedTuple):
    """A named pattern plus the vertex list inducing it, in canonical order."""

    pattern: str
    vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"pattern": self.pattern, "vertices": list(self.vertices)}


class ClassCertificate(NamedTuple):
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
    elif pattern in _FIXED_EDGES:
        pat = pattern_graph(pattern)
        got = _find_fixed_pattern(g, pat, [_twin_representatives(g.adj, _largest_twin_class(pat))] * pat.n)
    else:  # a hole; pattern_graph rejects every other name
        k = pattern_graph(pattern).n
        got = _search_induced_cycles(g, k, lambda cycle: True, _twin_representatives(g.adj, 1))
    if got is None:
        g._absent |= bit
        return None
    return PatternWitness(pattern, got)


@lru_cache(maxsize=None)
def _largest_twin_class(pat: Graph) -> int:
    """Size of the pattern's largest true-twin class."""
    return max(c.bit_count() for c in _twin_classes(pat.adj, pat.full_mask()))


def find_hole(g: Graph, k: int) -> PatternWitness | None:
    """A k-hole in cycle order, or None with an exhaustive-search guarantee."""
    return find_induced_pattern(g, f"hole({k})")


def _has_pattern_through(adj: tuple[int, ...], near: int, name: str) -> bool:
    """Whether a vertex x added to the graph with rows adj, as vertex
    len(adj) adjacent to the vertices of near, lies on an induced C4, P7,
    diamond, kite or gem (name). x's row is near; no test needs bit x in
    another row.

    x is on a C4 iff a vertex outside N[x] sees two non-adjacent
    neighbours of x; a P7 is grown from x arm by arm (_p7_arm). x is a
    middle vertex of a diamond iff two adjacent neighbours of x differ in
    their closed neighbourhoods inside N(x), and an end iff two adjacent
    neighbours have a common neighbour outside N[x]. The kite and gem are
    placed with x first, once per orbit of their vertices.
    """
    if name == "C4":
        return not all(_is_clique_mask(adj, adj[v] & near) for v in range(len(adj)) if not near >> v & 1)
    if name == "diamond":
        return any(adj[w] & near | 1 << w != adj[u] & near | 1 << u or adj[u] & adj[w] & ~near
                   for u in _bits(near) for w in _bits(adj[u] & near))
    x = len(adj)
    rows = adj + (near,)
    if name == "P7":
        return any(_p7_arm(rows, w, x, 1 << x | 1 << w, 0, 2, True) for w in _bits(near))
    rest = (1 << x) - 1
    return any(_place(rows, pat.adj, [0] * pat.n, 0, [1 << x] + [rest] * (pat.n - 1))
               for pat in _anchored_copies(name))


def _p7_arm(adj, end: int, other: int, used: int, inner: int, size: int, first: bool) -> bool:
    # an induced P7 through x has three or more vertices on one side of x:
    # grow that arm from x first, then the other arm from x. A vertex joins
    # at end if it is off the path, sees end and sees neither the far end
    # other nor an inner vertex (inner: the union of their neighbourhoods)
    if size == 7:
        return True
    if first and size >= 4 and _p7_arm(adj, other, end, used, inner, size, False):
        return True
    for w in _bits(adj[end] & ~adj[other] & ~used & ~inner):
        if _p7_arm(adj, w, other, used | 1 << w, inner | adj[end], size + 1, first):
            return True
    return False


@lru_cache(maxsize=None)
def _anchored_copies(name: str) -> tuple[Graph, ...]:
    """The pattern relabelled to start at one vertex of each orbit, then its
    neighbours; orbits of higher degree, where x lies more often, first."""
    pat = pattern_graph(name)
    autos = [p for p in permutations(range(pat.n)) if all(pat.has_edge(p[u], p[v]) for u, v in pat.edges())]
    starts = sorted({min(p[v] for p in autos) for v in range(pat.n)}, key=lambda v: (-pat.degree(v), v))
    orders = [sorted(range(pat.n), key=lambda v: (v != s, not pat.has_edge(s, v))) for s in starts]
    return tuple(_relabel(pat.adj, o) for o in orders)


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
    for start in _bits(allowed):
        path[0] = start
        if k == 1 or _extend_path(adj, at, path, 1, allowed & ~(1 << start), 0):
            return tuple(path)
    return None


def _extend_path(adj, at: list[int], path: list[int], pos: int, free: int, blocked: int) -> bool:
    # fills path[pos:] from the layers at; free: allowed minus the path;
    # blocked: union of neighborhoods of path[0..pos-2]
    last = path[pos - 1]
    for v in _bits(adj[last] & free & ~blocked & at[pos]):
        path[pos] = v
        if pos + 1 == len(path) or _extend_path(adj, at, path, pos + 1, free & ~(1 << v), blocked | adj[last]):
            return True
    return False


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
    for start in _bits(allowed):
        cyc[0] = start
        if _extend_cycle(adj, cyc, stop, 1, allowed & ~(1 << start), 0):
            return tuple(cyc)
    return None


def _extend_cycle(adj, cyc: list[int], stop, pos: int, free: int, blocked: int) -> bool:
    # fills cyc[pos:]; free: allowed minus the cycle so far; blocked: union
    # of neighborhoods of cyc[1..pos-2]; the start vertex is handled
    # separately since the final vertex must close the cycle
    k = len(cyc)
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
        elif _extend_cycle(adj, cyc, stop, pos + 1, free & ~(1 << v), blocked | (adj[last] if pos >= 2 else 0)):
            return True
    return False


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
