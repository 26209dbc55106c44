"""Certified colorings realizing the three class bounds.

The coloring mirrors the inductive structure of the bound proofs: it colors
the atoms that the splits structure.decompose_into_atoms lists for each
component cut off, merging at each clique cutset. A clique, every bound's
base case, is colored in closed form, as one clique-base step in every
class. Each other atom goes to theorem_case, the engine verify checks: a
"petersen" verdict (the Petersen graph, a clique joined to it, or a clique
blowup of it) gets a minimum cover by independent sets, and an "eliminate"
verdict removes the low-degree or bisimplicial vertex the theorem supplies,
to be greedily re-colored. No exact chromatic oracle is run; those judge the
colorer in the tests.
A certificate carries the assignment, the claimed bound, and a flat
replayable trace of derivation steps, whose every mapping is a list of
pairs, so a trace read back from JSON replays as it is. Its four step
kinds are the cases of the induction: clique-base, blowup-color (a peeled
clique included), eliminate-vertex, and cutset-merge (components merge over
the empty cutset). _apply alone executes a step: replay_trace folds it over
a trace, and _color runs each step it decides through it, so the assignment
is the trace's replay by construction. A cutset merge renames the colors of
its left coloring, an atom's, and writes them into the right coloring's
dict, in O(|left|).

If a certified class member reaches a state where no theorem case applies,
that falsifies the underlying structure theorem; it is raised loudly as
StructuralContradiction with the offending graph attached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import ceil
from typing import NamedTuple

from .families import petersen
from .graphs import (
    Graph,
    GraphError,
    StructuralContradiction,
    _bits,
    _components,
    _is_clique_mask,
    _max_clique_size,
    induced_subgraph,
)
from .patterns import class_membership, class_third_pattern
from .structure import COLORING_BOUNDS, BlowupCertificate, TheoremCase, _decompose, theorem_case


class ColoringCertificate(NamedTuple):
    """Proper coloring with its class, claimed bound, and derivation trace."""

    assignment: dict[int, int]
    colors_used: int
    class_name: str
    claimed_bound: int
    trace: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "assignment": {str(v): c for v, c in sorted(self.assignment.items())},
            "colors_used": self.colors_used,
            "class": self.class_name,
            "claimed_bound": self.claimed_bound,
            "trace": [dict(s) for s in self.trace],
        }


def validate_certificate(g: Graph, cert: ColoringCertificate) -> None:
    """Raise GraphError unless the certificate is sound for g.

    Its six checks, in order: the assignment covers exactly g's vertices;
    every color is an integer from 1; no edge is monochromatic; colors_used
    is the largest color; the claimed bound is an integer at least
    colors_used; and the trace replays to the assignment. Properness is
    tested per color class: the pass that checks the colors builds one
    vertex mask per color, and then each vertex v in order tests
    adj[v] & class. The first v that meets its own class and its lowest
    neighbour there are the lex-least monochromatic edge, which the error names.
    """
    if set(cert.assignment) != set(range(g.n)):
        raise GraphError("assignment does not cover the vertex set")
    colors = [cert.assignment[v] for v in range(g.n)]
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        if type(c) is not int or c < 1:
            raise GraphError("colors must be integers from 1")
        classes[c] = classes.get(c, 0) | 1 << v
    for u, (nbrs, c) in enumerate(zip(g.adj, colors)):
        if same := nbrs & classes[c]:
            raise GraphError(f"edge ({u},{(same & -same).bit_length() - 1}) is monochromatic")
    if cert.colors_used != max(classes, default=0):
        raise GraphError("colors_used does not match the assignment")
    if type(cert.claimed_bound) is not int or cert.colors_used > cert.claimed_bound:
        raise GraphError(f"{cert.colors_used} colors exceed the claimed bound {cert.claimed_bound!r}")
    if replay_trace(cert.trace) != cert.assignment:
        raise GraphError("trace replay does not reproduce the assignment")


def replay_trace(trace) -> dict[int, int]:
    """Re-execute a derivation trace; returns the reconstructed assignment."""
    stack: list[dict[int, int]] = []
    try:
        for step in trace:
            _apply(stack, step)
    except (LookupError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed trace: {exc!r}") from exc
    if len(stack) != 1:
        raise GraphError("trace does not reduce to a single coloring")
    return stack[0]


def _apply(stack: list[dict[int, int]], step: dict) -> None:
    """Execute one trace step on a stack of block colorings, in place.

    This is the one definition of what a step means: replay_trace folds it
    over a trace, and _color runs every step it emits through it. It tests
    the kinds most frequent first: the trace of a nonempty graph has one
    base step (clique-base or blowup-color) more than it has cutset merges,
    and few eliminations. Each mapping a step carries (an assignment, a
    permutation) is a list of pairs.
    A cutset merge pops the left coloring, renames its colors by the
    permutation and writes them into the right coloring's dict: the left
    coloring is a component or the atom side_a | cutset of one split of
    structure._decompose, so the merge costs O(|left|).
    """
    kind = step["step"]
    if kind in ("clique-base", "blowup-color"):
        stack.append(dict(step["assignment"]))
    elif kind == "cutset-merge":
        left = stack.pop(-2)
        right = stack[-1]
        perm = dict(step["permutation"])
        for v in step["cutset"]:
            if perm[left[v]] != right[v]:
                raise GraphError("cutset colors disagree on replay")
        for v, c in left.items():
            right[v] = perm[c]
    elif kind == "eliminate-vertex":
        stack[-1][step["vertex"]] = step["color"]
    else:
        raise GraphError(f"unknown trace step {kind!r}")


def _cutset_permutation(right: dict[int, int], left: dict[int, int], cutset) -> list[tuple[int, int]]:
    """Renaming of left's colors, as (color, new color) pairs, that agrees
    with right on the cutset and sends left's other colors, in order, to the
    smallest colors the cutset does not use.

    Requires both sides injective on the cutset, which holds whenever the
    cutset is a clique properly colored.
    """
    pairs = [(left[v], right[v]) for v in cutset]
    renamed = {c for c, _ in pairs}
    taken = {c for _, c in pairs}
    if len(renamed) != len(cutset) or len(taken) != len(cutset):
        raise GraphError("block colorings are not injective on the cutset")
    nxt = 1
    for c in sorted(set(left.values()).difference(renamed)):
        while nxt in taken:
            nxt += 1
        pairs.append((c, nxt))
        nxt += 1
    return pairs


def _color(g: Graph, block: int, class_name: str) -> tuple[dict[int, int], int, list[dict]]:
    """Coloring of the vertex mask block of g, its clique number, trace steps.

    One work stack stands in for the recursion over components, clique
    cutsets and eliminated vertices. It starts with block's m components,
    as blocks, below m - 1 merges over the empty cutset (identity
    permutations, as every block coloring uses the colors 1..k). A block
    pushes, in the same shape, the atoms of structure._decompose's splits
    and its bottom atom below a merge over each split's cutset; a clique
    goes to _color_clique instead. The tree is only read: for a connected
    g's full mask it is the immutable one g keeps, shared with
    decompose_into_atoms, so a graph decomposed first is not scanned again.
    Each other work item decides one trace step, which runs through
    _apply, replay_trace's interpreter, on the done stack of block
    colorings; steps come out in post-order. omega is the largest clique
    number of an atom, as each clique lies inside one atom.
    An atom that eliminates a vertex v pushes the rest as a block, which is
    connected, as an atom has no cut vertex (a one-vertex clique cutset).
    If v has a true twin in the atom, the rest is pushed as an atom: a clique
    cutset S of the rest would cut the atom (as S, or S + v if S holds the
    twin), so _decompose is skipped and the steps are the block's.
    """
    adj = g.adj
    steps: list[dict] = []
    done: list[dict[int, int]] = []
    omega = 1
    comps = _components(adj, block)
    work: list[tuple] = [("cutset", 0)] * (len(comps) - 1) + [("block", c) for c in reversed(comps)]
    while work:
        kind, mask, *rest = work.pop()
        if kind == "cutset":
            cutset = list(_bits(mask))
            step = {"step": "cutset-merge", "cutset": cutset,
                    "permutation": _cutset_permutation(done[-1], done[-2], cutset)}
        elif kind == "eliminate":
            v, budget = rest
            step = {"step": "eliminate-vertex", "vertex": v,
                    "color": _eliminate(g, mask, done[-1], v, budget, class_name)}
        elif _is_clique_mask(adj, mask):
            omega = max(omega, mask.bit_count())
            step = _color_clique(mask)
        elif kind == "block":
            tree = _decompose(g, mask)
            work += [("cutset", cut) for cut, _, _ in tree.cuts]
            work += [("atom", tree.last)] + [("atom", side_a | cut) for cut, side_a, _ in reversed(tree.cuts)]
            continue
        elif kind == "atom":
            w = _max_clique_size(adj, mask)
            omega = max(omega, w)
            case = theorem_case(g, mask, class_name, w)
            if case.kind == "eliminate":
                v = case.vertex
                closed = (adj[v] | 1 << v) & mask
                twin = any((adj[u] | 1 << u) & mask == closed for u in _bits(adj[v] & mask))
                work += [("eliminate", mask, v, case.budget), ("atom" if twin else "block", mask ^ 1 << v)]
                continue
            step = _color_case(g, mask, case, class_name)
        _apply(done, step)
        steps.append(step)
    (assign,) = done
    return assign, omega, steps


def _color_clique(block: int) -> dict:
    """The one clique-base step of the clique v1 < ... < vk, in every class:
    vi takes k-i+1, vk first. Every class's verdicts on a clique eliminate
    one vertex at a time, the lowest first, so this is their coloring."""
    top_down = reversed(list(_bits(block)))
    return {"step": "clique-base", "assignment": [(v, c) for c, v in enumerate(top_down, start=1)]}


def _color_case(g: Graph, block: int, case: TheoremCase, class_name: str) -> dict:
    """The one blowup-color step of the theorem's verdict on a cutset-free block: the cover
    of its Petersen core, and under kite the peeled clique on the colors after the cover's."""
    if case.kind != "petersen":
        raise StructuralContradiction(class_name, induced_subgraph(g, _bits(block)), case.detail)
    peeled = [] if case.peel is None else sorted(set(_bits(block)) - case.peel.remainder)
    return _blowup_step(case.blowup, peeled)


def _eliminate(g: Graph, block: int, assign: dict[int, int], v: int, budget: int, class_name: str) -> int:
    """Greedy color of v once the rest of the block is colored by assign."""
    used = {assign[u] for u in _bits(g.adj[v] & block)}
    c = 1
    while c in used:
        c += 1
    if c > budget:
        sub = induced_subgraph(g, _bits(block))
        raise StructuralContradiction(class_name, sub, f"vertex {v} needs color {c}, above the budget {budget}")
    return c


def _class_color(g: Graph, class_name: str) -> ColoringCertificate:
    cert = class_membership(g, class_name)
    if not cert.free:
        raise GraphError(
            f"input is not {class_name}: contains {cert.witness.pattern} on {cert.witness.vertices}"
        )
    return _color_member(g, class_name)


def _color_member(g: Graph, class_name: str) -> ColoringCertificate:
    """Validated certificate for a graph already known to be a class member."""
    if g.n == 0:
        raise GraphError("cannot color the empty graph")
    assign, omega, steps = _color(g, g.full_mask(), class_name)
    out = ColoringCertificate(
        assignment=assign,
        colors_used=max(assign.values()),
        class_name=class_name,
        claimed_bound=COLORING_BOUNDS[class_third_pattern(class_name)](omega),
        trace=tuple(steps),
    )
    validate_certificate(g, out)
    return out


def color_diamond_class(g: Graph) -> ColoringCertificate:
    """Coloring of a (P7,C4,diamond)-free graph with at most max(3, omega) colors."""
    return _class_color(g, "diamond-class")


def color_kite_class(g: Graph) -> ColoringCertificate:
    """Coloring of a (P7,C4,kite)-free graph with at most omega+1 colors."""
    return _class_color(g, "kite-class")


def color_gem_class(g: Graph) -> ColoringCertificate:
    """Coloring of a (P7,C4,gem)-free graph with at most 2*omega-1 colors."""
    return _class_color(g, "gem-class")


# ---------------------------------------------------------------------------
# Petersen-blowup coloring: exact minimum via weighted covering


@lru_cache(maxsize=1)
def _petersen_cover_tables() -> tuple[tuple, tuple, tuple]:
    """The cover search's tables: the maximal independent sets through each
    vertex, larger sets first (the masks that meet no neighbourhood of their
    own vertices and every neighbourhood of the others), the edges, and the
    twelve 5-cycles (the 5-sets in which every vertex has two neighbours;
    girth 5 rules out a triangle plus an edge)."""
    p = petersen()
    sets = sorted((tuple(_bits(m)) for m in range(1 << 10)
                   if not any(p.adj[v] & m for v in _bits(m)) and all(p.adj[w] & m for w in _bits(1023 & ~m))),
                  key=lambda s: (-len(s), s))
    pentagons = tuple(c for c in combinations(range(10), 5)
                      if all((p.adj[u] & sum(1 << w for w in c)).bit_count() == 2 for u in c))
    return tuple(tuple(s for s in sets if v in s) for v in range(10)), tuple(p.edges()), pentagons


def _min_multicover(weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Fewest maximal independent sets of the Petersen graph covering each
    vertex i at least weights[i] times (sets may repeat): the first cover
    the exhaustive search _cover finds, at each size from the counting
    lower bound up.

    A search state (deficits d, l sets left) is cut when l is below either
    counting bound: an independent set meets an edge in at most one vertex
    and a 5-cycle in at most two. The third, that it meets the whole graph
    in at most four vertices, is implied: each vertex lies on 6 of the 12
    5-cycles, so the largest 5-cycle sum is at least half the total.
    The bounds never cut a state that can still be covered, so the search
    returns the first cover of the depth-first order, as an uncut search
    would. With the 5-cycle bound the first size tried was feasible for
    every weight vector with entries 0-3 (all 1,048,576 of them) and for
    each of 3,000 random ones (entries up to 51), so no memo of failed
    states is kept. No such vector is known to need a second size; the
    loop stays, as the bounds are not proved exact.
    """
    tables = _petersen_cover_tables()
    k = _cover_lower(tables, weights)
    while (got := _cover(tables, tuple(weights), k)) is None:
        k += 1
    return got


def _cover_lower(tables: tuple, d: tuple[int, ...]) -> int:
    _, edges, pentagons = tables
    return max(max([d[u] + d[v] for u, v in edges]),
               -(-max([d[a] + d[b] + d[c] + d[e] + d[f] for a, b, c, e, f in pentagons]) // 2))


def _cover(tables: tuple, deficit: tuple[int, ...], left: int) -> list[tuple[int, ...]] | None:
    # the first cover of deficit by at most left sets in _min_multicover's order
    if not any(deficit):
        return []
    if _cover_lower(tables, deficit) > left:
        return None
    v = max(range(10), key=lambda u: (deficit[u], -u))
    for s in tables[0][v]:
        nd = list(deficit)
        for u in s:
            if nd[u] > 0:
                nd[u] -= 1
        got = _cover(tables, tuple(nd), left - 1)
        if got is not None:
            return [s] + got
    return None


def _blowup_step(cert: BlowupCertificate, clique=()) -> dict:
    """The blowup-color step: one independent-set instance per color, then clique's vertices."""
    chosen = _min_multicover(cert.weights())
    assign = [(v, c) for c, v in enumerate(clique, start=len(chosen) + 1)]
    for base_v in range(10):
        instances = [color for color, s in enumerate(chosen, start=1) if base_v in s]
        assign += zip(sorted(cert.classes[cert.class_map[base_v]]), instances)
    return {"step": "blowup-color", "assignment": sorted(assign)}


def color_petersen_blowup(cert: BlowupCertificate) -> ColoringCertificate:
    """Exact minimum coloring of a Petersen clique blowup.

    Solves the weighted covering by independent sets exactly, then checks the
    ceil(5*omega/4) bound; exceeding it would be an implementation bug, not a
    property of the input.
    """
    if cert.base != petersen():
        raise GraphError("certificate must be over the standard Petersen base")
    weights = cert.weights()
    trace = (_blowup_step(cert),)
    assign = replay_trace(trace)
    k = max(assign.values(), default=0)
    _, edges, _ = _petersen_cover_tables()
    omega = max(weights[u] + weights[v] for u, v in edges)
    bound = ceil(5 * omega / 4)
    if k > bound:
        raise AssertionError(f"covering used {k} sets, above ceil(5*omega/4) = {bound}")
    return ColoringCertificate(
        assignment=assign,
        colors_used=k,
        class_name="petersen-blowup",
        claimed_bound=bound,
        trace=trace,
    )
