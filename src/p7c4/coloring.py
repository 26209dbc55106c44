"""Certified colorings realizing the three class bounds.

The coloring mirrors the inductive structure of the bound proofs: it folds
the atom tree that structure.decompose_into_atoms builds for each component,
merging at each clique cutset. A clique, every bound's base case, is colored
in closed form. Each other atom goes to theorem_case, the engine verify
checks: the Petersen graph gets a stored coloring, a peeled Petersen graph or
a Petersen blowup is colored directly, and otherwise a low-degree or
bisimplicial vertex the theorem supplies is removed and greedily re-colored.
A certificate carries the assignment, the claimed bound, and a flat
replayable trace of derivation steps.

If a certified class member reaches a state where no theorem case applies,
that falsifies the underlying structure theorem; it is raised loudly as
StructuralContradiction with the offending graph attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import ceil

from .families import petersen
from .graphs import (
    Graph,
    GraphError,
    StructuralContradiction,
    _bits,
    _components,
    _is_clique_mask,
    _max_clique_size,
    exact_coloring,
    induced_subgraph,
)
from .patterns import class_membership, class_third_pattern
from .structure import COLORING_BOUNDS, BlowupCertificate, TheoremCase, _decompose, theorem_case


@dataclass(frozen=True)
class ColoringCertificate:
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
    """Raise GraphError unless the certificate is sound for g."""
    if set(cert.assignment) != set(range(g.n)):
        raise GraphError("assignment does not cover the vertex set")
    if any(c < 1 for c in cert.assignment.values()):
        raise GraphError("colors must start at 1")
    for u, v in g.edges():
        if cert.assignment[u] == cert.assignment[v]:
            raise GraphError(f"edge ({u},{v}) is monochromatic")
    if cert.colors_used != max(cert.assignment.values(), default=0):
        raise GraphError("colors_used does not match the assignment")
    if cert.colors_used > cert.claimed_bound:
        raise GraphError(f"{cert.colors_used} colors exceed the claimed bound {cert.claimed_bound}")
    if replay_trace(cert.trace) != cert.assignment:
        raise GraphError("trace replay does not reproduce the assignment")


def replay_trace(trace) -> dict[int, int]:
    """Re-execute a derivation trace; returns the reconstructed assignment."""
    stack: list[dict[int, int]] = []
    for step in trace:
        kind = step["step"]
        if kind == "single-vertex":
            stack.append({step["vertex"]: 1})
        elif kind in ("exceptional-graph", "blowup-color", "clique-base"):
            stack.append({v: c for v, c in step["assignment"]})
        elif kind == "peel":
            top = stack.pop()
            top = dict(top)
            for v, c in step["assignment"]:
                top[v] = c
            stack.append(top)
        elif kind == "eliminate-vertex":
            top = dict(stack.pop())
            top[step["vertex"]] = step["color"]
            stack.append(top)
        elif kind == "components-merge":
            parts = [stack.pop() for _ in range(step["count"])]
            merged: dict[int, int] = {}
            for p in parts:
                merged.update(p)
            stack.append(merged)
        elif kind == "cutset-merge":
            right = stack.pop()
            left = stack.pop()
            perm = step["permutation"]
            moved = {v: perm[c] for v, c in right.items()}
            for v in step["cutset"]:
                if moved[v] != left[v]:
                    raise GraphError("cutset colors disagree on replay")
            moved.update(left)
            stack.append(moved)
        else:
            raise GraphError(f"unknown trace step {kind!r}")
    if len(stack) != 1:
        raise GraphError("trace does not reduce to a single coloring")
    return stack[0]


@lru_cache(maxsize=1)
def _stored_coloring() -> tuple[tuple[int, int], ...]:
    # found once by exhaustive search on the reference Petersen graph, then reused
    assign = exact_coloring(petersen())
    if max(assign.values()) != 3:
        raise GraphError("the stored coloring of the Petersen graph must use 3 colors")
    return tuple(sorted(assign.items()))


def _merge_on_cutset(left: dict[int, int], right: dict[int, int], cutset) -> tuple[dict[int, int], dict[int, int]]:
    """Permute right's colors to agree with left on the cutset; union them.

    Returns (merged, permutation). Requires both sides injective on the
    cutset, which holds whenever the cutset is a clique properly colored.
    """
    perm = {right[v]: left[v] for v in cutset}
    if len(perm) != len(cutset) or len(set(perm.values())) != len(cutset):
        raise GraphError("block colorings are not injective on the cutset")
    taken = set(perm.values())
    nxt = 1
    for c in sorted(set(right.values())):
        if c in perm:
            continue
        while nxt in taken:
            nxt += 1
        perm[c] = nxt
        taken.add(nxt)
    merged = {v: perm[c] for v, c in right.items()}
    merged.update(left)
    return merged, perm


def _color(g: Graph, block: int, class_name: str) -> tuple[dict[int, int], int, list[dict]]:
    """Coloring of the vertex mask block of g, its clique number, trace steps.

    One work stack stands in for the recursion over components, clique
    cutsets and eliminated vertices. A connected block pushes the atom tree
    of structure._decompose, each split below its two children for the
    cutset merge; a block or atom that is a clique goes to _color_clique
    instead. A finished block leaves its coloring on the done stack; trace
    steps come out in post-order. omega is the largest clique number of an
    atom, as each clique lies inside one atom.
    """
    adj = g.adj
    steps: list[dict] = []
    done: list[dict[int, int]] = []
    omega = 1
    work: list[tuple] = [("block", block)]
    while work:
        kind, *args = work.pop()
        if kind == "components":
            (count,) = args
            parts = done[-count:]
            del done[-count:]
            done.append({v: c for a in parts for v, c in a.items()})
            steps.append({"step": "components-merge", "count": count})
            continue
        if kind == "cutset":
            la, lb = done.pop(-2), done.pop()
            cutset = list(_bits(args[0]))
            merged, perm = _merge_on_cutset(la, lb, cutset)
            done.append(merged)
            steps.append({"step": "cutset-merge", "cutset": cutset, "permutation": perm})
            continue
        if kind == "eliminate":
            atom, v, budget = args
            done[-1][v] = _eliminate(g, atom, done[-1], v, budget, class_name)
            steps.append({"step": "eliminate-vertex", "vertex": v, "color": done[-1][v]})
            continue
        if kind == "node":
            (node,) = args
            if node.left is not None:
                work += [("cutset", node.masks[0]), ("node", node.right), ("node", node.left)]
                continue
            (mask,) = node.masks
        else:
            (mask,) = args
        if _is_clique_mask(adj, mask):
            omega = max(omega, mask.bit_count())
            assign, clique_steps = _color_clique(mask, class_name)
            done.append(assign)
            steps += clique_steps
        elif kind == "block":
            comps = _components(adj, mask)
            if len(comps) > 1:
                work.append(("components", len(comps)))
                work += [("block", c) for c in reversed(comps)]
            else:
                work.append(("node", _decompose(adj, mask)))
        else:
            w = _max_clique_size(adj, mask)
            omega = max(omega, w)
            case = theorem_case(g, mask, class_name, w)
            if case.kind == "eliminate":
                work += [("eliminate", mask, case.vertex, case.budget), ("block", mask ^ 1 << case.vertex)]
            else:
                assign, atom_steps = _color_case(g, mask, case, class_name)
                done.append(assign)
                steps += atom_steps
    (assign,) = done
    return assign, omega, steps


def _color_clique(block: int, class_name: str):
    """Coloring and steps that theorem_case's verdicts give the clique v1 < ... < vk:
    kite gives clique-base, vi colored i; diamond and gem color vk alone, then
    eliminate v(k-1) ... v1, vi taking k-i+1, within the bound of {vi ... vk}."""
    vs = list(_bits(block))
    if len(vs) > 1 and class_third_pattern(class_name) == "kite":
        assign = dict(zip(vs, range(1, len(vs) + 1)))
        return assign, [{"step": "clique-base", "assignment": sorted(assign.items())}]
    assign = dict(zip(reversed(vs), range(1, len(vs) + 1)))  # top vertex first, as the chain inserts
    return assign, [{"step": "single-vertex", "vertex": vs[-1]}] + [
        {"step": "eliminate-vertex", "vertex": v, "color": c} for v, c in list(assign.items())[1:]]


def _color_case(g: Graph, block: int, case: TheoremCase, class_name: str):
    """Turn the structure theorem's verdict on a cutset-free block into steps."""
    if case.kind == "petersen":
        assign, steps = _petersen_steps(case.iso)
    elif case.kind == "peeled-petersen":
        assign, steps = _petersen_steps(case.iso)
        peel_items = [(v, c) for c, v in enumerate(sorted(set(_bits(block)) - case.peel.remainder), start=4)]
        assign.update(peel_items)
        steps.append({"step": "peel", "assignment": peel_items})
    elif case.kind == "petersen-blowup":
        assign, _ = _petersen_cover_assignment(case.blowup)
        steps = [{"step": "blowup-color", "assignment": sorted(assign.items())}]
    else:
        raise StructuralContradiction(class_name, induced_subgraph(g, _bits(block)), case.detail)
    return assign, steps


def _petersen_steps(iso: dict[int, int]):
    assign = {iso[v]: c for v, c in _stored_coloring()}
    return assign, [{"step": "exceptional-graph", "name": "Petersen", "assignment": sorted(assign.items())}]


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
def _petersen_maximal_independent_sets() -> tuple[tuple[int, ...], ...]:
    p = petersen()
    out = []
    for mask in range(1 << 10):
        vs = [v for v in range(10) if mask >> v & 1]
        if any(p.has_edge(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]):
            continue
        if any(
            all(not p.has_edge(u, w) for u in vs)
            for w in range(10)
            if not mask >> w & 1
        ):
            continue  # extendable, not maximal
        out.append(tuple(vs))
    return tuple(sorted(out, key=lambda s: (-len(s), s)))


@lru_cache(maxsize=1)
def _petersen_pentagons() -> tuple[tuple[int, ...], ...]:
    """The twelve 5-cycles of the Petersen graph: its 5-sets in which every
    vertex has two neighbours (girth 5 rules out a triangle plus an edge)."""
    adj = petersen().adj
    return tuple(c for c in combinations(range(10), 5)
                 if all((adj[u] & sum(1 << w for w in c)).bit_count() == 2 for u in c))


def _min_multicover(weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Fewest maximal independent sets of the Petersen graph covering each
    vertex i at least weights[i] times (sets may repeat).

    A search state (deficits d, l sets left) is cut when l is below any of
    three counting bounds: an independent set meets an edge in at most one
    vertex, a 5-cycle in at most two, and the whole graph in at most four.
    The bounds never cut a state that can still be covered, so the search
    returns the first cover of the depth-first order, as an uncut search
    would. With the 5-cycle bound the first size tried was feasible for
    each of 3,000 random weight vectors (entries up to 51), so no memo of
    failed states is kept.
    """
    sets = _petersen_maximal_independent_sets()
    by_vertex = {v: [s for s in sets if v in s] for v in range(10)}
    edges = tuple(petersen().edges())
    pentagons = _petersen_pentagons()

    def lower(d: tuple[int, ...]) -> int:
        return max(
            max(d[u] + d[v] for u, v in edges),
            max(ceil(sum(d[u] for u in c) / 2) for c in pentagons),
            ceil(sum(d) / 4),
        )

    def greedy() -> list[tuple[int, ...]]:
        deficit = list(weights)
        chosen = []
        while any(d > 0 for d in deficit):
            best = max(sets, key=lambda s: (sum(1 for v in s if deficit[v] > 0), s))
            chosen.append(best)
            for v in best:
                deficit[v] -= 1
        return chosen

    upper_sets = greedy()

    def go(deficit: tuple[int, ...], left: int) -> list[tuple[int, ...]] | None:
        if not any(deficit):
            return []
        if lower(deficit) > left:
            return None
        v = max(range(10), key=lambda u: (deficit[u], -u))
        for s in by_vertex[v]:
            nd = list(deficit)
            for u in s:
                if nd[u] > 0:
                    nd[u] -= 1
            got = go(tuple(nd), left - 1)
            if got is not None:
                return [s] + got
        return None

    for k in range(lower(weights), len(upper_sets)):
        got = go(tuple(weights), k)
        if got is not None:
            return got
    return upper_sets


def _petersen_cover_assignment(cert: BlowupCertificate) -> tuple[dict[int, int], int]:
    """Color the blown-up graph: one chosen independent-set instance per color."""
    weights = cert.weights()
    chosen = _min_multicover(weights)
    assign: dict[int, int] = {}
    for base_v in range(10):
        instances = [color for color, s in enumerate(chosen, start=1) if base_v in s]
        members = sorted(cert.classes[cert.class_map[base_v]])
        for vertex, color in zip(members, instances):
            assign[vertex] = color
    return assign, len(chosen)


def color_petersen_blowup(cert: BlowupCertificate) -> ColoringCertificate:
    """Exact minimum coloring of a Petersen clique blowup.

    Solves the weighted covering by independent sets exactly, then checks the
    ceil(5*omega/4) bound; exceeding it would be an implementation bug, not a
    property of the input.
    """
    if cert.base != petersen():
        raise GraphError("certificate must be over the standard Petersen base")
    weights = cert.weights()
    assign, k = _petersen_cover_assignment(cert)
    p = petersen()
    omega = max(weights[u] + weights[v] for u, v in p.edges())
    bound = ceil(5 * omega / 4)
    if k > bound:
        raise AssertionError(f"covering used {k} sets, above ceil(5*omega/4) = {bound}")
    return ColoringCertificate(
        assignment=assign,
        colors_used=k,
        class_name="petersen-blowup",
        claimed_bound=bound,
        trace=({"step": "blowup-color", "assignment": sorted(assign.items())},),
    )

