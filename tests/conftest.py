"""Shared fixtures and brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own search paths: pattern
presence is decided by trying every vertex subset, cutsets by trying every
clique, bisimplicial vertices by trying every 2-partition of a neighborhood,
and the canonical labelling by the refinement-guided search without any
automorphism pruning. That search refines by counting against every cell
in every round, and the pattern oracles compare a subset with the pattern
through its labelling, so none of them reaches the library's refinement.
MCS-M and the atom decomposition have references in their first, plainer
form: a heap search over every unnumbered vertex, and one recursion per
split on relabelled induced subgraphs. The fixed-pattern search has one
too: backtracking that checks each pattern vertex only against the
vertices already placed. The path and cycle searches have theirs: the
same backtracking over every vertex of the graph, without the library's
restriction to a few vertices of each true-twin class. The Petersen-blowup
cover search has its plain form too: one search per cover size, cut only
when the deficit exceeds four per remaining set, over maximal independent
sets found by trying every vertex subset. Isomorphism has its own
backtracking over the refinement cells, which checks each vertex only
against the vertices already mapped and never reaches the library's
placement engine. The trace interpreter has its eager form, in which every
cutset merge builds a new coloring: a copy of the right-hand one with the
left-hand one, renamed by the permutation, written over it. The
generator has its plain form: every neighbourhood mask of every parent is
tried, not one per orbit of the parent's twin swaps. The colourer has its
form without twin runs: the rest of every atom that eliminates a vertex
goes back through the component split and the decomposition as a block.
"""

import heapq
from itertools import combinations

import pytest

from p7c4.families import petersen
from p7c4.enumerate import _canonical_order
from p7c4.graphs import Graph, GraphError, _bits, _refine, _relabel, induced_subgraph, is_clique
from p7c4.patterns import _ABSENT_BIT, _has_pattern_through, pattern_graph


def brute_has_pattern(g: Graph, pattern: str) -> bool:
    return any(_brute_copies(g, pattern))


def brute_pattern_cover(g: Graph, pattern: str) -> int:
    """Mask of the vertices that lie on some induced copy of the pattern."""
    return sum({1 << v for subset in _brute_copies(g, pattern) for v in subset})


def _brute_copies(g: Graph, pattern: str):
    """Every vertex subset of g that induces the pattern."""
    pat = pattern_graph(pattern)
    key = reference_key(pat)
    for subset in combinations(range(g.n), pat.n):
        h = induced_subgraph(g, subset)
        if h.edge_count() == pat.edge_count() and reference_key(h) == key:
            yield subset


def reference_key(h: Graph):
    """The edge set of h relabelled by reference_canonical_permutation,
    which is equal for two graphs exactly when they are isomorphic."""
    pos = {v: i for i, v in enumerate(reference_canonical_permutation(h))}
    return h.n, frozenset(frozenset((pos[u], pos[v])) for u, v in h.edges())


def has_clique_cutset_bruteforce(g: Graph) -> bool:
    """Some clique K with g - K disconnected, by trying every vertex subset."""
    assert g.is_connected(), "the oracle takes a connected graph"
    for mask in range(1, g.full_mask()):
        if not is_clique(g, _bits(mask)):
            continue
        outside = [v for v in range(g.n) if not mask >> v & 1]
        if not induced_subgraph(g, outside).is_connected():
            return True
    return False


def reference_fixed_pattern(g: Graph, pattern: str):
    """The lex-least induced copy of a small fixed pattern, as a tuple in the
    pattern's vertex order, by backtracking without forward checking."""
    pat = pattern_graph(pattern)
    k = pat.n
    if g.n < k:
        return None
    chosen = [0] * k

    def place(pos: int, used: int) -> bool:
        cand = g.full_mask() & ~used
        for i in range(pos):
            cand &= g.adj[chosen[i]] if pat.adj[pos] >> i & 1 else ~g.adj[chosen[i]]
        for v in _bits(cand):
            chosen[pos] = v
            if pos + 1 == k or place(pos + 1, used | 1 << v):
                return True
        return False

    return tuple(chosen) if place(0, 0) else None


def reference_induced_path(g: Graph, k: int):
    """The lex-least induced P_k as a path-ordered tuple, trying every vertex
    at every position."""
    if g.n < k:
        return None
    path = [0] * k

    def extend(pos: int, used: int, blocked: int) -> bool:
        # blocked: union of neighborhoods of path[0..pos-2]
        last = path[pos - 1]
        for v in _bits(g.adj[last] & ~used & ~blocked):
            path[pos] = v
            if pos + 1 == k or extend(pos + 1, used | 1 << v, blocked | g.adj[last]):
                return True
        return False

    for start in range(g.n):
        path[0] = start
        if k == 1 or extend(1, 1 << start, 0):
            return tuple(path)
    return None


def reference_induced_cycle(g: Graph, k: int):
    """The lex-least induced C_k as its canonical cycle-order tuple (smallest
    vertex first, its smaller neighbor second), trying every vertex."""
    if g.n < k:
        return None
    adj = g.adj
    cyc = [0] * k

    def extend(pos: int, used: int, blocked: int) -> bool:
        # blocked: union of neighborhoods of cyc[1..pos-2]
        start, last = cyc[0], cyc[pos - 1]
        cand = adj[last] & ~used & ~blocked & ~((1 << (start + 1)) - 1)
        if pos == k - 1:
            cand &= adj[start] & ~((1 << (cyc[1] + 1)) - 1)
        elif pos >= 2:
            cand &= ~adj[start]
        for v in _bits(cand):
            cyc[pos] = v
            if pos + 1 == k or extend(pos + 1, used | 1 << v, blocked | (adj[last] if pos >= 2 else 0)):
                return True
        return False

    for start in range(g.n):
        cyc[0] = start
        if extend(1, 1 << start, 0):
            return tuple(cyc)
    return None


def brute_p7_cover(g: Graph) -> int:
    """Mask of the vertices that lie on some induced P7: a 7-subset induces
    a path iff it is connected with 6 edges and maximum degree 2."""
    cover = 0
    for subset in combinations(range(g.n), 7):
        m = sum(1 << v for v in subset)
        degs = [(g.adj[v] & m).bit_count() for v in subset]
        if sum(degs) == 12 and max(degs) == 2 and _mask_is_connected(g, m):
            cover |= m
    return cover


def split_off(g: Graph, x: int) -> tuple[tuple[int, ...], int]:
    """The rows of g - x and x's neighbour mask in it, the vertices above x
    moving down one: g as g - x plus a new vertex, numbered len(rows)."""
    def drop(a):
        return a & (1 << x) - 1 | a >> x + 1 << x
    return tuple(drop(a) for v, a in enumerate(g.adj) if v != x), drop(g.adj[x])


def _mask_is_connected(g: Graph, m: int) -> bool:
    seen = frontier = m & -m
    while frontier:
        v = frontier.bit_length() - 1
        frontier &= ~(1 << v)
        new = g.adj[v] & m & ~seen
        seen |= new
        frontier |= new
    return seen == m


def reference_canonical_permutation(g: Graph) -> tuple[int, ...]:
    """The canonical labelling search with no pruning but by a worse prefix:
    every vertex of a pivot cell is branched on."""
    n = g.n
    if n <= 1:
        return tuple(range(n))
    adj = g.adj
    m = g.edge_count()
    if m == 0 or m == n * (n - 1) // 2:
        return tuple(range(n))
    best_bits = best_perm = None
    total = n * (n - 1) // 2

    def perm_bits(perm, upto):
        bits = 0
        for j in range(1, upto):
            for i in range(j):
                bits = bits << 1 | (adj[perm[j]] >> perm[i] & 1)
        return bits

    def search(cells):
        nonlocal best_bits, best_perm
        cells = reference_refine(adj, cells)
        prefix = []
        for cell in cells:
            if len(cell) > 1:
                break
            prefix.append(cell[0])
        if best_bits is not None and len(prefix) > 1:
            plen = len(prefix) * (len(prefix) - 1) // 2
            if perm_bits(prefix, len(prefix)) > best_bits >> (total - plen):
                return
        if len(prefix) == n:
            bits = perm_bits(prefix, n)
            if best_bits is None or bits < best_bits:
                best_bits, best_perm = bits, prefix
            return
        pivot = next(i for i, c in enumerate(cells) if len(c) > 1)
        for v in cells[pivot]:
            rest = [u for u in cells[pivot] if u != v]
            search(cells[:pivot] + [[v], rest] + cells[pivot + 1:])

    search([list(range(n))])
    return tuple(best_perm)


def reference_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """The coarsest equitable refinement of an ordered partition, each round
    counting every vertex against every cell: the pieces of a cell are
    ordered by their signatures, and vertices keep their order in a cell."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        changed = False
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                out.append(groups[sig])
        if not changed:
            return out
        cells = out


def reference_find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An isomorphism g -> h or None: vertices of g in rarest-cell-first
    order (then by label), each tried against the vertices of its cell of h
    in ascending order and checked against the vertices already mapped."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    cells_g = reference_refine(g.adj, [list(range(g.n))])
    by_color = reference_refine(h.adj, [list(range(h.n))])
    if [len(c) for c in cells_g] != [len(c) for c in by_color]:
        return None
    cg = {v: i for i, cell in enumerate(cells_g) for v in cell}
    order = sorted(range(g.n), key=lambda v: (len(by_color[cg[v]]), v))
    mapping: dict[int, int] = {}
    used = 0

    def go(i: int) -> bool:
        nonlocal used
        if i == len(order):
            return True
        v = order[i]
        for w in by_color[cg[v]]:
            if used >> w & 1:
                continue
            if not all(g.has_edge(v, u) == h.has_edge(w, mapping[u]) for u in mapping):
                continue
            mapping[v] = w
            used |= 1 << w
            if go(i + 1):
                return True
            del mapping[v]
            used ^= 1 << w
        return False

    return dict(mapping) if go(0) else None


def petersen_maximal_independent_sets() -> list[tuple[int, ...]]:
    """Every maximal independent set of the Petersen graph, larger sets
    first, then in lexicographic order: the independent vertex subsets to
    which no vertex can be added."""
    p = petersen()
    independent = [s for k in range(1, 11) for s in combinations(range(10), k)
                   if not any(p.has_edge(u, v) for u, v in combinations(s, 2))]
    return sorted((s for s in independent if all(any(p.has_edge(v, u) for u in s) for v in range(10) if v not in s)),
                  key=lambda s: (-len(s), s))


def reference_min_multicover(weights) -> list[tuple[int, ...]]:
    """The first cover found depth-first at the least feasible size, sizes
    tried upward from the edge and total-count bounds alone, with a fresh
    memo of failed states for each size."""
    sets = petersen_maximal_independent_sets()
    by_vertex = [[s for s in sets if v in s] for v in range(10)]
    p = petersen()
    k = max(max(weights[u] + weights[v] for u, v in p.edges()), -(-sum(weights) // 4))

    def go(deficit, left, memo):
        if sum(deficit) == 0:
            return []
        if left == 0 or sum(deficit) > 4 * left or (deficit, left) in memo:
            return None
        v = max(range(10), key=lambda u: (deficit[u], -u))
        for s in by_vertex[v]:
            got = go(tuple(max(d - (u in s), 0) for u, d in enumerate(deficit)), left - 1, memo)
            if got is not None:
                return [s] + got
        memo.add((deficit, left))
        return None

    while (got := go(tuple(weights), k, set())) is None:
        k += 1
    return got


def reference_replay(trace) -> dict[int, int]:
    """Re-execute a derivation trace; returns the reconstructed assignment."""
    stack: list[dict[int, int]] = []
    try:
        for step in trace:
            _reference_apply(stack, step)
    except (LookupError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed trace: {exc!r}") from exc
    if len(stack) != 1:
        raise GraphError("trace does not reduce to a single coloring")
    return stack[0]


def _reference_apply(stack: list[dict[int, int]], step: dict) -> None:
    """Execute one trace step on a stack of block colorings, the cutset merge
    in its eager form."""
    kind = step["step"]
    if kind == "eliminate-vertex":
        stack[-1][step["vertex"]] = step["color"]
    elif kind == "cutset-merge":
        right = stack.pop()
        left = stack.pop()
        perm = dict(step["permutation"])
        moved = {v: perm[c] for v, c in left.items()}
        if any(moved[v] != right[v] for v in step["cutset"]):
            raise GraphError("cutset colors disagree on replay")
        merged = dict(right)
        merged.update(moved)
        stack.append(merged)
    elif kind in ("clique-base", "blowup-color"):
        stack.append(dict(step["assignment"]))
    else:
        raise GraphError(f"unknown trace step {kind!r}")


def reference_color(g: Graph, block: int, class_name: str) -> tuple[dict[int, int], int, list[dict]]:
    """coloring._color with every eliminated atom's rest pushed as a block,
    never as an atom; the steps themselves come from the library's own. Each
    block is scanned afresh by structure._splits, never read from the
    graph's decomposition memo, so counts of MCS-M runs do not depend on
    what ran before on the same object."""
    from p7c4.coloring import _apply, _color_case, _color_clique, _cutset_permutation, _eliminate
    from p7c4.graphs import _components, _is_clique_mask, _max_clique_size
    from p7c4.structure import _splits, theorem_case

    adj = g.adj
    steps, done, omega = [], [], 1
    work = [("block", block)]
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
            comps = _components(adj, mask)
            if len(comps) > 1:
                work += [("cutset", 0)] * (len(comps) - 1)
                work += [("block", c) for c in reversed(comps)]
            else:
                cuts = list(_splits(adj, mask))
                work += [("cutset", cut) for cut, _, _ in cuts]
                work += [("atom", cuts[-1][0] | cuts[-1][2] if cuts else mask)]
                work += [("atom", side_a | cut) for cut, side_a, _ in reversed(cuts)]
            continue
        else:
            w = _max_clique_size(adj, mask)
            omega = max(omega, w)
            case = theorem_case(g, mask, class_name, w)
            if case.kind == "eliminate":
                work += [("eliminate", mask, case.vertex, case.budget), ("block", mask ^ 1 << case.vertex)]
                continue
            step = _color_case(g, mask, case, class_name)
        _apply(done, step)
        steps.append(step)
    (assign,) = done
    return assign, omega, steps


def reference_mcsm(g: Graph) -> tuple[list[int], list[int]]:
    """MCS-M with a linear scan for the heaviest vertex (ties to the lowest
    index) and an unpruned minimax path search from each numbered vertex."""
    n = g.n
    weights = [0] * n
    numbered = [False] * n
    sigma = [0] * n
    fill_adj = list(g.adj)
    for slot in range(n - 1, -1, -1):
        v = max((u for u in range(n) if not numbered[u]), key=lambda u: (weights[u], -u))
        best = {}
        heap = []
        for u in _bits(g.adj[v]):
            if not numbered[u]:
                best[u] = -1
                heapq.heappush(heap, (-1, u))
        while heap:
            d, u = heapq.heappop(heap)
            if d > best.get(u, n):
                continue
            for w in _bits(g.adj[u]):
                if numbered[w] or w == v:
                    continue
                nd = max(d, weights[u])
                if nd < best.get(w, n):
                    best[w] = nd
                    heapq.heappush(heap, (nd, w))
        for u, d in best.items():
            if d < weights[u]:
                weights[u] += 1
                fill_adj[u] |= 1 << v
                fill_adj[v] |= 1 << u
        numbered[v] = True
        sigma[slot] = v
    return sigma, fill_adj


def _reference_cutset(g: Graph):
    """(cutset, side_a, side_b) vertex lists from the scan of reference_mcsm."""
    if g.n <= 2:
        return None
    sigma, fill_adj = reference_mcsm(g)
    later = g.full_mask()
    for v in sigma:
        later ^= 1 << v
        cmask = fill_adj[v] & later
        if not is_clique(g, _bits(cmask)):
            continue
        comp = frontier = 1 << v
        while frontier:
            grow = 0
            for u in _bits(frontier):
                grow |= g.adj[u]
            grow &= ~cmask
            frontier = grow & ~comp
            comp |= grow
        rest = g.full_mask() & ~comp & ~cmask
        if rest:
            return list(_bits(cmask)), list(_bits(comp)), list(_bits(rest))
    return None


def reference_decompose(g: Graph, labels=None) -> dict:
    """The atom tree of a connected graph as AtomDecomposition.to_json gives
    it, by recursion on induced subgraphs relabelled 0..k-1."""
    labels = tuple(range(g.n)) if labels is None else labels
    split = _reference_cutset(g)
    if split is None:
        return {"atom": sorted(labels)}
    cutset, side_a, side_b = split

    def block_child(side):
        block = sorted(side + cutset)
        return reference_decompose(induced_subgraph(g, block), tuple(labels[v] for v in block))

    return {
        "split": {name: sorted(labels[v] for v in part)
                  for name, part in (("cutset", cutset), ("side_a", side_a), ("side_b", side_b))},
        "left": block_child(side_a),
        "right": block_child(side_b),
    }


def reference_grow(n: int, parents, forbid: tuple[str, ...] = ()) -> tuple[Graph, ...]:
    """enumerate._grow with every mask of every parent tried: the same
    degree pre-check, tests, canonical deletion, deduplication and stamps."""
    if n == 1:
        return (Graph(1),)
    c4 = "C4" in forbid
    later = [name for name in forbid if name != "C4"]
    stamp = sum(_ABSENT_BIT[name] for name in forbid)
    found: dict[int, Graph | None] = {}
    for parent in parents(n - 1):
        adj = parent.adj
        heavier = [0] * n
        for v in range(n - 1):
            for k in range(adj[v].bit_count()):
                heavier[k] |= 1 << v
        for mask in range(1 << (n - 1)):
            k = mask.bit_count()
            if heavier[k] & ~mask or (k and heavier[k - 1] & mask) or c4 and _has_pattern_through(adj, mask, "C4"):
                continue
            child = tuple(a | (mask >> v & 1) << (n - 1) for v, a in enumerate(adj)) + (mask,)
            cells = _refine(child, [list(range(n))])
            if cells[-1][-1] != n - 1:
                continue
            bits, perm = _canonical_order(child, cells)
            if bits in found:
                continue
            found[bits] = None
            if any(_has_pattern_through(adj, mask, name) for name in later):
                continue
            absent = stamp
            for name in ("diamond", "kite", "gem"):
                bit = _ABSENT_BIT[name]
                if absent & _ABSENT_BIT["diamond"] or (parent._absent & bit & ~absent
                                                       and not _has_pattern_through(adj, mask, name)):
                    absent |= bit
            canon = found[bits] = _relabel(child, perm)
            canon._absent = absent
    return tuple(g for _, g in sorted(found.items()) if g is not None)


def brute_max_clique(g: Graph) -> int:
    best = 1
    for k in range(2, g.n + 1):
        if any(
            all(g.has_edge(u, v) for u, v in combinations(subset, 2))
            for subset in combinations(range(g.n), k)
        ):
            best = k
    return best


def brute_is_bisimplicial(g: Graph, v: int) -> bool:
    nb = g.neighbors(v)
    if len(nb) <= 1:
        return True
    for r in range(len(nb) + 1):
        for left in combinations(nb, r):
            right = [u for u in nb if u not in left]
            if _is_clique(g, left) and _is_clique(g, right):
                return True
    return False


def _is_clique(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def spider(legs: int) -> Graph:
    """A centre 0 with `legs` paths of two edges: 0 - 2i+1 - 2i+2."""
    return Graph(1 + 2 * legs, [e for i in range(legs) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))])


def windmill(blades: int) -> Graph:
    """`blades` triangles sharing the centre 0."""
    return Graph(1 + 2 * blades, [e for i in range(blades)
                                  for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def c7_plus(*attachments, extra_edges=()):
    """C7 on 0..6 plus one new vertex per attachment set."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    n = 7
    for att in attachments:
        edges += [(n, a) for a in att]
        n += 1
    edges += list(extra_edges)
    return Graph(n, edges)


def diamond_negative_controls():
    """Corrupted fixtures, one per NA property, on which exactly the target
    property (at least) fails."""
    from p7c4.families import graph_f

    f_corrupt = Graph(10, list(graph_f().edges()) + [(7, 8)])
    return [
        ("NA-1", c7_plus({0})),
        ("NA-2", c7_plus({0, 3}, {0, 3})),
        ("NA-3", f_corrupt),
        ("NA-4", c7_plus({0, 3}, {2, 5})),
        ("NA-5", c7_plus({0, 3, 4}, {3, 6, 0})),
        ("NA-6", c7_plus({0, 3}, {1, 4, 5})),
    ]


def gem_negative_controls():
    return [
        ("M1", c7_plus({0})),
        ("M2", c7_plus({0, 1, 2}, {0, 1, 2})),
        ("M3", c7_plus({0, 1, 2}, {1, 2, 3})),
        ("M4", c7_plus({0, 1, 2}, {2, 3, 4}, extra_edges=[(7, 8)])),
        ("M5", c7_plus({0, 3}, {2, 5})),
        ("M6", c7_plus({0, 3}, {1, 4}, extra_edges=[(7, 8)])),
        ("M7", c7_plus({0, 3}, {2, 3, 4})),
        ("M8", c7_plus({0, 3}, {0, 1, 2}, extra_edges=[(7, 8)])),
        ("M9", c7_plus({0, 3, 4}, {3, 6, 0})),
        ("M10", c7_plus({0, 3, 4}, {1, 4, 5}, extra_edges=[(7, 8)])),
        ("M11", c7_plus({0, 3, 4}, {0, 3})),
        ("M12", c7_plus({0, 3, 4}, {1, 4}, extra_edges=[(7, 8)])),
        ("M13", c7_plus({0, 3, 4}, {2, 3, 4})),
        ("M14", c7_plus({0, 3, 4}, {0, 1, 2}, extra_edges=[(7, 8)])),
    ]


@pytest.fixture(scope="session")
def small_graphs():
    """All graphs with 1..6 vertices (fast fixture for broad properties)."""
    from p7c4.enumerate import all_graphs

    return [g for n in range(1, 7) for g in all_graphs(n)]


@pytest.fixture(scope="session")
def connected_upto7():
    from p7c4.enumerate import connected_graphs

    return [g for n in range(1, 8) for g in connected_graphs(n)]
