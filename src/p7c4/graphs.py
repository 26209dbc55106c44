"""Simple graphs on vertex indices 0..n-1 with bitmask adjacency.

Every operation here is a pure function, and a graph's vertex count and
adjacency never change after construction. The one mutable field is
`_absent`, a memo of the named patterns proven absent (see `patterns`),
which starts at 0 and only gains bits. A bit is set only after a
completed search proves absence, and the adjacency it speaks about is
fixed, so every bit stays true. Two threads that set bits at once can
only lose a bit, which costs one repeated search and never a wrong
answer; graphs are therefore safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 512
DEFAULT_ORACLE_LIMIT = 16


class GraphError(ValueError):
    """Raised on invalid graph construction or operation preconditions."""


class StructuralContradiction(RuntimeError):
    """No theorem case applies to a certified class member.

    Reaching this means the input falsifies the structure theorem the
    coloring relies on, so the full evidence is attached.
    """

    def __init__(self, class_name: str, g: Graph, detail: str):
        self.class_name = class_name
        self.graph = g
        self.graph6 = write_graph6(g)
        self.detail = detail
        super().__init__(f"{class_name}: {detail} (graph6 {self.graph6})")


class Graph:
    """Simple undirected graph; adjacency stored as one bitmask per vertex."""

    __slots__ = ("n", "adj", "_absent")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._absent = 0  # bit i: patterns.PATTERN_NAMES[i] proven absent

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # fast path for internal construction; adj must already be symmetric
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g._absent = 0
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("empty graph has no minimum degree")
        return min(m.bit_count() for m in self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_connected(self) -> bool:
        return self.n <= 1 or _component(self.adj, 1, self.full_mask()) == self.full_mask()

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj, start: int, allowed: int) -> int:
    """Mask of the vertices reached from the mask start inside the mask allowed."""
    comp = frontier = start
    while frontier:
        grow = 0
        for v in _bits(frontier):
            grow |= adj[v]
        frontier = grow & allowed & ~comp
        comp |= frontier
    return comp


def _components(adj, mask: int) -> list[int]:
    """Masks of the components of the subgraph induced on mask, by lowest vertex."""
    out = []
    while mask:
        out.append(_component(adj, mask & -mask, mask))
        mask &= ~out[-1]
    return out


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Mask of vertices of g; GraphError if one lies outside range(g.n)."""
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for a graph on {g.n} vertices")
        m |= 1 << v
    return m


def _true_twin_classes(adj, block: int) -> list[int]:
    """Masks of the classes of equal closed neighborhood inside block, by lowest vertex."""
    groups: dict[int, int] = {}
    for v in _bits(block):
        key = adj[v] & block | 1 << v
        groups[key] = groups.get(key, 0) | 1 << v
    return list(groups.values())


def _twin_representatives(adj, m: int) -> int:
    """Mask of the m lowest vertices of each class of equal closed neighborhood.

    One pass over adj; a graph whose classes all have at most m vertices
    gets its full vertex mask.
    """
    room: dict[int, int] = {}  # closed neighborhood -> places left in its class
    keep = 0
    bit = 1
    for nbrs in adj:
        key = nbrs | bit
        left = room.get(key, m)
        if left:
            keep |= bit
            room[key] = left - 1
        bit <<= 1
    return keep


# ---------------------------------------------------------------------------
# Construction


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build the simple graph with exactly the given edges (duplicates merged)."""
    return Graph(n, edges)


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GraphError("path needs at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def empty_graph(k: int) -> Graph:
    return Graph(k)


# ---------------------------------------------------------------------------
# graph6 and edge-list text formats


def write_graph6(g: Graph) -> str:
    """Encode as one graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    out = [head]
    buf = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            buf = buf << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; strict about header, length, and padding bits."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphError("empty graph6 line")
    data = [ord(c) - 63 for c in line]
    if any(b < 0 or b > 63 for b in data):
        raise GraphError(f"invalid graph6 characters in {line!r}")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise GraphError("malformed graph6 header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body has {len(body)} bytes, expected {need}")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[idx // 6]
            if byte >> (5 - idx % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    # padding bits beyond the triangle must be zero
    if idx % 6:
        if body[idx // 6] & ((1 << (6 - idx % 6)) - 1):
            raise GraphError("nonzero trailing bits in graph6 encoding")
    return Graph._from_adj(n, tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace format: first line "n m", then m vertex pairs."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphError("edge-list input needs at least 'n m'")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise GraphError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
    pairs = [(int(tokens[2 + 2 * k]), int(tokens[3 + 2 * k])) for k in range(m)]
    return Graph(n, pairs)


def write_edge_list(g: Graph) -> str:
    edges = list(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Derived graphs


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the given set, relabeled 0..k-1 in sorted order.

    The sorted order is the recorded index mapping: new index i corresponds
    to sorted(vertices)[i].
    """
    block = _vertex_mask(g, vertices)
    if not block:
        raise GraphError("induced subgraph of the empty set")
    vs = list(_bits(block))
    pos = {v: i for i, v in enumerate(vs)}
    return Graph._from_adj(len(vs), tuple(_mask(pos[w] for w in _bits(g.adj[v] & block)) for v in vs))


def join_with_clique(g: Graph, ell: int) -> Graph:
    """K_ell + g: ell new mutually adjacent vertices (indices n..n+ell-1),
    each adjacent to every vertex of g."""
    if ell < 0:
        raise GraphError("clique size must be nonnegative")
    n = g.n
    total = n + ell
    if total > MAX_VERTICES:
        raise GraphError(f"join result exceeds vertex cap {MAX_VERTICES}")
    newmask = ((1 << total) - 1) ^ ((1 << n) - 1)
    adj = [m | newmask for m in g.adj]
    for v in range(n, total):
        adj.append(((1 << total) - 1) ^ (1 << v))
    return Graph._from_adj(total, tuple(adj))


def blowup_classes(sizes: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex classes of clique_blowup: class i occupies a consecutive block."""
    out = []
    start = 0
    for s in sizes:
        out.append(tuple(range(start, start + s)))
        start += s
    return tuple(out)


def clique_blowup(base: Graph, sizes: list[int]) -> Graph:
    """Replace base vertex i by a clique of sizes[i] vertices; classes are
    complete/anticomplete exactly as the base adjacency dictates.

    The partition is recorded by construction: blowup_classes(sizes) gives
    the vertex block of each base vertex.
    """
    if len(sizes) != base.n:
        raise GraphError("need one size per base vertex")
    if any(s < 1 for s in sizes):
        raise GraphError("blowup class sizes must be at least 1")
    classes = blowup_classes(sizes)
    total = sum(sizes)
    if total > MAX_VERTICES:
        raise GraphError(f"blowup exceeds vertex cap {MAX_VERTICES}")
    cmask = [_mask(c) for c in classes]
    adj = [0] * total
    for i in range(base.n):
        block = cmask[i]
        for v in classes[i]:
            adj[v] = block ^ (1 << v)
    for u, w in base.edges():
        for v in classes[u]:
            adj[v] |= cmask[w]
        for v in classes[w]:
            adj[v] |= cmask[u]
    return Graph._from_adj(total, tuple(adj))


# ---------------------------------------------------------------------------
# Exact oracles: clique number, chromatic number, isomorphism


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    return _is_clique_mask(g.adj, _vertex_mask(g, vertices))


def _is_clique_mask(adj, mask: int) -> bool:
    return all(adj[v] & mask == mask ^ 1 << v for v in _bits(mask))


def max_clique_size(g: Graph) -> int:
    """Exact clique number by branch and bound with a greedy coloring bound."""
    if g.n == 0:
        raise GraphError("clique number of the empty graph")
    return _max_clique_size(g.adj, g.full_mask())


def _max_clique_size(adj, block: int) -> int:
    """Clique number of the subgraph induced on the nonempty mask block."""
    best = 0

    def color_order(cand: int) -> list[tuple[int, int]]:
        # greedy partition of cand into stable sets; returns (vertex, class-no)
        order = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                rest ^= 1 << v
                avail &= ~adj[v]
                avail ^= 1 << v
        return order

    def expand(cand: int, size: int) -> None:
        nonlocal best
        order = color_order(cand)
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            newcand = cand & adj[v]
            if newcand:
                expand(newcand, size + 1)
            elif size + 1 > best:
                best = size + 1
            cand ^= 1 << v

    expand(block, 0)
    return best


def _greedy_coloring(g: Graph) -> list[int]:
    # largest-degree-first greedy; used only as an upper bound seed
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [0] * g.n
    for v in order:
        used = {colors[u] for u in _bits(g.adj[v]) if colors[u]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _colorable(g: Graph, k: int) -> dict[int, int] | None:
    """DSATUR-ordered backtracking: a proper k-coloring or None."""
    n = g.n
    adj = g.adj
    colors = [0] * n
    neigh_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int:
        cand, key = -1, (-1, -1, 0)
        for v in range(n):
            if colors[v]:
                continue
            k2 = (len(neigh_colors[v]), adj[v].bit_count(), -v)
            if k2 > key:
                cand, key = v, k2
        return cand

    def go(colored: int, maxused: int) -> bool:
        if colored == n:
            return True
        v = pick()
        for c in range(1, min(maxused + 1, k) + 1):
            if c in neigh_colors[v]:
                continue
            colors[v] = c
            touched = []
            for u in _bits(adj[v]):
                if not colors[u] and c not in neigh_colors[u]:
                    neigh_colors[u].add(c)
                    touched.append(u)
            if go(colored + 1, max(maxused, c)):
                return True
            for u in touched:
                neigh_colors[u].discard(c)
            colors[v] = 0
        return False

    if go(0, 0):
        return {v: colors[v] for v in range(n)}
    return None


def exact_coloring(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[int, int]:
    """A minimum proper coloring, found by iterative deepening from the
    clique lower bound. Oracle-scale only."""
    if g.n > limit:
        raise GraphError(f"chromatic oracle limited to {limit} vertices, got {g.n}")
    if g.n == 0:
        return {}
    lower = max_clique_size(g)
    upper = max(_greedy_coloring(g))
    for k in range(lower, upper):
        got = _colorable(g, k)
        if got is not None:
            return got
    return {v: c for v, c in enumerate(_greedy_coloring(g))}


def exact_chromatic_number(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Exact chi(G); raises GraphError beyond the configured oracle limit."""
    if g.n == 0:
        return 0
    return max(exact_coloring(g, limit).values())


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition.

    Cells split by how many neighbors each vertex has in every current cell;
    the pieces are ordered by that signature, so the result is equivariant
    under isomorphism, and vertices keep their order within each cell.
    """
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
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


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An adjacency-preserving bijection g -> h, or None.

    Degree-refinement classes prune the backtracking; intended for n <= 16.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    cells_g = _refine(g.adj, [list(range(g.n))])
    by_color = _refine(h.adj, [list(range(h.n))])
    if [len(c) for c in cells_g] != [len(c) for c in by_color]:
        return None
    cg = {v: i for i, cell in enumerate(cells_g) for v in cell}
    # map rarest classes first
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
            ok = all(g.has_edge(v, u) == h.has_edge(w, mapping[u]) for u in mapping)
            if not ok:
                continue
            mapping[v] = w
            used |= 1 << w
            if go(i + 1):
                return True
            del mapping[v]
            used ^= 1 << w
        return False

    return dict(mapping) if go(0) else None


def isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


@dataclass(frozen=True)
class GraphStats:
    """Exact invariants for one graph; chi is None past the oracle limit."""

    omega: int
    chi: int | None
    delta: int
    connected: bool


def graph_stats(g: Graph, chi_limit: int = DEFAULT_ORACLE_LIMIT) -> GraphStats:
    if g.n == 0:
        raise GraphError("stats of the empty graph")
    chi = exact_chromatic_number(g, chi_limit) if g.n <= chi_limit else None
    return GraphStats(
        omega=max_clique_size(g),
        chi=chi,
        delta=g.min_degree(),
        connected=g.is_connected(),
    )
