"""Simple graphs on vertex indices 0..n-1 with bitmask adjacency.

Every operation here is a pure function, and a graph's vertex count and
adjacency never change after construction. Its two mutable fields are
memos of the object: neither ever changes an answer, and neither is part
of equality or the hash. `_absent` holds the named patterns proven absent
(see `patterns`). It starts at 0 and gains a bit only once a completed
search, or the generator's induction (`enumerate`), proves absence in the
fixed adjacency, so every bit stays true; the generator sets its bits
before a graph leaves it. `_atoms` is None until `structure._decompose`
first decomposes the whole vertex set, and then that immutable tree. Two
threads that set bits at once can only lose a bit, which costs one
repeated search, and two that decompose at once can at worst compute the
same tree twice; graphs are therefore safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 512
DEFAULT_ORACLE_LIMIT = 16
_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))  # _bits below 2**8
_SIX_BITS = {63 + b: format(b, "06b") for b in range(64)}  # graph6 character -> its six bits


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

    __slots__ = ("n", "adj", "_absent", "_atoms")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:  # before edges is read, so an edge generator never runs past the cap
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
        self._atoms = None  # structure.AtomDecomposition of the full vertex mask, once computed

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # fast path for internal construction; adj must already be symmetric
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g._absent = 0
        g._atoms = None
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


def _bits(mask: int) -> Iterable[int]:
    """The set bits of the nonnegative mask, ascending; a table answers below 2**8."""
    return _BYTE_BITS[mask] if mask < 256 else _bit_walk(mask)


def _bit_walk(mask: int) -> Iterator[int]:
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


def _twin_classes(adj, block: int, closed: bool = True) -> list[int]:
    """Masks of the classes of equal closed (true twins) or open (false twins)
    neighborhood inside block, by lowest vertex. No vertex v has both a false
    twin f and a true twin t: t would lie in N(v) = N(f), and f outside N[t] = N[v]."""
    groups: dict[int, int] = {}
    for v in _bits(block):
        key = adj[v] & block | closed << v
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
    return Graph(k, ((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least three vertices")
    return Graph(k, ((i, (i + 1) % k) for i in range(k)))


def complete_graph(k: int) -> Graph:
    return Graph(k, ((i, j) for i in range(k) for j in range(i + 1, k)))


def empty_graph(k: int) -> Graph:
    return Graph(k)


# ---------------------------------------------------------------------------
# The adjacency bit string, and the graph6 and edge-list text formats


def _perm_bits(adj: tuple[int, ...], perm: list[int], upto: int) -> int:
    """The adjacency bit string of the graph relabeled by perm, cut to its
    first `upto` positions: the upper triangle column by column, each column
    top down, packed into one int with the first bit most significant, so
    prefixes compare as the strings do. Under the identity labeling and all
    n positions it is the graph6 body without its padding. write_graph6
    keeps its own identity-order loop: a writer on this encoder was 1.7-1.8x
    slower at n = 8 and 14, and 19x at n = 512, where each step shifts the
    whole int."""
    bits = 0
    for j in range(1, upto):
        col = adj[perm[j]]
        for i in range(j):
            bits = bits << 1 | (col >> perm[i] & 1)
    return bits


def _graph_of_bits(n: int, bits: int) -> Graph:
    """The n-vertex graph whose _perm_bits string (identity labeling, all n
    positions) is bits. Columns are read from the last: the lowest j bits
    hold column j, and its bit k is the edge (j-1-k, j)."""
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        col = bits & (1 << j) - 1
        bits >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return Graph._from_adj(n, tuple(adj))


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
        n, body = data[0], line[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise GraphError("malformed graph6 header")
        n, body = data[1] << 12 | data[2] << 6 | data[3], line[4:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = int(body.translate(_SIX_BITS) or "0", 2)
    pad = -total % 6  # padding bits beyond the triangle must be zero
    if bits & (1 << pad) - 1:
        raise GraphError("nonzero trailing bits in graph6 encoding")
    return _graph_of_bits(n, bits >> pad)


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace format: first line "n m", then m vertex pairs."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphError("edge-list input needs at least 'n m'")
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise GraphError(f"edge-list token {token!r} is not an integer") from None
    n, m = values[0], values[1]
    if len(values) != 2 + 2 * m:
        raise GraphError(f"expected {m} edges, found {(len(values) - 2) // 2}")
    return Graph(n, zip(values[2::2], values[3::2]))


def write_edge_list(g: Graph) -> str:
    edges = list(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Derived graphs


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the given set, relabeled 0..k-1 in sorted order:
    new index i is sorted(vertices)[i]."""
    block = _vertex_mask(g, vertices)
    if not block:
        raise GraphError("induced subgraph of the empty set")
    return _relabel(g.adj, list(_bits(block)))


def _relabel(adj, order) -> Graph:
    """The graph induced on order's distinct vertices, order[i] relabelled i."""
    block = _mask(order)
    pos = {v: i for i, v in enumerate(order)}
    return Graph._from_adj(len(order), tuple(_mask(pos[w] for w in _bits(adj[v] & block)) for v in order))


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


def blowup_classes(sizes: Iterable[int]) -> tuple[range, ...]:
    """Vertex classes of clique_blowup: class i occupies a consecutive block."""
    out = []
    start = 0
    for s in sizes:
        out.append(range(start, start + s))
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
    total = sum(sizes)
    if total > MAX_VERTICES:
        raise GraphError(f"blowup exceeds vertex cap {MAX_VERTICES}")
    classes = blowup_classes(sizes)
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
# Exact searches: clique number, the chromatic oracle, refinement, and one
# induced-placement engine for fixed patterns and isomorphism


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    return _is_clique_mask(g.adj, _vertex_mask(g, vertices))


def _is_clique_mask(adj, mask: int) -> bool:
    rest = mask
    while rest & rest - 1:  # the last vertex is seen by all the others
        low = rest & -rest
        if adj[low.bit_length() - 1] & mask != mask ^ low:
            return False
        rest ^= low
    return True


def max_clique_size(g: Graph) -> int:
    """Exact clique number by branch and bound with a greedy coloring bound."""
    if g.n == 0:
        raise GraphError("clique number of the empty graph")
    return _max_clique_size(g.adj, g.full_mask())


def _max_clique_size(adj, block: int) -> int:
    """Clique number of the subgraph induced on the nonempty mask block."""
    return _expand(adj, block, 0, 0)


def _color_order(adj, cand: int) -> list[tuple[int, int]]:
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


def _expand(adj, cand: int, size: int, best: int) -> int:
    """The larger of best and size plus the clique number of cand, by branch
    and bound with the greedy coloring bound."""
    for v, bound in reversed(_color_order(adj, cand)):
        if size + bound <= best:
            return best
        newcand = cand & adj[v]
        if newcand:
            best = _expand(adj, newcand, size + 1, best)
        elif size + 1 > best:
            best = size + 1
        cand ^= 1 << v
    return best


def _colorable(g: Graph, k: int) -> dict[int, int] | None:
    """DSATUR-ordered backtracking: a proper k-coloring or None."""
    colors = [0] * g.n
    if _dsatur(g.adj, k, colors, [set() for _ in range(g.n)], 0, 0):
        return dict(enumerate(colors))
    return None


def _dsatur(adj, k: int, colors: list[int], neigh_colors: list[set], colored: int, maxused: int) -> bool:
    """Extend the partial coloring colors (0: uncolored) to a proper one
    with colors up to k, trying the uncolored vertex of most distinct
    neighbour colors, then highest degree, then lowest label."""
    n = len(adj)
    if colored == n:
        return True
    v = max((u for u in range(n) if not colors[u]),
            key=lambda u: (len(neigh_colors[u]), adj[u].bit_count(), -u))
    for c in range(1, min(maxused + 1, k) + 1):
        if c in neigh_colors[v]:
            continue
        colors[v] = c
        touched = []
        for u in _bits(adj[v]):
            if not colors[u] and c not in neigh_colors[u]:
                neigh_colors[u].add(c)
                touched.append(u)
        if _dsatur(adj, k, colors, neigh_colors, colored + 1, max(maxused, c)):
            return True
        for u in touched:
            neigh_colors[u].discard(c)
        colors[v] = 0
    return False


def exact_coloring(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict[int, int]:
    """A minimum proper coloring: _colorable with k = omega, omega + 1, ...
    until one succeeds, which k = n always does. Oracle-scale only."""
    if g.n > limit:
        raise GraphError(f"chromatic oracle limited to {limit} vertices, got {g.n}")
    if g.n == 0:
        return {}
    k = max_clique_size(g)
    while (got := _colorable(g, k)) is None:
        k += 1
    return got


def exact_chromatic_number(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Exact chi(G); raises GraphError beyond the configured oracle limit."""
    if g.n == 0:
        return 0
    return max(exact_coloring(g, limit).values())


def _refine(adj: tuple[int, ...], cells: list[list[int]],
            splitters: list[list[int]] | None = None) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition.

    Cells split by how many neighbors each vertex has in every current cell;
    the pieces are ordered by that signature, so the result is equivariant
    under isomorphism, and vertices keep their order within each cell.

    Later rounds count only against the splitters: the pieces of the cells
    that split last round, less the last piece of each. Within a cell every
    other count is equal, and a last piece's count is fixed by the pieces
    before it, so the groups and their order are those of all the counts.
    By the same argument the first round counts only against splitters
    when given: a caller that splits one cell of an equitable partition
    into [v] and the rest passes [[v]].
    """
    if splitters is None:
        splitters = cells
    while splitters:
        masks = [_mask(cell) for cell in splitters]
        out: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                a = adj[v]
                sig = 0  # the counts, each below 2**10, as digits: ints order as their tuples
                for m in masks:
                    sig = sig << 10 | (a & m).bit_count()
                groups.setdefault(sig, []).append(v)
            pieces = [groups[sig] for sig in sorted(groups)]
            out += pieces
            splitters += pieces[:-1]
        cells = out
    return cells


def _find_fixed_pattern(g: Graph, pat: Graph, masks: list[int]) -> tuple[int, ...] | None:
    """The lex-least tuple (v_0, ..., v_k-1) with each v_j in masks[j] and
    v_i ~ v_j in g exactly when i ~ j in pat, or None: an induced placement
    of the k-vertex graph pat, by backtracking with forward checking.

    Position j tries the ascending bits of masks[j]. The vertex placed at
    pos narrows each later mask to its neighbours or other non-neighbours,
    as the bits of pat.adj[pos] >> pos + 1 say, and a branch stops at the
    first empty one: it could not complete, so the first complete tuple is
    the lex-least, the one plain backtracking finds. Nothing is kept
    between calls. The empty pattern places as ().
    """
    if g.n < pat.n:
        return None
    chosen = [0] * pat.n
    return tuple(chosen) if not pat.n or _place(g.adj, pat.adj, chosen, 0, masks) else None


def _place(gadj, padj, chosen: list[int], pos: int, masks: list[int]) -> bool:
    # masks[j - pos]: the candidates for pattern vertex j >= pos
    later = padj[pos] >> pos + 1  # bit j - pos - 1: j ~ pos in pat
    for v in _bits(masks[0]):
        chosen[pos] = v
        if pos + 1 == len(chosen):
            return True
        near = gadj[v]
        far = ~(near | 1 << v)
        rest = [m & (near if later >> j & 1 else far) for j, m in enumerate(masks[1:])]
        if all(rest) and _place(gadj, padj, chosen, pos + 1, rest):
            return True
    return False


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An adjacency-preserving bijection g -> h, or None.

    Refinement gives each vertex of g the cell of h it must map into; g,
    relabelled by _relabel rarest cell first, then by label, is placed in h
    by _find_fixed_pattern, so keys come in that order. Exponential in the
    worst case: a relabelled C41 as g does not finish in 20 s.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    cells_g = _refine(g.adj, [list(range(g.n))])
    by_color = _refine(h.adj, [list(range(h.n))])
    if [len(c) for c in cells_g] != [len(c) for c in by_color]:
        return None
    cg = {v: i for i, cell in enumerate(cells_g) for v in cell}
    order = sorted(range(g.n), key=lambda v: (len(by_color[cg[v]]), v))  # rarest cells first
    cell_masks = [_mask(cell) for cell in by_color]
    got = _find_fixed_pattern(h, _relabel(g.adj, order), [cell_masks[cg[v]] for v in order])
    return None if got is None else dict(zip(order, got))


def isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


class GraphStats(NamedTuple):
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
