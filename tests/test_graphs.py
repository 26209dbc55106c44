import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p7c4.graphs import (
    Graph,
    GraphError,
    _bits,
    _is_clique_mask,
    _refine,
    _relabel,
    _twin_classes,
    clique_blowup,
    complete_graph,
    cycle_graph,
    empty_graph,
    exact_chromatic_number,
    exact_coloring,
    from_edge_list,
    find_isomorphism,
    graph_stats,
    induced_subgraph,
    isomorphic,
    join_with_clique,
    max_clique_size,
    parse_edge_list,
    parse_graph6,
    path_graph,
    write_edge_list,
    write_graph6,
)
from p7c4.enumerate import all_graphs
from p7c4.families import petersen

from conftest import brute_max_clique, reference_find_isomorphism, reference_parse_graph6, reference_refine


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, edges)


def test_from_edge_list_examples():
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert k3 == complete_graph(3)
    c7 = from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])
    assert set(c7.degrees()) == {2}
    diamond = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert sorted(diamond.degrees()) == [2, 2, 3, 3]
    assert not diamond.has_edge(0, 3)


def test_from_edge_list_duplicates_merge():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("bad", [[(0, 3)], [(-1, 0)], [(0, 0)]])
def test_from_edge_list_rejects(bad):
    with pytest.raises(GraphError):
        from_edge_list(3, bad)


def test_graph6_known_encodings():
    # K3 packed by hand: header 63+3='B', bits 111 padded to 111000 -> 'w'
    assert write_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)
    # empty graph on 5 vertices: 10 zero bits in two bytes
    assert write_graph6(empty_graph(5)) == "D??"
    g = parse_graph6("D?{")
    assert g.n == 5


def test_graph6_roundtrip_fixed():
    for g in (petersen(), cycle_graph(7), complete_graph(6), empty_graph(1)):
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph6_roundtrip_random(g):
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_large_order_header():
    g = empty_graph(100)
    text = write_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_graph6_rejects_order_over_cap():
    header_1000 = "~" + chr(63) + chr(63 + (1000 >> 6)) + chr(63 + (1000 & 63))
    with pytest.raises(GraphError):
        parse_graph6(header_1000)


def test_graph6_accepts_format_marker():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


# every malformed graph6 line and the message it raises, one per check
MALFORMED_GRAPH6 = [
    ("", "empty graph6 line"),
    ("B>", "invalid graph6 characters"),  # '>' lies just under the graph6 range
    ("B\x7f", "invalid graph6 characters"),  # just above '~'
    ("~??", "malformed graph6 header"),  # the long header cut short
    ("~~?????", "malformed graph6 header"),  # the 8-byte header form, unsupported
    ("B", "graph6 body has 0 bytes, expected 1"),  # truncated body
    ("Bww", "graph6 body has 2 bytes, expected 1"),  # oversized body
    ("B~", "nonzero trailing bits"),  # K3 with its three padding bits set
]


@pytest.mark.parametrize("bad, message", MALFORMED_GRAPH6, ids=[bad for bad, _ in MALFORMED_GRAPH6])
def test_graph6_rejects_malformed(bad, message):
    with pytest.raises(GraphError, match=message):
        parse_graph6(bad)


def test_graph6_parsing_matches_the_per_bit_reference():
    # the same graph, or GraphError with the same message, on every graph
    # n <= 7, on n = 62, 63 and 64 in both header forms, on seeded sparse and
    # dense graphs up to the cap, and on every malformed line
    rng = random.Random(44)
    lines = [write_graph6(g) for n in range(1, 8) for g in all_graphs(n)]
    for n in (62, 63, 64, 100, 300, 511, 512):
        for p in (0.02, 0.5):
            line = write_graph6(Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
            body = line[1:] if n <= 62 else line[4:]
            lines += [line, "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63)) + body]
    lines += [bad for bad, _ in MALFORMED_GRAPH6]
    for line in lines:
        try:
            want = reference_parse_graph6(line)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                parse_graph6(line)
            assert str(got.value) == str(exc), line
        else:
            assert parse_graph6(line) == want, line


def test_graph6_rejects_trailing_bits():
    # K3's byte is 111000; flipping a padding bit must be rejected
    assert parse_graph6("Bw") is not None
    with pytest.raises(GraphError):
        parse_graph6("Bx")  # 'x' = 111001: padding bit set


def test_edge_list_roundtrip():
    g = petersen()
    assert parse_edge_list(write_edge_list(g)) == g
    assert parse_edge_list("3 2  0 1  1 2") == path_graph(3)
    with pytest.raises(GraphError):
        parse_edge_list("3 2 0 1")


@pytest.mark.parametrize("text, token", [("2 1 0 x", "x"), ("x 1 0 1", "x"), ("3 2.0 0 1 1 2", "2.0")])
def test_edge_list_names_a_non_integer_token(text, token):
    with pytest.raises(GraphError, match=f"token '{token}'"):
        parse_edge_list(text)


def test_induced_subgraph_examples():
    c7 = cycle_graph(7)
    assert induced_subgraph(c7, [0, 1, 2]) == path_graph(3)
    d = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert induced_subgraph(d, range(4)) == d
    # outer 5-cycle of the standard Petersen layout
    assert isomorphic(induced_subgraph(petersen(), [0, 1, 2, 3, 4]), cycle_graph(5))
    with pytest.raises(GraphError):
        induced_subgraph(c7, [])


def test_induced_subgraph_identity(small_graphs):
    for g in small_graphs[:120]:
        assert induced_subgraph(g, range(g.n)) == g


def test_join_with_clique():
    g = petersen()
    assert join_with_clique(g, 0) == g
    assert join_with_clique(Graph(1), 1) == complete_graph(2)
    j = join_with_clique(g, 2)
    assert max_clique_size(j) == 4
    assert j.min_degree() == 5


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8), st.integers(min_value=0, max_value=3))
def test_join_chi_additive(g, ell):
    assert exact_chromatic_number(join_with_clique(g, ell)) == exact_chromatic_number(g) + ell


def test_join_chi_additive_near_oracle_limit():
    for g in (petersen(), cycle_graph(9), complete_graph(10)):
        for ell in (1, 3):
            assert exact_chromatic_number(join_with_clique(g, ell)) == (
                exact_chromatic_number(g) + ell
            )


def test_clique_blowup_examples():
    base = cycle_graph(7)
    assert isomorphic(clique_blowup(base, [1] * 7), base)
    g1 = clique_blowup(base, [2] * 7)
    assert g1.n == 14 and g1.min_degree() == 5 and max_clique_size(g1) == 4
    for t in (1, 2, 3):
        assert max_clique_size(clique_blowup(petersen(), [t] * 10)) == 2 * t
    with pytest.raises(GraphError):
        clique_blowup(base, [1] * 6)
    with pytest.raises(GraphError):
        clique_blowup(base, [0] + [1] * 6)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=4), st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4))
def test_clique_blowup_omega_property(base, sizes):
    sizes = sizes[: base.n]
    if len(sizes) < base.n:
        sizes += [1] * (base.n - len(sizes))
    blown = clique_blowup(base, sizes)
    if blown.n > 12:
        return
    # omega of a blowup = heaviest clique of the base under the size weights;
    # for triangle-free bases that reduces to the best edge (or lone class)
    from itertools import combinations

    expected = max(
        sum(sizes[v] for v in subset)
        for k in range(1, base.n + 1)
        for subset in combinations(range(base.n), k)
        if all(base.has_edge(u, v) for u, v in combinations(subset, 2))
    )
    assert max_clique_size(blown) == brute_max_clique(blown) == expected


def test_max_clique_examples():
    assert max_clique_size(petersen()) == 2
    for ell in (1, 2, 3):
        assert max_clique_size(join_with_clique(petersen(), ell)) == ell + 2
    assert max_clique_size(complete_graph(7)) == 7
    assert max_clique_size(empty_graph(4)) == 1


def test_max_clique_matches_bruteforce(small_graphs):
    for g in small_graphs:
        assert max_clique_size(g) == brute_max_clique(g)


def test_is_clique_mask_matches_the_all_expression(small_graphs):
    # the early-exit loop answers as the expression it replaced, on every
    # vertex mask of every graph on <= 6 vertices, the empty mask included
    for g in small_graphs:
        for mask in range(1 << g.n):
            want = all(g.adj[v] & mask == mask ^ 1 << v for v in _bits(mask))
            assert _is_clique_mask(g.adj, mask) == want


def _pairwise_twin_classes(adj, block: int, closed: bool) -> list[int]:
    """Classes of the relation "u = v, or u and v see the same vertices of
    block besides each other and are adjacent iff closed", by lowest vertex."""
    def twins(u, v):
        others = block & ~(1 << u | 1 << v)
        return u == v or adj[u] & others == adj[v] & others and bool(adj[u] >> v & 1) == closed

    classes = []
    for v in _bits(block):
        c = sum(1 << u for u in _bits(block) if twins(u, v))
        if c not in classes:
            classes.append(c)
    return classes


def test_twin_classes_match_the_pairwise_definition(small_graphs):
    # both kinds of class, on the full mask of every graph on <= 6 vertices
    # and on seeded random blocks of them and of larger random graphs; no
    # vertex lies in a false-twin class and a true-twin class of two or more
    rng = random.Random(37)
    cases = [(g.adj, g.full_mask()) for g in small_graphs]
    cases += [(g.adj, rng.getrandbits(g.n)) for g in small_graphs]
    for _ in range(200):
        n = rng.randint(7, 14)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        cases.append((g.adj, rng.getrandbits(n)))
    both = 0
    for adj, block in cases:
        false, true = (_twin_classes(adj, block, closed) for closed in (False, True))
        assert false == _pairwise_twin_classes(adj, block, False), (adj, block)
        assert true == _pairwise_twin_classes(adj, block, True), (adj, block)
        assert _twin_classes(adj, block) == true
        assert not any(f & t and f & f - 1 and t & t - 1 for f in false for t in true)
        both += any(f & f - 1 for f in false) and any(t & t - 1 for t in true)
    assert len(cases) == 616 and both == 82  # blocks with twins of both kinds, in different classes


def test_chromatic_oracle_examples():
    assert exact_chromatic_number(cycle_graph(7)) == 3
    assert exact_chromatic_number(petersen()) == 3
    assert exact_chromatic_number(complete_graph(5)) == 5
    assert exact_chromatic_number(empty_graph(6)) == 1
    with pytest.raises(GraphError):
        exact_chromatic_number(empty_graph(17))


def test_exact_coloring_is_proper(small_graphs):
    for g in small_graphs[:200]:
        colors = exact_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())


def test_omega_le_chi(small_graphs):
    for g in small_graphs:
        assert max_clique_size(g) <= exact_chromatic_number(g)


def test_isomorphic():
    perm = [3, 8, 1, 9, 5, 0, 4, 7, 2, 6]
    p = petersen()
    shuffled = Graph(10, [(perm[u], perm[v]) for u, v in p.edges()])
    assert isomorphic(p, shuffled)
    mapping = find_isomorphism(p, shuffled)
    assert all(shuffled.has_edge(mapping[u], mapping[v]) for u, v in p.edges())
    assert isomorphic(cycle_graph(7), cycle_graph(7))
    # same degree sequence, not isomorphic
    c6 = cycle_graph(6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not isomorphic(c6, two_triangles)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _same_degrees(g: Graph, rng: random.Random) -> Graph:
    """g after seeded double-edge swaps ab, cd -> ad, cb, which keep every
    degree; g needs two edges."""
    edges = sorted(g.edges())
    for _ in range(4 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.randrange(2):
            c, d = d, c
        new = [tuple(sorted(e)) for e in ((a, d), (c, b))]
        if len({a, b, c, d}) == 4 and not set(new) & set(edges):
            edges[i], edges[j] = new
    return Graph(g.n, edges)


def _assert_same_isomorphism(g: Graph, h: Graph):
    got, want = find_isomorphism(g, h), reference_find_isomorphism(g, h)
    assert got == want, (write_graph6(g), write_graph6(h))
    assert want is None or list(got) == list(want)


def test_isomorphism_matches_reference_on_every_small_graph():
    # every graph n <= 7 against two seeded relabellings: equal maps, keys
    # in the same order
    rng = random.Random(28)
    corpus = [empty_graph(0)] + [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(corpus) == 1 + 1252
    for g in corpus:
        for _ in range(2):
            _assert_same_isomorphism(g, _relabelled(g, rng))
    assert find_isomorphism(empty_graph(0), empty_graph(0)) == {}


def test_isomorphism_matches_reference_on_equal_degree_sequences():
    rng = random.Random(7)
    apart = 0
    for _ in range(300):
        n = rng.randrange(6, 13)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        if g.edge_count() < 2:
            continue
        h = _relabelled(_same_degrees(g, rng), rng)
        assert sorted(g.degrees()) == sorted(h.degrees())
        _assert_same_isomorphism(g, h)
        _assert_same_isomorphism(h, g)
        apart += reference_find_isomorphism(g, h) is None
    assert apart >= 100  # most pairs are not isomorphic, so both answers are tested
    from p7c4.families import graph_f

    for g, h in ((petersen(), graph_f()), (graph_f(), petersen()), (petersen(), _relabelled(petersen(), rng))):
        _assert_same_isomorphism(g, h)


def test_isomorphism_leaves_no_memory_behind():
    # each call places a new 100-vertex pattern, two disjoint cycles;
    # nothing of it may outlive the call
    import gc
    import tracemalloc

    rng = random.Random(1)
    pairs = []
    for m in range(3, 36):  # C(100 - m) on labels 0.., then Cm
        g = Graph(100, [(v, (v + 1) % (100 - m)) for v in range(100 - m)]
                  + [(100 - m + v, 100 - m + (v + 1) % m) for v in range(m)])
        pairs.append((g, _relabelled(g, rng)))
    tracemalloc.start()
    try:
        found = [isomorphic(g, h) for g, h in pairs]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(found)
    assert retained < 500_000, retained


def test_relabel_matches_an_edge_built_relabelling(small_graphs):
    rng = random.Random(3)
    for g in small_graphs:
        for k in (g.n, rng.randint(1, g.n), rng.randint(1, g.n)):  # a permutation, then two subsets
            order = rng.sample(range(g.n), k)
            pos = {v: i for i, v in enumerate(order)}
            expected = Graph(len(order), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])
            assert _relabel(g.adj, order) == expected, (write_graph6(g), order)


def test_isomorphic_petersen_vs_f():
    from p7c4.families import graph_f

    f = graph_f()
    assert sorted(f.degrees()) == [3] * 8 + [4, 4]
    assert not isomorphic(petersen(), f)


def test_graph_stats():
    s = graph_stats(petersen())
    assert (s.omega, s.chi, s.delta, s.connected) == (2, 3, 3, True)
    big = empty_graph(20)
    assert graph_stats(big).chi is None
    assert graph_stats(big, chi_limit=20).chi == 1


def test_vertex_cap():
    with pytest.raises(GraphError):
        Graph(513)


def test_bits_lists_the_set_bits_ascending():
    # a table answers below 2**8 and a generator above: every mask below
    # 2**10, the edges of the table and seeded masks up to 2**512
    rng = random.Random(43)
    masks = [*range(1 << 10), (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 512) - 1, 1 << 512]
    masks += [rng.getrandbits(rng.randint(9, 512)) for _ in range(500)]
    for m in masks:
        assert list(_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1], m


def test_refinement_by_splitters_matches_the_reference():
    # every graph n <= 8 from the unit partition and from two seeded ordered
    # partitions, one with shuffled cells: the same cells in the same order
    rng = random.Random(27)
    for n in range(1, 9):
        for g in all_graphs(n):
            starts = [[list(range(n))]]
            for shuffled in (False, True):
                order = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
                cells = [order[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
                starts.append(cells if shuffled else [sorted(c) for c in cells])
            for cells in starts:
                assert _refine(g.adj, cells) == reference_refine(g.adj, cells), (write_graph6(g), cells)


def test_refinement_from_one_splitter_matches_the_reference():
    # the canonical search's step: one cell of an equitable partition split
    # into [v] and the rest, refined against [v] alone
    for n in range(1, 8):
        for g in all_graphs(n):
            equitable = reference_refine(g.adj, [list(range(n))])
            for i, cell in enumerate(equitable):
                for v in cell if len(cell) > 1 else ():
                    cells = [*equitable[:i], [v], [u for u in cell if u != v], *equitable[i + 1:]]
                    assert _refine(g.adj, cells, [[v]]) == reference_refine(g.adj, cells), (write_graph6(g), v)


def test_searches_leave_no_cyclic_garbage():
    # each backtracking search recurses through a module-level function, so
    # a call leaves no reference cycle for the collector
    import gc

    from p7c4.coloring import _min_multicover
    from p7c4.enumerate import canonical_permutation
    from p7c4.patterns import _find_induced_path, _has_pattern_through, _search_induced_cycles

    pet, c40, p8 = petersen(), cycle_graph(40), path_graph(8)
    calls = {
        "P7": lambda: _find_induced_path(p8, 7, p8.full_mask()),
        "C4": lambda: _search_induced_cycles(pet, 4, lambda cycle: True, pet.full_mask()),
        "isomorphic": lambda: isomorphic(c40, c40),
        "canonical_permutation": lambda: canonical_permutation(pet),
        "p7_through": lambda: _has_pattern_through(path_graph(7).adj, 1, "P7"),
        "max_clique_size": lambda: max_clique_size(pet),
        "exact_chromatic_number": lambda: exact_chromatic_number(pet),
        "min_multicover": lambda: _min_multicover((2, 3, 1, 2, 2, 3, 2, 1, 2, 2)),
    }
    for call in calls.values():  # fill the module caches first
        call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            for _ in range(10):
                call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
