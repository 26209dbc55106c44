import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p7c4.families import g1, g4, graph_f, petersen
from p7c4.graphs import (
    Graph,
    GraphError,
    _true_twin_classes,
    clique_blowup,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    isomorphic,
    join_with_clique,
    path_graph,
)
from p7c4.patterns import (
    PATTERN_NAMES,
    class_membership,
    find_hole,
    find_induced_pattern,
    pattern_graph,
)

from conftest import (
    brute_has_pattern,
    reference_fixed_pattern,
    reference_induced_cycle,
    reference_induced_path,
    spider,
    windmill,
)


def test_pattern_graphs_have_documented_shapes():
    assert pattern_graph("diamond").edge_count() == 5
    assert sorted(pattern_graph("kite").degrees()) == [1, 2, 3, 3, 3]
    assert sorted(pattern_graph("gem").degrees()) == [2, 2, 3, 3, 4]
    assert sorted(pattern_graph("bull").degrees()) == [1, 1, 2, 3, 3]
    assert pattern_graph("hole(5)") == cycle_graph(5)
    with pytest.raises(GraphError):
        pattern_graph("house")


def test_find_pattern_examples():
    assert find_induced_pattern(complete_graph(4), "diamond") is None
    assert find_induced_pattern(cycle_graph(7), "P7") is None
    w = find_induced_pattern(path_graph(7), "P7")
    assert w.vertices == (0, 1, 2, 3, 4, 5, 6)
    # the 2-blowup of C7 contains a diamond (two class-mates plus neighbors)
    w = find_induced_pattern(g1(2), "diamond")
    assert w is not None


def test_witness_matches_pattern_adjacency():
    cases = [
        (g1(2), "diamond"),
        (g1(2), "kite"),
        (g4(), "P7"),
        (graph_f(), "P7"),
        (cycle_graph(7), "hole(7)"),
        (petersen(), "hole(5)"),
        (complete_graph(5), "hole(4)"),
    ]
    for g, name in cases:
        w = find_induced_pattern(g, name)
        if name == "hole(4)":
            assert w is None
            continue
        pat = pattern_graph(name)
        assert w is not None and w.pattern == name
        vs = w.vertices
        assert len(vs) == pat.n
        for i in range(pat.n):
            for j in range(i + 1, pat.n):
                assert g.has_edge(vs[i], vs[j]) == pat.has_edge(i, j)


def test_find_hole():
    assert find_hole(cycle_graph(7), 7).vertices == (0, 1, 2, 3, 4, 5, 6)
    assert find_hole(petersen(), 4) is None
    assert find_hole(petersen(), 5) is not None
    assert find_hole(graph_f(), 7).vertices == (0, 1, 2, 3, 4, 5, 6)
    with pytest.raises(GraphError):
        find_hole(cycle_graph(7), 3)


def test_witness_is_lex_least():
    # the first valid tuple in lexicographic order must be returned
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)])
    w = find_induced_pattern(g, "C4")
    assert w.vertices == (0, 1, 2, 3)


@pytest.mark.parametrize("pattern", ("diamond", "kite", "gem", "bull"))
def test_fixed_pattern_forward_checking_keeps_the_witness(small_graphs, connected_upto7, pattern):
    # pruning on empty later candidate sets must return the reference's
    # lex-least witness, and None exactly where it does
    cases = [*small_graphs, *connected_upto7, complete_graph(12),
             *(spider(k) for k in (3, 8, 20)), *(windmill(k) for k in (3, 8, 20)),
             clique_blowup(cycle_graph(7), [2, 3, 2, 2, 4, 2, 3]),
             clique_blowup(petersen(), [2, 3, 2, 2, 2, 3, 2, 2, 2, 2]),
             join_with_clique(petersen(), 4)]
    for g in cases:
        got = find_induced_pattern(g, pattern)
        assert (got.vertices if got else None) == reference_fixed_pattern(g, pattern), g


def _reference(g: Graph, pattern: str):
    if pattern == "P7":
        return reference_induced_path(g, 7)
    if pattern in ("C4", "C7"):
        return reference_induced_cycle(g, int(pattern[1]))
    if pattern.startswith("hole("):
        return reference_induced_cycle(g, int(pattern[5:-1]))
    return reference_fixed_pattern(g, pattern)


def _random_with_twins(rng: random.Random) -> Graph:
    """A random graph on 5-10 vertices plus a few true twins of random
    vertices (twins of twins too), under a random relabelling."""
    n = rng.randint(5, 10)
    p = rng.choice((0.3, 0.5, 0.7))
    nbrs = [{u for u in range(n) if u != v and rng.random() < p} for v in range(n)]
    for u in range(n):
        for v in nbrs[u]:
            nbrs[v].add(u)
    for _ in range(rng.randint(1, 5)):
        v = rng.randrange(len(nbrs))
        new = len(nbrs)
        nbrs.append(nbrs[v] | {v})
        for u in nbrs[new]:
            nbrs[u].add(new)
    perm = list(range(len(nbrs)))
    rng.shuffle(perm)
    return Graph(len(nbrs), [(perm[u], perm[v]) for u in range(len(nbrs)) for v in nbrs[u] if u < v])


def _relabelled(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _random_tree(rng: random.Random) -> Graph:
    n = rng.randint(6, 16)
    return _relabelled(rng, n, [(rng.randrange(v), v) for v in range(1, n)])


def _random_caterpillar(rng: random.Random) -> Graph:
    """A path of 3-9 vertices with 0-2 leaves on each."""
    spine = rng.randint(3, 9)
    edges = [(v, v + 1) for v in range(spine - 1)]
    n = spine
    for v in range(spine):
        for _ in range(rng.randint(0, 2)):
            edges.append((v, n))
            n += 1
    return _relabelled(rng, n, edges)


def _long_legged_spider(legs: int) -> Graph:
    """A centre 0 with `legs` paths of three edges."""
    return Graph(1 + 3 * legs, [e for i in range(legs) for e in
                                ((0, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i + 2, 3 * i + 3))])


def _cycle_with_tail(k: int, tail: int) -> Graph:
    """C_k on 0..k-1 with a path of `tail` edges hanging from vertex 0."""
    path = [0, *range(k, k + tail)]
    return Graph(k + tail, [(i, (i + 1) % k) for i in range(k)] + list(zip(path, path[1:])))


def _twin_heavy_graphs() -> list[Graph]:
    rng = random.Random(12)
    bases = (cycle_graph(7), petersen(), path_graph(7), cycle_graph(5), cycle_graph(4))
    blowups = [clique_blowup(b, [rng.randint(1, 4) for _ in range(b.n)]) for b in bases for _ in range(4)]
    # sparse graphs whose depth layers cut the P7 search, with and without a P7
    sparse_rng = random.Random(13)
    layered = [*(_long_legged_spider(k) for k in (1, 2, 5)), *(path_graph(k) for k in range(6, 13)),
               *(_cycle_with_tail(k, t) for k in (3, 4, 5, 6) for t in (1, 2, 3)),
               *(_random_tree(sparse_rng) for _ in range(30)),
               *(_random_caterpillar(sparse_rng) for _ in range(30))]
    return [*blowups, *(join_with_clique(petersen(), ell) for ell in (1, 3)),
            *(spider(k) for k in (3, 8)), *(windmill(k) for k in (3, 8)),
            *(_random_with_twins(rng) for _ in range(150)), *layered]


@pytest.mark.parametrize("pattern", PATTERN_NAMES + ("hole(5)", "hole(6)"))
def test_twin_restricted_search_keeps_the_witness(connected_upto7, pattern):
    # the search skips all but the lowest vertices of each true-twin class;
    # it must return the unrestricted search's lex-least witness, or None
    # exactly where it does
    twin_pairs = 0
    for g in [*connected_upto7, *_twin_heavy_graphs()]:
        got = find_induced_pattern(g, pattern)
        assert (got.vertices if got else None) == _reference(g, pattern), (g, g.adj)
        if got is not None:
            classes = _true_twin_classes(g.adj, g.full_mask())
            twin_pairs += any((c & sum(1 << v for v in got.vertices)).bit_count() > 1 for c in classes)
    # the diamond and kite have a twin pair, so their witnesses may take two
    # vertices of one class; the other patterns never do
    assert (twin_pairs > 0) == (pattern in ("diamond", "kite")), twin_pairs


@pytest.mark.parametrize("pattern", PATTERN_NAMES + ("hole(5)", "hole(6)"))
def test_detector_matches_bruteforce_n5_n6(small_graphs, pattern):
    for g in small_graphs:
        got = find_induced_pattern(g, pattern)
        assert (got is not None) == brute_has_pattern(g, pattern)
        if got is not None:
            pat = pattern_graph(pattern)
            assert isomorphic(induced_subgraph(g, got.vertices), pat)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from(["P7", "C4", "diamond", "kite", "gem", "bull"]))
def test_freeness_is_hereditary(g, pattern):
    if find_induced_pattern(g, pattern) is not None:
        return
    for v in range(g.n):
        if g.n == 1:
            continue
        sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert find_induced_pattern(sub, pattern) is None


def test_class_membership_examples():
    for cls in ("diamond", "kite", "gem"):
        assert class_membership(petersen(), cls).free
    # the graph F, as literally defined, contains induced P7s; its membership
    # certificate must say so with the lex-least witness
    cert = class_membership(graph_f(), "diamond")
    assert not cert.free
    assert cert.witness.pattern == "P7"
    assert cert.witness.vertices == (0, 6, 9, 2, 3, 4, 8)
    # G4 is (C4, kite)-free, so its kite-class refusal must come from a P7
    cert = class_membership(g4(), "kite-class")
    assert not cert.free and cert.witness.pattern == "P7"
    # G1 contains both a diamond and a kite
    assert class_membership(g1(2), "diamond").witness is not None
    assert not class_membership(g1(2), "kite").free


def test_class_membership_check_order():
    # P7 is checked before C4, C4 before the third pattern
    g = path_graph(7)
    assert class_membership(g, "diamond").witness.pattern == "P7"
    c4_plus = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4)])
    cert = class_membership(c4_plus, "gem")
    assert cert.witness.pattern == "C4"


def test_class_membership_is_hereditary(small_graphs):
    for g in small_graphs[:150]:
        for cls in ("diamond-class", "kite-class", "gem-class"):
            if class_membership(g, cls).free and g.n > 1:
                for v in range(g.n):
                    sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
                    assert class_membership(sub, cls).free


def test_class_name_validation():
    with pytest.raises(GraphError):
        class_membership(petersen(), "bull-class")
