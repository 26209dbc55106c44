import copy
import pickle
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p7c4.patterns as patterns
from p7c4.coloring import color_gem_class
from p7c4.enumerate import canonical_form, class_members
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
    parse_graph6,
    path_graph,
    write_graph6,
)
from p7c4.patterns import (
    PATTERN_NAMES,
    class_membership,
    find_hole,
    find_induced_pattern,
    pattern_graph,
)
from p7c4.verify import verify_corpus

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


def _fresh(g: Graph) -> Graph:
    """A copy of g with an empty absence memo. The session fixtures share
    their graphs between tests, so a test that checks the searches against
    an oracle takes copies, or an earlier test's memo would answer for it."""
    return Graph._from_adj(g.n, g.adj)


@pytest.mark.parametrize("pattern", ("diamond", "kite", "gem", "bull"))
def test_fixed_pattern_forward_checking_keeps_the_witness(small_graphs, connected_upto7, pattern):
    # pruning on empty later candidate sets must return the reference's
    # lex-least witness, and None exactly where it does
    cases = [*small_graphs, *connected_upto7, complete_graph(12),
             *(spider(k) for k in (3, 8, 20)), *(windmill(k) for k in (3, 8, 20)),
             clique_blowup(cycle_graph(7), [2, 3, 2, 2, 4, 2, 3]),
             clique_blowup(petersen(), [2, 3, 2, 2, 2, 3, 2, 2, 2, 2]),
             join_with_clique(petersen(), 4)]
    for g in map(_fresh, cases):
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
    for g in map(_fresh, [*connected_upto7, *_twin_heavy_graphs()]):
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
    for g in map(_fresh, small_graphs):
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


# ---------------------------------------------------------------------------
# The absence memo on Graph


def _full_memo(g: Graph) -> Graph:
    """g with every memo bit set, true or not; never pass a shared graph."""
    g._absent = (1 << len(PATTERN_NAMES)) - 1
    return g


def test_memo_answers_equal_the_oracles(connected_upto7):
    # a fresh copy is searched on the first call and may be answered from
    # its memo on the second; both must be the oracle's answer
    for g in connected_upto7:
        for pattern in PATTERN_NAMES:
            fresh = _fresh(g)
            want = _reference(fresh, pattern)
            for _ in range(2):
                got = find_induced_pattern(fresh, pattern)
                assert (got.vertices if got else None) == want, (g.adj, pattern)
            bit = 1 << PATTERN_NAMES.index(pattern)
            assert fresh._absent == (bit if want is None else 0), (g.adj, pattern)


def test_witness_leaves_the_memo_unchanged():
    g = path_graph(7)
    assert find_induced_pattern(g, "C4") is None
    before = g._absent
    assert find_induced_pattern(g, "P7") is not None
    assert find_induced_pattern(g, "hole(5)") is None
    assert g._absent == before == 1 << PATTERN_NAMES.index("C4")


def test_equal_graphs_keep_separate_memos():
    a, b = (Graph(10, petersen().edges()) for _ in range(2))
    assert a == b and hash(a) == hash(b) and a is not b
    assert find_induced_pattern(a, "P7") is None
    assert a._absent and not b._absent
    assert a == b and hash(a) == hash(b)  # the memo is no part of equality
    # a false bit forced onto one copy answers only for that copy
    forced, plain = _full_memo(cycle_graph(7)), cycle_graph(7)
    assert forced == plain
    assert find_induced_pattern(forced, "C7") is None
    assert find_induced_pattern(plain, "C7").vertices == tuple(range(7))


def test_full_memo_still_rejects_bad_names():
    g = _full_memo(Graph(10, petersen().edges()))
    for bad in ("hole(3)", "hole(x)", "triangle", "p7"):
        with pytest.raises(GraphError):
            find_induced_pattern(g, bad)
        with pytest.raises(GraphError):
            pattern_graph(bad)
    assert find_hole(g, 5).vertices == (0, 1, 2, 3, 4)


def test_threads_sharing_graphs_never_set_a_false_bit(connected_upto7):
    # threads race on the memo of the same graphs; a lost update may cost a
    # repeat search, but every answer and every bit left set must be true
    graphs = [_fresh(g) for g in connected_upto7 if g.n >= 6][::4]
    truth = {id(g): {p: _reference(g, p) for p in PATTERN_NAMES} for g in graphs}
    wrong = []

    def ask(order):
        for g in graphs:
            for p in order:
                got = find_induced_pattern(g, p)
                if (got.vertices if got else None) != truth[id(g)][p]:
                    wrong.append((g.adj, p))

    orders = [PATTERN_NAMES[i:] + PATTERN_NAMES[:i] for i in range(6)]
    workers = [threading.Thread(target=ask, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong, wrong[:3]
    for g in graphs:
        absent = sum(1 << i for i, p in enumerate(PATTERN_NAMES) if truth[id(g)][p] is None)
        assert g._absent & ~absent == 0, g.adj


def test_every_construction_starts_with_an_empty_memo():
    source = _full_memo(clique_blowup(petersen(), [2, 1, 1, 1, 1, 1, 1, 1, 1, 3]))
    built = [
        Graph(3, [(0, 1)]),
        parse_graph6(write_graph6(source)),
        induced_subgraph(source, range(6)),
        clique_blowup(source, [1] * source.n),
        join_with_clique(source, 2),
        canonical_form(source),
        # petersen() caches its one graph, which keeps the bits it gains
        petersen.__wrapped__(),
    ]
    assert all(g._absent == 0 for g in built)
    for clone in (copy.copy(source), pickle.loads(pickle.dumps(source))):
        assert clone is not source
        assert (clone.n, clone.adj) == (source.n, source.adj) and clone == source


def _count_searches(monkeypatch) -> Counter:
    """Counter of (graph id, pattern name) over the searches that
    find_induced_pattern runs from now on; the graphs are kept alive so
    that their ids stay distinct."""
    searched: Counter = Counter()
    kept = []
    fixed = {pattern_graph(name): name for name in ("diamond", "kite", "gem", "bull")}

    def counted(search, name_of):
        def wrapper(g, *args):
            kept.append(g)
            searched[id(g), name_of(*args)] += 1
            return search(g, *args)
        return wrapper

    monkeypatch.setattr(patterns, "_find_induced_path",
                        counted(patterns._find_induced_path, lambda k, allowed: f"P{k}"))
    monkeypatch.setattr(patterns, "_search_induced_cycles",
                        counted(patterns._search_induced_cycles, lambda k, stop, allowed: f"C{k}"))
    monkeypatch.setattr(patterns, "_find_fixed_pattern",
                        counted(patterns._find_fixed_pattern, lambda pat, allowed: fixed[pat]))
    return searched


def test_verify_proves_each_absence_once_per_graph(monkeypatch):
    # the class filter's proof of gem-freeness stays on the members it keeps
    gem_bit = 1 << PATTERN_NAMES.index("gem")
    members = [g for n in range(1, 8) for g in class_members("gem-class", n)]
    assert members and all(g._absent & gem_bit for g in members)
    # T3 and then C3 over fresh copies: each copy is searched for P7, C4 and
    # the gem once, and every later membership check reads the memo
    fresh = [_fresh(g) for g in members]
    searched = _count_searches(monkeypatch)
    for theorem in ("T3", "C3"):
        run = verify_corpus(fresh, theorem)
        assert run.members == len(fresh) and run.violated == 0
    assert searched == Counter({(id(g), p): 1 for g in fresh for p in ("P7", "C4", "gem")})


def test_colourer_reuses_the_membership_proof(monkeypatch):
    g = clique_blowup(petersen(), [2, 3, 1, 2, 1, 1, 2, 1, 1, 3])
    searched = _count_searches(monkeypatch)
    assert class_membership(g, "gem").free
    color_gem_class(g)
    assert searched == Counter({(id(g), p): 1 for p in ("P7", "C4", "gem")})
