import hashlib
from collections import Counter
from random import Random

import pytest

import p7c4.enumerate as enumerate_module
from conftest import brute_has_pattern, brute_p7_cover, reference_canonical_permutation, reference_grow, split_off
from p7c4.enumerate import (
    _canonical_order,
    _graph_of_bits,
    _grow,
    all_graphs,
    canonical_form,
    canonical_key,
    canonical_permutation,
    class_members,
    connected_graphs,
    p7c4_free_graphs,
)
from p7c4.families import petersen
from p7c4.graphs import (
    Graph,
    GraphError,
    _refine,
    _relabel,
    clique_blowup,
    complete_graph,
    cycle_graph,
    isomorphic,
    write_graph6,
)
from p7c4.patterns import PATTERN_NAMES, _has_pattern_through, find_induced_pattern

# unlabeled-graph counts (classical enumeration values)
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# no published sequence to compare with: these counts come from this
# generator, and agree with filtering all_graphs by the brute-force pattern
# oracle (n <= 7, test below) and with a generator that canonicalized every
# child without the canonical-deletion test (n <= 9)
P7C4_FREE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 28, 6: 100, 7: 440, 8: 2537, 9: 18722}
DIAMOND_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 54, 7: 149, 8: 445}
# members on 1..9 vertices in total, same provenance
CLASS_TOTALS_UP_TO_9 = {"diamond-class": 2069, "kite-class": 5024, "gem-class": 7578}
# sha256 of the graph6 lines of each corpus for n = 1..top, in output order,
# so any change in which graphs come out, their canonical labelling or their
# order shows
GENERATOR_DIGESTS = {
    "all_graphs": (7, "2707648d72ebd98b9de4de74523cd690fb82f4970d2c632fc3ad82dca6752bce"),
    "connected_graphs": (8, "0ee0e0390c2379dce29772eeddd37e4c9b5e869bc6f4c6e352b9a16a852cb712"),
    "p7c4_free_graphs": (9, "a8c8c7f2548dc9788695b0bdbf5cc4603f1842383f4f271a61592f89d15f721f"),
}
GENERATORS = {f.__name__: f for f in (all_graphs, connected_graphs, p7c4_free_graphs)}


@pytest.mark.parametrize("n,count", sorted(ALL_COUNTS.items()))
def test_all_graph_counts(n, count):
    assert len(all_graphs(n)) == count


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_graph_counts(n, count):
    got = connected_graphs(n)
    assert len(got) == count
    assert all(g.is_connected() for g in got)


@pytest.mark.parametrize("n,count", sorted(P7C4_FREE_COUNTS.items()))
def test_p7c4_free_counts(n, count):
    assert len(p7c4_free_graphs(n)) == count


@pytest.mark.parametrize("n,count", sorted(DIAMOND_CLASS_COUNTS.items()))
def test_diamond_class_counts(n, count):
    assert len(class_members("diamond-class", n)) == count


@pytest.mark.parametrize("cls,total", sorted(CLASS_TOTALS_UP_TO_9.items()))
def test_class_totals_up_to_9(cls, total):
    assert sum(len(class_members(cls, n)) for n in range(1, 10)) == total


@pytest.mark.parametrize("n", range(1, 8))
def test_p7c4_free_graphs_match_bruteforce_filter(n):
    expected = {
        canonical_key(g) for g in all_graphs(n)
        if not brute_has_pattern(g, "P7") and not brute_has_pattern(g, "C4")
    }
    assert [canonical_key(g) for g in p7c4_free_graphs(n)] == sorted(expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_graphs_contain_every_connected_graph(n):
    expected = {canonical_key(g) for g in all_graphs(n) if g.is_connected()}
    assert [canonical_key(g) for g in connected_graphs(n)] == sorted(expected)


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_outputs_are_pinned(name):
    top, digest = GENERATOR_DIGESTS[name]
    h = hashlib.sha256()
    for n in range(1, top + 1):
        for g in GENERATORS[name](n):
            h.update(write_graph6(g).encode() + b"\n")
    assert h.hexdigest() == digest


def test_canonical_key_is_isomorphism_invariant():
    p = petersen()
    perms = [
        [4, 2, 8, 0, 9, 1, 7, 5, 3, 6],
        [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
    ]
    for perm in perms:
        shuffled = Graph(10, [(perm[u], perm[v]) for u, v in p.edges()])
        assert canonical_key(shuffled) == canonical_key(p)
    assert canonical_key(cycle_graph(6)) != canonical_key(
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    )


def _star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def _complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


TWIN_RICH = (
    [_star(k) for k in range(1, 8)]
    + [_complete_multipartite(*sizes) for sizes in ((3, 3), (2, 2, 2), (1, 2, 3), (2, 3, 3), (1, 1, 2, 3))]
    + [clique_blowup(cycle_graph(5), [3, 1, 2, 1, 2]), clique_blowup(cycle_graph(5), [2] * 5)]
)


def test_twin_pruning_keeps_the_canonical_permutation():
    # the pruned search must return the very labelling the unpruned one does,
    # also when the input is not already in canonical order
    graphs = [g for n in range(1, 8) for g in all_graphs(n)] + TWIN_RICH
    for g in graphs:
        flipped = Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
        for h in (g, flipped):
            assert canonical_permutation(h) == reference_canonical_permutation(h), write_graph6(h)


@pytest.mark.parametrize("k", [9, 20, 100])
def test_star_canonical_form_refines_linearly(k, monkeypatch):
    # the leaves of K1,k are pairwise twins, so each level branches once;
    # without twin pruning the search makes about k! refinements
    real = enumerate_module._refine
    calls = []

    def counting(adj, cells, *splitters):
        calls.append(1)
        return real(adj, cells, *splitters)

    monkeypatch.setattr(enumerate_module, "_refine", counting)
    assert canonical_form(_star(k)).degrees() == (1,) * k + (k,)
    assert len(calls) <= k + 1


def test_generator_stamps_exactly_the_absent_patterns():
    # each bit the generator proves by induction equals a search's answer
    # on a copy with an empty memo
    for n in range(1, 9):
        for g in p7c4_free_graphs(n):
            fresh = Graph._from_adj(g.n, g.adj)
            for name in ("P7", "C4", "diamond", "kite", "gem"):
                proven = bool(g._absent & 1 << PATTERN_NAMES.index(name))
                assert proven == (find_induced_pattern(fresh, name) is None), (write_graph6(g), name)


def test_generator_tests_each_pattern_once_per_key(monkeypatch):
    # C4 is decided on each orbit mask before the child is built, and never
    # again; P7 once per new canonical key: 3,121 kept and 20 rejected for
    # n <= 8. The canonical search runs once per child passing the deletion
    # test.
    for n in range(1, 9):
        p7c4_free_graphs(n)
    tested = Counter()
    real = enumerate_module._has_pattern_through
    real_order = enumerate_module._canonical_order

    def counting(adj, near, name):
        tested[name] += 1
        return real(adj, near, name)

    def counting_order(adj, cells):
        tested["canonical"] += 1
        return real_order(adj, cells)

    monkeypatch.setattr(enumerate_module, "_has_pattern_through", counting)
    monkeypatch.setattr(enumerate_module, "_canonical_order", counting_order)
    for n in range(1, 9):
        assert p7c4_free_graphs.__wrapped__(n) == p7c4_free_graphs(n)
    assert (tested["C4"], tested["P7"], tested["canonical"]) == (10892, 3141, 3706)


@pytest.mark.parametrize("generator,top,forbid", [(all_graphs, 7, ()), (p7c4_free_graphs, 8, ("C4", "P7"))])
def test_orbit_masks_grow_what_every_mask_grows(generator, top, forbid):
    # one mask per twin orbit gives the graph6 lines, order and memo bits
    # that trying every mask of the same parents gives
    for n in range(2, top + 1):
        got, want = _grow(n, generator, forbid), reference_grow(n, generator, forbid)
        assert [(write_graph6(g), g._absent) for g in got] == [(write_graph6(g), g._absent) for g in want], n


def test_edgeless_parent_grows_once_per_degree(monkeypatch):
    # the k vertices of the edgeless parent are pairwise false twins, so x
    # takes one mask per degree 0..k: 13 canonical searches for k = 12,
    # not 4,096
    k = 12
    real = enumerate_module._canonical_order
    calls = []

    def counting(adj, cells):
        calls.append(1)
        return real(adj, cells)

    monkeypatch.setattr(enumerate_module, "_canonical_order", counting)
    grown = _grow(k + 1, lambda m: (Graph(m),))
    assert len(calls) == k + 1
    assert sorted(g.edge_count() for g in grown) == list(range(k + 1))


@pytest.mark.parametrize("n", [7, 8])
def test_anchored_p7_search_matches_bruteforce(n):
    # the generator's P7 test: each x of a connected graph, asked about as a
    # vertex added to g - x
    for g in connected_graphs(n):
        cover = brute_p7_cover(g)
        for x in range(n):
            assert _has_pattern_through(*split_off(g, x), "P7") == bool(cover >> x & 1), (write_graph6(g), x)


def test_canonical_form_is_isomorphic_relabeling(small_graphs):
    for g in small_graphs[:150]:
        cf = canonical_form(g)
        assert isomorphic(cf, g)
        assert canonical_key(cf) == canonical_key(g)


def test_canonical_order_bits_are_the_graph6_body():
    # for one n the generator's int keys sort as canonical_key's strings do
    for n in range(1, 8):
        total = n * (n - 1) // 2
        for g in all_graphs(n):
            flipped = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
            bits, perm = _canonical_order(flipped.adj, _refine(flipped.adj, [list(range(n))]))
            padded = bits << -total % 6
            body = "".join(chr(63 + (padded >> 6 * i & 63)) for i in reversed(range((total + 5) // 6)))
            assert body == canonical_key(g)[1:], write_graph6(g)
            assert perm == canonical_permutation(flipped)


def test_graph_of_bits_decodes_the_canonical_relabelling():
    # the graph decoded from the least string is the relabelling by the
    # permutation that gives it, on every graph n <= 7 under seeded shuffles
    rng = Random(38)
    for n in range(1, 8):
        for g in all_graphs(n):
            for _ in range(2):
                order = list(range(n))
                rng.shuffle(order)
                h = _relabel(g.adj, order)
                bits, perm = _canonical_order(h.adj, _refine(h.adj, [list(range(n))]))
                assert _graph_of_bits(n, bits) == _relabel(h.adj, perm) == canonical_form(h), (write_graph6(g), order)


def test_canonical_key_separates_all_small_graphs(small_graphs):
    keys = [canonical_key(g) for g in small_graphs]
    assert len(set(keys)) == len(keys)  # representatives are pairwise non-isomorphic


def test_edge_cases():
    assert canonical_form(complete_graph(5)) == complete_graph(5)
    assert canonical_form(Graph(5)) == Graph(5)
    with pytest.raises(GraphError):
        all_graphs(0)


def test_diamond_class_is_contained_in_the_other_classes():
    # a diamond is induced in both the kite and the gem, so diamond-freeness
    # implies the other two freeness conditions
    for n in range(1, 7):
        diamond_keys = {canonical_key(g) for g in class_members("diamond-class", n)}
        for other in ("kite-class", "gem-class"):
            keys = {canonical_key(g) for g in class_members(other, n)}
            assert diamond_keys <= keys


def test_members_really_are_members():
    from p7c4.patterns import class_membership

    for cls in ("diamond-class", "kite-class", "gem-class"):
        for g in class_members(cls, 6):
            assert class_membership(g, cls).free
