import ast
import inspect
import random
import sys
import threading
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p7c4.coloring as coloring
import p7c4.structure as structure
import p7c4.verify as verify
from p7c4.families import g2, g3, graph_f, petersen
from p7c4.graphs import (
    Graph,
    GraphError,
    clique_blowup,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_clique,
    isomorphic,
    join_with_clique,
    max_clique_size,
    path_graph,
)
from p7c4.enumerate import class_members, connected_graphs
from p7c4.patterns import class_membership, find_induced_pattern
from p7c4.structure import (
    CliqueCutsetSplit,
    _mcsm,
    _splits,
    decompose_into_atoms,
    find_bisimplicial,
    find_clique_cutset,
    peel_universal_clique,
    recognize_clique_blowup,
    recognize_fixed,
    split_into_two_cliques,
    theorem_case,
    validate_split,
)

from conftest import (
    brute_is_bisimplicial,
    has_clique_cutset_bruteforce,
    reference_decompose,
    reference_find_isomorphism,
    reference_mcsm,
    spider,
    windmill,
)


def test_cutset_examples():
    split = find_clique_cutset(path_graph(4))
    assert split is not None and len(split.cutset) == 1
    validate_split(path_graph(4), split)
    assert find_clique_cutset(cycle_graph(7)) is None
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    split = find_clique_cutset(diamond)
    assert split.cutset == {1, 2}
    assert {split.side_a, split.side_b} == {frozenset({0}), frozenset({3})}


@pytest.mark.parametrize("parts", [
    ({2, 3}, {0, 1}, {3}),  # the parts cover V, but 3 is listed twice
    ({2}, {0}, {0, 3}),     # the sizes sum to n, but 1 is missing
], ids=["repeated-vertex", "missing-vertex"])
def test_validate_split_needs_a_partition(parts):
    # each bad split passes one of the two partition checks, and every
    # later check, so each check must fail it on its own
    with pytest.raises(GraphError, match="partition"):
        validate_split(path_graph(4), CliqueCutsetSplit(*map(frozenset, parts)))


def test_cutset_requires_connected():
    with pytest.raises(GraphError):
        find_clique_cutset(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(GraphError):
        decompose_into_atoms(Graph(2))


def test_cutset_none_on_complete_and_small():
    for k in range(1, 6):
        assert find_clique_cutset(complete_graph(k)) is None
    assert find_clique_cutset(Graph(1)) is None


def test_cutset_agrees_with_bruteforce(connected_upto7):
    for g in connected_upto7:
        split = find_clique_cutset(g)
        assert (split is not None) == has_clique_cutset_bruteforce(g)
        if split is not None:
            validate_split(g, split)


@st.composite
def connected_graphs_strategy(draw, min_n=5, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(draw(st.sets(st.sampled_from(pairs))))
    edges |= {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(connected_graphs_strategy())
def test_cutset_agrees_with_bruteforce_random(g):
    split = find_clique_cutset(g)
    assert (split is not None) == has_clique_cutset_bruteforce(g)
    if split is not None:
        validate_split(g, split)


def test_decompose_examples():
    assert decompose_into_atoms(cycle_graph(7)).leaves() == [frozenset(range(7))]
    leaves = decompose_into_atoms(path_graph(5)).leaves()
    assert all(len(a) == 2 for a in leaves)
    assert frozenset().union(*leaves) == set(range(5))


def test_decompose_leaves_are_atoms(connected_upto7):
    for g in connected_upto7:
        tree = decompose_into_atoms(g)
        leaves = tree.leaves()
        assert frozenset().union(*leaves) == set(range(g.n))
        for atom in leaves:
            sub = induced_subgraph(g, sorted(atom))
            assert not has_clique_cutset_bruteforce(sub)


def test_decompose_children_cover_split():
    g = path_graph(4)
    tree = decompose_into_atoms(g)
    assert tree.split is not None
    left_vertices = frozenset().union(*tree.left.leaves())
    right_vertices = frozenset().union(*tree.right.leaves())
    assert left_vertices == tree.split.side_a | tree.split.cutset
    assert right_vertices == tree.split.side_b | tree.split.cutset
    assert tree.depth() >= 1


def test_decomposition_is_kept_by_the_graph(monkeypatch):
    # the first call fills the memo; every later call on the object returns
    # that very tree and the colourer reads it, so a graph decomposed and
    # coloured runs MCS-M on its full vertex mask once (C7 runs it again on
    # the rest after an elimination)
    runs = []
    real = structure._mcsm
    monkeypatch.setattr(structure, "_mcsm", lambda adj, block: runs.append(block) or real(adj, block))
    for g in (path_graph(6), cycle_graph(7), petersen.__wrapped__()):
        runs.clear()
        assert g._atoms is None
        tree = decompose_into_atoms(g)
        assert g._atoms is tree and decompose_into_atoms(g) is tree
        coloring.color_gem_class(g)
        assert g._atoms is tree and runs.count(g.full_mask()) == 1
        assert find_clique_cutset(g) == tree.split and (tree.split is None) == (g.n != 6)


def test_equal_graphs_keep_separate_decompositions():
    a, b = (spider(5) for _ in range(2))
    tree = decompose_into_atoms(a)
    assert a._atoms is tree and b._atoms is None
    assert a == b and hash(a) == hash(b)  # the memo is no part of equality
    other = decompose_into_atoms(b)
    assert other == tree and other is not tree and a._atoms is tree


def test_disconnected_graph_is_never_decomposed():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    for _ in range(2):
        for search in (decompose_into_atoms, find_clique_cutset):
            with pytest.raises(GraphError):
                search(g)
        assert g._atoms is None


def test_threads_sharing_graphs_get_the_one_decomposition(connected_upto7):
    # threads race to fill the memo of the same graphs; a race may cost a
    # second scan, but every tree returned and every tree kept must be the
    # one a fresh copy gives
    graphs = [Graph._from_adj(g.n, g.adj) for g in connected_upto7 if g.n >= 5][::3] + [spider(40)]
    truth = [decompose_into_atoms(Graph._from_adj(g.n, g.adj)) for g in graphs]
    wrong = []

    def ask(start):
        for g, want in [*zip(graphs, truth)][start:] + [*zip(graphs, truth)][:start]:
            if decompose_into_atoms(g) != want:
                wrong.append(g.adj)

    workers = [threading.Thread(target=ask, args=(start,)) for start in (0, 0, 1, 2)]
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
    assert [g._atoms for g in graphs] == truth


def test_decomposition_is_the_scan_as_a_spine(connected_upto7):
    # the decomposition holds the splits of one scan, top split first: the
    # right walk from the root passes depth() splits, each left child is the
    # atom side_a | cutset, and leaves() lists those atoms, then the bottom one
    for g in [*connected_upto7, path_graph(512), spider(255)]:
        tree = decompose_into_atoms(g)
        assert tree.cuts == tuple(_splits(g.adj, g.full_mask())), g
        node, atoms = tree, []
        while node.split is not None:
            split = node.split
            assert node.atom is None and node.left.split is None, g
            assert node.left.atom == split.side_a | split.cutset, g
            atoms.append(node.left.atom)
            node = node.right
        assert len(atoms) == tree.depth() and node.atom is not None, g
        assert tree.leaves() == atoms + [node.atom] and len(tree.leaves()) == tree.depth() + 1, g


def _reference_cases():
    yield from (path_graph(k) for k in range(1, 41))
    yield from (cycle_graph(k) for k in range(3, 41))
    yield from (spider(k) for k in range(1, 41))
    yield from (windmill(k) for k in range(1, 41))
    for sizes in ([1] * 7, [2] * 7, [1, 2, 3, 1, 2, 3, 4], [3, 1, 1, 2, 1, 1, 2]):
        yield clique_blowup(cycle_graph(7), sizes)
    for sizes in ([1] * 10, [2] * 10, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1], [3, 1, 1, 1, 2, 1, 1, 1, 1, 2]):
        yield clique_blowup(petersen(), sizes)


def _check_spine(adj, block) -> tuple[int, int]:
    """Walk the splits of one scan as decompose_into_atoms does and check
    Tarjan's theorem for minimal orderings at each (side_a | cutset has no
    clique cutset) and that the split was made at the last vertex of side_a
    in sigma, so the scan met no vertex it had cut off. Returns the numbers
    of splits whose side_a is a prefix of the order scanned in their block
    (sigma without the earlier side_a's) and of those whose side_a is not."""
    counts = [0, 0]
    sigma, fill = _mcsm(adj, block)
    for cut, side_a, side_b in _splits(adj, block):
        assert next(_splits(adj, side_a | cut), None) is None, adj
        scanned = [u for u in sigma if block >> u & 1]
        counts[any(not side_a >> u & 1 for u in scanned[:side_a.bit_count()])] += 1
        k = max(k for k, u in enumerate(sigma) if side_a >> u & 1)
        assert fill[sigma[k]] & block & sum(1 << u for u in sigma[k + 1:]) == cut, adj
        block = side_b | cut
    return tuple(counts)


def test_mcsm_and_atoms_match_reference(connected_upto7):
    # the bucket queue and the pruned search give the reference ordering and
    # fill, and the one-pass scan the split tree of the reference's fresh
    # scan of every block, whether side_a is a prefix of the scanned order
    # or not
    counts = [0, 0]
    for g in [*connected_upto7, *_reference_cases()]:
        assert _mcsm(g.adj, g.full_mask()) == reference_mcsm(g), g
        assert decompose_into_atoms(g).to_json() == reference_decompose(g), g
        prefix, other = _check_spine(g.adj, g.full_mask())
        counts[0] += prefix
        counts[1] += other
    assert counts[0] > 0 and counts[1] > 0, counts


def test_first_split_of_the_scan_is_the_cutset_search(connected_upto7):
    # find_clique_cutset and decompose_into_atoms read the same scan: no
    # cutset exactly when the tree is one atom, else the root's split
    for g in [*connected_upto7, *_reference_cases()]:
        split = find_clique_cutset(g)
        tree = decompose_into_atoms(g).to_json()
        if split is None:
            assert "atom" in tree, g
        else:
            assert split.to_json() == tree["split"], g


def _labellings(max_n: int):
    """Every distinct labelling of every connected graph on 2..max_n vertices."""
    for n in range(2, max_n + 1):
        for g in connected_graphs(n):
            seen = set()
            for perm in permutations(range(n)):
                h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                if h.adj not in seen:
                    seen.add(h.adj)
                    yield h


def test_atoms_match_reference_on_every_labelling():
    # relabelling moves side_a off the front of the scanned order on some
    # splits; the tree still matches the reference's fresh scans
    counts = [0, 0]
    for h in _labellings(5):
        assert decompose_into_atoms(h).to_json() == reference_decompose(h), h
        prefix, other = _check_spine(h.adj, h.full_mask())
        counts[0] += prefix
        counts[1] += other
    assert counts[0] > 0 and counts[1] > 0, counts


def test_spine_checks_hold_on_every_labelling():
    # _check_spine on every labelling of every connected graph on up to 6
    # vertices
    assert sum(sum(_check_spine(h.adj, h.full_mask())) for h in _labellings(6)) == 60055


def _glued_graph(rng, pieces):
    """A connected graph glued from cliques, cycles and trees along clique
    separators, with its labels shuffled."""
    edges = set()
    n = 1
    for _ in range(pieces):
        kind, k = rng.choice(("clique", "cycle", "tree")), rng.randint(2, 6)
        if kind == "cycle":
            k = max(k, 4)
            local = [(i, (i + 1) % k) for i in range(k)]
        elif kind == "tree":
            local = [(rng.randrange(i), i) for i in range(1, k)]
        else:
            local = list(combinations(range(k), 2))
        # glue the piece's vertex 0, or its edge 0-1, onto a vertex or an
        # edge of the graph built so far
        glue = [rng.randrange(n)]
        if rng.random() < 0.5:
            near = [u for u in range(n) if (min(u, glue[0]), max(u, glue[0])) in edges]
            if near:
                glue.append(rng.choice(near))
        names = glue + list(range(n, n + k - len(glue)))
        edges |= {tuple(sorted((names[u], names[v]))) for u, v in local}
        n += k - len(glue)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_glued_graphs_match_reference_decomposition():
    # shuffled labels make side_a a non-prefix of the scanned order on some
    # splits
    rng = random.Random(20230919)
    counts = [0, 0]
    for _ in range(150):
        g = _glued_graph(rng, rng.randint(2, 6))
        assert decompose_into_atoms(g).to_json() == reference_decompose(g), g
        prefix, other = _check_spine(g.adj, g.full_mask())
        counts[0] += prefix
        counts[1] += other
    assert counts[0] > 0 and counts[1] > 0, counts


def test_g3_is_a_single_atom():
    # G3 is 2-connected and triangle-free with no clique separator at all
    tree = decompose_into_atoms(g3())
    assert tree.leaves() == [frozenset(range(13))]


def test_bisimplicial_examples():
    cert = find_bisimplicial(cycle_graph(7))
    assert cert.vertex == 0
    assert {cert.clique1, cert.clique2} == {frozenset({1}), frozenset({6})}
    assert find_bisimplicial(petersen()) is None
    lone = find_bisimplicial(Graph(1))
    assert lone.vertex == 0 and not lone.clique1 and not lone.clique2


def test_bisimplicial_on_gem_class_hole_member():
    # a 7-hole plus one consecutive-triple vertex is a gem-class member with
    # empty Z, and some hole vertex anticomplete to X is bisimplicial
    g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 1), (7, 2)])
    assert class_membership(g, "gem").free
    cert = find_bisimplicial(g)
    assert cert is not None
    for clique in (cert.clique1, cert.clique2):
        assert all(g.has_edge(u, v) for u, v in combinations(sorted(clique), 2))
    assert cert.clique1 | cert.clique2 == set(g.neighbors(cert.vertex))


def test_bisimplicial_matches_bruteforce(small_graphs):
    from p7c4.enumerate import all_graphs

    for g in small_graphs + list(all_graphs(7)):
        got = find_bisimplicial(g)
        expected = [v for v in range(g.n) if brute_is_bisimplicial(g, v)]
        if expected:
            assert got is not None and got.vertex == expected[0]
            assert got.clique1 | got.clique2 == set(g.neighbors(got.vertex))
        else:
            assert got is None


def test_split_into_two_cliques_rejects_odd_structures():
    c5 = cycle_graph(5)
    assert split_into_two_cliques(c5, frozenset(range(5))) is None
    assert split_into_two_cliques(c5, frozenset({0, 1})) is not None


def test_vertex_sets_out_of_range_raise():
    c5 = cycle_graph(5)
    for bad in ({99}, {-1, 0}, {5}):
        with pytest.raises(GraphError):
            split_into_two_cliques(c5, frozenset(bad))
        with pytest.raises(GraphError):
            is_clique(c5, sorted(bad))


def test_peel_examples():
    assert peel_universal_clique(complete_graph(5)) .ell == 5
    assert peel_universal_clique(complete_graph(5)).remainder == frozenset()
    assert peel_universal_clique(petersen()).ell == 0
    joined = join_with_clique(graph_f(), 3)
    peel = peel_universal_clique(joined)
    assert peel.ell == 3
    assert isomorphic(induced_subgraph(joined, sorted(peel.remainder)), graph_f())


def test_peel_remainder_has_no_universal(small_graphs):
    for g in small_graphs:
        peel = peel_universal_clique(g)
        if peel.remainder:
            rem = induced_subgraph(g, sorted(peel.remainder))
            assert peel_universal_clique(rem).ell == 0


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_peel_recovers_join(ell):
    base = petersen()  # no universal vertex
    joined = join_with_clique(base, ell)
    peel = peel_universal_clique(joined)
    assert peel.ell == ell
    if ell:
        assert isomorphic(induced_subgraph(joined, sorted(peel.remainder)), base)


def test_blowup_recognition_roundtrip():
    p = petersen()
    for sizes in ([3] * 10, [1] * 10, [2, 1, 1, 3, 1, 1, 2, 1, 1, 1]):
        g = clique_blowup(p, sizes)
        cert = recognize_clique_blowup(g, p)
        assert cert is not None
        assert sorted(cert.weights()) == sorted(sizes)
        # classes partition the vertex set into cliques matching base adjacency
        assert sorted(v for c in cert.classes for v in c) == list(range(g.n))
    assert recognize_clique_blowup(graph_f(), p) is None
    assert recognize_clique_blowup(cycle_graph(7), p) is None


def test_blowup_certificates_match_the_reference_isomorphism(monkeypatch):
    # seeded, relabelled clique blowups: the certificate, its base map
    # included, is the one the reference isomorphism search gives
    rng = random.Random(28)
    cases = []
    for base in (cycle_graph(5), cycle_graph(7), petersen(), g3()):
        for _ in range(20):
            g = clique_blowup(base, [rng.randint(1, 3) for _ in range(base.n)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            cases.append((Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), base))
    got = [recognize_clique_blowup(g, base).to_json() for g, base in cases]
    monkeypatch.setattr(structure, "find_isomorphism", reference_find_isomorphism)
    assert got == [recognize_clique_blowup(g, base).to_json() for g, base in cases]


def test_blowup_rejects_twin_base():
    with pytest.raises(GraphError):
        recognize_clique_blowup(complete_graph(4), complete_graph(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=10))
def test_blowup_roundtrip_total_up_to_30(sizes):
    p = petersen()
    g = clique_blowup(p, sizes)
    cert = recognize_clique_blowup(g, p)
    assert cert is not None
    assert sorted(cert.weights()) == sorted(sizes)


def test_recognize_fixed():
    perm = [9, 4, 7, 0, 2, 5, 8, 1, 3, 6]
    p = petersen()
    shuffled = Graph(10, [(perm[u], perm[v]) for u, v in p.edges()])
    assert recognize_fixed(shuffled) == "Petersen"
    f = graph_f()
    shuffled_f = Graph(10, [(perm[u], perm[v]) for u, v in f.edges()])
    assert recognize_fixed(shuffled_f) == "F"
    assert recognize_fixed(cycle_graph(7)) is None
    assert recognize_fixed(complete_graph(10)) is None


def _maps_petersen_onto(g, cert, vertices) -> bool:
    """cert has single-vertex classes, which class_map sends onto vertices
    of g edge for edge from the Petersen graph."""
    p = petersen()
    if any(len(c) != 1 for c in cert.classes):
        return False
    iso = {v: min(cert.classes[i]) for v, i in cert.class_map.items()}
    return set(iso.values()) == set(vertices) and all(
        p.has_edge(u, v) == g.has_edge(iso[u], iso[v]) for u in range(10) for v in range(10))


def test_theorem_case_outcomes():
    def case(g, cls):
        return theorem_case(g, g.full_mask(), cls, max_clique_size(g))

    p = petersen()
    for cls in ("diamond-class", "kite-class"):
        got = case(p, cls)
        assert got.kind == "petersen" and _maps_petersen_onto(p, got.blowup, range(10))
    # K_ell joined to the Petersen graph: test_kite_verdict_on_petersen_joined_to_a_clique
    got = case(complete_graph(4), "kite")
    assert (got.kind, got.vertex, got.peel.ell) == ("eliminate", 0, 4)
    got = case(clique_blowup(p, [2] + [1] * 9), "gem-class")
    assert got.kind == "petersen" and got.peel is None and got.blowup.weights()[0] == 2
    # C7: delta 2 is under every class bound at omega 2
    for cls, budget in (("diamond-class", 3), ("kite-class", 3), ("gem-class", 3)):
        got = case(cycle_graph(7), cls)
        assert (got.kind, got.vertex, got.budget) == ("eliminate", 0, budget)
    # G2 is no class member; it satisfies no theorem case
    for cls in ("diamond-class", "kite-class", "gem-class"):
        got = case(g2([2] * 7), cls)
        assert got.kind == "contradiction" and got.detail
    with pytest.raises(GraphError):
        case(p, "bull-class")


def test_doubling_a_petersen_vertex_leaves_the_diamond_and_kite_classes():
    # so in a diamond- or kite-class member every Petersen blowup is the
    # Petersen graph, and one blowup test finds the core in every class
    p = petersen()
    for v in range(10):
        g = clique_blowup(p, [2 if u == v else 1 for u in range(10)])
        assert find_induced_pattern(g, "diamond") is not None and find_induced_pattern(g, "kite") is not None
        assert class_membership(g, "gem-class").free


@pytest.mark.parametrize("ell", range(4))
def test_kite_verdict_on_petersen_joined_to_a_clique(ell):
    g = join_with_clique(petersen(), ell)
    got = theorem_case(g, g.full_mask(), "kite-class", max_clique_size(g))
    assert got.kind == "petersen" and got.peel.ell == ell
    assert _maps_petersen_onto(g, got.blowup, range(10))


@pytest.mark.parametrize("cls", ["diamond-class", "kite-class", "gem-class"])
def test_every_class_eliminates_the_lowest_vertex_of_a_clique(cls):
    for k in range(1, 13):
        got = theorem_case(complete_graph(k), (1 << k) - 1, cls, k)
        assert (got.kind, got.vertex) == ("eliminate", 0) and k <= got.budget


THEOREM_KINDS = {"petersen", "eliminate", "contradiction"}


def test_theorem_case_kinds_are_pinned():
    # theorem_case makes exactly THEOREM_KINDS, and coloring and verify
    # compare case.kind only against them, so a new verdict fails here
    made = set()
    for node in ast.walk(ast.parse(inspect.getsource(structure.theorem_case))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TheoremCase":
            made |= {c.value for c in ast.walk(node.args[0]) if isinstance(c, ast.Constant)}
    assert made == THEOREM_KINDS
    compared = set()
    for module in (coloring, verify):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
                    and node.left.attr == "kind" and getattr(node.left.value, "id", None) == "case"):
                compared |= {c.value for other in node.comparators for c in ast.walk(other)
                             if isinstance(c, ast.Constant)}
    assert compared and compared <= THEOREM_KINDS


def test_theorem_case_rejects_bad_blocks():
    # an empty block, or one with a bit at or above n, is no vertex set of g
    p = petersen()
    for block in (0, 1 << 10, p.full_mask() | 1 << 10, -1):
        with pytest.raises(GraphError, match="not a nonempty set"):
            theorem_case(p, block, "diamond", 1)


def _shuffled_with_pendant(g):
    """g plus one vertex adjacent to g's vertex 0, under a fixed shuffle of
    the vertices, so that g's block holds scattered labels."""
    n = g.n + 1
    perm = random.Random(n).sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in [*g.edges(), (0, g.n)]])


def _case_summary(case, label):
    """Everything a TheoremCase says, with each vertex passed through label."""
    return (
        case.kind,
        None if case.vertex is None else label(case.vertex),
        case.budget,
        None if case.peel is None else (case.peel.ell, {label(v) for v in case.peel.remainder}),
        None if case.blowup is None else ([{label(v) for v in c} for c in case.blowup.classes],
                                          case.blowup.class_map),
        case.detail,
    )


def test_theorem_case_on_blocks_matches_relabelled_subgraphs():
    # every proper atom of a member (or of an exceptional graph with a
    # pendant vertex) is a connected cutset-free block; the verdict on the
    # block must be the verdict on its relabelled subgraph, in g's labels
    p = petersen()
    exceptional = [p, join_with_clique(p, 1), join_with_clique(p, 3),
                   clique_blowup(p, [2] + [1] * 9), clique_blowup(p, [1, 3, 1, 2, 1, 1, 1, 1, 2, 1])]
    inputs = [(g, cls) for cls in ("diamond-class", "kite-class", "gem-class")
              for n in range(1, 9) for g in class_members(cls, n) if g.is_connected()]
    inputs += [(_shuffled_with_pendant(g), cls) for g in exceptional
               for cls in ("diamond-class", "kite-class", "gem-class")]
    kinds = set()
    for g, cls in inputs:
        for atom in decompose_into_atoms(g).leaves():
            if len(atom) == g.n:
                continue
            labels = sorted(atom)
            block = sum(1 << v for v in labels)
            sub = induced_subgraph(g, labels)
            omega = max_clique_size(sub)
            got = theorem_case(g, block, cls, omega)
            want = theorem_case(sub, sub.full_mask(), cls, omega)
            assert _case_summary(got, lambda v: v) == _case_summary(want, labels.__getitem__), (g, atom, cls)
            kinds.add((got.kind, bool(got.peel and got.peel.ell), got.blowup and max(got.blowup.weights())))
    # the exceptional graphs go to every class, so non-members contradict;
    # the Petersen core comes alone, joined to a clique (kite) and blown up (gem)
    assert {kind for kind, _, _ in kinds} == {"petersen", "eliminate", "contradiction"}
    assert {("petersen", False, 1), ("petersen", True, 1), ("petersen", False, 3)} <= kinds
