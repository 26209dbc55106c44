import pytest

from p7c4.families import (
    g1,
    g2,
    g3,
    g4,
    g5,
    g6,
    generate,
    graph_f,
    petersen,
)
from p7c4.graphs import (
    GraphError,
    cycle_graph,
    exact_chromatic_number,
    isomorphic,
    max_clique_size,
    path_graph,
)
from p7c4.patterns import find_induced_pattern
from p7c4.structure import find_bisimplicial, find_clique_cutset, recognize_clique_blowup


def free_of(g, *patterns):
    return all(find_induced_pattern(g, p) is None for p in patterns)


def contains(g, *patterns):
    return all(find_induced_pattern(g, p) is not None for p in patterns)


def test_petersen_shape():
    p = petersen()
    assert (p.n, p.edge_count()) == (10, 15)
    assert set(p.degrees()) == {3}
    assert max_clique_size(p) == 2
    assert exact_chromatic_number(p) == 3
    assert free_of(p, "P7", "C4", "diamond", "kite", "gem", "hole(4)")
    assert find_induced_pattern(p, "hole(5)") is not None


def test_f_shape():
    f = graph_f()
    assert (f.n, f.edge_count()) == (10, 16)
    assert sorted(f.degrees()) == [3] * 8 + [4, 4]
    assert sorted(f.degrees()[7:]) == [3, 3, 3]  # each added vertex has degree 3
    assert max_clique_size(f) == 3
    assert exact_chromatic_number(f) == 3
    assert free_of(f, "C4", "diamond")
    # the literal construction is not P7-free: (0, 6, 9, 2, 3, 4, 8) is an induced P7
    assert contains(f, "P7")


def test_g1_shape():
    g = g1(2)
    assert g.n == 14 and g.min_degree() == 5 and max_clique_size(g) == 4
    assert free_of(g, "P7", "C4")
    assert contains(g, "diamond", "kite")
    assert isomorphic(g1(2), generate("blowup", base="C7", sizes=[2] * 7))
    with pytest.raises(GraphError):
        g1(1)


def test_g2_shape():
    g = g2([2] * 7)
    assert g.n == 14 and g.min_degree() == 4
    assert max_clique_size(g) == 2
    assert free_of(g, "P7", "diamond", "kite", "gem")
    assert contains(g, "C4")
    bigger = g2([2, 3, 2, 2, 2, 2, 2])
    assert bigger.n == 15
    with pytest.raises(GraphError):
        g2([2] * 6)
    with pytest.raises(GraphError):
        g2([1] + [2] * 6)


def test_g3_shape():
    g = g3()
    assert g.n == 13 and g.edge_count() == 20
    assert g.min_degree() == 3 and max_clique_size(g) == 2
    assert free_of(g, "C4", "diamond")
    assert contains(g, "P7")
    # exact attachments: a~{x2,x6}, b~{x3,x7}, c~{x1,x4}, d~{x1,x5}
    assert sorted(set(g.neighbors(7)) & set(range(7))) == [1, 5]
    assert sorted(set(g.neighbors(8)) & set(range(7))) == [2, 6]
    assert sorted(set(g.neighbors(9)) & set(range(7))) == [0, 3]
    assert sorted(set(g.neighbors(10)) & set(range(7))) == [0, 4]
    assert sorted(g.neighbors(11)) == [8, 10, 12]
    assert sorted(g.neighbors(12)) == [7, 9, 11]


def test_g4_shape():
    g = g4()
    assert g.n == 16 and set(g.degrees()) == {3}
    assert free_of(g, "C4", "kite")
    assert contains(g, "P7")
    assert sorted(g.neighbors(14)) == [1, 6, 12]   # t1 ~ {y2, y7, u5}
    assert sorted(g.neighbors(15)) == [2, 7, 10]   # t2 ~ {y3, y8, u3}
    assert not g.has_edge(14, 15)


def test_g5_shape():
    g = g5()
    assert g.n == 14 and g.edge_count() == 35
    for i in range(7):
        assert sorted(g.neighbors(7 + i)) == sorted(
            [i, (i + 3) % 7, (i + 4) % 7, 7 + (i + 3) % 7, 7 + (i + 4) % 7]
        )
    assert free_of(g, "C4")
    assert contains(g, "gem")
    # the literal construction is not P7-free: (0, 1, 8, 4, 3, 13, 9) is an induced P7
    assert contains(g, "P7")


def test_g6_shape():
    assert g6(1) == g3()
    g = g6(2)
    assert g.n == 26
    assert free_of(g, "C4", "gem")
    assert contains(g, "P7")
    with pytest.raises(GraphError):
        g6(0)


def test_necessity_conclusions():
    # every named example violates the conclusion of its targeted theorem
    for g in (g1(2), g2([2] * 7), g3()):
        assert g.is_connected() and find_clique_cutset(g) is None
        assert g.min_degree() > max(2, max_clique_size(g) - 1)  # T1 conclusion fails
    for g in (g2([2] * 7), g5(), g3(), g6(2)):
        assert find_bisimplicial(g) is None                      # T3 conclusion fails
        assert recognize_clique_blowup(g, petersen()) is None
    # T2 conclusion fails for G1, G2, G4: no peel reaches Petersen or F
    from p7c4.structure import peel_universal_clique

    for g in (g1(2), g2([2] * 7), g4()):
        assert peel_universal_clique(g).ell == 0 and g.n != 10


def test_generate_dispatch():
    assert generate("petersen") == petersen()
    assert generate("G1", t=2) == g1(2)
    assert generate("g2", sizes="2,2,2,2,2,2,2") == g2([2] * 7)
    assert generate("C", k=7) == cycle_graph(7)
    assert generate("P", k=4) == path_graph(4)
    assert generate("K", k=3).edge_count() == 3
    assert generate("blowup", base="Petersen", sizes=[2] * 10).n == 20
    assert generate("blowup", base=" Petersen ", sizes=[2] * 10) == generate("blowup", base="petersen", sizes=[2] * 10)
    with pytest.raises(GraphError):
        generate("H5")
    with pytest.raises(GraphError, match="parameter 't'"):
        generate("G1")  # missing t


@pytest.mark.parametrize("family, params, message", [
    ("K", {"k": 10**9}, "vertex count 1000000000 exceeds cap 512"),
    ("P", {"k": 10**9}, "vertex count 1000000000 exceeds cap 512"),
    ("C", {"k": 10**9}, "vertex count 1000000000 exceeds cap 512"),
    ("G1", {"t": 10**9}, "blowup exceeds vertex cap 512"),
    ("G6", {"t": 10**9}, "blowup exceeds vertex cap 512"),
    ("G2", {"sizes": [10**9] * 7}, "vertex count 7000000000 exceeds cap 512"),
    ("blowup", {"base": "C5", "sizes": [10**9] * 5}, "blowup exceeds vertex cap 512"),
])
def test_generators_check_the_vertex_cap_first(family, params, message):
    # each generator raises before it builds an edge or a class: built first,
    # a parameter of 10**9 would exhaust memory before the cap was checked
    with pytest.raises(GraphError, match=message):
        generate(family, **params)
