import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import c7_plus, diamond_negative_controls, gem_negative_controls
from p7c4.families import g5, graph_f, petersen
from p7c4.graphs import Graph, GraphError, clique_blowup, cycle_graph
from p7c4.hole_lab import (
    DIAMOND_PROPERTIES,
    GEM_PROPERTIES,
    PropertyReport,
    all_seven_holes,
    check_diamond_properties,
    check_gem_properties,
    partition_around_hole,
    recheck_counterexample,
)

HOLE = tuple(range(7))
BATTERIES = (("diamond", check_diamond_properties), ("gem", check_gem_properties))




def test_partition_plain_c7():
    part = partition_around_hole(cycle_graph(7), HOLE, "diamond")
    assert all(not s for s in part.X + part.Y + part.Z)
    assert not part.R and not part.unclassified


def test_partition_f_diamond_mode():
    part = partition_around_hole(graph_f(), HOLE, "diamond")
    assert [sorted(s) for s in part.Y[:3]] == [[7], [8], [9]]
    assert all(not s for s in part.Y[3:]) and all(not s for s in part.X)
    assert not part.R and not part.unclassified


def test_partition_g5_gem_mode():
    part = partition_around_hole(g5(), HOLE, "gem")
    assert [sorted(s) for s in part.Z] == [[7 + i] for i in range(7)]
    assert all(not s for s in part.X + part.Y)
    assert not part.R and not part.unclassified


def test_partition_classifies_r_and_unknown():
    # a pendant chain two steps away lands in R; a single-attachment vertex
    # fits no template
    g = Graph(9, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 8)])
    part = partition_around_hole(g, HOLE, "diamond")
    assert part.unclassified == {7}
    assert part.R == {8}


def test_partition_rejects_bad_holes():
    with pytest.raises(GraphError):
        partition_around_hole(cycle_graph(7), (0, 1, 2, 3, 4, 5, 5), "diamond")
    with pytest.raises(GraphError):
        partition_around_hole(cycle_graph(7), (0, 1, 2, 3, 5, 4, 6), "diamond")
    with pytest.raises(GraphError):
        partition_around_hole(cycle_graph(7), HOLE, "kite")
    g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
    with pytest.raises(GraphError):
        partition_around_hole(g, HOLE, "gem")


def test_mode_mismatch_rejected():
    part = partition_around_hole(cycle_graph(7), HOLE, "diamond")
    with pytest.raises(GraphError):
        check_gem_properties(cycle_graph(7), part)
    part = partition_around_hole(cycle_graph(7), HOLE, "gem")
    with pytest.raises(GraphError):
        check_diamond_properties(cycle_graph(7), part)


def test_vacuous_pass_on_c7():
    for mode, checker in BATTERIES:
        part = partition_around_hole(cycle_graph(7), HOLE, mode)
        assert all(r.holds for r in checker(cycle_graph(7), part))


def test_f_passes_all_diamond_properties():
    part = partition_around_hole(graph_f(), HOLE, "diamond")
    reports = check_diamond_properties(graph_f(), part)
    assert [r.property_id for r in reports] == list(DIAMOND_PROPERTIES)
    assert all(r.holds for r in reports)


def test_g5_fails_exactly_m9():
    part = partition_around_hole(g5(), HOLE, "gem")
    reports = check_gem_properties(g5(), part)
    assert [r.property_id for r in reports] == list(GEM_PROPERTIES)
    failing = [r for r in reports if not r.holds]
    assert [r.property_id for r in failing] == ["M9"]
    assert failing[0].counterexample == (7, 10)
    assert recheck_counterexample(g5(), part, failing[0])


def test_g5_blowup_also_fails_exactly_m9():
    blown = clique_blowup(g5(), [2] * 14)
    hole = tuple(sorted(c)[0] for c in
                 [range(2 * i, 2 * i + 2) for i in range(7)])
    part = partition_around_hole(blown, hole, "gem")
    failing = [r.property_id for r in check_gem_properties(blown, part) if not r.holds]
    assert failing == ["M9"]


@pytest.mark.parametrize("target,g", diamond_negative_controls())
def test_negative_controls_diamond(target, g):
    part = partition_around_hole(g, HOLE, "diamond")
    reports = {r.property_id: r for r in check_diamond_properties(g, part)}
    rep = reports[target]
    assert not rep.holds and rep.counterexample is not None
    assert recheck_counterexample(g, part, rep)


@pytest.mark.parametrize("target,g", gem_negative_controls())
def test_negative_controls_gem(target, g):
    part = partition_around_hole(g, HOLE, "gem")
    reports = {r.property_id: r for r in check_gem_properties(g, part)}
    rep = reports[target]
    assert not rep.holds and rep.counterexample is not None
    assert recheck_counterexample(g, part, rep)


def test_recheck_rejects_pairs_outside_the_rules():
    g = c7_plus({0, 3})  # vertex 7 is X_0 and every property holds
    for mode, checker in BATTERIES:
        part = partition_around_hole(g, HOLE, mode)
        assert all(r.holds for r in checker(g, part))
        for pid in ("NA-2", "M2"):
            assert not recheck_counterexample(g, part, PropertyReport(pid, False, (7, 7)))
        for pid in (*DIAMOND_PROPERTIES[1:], *GEM_PROPERTIES[1:]):
            assert not recheck_counterexample(g, part, PropertyReport(pid, False, (0, 1)))
    g = c7_plus({0, 3}, {2, 5})  # the NA-4 negative control
    part = partition_around_hole(g, HOLE, "diamond")
    na4 = {r.property_id: r for r in check_diamond_properties(g, part)}["NA-4"]
    assert recheck_counterexample(g, part, na4)
    assert not recheck_counterexample(g, part, PropertyReport("NA-5", False, na4.counterexample))


def test_recheck_confirms_coverage_of_one_vertex_only():
    # the chain 0-7-8 leaves vertex 7 unclassified: each battery's coverage
    # report is the 1-tuple (7,) and is confirmed, but a longer tuple that
    # starts with 7 is not
    g = c7_plus({0}, {7})
    for mode, checker in BATTERIES:
        part = partition_around_hole(g, HOLE, mode)
        coverage = checker(g, part)[0]
        assert coverage.counterexample == (7,) and recheck_counterexample(g, part, coverage)
        for ce in ((7, 3, 5), (7, 8), (7, 7)):
            assert not recheck_counterexample(g, part, PropertyReport(coverage.property_id, False, ce)), ce


def test_recheck_confirms_only_the_partitions_own_properties():
    # over every 7-hole of F and G5, each battery's failing reports are
    # confirmed on its own mode's partition, and every report of the other
    # mode's properties, for every vertex and pair, is refused
    for g in (graph_f(), g5()):
        for hole in all_seven_holes(g):
            for mode, checker in BATTERIES:
                part = partition_around_hole(g, hole, mode)
                assert all(recheck_counterexample(g, part, r) for r in checker(g, part) if not r.holds)
                other = GEM_PROPERTIES if mode == "diamond" else DIAMOND_PROPERTIES
                tuples = [(v,) for v in range(g.n)] + [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
                confirmed = [(pid, ce) for pid in other for ce in tuples
                             if recheck_counterexample(g, part, PropertyReport(pid, False, ce))]
                assert confirmed == [], (hole, mode)


def test_partition_covers_every_vertex(small_graphs):
    for g in small_graphs:
        holes = all_seven_holes(g)
        for hole in holes:
            for mode in ("diamond", "gem"):
                part = partition_around_hole(g, hole, mode)
                buckets = [set(hole), part.R, part.unclassified]
                buckets += [set(s) for s in part.X + part.Y + part.Z]
                covered = sorted(v for b in buckets for v in b)
                assert covered == list(range(g.n))  # each vertex exactly once


def test_all_seven_holes():
    assert all_seven_holes(cycle_graph(7)) == [(0, 1, 2, 3, 4, 5, 6)]
    assert all_seven_holes(petersen()) == []
    assert len(all_seven_holes(graph_f())) == 2
    blown = clique_blowup(cycle_graph(7), [2] * 7)
    assert len(all_seven_holes(blown)) == 2 ** 7


def _hole_centred_corpus():
    """3,000 graphs: C7 on 0..6 plus 2-6 vertices. Each new vertex sees one
    X/Y/Z template of the hole (probability 0.85) or else a random subset
    of it, and two new vertices are adjacent with probability 0.4."""
    rng = random.Random(13)
    templates = ((0, 3), (0, 3, 4), (0, 1, 2))
    corpus = []
    for _ in range(3000):
        k = rng.randint(2, 6)
        atts = []
        for _ in range(k):
            if rng.random() < 0.85:
                i = rng.randrange(7)
                atts.append({(i + a) % 7 for a in rng.choice(templates)})
            else:
                atts.append({a for a in range(7) if rng.random() < 0.3})
        extra = [(7 + a, 7 + b) for a, b in combinations(range(k), 2) if rng.random() < 0.4]
        corpus.append(c7_plus(*atts, extra_edges=extra))
    return corpus


# sha256 of the partition and report JSON of every corpus graph in both modes
HOLE_CENTRED_DIGEST = "e74cb434049a4e9377dfa83fee7a214256843a2a053c2e6c314ca5bec4a89307"


def test_battery_on_hole_centred_graphs():
    h = hashlib.sha256()
    failures = Counter()
    for g in _hole_centred_corpus():
        for mode, checker in BATTERIES:
            part = partition_around_hole(g, HOLE, mode)
            reports = checker(g, part)
            h.update(json.dumps([part.to_json(), [r.to_json() for r in reports]]).encode())
            for r in reports:
                if not r.holds:
                    failures[r.property_id] += 1
                    assert recheck_counterexample(g, part, r), (sorted(g.edges()), r)
    assert set(failures) == {*DIAMOND_PROPERTIES, *GEM_PROPERTIES}
    assert h.hexdigest() == HOLE_CENTRED_DIGEST
