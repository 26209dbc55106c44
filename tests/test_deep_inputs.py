"""Inputs at the vertex cap: atom trees and colorings that nest hundreds of
blocks deep must finish under the default recursion limit, and clique
blowups must be recognised about as fast as their base graphs."""

import json
import random
import sys
import tracemalloc

import pytest

from p7c4 import coloring
from p7c4.cli import cli_main
from p7c4.coloring import (color_diamond_class, color_gem_class, color_kite_class, replay_trace,
                           validate_certificate)
from p7c4.families import petersen
from p7c4.graphs import (Graph, clique_blowup, complete_graph, cycle_graph, empty_graph, find_isomorphism,
                         induced_subgraph, path_graph)
from p7c4.patterns import class_membership
from p7c4 import structure
from p7c4.structure import COLORING_BOUNDS, CliqueCutsetSplit, _mcsm as mcsm, _splits as splits, decompose_into_atoms, validate_split

from conftest import spider, windmill


def _validate_tree(g, tree) -> int:
    """validate_split on every split, re-based on its block, walked with a
    stack; returns the number of splits."""
    splits = 0
    covered = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.atom is not None:
            covered |= node.atom
            continue
        split = node.split
        block = sorted(split.cutset | split.side_a | split.side_b)
        local = {v: i for i, v in enumerate(block)}
        validate_split(induced_subgraph(g, block), CliqueCutsetSplit(
            *(frozenset(local[v] for v in part) for part in (split.cutset, split.side_a, split.side_b))
        ))
        splits += 1
        stack += (node.right, node.left)
    assert covered == set(range(g.n))
    return splits


def test_path_512_decomposes():
    g = path_graph(512)
    tree = decompose_into_atoms(g)
    assert _validate_tree(g, tree) == 510
    assert tree.leaves() == [frozenset({v, v + 1}) for v in range(510, -1, -1)]
    assert tree.depth() == 510


def test_path_512_tree_memory_is_linear():
    # 510 splits whose sides hold up to 511 vertices each: the tree must
    # not store them as sets (that took about 10 MB)
    g = path_graph(512)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = decompose_into_atoms(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.depth() == 510
    assert held < 2**20


def test_spider_511_decomposes_and_colors():
    g = spider(255)
    assert g.n == 511
    assert _validate_tree(g, decompose_into_atoms(g)) == 509
    for color in (color_diamond_class, color_kite_class, color_gem_class):
        cert = color(g)
        validate_certificate(g, cert)
        assert cert.colors_used == 2


def test_cap_size_splits_reuse_one_mcsm_order(monkeypatch):
    # decomposing and colouring a fresh copy each run MCS-M once and scan its
    # order once per connected block, not once per split, and colouring
    # splits only through structure: it scans the very block that
    # decomposing scans. Colouring the object decomposed first reads its
    # tree from the memo and runs neither. The path holds a P7, so it is
    # coloured past the membership test; every atom of either graph is an
    # edge, coloured in closed form
    mcsm_blocks, scan_blocks = [], []

    def counted(adj, block):
        mcsm_blocks.append(block)
        return mcsm(adj, block)

    def scanned(adj, block):
        scan_blocks.append(block)
        return splits(adj, block)

    monkeypatch.setattr(structure, "_mcsm", counted)
    monkeypatch.setattr(structure, "_splits", scanned)
    color = lambda g: coloring._color_member(g, "gem-class")
    for g in (spider(255), path_graph(512)):
        for run in (decompose_into_atoms, color):
            mcsm_blocks.clear()
            scan_blocks.clear()
            run(Graph._from_adj(g.n, g.adj))
            assert mcsm_blocks == scan_blocks == [g.full_mask()], run
        decompose_into_atoms(g)
        mcsm_blocks.clear()
        scan_blocks.clear()
        color(g)
        decompose_into_atoms(g)
        assert mcsm_blocks == scan_blocks == []


def test_cli_decompose_path_512(capsys):
    assert cli_main(["decompose", "--family", "P", "--param", "k=512"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "decompose" and "split" in out["result"]


@pytest.mark.parametrize("class_name", ["diamond-class", "kite-class", "gem-class"])
def test_clique_colors_within_bound(monkeypatch, class_name):
    # a clique is colored in closed form, without a theorem_case round or a
    # clique search per vertex; its trace is one clique-base step in every class
    calls = []
    for name in ("theorem_case", "_max_clique_size"):
        real = getattr(coloring, name)
        monkeypatch.setattr(coloring, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    g = complete_graph(150)
    color = {"diamond-class": color_diamond_class, "kite-class": color_kite_class, "gem-class": color_gem_class}
    cert = color[class_name](g)
    validate_certificate(g, cert)
    assert calls == []
    assert [s["step"] for s in cert.trace] == ["clique-base"]
    assert cert.colors_used == 150
    assert cert.claimed_bound == COLORING_BOUNDS[class_name.removesuffix("-class")](150)


@pytest.mark.parametrize("base, size", [(cycle_graph(7), 73), (petersen(), 51)])
def test_blowup_membership_at_the_cap(base, size):
    # each pattern search keeps one or two vertices per clique class, so a
    # 510-vertex blowup costs about what its base graph does
    g = clique_blowup(base, [size] * base.n)
    assert g.n in (510, 511)
    assert class_membership(g, "gem-class").free
    diamond = class_membership(g, "diamond-class").witness
    assert (diamond.pattern, diamond.vertices) == ("diamond", (0, size, size + 1, 2 * size))
    kite = class_membership(g, "kite-class").witness
    assert (kite.pattern, kite.vertices) == ("kite", (0, size, size + 1, 2 * size, 3 * size))


@pytest.mark.parametrize("g", [cycle_graph(511), path_graph(512), empty_graph(512)], ids=["C511", "P512", "E512"])
def test_isomorphism_at_the_cap(g):
    # the placement recurses once per vertex, so 512 levels must fit
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    iso = find_isomorphism(g, h)
    assert sorted(iso) == sorted(iso.values()) == list(range(g.n))
    assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges())


@pytest.mark.parametrize("g", [spider(255), windmill(255)], ids=["spider255", "windmill255"])
def test_cap_size_spines_color_and_replay(g):
    # 509 or 508 cutset merges on one right spine, under every class; the
    # trace replays after a JSON round trip, under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    for color in (color_diamond_class, color_kite_class, color_gem_class):
        cert = color(g)
        validate_certificate(g, cert)
        trace = json.loads(json.dumps(cert.to_json()))["trace"]
        assert list(replay_trace(trace).items()) == list(cert.assignment.items())


@pytest.mark.parametrize("g, merges", [(spider(255), 509), (windmill(255), 508)], ids=["spider255", "windmill255"])
def test_spine_merges_keep_the_larger_coloring(g, merges):
    # every merge writes its left coloring, an atom (an edge or a triangle),
    # into the right one's own dict: right stays on the stack as the same
    # object and gains exactly the left vertices outside the cutset, so the
    # merges write O(n) entries in all
    for color in (color_diamond_class, color_kite_class, color_gem_class):
        stack, seen = [], 0
        for step in color(g).trace:
            if step["step"] != "cutset-merge":
                coloring._apply(stack, step)
                continue
            left, right = stack[-2], stack[-1]
            before = len(right)
            coloring._apply(stack, step)
            assert len(left) <= 3 and stack[-1] is right and len(right) == before + len(left) - len(step["cutset"])
            seen += 1
        assert seen == merges and len(stack) == 1 and len(stack[0]) == g.n


TRIANGLES_170 = Graph(510, [(3 * i + a, 3 * i + b) for i in range(170) for a, b in ((0, 1), (0, 2), (1, 2))])


@pytest.mark.parametrize("g, colors, steps", [(empty_graph(512), 1, 1023), (TRIANGLES_170, 3, 339)],
                         ids=["E512", "170K3"])
def test_disconnected_inputs_at_the_cap(g, colors, steps):
    # one clique-base step per component and a merge over the empty cutset
    # between each two, under every class and the default recursion limit;
    # the trace replays after a JSON round trip
    assert sys.getrecursionlimit() <= 1000
    for color in (color_diamond_class, color_kite_class, color_gem_class):
        cert = color(g)
        validate_certificate(g, cert)
        assert (cert.colors_used, len(cert.trace)) == (colors, steps)
        trace = json.loads(json.dumps(cert.to_json()))["trace"]
        assert list(replay_trace(trace).items()) == list(cert.assignment.items())
