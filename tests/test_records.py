"""The library's result records: immutable named tuples with their fields
in a fixed order, a `Name(field=value, ...)` repr, and JSON only through
`to_json` (a bare `json.dumps` of a tuple would emit a list). The one
mutable record, `verify.VerificationRun`, owns its violations list and
keeps its JSON key order.
"""

import json

import pytest

from p7c4.coloring import color_gem_class
from p7c4.families import petersen
from p7c4.graphs import cycle_graph, graph_stats, join_with_clique, path_graph
from p7c4.hole_lab import check_gem_properties, partition_around_hole
from p7c4.patterns import class_membership, find_induced_pattern
from p7c4.structure import (
    decompose_into_atoms,
    find_bisimplicial,
    find_clique_cutset,
    peel_universal_clique,
    recognize_clique_blowup,
    theorem_case,
)
from p7c4.verify import VerificationRun

FIELDS = {
    "GraphStats": ("omega", "chi", "delta", "connected"),
    "PatternWitness": ("pattern", "vertices"),
    "ClassCertificate": ("class_name", "free", "witness"),
    "CliqueCutsetSplit": ("cutset", "side_a", "side_b"),
    "AtomDecomposition": ("cuts", "last"),
    "BisimplicialCertificate": ("vertex", "clique1", "clique2"),
    "PeelResult": ("ell", "remainder"),
    "BlowupCertificate": ("base", "classes", "class_map"),
    "TheoremCase": ("kind", "peel", "blowup", "vertex", "budget", "detail"),
    "ColoringCertificate": ("assignment", "colors_used", "class_name", "claimed_bound", "trace"),
    "SevenHolePartition": ("hole", "mode", "X", "Y", "Z", "R", "unclassified"),
    "PropertyReport": ("property_id", "holds", "counterexample"),
}


def _records() -> list:
    hole = cycle_graph(7)
    part = partition_around_hole(hole, tuple(range(7)), "gem")
    return [
        graph_stats(cycle_graph(5)),
        find_induced_pattern(path_graph(7), "P7"),
        class_membership(path_graph(7), "gem-class"),
        find_clique_cutset(path_graph(4)),
        decompose_into_atoms(path_graph(4)),
        find_bisimplicial(path_graph(3)),
        peel_universal_clique(join_with_clique(petersen(), 2)),
        recognize_clique_blowup(petersen(), petersen()),
        theorem_case(path_graph(3), 0b111, "kite-class", 2),
        color_gem_class(cycle_graph(5)),
        part,
        check_gem_properties(hole, part)[0],
    ]


RECORDS = _records()


def test_every_record_is_covered():
    assert [type(r).__name__ for r in RECORDS] == list(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_a_frozen_named_tuple(record):
    name = type(record).__name__
    assert record._fields == FIELDS[name]
    assert record == tuple(getattr(record, f) for f in record._fields)
    for f in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("record", [r for r in RECORDS if hasattr(r, "to_json")], ids=lambda r: type(r).__name__)
def test_record_json_is_an_object(record):
    # the library emits records through to_json, never as the bare tuple,
    # which json.dumps would write as a list
    out = record.to_json()
    assert isinstance(out, dict) and json.loads(json.dumps(out)).keys() == out.keys()


def test_verification_runs_own_their_violations():
    a = VerificationRun(theorem="T1", corpus="x")
    b = VerificationRun(theorem="T3", corpus="y", total=2, vacuous=1)
    a.violations.append({"graph6": "Bw"})
    assert b.violations == [] and a.violations is not b.violations
    assert list(b.to_json()) == ["theorem", "corpus", "total", "members", "checked", "verified", "violated",
                                 "vacuous", "violations"]
    assert b.to_json() == {"theorem": "T3", "corpus": "y", "total": 2, "members": 0, "checked": 0, "verified": 0,
                           "violated": 0, "vacuous": 1, "violations": []}
    a.to_json()["violations"].clear()  # the JSON holds a copy of the list
    assert a.violations == [{"graph6": "Bw"}]
