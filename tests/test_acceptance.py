"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 6 contains one deliberately failing leg: the G5 construction is
not (P7,C4)-free as claimed of it (it contains the induced P7
(0, 1, 8, 4, 3, 13, 9), i.e. z1 z2 a2 z5 z4 a7 a3); that assertion is
implemented faithfully rather than weakened, so it stays red.
"""

import time
from itertools import combinations

from p7c4.coloring import (
    color_diamond_class,
    color_gem_class,
    color_kite_class,
    color_petersen_blowup,
    validate_certificate,
)
from p7c4.enumerate import all_graphs, class_members, connected_graphs
from p7c4.families import g1, g2, g3, g4, g5, g6, graph_f, petersen
from p7c4.graphs import (
    Graph,
    clique_blowup,
    cycle_graph,
    exact_chromatic_number,
    induced_subgraph,
    isomorphic,
    max_clique_size,
    path_graph,
)
from p7c4.hole_lab import (
    all_seven_holes,
    check_diamond_properties,
    check_gem_properties,
    partition_around_hole,
    recheck_counterexample,
)
from p7c4.patterns import class_membership, find_induced_pattern, pattern_graph
from p7c4.structure import (
    find_bisimplicial,
    find_clique_cutset,
    peel_universal_clique,
    recognize_clique_blowup,
    recognize_fixed,
)
from p7c4.verify import standard_blowup_corpus, verify_corpus

from conftest import diamond_negative_controls, gem_negative_controls

CLASSES = {
    "diamond-class": (color_diamond_class, lambda w: max(3, w)),
    "kite-class": (color_kite_class, lambda w: w + 1),
    "gem-class": (color_gem_class, lambda w: 2 * w - 1),
}

PATTERNS = ("P7", "C4", "C7", "diamond", "kite", "gem", "bull", "hole(5)", "hole(6)")


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_detector_oracle_equivalence():
    """Every detector agrees with subset brute force on all graphs n <= 7."""
    t0 = time.time()
    # copies with empty absence memos, so that every query runs its search
    # whichever tests ran before on the shared all_graphs objects
    corpus = [Graph._from_adj(g.n, g.adj) for n in range(1, 8) for g in all_graphs(n)]
    assert len(all_graphs(7)) == 1044
    mismatches = 0
    for g in corpus:
        for pattern in PATTERNS:
            pat = pattern_graph(pattern)
            witness = find_induced_pattern(g, pattern)
            brute = g.n >= pat.n and any(
                isomorphic(induced_subgraph(g, sub), pat)
                for sub in combinations(range(g.n), pat.n)
            )
            if (witness is not None) != brute:
                mismatches += 1
            if witness is not None and not isomorphic(
                induced_subgraph(g, witness.vertices), pat
            ):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0
    _line(1, ok, f"{len(corpus)} graphs (1044 at n=7) x {len(PATTERNS)} patterns, "
                 f"{mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_2_theorem_1_exhaustive():
    """T1 over all connected graphs n <= 8: zero violations, nonvacuous."""
    corpus = [g for n in range(1, 9) for g in connected_graphs(n)]
    run = verify_corpus(corpus, "T1", corpus="exhaustive connected n<=8")
    ok = run.violated == 0 and run.checked > 0 and run.members > 0
    _line(2, ok, f"total {run.total}, members {run.members}, "
                 f"non-vacuous {run.checked}, verified {run.verified}, violated {run.violated}")
    assert run.violated == 0
    assert run.checked > 0 and run.members > 0


def test_criterion_3_theorems_2_3_exhaustive_and_blowups():
    """T2 and T3 over connected n <= 8 plus Petersen/G5 blowups <= 20."""
    corpus = [g for n in range(1, 9) for g in connected_graphs(n)]
    blowups = standard_blowup_corpus("Petersen", 20) + standard_blowup_corpus("G5", 20)
    details = []
    all_ok = True
    for thm in ("T2", "T3"):
        run = verify_corpus(corpus + blowups, thm, corpus="n<=8 + blowups<=20")
        details.append(f"{thm}: checked {run.checked}, violated {run.violated}")
        all_ok &= run.violated == 0
        assert run.violated == 0, run.violations
    _line(3, all_ok, f"{len(corpus)} exhaustive + {len(blowups)} blowups; " + "; ".join(details))


def _family_instances():
    out = [
        ("Petersen", petersen()),
        ("F", graph_f()),
        ("G1(2)", g1(2)),
        ("G2(2^7)", g2([2] * 7)),
        ("G3", g3()),
        ("G4", g4()),
        ("G5", g5()),
        ("G6(1)", g6(1)),
        ("G6(2)", g6(2)),
        ("C7", cycle_graph(7)),
        ("P7", path_graph(7)),
        ("blowup(G5,2^14)", clique_blowup(g5(), [2] * 14)),
    ]
    out += [(f"blowup({base}) #{i}", g) for base in ("Petersen", "G5")
            for i, g in enumerate(standard_blowup_corpus(base, 20))]
    return [(label, g) for label, g in out if g.n <= 30]


def test_criterion_4_corollary_bounds():
    """Certified colorings: proper, within bound, and never under oracle chi,
    for all class members n <= 9 and all generated instances n <= 30."""
    colored = 0
    oracle_checked = 0
    quality = {}
    for cls, (colorer, bound_fn) in CLASSES.items():
        used = above_chi = 0
        for n in range(1, 10):
            for g in class_members(cls, n):
                cert = colorer(g)
                validate_certificate(g, cert)
                assert cert.claimed_bound == bound_fn(max_clique_size(g))
                chi = exact_chromatic_number(g)
                assert chi <= cert.colors_used <= cert.claimed_bound
                used += cert.colors_used
                above_chi += cert.colors_used > chi
                colored += 1
                oracle_checked += 1
        quality[cls] = (used, above_chi)
    # colors in all and members colored above chi: a change to the merge or
    # elimination rules that moves either must re-pin it knowingly
    assert quality == {"diamond-class": (6722, 0), "kite-class": (18951, 0), "gem-class": (28521, 77)}
    for label, g in _family_instances():
        for cls, (colorer, bound_fn) in CLASSES.items():
            if not class_membership(g, cls).free:
                continue
            cert = colorer(g)
            validate_certificate(g, cert)
            assert cert.claimed_bound == bound_fn(max_clique_size(g)), label
            assert cert.colors_used <= cert.claimed_bound, label
            colored += 1
            if g.n <= 16:
                assert exact_chromatic_number(g) <= cert.colors_used, label
                oracle_checked += 1
    _line(4, True, f"{colored} certificates validated, {oracle_checked} compared with the exact oracle")


def test_criterion_5_named_values():
    """chi/omega of the two fixed graphs; the doubled Petersen blowup needs
    exactly 5 = ceil(5*omega/4) colors."""
    p = petersen()
    f = graph_f()
    values = (
        exact_chromatic_number(p),
        max_clique_size(p),
        exact_chromatic_number(f),
        max_clique_size(f),
    )
    doubled = clique_blowup(p, [2] * 10)
    cert = color_petersen_blowup(recognize_clique_blowup(doubled, p))
    ok = values == (3, 2, 3, 3) and cert.colors_used == 5 and cert.claimed_bound == 5
    _line(5, ok, f"chi/omega(Petersen)={values[0]}/{values[1]}, chi/omega(F)={values[2]}/{values[3]}, "
                 f"doubled blowup colors={cert.colors_used}, ceil(5w/4)={cert.claimed_bound}")
    assert values == (3, 2, 3, 3)
    assert cert.colors_used == 5 and cert.claimed_bound == 5


# necessity table: name, graph, patterns the paper claims absent, and for
# each targeted theorem the single hypothesis pattern identified as present
_NECESSITY = [
    ("G1(2)", g1(2), ("P7", "C4"), {"T1": "diamond", "T2": "kite"}),
    ("G2(2^7)", g2([2] * 7), ("P7", "diamond", "kite", "gem"),
     {"T1": "C4", "T2": "C4", "T3": "C4"}),
    ("G3", g3(), ("C4", "diamond"), {"T1": "P7"}),
    ("G4", g4(), ("C4", "kite"), {"T2": "P7"}),
    ("G6(1)", g6(1), ("C4", "gem"), {"T3": "P7"}),
    ("G6(2)", g6(2), ("C4", "gem"), {"T3": "P7"}),
]

_THEOREM_PATTERNS = {"T1": "diamond", "T2": "kite", "T3": "gem"}


def _violates_conclusion(g, theorem):
    if theorem == "T1":
        return g.min_degree() > max(2, max_clique_size(g) - 1)
    if theorem == "T2":
        peel = peel_universal_clique(g)
        if not peel.remainder:
            return False
        rem = induced_subgraph(g, sorted(peel.remainder))
        return recognize_fixed(rem) is None
    bis = find_bisimplicial(g)
    return bis is None and recognize_clique_blowup(g, petersen()) is None


def test_criterion_6_necessity_suite():
    """Freeness, conclusion violation, and exactly-one-missing-pattern for
    the necessity examples (the defective G5 leg is tested separately)."""
    failures = []
    for name, g, absent, targets in _NECESSITY:
        for pat in absent:
            if find_induced_pattern(g, pat) is not None:
                failures.append(f"{name} not {pat}-free")
        if not (g.is_connected() and find_clique_cutset(g) is None):
            failures.append(f"{name} has a cutset or is disconnected")
        for thm, identified in targets.items():
            if not _violates_conclusion(g, thm):
                failures.append(f"{name} does not violate {thm}'s conclusion")
            triple = {"P7", "C4", _THEOREM_PATTERNS[thm]}
            found = {p for p in triple if find_induced_pattern(g, p) is not None}
            if found != {identified}:
                failures.append(
                    f"{name}/{thm}: present patterns {sorted(found)}, expected only {identified}"
                )
    # G5's attainable assertions: it does violate T3's conclusion while
    # being C4-free, connected and cutset-free
    G5 = g5()
    if find_induced_pattern(G5, "C4") is not None:
        failures.append("G5 not C4-free")
    if find_induced_pattern(G5, "gem") is None:
        failures.append("G5 lacks a gem")
    if not _violates_conclusion(G5, "T3"):
        failures.append("G5 does not violate T3's conclusion")
    if not (G5.is_connected() and find_clique_cutset(G5) is None):
        failures.append("G5 has a cutset")
    ok = not failures
    _line(6, ok, "necessity suite (G5 P7-freeness leg reported separately): "
                 + ("all sub-assertions hold" if ok else "; ".join(failures)))
    assert not failures


def test_criterion_6_g5_freeness_as_stated():
    """G5 must be (P7,C4)-free and fail exactly the gem hypothesis.

    This leg is implemented exactly as the criterion states it. It FAILS:
    the literal construction (families.g5) contains induced P7s, the
    lex-least being (0, 1, 8, 4, 3, 13, 9). Kept red on purpose rather than
    weakened.
    """
    G5 = g5()
    present = {p for p in ("P7", "C4", "gem") if find_induced_pattern(G5, p) is not None}
    ok = present == {"gem"}
    _line(6, ok, f"G5 stated freeness: patterns present {sorted(present)}, expected only ['gem']")
    assert find_induced_pattern(G5, "P7") is None, (
        "spec/paper defect: G5 contains an induced P7 "
        f"{find_induced_pattern(G5, 'P7').vertices}; the construction as stated is not P7-free"
    )


def test_criterion_7_seven_hole_battery():
    """All NA properties on every diamond-class member with a 7-hole and all
    M properties on every gem-class member with a 7-hole (n <= 9, plus the
    G5 blowup corpus), plus one failing negative control per property."""
    checked = {"diamond": 0, "gem": 0}
    for mode, cls, checker in (
        ("diamond", "diamond-class", check_diamond_properties),
        ("gem", "gem-class", check_gem_properties),
    ):
        members = [g for n in range(7, 10) for g in class_members(cls, n)]
        if mode == "gem":
            members += [
                g for g in standard_blowup_corpus("G5", 20)
                if class_membership(g, cls).free
            ]
        for g in members:
            for hole in all_seven_holes(g):
                part = partition_around_hole(g, hole, mode)
                reports = checker(g, part)
                assert all(r.holds for r in reports), (mode, hole, reports)
                checked[mode] += 1
    controls = 0
    for mode, checker, fixtures in (
        ("diamond", check_diamond_properties, diamond_negative_controls()),
        ("gem", check_gem_properties, gem_negative_controls()),
    ):
        for target, g in fixtures:
            part = partition_around_hole(g, tuple(range(7)), mode)
            rep = {r.property_id: r for r in checker(g, part)}[target]
            assert not rep.holds and recheck_counterexample(g, part, rep)
            controls += 1
    ok = checked["diamond"] > 0 and checked["gem"] > 0 and controls == 20
    _line(7, ok, f"hole analyses: diamond {checked['diamond']}, gem {checked['gem']}; "
                 f"{controls} negative controls all fail their target property")
    assert ok
