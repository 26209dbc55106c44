import ast
import hashlib
import importlib
import inspect
import json
import math
from pathlib import Path
from random import Random

import pytest

from conftest import (
    _mask_is_connected,
    _reference_apply,
    petersen_maximal_independent_sets,
    reference_color,
    reference_min_multicover,
    reference_replay,
    spider,
    windmill,
)
from p7c4 import coloring, structure
from p7c4.coloring import (
    ColoringCertificate,
    StructuralContradiction,
    _color,
    _color_clique,
    _cover_lower,
    _cutset_permutation,
    _eliminate,
    _min_multicover,
    _petersen_cover_tables,
    color_diamond_class,
    color_gem_class,
    color_kite_class,
    color_petersen_blowup,
    replay_trace,
    validate_certificate,
)
from p7c4.enumerate import all_graphs, canonical_key, class_members
from p7c4.families import g1, g2, graph_f, petersen
from p7c4.graphs import (
    Graph,
    GraphError,
    _bits,
    clique_blowup,
    complete_graph,
    cycle_graph,
    exact_chromatic_number,
    join_with_clique,
    max_clique_size,
    path_graph,
)
from p7c4.structure import recognize_clique_blowup, theorem_case

COLORERS = {
    "diamond-class": color_diamond_class,
    "kite-class": color_kite_class,
    "gem-class": color_gem_class,
}


def test_examples_diamond():
    cert = color_diamond_class(petersen())
    assert cert.colors_used == 3 and cert.claimed_bound == 3
    cert = color_diamond_class(cycle_graph(7))
    assert cert.colors_used == 3 and cert.claimed_bound == 3
    assert cert.trace[-1]["step"] == "eliminate-vertex"


def test_examples_kite():
    cert = color_kite_class(join_with_clique(petersen(), 2))
    assert cert.colors_used == 5 and cert.claimed_bound == 5
    assert [s["step"] for s in cert.trace] == ["blowup-color"]  # the clique rides in the core's step
    assert color_kite_class(Graph(1)).colors_used == 1
    cert = color_kite_class(complete_graph(6))
    assert cert.colors_used == 6 and cert.claimed_bound == 7


def test_examples_gem():
    blown = clique_blowup(petersen(), [2] * 10)
    cert = color_gem_class(blown)
    assert cert.colors_used == 5 and cert.claimed_bound == 7
    assert exact_chromatic_number(blown, 20) == 5
    cert = color_gem_class(cycle_graph(7))
    assert cert.colors_used == 3 and cert.claimed_bound == 3


def test_membership_is_enforced():
    # F and G2 fail class membership, so their colorings are refused
    for g in (graph_f(), g2([2] * 7)):
        for colorer in COLORERS.values():
            with pytest.raises(GraphError):
                colorer(g)


def test_join_identity_for_petersen():
    base_colors = color_kite_class(petersen()).colors_used
    for ell in range(4):
        cert = color_kite_class(join_with_clique(petersen(), ell))
        assert cert.colors_used == ell + base_colors


def test_all_small_members_color_within_bounds():
    bounds = {
        "diamond-class": lambda w: max(3, w),
        "kite-class": lambda w: w + 1,
        "gem-class": lambda w: 2 * w - 1,
    }
    for cls, colorer in COLORERS.items():
        for n in range(1, 8):
            for g in class_members(cls, n):
                cert = colorer(g)
                validate_certificate(g, cert)
                w = max_clique_size(g)
                assert cert.claimed_bound == bounds[cls](w)
                assert exact_chromatic_number(g) <= cert.colors_used <= cert.claimed_bound


def test_coloring_is_deterministic():
    for g in (petersen(), g1(2), cycle_graph(7), path_graph(6)):
        for colorer in (color_gem_class,):
            a = colorer(g)
            b = colorer(g)
            assert a.assignment == b.assignment and a.trace == b.trace


def test_trace_replay_reconstructs():
    cert = color_gem_class(g1(3))
    assert replay_trace(cert.trace) == cert.assignment
    cert = color_kite_class(join_with_clique(petersen(), 1))
    assert replay_trace(cert.trace) == cert.assignment


def test_blowup_coloring_exact_small_totals():
    # every weight vector with total <= 14, one representative per
    # isomorphism class of the blown-up graph
    from itertools import combinations_with_replacement

    p = petersen()
    seen = set()
    for extra in range(0, 5):
        for bump in combinations_with_replacement(range(10), extra):
            sizes = [1] * 10
            for v in bump:
                sizes[v] += 1
            g = clique_blowup(p, sizes)
            key = canonical_key(g)
            if key in seen:
                continue
            seen.add(key)
            cert = color_petersen_blowup(recognize_clique_blowup(g, p))
            validate_certificate(g, cert)
            assert cert.colors_used == exact_chromatic_number(g, 14)
    assert len(seen) > 20


def test_multicover_bounds_keep_the_first_cover():
    # Petersen blowup weights like the benchmark's (class sizes 2-6) and
    # others, some with empty classes: the pruned search returns the plain
    # search's cover, and that cover is a multicover by maximal independent sets
    rng = Random(23)
    cases = [(w,) * 10 for w in range(1, 6)] + [(4, 5, 2, 2, 5, 2, 5, 2, 2, 3)]
    cases += [tuple(rng.randint(lo, hi) for _ in range(10))
              for lo, hi in [(2, 5)] * 30 + [(1, 4)] * 40 + [(0, 4)] * 40]
    sets = set(petersen_maximal_independent_sets())
    edges = list(petersen().edges())
    tables = _petersen_cover_tables()
    pentagons = tables[2]
    assert len(pentagons) == 12
    above_plain_bound = 0
    for weights in cases:
        if not any(weights):
            continue
        cover = _min_multicover(weights)
        assert cover == reference_min_multicover(weights), weights
        assert set(cover) <= sets
        assert all(sum(v in s for s in cover) >= w for v, w in enumerate(weights))
        plain = max(max(weights[u] + weights[v] for u, v in edges), -(-sum(weights) // 4))
        above_plain_bound += len(cover) > plain
        # the search's integer bound is the float definition: the largest
        # edge sum, each 5-cycle's sum over 2 and the total over 4, rounded
        # up (the last is implied by the 5-cycles, so the search skips it)
        exact = max(max(weights[u] + weights[v] for u, v in edges),
                    max(math.ceil(sum(weights[u] for u in c) / 2) for c in pentagons),
                    math.ceil(sum(weights) / 4))
        assert _cover_lower(tables, weights) == exact, weights
    assert above_plain_bound > 40  # covers the plain search proves optimal only by exhausting smaller sizes


def test_blowup_coloring_examples():
    p = petersen()
    cert = color_petersen_blowup(recognize_clique_blowup(p, p))
    assert cert.colors_used == 3 and cert.claimed_bound == 3
    g = clique_blowup(p, [2] * 10)
    cert = color_petersen_blowup(recognize_clique_blowup(g, p))
    assert cert.colors_used == 5 and cert.claimed_bound == 5
    g = clique_blowup(p, [2] + [1] * 9)
    cert = color_petersen_blowup(recognize_clique_blowup(g, p))
    assert cert.claimed_bound == 4 and cert.colors_used <= 4
    assert cert.colors_used == exact_chromatic_number(g)


def test_blowup_coloring_requires_petersen_base():
    base = cycle_graph(7)
    cert = recognize_clique_blowup(clique_blowup(base, [2] * 7), base)
    with pytest.raises(GraphError):
        color_petersen_blowup(cert)


def test_merge_rejects_improper_blocks():
    # a block coloring that repeats a color on the cutset cannot be merged
    with pytest.raises(GraphError):
        _cutset_permutation({0: 1, 1: 1}, {0: 1, 1: 2, 2: 1}, [0, 1])
    with pytest.raises(GraphError):
        _cutset_permutation({0: 1, 1: 2}, {0: 2, 1: 2, 2: 1}, [0, 1])


def test_cutset_permutation_renames_left_onto_right():
    # the cutset keeps right's colors; left's other colors, in order, take
    # the smallest colors the cutset does not use, whatever right's other
    # vertices hold
    right = {1: 4, 2: 1, 30: 2}
    assert _cutset_permutation(right, {0: 3, 1: 2, 2: 3}, [1, 2]) == [(2, 4), (3, 1)]
    assert _cutset_permutation(right, {1: 2, 2: 3, 5: 1, 6: 5, 7: 7}, [1, 2]) == [
        (2, 4), (3, 1), (1, 2), (5, 3), (7, 5)]
    assert _cutset_permutation(right, {9: 6}, []) == [(6, 1)]


def test_structural_contradiction_surfaces_loudly():
    # G2 fails every class membership, but pushing it through the internal
    # recursions simulates a falsified theorem: each must raise with the
    # offending graph attached rather than miscolor quietly
    g = g2([2] * 7)
    for class_name in COLORERS:
        with pytest.raises(StructuralContradiction) as exc:
            _color(g, g.full_mask(), class_name)
        assert exc.value.graph6
        assert exc.value.detail
    # an elimination whose greedy color overshoots its budget is refused too,
    # also under python -O: vertex 1 of the path 0-1-2 sees color 1 twice
    with pytest.raises(StructuralContradiction) as exc:
        _eliminate(path_graph(3), 0b111, {0: 1, 2: 1}, 1, 1, "diamond-class")
    assert "budget 1" in exc.value.detail


def test_validate_certificate_rejects_bad_bound():
    g = cycle_graph(5)
    cert = color_gem_class(g)
    forged = ColoringCertificate(cert.assignment, cert.colors_used, cert.class_name,
                                 cert.colors_used - 1, cert.trace)
    with pytest.raises(GraphError):
        validate_certificate(g, forged)


def test_validate_certificate_rejects_non_integer_values():
    g = path_graph(2)
    trace = ({"step": "clique-base", "assignment": [(0, 1), (1, 2)]},)
    for assignment, bound in (({0: "1", 1: 2}, 2), ({0: 1.0, 1: 2}, 2), ({0: 1, 1: 2}, "3")):
        with pytest.raises(GraphError):
            validate_certificate(g, ColoringCertificate(assignment, 2, "kite-class", bound, trace))


def _forgeries(g: Graph, cert: ColoringCertificate):
    """(forged certificate, the message of the check it must fail), one or
    more per check of validate_certificate, each made from the valid cert."""
    a = cert.assignment
    yield cert._replace(assignment={v: c for v, c in a.items() if v != g.n // 2}), (
        "assignment does not cover the vertex set")
    yield cert._replace(assignment={**a, g.n: 1}), "assignment does not cover the vertex set"
    yield cert._replace(assignment={**a, 0: 1.0}), "colors must be integers from 1"
    for v in range(g.n):
        for u in _bits(g.adj[v]):
            b = {**a, v: a[u]}
            x, y = min((x, y) for x, y in g.edges() if b[x] == b[y])
            yield cert._replace(assignment=b), f"edge ({x},{y}) is monochromatic"
    for k in (cert.colors_used - 1, cert.colors_used + 1):
        yield cert._replace(colors_used=k), "colors_used does not match the assignment"
    k = cert.colors_used
    yield cert._replace(claimed_bound=k - 1), f"{k} colors exceed the claimed bound {k - 1}"
    swap = {1: 2, 2: 1}
    yield cert._replace(assignment={v: swap.get(c, c) for v, c in a.items()}), (
        "trace replay does not reproduce the assignment")


def test_validate_certificate_rejects_each_forgery():
    # each check rejects its own forgeries of a valid certificate: a vertex
    # missing or out of range, a color that is no integer, a vertex recolored
    # to a neighbour's color (the message names the lex-least monochromatic
    # edge, also where the recoloring makes several), colors_used off by one,
    # a bound below it, and a proper coloring that is not the trace's replay
    # (two color classes swapped)
    pet = petersen()
    cases = [(spider(40), color_kite_class),
             (clique_blowup(cycle_graph(7), [3, 2, 4, 2, 3, 2, 3]), color_gem_class),
             (clique_blowup(pet, [2, 3, 2, 2, 2, 3, 2, 2, 2, 2]), color_gem_class)]
    messages = set()
    for g, colorer in cases:
        cert = colorer(g)
        validate_certificate(g, cert)
        for forged, message in _forgeries(g, cert):
            with pytest.raises(GraphError) as exc:
                validate_certificate(g, forged)
            assert str(exc.value) == message, (g.n, message)
            messages.add((g.n, message))
    assert len(messages) > 100  # many distinct monochromatic edges named


_SV0 = {"step": "clique-base", "assignment": [(0, 1)]}
_SV1 = {"step": "clique-base", "assignment": [(1, 1)]}
MALFORMED_TRACES = {
    "cutset-merge-on-one-coloring": [_SV0, {"step": "cutset-merge", "cutset": [0], "permutation": [(1, 1)]}],
    "eliminate-on-empty-stack": [{"step": "eliminate-vertex", "vertex": 0, "color": 1}],
    "components-merge-beyond-stack": [_SV0, _SV1, {"step": "components-merge", "count": 3}],
    "components-merge-of-none": [_SV0, {"step": "components-merge", "count": 0}],
    "components-merge-negative": [_SV0, _SV1, {"step": "components-merge", "count": -1}],
    "step-without-vertex": [_SV0, {"step": "eliminate-vertex", "color": 2}],
    "step-without-kind": [{"vertex": 0}],
    "permutation-misses-a-color": [
        {"step": "clique-base", "assignment": [(0, 1), (1, 2)]},
        {"step": "clique-base", "assignment": [(1, 1), (2, 2)]},
        {"step": "cutset-merge", "cutset": [1], "permutation": [(1, 2)]},
    ],
    "cutset-vertex-outside-a-block": [_SV0, _SV1, {"step": "cutset-merge", "cutset": [0], "permutation": [(1, 1)]}],
    "step-not-a-dict": ["single-vertex"],
    "step-is-none": [None],
    "assignment-not-pairs": [{"step": "clique-base", "assignment": [(0, 1, 2)]}],
    "trace-not-iterable": None,
    "unknown-kind": [{"step": "recolor", "vertex": 0}],
    "two-colorings-left": [_SV0, _SV1],
    "permutation-key-not-an-integer": [
        {"step": "clique-base", "assignment": [(0, 1), (1, 2)]},
        {"step": "clique-base", "assignment": [(1, 1), (2, 2)]},
        {"step": "cutset-merge", "cutset": [1], "permutation": [("1", 2), ("x", 1)]},
    ],
    "permutation-key-a-float": [
        {"step": "clique-base", "assignment": [(0, 1), (1, 2)]},
        {"step": "clique-base", "assignment": [(1, 1), (2, 2)]},
        {"step": "cutset-merge", "cutset": [1], "permutation": [(1.5, 2), (2, 1)]},
    ],
    # no longer a step: the cover's blowup-color step colors the Petersen graph
    "exceptional-graph": [{"step": "exceptional-graph", "name": "Petersen", "assignment": [(0, 1)]}],
    # no longer a step: a clique of any size is one clique-base step
    "single-vertex": [{"step": "single-vertex", "vertex": 0}],
    # a permutation is a list of pairs; the JSON object of earlier traces,
    # keyed by decimal strings, no longer replays
    "permutation-as-json-object": [
        {"step": "clique-base", "assignment": [(0, 1), (1, 2)]},
        {"step": "clique-base", "assignment": [(1, 1), (2, 2)]},
        {"step": "cutset-merge", "cutset": [1], "permutation": {"1": 2, "2": 1}},
    ],
}


@pytest.mark.parametrize("name", list(MALFORMED_TRACES))
def test_malformed_trace_is_a_graph_error(name):
    with pytest.raises(GraphError):
        replay_trace(MALFORMED_TRACES[name])


# One hand-written trace with all four step kinds: two blocks joined at the
# cutset {1}, a blowup block with a peeled vertex on color 3 and a blowup
# block, merged as three components over the empty cutset, as _color merges
# them. Pins the step semantics that the colourer runs its steps through.
EVERY_STEP_KIND = (
    {"step": "clique-base", "assignment": [(0, 1), (1, 2)]},
    {"step": "clique-base", "assignment": [(2, 1)]},
    {"step": "eliminate-vertex", "vertex": 1, "color": 2},
    {"step": "cutset-merge", "cutset": [1], "permutation": [(1, 3), (2, 2)]},
    {"step": "blowup-color", "assignment": [(3, 1), (4, 2), (5, 3)]},
    {"step": "blowup-color", "assignment": [(6, 2), (7, 1)]},
    {"step": "cutset-merge", "cutset": [], "permutation": [(1, 1), (2, 2), (3, 3)]},
    {"step": "cutset-merge", "cutset": [], "permutation": [(1, 1), (2, 2), (3, 3)]},
)


def test_replay_of_every_step_kind():
    # the left block {0: 1, 1: 2} renamed by the permutation and written
    # into the right one, {2: 1, 1: 2}
    assert list(replay_trace(EVERY_STEP_KIND[:4]).items()) == [(2, 1), (1, 2), (0, 3)]
    # the components merge into the last one's dict, the later ones first
    assert list(replay_trace(EVERY_STEP_KIND).items()) == [(6, 2), (7, 1), (3, 1), (4, 2), (5, 3), (2, 1), (1, 2),
                                                           (0, 3)]


def test_replay_leaves_the_certificate_untouched():
    # replay updates the colorings on its stack in place; none of them may
    # alias the trace, on inputs like the benchmark's large members
    pet = petersen()
    blowup = clique_blowup(pet, [2, 3, 2, 2, 2, 3, 2, 2, 2, 2])
    c7_blowup = clique_blowup(cycle_graph(7), [3, 2, 4, 2, 3, 2, 3])
    certs = [(g, colorer(g)) for g, colorer in (
        (spider(40), color_kite_class), (spider(40), color_diamond_class), (c7_blowup, color_gem_class),
        (join_with_clique(pet, 3), color_kite_class), (blowup, color_gem_class))]
    certs.append((blowup, color_petersen_blowup(recognize_clique_blowup(blowup, pet))))
    kinds = set()
    for g, cert in certs:
        before = json.dumps(cert.to_json())
        validate_certificate(g, cert)
        assert json.dumps(cert.to_json()) == before
        assert replay_trace(cert.trace) == replay_trace(cert.trace) == cert.assignment
        kinds |= {s["step"] for s in cert.trace}
    assert kinds == {s["step"] for s in EVERY_STEP_KIND}


def test_trace_survives_its_json():
    # JSON turns the trace's pairs into lists; the parsed certificate must
    # replay and validate as it is
    pet = petersen()
    certs = [(g, colorer(g)) for g, colorer in (
        (path_graph(4), color_diamond_class), (spider(40), color_kite_class),
        (clique_blowup(cycle_graph(7), [3, 2, 4, 2, 3, 2, 3]), color_gem_class),
        (join_with_clique(pet, 3), color_kite_class),
        (clique_blowup(pet, [2, 3, 2, 2, 2, 3, 2, 2, 2, 2]), color_gem_class))]
    for g, cert in certs:
        text = json.dumps(cert.to_json())
        data = json.loads(text)
        assert replay_trace(data["trace"]) == cert.assignment
        rebuilt = ColoringCertificate({int(v): c for v, c in data["assignment"].items()}, data["colors_used"],
                                      data["class"], data["claimed_bound"], tuple(data["trace"]))
        validate_certificate(g, rebuilt)
        assert json.dumps(rebuilt.to_json()) == text
    assert any(s["step"] == "cutset-merge" for _, cert in certs for s in cert.trace)


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = Random(seed).sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


PETERSEN_CORES = [(cls, 0) for cls in COLORERS] + [("kite-class", ell) for ell in range(1, 5)]


@pytest.mark.parametrize("class_name,ell", PETERSEN_CORES)
def test_petersen_cores_are_colored_by_the_cover(class_name, ell):
    # the Petersen graph in every class, and K_ell joined to it under kite,
    # each also under three relabellings: one blowup-color step, a minimum
    # cover, so the bound is met exactly, with the clique on colors 4..ell+3
    g = join_with_clique(petersen(), ell)
    for h in [g] + [_relabelled(g, seed) for seed in range(3)]:
        cert = COLORERS[class_name](h)
        validate_certificate(h, cert)
        assert cert.colors_used == cert.claimed_bound == ell + 3
        (step,) = cert.trace
        assert step["step"] == "blowup-color"
        clique = {v for v in range(h.n) if h.adj[v] | 1 << v == h.full_mask()}
        assert [c for v, c in step["assignment"] if v in clique] == list(range(4, ell + 4))


# sha256 of _color on every graph on <= 7 vertices under each class.
# Re-pinned when every clique became one clique-base step in every class
# (diamond and gem had a single-vertex step and one eliminate-vertex step per
# other vertex, kite colored vi with i) and cutset-merge permutations became
# lists of pairs; diamond and gem assignments did not change. Re-pinned again
# when the kite contradiction detail stopped naming F, which theorem_case
# never tests; no assignment, omega or step changed. Re-pinned again when a
# cutset merge began renaming the left coloring, an atom, onto the right
# one's colors instead of the right one onto the left's: permutations,
# assignments and their insertion order changed, and with them some greedy
# colors of later eliminations. Re-pinned again when the components of a
# disconnected block began merging by cutset-merge steps over the empty
# cutset instead of one components-merge step: the traces and the
# assignments' insertion order changed; the assignments as dicts, omega and
# every refusal did not
COLOR_DIGEST = "982e774608a9817ecf18a105bc317566bdf7e39f6fef26065a20e4090cedf07b"


def _color_digest() -> str:
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in all_graphs(n):
            for class_name in COLORERS:
                try:
                    assign, omega, steps = _color(g, g.full_mask(), class_name)
                    record = [list(assign.items()), omega, steps]
                except StructuralContradiction as exc:
                    record = [type(exc).__name__, exc.detail]
                h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


def test_color_outputs_are_pinned_on_small_graphs():
    # assignment in insertion order, omega and trace steps, or the raised
    # contradiction, of 3,467 colorings and 289 refusals
    assert _color_digest() == COLOR_DIGEST


def _clique_in_host(k: int, seed: int) -> tuple[Graph, list[int]]:
    """K_k on scattered labels of a 40-vertex host with random other edges."""
    rng = Random(seed)
    vs = sorted(rng.sample(range(40), k))
    edges = {(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]}
    edges |= {(u, w) for u in range(40) for w in range(u + 1, 40) if rng.random() < 0.2}
    return Graph(40, edges), vs


def _engine_clique(g: Graph, vs: list[int], class_name: str) -> dict[int, int]:
    """The coloring theorem_case's verdicts give the clique vs in any class,
    one round per vertex: the lowest vertex is eliminated with a budget
    that covers the color it gets. A lone vertex is colored 1.
    """
    block = sum(1 << v for v in vs)
    case = theorem_case(g, block, class_name, len(vs))
    assert (case.kind, case.vertex) == ("eliminate", vs[0]) and len(vs) <= case.budget
    if len(vs) == 1:
        return {vs[0]: 1}
    assign = _engine_clique(g, vs[1:], class_name)
    assign[vs[0]] = _eliminate(g, block, assign, vs[0], case.budget, class_name)
    return assign


@pytest.mark.parametrize("class_name", list(COLORERS))
def test_clique_closed_form_is_theorem_case_verdict(class_name):
    # one clique-base step in every class, which replays to the coloring
    # of theorem_case's rounds
    for k in range(1, 13):
        g, vs = _clique_in_host(k, seed=k)
        block = sum(1 << v for v in vs)
        _, omega, steps = _color(g, block, class_name)
        assert omega == k and [s["step"] for s in steps] == ["clique-base"] and steps == [_color_clique(block)]
        assign = _engine_clique(g, vs, class_name)
        assert list(replay_trace(steps).items()) == list(assign.items())


def _compared_kinds(func) -> set:
    """The constants that func's comparisons of the name kind compare against."""
    kinds = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "kind":
            for other in node.comparators:
                kinds |= {c.value for c in ast.walk(other) if isinstance(c, ast.Constant)}
    return kinds


def test_every_interpreted_step_kind_is_pinned():
    # the kinds _apply compares against are exactly EVERY_STEP_KIND's, so an
    # interpreter branch that no pinned trace runs fails here; the eager
    # reference compares against the same kinds, so a step kind dropped or
    # added in one interpreter cannot leave the other behind
    kinds = _compared_kinds(coloring._apply)
    assert kinds == {s["step"] for s in EVERY_STEP_KIND}
    assert _compared_kinds(_reference_apply) == kinds


def test_every_pushed_work_kind_is_compared():
    # _color's work items are tuples headed by their kind; each kind it
    # pushes has its own comparison, and none is compared that is never
    # pushed, so no kind falls through to another kind's branch
    tree = ast.parse(inspect.getsource(coloring._color))
    pushed = {node.elts[0].value for node in ast.walk(tree) if isinstance(node, ast.Tuple)
              and node.elts and isinstance(node.elts[0], ast.Constant) and isinstance(node.elts[0].value, str)}
    assert pushed == _compared_kinds(coloring._color) == {"block", "atom", "cutset", "eliminate"}


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_twin_runs_match_the_block_reference(monkeypatch):
    # an atom that eliminates a vertex with a true twin pushes the rest as an
    # atom, where the reference pushes a block through _components and
    # _decompose; assignments (in insertion order), omega and steps agree
    cases = [(g, cls) for cls in COLORERS for n in range(1, 9) for g in class_members(cls, n)]
    rng = Random(36)
    for base in (5, 7):
        for seed in range(8):
            g = clique_blowup(cycle_graph(base), [rng.randint(1, 6) for _ in range(base)])
            cases += [(g, "gem-class"), (_relabelled(g, seed), "gem-class")]
    decomposed = _count_calls(monkeypatch, coloring, "_decompose")
    for g, class_name in cases:
        assign, omega, steps = _color(g, g.full_mask(), class_name)
        ref_assign, ref_omega, ref_steps = reference_color(g, g.full_mask(), class_name)
        assert (list(assign.items()), omega, steps) == (list(ref_assign.items()), ref_omega, ref_steps)
    assert len(cases) == 3846 and len(decomposed) == 4464  # the reference: 17 more on the members, 172 on the blowups


def test_twin_runs_decompose_a_clique_blowup_once(monkeypatch):
    # gem colors the C5 blowup 60^5 by eliminating bisimplicial vertices;
    # each has a true twin until its class runs out, so only the first
    # block and the first rest that is no longer an atom run MCS-M. Each
    # eliminating atom still runs a clique search and a theorem case; a
    # re-pin may only lower these counts
    g = clique_blowup(cycle_graph(5), [60] * 5)
    runs = _count_calls(monkeypatch, structure, "_mcsm")
    searches = _count_calls(monkeypatch, coloring, "_max_clique_size")
    cases = _count_calls(monkeypatch, coloring, "theorem_case")
    assign, omega, steps = _color(g, g.full_mask(), "gem-class")
    assert (len(runs), len(searches), len(cases)) == (2, 60, 60)
    assert (max(assign.values()), omega, len(steps)) == (180, 120, 301)
    runs.clear()
    assert reference_color(g, g.full_mask(), "gem-class") == (assign, omega, steps) and len(runs) == 61


def test_components_are_split_once_and_every_block_is_connected(monkeypatch):
    # _color splits its input into components once, before its loop; every
    # mask it hands _decompose is connected, the rest of an atom after an
    # elimination included, as an atom has no cut vertex
    cases = [(g, cls) for cls in COLORERS for n in range(1, 9) for g in class_members(cls, n)]
    rng = Random(37)
    for base in (5, 7):
        for seed in range(8):
            g = clique_blowup(cycle_graph(base), [rng.randint(1, 6) for _ in range(base)])
            cases += [(g, "gem-class"), (_relabelled(g, seed), "gem-class")]
    cases += [(g, cls) for g in (spider(40), windmill(40)) for cls in COLORERS]
    split = _count_calls(monkeypatch, coloring, "_components")
    blocks = []
    real = coloring._decompose
    monkeypatch.setattr(coloring, "_decompose", lambda g, mask: blocks.append(mask) or real(g, mask))
    decomposed = 0
    for g, class_name in cases:
        _color(g, g.full_mask(), class_name)
        assert all(_mask_is_connected(g, mask) for mask in blocks), g.adj
        decomposed += len(blocks)
        blocks.clear()
    assert (len(cases), len(split), decomposed) == (3852, 3852, 4470)


def test_a_kept_decomposition_colors_as_a_fresh_one(monkeypatch):
    # _color on a graph whose decomposition memo decompose_into_atoms filled
    # reads the kept tree; assignments (in insertion order), omega and steps
    # equal those of a fresh copy, on every member n <= 8 and on the inputs
    # of the benchmark's large_members workload
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    cases = [(g, cls) for cls in COLORERS for n in range(1, 9) for g in class_members(cls, n)]
    cases += [(g, f"{cls}-class") for seed in (1, 2, 3) for _, g, cls in workloads.large_build(seed)]
    kept = 0
    for g, class_name in cases:
        decomposed, fresh = (Graph._from_adj(g.n, g.adj) for _ in range(2))
        tree = structure.decompose_into_atoms(decomposed) if g.is_connected() else None
        kept += tree is not None
        got = _color(decomposed, decomposed.full_mask(), class_name)
        want = _color(fresh, fresh.full_mask(), class_name)
        assert (list(got[0].items()), *got[1:]) == (list(want[0].items()), *want[1:]), g.adj
        assert decomposed._atoms is tree
    assert (len(cases), kept) == (3814 + 171, 2345 + 171)


def test_component_merges_keep_their_colors():
    # every block coloring uses the colors 1..k without a gap, so each merge
    # over the empty cutset that _color emits renames nothing: its
    # permutation is the identity on 1..k
    cases = [(g, cls) for cls in COLORERS for n in range(1, 9) for g in class_members(cls, n)]
    cases += [(g, cls) for g in (spider(40), windmill(40)) for cls in COLORERS]
    cases.append((clique_blowup(cycle_graph(7), [3, 2, 4, 2, 3, 2, 3]), "gem-class"))
    merges = 0
    for g, class_name in cases:
        _, _, steps = _color(g, g.full_mask(), class_name)
        for s in steps:
            if s["step"] == "cutset-merge" and not s["cutset"]:
                assert s["permutation"] == [(c, c) for c in range(1, len(s["permutation"]) + 1)], s
                merges += 1
    assert len(cases) == 3821 and merges == 2233  # none on the spider, the windmill or the blowup


def _replay_agrees(trace) -> bool:
    """replay_trace and the eager reference give equal dicts, values of equal
    types in equal insertion order, or both raise GraphError; True if the
    trace replays."""
    try:
        want = [(v, c, type(c)) for v, c in reference_replay(trace).items()]
    except GraphError:
        with pytest.raises(GraphError):
            replay_trace(trace)
        return False
    assert [(v, c, type(c)) for v, c in replay_trace(trace).items()] == want, trace
    return True


_ODD_COLORS = (0, -1, 1.0, True, "1", None, [1])


def _mutant(trace: list, n: int, rng: Random) -> list:
    """A copy of trace with one seeded change: a permutation pair, a color,
    a dropped or swapped step, or a replaced cutset vertex."""
    t = json.loads(json.dumps(trace))
    merges = [s for s in t if s["step"] == "cutset-merge"]
    cutsets = [s["cutset"] for s in merges if s["cutset"]]
    colored = [s for s in t if "assignment" in s or "color" in s]
    top = max([c for s in colored for c in ([s["color"]] if "color" in s else [c for _, c in s["assignment"]])])

    def color():
        return rng.choice(_ODD_COLORS) if rng.random() < 0.2 else rng.randint(1, top + 1)

    kind = rng.choice(["pair"] * bool(merges) + ["color", "drop", "swap"] + ["cutset"] * bool(cutsets))
    if kind == "pair":
        pair = rng.choice(rng.choice(merges)["permutation"])
        pair[rng.randint(0, 1)] = color()
    elif kind == "color":
        step = rng.choice(colored)
        if "color" in step:
            step["color"] = color()
        else:
            rng.choice(step["assignment"])[1] = color()
    elif kind == "drop":
        del t[rng.randrange(len(t))]
    elif kind == "swap" and len(t) > 1:
        i = rng.randrange(len(t) - 1)
        t[i], t[i + 1] = t[i + 1], t[i]
    elif kind == "cutset":
        cutset = rng.choice(cutsets)
        cutset[rng.randrange(len(cutset))] = rng.randrange(n)
    return t


def test_replay_matches_the_eager_reference_on_the_corpus():
    # every _color trace of the COLOR_DIGEST corpus, then four seeded
    # mutants of each trace on 6 or 7 vertices
    rng = Random(30)
    replayed = mutants = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            for class_name in COLORERS:
                try:
                    _, _, steps = _color(g, g.full_mask(), class_name)
                except StructuralContradiction:
                    continue
                assert _replay_agrees(steps)
                replayed += 1
                for _ in range(4 if n >= 6 else 0):
                    mutants += _replay_agrees(_mutant(steps, n, rng))
    assert replayed == 3467 and mutants > 1000


@pytest.mark.parametrize("g", [spider(40), windmill(40), clique_blowup(cycle_graph(7), [3, 2, 4, 2, 3, 2, 3])],
                         ids=["spider40", "windmill40", "C7-blowup"])
def test_replay_matches_the_eager_reference_on_mutated_spines(g):
    # mutants of traces whose merges keep the right coloring's dict; the
    # C7 blowup is a member of the gem class only
    rng = Random(g.n)
    for colorer in COLORERS.values():
        try:
            trace = list(colorer(g).trace)
        except GraphError:
            continue
        assert _replay_agrees(trace)
        for _ in range(60):
            _replay_agrees(_mutant(trace, g.n, rng))


@pytest.mark.parametrize("g", [spider(255), windmill(255)], ids=["spider255", "windmill255"])
def test_replay_matches_the_eager_reference_at_the_cap(g):
    for colorer in COLORERS.values():
        assert _replay_agrees(colorer(g).trace)


_LEFT = {"step": "clique-base", "assignment": [(0, 1), (1, 2)]}
_RIGHT = {"step": "clique-base", "assignment": [(v, 2 - v % 2) for v in range(1, 13)]}


def _merge(perm, cutset=(1,)):
    return {"step": "cutset-merge", "cutset": list(cutset), "permutation": perm}


# traces at the points where the in-place merge, which renames the left
# coloring and writes it into the right one's dict, could part from the
# eager reference; the test keeps its name from the color table whose
# limits the first of them probed
MERGE_LIMITS = {
    "non-int-color": [_LEFT, _RIGHT, _merge([(1, "2"), (2, 1)])],
    "bool-color": [_LEFT, _RIGHT, _merge([(1, 2), (2, True)])],
    "unhashable-color": [_LEFT, _RIGHT, _merge([(1, [2]), (2, 1)])],
    "unhashable-left-color": [{"step": "clique-base", "assignment": [(0, [1]), (1, 2)]}, _RIGHT,
                              _merge([(1, 2), (2, 1)])],
    "not-one-to-one": [_LEFT, _RIGHT, _merge([(1, 1), (2, 1)])],
    "extra-pairs": [_LEFT, _RIGHT, _merge([(1, 2), (2, 1), (7, 7)])],
    "missing-color": [_LEFT, _RIGHT, _merge([(2, 1)])],
    "cutset-disagrees": [_LEFT, _RIGHT, _merge([(1, 1), (2, 2)])],
    "left-recolors-right": [{"step": "clique-base", "assignment": [(0, 1), (1, 2), (3, 1)]}, _RIGHT,
                            _merge([(1, 2), (2, 1)])],
    "new-color-from-left": [{"step": "clique-base", "assignment": [(0, 3), (1, 2)]}, _RIGHT,
                            _merge([(3, 5), (2, 1)])],
    "equal-colors-of-two-types": [_LEFT, {"step": "clique-base", "assignment": [(1, 1.0), (2, 1)] + [
                                      (v, 2) for v in range(3, 13)]}, _merge([(1, 2), (2, 1)])],
    "eliminate-then-recolor": [_LEFT, _RIGHT, _merge([(1, 2), (2, 1)]),
                               {"step": "eliminate-vertex", "vertex": 20, "color": 4},
                               {"step": "eliminate-vertex", "vertex": 2, "color": 3}],
    "eliminate-a-float": [_LEFT, _RIGHT, _merge([(1, 2), (2, 1)]),
                          {"step": "eliminate-vertex", "vertex": 21, "color": 2.0}],
    "left-of-bools": [{"step": "clique-base", "assignment": [(0, True), (1, 2)]}, _RIGHT, _merge([(1, 2), (2, 1)])],
    "two-spine-merges": [_LEFT, _LEFT, _RIGHT, _merge([(1, 2), (2, 1)]), _merge([(1, 3), (2, 1), (3, 3)]),
                         {"step": "clique-base", "assignment": [(30, 1)]}, _merge([(1, 1), (2, 2), (3, 3)], ())],
    "merged-as-left": [_LEFT, _RIGHT, _merge([(1, 2), (2, 1)]),
                       {"step": "clique-base", "assignment": [(2, 5), (20, 6)]}, _merge([(2, 5), (1, 3)], (2,))],
}
MERGE_REFUSALS = {"unhashable-left-color", "missing-color", "cutset-disagrees"}


@pytest.mark.parametrize("name", list(MERGE_LIMITS))
def test_replay_matches_the_eager_reference_at_the_table_limits(name):
    assert _replay_agrees(MERGE_LIMITS[name]) == (name not in MERGE_REFUSALS)


def test_malformed_traces_fail_in_the_reference_too():
    for trace in MALFORMED_TRACES.values():
        assert not _replay_agrees(trace)
