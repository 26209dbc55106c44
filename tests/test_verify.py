import hashlib
import io
import json

import pytest

import p7c4.coloring as coloring
import p7c4.structure as structure
import p7c4.verify as verify
from p7c4.cli import cli_main
from p7c4.coloring import StructuralContradiction
from p7c4.enumerate import connected_graphs
from p7c4.families import g1, g2, g3, g5, generate, graph_f, petersen
from p7c4.graphs import Graph, GraphError, cycle_graph, join_with_clique, write_graph6
from p7c4.verify import (
    THEOREMS,
    VerificationRun,
    check_theorem,
    standard_blowup_corpus,
    verify_corpus,
)


def test_check_t1_diagnoses():
    diag = check_theorem(cycle_graph(7), "T1")
    assert diag["status"] == "verified"
    diag = check_theorem(petersen(), "T1")
    assert diag["status"] == "vacuous" and "Petersen" in diag["reason"]
    # G1 violates the conclusion but fails the diamond hypothesis
    diag = check_theorem(g1(2), "T1")
    assert diag["status"] == "vacuous"
    assert diag["witness"]["pattern"] == "diamond"
    # F is vacuous as a non-member: it contains the induced P7 (0, 6, 9, 2, 3, 4, 8)
    diag = check_theorem(graph_f(), "T1")
    assert diag["status"] == "vacuous" and diag["member"] is False


def test_check_t2_diagnoses():
    diag = check_theorem(petersen(), "T2")
    assert diag["status"] == "verified" and diag["remainder"] == "Petersen"
    diag = check_theorem(join_with_clique(petersen(), 2), "T2")
    assert diag["status"] == "verified" and diag["ell"] == 2
    diag = check_theorem(cycle_graph(7), "T2")
    assert diag["status"] == "vacuous" and "delta" in diag["reason"]
    diag = check_theorem(g2([2] * 7), "T2")
    assert diag["status"] == "vacuous" and diag["witness"]["pattern"] == "C4"


def test_check_t3_diagnoses():
    diag = check_theorem(cycle_graph(7), "T3")
    assert diag["status"] == "verified"
    from p7c4.graphs import clique_blowup

    diag = check_theorem(clique_blowup(petersen(), [2] * 10), "T3")
    assert diag["status"] == "vacuous" and "blowup" in diag["reason"]
    diag = check_theorem(g5(), "T3")
    assert diag["status"] == "vacuous" and diag["witness"]["pattern"] == "P7"


def test_check_corollaries():
    for thm in ("C1", "C2", "C3"):
        diag = check_theorem(cycle_graph(7), thm)
        assert diag["status"] == "verified"
        assert diag["colors_used"] <= diag["claimed_bound"]
    diag = check_theorem(g3(), "C1")
    assert diag["status"] == "vacuous"


def test_empty_graph_is_vacuous_under_every_theorem():
    for thm in THEOREMS:
        diag = check_theorem(Graph(0), thm)
        assert diag["member"] is True
        assert (diag["status"], diag["reason"]) == ("vacuous", "empty graph")


def test_verify_corpus_counts():
    corpus = [g for n in range(1, 7) for g in connected_graphs(n)]
    run = verify_corpus(corpus, "T1", corpus="n<=6")
    assert run.total == len(corpus)
    assert run.violated == 0
    assert run.vacuous + run.checked == run.total
    assert run.checked > 0
    assert run.to_json()["violations"] == []


def test_verify_corpus_rejects_unknown_theorem():
    # the name is checked before the corpus is read, so an empty corpus
    # cannot yield a run labelled with a theorem that does not exist
    for corpus in ([], [cycle_graph(5)]):
        with pytest.raises(GraphError, match="unknown theorem 'T9'"):
            verify_corpus(corpus, "T9")


def _raising(make):
    """A fake _color_member that raises make(g)."""
    def fake(g, class_name):
        raise make(g)
    return fake


C7 = cycle_graph(7)

# a falsified theorem, faked at the seam verify reads it from, and the diagnosis it must give
VIOLATIONS = {
    "C1": ("_color_member", _raising(lambda g: GraphError("colour 1 on both ends of edge (0, 1)")),
           {"reason": "invalid certificate: colour 1 on both ends of edge (0, 1)"}),
    "C3": ("_color_member", _raising(lambda g: StructuralContradiction("gem-class", g, "no case applies")),
           {"reason": "structural contradiction: no case applies", "contradiction_graph6": write_graph6(C7)}),
    "T1": ("theorem_case", lambda *args: structure.TheoremCase("contradiction", detail="no case applies"),
           {"conclusion": "delta 2 <= max(2, omega-1) = 2"}),
    "T3": ("theorem_case", lambda *args: structure.TheoremCase("contradiction", detail="no case applies"),
           {"conclusion": "no bisimplicial vertex"}),
}


@pytest.mark.parametrize("theorem", VIOLATIONS)
def test_a_violation_is_reported_with_its_repro(theorem, monkeypatch, capsys, tmp_path):
    seam, fake, want = VIOLATIONS[theorem]
    monkeypatch.setattr(verify, seam, fake)
    diag = check_theorem(C7, theorem)
    assert diag["status"] == "violated" and {k: diag.get(k) for k in want} == want, diag
    # C4 is no class member, so it stays vacuous
    run = verify_corpus([C7, cycle_graph(4)], theorem, corpus="C7, C4")
    counts = (run.total, run.members, run.checked, run.verified, run.violated, run.vacuous)
    assert counts == (2, 1, 1, 0, 1, 1)
    assert run.violations == [{"graph6": write_graph6(C7), "diagnosis": diag}]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(f"{write_graph6(C7)}\n{write_graph6(cycle_graph(4))}\n")
    code, out = run_cli(capsys, "verify", "--theorem", theorem, "--corpus", str(corpus))
    assert code == 1 and out[0]["result"]["violations"] == run.to_json()["violations"]


def test_theorems_hold_on_all_members_up_to_9():
    # beyond the exhaustive n<=8 acceptance run: hypothesis-failing graphs
    # are vacuous anyway, so checking every class member at n=9 extends the
    # real coverage cheaply
    from p7c4.enumerate import class_members

    for thm, cls in (("T1", "diamond-class"), ("T2", "kite-class"), ("T3", "gem-class")):
        members = [g for g in class_members(cls, 9) if g.is_connected()]
        run = verify_corpus(members, thm, corpus=f"{cls} members n=9")
        assert run.violated == 0, run.violations


def test_standard_blowup_corpus():
    corpus = standard_blowup_corpus("Petersen", 20)
    assert all(g.n <= 20 for g in corpus)
    assert any(g.n == 10 for g in corpus)   # the base itself
    assert any(g.n == 20 for g in corpus)   # the uniform doubling
    again = standard_blowup_corpus("Petersen", 20)
    assert [g.adj for g in corpus] == [g.adj for g in again]


def test_standard_blowup_corpus_stops_at_the_vertex_cap():
    # the largest total under the cap still lists its whole corpus; a larger
    # one raises at the first vector over the cap, not after listing them all
    corpus = standard_blowup_corpus("C5", 512)
    assert [g.n for g in corpus] == [5 * t for t in range(1, 103)] + [6] * 5 + [7] * 15
    with pytest.raises(GraphError, match="blowup exceeds vertex cap 512"):
        standard_blowup_corpus("C5", 10**9)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_cli_generate_and_classify(capsys, tmp_path):
    code, out = run_cli(capsys, "generate", "--family", "Petersen")
    assert code == 0 and out[0]["result"]["n"] == 10
    g6 = out[0]["result"]["graph6"]
    corpus = tmp_path / "c.g6"
    corpus.write_text(g6 + "\n" + g6 + "\n")
    code, out = run_cli(capsys, "classify", "--class", "gem", "--corpus", str(corpus))
    assert code == 0 and len(out) == 2
    assert all(o["result"]["free"] for o in out)
    assert all(o["input"] == g6 for o in out)


def test_cli_color_and_oracle(capsys):
    code, out = run_cli(capsys, "color", "--class", "diamond", "--family", "Petersen")
    assert code == 0
    assert out[0]["result"]["colors_used"] == 3
    assert out[0]["result"]["bound"] == 3
    code, out = run_cli(capsys, "oracle-check", "--class", "gem", "--family", "C", "--param", "k=7")
    assert code == 0
    res = out[0]["result"]
    assert (res["omega"], res["chi"], res["colors_used"]) == (2, 3, 3)
    assert res["oracle_chi_le_colors"]


def test_cli_color_refuses_nonmember(capsys):
    code, _ = run_cli(capsys, "color", "--class", "diamond", "--family", "G2",
                      "--param", "sizes=2,2,2,2,2,2,2")
    assert code == 2


def test_cli_analyze_hole(capsys):
    code, out = run_cli(capsys, "analyze-hole", "--mode", "gem", "--family", "G5")
    assert code == 0
    analysis = out[0]["result"]["analyses"][0]
    failing = [p for p in analysis["properties"] if not p["holds"]]
    assert [p["property"] for p in failing] == ["M9"]
    code, out = run_cli(capsys, "analyze-hole", "--mode", "diamond", "--all-holes",
                        "--family", "F")
    assert code == 0 and out[0]["result"]["holes"] == 2


def test_cli_verify_exhaustive(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "T1", "--exhaustive", "6")
    assert code == 0
    res = out[0]["result"]
    assert res["violated"] == 0 and res["checked"] > 0


def test_cli_verify_blowups(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "T2", "--blowups", "Petersen:12")
    assert code == 0
    res = out[0]["result"]
    assert res["violated"] == 0 and res["checked"] >= 1  # the Petersen base itself


def test_cli_verify_blowups_takes_every_blowup_base(capsys):
    # the bases `generate --family blowup` accepts, cycles included
    code, out = run_cli(capsys, "verify", "--theorem", "T3", "--blowups", "C7:14")
    assert code == 0
    res = out[0]["result"]
    assert res["total"] == 37 and res["verified"] == 37


def test_cli_verify_sample_is_seeded(capsys):
    args = ("verify", "--theorem", "T3", "--exhaustive", "5", "--sample", "7", "--seed", "11")
    code, out1 = run_cli(capsys, *args)
    assert code == 0 and out1[0]["result"]["total"] == 7
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_verify_sample_picks_pinned_graphs(capsys, monkeypatch):
    # which graphs a seed selects is part of the output contract, not just its repeatability
    picked = []
    real = verify.verify_corpus

    def spy(graphs, theorem, corpus=""):
        graphs = list(graphs)
        picked.extend(write_graph6(g) for g in graphs)
        return real(graphs, theorem, corpus)

    monkeypatch.setattr(verify, "verify_corpus", spy)
    assert cli_main(["verify", "--theorem", "T3", "--exhaustive", "6", "--sample", "9", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d42c077fccd0c6c1260e785e876c3c1229742fed6c99b78794b34eb715a475b2")
    assert picked == ["E@pw", "EBnw", "E]~w", "C]", "EK^w", "E@^w", "DBg", "E?]w", "D]{"]


@pytest.mark.parametrize("k", ["0", "-2"])
def test_cli_verify_sample_needs_a_positive_size(capsys, k):
    # 0 used to run the whole corpus, -2 to fail inside random.sample
    assert cli_main(["verify", "--theorem", "T1", "--exhaustive", "3", "--sample", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "--sample needs K >= 1"}


@pytest.mark.parametrize("flag, value, need", [
    ("--exhaustive", "-3", "--exhaustive needs N"),
    ("--exhaustive", "0", "--exhaustive needs N"),
    ("--blowups", "Petersen:-5", "--blowups needs TOTAL"),
    ("--blowups", "Petersen:0", "--blowups needs TOTAL"),
])
def test_cli_verify_corpus_sizes_must_be_positive(capsys, monkeypatch, flag, value, need):
    # these used to verify stdin alone under a corpus label naming the size
    stdin = io.StringIO("Bw\n")
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    assert cli_main(["verify", "--theorem", "C1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"{need} >= 1"}


@pytest.mark.parametrize("value, n, base", [("Petersen:5", 10, "Petersen"), ("C7:6", 7, "C7")])
def test_cli_verify_blowups_below_the_base_size(capsys, monkeypatch, value, n, base):
    # a total under the base's vertex count lists no blowup; this used to
    # verify the piped stdin graph under the label "blowups ...; stdin"
    stdin = io.StringIO("Dhc\n")
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    assert cli_main(["verify", "--theorem", "T1", "--blowups", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"--blowups needs TOTAL >= {n}, the vertex count of {base}"}
    assert stdin.read() == "Dhc\n"


def test_cli_edge_list_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out = run_cli(capsys, "decompose", "--corpus", str(path))
    assert code == 0
    assert out[0]["result"]["split"]["cutset"] == [1]


def test_cli_edge_list_with_a_non_integer_token(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 x\n")
    assert cli_main(["decompose", "--corpus", str(path)]) == 2
    assert "token 'x'" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv", [[], ["--corpus", "-"]])
def test_cli_edge_list_on_stdin(capsys, monkeypatch, argv):
    stdin = io.StringIO("\n  3 2\n0 1\n1 2\n")
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    code, out = run_cli(capsys, "decompose", *argv)
    assert code == 0 and len(out) == 1
    assert out[0]["input"] == write_graph6(Graph(3, [(0, 1), (1, 2)]))
    assert out[0]["result"]["split"]["cutset"] == [1]


@pytest.mark.parametrize("command", ["classify --class gem", "decompose", "verify --theorem T1"])
def test_cli_has_no_format_option(capsys, command):
    # the input format comes from the first non-blank character, never from an option
    assert cli_main([*command.split(), "--family", "C", "--param", "k=5", "--format", "graph6"]) == 2
    assert capsys.readouterr().out == ""
    assert cli_main([*command.split(), "--help"]) == 0
    assert "--format" not in capsys.readouterr().out


def test_cli_exit_codes(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("this is not graph6\n")
    assert cli_main(["classify", "--class", "gem", "--corpus", str(bad)]) == 2
    capsys.readouterr()
    assert cli_main(["frobnicate"]) == 2  # unknown subcommand is a usage error
    capsys.readouterr()
    # exit 1 when a verification reports violations
    def fake_verify(graphs, theorem, corpus=""):
        list(graphs)
        run = VerificationRun(theorem=theorem, corpus=corpus, total=1, violated=1)
        run.violations.append({"graph6": "Bw", "diagnosis": {"status": "violated"}})
        return run

    monkeypatch.setattr(verify, "verify_corpus", fake_verify)
    assert cli_main(["verify", "--theorem", "T1", "--exhaustive", "2"]) == 1
    capsys.readouterr()


def test_cli_internal_error_is_not_a_violation(capsys, monkeypatch):
    def crash(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(structure, "decompose_into_atoms", crash)
    assert cli_main(["decompose", "--family", "P", "--param", "k=5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "internal", "type": "RecursionError", "detail": "maximum recursion depth exceeded",
    }


def test_cli_library_key_error_is_internal(capsys, monkeypatch):
    # a KeyError inside the library is a bug, so it exits 3 like any other
    def crash(g):
        raise KeyError(7)

    monkeypatch.setattr(structure, "decompose_into_atoms", crash)
    assert cli_main(["decompose", "--family", "P", "--param", "k=5"]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "KeyError"


def test_cli_missing_family_parameter_is_a_usage_error(capsys):
    assert cli_main(["generate", "--family", "G1"]) == 2
    assert "parameter 't'" in json.loads(capsys.readouterr().err)["error"]


def test_cli_structural_contradiction_exits_1(capsys, monkeypatch):
    # a member that falsifies its structure theorem is a finding, reported with a repro
    def contradict(g, class_name):
        raise StructuralContradiction(class_name, g, "no theorem case applies")

    monkeypatch.setattr(coloring, "_color_member", contradict)
    assert cli_main(["color", "--class", "diamond", "--family", "Petersen"]) == 1
    g6 = write_graph6(petersen())
    assert json.loads(capsys.readouterr().out) == {
        "error": "structural-contradiction",
        "detail": f"diamond-class: no theorem case applies (graph6 {g6})",
        "graph6": g6,
    }


def test_cli_reads_stdin(capsys, monkeypatch):
    g6 = write_graph6(petersen())
    stdin = io.StringIO(g6 + "\n")
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    code = cli_main(["classify", "--class", "diamond"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["result"]["free"]


def test_cli_verify_empty_graph_from_stdin(capsys, monkeypatch):
    stdin = io.StringIO("?\n")
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    code = cli_main(["verify", "--theorem", "C1"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert (result["total"], result["vacuous"], result["violated"]) == (1, 1, 0)


def test_cli_family_param_passthrough(capsys):
    code, out = run_cli(capsys, "generate", "--family", "blowup",
                        "--param", "base=Petersen", "--param", "sizes=2,2,2,2,2,2,2,2,2,2")
    assert code == 0 and out[0]["result"]["n"] == 20
    g6 = out[0]["result"]["graph6"]
    from p7c4.graphs import parse_graph6, clique_blowup

    assert parse_graph6(g6) == clique_blowup(petersen(), [2] * 10)
