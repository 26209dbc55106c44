"""Every module-level import in the library is used, no closure calls
itself, every source parses at the declared minimum Python, the package
exports exactly its public names, a CLI subcommand loads only what it runs
and never dataclasses, and every function the benchmark's tracer wraps by
name still exists.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import p7c4

MODULES = sorted(Path(p7c4.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from .graphs import Graph, _bits\n\ndef f(g: Graph):\n    return g\n"
    assert _unused_imports(source) == ["_bits (line 1)"]


def _self_calling_closures(source: str) -> list[str]:
    """Functions nested inside a function that call themselves by name: each
    call of the outer function then leaves a reference cycle (the closure's
    cell holds the function, whose closure holds the cell) for the collector."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == inner.name
                    for n in ast.walk(inner)):
                out.append(f"{outer.name}.{inner.name} (line {inner.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_closure_calls_itself(path):
    # a backtracking search recurses through a module-level function
    assert _self_calling_closures(path.read_text()) == []


def test_self_calling_closure_is_reported():
    source = ("def f(n):\n    def go(k):\n        return k and go(k - 1)\n    def h():\n        return go(n)\n"
              "    return h()\n\ndef g(k):\n    return k and g(k - 1)\n")
    assert _self_calling_closures(source) == ["f.go (line 2)"]


ORACLES = {"exact_coloring", "exact_chromatic_number", "graph_stats"}


def _oracle_uses(source: str) -> list[str]:
    """The exact oracles that the source imports, at any depth, or reads as
    a module attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return sorted(name for name in names if name in ORACLES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_code_under_test_never_calls_its_oracle(path):
    # the exact oracles judge the colorer and the searches in the tests, so
    # only graphs, which defines them, and cli's oracle-check may use them
    assert _oracle_uses(path.read_text()) == (["graph_stats"] if path.name == "cli.py" else [])


def test_oracle_use_is_reported():
    source = ("from .graphs import Graph\n\ndef f(g):\n    from .graphs import exact_coloring as ec, max_clique_size\n"
              "    from . import graphs\n    return ec(g), graphs.graph_stats(g)\n")
    assert _oracle_uses(source) == ["exact_coloring", "graph_stats"]


def _declared_minimum_python() -> tuple[int, int]:
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sources_parse_at_the_declared_minimum_python(path):
    ast.parse(path.read_text(), feature_version=_declared_minimum_python())


def test_syntax_above_the_minimum_is_rejected():
    assert _declared_minimum_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


PUBLIC_NAMES = sorted("""
    AtomDecomposition BisimplicialCertificate BlowupCertificate ClassCertificate CliqueCutsetSplit
    ColoringCertificate Graph GraphError GraphStats PatternWitness PeelResult PropertyReport
    SevenHolePartition StructuralContradiction TheoremCase VerificationRun all_graphs all_seven_holes
    canonical_form canonical_key check_diamond_properties check_gem_properties check_theorem
    class_members class_membership clique_blowup color_diamond_class color_gem_class color_kite_class
    color_petersen_blowup complete_graph connected_graphs cycle_graph decompose_into_atoms empty_graph
    exact_chromatic_number exact_coloring find_bisimplicial find_clique_cutset find_hole
    find_induced_pattern find_isomorphism from_edge_list generate graph_f graph_stats
    induced_subgraph isomorphic join_with_clique max_clique_size p7c4_free_graphs parse_edge_list
    parse_graph6 partition_around_hole path_graph pattern_graph peel_universal_clique petersen
    recheck_counterexample recognize_clique_blowup recognize_fixed replay_trace split_into_two_cliques
    standard_blowup_corpus theorem_case validate_certificate verify_corpus write_edge_list write_graph6
""".split())


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from p7c4 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES  # no submodule, so the builtin enumerate survives
    assert len(PUBLIC_NAMES) == 69
    assert set(PUBLIC_NAMES) <= set(dir(p7c4))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_modules_object(name):
    obj = getattr(p7c4, name)
    assert obj.__name__ == name
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_shared_names_are_one_object():
    from p7c4 import coloring, graphs, patterns, verify

    assert p7c4.StructuralContradiction is coloring.StructuralContradiction is graphs.StructuralContradiction
    assert verify.THEOREMS is patterns.THEOREMS


def _referrers(name: str) -> list[str]:
    """The module-level functions and methods of the library, as
    module.function, whose bodies name the function `name` (a call or any
    other reference; a docstring does not count)."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        (isinstance(n, ast.Name) and n.id == name) or (isinstance(n, ast.Attribute) and n.attr == name)
                        for n in ast.walk(fn)):
                    out.append(f"{path.stem}.{fn.name}")
    return out


def test_one_placement_engine():
    # fixed patterns and isomorphism place a graph with the same search, and
    # only _find_fixed_pattern starts it: the generator's through-x tests
    # read closed forms and place nothing
    from p7c4 import graphs, patterns

    assert patterns._find_fixed_pattern is graphs._find_fixed_pattern
    assert _referrers("_place") == ["graphs._find_fixed_pattern", "graphs._place"]


def test_one_bit_string_decoder():
    # graphs alone knows the adjacency bit string: graph6 parsing and the
    # generator decode it with one function, and only the canonical search
    # encodes with _perm_bits
    from p7c4 import enumerate as enum, graphs

    assert enum._graph_of_bits is graphs._graph_of_bits and enum._perm_bits is graphs._perm_bits
    assert _referrers("_graph_of_bits") == ["enumerate.canonical_form", "enumerate._grow", "graphs.parse_graph6"]
    assert _referrers("_perm_bits") == ["enumerate._least_leaf"]


def test_one_refinement_engine():
    # the canonical search, the generator's deletion test and isomorphism
    # refine their ordered partitions with one function, and no second copy
    assert _referrers("_refine") == ["enumerate.canonical_permutation", "enumerate._least_leaf",
                                     "enumerate.canonical_form", "enumerate._grow", "graphs.find_isomorphism"]


def test_one_clique_cutset_engine():
    # one MCS-M order and one split scan decide every clique cutset: the
    # cutset search, the atom decomposition and the colourer all read the
    # tree that structure._decompose keeps
    assert _referrers("_splits") == ["structure._decompose"]
    assert _referrers("_mcsm") == ["structure._splits"]


def test_graphs_keeps_no_cache():
    # the placement engine and every other graph function keep no state between calls
    from p7c4 import graphs

    assert [name for name, f in vars(graphs).items() if hasattr(f, "cache_info")] == []


def test_package_names_follow_their_module(monkeypatch):
    # nothing is cached in the package, so a patched function is seen through it
    from p7c4 import graphs

    monkeypatch.setattr(graphs, "write_graph6", len)
    assert p7c4.write_graph6 is len


# the p7c4 modules each subcommand of the benchmark's CLI batch loads
SUBCOMMAND_MODULES = {
    "classify --class gem": ["graphs", "patterns"],
    "oracle-check": ["graphs", "patterns"],
    "analyze-hole --mode gem --all-holes": ["graphs", "hole_lab", "patterns"],
    "decompose": ["families", "graphs", "patterns", "structure"],
    "color --class gem": ["coloring", "families", "graphs", "patterns", "structure"],
}
# what the stdlib dataclasses module pulls in; a record needs none of it
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis")


@pytest.mark.parametrize("command", list(SUBCOMMAND_MODULES), ids=lambda c: c.split()[0])
def test_subcommand_loads_only_what_it_runs(command):
    # the heavy modules are compared with the interpreter's own start-up
    # set, as some sites preload stdlib modules
    script = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "import io\n"
        "from p7c4.cli import cli_main\n"
        "sys.stdin = io.StringIO('Bw\\n')\n"
        f"assert cli_main({command.split()!r} + ['--corpus', '-']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('p7c4')), file=sys.stderr)\n"
        f"print(sorted(m for m in {HEAVY_STDLIB!r} if m in sys.modules and m not in start), file=sys.stderr)\n"
    )
    src = str(Path(p7c4.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    wanted = ["p7c4", "p7c4.cli", *(f"p7c4.{m}" for m in SUBCOMMAND_MODULES[command])]
    assert proc.stderr.splitlines() == [str(wanted), "[]"]


def _imports_dataclasses(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
               for node in ast.walk(ast.parse(source)))


def test_no_module_imports_dataclasses():
    # the records are NamedTuples, so no subcommand pays for dataclasses
    assert [path.name for path in MODULES if _imports_dataclasses(path.read_text())] == []
    assert _imports_dataclasses("def f():\n    from dataclasses import field\n")
    assert _imports_dataclasses("import os, dataclasses as dc\n")


def test_every_traced_function_resolves():
    # perfbench/tracing.py wraps these by (module, function) name, and a
    # traced benchmark run fails with AttributeError on one that is gone
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED")
    assert traced
    missing = [(module, name) for module, name, _ in traced
               if not callable(getattr(importlib.import_module(f"p7c4.{module}"), name, None))]
    assert missing == []
