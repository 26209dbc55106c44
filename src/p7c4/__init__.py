"""Structure analysis and certified coloring for (P7, C4, X)-free graphs,
X in {diamond, kite, gem}: recognition with witnesses, clique-cutset and
bisimplicial decomposition, bound-certified coloring, and exhaustive
desk-scale theorem verification.

`import p7c4` loads no submodule: each public name imports its module on
first use (PEP 562), so a CLI subcommand pays only for the modules it runs.
"""

import importlib

_MODULES = {
    "coloring": ("ColoringCertificate", "color_diamond_class", "color_gem_class", "color_kite_class",
                 "color_petersen_blowup", "replay_trace", "validate_certificate"),
    "enumerate": ("all_graphs", "canonical_form", "canonical_key", "class_members", "connected_graphs",
                  "p7c4_free_graphs"),
    "families": ("generate", "graph_f", "petersen"),
    "graphs": ("Graph", "GraphError", "GraphStats", "StructuralContradiction", "clique_blowup",
               "complete_graph", "cycle_graph", "empty_graph", "exact_chromatic_number", "exact_coloring",
               "from_edge_list", "graph_stats", "induced_subgraph", "isomorphic", "find_isomorphism",
               "join_with_clique", "max_clique_size", "parse_edge_list", "parse_graph6", "path_graph",
               "write_edge_list", "write_graph6"),
    "hole_lab": ("PropertyReport", "SevenHolePartition", "all_seven_holes", "check_diamond_properties",
                 "check_gem_properties", "partition_around_hole", "recheck_counterexample"),
    "patterns": ("ClassCertificate", "PatternWitness", "class_membership", "find_hole",
                 "find_induced_pattern", "pattern_graph"),
    "structure": ("AtomDecomposition", "BisimplicialCertificate", "BlowupCertificate", "CliqueCutsetSplit",
                  "PeelResult", "TheoremCase", "decompose_into_atoms", "find_bisimplicial",
                  "find_clique_cutset", "peel_universal_clique", "recognize_clique_blowup",
                  "recognize_fixed", "split_into_two_cliques", "theorem_case"),
    "verify": ("VerificationRun", "check_theorem", "standard_blowup_corpus", "verify_corpus"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # not cached in globals(): a later lookup must see the module's current value
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
