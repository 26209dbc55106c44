"""Structure analysis and certified coloring for (P7, C4, X)-free graphs,
X in {diamond, kite, gem}: recognition with witnesses, clique-cutset and
bisimplicial decomposition, bound-certified coloring, and exhaustive
desk-scale theorem verification.
"""

from .coloring import (
    ColoringCertificate,
    StructuralContradiction,
    color_diamond_class,
    color_gem_class,
    color_kite_class,
    color_petersen_blowup,
    replay_trace,
    validate_certificate,
)
from .enumerate import (
    all_graphs,
    canonical_form,
    canonical_key,
    class_members,
    connected_graphs,
    p7c4_free_graphs,
)
from .families import generate, graph_f, petersen
from .graphs import (
    Graph,
    GraphError,
    GraphStats,
    clique_blowup,
    complete_graph,
    cycle_graph,
    empty_graph,
    exact_chromatic_number,
    exact_coloring,
    from_edge_list,
    graph_stats,
    induced_subgraph,
    isomorphic,
    find_isomorphism,
    join_with_clique,
    max_clique_size,
    parse_edge_list,
    parse_graph6,
    path_graph,
    write_edge_list,
    write_graph6,
)
from .hole_lab import (
    PropertyReport,
    SevenHolePartition,
    all_seven_holes,
    check_diamond_properties,
    check_gem_properties,
    partition_around_hole,
    recheck_counterexample,
)
from .patterns import (
    ClassCertificate,
    PatternWitness,
    class_membership,
    find_hole,
    find_induced_pattern,
    pattern_graph,
)
from .structure import (
    AtomDecomposition,
    BisimplicialCertificate,
    BlowupCertificate,
    CliqueCutsetSplit,
    PeelResult,
    TheoremCase,
    decompose_into_atoms,
    find_bisimplicial,
    find_clique_cutset,
    peel_universal_clique,
    recognize_clique_blowup,
    recognize_fixed,
    split_into_two_cliques,
    theorem_case,
)
from .verify import VerificationRun, check_theorem, standard_blowup_corpus, verify_corpus
