"""Exact computation and verification toolkit for disjunctive total domination.

A set S disjunctively totally dominates a graph when every vertex has a
neighbor in S or at least two members of S at distance exactly two.  The
package computes the associated minimum (alongside plain and total
domination) exactly, evaluates the closed forms for paths and cycles,
builds the extremal families, runs the constructive bounded-set builder
for claw-free graphs, and machine-verifies the bounds and
characterizations by exhaustive enumeration at small orders.
"""

from .graph import (
    Graph,
    GraphInputError,
    connected_components,
    find_claw,
    induced_subgraph,
    is_claw_free,
    is_connected,
    is_tree,
    leaves,
    support_vertices,
)
from .canon import canonical_form, canonical_relabel, is_isomorphic, isomorphism_map
from .graphio import (
    FORMATS,
    dump_graph,
    format_edgelist,
    from_graph6,
    iter_graph6_file,
    load_graph,
    parse_edgelist,
    to_graph6,
)
from .domination import (
    DomainError,
    DominationKind,
    SolveResult,
    cycle_witness,
    dtd_cycle_formula,
    dtd_path_formula,
    dtd_uncovered,
    exact_number,
    gt_cycle_formula,
    is_dominating_set,
    is_dtd_set,
    is_total_dominating_set,
    support_exchange,
)
from .families import (
    FamilyClass,
    FamilyId,
    classify,
    complete,
    corona,
    cycle,
    double_star,
    dtd_reference_value,
    exceptional_member,
    generate,
    generate_named,
    in_class,
    parse_family_id,
    path,
    star,
)
from .constructor import (
    Decomposition,
    FragmentKind,
    FragmentRecord,
    algorithm_a,
    algorithm_b,
    construct_dtd_clawfree,
    decompose,
    decompose_beyond_support,
    greedy_dtd,
)
from .enumeration import (
    connected_clawfree_graphs,
    connected_graphs,
    free_trees,
)
from .verify import (
    VerificationReport,
    check_clawfree_theorem,
    check_dtd_le_gt,
    check_graph_theorem,
    check_mindeg2_observation,
    check_order7_census,
    check_tree_theorem,
    emit_report,
)

__version__ = "1.0.0"
