"""Triangle-distinct graphs.

A graph on at least two vertices is triangle-distinct when no two vertices
sit in the same number of triangles.  This package provides:

  graphs        bitset graphs, degrees, triangle degrees, the one
                triangle-distinct predicate (is_triangle_distinct),
                complement, induced subgraphs, cut counting, counter
                enumeration
  graph6        strict graph6 encoding and decoding
  identities    exact identities for triangle degrees under complement and
                composition, with a shared checking path
  construction  a certified recursive construction of a triangle-distinct
                graph of every order >= 7
  search        exhaustive labeled enumeration up to order 9 by one-vertex
                extension, canonical forms, the regular-graph probe,
                resumable checkpoints;
                class sizes by theorem (a triangle-distinct graph has only
                the trivial automorphism, so each class has n! labelings)
  bounds        exact structural bounds every triangle-distinct graph obeys
  cli           the `trideg` command
"""

from .graphs import (
    Graph,
    complement,
    complete_graph,
    counter_of_graph,
    cut_edges,
    cycle_graph,
    degree,
    empty_graph,
    from_edges,
    graph_from_counter,
    induced,
    is_triangle_distinct,
    mask_members,
    mask_of,
    pair_list,
    path_graph,
    random_graph,
    triangle_degree,
    triangle_degrees,
)
from .graph6 import Graph6Error, decode, encode
from .identities import (
    IdentityCheck,
    check_composition,
    check_graph,
    complement_identity_rhs,
    compose,
    composition_triangle_degree,
    lemma_comp_signature,
    lemma_comp_triangle_degree,
)
from .construction import (
    CertificationError,
    Certificate,
    ConstructedGraph,
    base_g7,
    construct,
    extend_pendant,
    extend_universal,
)
from .search import (
    CheckpointError,
    ClassEntry,
    SearchInterrupted,
    SearchReport,
    automorphism_count,
    canonical_form,
    enumerate_td,
    probe_regular,
    regular_window_degrees,
)
from .bounds import (
    BoundEntry,
    BoundsReport,
    check_all,
    check_census_bounds,
    check_degree_bounds,
    check_degree_class_bound,
    check_edge_lower_bound,
    check_planarity_edge_excess,
    check_regular_window,
    common_neighbor_census,
)

__version__ = "0.1.0"
