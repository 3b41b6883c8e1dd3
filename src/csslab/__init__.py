"""Certificate laboratory for clique vs stable-set separation.

Construct CS-separators for structured graph classes, transform certificates
between the separation, biclique-packing and list-covering formulations, and
verify everything against exhaustive oracles at desk scale.
"""

from importlib import resources

from .graphs import (Graph, SplitPartition, complement, complete_graph,
                     comparability_from_random_poset, contains_induced,
                     cycle_graph, empty_graph, find_biclique_pair, from_edges,
                     gen_gnp, greedy_coloring, induced, maximal_cliques,
                     maximal_stables, net_graph, path_graph, split_partitions)
from .separator import (CutFamily, SeparationReport, build_random_separator,
                        check_appendix_bound, extend_to_full_separator,
                        separates, verify_cs_separator)
from .transversal import (ConflictDigraph, Hypergraph, build_hypergraph,
                          build_pk_free_separator, build_split_free_separator,
                          conflict_digraph, fractional_transversality,
                          greedy_transversal, side_weights, vc_dimension)
from .packing import (BicliqueCovering, FoolingSet, PackingCertificate,
                      build_fooling_set, compose_coloring, fooling_to_packing,
                      min_bp_bruteforce, packing_to_fooling, pairs_packing,
                      refine_t_covering, separator_to_coloring, star_partition,
                      verify_fooling_set, verify_packing)
from .csp import (CcpInstance, StubbornInstance, TwoSatInstance,
                  build_quasipoly_covering, ccp_covering_to_separator,
                  really_3colorable, separator_to_stubborn_covering, solve_2sat,
                  square_cut_family, stubborn_to_3ccp_covering, two_list_to_2sat,
                  verify_3ccp_solution, verify_stubborn_solution)

__version__ = "0.1.0"


def fixture_text(name: str) -> str:
    """Contents of a shipped fixture file."""
    return resources.files("csslab.fixtures").joinpath(name).read_text("utf-8")
