"""Exact combinatorial solvers used to verify the lower-bound families.

Every construction in the paper is carried by a lemma of the form
"Gx,y satisfies predicate P iff DISJ(x,y) = FALSE".  The solvers here
compute the relevant optimum exactly on real instances so that those
lemmas can be checked rather than assumed.  They are exponential-time in
general (the predicates are NP-hard) but engineered to handle the
instance sizes our experiments use.
"""

from repro.solvers.mis import (
    max_independent_set,
    max_independent_set_weight,
    independence_number,
    is_independent_set,
)
from repro.solvers.vertex_cover import (
    min_vertex_cover,
    min_vertex_cover_size,
    is_vertex_cover,
)
from repro.solvers.dominating import (
    min_dominating_set,
    min_dominating_set_weight,
    min_k_dominating_set_weight,
    has_dominating_set_of_size,
    is_dominating_set,
    min_set_cover,
)
from repro.solvers.maxcut import max_cut, max_cut_value, cut_weight
from repro.solvers.hamilton import (
    find_hamiltonian_path,
    find_hamiltonian_cycle,
    has_hamiltonian_path,
    has_hamiltonian_cycle,
    held_karp_has_path,
    is_hamiltonian_path,
    is_hamiltonian_cycle,
)
from repro.solvers.steiner import (
    steiner_tree,
    steiner_tree_cost,
    is_steiner_tree,
    min_node_weighted_steiner_cost,
)
from repro.solvers.twoecss import (
    is_two_edge_connected,
    min_two_ecss_edges,
    has_two_ecss_with_edges,
    bridges,
)
from repro.solvers.matching import (
    max_matching,
    max_matching_size,
    tutte_berge_witness,
    tutte_berge_value,
)
from repro.solvers.flow import max_flow, min_st_cut
from repro.solvers.distance import dijkstra, weighted_distance
from repro.solvers.maxsat import max_sat_value, max_sat_assignment
from repro.solvers.spanner import (
    min_two_spanner,
    min_two_spanner_cost,
    is_two_spanner,
)

__all__ = [
    "max_independent_set",
    "max_independent_set_weight",
    "independence_number",
    "is_independent_set",
    "min_vertex_cover",
    "min_vertex_cover_size",
    "is_vertex_cover",
    "min_dominating_set",
    "min_dominating_set_weight",
    "min_k_dominating_set_weight",
    "has_dominating_set_of_size",
    "is_dominating_set",
    "min_set_cover",
    "max_cut",
    "max_cut_value",
    "cut_weight",
    "find_hamiltonian_path",
    "find_hamiltonian_cycle",
    "has_hamiltonian_path",
    "has_hamiltonian_cycle",
    "held_karp_has_path",
    "is_hamiltonian_path",
    "is_hamiltonian_cycle",
    "steiner_tree",
    "steiner_tree_cost",
    "is_steiner_tree",
    "min_node_weighted_steiner_cost",
    "is_two_edge_connected",
    "min_two_ecss_edges",
    "has_two_ecss_with_edges",
    "bridges",
    "max_matching",
    "max_matching_size",
    "tutte_berge_witness",
    "tutte_berge_value",
    "max_flow",
    "min_st_cut",
    "dijkstra",
    "weighted_distance",
    "max_sat_value",
    "max_sat_assignment",
    "min_two_spanner",
    "min_two_spanner_cost",
    "is_two_spanner",
]
