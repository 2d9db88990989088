"""Graph substrate: CSR storage, generators, IO, statistics, datasets.

The paper stores graphs in Compressed Sparse Row form (§2); everything in
this reproduction operates on :class:`repro.graph.CSRGraph`.
"""

from repro.graph.bipartite import BipartiteInfo, bipartite_preference_graph
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    ALL_DATASETS,
    LABELLED_DATASETS,
    LINK_PREDICTION_DATASETS,
    Dataset,
    load,
    load_suite,
)
from repro.graph.generators import (
    barabasi_albert,
    community_graph,
    erdos_renyi,
    multi_labels_from_communities,
    overlapping_community_graph,
    path,
    planted_partition,
    powerlaw_cluster,
    ring_of_cliques,
    rmat,
    star,
)
from repro.graph.io import (
    load_embeddings,
    load_graph_npz,
    read_edge_list,
    save_embeddings,
    save_graph_npz,
    write_edge_list,
)
from repro.graph.transform import (
    PersonaGraph,
    core_number,
    ego_net_communities,
    induced_subgraph,
    k_core,
    largest_component_subgraph,
    persona_graph,
)
from repro.graph.stats import (
    approximate_diameter,
    average_degree,
    clustering_coefficient,
    connected_components,
    degree_assortativity,
    degree_gini,
    degree_histogram,
    density,
    largest_component_nodes,
    power_law_exponent,
    triangle_count,
)

__all__ = [
    "ALL_DATASETS",
    "BipartiteInfo",
    "CSRGraph",
    "Dataset",
    "LABELLED_DATASETS",
    "LINK_PREDICTION_DATASETS",
    "PersonaGraph",
    "approximate_diameter",
    "average_degree",
    "barabasi_albert",
    "bipartite_preference_graph",
    "clustering_coefficient",
    "community_graph",
    "connected_components",
    "core_number",
    "degree_assortativity",
    "degree_gini",
    "degree_histogram",
    "density",
    "ego_net_communities",
    "erdos_renyi",
    "induced_subgraph",
    "k_core",
    "largest_component_nodes",
    "largest_component_subgraph",
    "load",
    "load_embeddings",
    "load_graph_npz",
    "load_suite",
    "multi_labels_from_communities",
    "overlapping_community_graph",
    "path",
    "persona_graph",
    "planted_partition",
    "power_law_exponent",
    "powerlaw_cluster",
    "read_edge_list",
    "ring_of_cliques",
    "rmat",
    "save_embeddings",
    "save_graph_npz",
    "star",
    "triangle_count",
    "write_edge_list",
]
