"""Topology-aware analysis of graph collaborative filtering.

Builds bipartite user-item graphs, samples sub-datasets via node/edge
dropout, measures classical and topological characteristics, trains four
graph-based recommenders, and fits an OLS explanatory model linking
characteristics to top-K accuracy.
"""

from .graph import BipartiteGraph, ProjectedGraph, ingest_and_build, largest_connected_component, project
from .sampling import SampleSpec, SampledDataset, node_dropout, edge_dropout, generate_samples, mix_for_alpha
from .characteristics import compute_vector, pearson_matrix
from .explain import fit_ols, build_design, significance_stars

__all__ = [
    "BipartiteGraph",
    "ProjectedGraph",
    "ingest_and_build",
    "largest_connected_component",
    "project",
    "SampleSpec",
    "SampledDataset",
    "node_dropout",
    "edge_dropout",
    "generate_samples",
    "mix_for_alpha",
    "compute_vector",
    "pearson_matrix",
    "fit_ols",
    "build_design",
    "significance_stars",
]
