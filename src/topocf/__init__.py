"""Topology-aware analysis of graph collaborative filtering.

Builds bipartite user-item graphs, samples sub-datasets via node/edge
dropout, measures classical and topological characteristics, trains four
graph-based recommenders, and fits an OLS explanatory model linking
characteristics to top-K accuracy.
"""
