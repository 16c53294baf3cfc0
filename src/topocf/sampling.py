"""Sub-dataset generation via node- and edge-dropout."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, induced_subgraph, write_interactions
from .seeds import stable_seed


NODE_DROPOUT = "node_dropout"
EDGE_DROPOUT = "edge_dropout"
STRATEGIES = (NODE_DROPOUT, EDGE_DROPOUT)

MAX_SAMPLE_ATTEMPTS = 10


class DegenerateSampleError(Exception):
    """Raised when a dropout draw leaves no usable graph."""


class SamplePoolError(Exception):
    """Raised when a sample pool is too small for the requested mix."""


@dataclass(frozen=True)
class SampleSpec:
    sample_id: int
    strategy: str
    mu: float
    seed: int


@dataclass(frozen=True)
class SampledDataset:
    spec: SampleSpec
    graph: BipartiteGraph


def round_half_up(x):
    return int(math.floor(x + 0.5))


def node_dropout(g, mu, rng):
    """Keep exactly round((U+I)*(1-mu)) uniformly drawn nodes.

    Edges are masked to the retained nodes; nodes left isolated by the
    masking are then removed.
    """
    if not 0 <= mu < 1:
        raise ValueError(f"mu must be in [0, 1), got {mu}")
    total = g.num_users + g.num_items
    n_keep = round_half_up(total * (1.0 - mu))
    if n_keep == 0:
        raise DegenerateSampleError("degenerate sample: no nodes retained")
    if mu == 0:
        return g
    keep = rng.choice(total, size=n_keep, replace=False)
    user_kept = np.zeros(g.num_users, dtype=bool)
    item_kept = np.zeros(g.num_items, dtype=bool)
    user_kept[keep[keep < g.num_users]] = True
    item_kept[keep[keep >= g.num_users] - g.num_users] = True
    edges = g.edge_array()
    mask = user_kept[edges[:, 0]] & item_kept[edges[:, 1]]
    if not mask.any():
        raise DegenerateSampleError("degenerate sample: no surviving edge")
    return induced_subgraph(g, edges[mask])


def edge_dropout(g, mu, rng):
    """Keep exactly round(E*(1-mu)) uniformly drawn edges.

    The node set is induced as the endpoints of the retained edges.
    """
    if not 0 <= mu < 1:
        raise ValueError(f"mu must be in [0, 1), got {mu}")
    n_keep = round_half_up(g.num_interactions * (1.0 - mu))
    if n_keep == 0:
        raise DegenerateSampleError("degenerate sample: no edges retained")
    if mu == 0:
        return g
    chosen = np.sort(rng.choice(g.num_interactions, size=n_keep, replace=False))
    return induced_subgraph(g, g.edge_array()[chosen])


_STRATEGY_FN = {NODE_DROPOUT: node_dropout, EDGE_DROPOUT: edge_dropout}


def generate_samples(g, m, mu_range=(0.7, 0.9), strategies=STRATEGIES,
                     master_seed=0):
    """Generate ``m`` sub-datasets with per-sample uniform mu and strategy.

    Fully deterministic given ``master_seed``: each sample owns an
    independent generator seeded from (master_seed, sample_id), so samples
    can be produced in any order or in parallel with identical results.
    Degenerate draws are retried with fresh sub-seeds up to
    MAX_SAMPLE_ATTEMPTS times.
    """
    lo, hi = mu_range
    if m < 1:
        raise ValueError("m must be >= 1")
    if lo > hi:
        raise ValueError(f"invalid mu range [{lo}, {hi}]")
    if not strategies:
        raise ValueError("at least one strategy required")
    samples = []
    for sample_id in range(m):
        samples.append(generate_one_sample(g, sample_id, (lo, hi), strategies,
                                           master_seed))
    return samples


def generate_one_sample(g, sample_id, mu_range, strategies, master_seed):
    """Generate the sample with the given id (parallel-safe unit of work)."""
    lo, hi = mu_range
    seed = stable_seed(master_seed, "sample", sample_id)
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(lo, hi))
    strategy = strategies[int(rng.integers(len(strategies)))]
    fn = _STRATEGY_FN[strategy]
    last_error = None
    for attempt in range(MAX_SAMPLE_ATTEMPTS):
        attempt_rng = np.random.default_rng(stable_seed(seed, "attempt", attempt))
        try:
            graph = fn(g, mu, attempt_rng)
            break
        except DegenerateSampleError as exc:
            last_error = exc
    else:
        raise DegenerateSampleError(
            f"sample {sample_id}: still degenerate after "
            f"{MAX_SAMPLE_ATTEMPTS} attempts ({last_error})")
    return SampledDataset(spec=SampleSpec(sample_id, strategy, mu, seed),
                          graph=graph)


def mix_for_alpha(node_samples, edge_samples, alpha, total):
    """Assemble a mixed pool: round((1-alpha)*total) node-dropout samples
    plus the complement of edge-dropout samples, preserving pool order."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n_node = round_half_up((1.0 - alpha) * total)
    n_edge = total - n_node
    if len(node_samples) < n_node or len(edge_samples) < n_edge:
        raise SamplePoolError(
            f"alpha={alpha} needs {n_node} node-dropout and {n_edge} "
            f"edge-dropout samples, pools hold {len(node_samples)} and "
            f"{len(edge_samples)}")
    return list(node_samples[:n_node]) + list(edge_samples[:n_edge])


def write_sample_edges(sample, directory):
    """Dump one sample's edge list as ``samples/<id>.tsv`` token pairs."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{sample.spec.sample_id}.tsv")
    write_interactions(sample.graph, path)
    return path
