"""Classical and topological characteristics of a bipartite user-item graph.

Eleven metrics per graph: space size, shape, density, user/item Gini,
user/item average degree, user/item average clustering coefficient, and
user/item degree assortativity on the projected graphs, kept as one
float64 row in SHORTHAND_NAMES order. Six of them are reported on a log10
scale; undefined values (e.g. assortativity of a regular projection) are
carried as NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import project


SHORTHAND_NAMES = (
    "SpaceSize_log",
    "Shape_log",
    "Density_log",
    "Gini-U",
    "Gini-I",
    "AvgDegree-U_log",
    "AvgDegree-I_log",
    "AvgClustC-U_log",
    "AvgClustC-I_log",
    "Assort-U",
    "Assort-I",
)


def gini(values):
    """Concentration of a degree sequence via the pairwise-difference form,
    computed with the sort-based O(n log n) identity."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    total = x.sum()
    if n < 1 or total == 0:
        raise ValueError("gini needs a nonempty sequence with positive sum")
    ranks = 2 * np.arange(n) - n + 1
    return float((ranks * x).sum() / (n * total))


def classical_from_counts(num_users, num_items, num_interactions):
    """Space size, shape and density (log10) from counts alone.

    Space size counts users and items in thousands before the square root,
    so that log10 values land in the low single digits.
    """
    U, I, E = num_users, num_items, num_interactions
    if U < 1 or I < 1 or E < 1:
        raise ValueError("graph must have at least one user, item and edge")
    return (math.log10(math.sqrt((U / 1000.0) * (I / 1000.0))),
            math.log10(U / I),
            math.log10(E / (U * I)))


def average_degree(g, partition):
    """log10 of the mean first-order neighborhood size over one partition."""
    degrees = g.user_degrees if partition == "user" else g.item_degrees
    if len(degrees) == 0:
        raise ValueError(f"empty {partition} partition")
    return math.log10(float(degrees.mean()))


def average_clustering_coefficient(g, partition, proj):
    """log10 of the mean pairwise-Jaccard clustering coefficient over one
    partition, NaN when the mean is zero; ``proj`` is
    ``project(g, partition)``.

    Per node v, its second-order neighbors are the same-partition nodes
    sharing at least one direct neighbor; the node value is the mean
    Jaccard overlap with them, 0 if it has no second-order neighbors.
    """
    bipartite_deg = g.user_degrees if partition == "user" else g.item_degrees
    if proj.n == 0:
        raise ValueError(f"empty {partition} partition")
    if proj.num_edges == 0:
        return math.nan
    union = bipartite_deg[proj.v] + bipartite_deg[proj.w] - proj.weight
    jaccard = proj.weight / union
    sums = np.bincount(np.concatenate([proj.v, proj.w]),
                       weights=np.concatenate([jaccard, jaccard]),
                       minlength=proj.n)
    per_node = np.where(proj.degrees > 0,
                        sums / np.maximum(proj.degrees, 1), 0.0)
    mean = float(per_node.mean())
    return math.log10(mean) if mean > 0 else math.nan


def degree_assortativity(proj):
    """Pearson correlation of endpoint degrees over the symmetric edge
    list of the binarized, self-loop-free projection.

    Returns NaN when the endpoint degrees have zero variance (regular
    projection), which callers record and exclude downstream.
    """
    if proj.num_edges < 1:
        raise ValueError("projection has no edges")
    deg = proj.degrees.astype(np.float64)
    x = np.concatenate([deg[proj.v], deg[proj.w]])
    y = np.concatenate([deg[proj.w], deg[proj.v]])
    xc = x - x.mean()
    yc = y - y.mean()
    var = (xc * xc).sum()
    if var == 0:
        return math.nan
    return float((xc * yc).sum() / var)


def compute_vector(g):
    """All eleven characteristics of one graph as a float64 array in
    SHORTHAND_NAMES order.

    The user and item projections are built once, the user side's first,
    and reused for both the clustering coefficients and the
    assortativities; ``graph.project`` refuses one past its size cap.
    """
    proj_u = project(g, "user")
    proj_i = project(g, "item")
    return np.array([
        *classical_from_counts(g.num_users, g.num_items, g.num_interactions),
        gini(g.user_degrees),
        gini(g.item_degrees),
        average_degree(g, "user"),
        average_degree(g, "item"),
        average_clustering_coefficient(g, "user", proj_u),
        average_clustering_coefficient(g, "item", proj_i),
        degree_assortativity(proj_u) if proj_u.num_edges else math.nan,
        degree_assortativity(proj_i) if proj_i.num_edges else math.nan,
    ])


def pearson_matrix(rows):
    """Pairwise Pearson correlations of the eleven characteristics, given
    one row of values per sample in Table-shorthand order.

    Rows containing undefined (NaN) fields are dropped first; a remaining
    zero-variance column is an error naming the characteristic.
    """
    rows = np.array(rows, dtype=np.float64)
    rows = rows[np.isfinite(rows).all(axis=1)]
    if len(rows) < 3:
        raise ValueError("need at least 3 fully defined characteristic vectors")
    stds = rows.std(axis=0)
    for name, s in zip(SHORTHAND_NAMES, stds):
        if s == 0:
            raise ValueError(f"characteristic {name!r} has zero variance")
    return np.corrcoef(rows, rowvar=False)


def write_degree_histogram(degrees, path):
    """One ``degree<TAB>share of nodes`` line per distinct degree."""
    values, counts = np.unique(degrees, return_counts=True)
    with open(path, "w", encoding="utf-8") as fh:
        for d, p in zip(values, counts / counts.sum()):
            fh.write(f"{int(d)}\t{float(p)!r}\n")
