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
from dataclasses import dataclass

import numpy as np

from .graph import DEFAULT_PROJECTION_EDGE_CAP, project


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

CSV_HEADER = "sample_id," + ",".join(SHORTHAND_NAMES)


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
    """Space size, shape, and density (raw and log10) from counts alone.

    Space size counts users and items in thousands before the square root,
    so that log10 values land in the low single digits.
    """
    U, I, E = num_users, num_items, num_interactions
    if U < 1 or I < 1 or E < 1:
        raise ValueError("graph must have at least one user, item and edge")
    space_size = math.sqrt((U / 1000.0) * (I / 1000.0))
    shape = U / I
    density = E / (U * I)
    return {
        "space_size": space_size,
        "space_size_log": math.log10(space_size),
        "shape": shape,
        "shape_log": math.log10(shape),
        "density": density,
        "density_log": math.log10(density),
    }


def classical_characteristics(g):
    """Space size, shape, density (log10) and both Gini coefficients."""
    out = classical_from_counts(g.num_users, g.num_items, g.num_interactions)
    out["gini_user"] = gini(g.user_degrees)
    out["gini_item"] = gini(g.item_degrees)
    return out


def average_degree(g, partition):
    """Mean first-order neighborhood size over one partition (raw, log10)."""
    degrees = g.user_degrees if partition == "user" else g.item_degrees
    if len(degrees) == 0:
        raise ValueError(f"empty {partition} partition")
    raw = float(degrees.mean())
    return raw, math.log10(raw)


def average_clustering_coefficient(g, partition, proj=None):
    """Mean pairwise-Jaccard clustering coefficient over one partition.

    Per node v, its second-order neighbors are the same-partition nodes
    sharing at least one direct neighbor; the node value is the mean
    Jaccard overlap with them, 0 if it has no second-order neighbors.
    Returns (raw mean, log10 or NaN when the mean is zero).
    """
    if proj is None:
        proj = project(g, partition)
    bipartite_deg = g.user_degrees if partition == "user" else g.item_degrees
    if proj.n == 0:
        raise ValueError(f"empty {partition} partition")
    if proj.num_edges == 0:
        return 0.0, math.nan
    union = bipartite_deg[proj.v] + bipartite_deg[proj.w] - proj.weight
    jaccard = proj.weight / union
    sums = np.zeros(proj.n)
    np.add.at(sums, proj.v, jaccard)
    np.add.at(sums, proj.w, jaccard)
    per_node = np.where(proj.degrees > 0,
                        sums / np.maximum(proj.degrees, 1), 0.0)
    raw = float(per_node.mean())
    return raw, (math.log10(raw) if raw > 0 else math.nan)


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


def compute_vector(g, edge_cap=DEFAULT_PROJECTION_EDGE_CAP):
    """All eleven characteristics of one graph as a float64 array in
    SHORTHAND_NAMES order.

    The user and item projections are built once and reused for both the
    clustering coefficients and the assortativities.
    """
    classical = classical_characteristics(g)
    proj_u = project(g, "user", edge_cap=edge_cap)
    proj_i = project(g, "item", edge_cap=edge_cap)
    return np.array([
        classical["space_size_log"],
        classical["shape_log"],
        classical["density_log"],
        classical["gini_user"],
        classical["gini_item"],
        average_degree(g, "user")[1],
        average_degree(g, "item")[1],
        average_clustering_coefficient(g, "user", proj=proj_u)[1],
        average_clustering_coefficient(g, "item", proj=proj_i)[1],
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


@dataclass(frozen=True)
class DegreeDistributionFit:
    """Empirical degree histogram with power-law and exponential OLS fits
    of log-probability (natural log) against log-degree and degree."""

    degrees: np.ndarray
    probabilities: np.ndarray
    power_law_slope: float
    power_law_intercept: float
    power_law_residual: float
    exponential_slope: float
    exponential_intercept: float
    exponential_residual: float


def degree_distribution_fit(g, partition="all"):
    """Fit the empirical degree distribution of one side (or all nodes)."""
    if partition == "user":
        deg = g.user_degrees
    elif partition == "item":
        deg = g.item_degrees
    elif partition == "all":
        deg = np.concatenate([g.user_degrees, g.item_degrees])
    else:
        raise ValueError(f"unknown partition {partition!r}")
    values, counts = np.unique(deg[deg > 0], return_counts=True)
    if len(values) < 3:
        raise ValueError("degree distribution needs >= 3 distinct degrees")
    probs = counts / counts.sum()
    logp = np.log(probs)
    pl_slope, pl_icpt = np.polyfit(np.log(values.astype(float)), logp, 1)
    pl_res = float(((np.polyval([pl_slope, pl_icpt],
                                np.log(values.astype(float))) - logp) ** 2).sum())
    ex_slope, ex_icpt = np.polyfit(values.astype(float), logp, 1)
    ex_res = float(((np.polyval([ex_slope, ex_icpt],
                                values.astype(float)) - logp) ** 2).sum())
    return DegreeDistributionFit(
        degrees=values, probabilities=probs,
        power_law_slope=float(pl_slope), power_law_intercept=float(pl_icpt),
        power_law_residual=pl_res,
        exponential_slope=float(ex_slope), exponential_intercept=float(ex_icpt),
        exponential_residual=ex_res,
    )


def write_degree_distribution(fit, path):
    with open(path, "w", encoding="utf-8") as fh:
        for d, p in zip(fit.degrees, fit.probabilities):
            fh.write(f"{int(d)}\t{float(p)!r}\n")


def write_characteristics_csv(rows, path):
    """Write ``(sample_id, values)`` pairs, values in Table-shorthand order,
    under the exact Table-shorthand header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for sample_id, values in rows:
            fields = ",".join(repr(float(v)) for v in values)
            fh.write(f"{sample_id},{fields}\n")


def read_characteristics_csv(path):
    """Read rows back as (sample_id, values-in-shorthand-order)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected characteristics header: {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            rows.append((int(parts[0]),
                         np.array([float(x) for x in parts[1:]])))
    return rows


def write_correlation_csv(matrix, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(SHORTHAND_NAMES) + "\n")
        for name, row in zip(SHORTHAND_NAMES, matrix):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row)
                     + "\n")
