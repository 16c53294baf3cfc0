"""Ordinary-least-squares explanatory model over topology characteristics.

Links per-sample characteristic vectors to a recommendation metric via a
linear model with intercept, reporting coefficients, standard errors,
two-sided t-test p-values with significance stars, R-squared and its
degrees-of-freedom-adjusted version.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtr

from .characteristics import SHORTHAND_NAMES


class DesignError(Exception):
    pass


class RankDeficiencyError(Exception):
    pass


@dataclass(frozen=True)
class DesignMatrix:
    """Filtered, optionally z-scored predictor matrix with row provenance."""

    values: np.ndarray          # M x C, finite
    column_names: tuple
    sample_ids: tuple           # row -> sample id
    dropped_ids: tuple          # sample ids excluded for undefined entries
    column_means: np.ndarray
    column_stds: np.ndarray
    standardized: bool

    @property
    def num_rows(self):
        return self.values.shape[0]


@dataclass
class RegressionReport:
    theta0: float
    coefficients: np.ndarray
    std_errors: np.ndarray      # intercept first, then per column
    t_stats: np.ndarray
    p_values: np.ndarray
    stars: tuple
    r2: float
    adj_r2: float
    residuals: np.ndarray
    y: np.ndarray
    column_names: tuple
    dropped_rows: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def num_rows(self):
        return len(self.y)

    @property
    def num_predictors(self):
        return len(self.coefficients)

    def rows(self):
        """(name, coefficient, std_err, t, p, stars) tuples, Constant first."""
        out = [("Constant", self.theta0, self.std_errors[0], self.t_stats[0],
                self.p_values[0], self.stars[0])]
        for j, name in enumerate(self.column_names):
            out.append((name, float(self.coefficients[j]),
                        float(self.std_errors[j + 1]), float(self.t_stats[j + 1]),
                        float(self.p_values[j + 1]), self.stars[j + 1]))
        return out


def build_design(vectors, metrics, standardize=True,
                 column_names=SHORTHAND_NAMES):
    """Assemble (DesignMatrix, y) from per-sample characteristic vectors and
    a {sample_id: metric} mapping.

    ``vectors`` maps sample_id to a sequence ordered like ``column_names``.
    Rows with any non-finite characteristic (or no metric) are dropped and
    logged by id; with ``standardize`` each retained column is z-scored.
    """
    names = tuple(column_names)
    ids, rows, ys, dropped = [], [], [], []
    for sample_id in sorted(vectors):
        row = np.asarray(vectors[sample_id], dtype=np.float64)
        if len(row) != len(names):
            raise DesignError(
                f"sample {sample_id!r} has {len(row)} characteristics, "
                f"expected {len(names)}")
        if sample_id not in metrics or not np.all(np.isfinite(row)):
            dropped.append(sample_id)
            continue
        ids.append(sample_id)
        rows.append(row)
        ys.append(float(metrics[sample_id]))
    if len(rows) < len(names) + 2:
        raise DesignError(
            f"need at least {len(names) + 2} usable rows, have {len(rows)}")
    X = np.array(rows)
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=0)
    flat = np.flatnonzero(stds == 0)
    if len(flat):
        raise DesignError("zero-variance column(s): "
                          + ", ".join(names[j] for j in flat))
    if standardize:
        X = (X - means) / stds
    design = DesignMatrix(values=X, column_names=names,
                          sample_ids=tuple(ids), dropped_ids=tuple(dropped),
                          column_means=means, column_stds=stds,
                          standardized=standardize)
    return design, np.array(ys)


def significance_stars(p):
    """Star string for a p-value: *** <= 0.001, ** <= 0.01, * <= 0.05."""
    if not np.isfinite(p):
        return ""
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    return "*" if p <= 0.05 else ""


def fit_ols(design, y, rank_policy="error"):
    """Least-squares fit of y on a DesignMatrix's columns plus an
    intercept, solved by pivoted QR.

    Rank deficiency raises naming the collinear columns (those whose pivots
    carry a negligible diagonal in R). Standard errors come from
    sigma^2 * diag((X'X)^-1) with sigma^2 = SS_res / (M - C - 1); p-values
    are two-sided Student-t with the same degrees of freedom.

    With rank_policy="pinv" an exactly collinear design is instead solved
    by minimum-norm least squares: coefficients from the pseudo-inverse,
    covariance sigma^2 * pinv(X'X), and the detected collinear columns
    recorded in report.metadata["collinear_columns"]. This matches how
    standard statistics packages silently handle designs whose columns are
    deterministic functions of one another.
    """
    X = design.values
    names = design.column_names
    y = np.asarray(y, dtype=np.float64)
    m, c = X.shape
    dof = m - c - 1
    if dof < 1:
        raise DesignError(f"{m} rows leave no degrees of freedom for "
                          f"{c} predictors plus intercept")
    A = np.column_stack([np.ones(m), X])
    Q, R, piv = _pivoted_qr(A)
    diag = np.abs(np.diag(R))
    tol = max(m, c + 1) * np.finfo(np.float64).eps * (diag.max() or 1.0)
    deficient = np.flatnonzero(diag <= tol)
    collinear = ["Constant" if piv[j] == 0 else names[piv[j] - 1]
                 for j in deficient]
    if collinear and rank_policy != "pinv":
        raise RankDeficiencyError("collinear column(s): "
                                  + ", ".join(collinear))
    if collinear:
        gram_pinv = np.linalg.pinv(A.T @ A,
                                   rcond=max(m, c + 1) * np.finfo(float).eps)
        beta = gram_pinv @ (A.T @ y)
        var_unit = np.diag(gram_pinv)
    else:
        beta_piv = np.linalg.solve(R, Q.T @ y)
        beta = np.empty_like(beta_piv)
        beta[piv] = beta_piv
        Rinv = np.linalg.solve(R, np.eye(c + 1))
        var_unit = np.empty(c + 1)
        var_unit[piv] = np.diag(Rinv @ Rinv.T)
    fitted = A @ beta
    residuals = y - fitted
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    adj_r2 = 1.0 - (1.0 - r2) * (m - 1) / dof
    sigma2 = ss_res / dof
    se = np.sqrt(sigma2 * var_unit)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    p = 2.0 * stdtr(dof, -np.abs(t))
    stars = tuple(significance_stars(pj) for pj in p)
    report = RegressionReport(
        theta0=float(beta[0]), coefficients=beta[1:], std_errors=se,
        t_stats=t, p_values=p, stars=stars, r2=r2, adj_r2=adj_r2,
        residuals=residuals, y=y, column_names=names,
        dropped_rows=len(design.dropped_ids))
    if collinear:
        report.metadata["collinear_columns"] = tuple(collinear)
    return report


def _pivoted_qr(A):
    """QR with greedy column pivoting on remaining column norms."""
    m, n = A.shape
    piv = list(range(n))
    work = A.copy()
    norms = (work * work).sum(axis=0)
    for j in range(n):
        k = j + int(np.argmax(norms[j:]))
        if k != j:
            work[:, [j, k]] = work[:, [k, j]]
            piv[j], piv[k] = piv[k], piv[j]
            norms[[j, k]] = norms[[k, j]]
        norms[j + 1:] = (work[:, j + 1:] * work[:, j + 1:]).sum(axis=0)
    Q, R = np.linalg.qr(work)
    return Q, R, np.array(piv)


REPORT_HEADER = ["characteristic", "coefficient", "std_err", "t", "p", "stars"]


def write_report_csv(report, path, statistics=()):
    """Summary rows (the given ``(name, value)`` statistics, then R2, adj
    R2, M, C) then the coefficient table."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "value"])
        writer.writerows(statistics)
        writer.writerow(["R2", repr(float(report.r2))])
        writer.writerow(["adj_R2", repr(float(report.adj_r2))])
        writer.writerow(["M", report.num_rows])
        writer.writerow(["C", report.num_predictors])
        writer.writerow(["dropped_rows", report.dropped_rows])
        writer.writerow(REPORT_HEADER)
        for name, coef, se, t, p, stars in report.rows():
            writer.writerow([name, repr(float(coef)), repr(float(se)),
                             repr(float(t)), repr(float(p)), stars])


def render_markdown(report, title="Explanatory model"):
    """Results table: R2 row first, then Constant, then one row per
    characteristic with its stars."""
    lines = [f"### {title}", "",
             "| Term | Coefficient | Std. err. | t | p | |",
             "| --- | ---: | ---: | ---: | ---: | --- |",
             f"| R² (adj.) | {report.r2:.3f} ({report.adj_r2:.3f}) | | | | |"]
    for name, coef, se, t, p, stars in report.rows():
        lines.append(f"| {name} | {coef:.4f} | {se:.4f} | {t:.2f} "
                     f"| {p:.3g} | {stars} |")
    lines.append("")
    lines.append("*** p ≤ 0.001, ** p ≤ 0.01, * p ≤ 0.05 "
                 f"(M = {report.num_rows}, dropped = {report.dropped_rows})")
    return "\n".join(lines)
