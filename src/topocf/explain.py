"""Ordinary-least-squares explanatory model over topology characteristics.

Links per-sample characteristic vectors to a recommendation metric via a
linear model with intercept, reporting coefficients, standard errors,
two-sided t-test p-values with significance stars (none on a term the
design does not identify), R-squared and its degrees-of-freedom-adjusted
version, and which coefficients the design identifies. ``render_markdown``
renders a report as a markdown table; the CSV layout of a report is
``pipeline``'s, beside the run's other tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import SHORTHAND_NAMES


class DesignError(Exception):
    pass


@dataclass(frozen=True)
class DesignMatrix:
    """Filtered predictor matrix, each column z-scored (population SD)."""

    values: np.ndarray          # M x C, finite
    column_names: tuple
    dropped_ids: tuple          # sample ids excluded for undefined entries


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
    identified: np.ndarray      # bool, intercept first, then per column
    dropped_rows: int = 0

    @property
    def num_rows(self):
        return len(self.y)

    @property
    def num_predictors(self):
        return len(self.coefficients)

    def rows(self):
        """(name, coefficient, std_err, t, p, stars, identified) tuples,
        Constant first."""
        coefs = (self.theta0, *self.coefficients)
        return [(name, float(coefs[j]), float(self.std_errors[j]),
                 float(self.t_stats[j]), float(self.p_values[j]),
                 self.stars[j], bool(self.identified[j]))
                for j, name in enumerate(("Constant", *self.column_names))]


def build_design(vectors, metrics, column_names=SHORTHAND_NAMES):
    """Assemble (DesignMatrix, y) from per-sample characteristic vectors and
    a {sample_id: metric} mapping.

    ``vectors`` maps sample_id to a sequence ordered like ``column_names``.
    Rows with any non-finite characteristic (or no metric) are dropped and
    logged by id; each retained column is z-scored (population SD).
    """
    names = tuple(column_names)
    rows, ys, dropped = [], [], []
    for sample_id in sorted(vectors):
        row = np.asarray(vectors[sample_id], dtype=np.float64)
        if len(row) != len(names):
            raise DesignError(
                f"sample {sample_id!r} has {len(row)} characteristics, "
                f"expected {len(names)}")
        if sample_id not in metrics or not np.all(np.isfinite(row)):
            dropped.append(sample_id)
            continue
        rows.append(row)
        ys.append(float(metrics[sample_id]))
    if len(rows) < len(names) + 2:
        raise DesignError(
            f"need at least {len(names) + 2} usable rows, have {len(rows)}")
    X = np.array(rows)
    stds = X.std(axis=0, ddof=0)
    flat = np.flatnonzero(stds == 0)
    if len(flat):
        raise DesignError("zero-variance column(s): "
                          + ", ".join(names[j] for j in flat))
    X = (X - X.mean(axis=0)) / stds
    design = DesignMatrix(values=X, column_names=names,
                          dropped_ids=tuple(dropped))
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


def fit_ols(design, y):
    """Minimum-norm least-squares fit of y on a DesignMatrix's columns plus
    an intercept, from one thin SVD ``A = U S V'`` of ``A = [1 | X]``.

    Singular values at or below ``max(M, C + 1) * eps * s_1`` are treated
    as zero; the other ``rank`` give beta = V S^+ U'y and unit variances
    diag(V S^+2 V'). Standard errors are the square roots of sigma^2
    times those, with sigma^2 = SS_res / (M - rank); p-values are
    two-sided Student-t and adjusted R-squared uses the same M - rank
    degrees of freedom. A full-rank design (rank C + 1) gives the
    ordinary OLS estimates. p is the regularized incomplete beta
    I_x(dof / 2, 1 / 2) at x = dof / (dof + t^2), from its continued
    fraction (``_t_two_sided_p``).

    Coefficient j is identified when no exact collinearity moves it: row
    j of the null-space basis (the columns of V past the rank) has a norm
    of at most sqrt(tol / s_rank). tol / s_rank bounds the rounding error
    of that basis; its square root sits midway, on a log scale, between
    that error and the unit norm of a null vector. A rank-deficient
    design, such as the characteristics, five of which are linear in
    (log U, log I, log E), still fits: its identified coefficients are the
    estimates any least-squares solution shares, while the non-identified
    ones (``report.identified`` False, ``n.i.`` in the markdown) carry the
    minimum-norm convention and no stars, whatever their p-values.
    """
    X = design.values
    y = np.asarray(y, dtype=np.float64)
    m, c = X.shape
    if m < c + 2:
        raise DesignError(f"{m} rows leave no degrees of freedom for "
                          f"{c} predictors plus intercept")
    A = np.column_stack([np.ones(m), X])
    # with M > C + 1 the thin SVD's V is square, so V[:, rank:] spans the
    # whole null space
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tol = max(m, c + 1) * np.finfo(np.float64).eps * s[0]
    rank = int(np.count_nonzero(s > tol))
    dof = m - rank
    scaled = Vt[:rank].T / s[:rank]                 # V S^+
    beta = scaled @ (U[:, :rank].T @ y)
    var_unit = (scaled * scaled).sum(axis=1)
    identified = (np.linalg.norm(Vt[rank:], axis=0)
                  <= np.sqrt(tol / s[rank - 1]))
    residuals = y - A @ beta
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    adj_r2 = 1.0 - (1.0 - r2) * (m - 1) / dof
    se = np.sqrt(ss_res / dof * var_unit)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    p = np.array([_t_two_sided_p(float(v), dof) for v in t])
    return RegressionReport(
        theta0=float(beta[0]), coefficients=beta[1:], std_errors=se,
        t_stats=t, p_values=p,
        stars=tuple(significance_stars(pj) if ok else ""
                    for pj, ok in zip(p, identified)),
        r2=r2, adj_r2=adj_r2, residuals=residuals, y=y,
        column_names=design.column_names, identified=identified,
        dropped_rows=len(design.dropped_ids))


def _t_two_sided_p(t, dof):
    """P(|T| >= |t|) for T Student-t on ``dof`` degrees of freedom: 1 at
    t = 0, 0 at t = +-inf, nan at nan."""
    t = abs(t)
    if not t < math.inf:
        return 0.0 if t == math.inf else math.nan
    if t == 0:
        return 1.0
    a, b = dof / 2.0, 0.5
    # x = dof / (dof + t^2) and 1 - x = t^2 / (dof + t^2), each from its
    # own ratio: 1 - x taken by subtraction loses digits near t = 0, and
    # the hypot keeps t^2 from overflowing
    h = math.hypot(math.sqrt(dof), t)
    rx, ry = math.sqrt(dof) / h, t / h
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + 2.0 * (a * math.log(rx) + b * math.log(ry)))
    if rx * rx < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, rx * rx) / a
    return 1.0 - front * _beta_continued_fraction(b, a, ry * ry) / b


def _beta_continued_fraction(a, b, x):
    """The continued fraction F of I_x(a, b) = front * F / a, by Lentz's
    method; it converges fast for x below (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or 1e-300)
            c = 1.0 + num / c or 1e-300
            h *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def render_markdown(report, title="Explanatory model"):
    """Results table: R2 row first, then Constant, then one row per
    characteristic with its stars, or ``n.i.`` when not identified."""
    lines = [f"### {title}", "",
             "| Term | Coefficient | Std. err. | t | p | |",
             "| --- | ---: | ---: | ---: | ---: | --- |",
             f"| R² (adj.) | {report.r2:.3f} ({report.adj_r2:.3f}) | | | | |"]
    for name, coef, se, t, p, stars, identified in report.rows():
        lines.append(f"| {name} | {coef:.4f} | {se:.4f} | {t:.2f} "
                     f"| {p:.3g} | {stars if identified else 'n.i.'} |")
    lines.append("")
    lines.append("*** p ≤ 0.001, ** p ≤ 0.01, * p ≤ 0.05 "
                 f"(M = {report.num_rows}, dropped = {report.dropped_rows})")
    if not report.identified.all():
        lines += ["", "n.i.: not identified, the design's columns are "
                      "collinear in this term; its values are the "
                      "minimum-norm convention, not estimates."]
    return "\n".join(lines)
