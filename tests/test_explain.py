"""OLS fitting, inference, and report serialization against oracles."""

import math

import numpy as np
import pytest

from topocf.characteristics import SHORTHAND_NAMES, compute_vector
from topocf.explain import (DesignError, DesignMatrix, RegressionReport,
                            _t_two_sided_p, build_design, fit_ols,
                            render_markdown, significance_stars)
from topocf.graph import largest_connected_component
from topocf.pipeline import REPORT_HEADER, read_rows, report_rows, write_rows
from topocf.sampling import DegenerateSampleError, generate_samples
from topocf.synthetic import heavy_tailed_graph


# exact linear functions of (log U, log I, log E): a design holding all five
# identifies none of them
COUNT_DERIVED = ("SpaceSize_log", "Shape_log", "Density_log",
                 "AvgDegree-U_log", "AvgDegree-I_log")


def _design(X, names=None):
    X = np.asarray(X, dtype=float)
    names = names or tuple(f"x{j + 1}" for j in range(X.shape[1]))
    return DesignMatrix(values=X, column_names=tuple(names), dropped_ids=())


# ---------------------------------------------------------------------------
# independent oracles

def _betacf(a, b, x, max_iter=300, eps=1e-15):
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("continued fraction did not converge")


def _betainc_oracle(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _p_two_sided_oracle(t, dof):
    return _betainc_oracle(dof / 2.0, 0.5, dof / (dof + t * t))


def _ols_normal_equations_oracle(X, y):
    """Textbook fit via explicit (X'X)^-1 with intercept."""
    A = np.column_stack([np.ones(len(X)), X])
    gram_inv = np.linalg.inv(A.T @ A)
    beta = gram_inv @ (A.T @ y)
    resid = y - A @ beta
    dof = len(X) - X.shape[1] - 1
    sigma2 = float(resid @ resid) / dof
    se = np.sqrt(sigma2 * np.diag(gram_inv))
    return beta, se, resid, dof


# ---------------------------------------------------------------------------
# fitting

def test_noiseless_planted_model_recovered_exactly():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1]
    report = fit_ols(_design(X), y)
    assert report.theta0 == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(report.coefficients, [2.0, -3.0], atol=1e-8)
    assert report.r2 == pytest.approx(1.0, abs=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.normal(size=(200, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=200)
        report = fit_ols(_design(X), y)
        beta, se, resid, dof = _ols_normal_equations_oracle(X, y)
        assert report.theta0 == pytest.approx(beta[0], abs=1e-8)
        np.testing.assert_allclose(report.coefficients, beta[1:], atol=1e-8)
        np.testing.assert_allclose(report.std_errors, se, atol=1e-8)
        np.testing.assert_allclose(report.residuals, resid, atol=1e-8)


def test_p_values_match_continued_fraction_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(120, 4))
    y = X @ np.array([0.5, 0.0, -0.2, 0.05]) + rng.normal(size=120)
    report = fit_ols(_design(X), y)
    dof = 120 - 4 - 1
    for t, p in zip(report.t_stats, report.p_values):
        assert p == pytest.approx(_p_two_sided_oracle(float(t), dof),
                                  abs=1e-8)


def test_t_tail_matches_scipy_stdtr():
    # scipy.special is a test-only oracle: src/ computes the tail itself
    from scipy.special import stdtr
    ts = np.logspace(-3, 3, 241)
    for dof in (*range(1, 61), 100, 300, 1000):
        expected = 2.0 * stdtr(dof, -ts)
        for sign in (1.0, -1.0):
            got = [_t_two_sided_p(sign * t, dof) for t in ts]
            # atol: at dof 300 and |t| near 1e3 the tail is subnormal, where
            # stdtr returns 0
            np.testing.assert_allclose(got, expected, rtol=1e-10,
                                       atol=np.finfo(np.float64).tiny,
                                       err_msg=f"dof={dof}")


def test_t_tail_matches_closed_forms():
    # closed forms, not stdtr, down to |t| = 1e-8: scipy's own stdtr(1, -1e-8)
    # is off by 3e-9 relative there
    ts = np.logspace(-8, 3, 221)
    cauchy = np.where(ts >= 1, 2 / np.pi * np.arctan(1 / ts),
                      1 - 2 / np.pi * np.arctan(ts))
    s = np.sqrt(2 + ts * ts)
    for dof, expected in ((1, cauchy), (2, 2 / (s * (s + ts)))):
        got = [_t_two_sided_p(t, dof) for t in ts]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0,
                                   err_msg=f"dof={dof}")


def test_t_tail_edge_cases():
    for dof in (1, 2, 7, 300):
        assert _t_two_sided_p(0.0, dof) == 1.0
        assert _t_two_sided_p(-0.0, dof) == 1.0
        assert _t_two_sided_p(math.inf, dof) == 0.0
        assert _t_two_sided_p(-math.inf, dof) == 0.0
        assert math.isnan(_t_two_sided_p(math.nan, dof))


def test_noisy_planted_coefficients_within_three_se():
    rng = np.random.default_rng(2024)
    true = np.array([1.5, -0.8, 0.3])
    hits = 0
    for _ in range(100):
        X = rng.normal(size=(80, 3))
        y = 0.5 + X @ true + rng.normal(scale=0.5, size=80)
        report = fit_ols(_design(X), y)
        if np.all(np.abs(report.coefficients - true)
                  <= 3 * report.std_errors[1:]):
            hits += 1
    assert hits >= 93


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    report = fit_ols(_design(X), y)
    assert abs(report.residuals.sum()) < 1e-8 * len(y)
    for j in range(4):
        dot = float(report.residuals @ X[:, j])
        assert abs(dot) < 1e-8 * np.linalg.norm(X[:, j]) * \
            np.linalg.norm(report.residuals + 1e-30)
    fitted = y - report.residuals
    np.testing.assert_allclose(fitted + report.residuals, y, atol=1e-10)


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    a = fit_ols(_design(X), y)
    perm = rng.permutation(50)
    b = fit_ols(_design(X[perm]), y[perm])
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)
    np.testing.assert_allclose(a.p_values, b.p_values, atol=1e-10)
    assert a.r2 == pytest.approx(b.r2, abs=1e-12)


def test_rank_deficiency_names_columns():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = rng.normal(size=30)
    report = fit_ols(_design(X, names=("a", "b", "c", "a_plus_b")), y)
    assert report.identified.tolist() == [True, False, False, True, False]
    # the identified coefficient is the one a fit without the collinear
    # column gives
    alone = fit_ols(_design(X[:, :3], names=("a", "b", "c")), y)
    assert report.coefficients[2] == pytest.approx(alone.coefficients[2],
                                                   abs=1e-10)
    assert report.std_errors[3] == pytest.approx(alone.std_errors[3],
                                                 abs=1e-10)


def test_collinear_design_fitted_values_match_lstsq():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = 1.0 + 2.0 * X[:, 0] + rng.normal(scale=0.1, size=40)
    report = fit_ols(_design(X, names=("a", "b", "ab")), y)
    assert not report.identified[1:].any()
    fitted = y - report.residuals
    # predictions still match an lstsq solve even though coefficients are
    # only identified up to the null space
    A = np.column_stack([np.ones(40), X])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(fitted, A @ beta, atol=1e-8)


def test_adjusted_r2_arithmetic_at_large_sample_shape():
    """At 600 rows and 11 predictors, R^2 = 0.971 gives an adjusted value
    of 1 - 0.029 * 599/588 = 0.97046, which still displays as 0.971 at
    three decimals (displayed rounding is to nearest)."""
    m, c, r2 = 600, 11, 0.971
    adj = 1.0 - (1.0 - r2) * (m - 1) / (m - c - 1)
    assert adj == pytest.approx(0.9704581, abs=1e-6)
    assert f"{adj:.3f}" == "0.970"
    assert abs(adj - 0.971) < 6e-4  # rounds up to the displayed value


def test_dof_exhaustion_is_an_error():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 3))
    with pytest.raises(DesignError):
        fit_ols(_design(X), rng.normal(size=4))


# ---------------------------------------------------------------------------
# stars

def test_significance_star_thresholds_inclusive():
    assert significance_stars(0.001) == "***"
    assert significance_stars(0.0011) == "**"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.011) == "*"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.051) == ""
    assert significance_stars(float("nan")) == ""


def test_non_identified_terms_get_no_stars():
    # y loads on a, and ab = a + b leaves a, b and ab non-identified; their
    # minimum-norm p-values still fall far below 0.05
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = 3.0 * X[:, 0] + 2.0 * X[:, 2] + rng.normal(size=40)
    report = fit_ols(_design(X, names=("a", "b", "c", "ab")), y)
    assert report.identified.tolist() == [True, False, False, True, False]
    assert all(p <= 0.05 for p in report.p_values[[1, 2, 4]])
    assert report.stars == ("", "", "", "***", "")


# ---------------------------------------------------------------------------
# design building

def test_build_design_standardizes_columns():
    rng = np.random.default_rng(1)
    vectors = {i: rng.normal(loc=5.0, scale=3.0, size=3) for i in range(20)}
    metrics = {i: rng.normal() for i in range(20)}
    design, y = build_design(vectors, metrics, column_names=("a", "b", "c"))
    np.testing.assert_allclose(design.values.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(design.values.std(axis=0, ddof=0), 1.0,
                               atol=1e-12)
    assert len(y) == 20


def test_build_design_drops_undefined_rows():
    rng = np.random.default_rng(2)
    vectors = {i: rng.normal(size=2) for i in range(12)}
    vectors[3] = np.array([np.nan, 1.0])
    vectors[7] = np.array([np.inf, 1.0])
    metrics = {i: float(i) for i in range(12)}
    del metrics[9]  # missing metric also drops the row
    design, y = build_design(vectors, metrics, column_names=("a", "b"))
    assert design.dropped_ids == (3, 7, 9)
    assert design.values.shape == (9, 2)
    assert len(y) == 9


def test_build_design_errors():
    rng = np.random.default_rng(3)
    vectors = {i: rng.normal(size=2) for i in range(3)}
    with pytest.raises(DesignError, match="usable rows"):
        build_design(vectors, {i: 0.0 for i in range(3)},
                     column_names=("a", "b"))
    vectors = {i: np.array([1.0, rng.normal()]) for i in range(10)}
    with pytest.raises(DesignError, match="zero-variance column\\(s\\): a"):
        build_design(vectors, {i: 0.0 for i in range(10)},
                     column_names=("a", "b"))


def test_constant_target_with_standardized_predictors():
    rng = np.random.default_rng(4)
    vectors = {i: rng.normal(size=3) for i in range(25)}
    metrics = {i: 0.42 for i in range(25)}
    design, y = build_design(vectors, metrics, column_names=("a", "b", "c"))
    report = fit_ols(design, y)
    assert report.theta0 == pytest.approx(0.42, abs=1e-10)
    np.testing.assert_allclose(report.coefficients, 0.0, atol=1e-10)
    assert report.r2 == pytest.approx(1.0)


def test_intercept_equals_mean_with_standardized_predictors():
    rng = np.random.default_rng(5)
    vectors = {i: rng.normal(size=3) for i in range(30)}
    metrics = {i: float(rng.normal()) for i in range(30)}
    design, y = build_design(vectors, metrics, column_names=("a", "b", "c"))
    report = fit_ols(design, y)
    assert report.theta0 == pytest.approx(float(np.mean(y)), abs=1e-10)


def test_characteristic_designs_fit_or_lack_rows():
    """Default-config samples of heavy-tailed graphs, tiny to desk-sized:
    each fit succeeds with finite identified estimates and at most the
    count-derived columns unidentified, or has too few usable rows."""
    outcomes = {"fit": 0, "rows": 0}
    for size in ((12, 8, 30), (60, 40, 300), (300, 150, 2000)):
        for exponents in ((0.0, 0.0), (0.5, 1.0), (1.4, 0.3)):
            for seed in (1, 2, 3):
                g = largest_connected_component(
                    heavy_tailed_graph(*size, *exponents, seed=seed))
                try:
                    samples = generate_samples(g, 20, master_seed=seed)
                except DegenerateSampleError:
                    # dropping 70-90% of a 20-node graph can leave no edge
                    # in every retry; the sampler refuses, so nothing fits
                    assert size == (12, 8, 30)
                    continue
                vectors = {s.spec.sample_id: compute_vector(s.graph)
                           for s in samples}
                noise = np.random.default_rng(seed)
                y = {sid: float(noise.normal()) for sid in vectors}
                try:
                    report = fit_ols(*build_design(vectors, y))
                except DesignError as exc:
                    assert "usable rows" in str(exc)
                    outcomes["rows"] += 1
                    continue
                outcomes["fit"] += 1
                identified = report.identified
                assert np.isfinite(report.theta0) and identified[0]
                for values in (report.std_errors, report.t_stats,
                               report.p_values):
                    assert np.all(np.isfinite(values[identified]))
                assert np.all(np.isfinite(
                    report.coefficients[identified[1:]]))
                assert {name for name, flag
                        in zip(SHORTHAND_NAMES, identified[1:])
                        if not flag} <= set(COUNT_DERIVED)
    assert outcomes["fit"] and outcomes["rows"]


# ---------------------------------------------------------------------------
# serialization

def read_report_csv(path):
    """Round-trip of a regression CSV written by ``pipeline.write_rows``."""
    rows = read_rows(path, "statistic,value", list)
    stats = {}
    i = 0
    while i < len(rows) and rows[i] != REPORT_HEADER.split(","):
        stats[rows[i][0]] = rows[i][1]
        i += 1
    if i >= len(rows):
        raise DesignError(f"{path}: missing coefficient table header")
    table = rows[i + 1:]
    if not table or table[0][0] != "Constant":
        raise DesignError(f"{path}: coefficient table must start at Constant")
    names = tuple(r[0] for r in table[1:])
    coefs = np.array([float(r[1]) for r in table[1:]])
    se = np.array([float(r[2]) for r in table])
    t = np.array([float(r[3]) for r in table])
    p = np.array([float(r[4]) for r in table])
    stars = tuple(r[5] for r in table)
    identified = np.array([{"1": True, "0": False}[r[6]] for r in table])
    m = int(stats["M"])
    return RegressionReport(
        theta0=float(table[0][1]), coefficients=coefs, std_errors=se,
        t_stats=t, p_values=p, stars=stars, r2=float(stats["R2"]),
        adj_r2=float(stats["adj_R2"]), residuals=np.zeros(m),
        y=np.zeros(m), column_names=names, identified=identified,
        dropped_rows=int(stats.get("dropped_rows", 0)))


def test_report_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, 0.0, -0.5]) + rng.normal(size=40)
    collinear = np.column_stack([X, X[:, 0] - X[:, 2]])
    for X, names, identified in [
            (X, ("a", "b", "c"), [True] * 4),
            (collinear, ("a", "b", "c", "a_minus_c"),
             [True, False, True, False, False])]:
        report = fit_ols(_design(X, names=names), y)
        path = tmp_path / f"report_{len(names)}.csv"
        write_rows(path, "statistic,value", report_rows(report))
        back = read_report_csv(path)
        assert back.theta0 == report.theta0
        np.testing.assert_array_equal(back.coefficients, report.coefficients)
        np.testing.assert_array_equal(back.std_errors, report.std_errors)
        np.testing.assert_array_equal(back.p_values, report.p_values)
        assert back.stars == report.stars
        assert back.identified.tolist() == identified
        np.testing.assert_array_equal(back.identified, report.identified)
        assert back.r2 == report.r2
        assert back.adj_r2 == report.adj_r2
        assert back.column_names == report.column_names


def test_render_markdown_layout():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    y = 3.0 * X[:, 0] + rng.normal(size=40)
    report = fit_ols(_design(X, names=("alpha", "beta")), y)
    text = render_markdown(report, title="demo")
    lines = text.splitlines()
    assert lines[0] == "### demo"
    assert any(line.startswith("| R² (adj.)") for line in lines)
    constant_idx = next(i for i, l in enumerate(lines)
                        if l.startswith("| Constant"))
    alpha_idx = next(i for i, l in enumerate(lines)
                     if l.startswith("| alpha"))
    assert constant_idx < alpha_idx
    assert "***" in lines[alpha_idx]
    assert "n.i." not in text


def test_render_markdown_marks_non_identified_terms():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = 3.0 * X[:, 0] + 2.0 * X[:, 2] + rng.normal(size=40)
    report = fit_ols(_design(X, names=("a", "b", "c", "ab")), y)
    lines = render_markdown(report, title="demo").splitlines()
    marks = {l.split(" | ")[0][2:]: l.rsplit("|", 2)[1].strip()
             for l in lines if l.startswith("| ") and " | " in l}
    assert marks["a"] == marks["b"] == marks["ab"] == "n.i."
    assert marks["c"] == "***"
    assert marks["Constant"] != "n.i."
    assert lines[-1].startswith("n.i.: not identified")
    assert "minimum-norm" in lines[-1]
