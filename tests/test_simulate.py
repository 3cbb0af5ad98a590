import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpa import (
    BadConfig,
    CdpaConfig,
    PatternDecomposition,
    PermutationPlan,
    RankProfile,
    SimulationConfig,
    closed_form_explained_variance,
    error_metrics,
    estimate_cdpa,
    generate_setup,
    oracle_explained_variance,
    planted_correlations,
    run_replications,
)
from cdpa._linalg import pad_rows
from cdpa.simulate import EIGENVALUES, TOTAL_VARIANCE, _factor_norms

from helpers import rel_err


# ------------------------------------------------------------ configuration


def test_setup1_forces_equal_dimensions():
    cfg = SimulationConfig(setup=1, theta_deg=15.0, p1=120, n=100)
    assert cfg.p2 == 120


def test_setup2_forces_p2_900():
    cfg = SimulationConfig(setup=2, theta_deg=15.0, p1=120, n=100)
    assert cfg.p2 == 900


def test_bad_angle_rejected():
    with pytest.raises(BadConfig):
        SimulationConfig(setup=1, theta_deg=80.0, p1=50, n=100)


def test_negative_seeds_rejected():
    for seeds in ({"seed": -1}, {"structure_seed": -1}):
        with pytest.raises(BadConfig):
            SimulationConfig(setup=1, theta_deg=15.0, p1=50, n=100, **seeds)


@pytest.mark.parametrize(
    "field",
    [
        {"setup": 1.0},
        {"setup": True},
        {"p1": 30.5},
        {"n": 40.5},
        {"replications": 1.5},
        {"seed": 1.5},
        {"structure_seed": 0.5},
    ],
)
def test_non_integer_counts_rejected(field):
    base = {"setup": 1, "theta_deg": 30.0, "p1": 30, "n": 40}
    with pytest.raises(BadConfig, match="integer"):
        SimulationConfig(**{**base, **field})


@pytest.mark.parametrize(
    "field", [{"theta_deg": "30"}, {"theta_deg": None}, {"noise_var": "1"}, {"noise_var": True}]
)
def test_non_real_floats_rejected(field):
    base = {"setup": 1, "theta_deg": 30.0, "p1": 30, "n": 40}
    with pytest.raises(BadConfig, match="real number"):
        SimulationConfig(**{**base, **field})


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_noise_rejected(noise):
    with pytest.raises(BadConfig, match="noise_var"):
        SimulationConfig(setup=1, theta_deg=30.0, p1=30, n=40, noise_var=noise)


def test_fewer_than_two_samples_rejected():
    for n in (1, 0, -1):
        with pytest.raises(BadConfig):
            SimulationConfig(setup=1, theta_deg=30.0, p1=30, n=n)


# ------------------------------------------------------- planted correlations


def test_planted_correlation_profile():
    rho = planted_correlations(0.0)
    want = np.cos(np.deg2rad([0.0, 0.0, 0.0, 15.0, 30.0]))
    np.testing.assert_allclose(rho, want, atol=1e-15)


def test_shared_rank_over_angle_grid():
    for theta in range(0, 60):
        assert int(np.sum(planted_correlations(float(theta)) > 0)) == 5
    assert int(np.sum(planted_correlations(60.0) > 0)) == 4
    for theta in range(61, 75):
        assert int(np.sum(planted_correlations(float(theta)) > 0)) == 4
    assert int(np.sum(planted_correlations(75.0) > 0)) == 3


# ------------------------------------------------------------- generate_setup


def test_generator_planted_identities():
    cfg = SimulationConfig(setup=1, theta_deg=45.0, p1=60, n=90, noise_var=1.0, seed=5)
    _, _, truth = generate_setup(cfg)
    root = np.sqrt(EIGENVALUES)[:, None]
    assert rel_err(truth.v1 @ (root * truth.z1), truth.x1) <= 1e-10
    assert rel_err(truth.v2 @ (root * truth.z2), truth.x2) <= 1e-10
    rho = planted_correlations(45.0)
    q1 = truth.v1[:, : truth.r12]
    q2 = truth.v2[:, : truth.r12]
    np.testing.assert_allclose(q1.T @ q2, np.diag(rho[: truth.r12]), atol=1e-10)
    np.testing.assert_allclose(
        truth.v1.T @ truth.v1, np.eye(5), atol=1e-10
    )


def test_generator_setup2_padded_geometry():
    cfg = SimulationConfig(setup=2, theta_deg=30.0, p1=100, n=80, noise_var=1.0, seed=6)
    y1, y2, truth = generate_setup(cfg)
    assert y1.values.shape == (100, 80)
    assert y2.values.shape == (900, 80)
    q1 = np.vstack([truth.v1[:, : truth.r12], np.zeros((800, truth.r12))])
    q2 = truth.v2[:, : truth.r12]
    rho = planted_correlations(30.0)
    np.testing.assert_allclose(q1.T @ q2, np.diag(rho[: truth.r12]), atol=1e-10)


def test_generator_zero_angle_canonical_correlations():
    cfg = SimulationConfig(setup=1, theta_deg=0.0, p1=50, n=120, noise_var=0.0, seed=8)
    y1, y2, truth = generate_setup(cfg, exact_moments=True)
    fit = estimate_cdpa(
        y1,
        y2,
        CdpaConfig(ranks=RankProfile(5, 5, 5), perm="identity", sign="plus", center=False),
    )
    want = np.cos(np.deg2rad([0.0, 0.0, 0.0, 15.0, 30.0]))
    np.testing.assert_allclose(fit.system.correlations, want, atol=1e-8)


def test_generator_noiseless_estimation_sanity():
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=100, n=2000, noise_var=0.0, seed=9
    )
    y1, y2, truth = generate_setup(cfg)
    fit = estimate_cdpa(
        y1,
        y2,
        CdpaConfig(ranks=RankProfile(5, 5, 5), perm="identity", sign="plus", center=False),
    )
    sq_rel = (
        np.linalg.norm(fit.patterns.c - truth.c) / np.linalg.norm(truth.c)
    ) ** 2
    assert sq_rel < 1e-2


# ----------------------------------------------------- oracle_explained_variance


def test_oracle_reported_values():
    want = [0.890, 0.479, 0.213, 0.126, 0.092, 0.088]
    for theta, value in zip(range(0, 90, 15), want):
        np.testing.assert_allclose(
            oracle_explained_variance(float(theta)), value, atol=2e-3
        )


def test_oracle_two_routes_agree_on_degree_grid():
    # the matrix-level and closed-form routes are checked to 1e-10 inside
    for theta in range(0, 91):
        oracle_explained_variance(float(theta))


def test_oracle_out_of_sweep_angle():
    assert oracle_explained_variance(90.0) < 0.09


# --------------------------------------------------------------- error_metrics


def _estimate(c_factors, explained):
    """An estimate with the given common pattern.  ``error_metrics`` reads
    no distinctive pattern, so the estimate has no sources."""
    pmax = c_factors[0].shape[0]
    return PatternDecomposition(
        c_factors=c_factors,
        scales=(np.sqrt(TOTAL_VARIANCE), np.sqrt(TOTAL_VARIANCE)),
        sources=(),
        permutation=PermutationPlan(perm=np.arange(pmax), objective=0.0, method="identity"),
        explained=explained,
    )


def _perfect_estimate(truth):
    return _estimate(truth.c_factors, truth.explained)


def test_error_metrics_zero_for_perfect_estimate():
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=30, n=60, noise_var=0.5, seed=10)
    _, _, truth = generate_setup(cfg)
    fake = _perfect_estimate(truth)
    # the difference of identical dense patterns is exactly zero; the
    # factored route reaches it up to rounding in the core's singular values
    assert _dense_metrics(fake, truth)["scaled_sq_error_c_fro"] == 0.0
    report = error_metrics(fake, truth)
    assert report.scaled_sq_error_c_fro <= (16 * np.finfo(float).eps) ** 2
    assert report.trace_abs_error == 0.0


def test_error_metrics_zero_estimate_recovers_population_trace():
    cfg = SimulationConfig(setup=1, theta_deg=15.0, p1=40, n=100, noise_var=0.5, seed=11)
    _, _, truth = generate_setup(cfg, exact_moments=True)
    zeros = np.zeros_like(truth.c)
    fake = _estimate(
        c_factors=(np.zeros((zeros.shape[0], 0)), np.zeros((0, zeros.shape[1]))),
        explained=0.0,
    )
    report = error_metrics(fake, truth)
    np.testing.assert_allclose(
        report.scaled_sq_error_c_fro, closed_form_explained_variance(15.0), atol=1e-6
    )


# ------------------------------------------------------------ run_replications


def test_single_replication_has_zero_sds():
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=30, n=60, noise_var=0.5, seed=13, replications=1
    )
    study = run_replications(cfg)
    assert all(v == 0.0 for v in study.sds.values())


def test_replications_deterministic_given_seed():
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=30, n=60, noise_var=0.5, seed=14, replications=5
    )
    a = run_replications(cfg)
    b = run_replications(cfg)
    assert a.means == b.means
    assert a.sds == b.sds
    assert a.rows == b.rows


def test_master_seeds_give_distinct_studies():
    means = set()
    for seed in range(8):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=30, n=60, noise_var=0.5, seed=seed, replications=8
        )
        means.add(tuple(run_replications(cfg).means.items()))
    assert len(means) == 8


def test_error_grows_with_noise_in_the_mean():
    means = []
    for noise in (0.25, 1.0, 4.0):
        cfg = SimulationConfig(
            setup=1,
            theta_deg=15.0,
            p1=60,
            n=120,
            noise_var=noise,
            seed=15,
            replications=10,
        )
        means.append(run_replications(cfg).means["scaled_sq_error_c_fro"])
    assert means[0] < means[1] < means[2]


# ------------------------------------------------------ norms from factors


def _dense_metrics(est, truth):
    """Every error metric straight from the dense matrices."""
    pmax = est.c.shape[0]

    def spec(m):
        return np.linalg.norm(m, 2) ** 2

    diff = est.c - pad_rows(truth.c, pmax)
    denom_fro = 0.5 * (np.sum(truth.x1**2) + np.sum(truth.x2**2)) / TOTAL_VARIANCE
    denom_spec = 0.5 * (spec(truth.x1) + spec(truth.x2)) / TOTAL_VARIANCE
    out = {
        "scaled_sq_error_c_fro": float(np.sum(diff**2) / denom_fro),
        "scaled_sq_error_c_spec": float(spec(diff) / denom_spec),
    }
    for k, x in enumerate((truth.x1, truth.x2), start=1):
        d = est.c_scaled[k - 1] - np.sqrt(TOTAL_VARIANCE) * truth.c
        out[f"scaled_sq_error_c{k}_fro"] = float(np.sum(d**2) / np.sum(x**2))
        out[f"scaled_sq_error_c{k}_spec"] = float(spec(d) / spec(x))
    trace_abs = abs(est.explained - truth.explained)
    out["trace_abs_error"] = float(trace_abs)
    out["trace_rel_error"] = float(trace_abs / truth.explained)
    return out


def _panel():
    for setup in (1, 2):
        for theta in (0.0, 15.0, 30.0, 45.0, 75.0):
            r12 = int(np.sum(planted_correlations(theta) > 0))
            cfg = SimulationConfig(
                setup=setup, theta_deg=theta, p1=60, n=80, seed=int(theta) + setup
            )
            yield cfg, RankProfile(5, 5, r12)
            yield cfg, None
    # a padded draw whose correlation screen finds no shared rank (r1, r2 >= 1)
    yield SimulationConfig(
        setup=2, theta_deg=75.0, p1=60, n=60, noise_var=64.0, seed=4
    ), None


def test_error_metrics_agree_with_dense_formulas():
    saw_zero_width = False
    for cfg, ranks in _panel():
        y1, y2, truth = generate_setup(cfg)
        fit = estimate_cdpa(
            y1, y2, CdpaConfig(ranks=ranks, perm="identity", sign="plus", center=False)
        )
        saw_zero_width |= fit.patterns.c_factors[0].shape[1] == 0
        got = error_metrics(fit.patterns, truth).as_dict()
        want = _dense_metrics(fit.patterns, truth)
        assert list(got) == list(want)
        for name, value in want.items():
            if name.startswith("trace_"):
                assert got[name] == value, (cfg, name)
            else:
                assert abs(got[name] - value) <= 1e-12 * abs(value), (cfg, name)
    assert saw_zero_width


def test_error_metrics_spectral_zero_for_perfect_estimate():
    for setup in (1, 2):
        cfg = SimulationConfig(setup=setup, theta_deg=30.0, p1=40, n=60, seed=16)
        _, _, truth = generate_setup(cfg)
        fake = _perfect_estimate(truth)
        report = error_metrics(fake, truth)
        for name in ("c", "c1", "c2"):
            for norm in ("fro", "spec"):
                assert getattr(report, f"scaled_sq_error_{name}_{norm}") <= 1e-24
        assert report.trace_abs_error == 0.0


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(0, 6),
    distinct=st.integers(1, 6),
    exp_left=st.integers(-100, 100),
    exp_right=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_of_factors_matches_dense(width, distinct, exp_left, exp_right, seed):
    rng = np.random.default_rng(seed)
    # columns drawn from fewer distinct ones leave the left factor rank-deficient
    base = rng.standard_normal((30, distinct))
    left = base[:, rng.integers(0, distinct, size=width)] * 10.0**exp_left
    right = rng.standard_normal((width, 20)) * 10.0**exp_right
    got = _factor_norms(left, right)
    if width == 0:
        assert got == (0.0, 0.0)
    else:
        dense = left @ right
        # hypot scales its arguments, so the reference itself cannot overflow
        want = (math.hypot(*dense.ravel()), np.linalg.norm(dense, 2))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w


_FIXED = CdpaConfig(ranks=RankProfile(5, 5, 5), perm="identity", sign="plus", center=False)


def test_error_metrics_takes_no_large_svd(monkeypatch):
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=300, n=300, seed=17)
    y1, y2, truth = generate_setup(cfg)
    fit = estimate_cdpa(y1, y2, _FIXED)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    # np.linalg.norm(x, 2) calls the implementation module's own binding
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", recording_svd)
    error_metrics(fit.patterns, truth)
    assert shapes
    assert max(max(s) for s in shapes) <= 10, shapes


def test_error_metrics_forms_no_dense_pattern():
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=1000, n=1000, seed=19)
    y1, y2, truth = generate_setup(cfg)
    fit = estimate_cdpa(y1, y2, _FIXED)
    tracemalloc.start()
    try:
        error_metrics(fit.patterns, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 1000 * 8, peak  # one p x n array
    for cached in ("c", "c_scaled"):
        assert cached not in vars(fit.patterns) and cached not in vars(truth)
