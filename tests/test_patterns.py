import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdpa import (
    BadConfig,
    CdpaConfig,
    CdpaError,
    NumericalError,
    ObservedMatrix,
    RankProfile,
    RankTooLarge,
    SimulationConfig,
    TooFewSamples,
    assemble_patterns,
    bootstrap_ci,
    canonical_system,
    center_rows,
    choose_sign,
    closed_form_explained_variance,
    common_factor_scores,
    common_loadings,
    estimate_cdpa,
    generate_setup,
    mixing_channel,
    pattern_decomposition,
    population_cdpa,
    principal_angles,
    select_ranks,
    soft_threshold_denoise,
    source_decomposition,
)
from cdpa._linalg import pad_rows, random_orthonormal
from cdpa.simulate import EIGENVALUES, TOTAL_VARIANCE, planted_correlations

from helpers import (
    estimates_from,
    exact_signal_pair,
    record_linalg,
    rel_err,
    rotate_pair,
    rotate_system,
    serial_map,
)

LAM = [500.0, 400.0, 300.0, 200.0, 100.0]


def _fixed_cfg(r12, perm="identity", sign="plus", r=5):
    return CdpaConfig(
        ranks=RankProfile(r, r, r12), perm=perm, sign=sign, center=False
    )


# ---------------------------------------------------------- common_loadings


def _pair_for(x1, x2, r, r12):
    e1, e2 = estimates_from(x1, x2, r, r)
    system = canonical_system(e1, e2, r12)
    c0 = common_factor_scores(system)
    chan1 = mixing_channel(e1, system, 1)
    chan2 = mixing_channel(e2, system, 2)
    src1 = source_decomposition(e1, chan1, c0)
    src2 = source_decomposition(e2, chan2, c0)
    pmax = max(x1.shape[0], x2.shape[0])
    from cdpa import orthonormal_basis

    q1 = pad_rows(orthonormal_basis(chan1), pmax)
    q2a = pad_rows(orthonormal_basis(chan2), pmax)
    pair = principal_angles(q1, q2a, np.arange(pmax))
    return dict(
        pair=pair,
        chan1=pad_rows(chan1, pmax),
        chan2=pad_rows(chan2, pmax),
        c0=c0,
        scales=(e1.root_trace, e2.root_trace),
        system=system,
        ests=(e1, e2),
        srcs=(src1, src2),
    )


def _loadings(ctx, pair=None):
    """``(plus, minus)`` common loadings of the context's channels."""
    pair = ctx["pair"] if pair is None else pair
    return common_loadings(pair, ctx["chan1"], ctx["chan2"], ctx["scales"])


def test_dual_weights_identical_channels():
    # equal dual weights: the consensus is either weight and the minus
    # orientation's consensus vanishes
    rng = np.random.default_rng(0)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.full(5, 0.8), 80)
    ctx = _pair_for(x, x.copy(), 5, 5)
    minus = _loadings(ctx)[1]
    np.testing.assert_allclose(minus, 0 * minus, atol=1e-10)


def test_dual_weights_scale_cancellation():
    rng = np.random.default_rng(1)
    rho = np.array([0.9, 0.6, 0.4])
    x1, x2, _ = exact_signal_pair(rng, 25, 32, [9.0, 4.0, 1.0], rho, 70)
    base = _loadings(_pair_for(x1, x2, 3, 3))
    scaled = _loadings(_pair_for(3.7 * x1, 0.2 * x2, 3, 3))
    for got, want in zip(scaled, base):
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_population_loadings_match_planted():
    # at 75 degrees the correlations are distinct, so the principal-vector
    # pairs are the planted pairs up to sign and the loadings are
    # (1 - tan(theta/2)) (q1 + q2) / 2 * sqrt(lam / total) per pair
    v1, lam, v2, _, z_cross = _planted_factors(theta=75.0, p=40)
    pop = population_cdpa(v1, lam, v2, lam, z_cross)
    rho = planted_correlations(75.0)[: pop.r12]
    tan_half = np.sqrt((1 - rho) / (1 + rho))
    root = np.sqrt(EIGENVALUES[: pop.r12] / TOTAL_VARIANCE)
    want = (1 - tan_half) * (v1[:, : pop.r12] + v2[:, : pop.r12]) / 2 * root
    signs = np.sign(np.sum(pop.b_c * want, axis=0))
    assert np.all(signs != 0)
    np.testing.assert_allclose(pop.b_c * signs, want, atol=1e-8)


def _planted_factors(theta, p, seed=5):
    rng = np.random.default_rng(seed)
    rho = planted_correlations(theta)
    r12 = int(np.sum(rho > 0))
    q1 = random_orthonormal(rng, p, r12)
    g = rng.standard_normal((p, r12))
    g -= q1 @ (q1.T @ g)
    w, _ = np.linalg.qr(g)
    q2 = q1 * rho[:r12] + w * np.sqrt(1 - rho[:r12] ** 2)

    def complete(q):
        g2 = rng.standard_normal((p, 5 - r12))
        g2 -= q @ (q.T @ g2)
        return np.hstack([q, np.linalg.qr(g2)[0]])

    return complete(q1), EIGENVALUES, complete(q2), EIGENVALUES, np.diag(rho)


# ---------------------------------------------------- common pattern (c_b s c0)


def test_common_pattern_orthogonal_channels_is_zero():
    rng = np.random.default_rng(3)
    # orthogonal channel subspaces: planted channel cosines all zero
    rho = np.array([0.9, 0.7, 0.5])
    x1, x2, _ = exact_signal_pair(
        rng, 30, 30, [9.0, 4.0, 1.0], rho, 80, planted_channel_cos=np.zeros(3)
    )
    ctx = _pair_for(x1, x2, 3, 3)
    c = _loadings(ctx)[0] @ ctx["c0"]
    assert np.linalg.norm(c) <= 1e-8 * np.linalg.norm(x1)


def test_common_pattern_identical_datasets():
    rng = np.random.default_rng(4)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.full(5, 0.6), 90)
    ctx = _pair_for(x, x.copy(), 5, 5)
    c = _loadings(ctx)[0] @ ctx["c0"]
    scale = ctx["scales"][0]
    assert rel_err(c, ctx["ests"][0].xhat / scale) <= 1e-8


def test_population_explained_at_fifteen_degrees():
    pop = population_cdpa(*_planted_factors(theta=15.0, p=40))
    np.testing.assert_allclose(pop.explained, 0.479, atol=2e-3)


# ------------------------------------------------------ pattern_decomposition


def test_patterns_keep_common_factors():
    shared_ranks = set()
    for setup, noise, seed in ((1, 1.0, 19), (2, 1.0, 20), (2, 64.0, 4)):
        cfg = SimulationConfig(
            setup=setup, theta_deg=75.0, p1=60, n=60, noise_var=noise, seed=seed
        )
        y1, y2, _ = generate_setup(cfg)
        fit = estimate_cdpa(y1, y2, CdpaConfig(perm="identity", center=False))
        pat = fit.patterns
        loadings, scores = pat.c_factors
        r12 = fit.ranks.r12
        shared_ranks.add(r12)
        assert loadings.shape == (max(y1.p, y2.p), r12)
        assert scores.shape == (r12, 60)
        assert np.array_equal(pat.c, loadings @ scores)
        np.testing.assert_allclose(pat.explained, np.sum(pat.c**2) / 60, rtol=1e-12)
        if r12:
            choice = fit.sign_choice
            assert pat.explained == (choice.trace_plus if fit.sign == 1 else choice.trace_minus)
        for k in range(2):
            assert np.array_equal(pat.c_scaled[k], pat.scales[k] * pat.c)
    assert 0 in shared_ranks and len(shared_ranks) > 1


def test_patterns_identical_datasets_no_distinctive():
    rng = np.random.default_rng(5)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.full(5, 0.6), 90)
    fit = estimate_cdpa(
        ObservedMatrix(x), ObservedMatrix(x.copy()), _fixed_cfg(5)
    )
    scale = np.linalg.norm(x)
    for k in range(2):
        assert np.linalg.norm(fit.patterns.delta[k]) <= 1e-8 * scale
        assert np.linalg.norm(fit.patterns.h[k]) <= 1e-8 * scale


def test_patterns_orthogonal_channels_all_distinctive():
    rng = np.random.default_rng(6)
    rho = np.array([0.9, 0.7, 0.5])
    x1, x2, _ = exact_signal_pair(
        rng, 28, 28, [9.0, 4.0, 1.0], rho, 80, planted_channel_cos=np.zeros(3)
    )
    fit = estimate_cdpa(
        ObservedMatrix(x1), ObservedMatrix(x2), _fixed_cfg(3, r=3)
    )
    assert np.linalg.norm(fit.patterns.c) <= 1e-8 * np.linalg.norm(x1)
    for k, x in enumerate((x1, x2)):
        np.testing.assert_allclose(
            fit.patterns.delta[k], fit.patterns.aligned_x[k], atol=1e-7
        )


def test_pattern_decomposition_additivity_exact():
    rng = np.random.default_rng(7)
    for trial, (p1, p2) in enumerate([(24, 24), (30, 18), (17, 29)]):
        rho = np.sort(rng.uniform(0.1, 0.95, 4))[::-1]
        x1, x2, _ = exact_signal_pair(rng, p1, p2, [8, 6, 4, 2], rho, 66)
        fit = estimate_cdpa(
            ObservedMatrix(x1), ObservedMatrix(x2), _fixed_cfg(4, r=4)
        )
        pat = fit.patterns
        for k in range(2):
            assert (
                rel_err(pat.c_scaled[k] + pat.delta[k], pat.aligned_x[k]) <= 1e-10
            )
            # rescaled pattern is an exact scalar multiple of the common one
            scale = np.sum(pat.c_scaled[k] * pat.c) / np.sum(pat.c * pat.c)
            assert rel_err(pat.c_scaled[k], scale * pat.c) <= 1e-12
        # h + aligned distinctive source equals delta
        src = pat.sources
        pmax = max(p1, p2)
        d1 = pad_rows(src[0].d, pmax)
        d2 = pad_rows(src[1].d, pmax)[fit.permutation.perm]
        assert rel_err(pat.h[0] + d1, pat.delta[0]) <= 1e-10
        assert rel_err(pat.h[1] + d2, pat.delta[1]) <= 1e-10


def test_pattern_decomposition_monte_carlo_error():
    errs = []
    for i in range(30):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=3000 + i
        )
        y1, y2, truth = generate_setup(cfg)
        fit = estimate_cdpa(y1, y2, _fixed_cfg(truth.r12))
        num = np.linalg.norm(fit.patterns.c - truth.c) ** 2
        den = 0.5 * (
            np.linalg.norm(truth.x1) ** 2 + np.linalg.norm(truth.x2) ** 2
        ) / TOTAL_VARIANCE
        errs.append(num / den)
    assert np.mean(errs) < 0.1


# ----------------------------------------------------------- population_cdpa


def test_population_explained_matches_reported_sweep():
    want = {0: 0.890, 15: 0.479, 30: 0.213, 45: 0.126, 60: 0.092, 75: 0.088}
    for theta, value in want.items():
        pop = population_cdpa(*_planted_factors(theta=float(theta), p=40))
        np.testing.assert_allclose(pop.explained, value, atol=2e-3)


def test_population_full_commonality():
    rng = np.random.default_rng(8)
    v = random_orthonormal(rng, 30, 5)
    pop = population_cdpa(v, EIGENVALUES, v.copy(), EIGENVALUES, np.eye(5))
    np.testing.assert_allclose(pop.explained, 1.0, atol=1e-10)


def test_population_per_component_closed_form():
    # theta = 75 has distinct correlations, so per-component values are
    # well defined; elsewhere only tied-block sums are stable
    pop = population_cdpa(*_planted_factors(theta=75.0, p=40))
    rho = planted_correlations(75.0)[:3]
    tan_half = np.sqrt((1 - rho) / (1 + rho))
    want = (
        EIGENVALUES[:3] * (1 - tan_half) ** 4 * (1 + rho) ** 2 / (4 * TOTAL_VARIANCE)
    )
    np.testing.assert_allclose(pop.contributions, want, atol=1e-10)
    np.testing.assert_allclose(
        pop.explained, closed_form_explained_variance(75.0), atol=1e-12
    )


# --------------------------------------------------------------- bootstrap_ci


def _fixed_fit(y1, y2, ranks):
    config = CdpaConfig(ranks=ranks, perm="identity", sign="plus", center=False)
    return estimate_cdpa(y1, y2, config)


def test_bootstrap_degenerate_columns_zero_width():
    rng = np.random.default_rng(10)
    u = rng.standard_normal((8, 1))
    w = rng.standard_normal((8, 1))
    y1 = ObservedMatrix(np.tile(u, (1, 30)))
    y2 = ObservedMatrix(np.tile(0.5 * u + w, (1, 30)))
    fit = _fixed_fit(y1, y2, RankProfile(1, 1, 1))
    ci = bootstrap_ci(y1, y2, fit, replicates=100, level=0.9, seed=1)
    assert ci.lower == pytest.approx(ci.upper, abs=1e-12)
    assert ci.point == pytest.approx(ci.lower, abs=1e-12)


def test_bootstrap_width_shrinks_with_sample_size():
    widths = {}
    for n in (100, 200):
        per = []
        for rep in range(6):
            cfg = SimulationConfig(
                setup=1, theta_deg=15.0, p1=40, n=n, noise_var=0.5, seed=500 + rep
            )
            y1, y2, truth = generate_setup(cfg)
            fit = _fixed_fit(y1, y2, RankProfile(5, 5, truth.r12))
            ci = bootstrap_ci(y1, y2, fit, replicates=120, seed=rep)
            per.append(ci.upper - ci.lower)
        widths[n] = np.mean(per)
    assert widths[200] < widths[100]


def test_bootstrap_does_not_depend_on_threads(monkeypatch):
    # the replicates shared out over the worker threads give the interval
    # of a serial loop on the caller, bit for bit
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=40, n=80, noise_var=0.5, seed=12)
    y1, y2, truth = generate_setup(cfg)
    fit = _fixed_fit(y1, y2, RankProfile(5, 5, truth.r12))
    shared = bootstrap_ci(y1, y2, fit, replicates=100, seed=3)
    serial_map(monkeypatch)
    assert bootstrap_ci(y1, y2, fit, replicates=100, seed=3) == shared


def test_bootstrap_guards():
    rng = np.random.default_rng(11)
    y = ObservedMatrix(rng.standard_normal((10, 40)))
    fit = _fixed_fit(y, y, RankProfile(2, 2, 1))
    with pytest.raises(BadConfig):
        bootstrap_ci(y, y, fit, replicates=50)
    with pytest.raises(BadConfig):
        bootstrap_ci(y, y, fit, replicates=100, level=1.5)
    with pytest.raises(BadConfig):
        bootstrap_ci(y, y, fit, replicates=100, seed=-1)
    for counts in ({"replicates": 100.5}, {"seed": 1.5}):
        with pytest.raises(BadConfig, match="integer"):
            bootstrap_ci(y, y, fit, **{"replicates": 100, **counts})
    for level in ("0.9", None, True):
        with pytest.raises(BadConfig, match="real number"):
            bootstrap_ci(y, y, fit, replicates=100, level=level)


@pytest.mark.slow
def test_bootstrap_coverage_of_population_value():
    # percentile intervals cover the population explained variance
    target = closed_form_explained_variance(15.0)
    covered = 0
    for rep in range(100):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=60, n=300, noise_var=0.25, seed=40_000 + rep
        )
        y1, y2, truth = generate_setup(cfg)
        fit = _fixed_fit(y1, y2, RankProfile(5, 5, truth.r12))
        ci = bootstrap_ci(y1, y2, fit, replicates=120, level=0.95, seed=rep)
        covered += ci.lower <= target <= ci.upper
    assert covered >= 85


# -------------------------------------------------------------- estimate_cdpa


def test_estimate_identical_datasets_full_explained():
    rng = np.random.default_rng(12)
    x, _, _ = exact_signal_pair(rng, 40, 40, LAM, np.full(5, 0.7), 100)
    fit = estimate_cdpa(ObservedMatrix(x), ObservedMatrix(x.copy()), _fixed_cfg(5))
    np.testing.assert_allclose(fit.patterns.explained, 1.0, atol=1e-6)


def test_estimate_pure_noise_takes_trivial_path():
    hits = 0
    for i in range(20):
        rng = np.random.default_rng(20_000 + i)
        y1 = ObservedMatrix(rng.standard_normal((80, 240)))
        y2 = ObservedMatrix(rng.standard_normal((90, 240)))
        fit = estimate_cdpa(y1, y2, CdpaConfig(center=False))
        hits += fit.patterns.r12_zero
        if fit.patterns.r12_zero:
            assert fit.patterns.explained == 0.0
            np.testing.assert_array_equal(
                fit.patterns.delta[0], fit.patterns.aligned_x[0]
            )
    assert hits >= 18


def test_estimate_auto_ranks_on_benchmark():
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=77
    )
    y1, y2, truth = generate_setup(cfg)
    fit = estimate_cdpa(y1, y2, CdpaConfig(center=False))
    assert (fit.ranks.r1, fit.ranks.r2, fit.ranks.r12) == (5, 5, 5)
    assert not fit.patterns.r12_zero


def test_estimate_scale_invariance():
    rng = np.random.default_rng(13)
    rho = np.array([0.85, 0.55, 0.25])
    x1, x2, _ = exact_signal_pair(rng, 26, 21, [9.0, 4.0, 1.0], rho, 60)
    y1 = x1 + 0.05 * np.random.default_rng(14).standard_normal(x1.shape)
    y2 = x2 + 0.05 * np.random.default_rng(15).standard_normal(x2.shape)
    base = estimate_cdpa(ObservedMatrix(y1), ObservedMatrix(y2), _fixed_cfg(3, r=3))
    scaled = estimate_cdpa(
        ObservedMatrix(4.2 * y1), ObservedMatrix(0.37 * y2), _fixed_cfg(3, r=3)
    )
    assert rel_err(scaled.patterns.c, base.patterns.c) <= 1e-8
    assert rel_err(scaled.patterns.c_scaled[0], 4.2 * base.patterns.c_scaled[0]) <= 1e-8
    assert (
        rel_err(scaled.patterns.c_scaled[1], 0.37 * base.patterns.c_scaled[1]) <= 1e-8
    )


@lru_cache(maxsize=None)
def _scale_draw():
    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=300, n=300, seed=3))
    return y1.values, y2.values, estimate_cdpa(y1, y2)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=-150, max_value=150))
@example(k=-160)
@example(k=-158)
@example(k=-150)
@example(k=-100)
@example(k=0)
@example(k=100)
@example(k=150)
def test_estimate_does_not_depend_on_extreme_scale(k):
    y1, y2, base = _scale_draw()
    fit = estimate_cdpa(ObservedMatrix(10.0**k * y1), ObservedMatrix(10.0**k * y2))
    assert fit.ranks == base.ranks == RankProfile(5, 5, 5)
    assert abs(fit.patterns.explained - base.patterns.explained) <= 1e-10 * base.patterns.explained


def test_estimate_overflowing_scale_is_a_numerical_error():
    # every squared singular value exceeds the largest float64
    y1, y2, _ = _scale_draw()
    with pytest.raises(NumericalError, match="overflows"):
        estimate_cdpa(ObservedMatrix(1e155 * y1), ObservedMatrix(1e155 * y2))


def test_estimate_joint_sign_flip_antisymmetry():
    cfg = SimulationConfig(
        setup=1, theta_deg=30.0, p1=50, n=120, noise_var=0.5, seed=16
    )
    y1, y2, truth = generate_setup(cfg)
    plus = estimate_cdpa(y1, y2, _fixed_cfg(truth.r12))
    minus = estimate_cdpa(
        ObservedMatrix(-y1.values), ObservedMatrix(-y2.values), _fixed_cfg(truth.r12)
    )
    np.testing.assert_array_equal(minus.patterns.c, -plus.patterns.c)


def test_estimate_setup2_shapes_and_angle():
    cfg = SimulationConfig(
        setup=2, theta_deg=75.0, p1=300, n=300, noise_var=1.0, seed=17
    )
    y1, y2, truth = generate_setup(cfg)
    assert y2.values.shape[0] == 900
    fit = estimate_cdpa(y1, y2, _fixed_cfg(truth.r12))
    angle = np.degrees(np.arccos(fit.pair.cosines[0]))
    assert 29.0 <= angle <= 33.0
    for k in range(2):
        assert fit.patterns.aligned_x[k].shape == (900, 300)


def test_estimate_rejects_mismatched_samples():
    rng = np.random.default_rng(18)
    from cdpa import InputError

    with pytest.raises(InputError):
        estimate_cdpa(
            ObservedMatrix(rng.standard_normal((5, 30))),
            ObservedMatrix(rng.standard_normal((5, 31))),
        )


@pytest.mark.parametrize("r12", [0, 3])
def test_estimate_rejects_invalid_provided_permutation(r12):
    from cdpa import InputError

    y1, y2, _ = generate_setup(
        SimulationConfig(setup=1, theta_deg=30.0, p1=60, n=150, seed=64)
    )
    for perm in (np.arange(7), [0.5] * 60):
        with pytest.raises(InputError):
            estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, r12), perm=perm))
    # a valid plan is accepted; a zero shared rank still aligns by the identity
    fit = estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, r12), perm=np.arange(60)[::-1]))
    assert fit.permutation.method == ("identity" if r12 == 0 else "provided")


def test_estimate_auto_ranks_takes_one_gram_eigh_per_dataset(monkeypatch):
    y1, y2, _ = generate_setup(
        SimulationConfig(setup=2, theta_deg=30.0, p1=300, n=300, seed=61)
    )
    shapes = record_linalg(monkeypatch)
    result = estimate_cdpa(y1, y2)
    assert result.ranks.r12 >= 1 and result.sign_choice is not None
    # both datasets have p >= n, so each forms one n x n Gram matrix and
    # reduces it once, for ED's values alone; the selected rank takes its
    # top-r pairs from one certified filtered iteration; no dense
    # eigensolver above the order 2 (r + 3) of the iteration's start, no
    # SVD fallback
    ranks = (result.ranks.r1, result.ranks.r2)
    assert shapes["gram"] == [(300, 300), (300, 300)]
    assert shapes["reduce"] == [(300, 300), (300, 300)]
    assert shapes["spectrum"] == [(300, 300), (300, 300)]
    assert shapes["iterate"] == [((300, 300), r) for r in ranks]
    assert shapes["top"] == []
    assert shapes["eigh"] and all(max(s) <= 2 * (max(ranks) + 3) for s in shapes["eigh"])
    assert [s for s in shapes["svd"] if min(s) > 10] == []


@pytest.mark.parametrize("p1", [100, 300])
def test_estimate_fixed_ranks_takes_one_top_r_solve_per_dataset(monkeypatch, p1):
    y1, y2, _ = generate_setup(
        SimulationConfig(setup=1, theta_deg=30.0, p1=p1, n=300, seed=61)
    )
    shapes = record_linalg(monkeypatch)
    estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 4, 3)))
    m = min(p1, 300)
    # one Gram matrix per dataset and one top-r solve per rank: at m = 300
    # (at least 18 (r + 3)) a certified filtered iteration and no
    # reduction; at m = 100 the iteration declines and one reduction
    # gives the pairs; no whole spectrum, no dense eigensolver above the
    # order 2 (r + 3) of the iteration's start, no SVD fallback
    assert shapes["gram"] == [(m, m), (m, m)]
    assert shapes["iterate"] == [((m, m), 5), ((m, m), 4)]
    if m >= 18 * 8:
        assert shapes["reduce"] == [] and shapes["top"] == []
        assert shapes["eigh"] and all(max(s) <= 16 for s in shapes["eigh"])
    else:
        assert shapes["reduce"] == [(m, m), (m, m)]
        assert shapes["top"] == [((m, m), 5), ((m, m), 4)]
        assert shapes["eigh"] == []
    assert shapes["spectrum"] == []
    assert [s for s in shapes["svd"] if min(s) > 10] == []


def test_estimate_memory_is_a_small_multiple_of_the_input():
    # the result keeps factors; dense patterns are formed only when read
    y1, y2, _ = generate_setup(
        SimulationConfig(setup=2, theta_deg=30.0, p1=2000, n=200, seed=65)
    )
    size = y1.values.nbytes + y2.values.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = estimate_cdpa(y1, y2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ranks.r12 >= 1
    assert peak - before <= 4 * size
    assert kept - before <= size


def _pattern_arrays(p):
    return [p.c, *p.c_factors, *p.c_scaled, *p.h, *p.delta, *p.aligned_x]


def _orientation_arrays(system, sources, channels, pair):
    """Every array of one orientation's system, sources, channels and pair."""
    return [
        system.z1,
        system.z2,
        system.correlations,
        *(a for src in sources for a in (src.c, src.d)),
        *channels,
        pair.q1,
        pair.q2a,
        pair.cosines,
        pair.v_b1,
        pair.v_b2,
    ]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("setup", [1, 2])
def test_sign_auto_matches_two_dense_assemblies(setup):
    signs = set()
    for theta in (0.0, 30.0, 75.0):
        y1, y2, _ = generate_setup(
            SimulationConfig(setup=setup, theta_deg=theta, p1=100, n=300, seed=62)
        )
        for negate in (False, True):
            y2s = ObservedMatrix(-y2.values) if negate else y2
            result = estimate_cdpa(y1, y2s)
            # the reference: both orientations of dataset 2 assembled in full,
            # each from its own canonical system
            ranks, x1, x2 = select_ranks(center_rows(y1), center_rows(y2s))
            refs = []
            for x2o in (x2, replace(x2, left_vectors=-x2.left_vectors)):
                system = canonical_system(x1, x2o, ranks.r12)
                refs.append((system, *assemble_patterns(x1, x2o, system)[:2]))
            runs = [ref[1] for ref in refs]
            want = choose_sign(*(run.explained for run in runs))
            assert result.sign == want.sign
            system, chosen, pair = refs[0 if want.sign == 1 else 1]
            sources = chosen.sources
            channels = [src.channel for src in sources]
            for got, ref in zip(_pattern_arrays(result.patterns), _pattern_arrays(chosen)):
                assert np.array_equal(got, ref)
            assert result.patterns.explained == chosen.explained
            fitted = result.patterns.sources
            got = _orientation_arrays(
                result.system, fitted, [src.channel for src in fitted], result.pair
            )
            ref = _orientation_arrays(system, sources, channels, pair)
            assert len(got) == len(ref)
            assert all(_same_bits(a, b) for a, b in zip(got, ref))
            np.testing.assert_allclose(result.sign_choice.trace_plus, runs[0].explained, rtol=1e-12)
            np.testing.assert_allclose(result.sign_choice.trace_minus, runs[1].explained, rtol=1e-12)
            signs.add(result.sign)
    assert signs == {1, -1}


@pytest.mark.parametrize("perm", ["identity", "dspfp"])
def test_sign_auto_builds_one_canonical_system(monkeypatch, perm):
    import cdpa.patterns

    calls = []
    build = cdpa.patterns.canonical_system

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cdpa.patterns, "canonical_system", counting)
    y1, y2, _ = generate_setup(
        SimulationConfig(setup=1, theta_deg=30.0, p1=100, n=300, seed=63)
    )
    result = estimate_cdpa(y1, y2, CdpaConfig(perm=perm, sign="auto"))
    assert result.ranks.r12 >= 1 and result.sign_choice is not None
    assert result.permutation.method == perm
    assert len(calls) == 1


def _independent_signals(p1, p2, n, seed):
    """Rank-3 signals in each dataset with no shared structure, plus noise."""
    rng = np.random.default_rng(seed)
    ys = []
    for p in (p1, p2):
        signal = rng.standard_normal((p, 3)) @ (
            np.diag([30.0, 20.0, 10.0]) @ rng.standard_normal((3, n))
        )
        ys.append(ObservedMatrix(signal + rng.standard_normal((p, n))))
    return ys


@pytest.mark.parametrize("case", ["auto", "dspfp", "provided", "zero-r12", "screen-false"])
def test_estimate_assembles_once_through_assemble_patterns(monkeypatch, case):
    import cdpa.patterns

    calls = []
    assemble = cdpa.patterns.assemble_patterns

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cdpa.patterns, "assemble_patterns", counting)
    if case == "screen-false":
        y1, y2 = _independent_signals(80, 90, 300, 9)
    else:
        y1, y2, _ = generate_setup(
            SimulationConfig(setup=1, theta_deg=30.0, p1=100, n=300, seed=63)
        )
    config = {
        "dspfp": CdpaConfig(perm="dspfp"),
        "provided": CdpaConfig(perm=np.arange(100)[::-1]),
        "zero-r12": CdpaConfig(ranks=RankProfile(5, 5, 0)),
    }.get(case, CdpaConfig(sign="auto"))
    result = estimate_cdpa(y1, y2, config)
    assert result.patterns.r12_zero == (case in ("zero-r12", "screen-false"))
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["independent", "pure-noise"])
def test_zero_shared_rank_is_the_zero_width_case(case):
    if case == "independent":
        y1, y2 = _independent_signals(80, 90, 300, 9)
        ranks = None
    else:
        rng = np.random.default_rng(10)
        y1 = ObservedMatrix(rng.standard_normal((80, 300)))
        y2 = ObservedMatrix(rng.standard_normal((90, 300)))
        ranks = RankProfile(0, 0, 0)
    result = estimate_cdpa(y1, y2, CdpaConfig(ranks=ranks, perm="dspfp", sign="auto"))
    assert result.ranks.r12 == 0
    if case == "independent":
        assert min(result.ranks.r1, result.ranks.r2) >= 1
    p = result.patterns
    assert p.r12_zero
    assert result.permutation.method == "identity"
    assert result.sign == 1 and result.sign_choice is None
    for k, (y, r) in enumerate(((y1, result.ranks.r1), (y2, result.ranks.r2))):
        xhat = soft_threshold_denoise(center_rows(y), r).xhat
        assert not np.any(p.sources[k].c)
        assert _same_bits(p.sources[k].d, xhat)
        assert p.sources[k].channel.shape == (y.p, 0)
        assert not np.any(p.h[k])
        assert _same_bits(p.delta[k], p.aligned_x[k])
    assert p.c_factors[0].shape == (90, 0) and p.c_factors[1].shape == (0, 300)
    assert p.explained == 0.0 and not np.any(p.c)


# ---------------------------------------------------- uniqueness under ties


def test_tied_canonical_block_rotation_invariance():
    rng = np.random.default_rng(19)
    rho = np.array([0.9, 0.9, 0.4])  # tied leading pair
    x1, x2, _ = exact_signal_pair(rng, 24, 28, [9.0, 4.0, 1.0], rho, 64)
    e1, e2 = estimates_from(x1, x2, 3, 3)
    system = canonical_system(e1, e2, 3)
    np.testing.assert_allclose(system.correlations[:2], [0.9, 0.9], atol=1e-9)
    base = assemble_patterns(e1, e2, system)[0]
    rotated_system = rotate_system(system, 0, 2, rng)
    got = assemble_patterns(e1, e2, rotated_system)[0]
    assert rel_err(got.c, base.c) <= 1e-8


def test_tied_principal_vector_rotation_invariance():
    rng = np.random.default_rng(20)
    rho = np.array([0.8, 0.8, 0.8])
    x1, x2, _ = exact_signal_pair(rng, 27, 27, [9.0, 4.0, 1.0], rho, 66)
    ctx = _pair_for(x1, x2, 3, 3)
    base = _loadings(ctx)[0] @ ctx["c0"]
    rotated = rotate_pair(ctx["pair"], 0, 3, rng)
    got = _loadings(ctx, rotated)[0] @ ctx["c0"]
    assert rel_err(got, base) <= 1e-8


# ------------------------------------------------------ permutation equivariance


@lru_cache(maxsize=None)
def _equivariance_draw(setup, ranks=None):
    y1, y2, _ = generate_setup(SimulationConfig(setup=setup, theta_deg=30.0, p1=300, n=300, seed=71))
    return y1.values, y2.values, estimate_cdpa(y1, y2, CdpaConfig(ranks=ranks))


def _assert_same_fit(fit, base, rows, cols):
    """``fit`` is ``base`` on inputs whose rows (per output height) and
    columns were permuted by ``rows[height]`` and ``cols``."""
    assert fit.ranks == base.ranks == RankProfile(5, 5, 5)
    assert fit.sign == base.sign
    assert np.array_equal(fit.permutation.perm, base.permutation.perm)
    assert abs(fit.patterns.explained - base.patterns.explained) <= 1e-10 * base.patterns.explained
    want = dict(base.patterns.columns())
    for name, got in fit.patterns.columns():
        # the column blocks hold the patterns transposed: samples by variables
        expect = want[name][cols][:, rows[got.shape[1]]]
        assert rel_err(got, expect) <= 1e-9, name


def _check_row_permutation(setup, ranks=None):
    # the identity alignment pairs row i of both datasets, so both are
    # permuted alike: the p_min paired rows among themselves, and the rows
    # that only the taller dataset has among themselves
    v1, v2, base = _equivariance_draw(setup, ranks)
    rng = np.random.default_rng(72)
    pmin, pmax = min(len(v1), len(v2)), max(len(v1), len(v2))
    perm = np.concatenate([rng.permutation(pmin), pmin + rng.permutation(pmax - pmin)])
    rows = {pmax: perm, pmin: perm[:pmin]}
    y1, y2 = ObservedMatrix(v1[rows[len(v1)]]), ObservedMatrix(v2[rows[len(v2)]])
    fit = estimate_cdpa(y1, y2, CdpaConfig(ranks=ranks))
    _assert_same_fit(fit, base, rows, np.arange(v1.shape[1]))


def _check_sample_permutation(setup, ranks=None):
    # the filtered top-r iteration starts from the samples with the largest
    # Gram diagonal, so its start block follows the order of the samples
    v1, v2, base = _equivariance_draw(setup, ranks)
    cols = np.random.default_rng(73).permutation(v1.shape[1])
    fit = estimate_cdpa(ObservedMatrix(v1[:, cols]), ObservedMatrix(v2[:, cols]), CdpaConfig(ranks=ranks))
    identity = {len(v): np.arange(len(v)) for v in (v1, v2)}
    _assert_same_fit(fit, base, identity, cols)


@pytest.mark.parametrize("setup", [1, 2])
def test_estimate_is_equivariant_under_row_permutations(setup):
    _check_row_permutation(setup)


@pytest.mark.parametrize("setup", [1, 2])
def test_estimate_is_equivariant_under_sample_permutations(setup):
    _check_sample_permutation(setup)


@pytest.mark.parametrize("setup", [1, 2])
def test_fixed_rank_estimate_is_equivariant_under_row_permutations(setup):
    _check_row_permutation(setup, RankProfile(5, 5, 5))


@pytest.mark.parametrize("setup", [1, 2])
def test_fixed_rank_estimate_is_equivariant_under_sample_permutations(setup):
    _check_sample_permutation(setup, RankProfile(5, 5, 5))


# ------------------------------------------------------- edges of the inputs


def _assert_finite_fit(fit):
    assert np.isfinite(fit.patterns.explained)
    assert np.all(np.isfinite(fit.diagnostics.snr)) and np.isfinite(fit.diagnostics.delta_theta)
    for name, rows in fit.patterns.columns():
        assert np.all(np.isfinite(rows)), name


@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("k", [0, 1])
def test_auto_ranks_read_a_one_row_dataset_as_rank_zero(center, k):
    # the 1 x 1 Gram's spectrum is its single entry
    rng = np.random.default_rng(74)
    signal = rng.standard_normal((30, 3)) @ (10.0 * rng.standard_normal((3, 50)))
    ys = [ObservedMatrix(signal + rng.standard_normal((30, 50)))]
    ys.insert(k, ObservedMatrix(rng.standard_normal((1, 50))))
    fit = estimate_cdpa(*ys, CdpaConfig(center=center))
    assert (fit.ranks.r1, fit.ranks.r2)[k] == 0 and fit.ranks.r12 == 0
    assert (fit.ranks.r1, fit.ranks.r2)[1 - k] >= 1
    _assert_finite_fit(fit)


def test_fixed_ranks_above_the_row_count_raise_rank_too_large():
    rng = np.random.default_rng(75)
    y1, y2 = (ObservedMatrix(rng.standard_normal((p, 50))) for p in (3, 30))
    for center in (True, False):
        with pytest.raises(RankTooLarge, match="rank 5 outside"):
            estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, 5), center=center))


@pytest.mark.parametrize("seed", range(4))
def test_auto_ranks_at_twenty_samples_are_finite_or_a_typed_error(seed):
    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=60, n=20, seed=seed))
    try:
        fit = estimate_cdpa(y1, y2, CdpaConfig())
    except CdpaError:
        return
    _assert_finite_fit(fit)


def test_auto_ranks_below_twenty_samples_raise_too_few_samples():
    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=60, n=19, seed=0))
    with pytest.raises(TooFewSamples, match="need n >= 20"):
        estimate_cdpa(y1, y2, CdpaConfig())
