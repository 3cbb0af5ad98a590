import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cdpa import (
    CdpaConfig,
    CdpaError,
    DegenerateThreshold,
    InputError,
    NumericalError,
    ObservedMatrix,
    RankProfile,
    RankTooLarge,
    SimulationConfig,
    TooFewSamples,
    ZeroSignal,
    canonical_system,
    center_rows,
    compute_diagnostics,
    correlation_screen,
    ed_select_rank,
    estimate_cdpa,
    generate_setup,
    mdl_select_r12,
    noise_root_trace,
    noise_trace,
    select_ranks,
    soft_threshold_denoise,
)
import cdpa.denoise
from cdpa._linalg import filtered_top, random_orthonormal, tridiagonal_top, tridiagonalize
from cdpa.denoise import _max_correlation, _screen_critical_z

from helpers import estimates_from, exact_signal_pair, held_worker, record_linalg


# ------------------------------------------------------------ ObservedMatrix


def test_observed_matrix_rejects_nonfinite():
    with pytest.raises(InputError, match="finite"):
        ObservedMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_observed_matrix_rejects_single_sample():
    with pytest.raises(InputError):
        ObservedMatrix(np.ones((3, 1)))


@pytest.mark.parametrize("values", [np.ones((3, 4)) + 1j, np.full((3, 4), "1.0")])
def test_observed_matrix_rejects_non_real_dtypes(values):
    with pytest.raises(InputError, match="dtype"):
        ObservedMatrix(values)


def test_observed_matrix_accepts_bool_and_integer_data():
    for values in (np.eye(3, 4, dtype=bool), np.arange(12).reshape(3, 4)):
        got = ObservedMatrix(values).values
        assert got.dtype == np.float64
        assert np.array_equal(got, values)


@pytest.mark.parametrize("ranks", [(3.0, 3, 2), (3, 3, 2.0), (True, 1, 0)])
def test_rank_profile_rejects_non_integer_ranks(ranks):
    with pytest.raises(InputError, match="integer"):
        RankProfile(*ranks)


# -------------------------------------------------------------- center_rows


def test_center_rows_constant_matrix():
    y = center_rows(ObservedMatrix(np.full((4, 5), 3.0)))
    np.testing.assert_array_equal(y.values, np.zeros((4, 5)))


def test_center_rows_idempotent():
    rng = np.random.default_rng(1)
    y = center_rows(ObservedMatrix(rng.standard_normal((6, 9))))
    again = center_rows(y)
    np.testing.assert_allclose(again.values, y.values, atol=1e-12)


def test_center_rows_small_example():
    y = center_rows(ObservedMatrix(np.array([[1.0, 2, 3], [4, 5, 6]])))
    np.testing.assert_allclose(y.values, [[-1, 0, 1], [-1, 0, 1]], atol=1e-12)


def test_center_rows_constant_rows_are_exact_zeros():
    # rows 2.5 * c_i leave a constant round-off residual after subtracting
    # the mean, an exactly rank-1 pattern that ED would select
    rng = np.random.default_rng(24)
    y1, y2 = (ObservedMatrix(np.outer(rng.standard_normal(p), np.full(50, 2.5))) for p in (30, 20))
    assert not np.any(center_rows(y1).values) and not np.any(center_rows(y2).values)
    fit = estimate_cdpa(y1, y2)
    assert (fit.ranks.r1, fit.ranks.r2, fit.ranks.r12) == (0, 0, 0)
    assert fit.diagnostics.snr == (0.0, 0.0)


# ---------------------------------------------------- soft_threshold_denoise


def test_soft_threshold_exact_low_rank_is_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 30))
    est = soft_threshold_denoise(ObservedMatrix(x), 4)
    assert est.tau <= 1e-20  # residual spectrum is numerically zero
    assert np.linalg.norm(est.xhat - x) <= 1e-10 * np.linalg.norm(x)


def test_soft_threshold_full_thresholding_gives_zero():
    # flat spectrum on a square matrix: tau * p exceeds the top values
    rng = np.random.default_rng(3)
    u = random_orthonormal(rng, 30, 30)
    v = random_orthonormal(rng, 30, 30)
    s = np.full(30, 10.0)
    s[:2] = 10.000001  # top-2 barely above the bulk
    y = (u * s) @ v.T
    est = soft_threshold_denoise(ObservedMatrix(y), 2)
    np.testing.assert_array_equal(est.xhat, np.zeros_like(y))
    np.testing.assert_array_equal(est.soft_singular_values, [0.0, 0.0])


def test_soft_threshold_shrinks_spectrum():
    rng = np.random.default_rng(4)
    y = ObservedMatrix(rng.standard_normal((25, 60)))
    raw = np.linalg.svd(y.values, compute_uv=False)
    est = soft_threshold_denoise(y, 5)
    assert np.all(est.soft_singular_values <= raw[:5] + 1e-12)
    assert np.all(np.diff(est.soft_singular_values) <= 1e-12)
    assert np.linalg.norm(est.xhat) <= np.linalg.norm(y.values)


def test_soft_threshold_factors_reconstruct():
    rng = np.random.default_rng(5)
    y = ObservedMatrix(rng.standard_normal((20, 50)))
    est = soft_threshold_denoise(y, 3)
    rebuilt = (est.left_vectors * est.soft_singular_values) @ est.right_vectors.T
    assert np.linalg.norm(rebuilt - est.xhat) <= 1e-10 * np.linalg.norm(est.xhat)


def test_soft_threshold_rank_monotone_energy():
    rng = np.random.default_rng(6)
    y = ObservedMatrix(rng.standard_normal((40, 80)))
    norms = [
        np.linalg.norm(soft_threshold_denoise(y, r).xhat) for r in range(1, 8)
    ]
    assert np.all(np.diff(norms) >= -1e-12)


def test_soft_threshold_guards():
    rng = np.random.default_rng(7)
    y = ObservedMatrix(rng.standard_normal((5, 6)))
    for r in (-1, 6):
        with pytest.raises(RankTooLarge):
            soft_threshold_denoise(y, r)
    with pytest.raises(DegenerateThreshold):
        soft_threshold_denoise(y, 3)  # 30 - 18 - 15 < 0
    # rank 0 is the zero-width estimate, calibrated on the whole energy
    est = soft_threshold_denoise(y, 0)
    assert est.left_vectors.shape == (5, 0) and est.right_vectors.shape == (6, 0)
    assert not np.any(est.xhat)
    np.testing.assert_allclose(est.tau, np.sum(y.values**2) / 30, rtol=1e-14)


def test_soft_threshold_monte_carlo_error():
    # planted benchmark at theta=15, p=300, noise 1, n=300
    errs = []
    for i in range(100):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=1000 + i
        )
        y1, _, truth = generate_setup(cfg)
        est = soft_threshold_denoise(y1, 5)
        errs.append(
            np.linalg.norm(est.xhat - truth.x1) ** 2 / np.linalg.norm(truth.x1) ** 2
        )
    assert np.mean(errs) < 0.1


# ------------------------------------------ signal covariance of an estimate


def test_signal_covariance_diagonal_case():
    rng = np.random.default_rng(8)
    n = 50
    q = random_orthonormal(rng, n, 2) * np.sqrt(n)
    x = np.zeros((6, n))
    x[0] = 2.0 * q[:, 0]  # squared row norm 4n
    x[1] = 1.0 * q[:, 1]  # squared row norm n
    est = soft_threshold_denoise(ObservedMatrix(x), 2)
    np.testing.assert_allclose(est.soft_singular_values**2 / n, [4.0, 1.0], atol=1e-10)


def test_signal_covariance_trace_identity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((15, 8)) @ rng.standard_normal((8, 40))
    est = soft_threshold_denoise(ObservedMatrix(x), 8)
    np.testing.assert_allclose(est.root_trace**2, np.sum(est.xhat**2) / 40, rtol=1e-12)


def test_signal_covariance_matches_dense_eigendecomposition():
    rng = np.random.default_rng(10)
    y = ObservedMatrix(rng.standard_normal((12, 30)))
    est = soft_threshold_denoise(y, 4)
    lam, v = est.soft_singular_values**2 / 30, est.left_vectors
    dense = est.xhat @ est.xhat.T / 30
    w = np.linalg.eigvalsh(dense)[::-1]
    np.testing.assert_allclose(lam, w[: est.rank], atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(est.rank), atol=1e-10)


def test_signal_covariance_monte_carlo_consistency():
    # population eigenvalues 500..100 recovered within 10 percent
    est_all = []
    for i in range(20):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=300, n=300, noise_var=0.25, seed=2000 + i
        )
        y1, _, _ = generate_setup(cfg)
        est_all.append(soft_threshold_denoise(y1, 5).soft_singular_values**2 / 300)
    mean_eig = np.mean(est_all, axis=0)
    np.testing.assert_allclose(mean_eig, [500, 400, 300, 200, 100], rtol=0.10)


def test_signal_covariance_zero_signal():
    rng = np.random.default_rng(11)
    u = random_orthonormal(rng, 30, 30)
    v = random_orthonormal(rng, 30, 30)
    y = ObservedMatrix((u * 10.0) @ v.T)
    est = soft_threshold_denoise(y, 1)
    with pytest.raises(ZeroSignal):
        canonical_system(est, est, 1)
    # a zero second estimate is reported before the first one's rank shortfall
    signal = soft_threshold_denoise(ObservedMatrix(rng.standard_normal((30, 30))), 1)
    with pytest.raises(ZeroSignal):
        canonical_system(signal, est, 2)


# ------------------------------------------------------------- ed_select_rank


def test_ed_pure_noise_selects_zero():
    hits = 0
    for i in range(30):
        rng = np.random.default_rng(3000 + i)
        y = ObservedMatrix(rng.standard_normal((100, 300)))
        hits += ed_select_rank(y) == 0
    assert hits >= 27  # >= 90 percent of seeds


def test_ed_benchmark_selects_five():
    hits = 0
    for i in range(30):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=4000 + i
        )
        y1, _, _ = generate_setup(cfg)
        hits += ed_select_rank(y1) == 5
    assert hits >= 29  # >= 95 percent of seeds


def test_ed_single_dominant_spike():
    rng = np.random.default_rng(12)
    u = random_orthonormal(rng, 80, 1)
    v = random_orthonormal(rng, 200, 1)
    y = ObservedMatrix(100.0 * u @ v.T + 0.5 * rng.standard_normal((80, 200)))
    assert ed_select_rank(y) == 1


def test_ed_too_few_samples():
    rng = np.random.default_rng(13)
    with pytest.raises(TooFewSamples):
        ed_select_rank(ObservedMatrix(rng.standard_normal((100, 10))))


@lru_cache(maxsize=None)
def _setup1_draw() -> np.ndarray:
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=300, n=300, seed=4100)
    return generate_setup(cfg)[0].values


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=-300, max_value=300))
@example(k=-150)
@example(k=150)
@example(k=-300)
@example(k=300)
def test_ed_rank_does_not_depend_on_scale(k):
    y = _setup1_draw()
    assert ed_select_rank(ObservedMatrix(10.0**k * y)) == ed_select_rank(ObservedMatrix(y))


def test_ed_zero_matrix_selects_zero():
    assert ed_select_rank(ObservedMatrix(np.zeros((60, 40)))) == 0


# --------------------------------------------------------- correlation_screen


def test_screen_identical_signals():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 60))
    e1, e2 = estimates_from(x, x.copy(), 3, 3)
    assert correlation_screen(e1, e2)


def test_screen_independent_signals_mostly_negative():
    hits = 0
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        x1, _, _ = exact_signal_pair(rng, 300, 300, [500, 400, 300, 200, 100],
                                     np.zeros(5), 300)
        rng2 = np.random.default_rng(6000 + i)
        x2, _, _ = exact_signal_pair(rng2, 300, 300, [500, 400, 300, 200, 100],
                                     np.zeros(5), 300)
        y1 = x1 + np.random.default_rng(7000 + i).standard_normal(x1.shape)
        y2 = x2 + np.random.default_rng(8000 + i).standard_normal(x2.shape)
        e1 = soft_threshold_denoise(ObservedMatrix(y1), 5)
        e2 = soft_threshold_denoise(ObservedMatrix(y2), 5)
        hits += correlation_screen(e1, e2)
    assert hits <= 2  # false positives in at most 10 percent of seeds


def test_screen_benchmark_signals_positive():
    hits = 0
    for i in range(20):
        cfg = SimulationConfig(
            setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=9000 + i
        )
        y1, y2, _ = generate_setup(cfg)
        e1 = soft_threshold_denoise(y1, 5)
        e2 = soft_threshold_denoise(y2, 5)
        hits += correlation_screen(e1, e2)
    assert hits == 20


def _dense_screen(x1, x2, alpha):
    """The screen on the dense p1 x p2 correlation matrix, as a reference."""

    def standardize(x):
        xc = x - x.mean(axis=1, keepdims=True)
        norms = np.sqrt((xc**2).sum(axis=1))
        norms[norms < 1e-300] = np.inf  # constant rows contribute zero correlation
        return xc / norms[:, None]

    r = standardize(x1.xhat) @ standardize(x2.xhat).T
    z = np.abs(np.arctanh(np.clip(r, -1 + 1e-15, 1 - 1e-15))) * np.sqrt(x1.n - 3)
    return bool(np.any(z >= norm.isf(alpha / (2.0 * r.size)))), float(np.max(np.abs(r)))


def _with_constant_rows(x, n):
    """``x`` with row 3 set to a nonzero constant and row 7 to zero, kept factored."""
    v = x.right_vectors.copy()
    v[:, 0] = 1.0 / np.sqrt(n)
    v[:, 1:] -= v[:, :1] @ (v[:, :1].T @ v[:, 1:])
    u = x.left_vectors.copy()
    u[3] = np.eye(x.rank)[0]
    u[7] = 0.0
    return replace(x, left_vectors=u, right_vectors=v)


def test_screen_agrees_with_dense_correlations():
    pairs = []
    for setup, p1, theta, seed in [(1, 200, 30.0, 9100), (2, 300, 75.0, 9101), (2, 1100, 15.0, 9102)]:
        y1, y2, _ = generate_setup(
            SimulationConfig(setup=setup, theta_deg=theta, p1=p1, n=300, seed=seed)
        )
        e1, e2 = soft_threshold_denoise(y1, 5), soft_threshold_denoise(y2, 5)
        pairs += [(e1, e2), (e2, e1)]  # p1 < p2 and p1 > p2 for setup 2
    pairs.append((_with_constant_rows(pairs[0][0], 300), pairs[0][1]))
    # a shared signal that only the first or only the last block of rows holds
    pairs += [_planted_pair(np.random.default_rng(9104), row) for row in (0, 399)]
    # independent signals: the screen licenses no shared rank (r12 = 0)
    rng = np.random.default_rng(9103)
    x1, _, _ = exact_signal_pair(rng, 300, 300, [500, 400, 300, 200, 100], np.zeros(5), 300)
    x2, _, _ = exact_signal_pair(rng, 250, 250, [500, 400, 300, 200, 100], np.zeros(5), 300)
    pairs.append(
        (
            soft_threshold_denoise(ObservedMatrix(x1 + rng.standard_normal(x1.shape)), 5),
            soft_threshold_denoise(ObservedMatrix(x2 + rng.standard_normal(x2.shape)), 5),
        )
    )
    decisions = []
    for e1, e2 in pairs:
        want, want_max = _dense_screen(e1, e2, 0.05)
        assert correlation_screen(e1, e2) == want
        assert abs(_max_correlation(e1, e2) - want_max) <= 1e-12
        decisions.append(want)
    assert True in decisions and False in decisions


def _planted_pair(rng, row, p1=400, p2=300, n=300):
    """Independent rank-3 signals, except that row ``row`` of the first (if
    not None) repeats row 0 of the second."""
    z, w = rng.standard_normal((3, n)), rng.standard_normal((3, n))
    x1, x2 = rng.standard_normal((p1, 3)) @ w, rng.standard_normal((p2, 3)) @ z
    if row is not None:
        x1[row] = x2[0]
    return estimates_from(x1, x2, 3 if row is None else 4, 3)


def test_screen_stops_at_the_deciding_block(monkeypatch):
    scored, real = [], cdpa.denoise._block_maxima

    def counting(x1, x2):
        for r in real(x1, x2):
            scored.append(r)
            yield r

    monkeypatch.setattr(cdpa.denoise, "_block_maxima", counting)
    rng = np.random.default_rng(9104)
    y1, y2, _ = generate_setup(SimulationConfig(setup=2, theta_deg=30.0, p1=300, n=300, seed=9105))
    strong = soft_threshold_denoise(y1, 5), soft_threshold_denoise(y2, 5)
    blocks = -(-400 // cdpa.denoise._SCREEN_ROWS)
    # (pair, decision, blocks scored): a shared signal in the first rows,
    # in the last row, none, and the strong shared signal of setup 2
    for (e1, e2), want, count in [
        (_planted_pair(rng, 0), True, 1),
        (_planted_pair(rng, 399), True, blocks),
        (_planted_pair(rng, None), False, blocks),
        (strong, True, 1),
    ]:
        scored.clear()
        assert correlation_screen(e1, e2) == want == _dense_screen(e1, e2, 0.05)[0]
        assert len(scored) == count
        # the largest |r| is still taken over every block
        scored.clear()
        assert _max_correlation(e1, e2) == max(scored)
        assert len(scored) == -(-e1.p // cdpa.denoise._SCREEN_ROWS)


@pytest.mark.parametrize(
    "p1, p2", [(1, 1), (2, 3), (40, 55), (100, 100), (300, 300), (4000, 900), (10**5, 900)]
)
def test_screen_critical_value_is_norm_isf_bit_for_bit(p1, p2):
    # the screen's test reads the critical value without importing scipy.stats
    want = norm.isf(0.05 / (2.0 * p1 * p2))
    assert _screen_critical_z(p1 * p2) == want


# ------------------------------------------------------------- mdl_select_r12


def test_mdl_identical_datasets():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 120))
    y = ObservedMatrix(x)
    assert mdl_select_r12(y, ObservedMatrix(x.copy()), 4, 4) == 4


@pytest.mark.parametrize("theta,want", [(15.0, 5), (60.0, 4), (75.0, 3)])
def test_mdl_benchmark_recovery(theta, want):
    hits = 0
    for i in range(30):
        cfg = SimulationConfig(
            setup=1, theta_deg=theta, p1=300, n=1000, noise_var=1.0, seed=10_000 + i
        )
        y1, y2, _ = generate_setup(cfg)
        hits += mdl_select_r12(y1, y2, 5, 5) == want
    assert hits >= 27  # >= 90 percent of seeds


# --------------------------------------------------------- compute_diagnostics


def test_diagnostics_noiseless_limit():
    rng = np.random.default_rng(16)
    x1, x2, _ = exact_signal_pair(rng, 40, 40, [5, 4, 3], [0.9, 0.5, 0.2], 100)
    e1, e2 = estimates_from(x1, x2, 3, 3)
    diag = compute_diagnostics(e1, e2, (np.sqrt(1e-15), np.sqrt(1e-15)))
    assert diag.snr[0] > 1e10
    np.testing.assert_allclose(diag.delta_theta, 1 / np.sqrt(100), rtol=1e-4)


def test_diagnostics_do_not_depend_on_scale():
    # at 1e-8 the noise trace is about 3e-14, below any absolute floor; at
    # 1e-158 and 1e-160 both traces are subnormal
    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=300, n=300, seed=3))
    diags = []
    for scale in (1.0, 1e-8, 1e-158, 1e-160):
        ys = [ObservedMatrix(scale * y.values) for y in (y1, y2)]
        xs = [soft_threshold_denoise(y, 5) for y in ys]
        diags.append(compute_diagnostics(*xs, tuple(noise_root_trace(y, x) for y, x in zip(ys, xs))))
    for diag in diags[1:]:
        np.testing.assert_allclose(diag.snr, diags[0].snr, rtol=1e-10)
        np.testing.assert_allclose(diag.delta_theta, diags[0].delta_theta, rtol=1e-10)
    assert 4.0 < diags[0].snr[0] < 6.0


def test_diagnostics_formula_value():
    # p1 = p2 = 300, n = 300, snr = 5 on both: value computed directly
    rng = np.random.default_rng(17)
    x1, x2, _ = exact_signal_pair(
        rng, 300, 300, [500, 400, 300, 200, 100], [0.8, 0.5, 0.3, 0.2, 0.1], 300
    )
    e1, e2 = estimates_from(x1, x2, 5, 5)
    tr1 = np.sum(e1.soft_singular_values**2) / 300
    tr2 = np.sum(e2.soft_singular_values**2) / 300
    diag = compute_diagnostics(e1, e2, (np.sqrt(tr1 / 5.0), np.sqrt(tr2 / 5.0)))
    expected = 1 / np.sqrt(300) + 2 * np.sqrt(np.log(300) / (300 * 5.0))
    np.testing.assert_allclose(diag.delta_theta, expected, rtol=1e-12)
    np.testing.assert_allclose(expected, 0.181064, atol=5e-7)
    np.testing.assert_allclose(diag.snr, (5.0, 5.0), rtol=1e-10)


def test_diagnostics_clamped_at_one():
    rng = np.random.default_rng(18)
    x1, x2, _ = exact_signal_pair(rng, 50, 50, [5.0, 2.0], [0.5, 0.1], 40)
    e1, e2 = estimates_from(x1, x2, 2, 2)
    diag = compute_diagnostics(e1, e2, (np.sqrt(1e9), np.sqrt(1e9)))
    assert diag.delta_theta == 1.0


def test_noise_trace_residual():
    rng = np.random.default_rng(19)
    y = ObservedMatrix(rng.standard_normal((30, 70)))
    est = soft_threshold_denoise(y, 2)
    want = np.sum((y.values - est.xhat) ** 2) / 70
    np.testing.assert_allclose(noise_trace(y, est), want, rtol=1e-12)
    np.testing.assert_allclose(noise_root_trace(y, est), np.sqrt(want), rtol=1e-12)


@pytest.mark.parametrize("shape", [(300, 120), (120, 300)])
@pytest.mark.parametrize("r", [0, 3])
def test_noise_trace_closed_form_matches_residual(shape, r):
    rng = np.random.default_rng(20)
    y = ObservedMatrix(rng.standard_normal(shape) + 5.0 * rng.standard_normal((shape[0], 1)))
    est = soft_threshold_denoise(y, r)
    np.testing.assert_allclose(
        noise_trace(y, est), np.sum((y.values - est.xhat) ** 2) / shape[1], rtol=1e-12
    )


# ------------------------------------------------- Gram route and its fallback


@pytest.mark.parametrize("scale", [1.0, 3e-5, 1e-70, 1e70, 1e-100, 1e100])
@pytest.mark.parametrize("shape", [(90, 40), (40, 90)])
def test_gram_without_a_scaled_copy_is_bitwise_equal(scale, shape):
    # the product is scaled after the GEMM for moderate scales and the data
    # before it otherwise; both give the Gram of values / 2**k bit for bit
    rng = np.random.default_rng(27)
    raw = scale * (rng.standard_normal(shape) + 3.0 * rng.standard_normal((shape[0], 1)))
    raw[5] = scale  # a constant row
    for y in (ObservedMatrix(raw), center_rows(ObservedMatrix(raw))):
        k = int(np.frexp(np.max(np.abs(y.values)))[1])
        a = np.ldexp(y.values, -k)
        g, got_k = y.gram
        assert got_k == k
        assert np.array_equal(g, a.T @ a if shape[0] >= shape[1] else a @ a.T)


def test_center_rows_overflow_is_an_input_error():
    # the mean is finite, but hi - mean is not
    y = ObservedMatrix(np.array([[1.5e308, -1.5e308, -1.5e308], [1.0, 2.0, 3.0]]))
    with np.errstate(over="ignore"), pytest.raises(InputError, match="finite"):
        center_rows(y)


def test_top_pairs_reduce_again_to_the_same_bits():
    # the reflectors are dropped after a top-r read, so a later rank reduces
    # the Gram again, and reads what a fresh matrix reads
    rng = np.random.default_rng(28)
    y = ObservedMatrix(rng.standard_normal((70, 40)) @ np.diag(np.linspace(1.0, 4.0, 40)))
    y.factors(2)
    for a, b in zip(y.factors(4), ObservedMatrix(y.values.copy()).factors(4)):
        np.testing.assert_array_equal(a, b)


def test_top_pairs_read_the_reduction_of_rank_selection_once(monkeypatch):
    # below 18 (r + 3) the iteration declines: the first top-r read takes
    # ED's reduction and drops it, a later rank reduces again, and both
    # read what a fresh matrix reads
    rng = np.random.default_rng(28)
    y = ObservedMatrix(rng.standard_normal((70, 40)) @ np.diag(np.linspace(1.0, 4.0, 40)))
    fresh = [ObservedMatrix(y.values.copy()).factors(r) for r in (2, 4)]
    shapes = record_linalg(monkeypatch)
    y.spectrum
    for r, want, reductions in zip((2, 4), fresh, (1, 2)):
        for a, b in zip(y.factors(r), want):
            np.testing.assert_array_equal(a, b)
        assert "reduced" not in y._cache and len(shapes["reduce"]) == reductions


@pytest.mark.parametrize("shape", [(300, 120), (120, 300), (150, 150)])
def test_gram_route_matches_svd(shape):
    rng = np.random.default_rng(21)
    y = ObservedMatrix(rng.standard_normal(shape) @ np.diag(np.linspace(1.0, 3.0, shape[1])))
    u, s, vt = np.linalg.svd(y.values, full_matrices=False)
    # the energies s**2 agree to round-off relative to the largest one
    np.testing.assert_allclose(y.spectrum**2, s**2, rtol=0, atol=1e-12 * s[0] ** 2)
    est = soft_threshold_denoise(y, 4)
    assert y.resolves(4)
    # the same vectors, up to the joint sign of each pair
    signs = np.sign(np.sum(est.left_vectors * u[:, :4], axis=0))
    np.testing.assert_allclose(est.left_vectors, u[:, :4] * signs, atol=1e-10)
    np.testing.assert_allclose(est.right_vectors, vt[:4].T * signs, atol=1e-10)


@pytest.mark.parametrize(
    "shape, offset", [((300, 120), 0.0), ((120, 300), 0.0), ((150, 150), 0.0), ((300, 120), 5.0)]
)
@pytest.mark.parametrize("r", [1, 4, 20])
def test_trace_tail_matches_svd(shape, offset, r):
    # the tail energy is the Gram trace minus the top-r eigenvalues; with
    # uncentred rows the offsets dominate the trace
    rng = np.random.default_rng(27)
    y = ObservedMatrix(rng.standard_normal(shape) + offset * rng.standard_normal((shape[0], 1)))
    assert y.resolves(r)
    s = np.linalg.svd(y.values, compute_uv=False)
    np.testing.assert_allclose(y.factors(r)[1] ** 2, np.sum(s[r:] ** 2), rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [0, 1])
def test_factors_do_not_depend_on_call_order(k):
    # rank selection reads its own values-only spectrum, so a rank's factors
    # are the same bits whether or not it ran first (wide and tall data)
    y = generate_setup(SimulationConfig(setup=2, theta_deg=30.0, p1=100, n=300, seed=28))[k]
    fresh = ObservedMatrix(y.values.copy())
    r = ed_select_rank(y)
    assert r >= 1
    for a, b in zip(y.factors(r), fresh.factors(r)):
        np.testing.assert_array_equal(a, b)
    assert ed_select_rank(fresh) == r


def _svd_reference(y, r):
    """``soft_threshold_denoise`` computed directly from ``np.linalg.svd``."""
    p, n = y.shape
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    tau = np.sum(s[r:] ** 2) / (n * p - n * r - p * r)
    s_soft = np.sqrt(np.maximum(s[:r] ** 2 - tau * p, 0.0))
    return tau, (u[:, :r] * s_soft) @ vt[:r]


def test_gram_fallback_rank_one_data(monkeypatch):
    rng = np.random.default_rng(22)
    x = np.outer(rng.standard_normal(60), rng.standard_normal(40))
    shapes = record_linalg(monkeypatch)
    y = ObservedMatrix(x)
    est = soft_threshold_denoise(y, 1)
    assert not y.resolves(1)  # the tail energy is round-off
    assert shapes == {
        "svd": [(40, 40), (1, 1)], "eigh": [], "reduce": [(40, 40)], "spectrum": [], "top": [((40, 40), 1)],
        "iterate": [((40, 40), 1)], "gram": [(40, 40)],
    }
    tau, xhat = _svd_reference(x, 1)
    assert est.tau <= 1e-28 * np.sum(x**2)
    np.testing.assert_allclose(est.tau, tau, rtol=1e-6, atol=1e-300)
    assert np.linalg.norm(est.xhat - xhat) <= 1e-13 * np.linalg.norm(x)
    assert np.linalg.norm(est.xhat - x) <= 1e-12 * np.linalg.norm(x)


def test_gram_fallback_exact_low_rank_wide(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 30))
    shapes = record_linalg(monkeypatch)
    y = ObservedMatrix(x)
    est = soft_threshold_denoise(y, 3)
    assert shapes == {
        "svd": [(12, 12), (3, 3)], "eigh": [], "reduce": [(12, 12)], "spectrum": [], "top": [((12, 12), 3)],
        "iterate": [((12, 12), 3)], "gram": [(12, 12)],
    }
    assert est.tau <= 1e-20
    assert np.linalg.norm(est.xhat - x) <= 1e-12 * np.linalg.norm(x)
    # the kept vectors are resolved below the rank, so those ranks stay on the Gram route
    assert y.resolves(2) and not y.resolves(3)


def test_gram_fallback_constant_rows(monkeypatch):
    rng = np.random.default_rng(24)
    y1, y2 = (ObservedMatrix(np.outer(rng.standard_normal(p), np.full(50, 2.5))) for p in (30, 20))
    shapes = record_linalg(monkeypatch)
    x1, x2 = soft_threshold_denoise(y1, 1), soft_threshold_denoise(y2, 1)
    assert shapes["svd"] == [(30, 30), (1, 1), (20, 20), (1, 1)]
    for x, y in ((x1, y1), (x2, y2)):
        assert np.linalg.norm(x.xhat - y.values) <= 1e-12 * np.linalg.norm(y.values)
        assert noise_trace(y, x) <= 1e-24 * np.sum(y.values**2)
    # centred, every row is zero up to round-off: the fit is finite
    fit = estimate_cdpa(y1, y2)
    assert all(np.all(np.isfinite(m)) for m in (fit.patterns.c, *fit.patterns.delta))
    assert np.isfinite(fit.patterns.explained) and np.all(np.isfinite(fit.diagnostics.snr))


@pytest.mark.parametrize("shape", [(80, 40), (40, 80)])
def test_gram_fallback_above_the_true_rank(shape):
    # rank-3 data at r = 5: the kept energies s_4**2 and s_5**2 are round-off
    rng = np.random.default_rng(25)
    x = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    y = ObservedMatrix(x)
    assert not y.resolves(5)
    _, _, left, right = y.factors(5)
    assert left.shape == (shape[0], 5) and right.shape == (shape[1], 5)
    for f in (left, right):
        assert np.max(np.abs(f.T @ f - np.eye(5))) <= 1e-12
    est = soft_threshold_denoise(y, 5)
    energy = np.sum(x**2)
    assert np.linalg.norm(est.xhat - x) <= 1e-12 * np.linalg.norm(x)
    assert est.tau <= 1e-24 * energy
    assert noise_trace(y, est) <= 1e-24 * energy


def test_gram_factorizations_run_concurrently(monkeypatch):
    # each reduction waits for the other: a lock shared by all instances
    # would hold the second thread back until the barrier times out
    barrier = threading.Barrier(2, timeout=5)
    real = cdpa.denoise.tridiagonalize

    def waiting(a):
        barrier.wait()
        return real(a)

    monkeypatch.setattr(cdpa.denoise, "tridiagonalize", waiting)
    rng = np.random.default_rng(26)
    ys = [ObservedMatrix(rng.standard_normal((30, 20))) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        factors = list(pool.map(lambda y: y.factors(2), ys))
    for y, (s, *_) in zip(ys, factors):
        np.testing.assert_allclose(s, np.linalg.svd(y.values, compute_uv=False)[:2], rtol=1e-10)
        assert y.factors(2)[0] is s


def test_gram_route_refines_vectors_near_the_resolution_floor():
    # s_5**2 / s_0**2 = 1e-10 clears the floor 1e3 * m * eps (6.7e-11), so
    # rank 6 stays on the Gram route; u_r = Y v_r / s_r alone is orthonormal
    # only to ~2e-8 here, and s_5 is ~1e-8 off the thin SVD
    rng = np.random.default_rng(0)
    p, n, r = 600, 300, 6
    u, v = random_orthonormal(rng, p, n), random_orthonormal(rng, n, n)
    s = np.concatenate([[1.0, 0.8, 0.6, 0.4, 0.2, 1e-5], 3e-6 * np.linspace(1.0, 0.5, n - r)])
    y = ObservedMatrix((u * s) @ v.T)
    assert y.resolves(r)
    s_route, _, left, right = y.factors(r)
    want = np.linalg.svd(y.values, compute_uv=False)
    assert np.max(np.abs(left.T @ left - np.eye(r))) <= 1e-12
    assert np.max(np.abs(right.T @ right - np.eye(r))) <= 1e-12
    assert np.max(np.abs(s_route - want[:r]) / want[:r]) <= 1e-12
    est = soft_threshold_denoise(y, r)
    assert np.max(np.abs(est.left_vectors.T @ est.left_vectors - np.eye(r))) <= 1e-12


def test_gram_zero_matrix():
    y = ObservedMatrix(np.zeros((8, 30)))
    est = soft_threshold_denoise(y, 1)
    assert est.tau == 0.0 and not np.any(est.xhat)
    assert noise_trace(y, est) == 0.0
    assert noise_trace(y, soft_threshold_denoise(y, 0)) == 0.0


# ------------------------------------------------- filtered top-r iteration


def test_filtered_top_matches_the_reduction_on_a_gapped_spectrum():
    y1, y2 = (center_rows(y) for y in generate_setup(
        SimulationConfig(setup=2, theta_deg=30.0, p1=300, n=300, seed=29))[:2])
    # repeated samples, as in a bootstrap replicate, are null directions of
    # the Gram: the four largest samples thrice each fill the 12 largest
    # diagonal entries, so a start from only the 8 largest would hold 4
    # independent directions
    top = np.argsort(-np.sum(y1.values**2, axis=0))[:4]
    cols = np.concatenate([np.repeat(top, 3), np.setdiff1d(np.arange(300), top)[:-8]])
    for y in (y1, y2, ObservedMatrix(y1.values[:, cols])):
        g, _ = y.gram
        w, q = filtered_top(g, 5)
        want_w, want_q = tridiagonal_top(*tridiagonalize(g.copy()), 5)
        np.testing.assert_allclose(w, want_w, rtol=1e-13)
        # the same vectors, up to sign
        np.testing.assert_allclose(np.abs(np.sum(q * want_q, axis=0)), 1.0, rtol=0, atol=1e-12)
        assert np.max(np.abs(q.T @ q - np.eye(5))) <= 1e-14
        np.testing.assert_array_equal(y._top(5)[1], q)


def test_filtered_top_declines_when_the_start_misses_the_top_block():
    # a block-diagonal Gram: the largest diagonal entries all lie in a
    # diagonal block with eigenvalues 1.1 to 2, and the top eigenvalue, 10.1,
    # in a block whose diagonal is 0.15; the start never reaches it, and
    # its residuals alone would certify the diagonal block's pairs
    u = np.full((200, 1), 200**-0.5)
    g = np.zeros((300, 300))
    g[:100, :100] = np.diag(np.linspace(2.0, 1.1, 100))
    g[100:, 100:] = 0.1 * np.eye(200) + 10.0 * u @ u.T
    assert filtered_top(g, 5) is None
    w, _ = tridiagonal_top(*tridiagonalize(g.copy()), 5)
    assert w[0] == pytest.approx(10.1)


def _degenerate(shape, seed):
    """``(name, data, rank)`` for inputs whose top-r pairs cannot be certified."""
    rng = np.random.default_rng(seed)
    p, n = shape
    yield "constant rows", rng.standard_normal((p, 1)) * np.ones((1, n)), 1
    yield "rank 1", np.outer(rng.standard_normal(p), rng.standard_normal(n)), 1
    yield "rank 3", rng.standard_normal((p, 3)) @ rng.standard_normal((3, n)), 5
    yield "zero", np.zeros(shape), 5
    yield "pure noise", rng.standard_normal(shape), 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(300, 300), (400, 300), (300, 400)])
def test_degenerate_inputs_fall_back_to_the_reduction(shape, monkeypatch):
    # m = 300 is at least 18 (r + 3), so every input tries the iteration;
    # none can be certified, and the pairs are those of the reduction, bit
    # for bit, after at most m // (6 (r + 3)) filtered rounds
    shapes = record_linalg(monkeypatch)
    for (name, x, r), (_, x2, _) in zip(_degenerate(shape, 30), _degenerate(shape, 31)):
        y = ObservedMatrix(x)
        g, _ = y.gram
        shapes["eigh"].clear()
        w, q, _ = y._top(r)
        assert shapes["iterate"][-1] == ((300, 300), r), name
        assert len(shapes["eigh"]) <= 300 // (6 * (r + 3)) + 1, name
        want_w, want_q = tridiagonal_top(*tridiagonalize(g.copy()), r)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(q, want_q)
        try:
            fit = estimate_cdpa(y, ObservedMatrix(x2), CdpaConfig(ranks=RankProfile(r, r, r), center=False))
        except CdpaError:
            continue
        assert np.isfinite(fit.patterns.explained), name
        assert all(np.all(np.isfinite(m)) for _, m in fit.patterns.columns()), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(300, 300), (400, 300), (300, 400)])
def test_auto_ranks_reduce_each_degenerate_gram_once(shape, monkeypatch):
    # where the iteration declines, the top-r pairs come from ED's own
    # reduction, which the read then drops; they are those of a fresh
    # reduction at the same rank, bit for bit
    shapes = record_linalg(monkeypatch)
    for (name, x1, _), (_, x2, _) in zip(_degenerate(shape, 30), _degenerate(shape, 31)):
        ys = ObservedMatrix(x1), ObservedMatrix(x2)
        shapes["reduce"].clear()
        ranks, *_ = select_ranks(*ys)
        assert shapes["reduce"] == [(300, 300), (300, 300)], name
        for y, r in zip(ys, (ranks.r1, ranks.r2)):
            assert "reduced" not in y._cache, name
            for a, b in zip(y.factors(r), ObservedMatrix(y.values.copy()).factors(r)):
                np.testing.assert_array_equal(a, b)


def _scaled_pair(scales):
    """Two noisy rank-3 datasets (60 x 100, 50 x 100), scaled by ``scales``."""
    rng = np.random.default_rng(41)
    z = rng.standard_normal((3, 100))
    return tuple(
        ObservedMatrix(scale * (rng.standard_normal((p, 3)) @ z + 0.1 * rng.standard_normal((p, 100))))
        for p, scale in zip((60, 50), scales)
    )


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("failures", [{1: "ed"}, {2: "ed"}, {1: "denoise"}, {2: "denoise"},
                                      {1: "denoise", 2: "ed"}, {1: "ed", 2: "denoise"}])
def test_select_ranks_raises_the_first_failed_dataset_s_error(monkeypatch, held, failures):
    # each dataset's step (ED, then the denoiser at its rank) runs on the
    # caller or the worker; a failure is raised as the step's own error,
    # dataset 1's when both fail, whichever stage failed in each
    ys = _scaled_pair((1.0, 1.0))
    for stage, name in (("ed", "ed_select_rank"), ("denoise", "soft_threshold_denoise")):
        real = getattr(cdpa.denoise, name)

        def failing(y, *args, _real=real, _stage=stage):
            k = 1 if y is ys[0] else 2
            if failures.get(k) == _stage:
                raise NumericalError(f"{_stage} failed on dataset {k}")
            return _real(y, *args)

        monkeypatch.setattr(cdpa.denoise, name, failing)
    first = min(failures)
    with held_worker() if held else contextlib.nullcontext():
        with pytest.raises(NumericalError, match=f"{failures[first]} failed on dataset {first}$"):
            select_ranks(*ys)


@pytest.mark.parametrize("scales, raised", [((1e160, 1.0), r"e\+16\d\*\*2"), ((1.0, 1e170), r"e\+17\d\*\*2"),
                                            ((1e160, 1e170), r"e\+16\d\*\*2")])
def test_select_ranks_raises_an_overflowing_dataset_s_numerical_error(scales, raised):
    # the denoiser squares the largest singular value: at 1e160 and 1e170
    # it overflows, which is a NumericalError naming the value
    with pytest.raises(NumericalError, match=raised):
        select_ranks(*_scaled_pair(scales))
