import numpy as np
import pytest

from cdpa import (
    RankDeficiency,
    SimulationConfig,
    canonical_system,
    common_factor_coefficients,
    common_factor_scores,
    generate_setup,
    mixing_channel,
    source_decomposition,
)
from cdpa._linalg import random_orthonormal

from helpers import estimates_from, exact_scores, exact_signal_pair, rel_err

LAM = [500.0, 400.0, 300.0, 200.0, 100.0]


def _system_from(x1, x2, r12, rank=5):
    e1, e2 = estimates_from(x1, x2, rank, rank)
    return canonical_system(e1, e2, r12), e1, e2


# ------------------------------------------------------------ canonical_system


def test_identical_signals_have_unit_correlations():
    rng = np.random.default_rng(0)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.full(5, 0.7), 80)
    system, _, _ = _system_from(x, x.copy(), 5)
    np.testing.assert_allclose(system.correlations, np.ones(5), atol=1e-8)


def test_orthogonal_row_spaces_have_zero_correlations():
    rng = np.random.default_rng(1)
    basis = random_orthonormal(rng, 60, 6) * np.sqrt(60)
    x1 = rng.standard_normal((20, 3)) @ basis[:, :3].T
    x2 = rng.standard_normal((20, 3)) @ basis[:, 3:].T
    e1, e2 = estimates_from(x1, x2, 3, 3)
    system = canonical_system(e1, e2, 3)
    np.testing.assert_allclose(system.correlations, np.zeros(3), atol=1e-8)


def test_benchmark_noiseless_correlations_at_45_degrees():
    cfg = SimulationConfig(setup=1, theta_deg=45.0, p1=80, n=160, noise_var=0.0, seed=3)
    y1, y2, truth = generate_setup(cfg, exact_moments=True)
    e1, e2 = estimates_from(y1.values, y2.values, 5, 5)
    system = canonical_system(e1, e2, 5)
    want = np.cos(np.deg2rad([30.0, 45.0, 45.0, 60.0, 75.0]))
    np.testing.assert_allclose(system.correlations, want, atol=1e-6)


def test_bi_orthogonality_invariants():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = 90
        rho = np.sort(rng.uniform(0, 1, size=5))[::-1]
        x1, x2, _ = exact_signal_pair(rng, 25 + trial, 40, LAM, rho, n)
        system, _, _ = _system_from(x1, x2, 5)
        np.testing.assert_allclose(
            system.z1 @ system.z1.T / n, np.eye(5), atol=1e-8
        )
        np.testing.assert_allclose(
            system.z2 @ system.z2.T / n, np.eye(5), atol=1e-8
        )
        cross = system.z1 @ system.z2.T / n
        np.testing.assert_allclose(cross, np.diag(np.diag(cross)), atol=1e-8)
        diag = np.diag(cross)
        assert np.all(np.diff(diag) <= 1e-8)
        assert np.all(diag >= -1e-8)
        assert np.all(system.correlations <= 1 + 1e-8)


def test_rank_deficiency_guard():
    rng = np.random.default_rng(5)
    x1, x2, _ = exact_signal_pair(rng, 20, 20, [4.0, 2.0], [0.5, 0.2], 50)
    e1, e2 = estimates_from(x1, x2, 2, 2)
    with pytest.raises(RankDeficiency):
        canonical_system(e1, e2, 3)


# --------------------------------------------------- common_factor_coefficients


def test_coefficient_endpoints():
    np.testing.assert_allclose(common_factor_coefficients(np.array([1.0])), [0.5])
    np.testing.assert_allclose(common_factor_coefficients(np.array([0.0])), [0.0])


def test_coefficient_at_sixty_degrees():
    rho = np.array([np.cos(np.deg2rad(60.0))])
    want = 0.5 * (1.0 - np.tan(np.deg2rad(30.0)))
    got = common_factor_coefficients(rho)
    np.testing.assert_allclose(got, [want], rtol=1e-12)
    np.testing.assert_allclose(got, [0.21132486540518713], rtol=1e-12)


def test_coefficient_monotone_in_correlation():
    rho = np.linspace(1.0, 0.0, 25)
    a = common_factor_coefficients(rho)
    assert np.all(np.diff(a) <= 0)
    assert np.all((a >= 0) & (a <= 0.5))


def test_coefficient_clips_roundoff():
    a = common_factor_coefficients(np.array([1.0 + 1e-15, -1e-15]))
    np.testing.assert_allclose(a, [0.5, 0.0], atol=1e-12)


# ------------------------------------------------------- common_factor_scores


def test_scores_perfect_correlation_recovers_block():
    rng = np.random.default_rng(6)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.ones(5) * 0.999999, 80)
    system, _, _ = _system_from(x, x.copy(), 5)
    c0 = common_factor_scores(system)
    np.testing.assert_allclose(c0, system.z1[:5], atol=1e-4)


def test_scores_zero_correlation_rows_are_zero():
    rng = np.random.default_rng(7)
    rho = np.array([0.9, 0.5, 0.0])
    x1, x2, _ = exact_signal_pair(rng, 30, 25, [9.0, 4.0, 1.0], rho, 60)
    e1, e2 = estimates_from(x1, x2, 3, 3)
    system = canonical_system(e1, e2, 3)
    c0 = common_factor_scores(system)
    np.testing.assert_allclose(c0[2], np.zeros(60), atol=1e-8)


def test_scores_row_variance_identity():
    rng = np.random.default_rng(8)
    n = 70
    rho = np.array([0.95, 0.6, 0.3])
    x1, x2, _ = exact_signal_pair(rng, 22, 31, [9.0, 4.0, 1.0], rho, n)
    system = _system_from(x1, x2, 3, rank=3)[0]
    a = common_factor_coefficients(system.correlations)
    c0 = common_factor_scores(system)
    got = np.sum(c0**2, axis=1) / n
    want = a**2 * (2.0 + 2.0 * system.correlations)
    np.testing.assert_allclose(got, want, atol=1e-8)


# ------------------------------------------------------- source_decomposition


def test_identical_datasets_all_common():
    rng = np.random.default_rng(9)
    x, _, _ = exact_signal_pair(rng, 30, 30, LAM, np.full(5, 0.5), 80)
    system, e1, e2 = _system_from(x, x.copy(), 5)
    c0 = common_factor_scores(system)
    chan = mixing_channel(e1, system, 1)
    src = source_decomposition(e1, chan, c0)
    assert rel_err(src.c, e1.xhat) <= 1e-8
    assert np.linalg.norm(src.d) <= 1e-8 * np.linalg.norm(e1.xhat)
    # channel equals the analytic factored form
    n = system.n
    np.testing.assert_allclose(chan, e1.xhat @ system.z1[:5].T / n, atol=1e-10)


def test_orthogonal_signals_all_distinctive():
    rng = np.random.default_rng(10)
    basis = random_orthonormal(rng, 60, 6) * np.sqrt(60)
    x1 = rng.standard_normal((20, 3)) @ basis[:, :3].T
    x2 = rng.standard_normal((20, 3)) @ basis[:, 3:].T
    e1, e2 = estimates_from(x1, x2, 3, 3)
    system = canonical_system(e1, e2, 3)
    c0 = common_factor_scores(system)
    src = source_decomposition(e1, mixing_channel(e1, system, 1), c0)
    assert np.linalg.norm(src.c) <= 1e-8 * np.linalg.norm(e1.xhat)
    np.testing.assert_allclose(src.d, e1.xhat, atol=1e-8)


def test_additivity_exact_on_random_inputs():
    rng = np.random.default_rng(11)
    for trial in range(4):
        rho = np.sort(rng.uniform(0, 1, 4))[::-1]
        x1, x2, _ = exact_signal_pair(rng, 18 + trial, 26, [8, 6, 4, 2], rho, 64)
        e1, e2 = estimates_from(x1, x2, 4, 4)
        system = canonical_system(e1, e2, 4)
        c0 = common_factor_scores(system)
        for k, est in ((1, e1), (2, e2)):
            src = source_decomposition(est, mixing_channel(est, system, k), c0)
            assert rel_err(src.c + src.d, est.xhat) <= 1e-10


def test_closed_form_maximizes_summed_squared_cosines():
    # grid search over directions in the span of one standardized pair
    rng = np.random.default_rng(12)
    n = 50
    for rho in (0.9, 0.6, 0.25, 0.0):
        z1, z2 = exact_scores(rng, n, np.array([rho]))
        z1, z2 = z1[0], z2[0]
        coeff = float(common_factor_coefficients(np.array([rho]))[0])
        c = coeff * (z1 + z2)

        def total_sq_cos(w):
            out = 0.0
            for z in (z1, z2):
                out += (z @ w) ** 2 / ((z @ z) * (w @ w))
            return out

        # orthonormal basis of span(z1, z2)
        b1 = z1 / np.linalg.norm(z1)
        b2 = z2 - (b1 @ z2) * b1
        norm2 = np.linalg.norm(b2)
        if norm2 < 1e-12:
            continue
        b2 /= norm2
        phis = np.linspace(0.0, np.pi, 10_000, endpoint=False)
        grid_best = max(
            total_sq_cos(np.cos(phi) * b1 + np.sin(phi) * b2) for phi in phis
        )
        if rho == 0.0:
            # the common part vanishes: any direction is admissible
            assert coeff == 0.0
            continue
        assert total_sq_cos(c) >= grid_best - 1e-6


def test_distinctive_parts_are_orthogonal():
    rng = np.random.default_rng(13)
    n = 60
    for rho in (0.9, 0.5, 0.1):
        z1, z2 = exact_scores(rng, n, np.array([rho]))
        coeff = common_factor_coefficients(np.array([rho]))[0]
        c = coeff * (z1[0] + z2[0])
        d1 = z1[0] - c
        d2 = z2[0] - c
        assert abs(d1 @ d2 / n) <= 1e-8


def test_common_norm_increases_as_angle_shrinks():
    rng = np.random.default_rng(14)
    n = 64
    norms = []
    for theta in range(0, 100, 10):
        rho = np.cos(np.deg2rad(min(theta, 90)))
        z1, z2 = exact_scores(rng, n, np.array([rho]))
        coeff = common_factor_coefficients(np.array([max(rho, 0.0)]))[0]
        c = coeff * (z1[0] + z2[0])
        norms.append(np.linalg.norm(c) / np.sqrt(n))
    # theta decreasing means walking the list backwards
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_sign_pair_flip_leaves_common_source_unchanged():
    rng = np.random.default_rng(15)
    rho = np.array([0.9, 0.6, 0.3])
    x1, x2, _ = exact_signal_pair(rng, 20, 24, [9.0, 4.0, 1.0], rho, 66)
    e1, e2 = estimates_from(x1, x2, 3, 3)
    system = canonical_system(e1, e2, 3)
    c0 = common_factor_scores(system)
    base = source_decomposition(e1, mixing_channel(e1, system, 1), c0)

    flip = np.ones(3)
    flip[1] = -1.0
    from dataclasses import replace

    flipped = replace(
        system,
        z1=flip[:, None] * system.z1,
        z2=flip[:, None] * system.z2,
    )
    c0f = common_factor_scores(flipped)
    got = source_decomposition(e1, mixing_channel(e1, flipped, 1), c0f)
    np.testing.assert_allclose(got.c, base.c, atol=1e-10)
