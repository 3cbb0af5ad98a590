"""Shared test utilities: exact-moment constructions and tied-block rotations."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from cdpa import (
    CanonicalSystem,
    ChannelSubspacePair,
    ObservedMatrix,
    build_match_problem,
    signal_covariance,
    soft_threshold_denoise,
)
from cdpa._linalg import random_orthonormal


def exact_scores(rng, n, rho):
    """Score matrices with exact sample moments and cross-correlation rho."""
    rho = np.asarray(rho, dtype=float)
    r = rho.shape[0]
    assert n >= 2 * r
    basis = random_orthonormal(rng, n, 2 * r) * np.sqrt(n)
    g1 = basis[:, :r].T
    g2 = basis[:, r:].T
    z1 = g1
    z2 = rho[:, None] * g1 + np.sqrt(1.0 - rho**2)[:, None] * g2
    return z1, z2


def exact_signal_pair(rng, p1, p2, lam, rho, n, planted_channel_cos=None):
    """Two exactly low-rank signal matrices with planted sample correlations.

    The factor matrices are drawn so that the leading channel blocks have
    the planted subspace cosines (``rho`` by default), mirroring the
    benchmark construction but with arbitrary sizes.
    """
    lam = np.asarray(lam, dtype=float)
    r = lam.shape[0]
    rho = np.asarray(rho, dtype=float)
    cosb = rho if planted_channel_cos is None else np.asarray(planted_channel_cos)
    pmax, pmin = max(p1, p2), min(p1, p2)
    q_small = random_orthonormal(rng, pmin, r)
    q_small_pad = np.vstack([q_small, np.zeros((pmax - pmin, r))])
    g = rng.standard_normal((pmax, r))
    g -= q_small_pad @ (q_small_pad.T @ g)
    w, _ = np.linalg.qr(g)
    q_big = q_small_pad * cosb + w * np.sqrt(1.0 - cosb**2)
    if p1 <= p2:
        v1, v2 = q_small, q_big
    else:
        v1, v2 = q_big, q_small
    z1, z2 = exact_scores(rng, n, rho)
    x1 = v1 @ (np.sqrt(lam)[:, None] * z1)
    x2 = v2 @ (np.sqrt(lam)[:, None] * z2)
    return x1, x2, dict(v1=v1, v2=v2, z1=z1, z2=z2, lam=lam, rho=rho)


def estimates_from(x1, x2, r1, r2):
    """Signal estimates and covariances from exactly low-rank matrices."""
    e1 = soft_threshold_denoise(ObservedMatrix(np.asarray(x1)), r1)
    e2 = soft_threshold_denoise(ObservedMatrix(np.asarray(x2)), r2)
    return e1, e2, signal_covariance(e1, x1.shape[1]), signal_covariance(e2, x2.shape[1])


def block_rotation(rng, size, start, stop):
    """Orthogonal matrix equal to the identity outside [start, stop)."""
    g = np.eye(size)
    width = stop - start
    q, _ = np.linalg.qr(rng.standard_normal((width, width)))
    g[start:stop, start:stop] = q
    return g


def rotate_system(system: CanonicalSystem, start: int, stop: int, rng):
    """Alternative canonical system with a rotated tied score block."""
    r1 = system.z1.shape[0]
    r2 = system.z2.shape[0]
    rot = block_rotation(rng, max(r1, r2), start, stop)
    g1 = rot[:r1, :r1]
    g2 = rot[:r2, :r2]
    return replace(system, z1=g1.T @ system.z1, z2=g2.T @ system.z2)


def rotate_pair(pair: ChannelSubspacePair, start: int, stop: int, rng):
    """Alternative principal vectors with a rotated tied cosine block."""
    r12 = pair.cosines.shape[0]
    g = block_rotation(rng, r12, start, stop)
    return replace(pair, v_b1=pair.v_b1 @ g, v_b2=pair.v_b2 @ g)


def dense_match_problem(q1, q2a):
    """``build_match_problem`` plus the dense matrices of the objective chain.

    ``shift`` is the joint minimum entry of the two projectors, ``m*_plus``
    the projectors shifted by it to nonnegativity, and ``offdiag*`` their
    off-diagonal parts; the shifted diagonals come from the library.
    """
    prob = build_match_problem(q1, q2a)
    shift = float(min(prob.m1.min(), prob.m2.min()))
    m1_plus = prob.m1 - shift
    m2_plus = prob.m2 - shift
    return SimpleNamespace(
        m1=prob.m1,
        m2=prob.m2,
        m1_plus=m1_plus,
        m2_plus=m2_plus,
        offdiag1=m1_plus - np.diag(prob.diag1),
        offdiag2=m2_plus - np.diag(prob.diag2),
        diag1=prob.diag1,
        diag2=prob.diag2,
        shift=shift,
    )


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
