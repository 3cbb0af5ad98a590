"""Sample canonical systems and the common/distinctive source split.

Whitened score matrices are rotated into canonical coordinates by the SVD
of their cross-covariance.  The common factor scores are a shrunken
average of the two canonical score blocks; mapping them back through each
dataset's mixing channel splits every signal estimate into a common-source
part and a distinctive-source remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import clip_correlations, fix_signs
from .denoise import SignalCovariance, SignalEstimate
from .errors import InputError, RankDeficiency


@dataclass(frozen=True)
class CanonicalSystem:
    """Canonical score matrices and the rotations that produced them.

    ``z1`` and ``z2`` satisfy ``z_k @ z_k.T / n = I`` and
    ``z1 @ z2.T / n`` diagonal with nonincreasing nonnegative diagonal.
    """

    z1: np.ndarray
    z2: np.ndarray
    theta_hat: np.ndarray
    left_rotations: tuple[np.ndarray, np.ndarray]
    correlations: np.ndarray

    @property
    def n(self) -> int:
        return self.z1.shape[1]

    @property
    def r12(self) -> int:
        return self.correlations.shape[0]


@dataclass(frozen=True)
class MixingChannel:
    """Coefficient matrix mapping common factor scores into one dataset."""

    b: np.ndarray
    dataset_index: int

    @property
    def p(self) -> int:
        return self.b.shape[0]

    @property
    def r12(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class CommonFactorSet:
    """Common factor score matrix and its shrinkage coefficients."""

    c0: np.ndarray
    coefficients: np.ndarray


@dataclass(frozen=True)
class SourceDecomposition:
    """Additive split of a signal estimate: ``c + d`` equals the signal."""

    c: np.ndarray
    d: np.ndarray


def canonical_system(
    cov1: SignalCovariance,
    cov2: SignalCovariance,
    x1: SignalEstimate,
    x2: SignalEstimate,
    r12: int,
) -> CanonicalSystem:
    """Build canonical scores from factored signal covariances.

    The whitened scores ``z_k* = lam_k^(-1/2) v_k' xhat_k`` are rotated by
    the left/right singular vectors of their cross-covariance; the first
    ``r12`` singular values (clipped to [0, 1]) are the sample canonical
    correlations.

    Raises
    ------
    RankDeficiency
        If a covariance eigenvalue is negligible relative to its largest,
        or ``r12`` exceeds an available rank.
    """
    if x1.n != x2.n:
        raise InputError("signal estimates have different sample counts")
    n = x1.n
    for cov in (cov1, cov2):
        if np.any(cov.eigvalues <= 1e-12 * cov.eigvalues[0]):
            raise RankDeficiency("covariance spectrum is numerically degenerate")
    if r12 > min(cov1.rank, cov2.rank):
        raise RankDeficiency(
            f"r12 = {r12} exceeds available ranks ({cov1.rank}, {cov2.rank})"
        )
    z1s = (cov1.eigvectors.T @ x1.xhat) / np.sqrt(cov1.eigvalues)[:, None]
    z2s = (cov2.eigvectors.T @ x2.xhat) / np.sqrt(cov2.eigvalues)[:, None]
    theta = z1s @ z2s.T / n
    u1, svals, v2t = np.linalg.svd(theta, full_matrices=True)
    u1, v2t = fix_signs(u1, v2t)
    u2 = v2t.T
    z1 = u1.T @ z1s
    z2 = u2.T @ z2s
    correlations = clip_correlations(svals[:r12])
    return CanonicalSystem(
        z1=z1,
        z2=z2,
        theta_hat=theta,
        left_rotations=(u1, u2),
        correlations=correlations,
    )


def common_factor_coefficients(correlations: np.ndarray) -> np.ndarray:
    """Shrinkage coefficient per canonical pair.

    ``a = (1 - sqrt((1 - rho) / (1 + rho))) / 2``, which is
    ``(1 - tan(theta/2)) / 2`` for ``rho = cos(theta)``.  Monotone in
    ``rho`` with a = 1/2 at rho = 1 and a = 0 at rho = 0.
    """
    rho = np.clip(np.asarray(correlations, dtype=np.float64), 0.0, 1.0)
    return 0.5 * (1.0 - np.sqrt((1.0 - rho) / (1.0 + rho)))


def common_factor_scores(
    system: CanonicalSystem, coefficients: np.ndarray
) -> CommonFactorSet:
    """Common factor scores: coefficient-scaled sum of the two score blocks."""
    r12 = system.r12
    c0 = coefficients[:, None] * (system.z1[:r12] + system.z2[:r12])
    return CommonFactorSet(c0=c0, coefficients=np.asarray(coefficients))


def mixing_channel(
    xhat: SignalEstimate, system: CanonicalSystem, k: int
) -> MixingChannel:
    """Mixing channel ``b_k = xhat @ z_k[:r12].T / n`` of dataset ``k``."""
    if k not in (1, 2):
        raise InputError(f"dataset index must be 1 or 2, got {k}")
    z = system.z1 if k == 1 else system.z2
    return MixingChannel(b=xhat.xhat @ z[: system.r12].T / system.n, dataset_index=k)


def source_decomposition(
    xhat: SignalEstimate, channel: MixingChannel, c0: CommonFactorSet
) -> SourceDecomposition:
    """Split one signal estimate into common and distinctive sources.

    The common source is ``b_k @ c0`` for the dataset's mixing channel
    ``b_k`` and the distinctive source is the remainder, so additivity is
    exact by construction.
    """
    c = channel.b @ c0.c0
    return SourceDecomposition(c=c, d=xhat.xhat - c)
