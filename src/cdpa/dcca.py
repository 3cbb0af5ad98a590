"""Sample canonical systems and the common/distinctive source split.

Whitened score matrices are rotated into canonical coordinates by the SVD
of their cross-covariance.  The common factor scores are a shrunken
average of the two canonical score blocks; mapping them back through each
dataset's mixing channel splits every signal estimate into a common-source
part and a distinctive-source remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import clip_correlations, fix_signs, svd
from .denoise import SignalEstimate
from .errors import InputError, RankDeficiency, ZeroSignal


@dataclass(frozen=True)
class CanonicalSystem:
    """Canonical score matrices and the leading canonical correlations.

    ``z1`` and ``z2`` satisfy ``z_k @ z_k.T / n = I`` and
    ``z1 @ z2.T / n`` diagonal with nonincreasing nonnegative diagonal.
    Negating dataset 2 leaves the system unchanged, so one system serves
    both orientations of dataset 2.
    """

    z1: np.ndarray
    z2: np.ndarray
    correlations: np.ndarray

    @property
    def n(self) -> int:
        return self.z1.shape[1]

    @property
    def r12(self) -> int:
        return self.correlations.shape[0]


@dataclass(frozen=True)
class SourceDecomposition:
    """Additive split of a signal estimate: ``c + d`` equals the signal.

    Kept as the estimate, its p x r12 mixing channel and the r12 x n common
    factor scores ``c0``.  The common source ``c = channel @ c0`` and the
    distinctive source ``d = xhat - c`` are formed only when read, a block
    of columns at a time by ``columns``.
    """

    estimate: SignalEstimate
    channel: np.ndarray
    c0: np.ndarray

    def columns(self, cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Columns ``cols`` of the common and the distinctive source, each as
        the rows of a C-contiguous array."""
        c = self.c0[:, cols].T @ self.channel.T
        return c, self.estimate.xhat_columns(cols) - c

    @cached_property
    def c(self) -> np.ndarray:
        return self.columns()[0].T

    @cached_property
    def d(self) -> np.ndarray:
        return self.columns()[1].T


def canonical_system(
    x1: SignalEstimate, x2: SignalEstimate, r12: int
) -> CanonicalSystem:
    """Build canonical scores from the factored signal estimates.

    Each estimate ``xhat_k = U_k diag(s_k) V_k'`` is whitened on the
    strictly positive eigenvalues ``lam_k = s_k**2 / n`` of ``xhat_k @
    xhat_k.T / n``.  With orthonormal ``U_k`` and ``V_k`` the whitened
    scores are ``sqrt(n) V_k'`` on the kept columns, so their
    cross-covariance is the r1 x r2 matrix ``V_1' V_2``; its left/right
    singular vectors rotate the scores into canonical coordinates, and its
    first ``r12`` singular values (clipped to [0, 1]) are the sample
    canonical correlations.

    Raises
    ------
    ZeroSignal
        If an estimate is zero after thresholding; both are checked before
        any rank condition.
    RankDeficiency
        If a covariance eigenvalue is negligible relative to its largest,
        or ``r12`` exceeds an available rank.
    """
    if x1.n != x2.n:
        raise InputError("signal estimates have different sample counts")
    n = x1.n
    spectra = []
    for x in (x1, x2):
        lam = x.soft_singular_values**2 / n
        keep = lam > 0
        if not np.any(keep):
            raise ZeroSignal("signal estimate is zero after thresholding")
        spectra.append((x.right_vectors[:, keep], lam[keep]))
    for _, lam in spectra:
        if np.any(lam <= 1e-12 * lam[0]):
            raise RankDeficiency("covariance spectrum is numerically degenerate")
    rank1, rank2 = (lam.shape[0] for _, lam in spectra)
    if r12 > min(rank1, rank2):
        raise RankDeficiency(f"r12 = {r12} exceeds available ranks ({rank1}, {rank2})")
    (v1, _), (v2, _) = spectra
    u1, svals, v2t = svd(v1.T @ v2, full_matrices=True)
    u1, v2t = fix_signs(u1, v2t)
    z1, z2 = (np.sqrt(n) * u1.T) @ v1.T, (np.sqrt(n) * v2t) @ v2.T
    return CanonicalSystem(z1=z1, z2=z2, correlations=clip_correlations(svals[:r12]))


def common_factor_coefficients(correlations: np.ndarray) -> np.ndarray:
    """Shrinkage coefficient per canonical pair.

    ``a = (1 - sqrt((1 - rho) / (1 + rho))) / 2``, which is
    ``(1 - tan(theta/2)) / 2`` for ``rho = cos(theta)``.  Monotone in
    ``rho`` with a = 1/2 at rho = 1 and a = 0 at rho = 0.
    """
    rho = np.clip(np.asarray(correlations, dtype=np.float64), 0.0, 1.0)
    return 0.5 * (1.0 - np.sqrt((1.0 - rho) / (1.0 + rho)))


def common_factor_scores(system: CanonicalSystem) -> np.ndarray:
    """Common factor scores ``c0`` (r12 x n): the sum of the two score
    blocks, each pair scaled by ``common_factor_coefficients`` of its
    canonical correlation."""
    r12 = system.r12
    coefficients = common_factor_coefficients(system.correlations)
    return coefficients[:, None] * (system.z1[:r12] + system.z2[:r12])


def mixing_channel(xhat: SignalEstimate, system: CanonicalSystem, k: int) -> np.ndarray:
    """Mixing channel ``b_k = xhat @ z_k[:r12].T / n`` (p_k x r12) of dataset ``k``,
    formed from the factors as ``(U s)(V' z_k[:r12]') / n``."""
    if k not in (1, 2):
        raise InputError(f"dataset index must be 1 or 2, got {k}")
    z = system.z1 if k == 1 else system.z2
    load = xhat.left_vectors * xhat.soft_singular_values
    return load @ (xhat.right_vectors.T @ z[: system.r12].T) / system.n


def source_decomposition(
    xhat: SignalEstimate, channel: np.ndarray, c0: np.ndarray
) -> SourceDecomposition:
    """Split one signal estimate into common and distinctive sources.

    The common source is ``b_k @ c0`` for the dataset's mixing channel
    ``b_k`` and the common factor scores ``c0``; the distinctive source is
    the remainder, so additivity is exact by construction.  Both stay
    factored until read.
    """
    return SourceDecomposition(estimate=xhat, channel=channel, c0=c0)
