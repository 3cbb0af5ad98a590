"""Principal angles between channel column spaces and the shared basis.

The closeness of the two mixing-channel subspaces is measured by the
singular values of the product of their orthonormal bases.  Each pair of
principal vectors is split into a shared direction and per-dataset
remainders with the same shrinkage rule used for canonical variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import clip_correlations, fix_signs
from .align import as_permutation
from .dcca import MixingChannel, common_factor_coefficients
from .errors import ChannelRankDeficient, InputError


@dataclass(frozen=True)
class ChannelSubspacePair:
    """Principal angle system of two (aligned) channel subspaces.

    ``v_b1.T @ v_b2`` is diagonal with the ``cosines`` on the diagonal;
    ``v_b2`` already includes the row alignment.
    """

    q1: np.ndarray
    q2a: np.ndarray
    cosines: np.ndarray
    v_b1: np.ndarray
    v_b2: np.ndarray


@dataclass(frozen=True)
class ChannelPatternBasis:
    """Shared and per-dataset channel directions, columnwise additive."""

    c_b: np.ndarray
    d_b1: np.ndarray
    d_b2: np.ndarray


def orthonormal_basis(channel: MixingChannel) -> np.ndarray:
    """Orthonormal basis of the channel column space (its left singular vectors).

    Raises
    ------
    ChannelRankDeficient
        If the channel's smallest singular value is negligible.
    """
    u, s, _ = np.linalg.svd(channel.b, full_matrices=False)
    if s[-1] <= 1e-10 * s[0]:
        raise ChannelRankDeficient(
            f"channel singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    return fix_signs(u)


def principal_angles(
    q1: np.ndarray, q2a: np.ndarray, permutation
) -> ChannelSubspacePair:
    """Principal angles and vectors of ``colsp(q1)`` vs row-aligned ``colsp(q2a)``.

    ``permutation`` is a 0-based index array applied to the rows of
    ``q2a`` (``aligned = q2a[permutation]``).
    """
    if q1.shape != q2a.shape:
        raise InputError(f"basis shapes differ: {q1.shape} vs {q2a.shape}")
    perm = as_permutation(permutation, q1.shape[0])
    q2p = q2a[perm]
    u1, svals, v2t = np.linalg.svd(q1.T @ q2p)
    u1, v2t = fix_signs(u1, v2t)
    return ChannelSubspacePair(
        q1=q1,
        q2a=q2a,
        cosines=clip_correlations(svals),
        v_b1=q1 @ u1,
        v_b2=q2p @ v2t.T,
    )


def channel_common_basis(pair: ChannelSubspacePair) -> ChannelPatternBasis:
    """Split each principal-vector pair into shared and distinctive parts.

    The shared direction is the shrunken average of the pair, with the
    same coefficient rule as for canonical variables; it vanishes for
    orthogonal pairs and coincides with both vectors for parallel ones.
    """
    coeff = 2.0 * common_factor_coefficients(pair.cosines)  # 1 - tan(theta/2)
    c_b = coeff * (pair.v_b1 + pair.v_b2) / 2.0
    return ChannelPatternBasis(c_b=c_b, d_b1=pair.v_b1 - c_b, d_b2=pair.v_b2 - c_b)
