"""Principal angles between channel column spaces and the shared basis.

The closeness of the two mixing-channel subspaces is measured by the
singular values of the product of their orthonormal bases.  Each pair of
principal vectors gives a shared direction, with the same shrinkage rule
used for canonical variables, and the shared directions weighted by the
consensus of the two channels give the common loadings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import clip_correlations, fix_signs, svd
from .align import _check_bases, as_permutation
from .dcca import common_factor_coefficients
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


def orthonormal_basis(channel: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the p x r12 channel's column space (its left
    singular vectors).

    Raises
    ------
    InputError
        If the channel is empty or has a non-finite entry.
    ChannelRankDeficient
        If the channel's smallest singular value is negligible.
    """
    if channel.size == 0 or not np.all(np.isfinite(channel)):
        raise InputError(f"channel of shape {channel.shape} must be nonempty and finite")
    u, s, _ = svd(channel)
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
    _check_bases(q1, q2a)
    perm = as_permutation(permutation, q1.shape[0])
    q2p = q2a[perm]
    u1, svals, v2t = svd(q1.T @ q2p, full_matrices=True)
    u1, v2t = fix_signs(u1, v2t)
    return ChannelSubspacePair(
        q1=q1,
        q2a=q2a,
        cosines=clip_correlations(svals),
        v_b1=q1 @ u1,
        v_b2=q2p @ v2t.T,
    )


def common_loadings(
    pair: ChannelSubspacePair,
    b1: np.ndarray,
    b2_aligned: np.ndarray,
    scales: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Common loadings ``c_b @ s`` of both orientations of dataset 2.

    ``b1`` and ``b2_aligned`` are the pmax x r12 channels, zero-padded,
    with dataset 2's rows aligned.  Each is expressed in its own
    principal-vector basis and divided by its scale, the square root of
    its covariance trace, giving the dual weights ``w1`` and ``w2``; the
    consensus is ``s = (w1 + w2) / 2``, or ``(w1 - w2) / 2`` with dataset
    2 negated.  The shared direction ``c_b`` is the shrunken average of
    each principal-vector pair, with the same coefficient rule as for
    canonical variables; it vanishes for orthogonal pairs and coincides
    with both vectors for parallel ones.  Returns ``(plus, minus)``.
    """
    if scales[0] <= 0 or scales[1] <= 0:
        raise InputError("covariance traces must be positive")
    w1 = pair.v_b1.T @ b1 / float(scales[0])
    w2 = pair.v_b2.T @ b2_aligned / float(scales[1])
    coeff = 2.0 * common_factor_coefficients(pair.cosines)  # 1 - tan(theta/2)
    c_b = coeff * (pair.v_b1 + pair.v_b2) / 2.0
    return c_b @ (0.5 * (w1 + w2)), c_b @ (0.5 * (w1 - w2))
