import numpy as np
import pytest

from cdpa import (
    ChannelRankDeficient,
    common_loadings,
    orthonormal_basis,
    principal_angles,
)
from cdpa._linalg import random_orthonormal

from helpers import rotate_pair


def _planted_bases(rng, p, angles_deg):
    """Two orthonormal bases whose principal angles are exactly as given."""
    r = len(angles_deg)
    q1 = random_orthonormal(rng, p, r)
    g = rng.standard_normal((p, r))
    g -= q1 @ (q1.T @ g)
    w, _ = np.linalg.qr(g)
    cos = np.cos(np.deg2rad(angles_deg))
    sin = np.sin(np.deg2rad(angles_deg))
    q2 = q1 * cos + w * sin
    return q1, q2


def _shared_directions(pair):
    """``c_b`` from ``common_loadings``: with unit traces and each channel
    equal to its principal vectors, both dual weights are the identity."""
    return common_loadings(pair, pair.v_b1, pair.v_b2, (1.0, 1.0))[0]


# ----------------------------------------------------------- orthonormal_basis


def test_basis_of_orthonormal_input_spans_same_space():
    # singular values are all tied here, so only the span is pinned down
    rng = np.random.default_rng(0)
    q = random_orthonormal(rng, 20, 4)
    got = orthonormal_basis(q)
    np.testing.assert_allclose(got.T @ got, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(got @ got.T, q @ q.T, atol=1e-10)


def test_basis_is_scale_invariant():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 15, 2)
    b = q @ np.diag([5.0, 3.0])
    got = orthonormal_basis(b)
    np.testing.assert_allclose(got @ got.T, q @ q.T, atol=1e-10)


def test_basis_projector_properties():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((50, 3))
    q = orthonormal_basis(b)
    proj = q @ q.T
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(np.trace(proj), 3.0, atol=1e-10)


def test_basis_rank_deficient_channel():
    rng = np.random.default_rng(3)
    q = random_orthonormal(rng, 12, 2)
    b = np.hstack([q[:, :1], q[:, :1] * (1 + 1e-14), q[:, 1:]])
    with pytest.raises(ChannelRankDeficient):
        orthonormal_basis(b)


# ----------------------------------------------------------- principal_angles


def test_coincident_subspaces():
    rng = np.random.default_rng(4)
    q = random_orthonormal(rng, 18, 3)
    pair = principal_angles(q, q.copy(), np.arange(18))
    np.testing.assert_allclose(pair.cosines, np.ones(3), atol=1e-10)
    np.testing.assert_allclose(pair.v_b1, pair.v_b2, atol=1e-8)


def test_orthogonal_subspaces():
    rng = np.random.default_rng(5)
    basis = random_orthonormal(rng, 20, 4)
    pair = principal_angles(basis[:, :2], basis[:, 2:], np.arange(20))
    np.testing.assert_allclose(pair.cosines, np.zeros(2), atol=1e-10)


def test_planted_angles_recovered():
    rng = np.random.default_rng(6)
    q1, q2 = _planted_bases(rng, 4, [30.0, 60.0])
    pair = principal_angles(q1, q2, np.arange(4))
    np.testing.assert_allclose(
        pair.cosines, np.cos(np.deg2rad([30.0, 60.0])), atol=1e-10
    )


def test_principal_vectors_bi_orthogonal():
    rng = np.random.default_rng(7)
    q1 = random_orthonormal(rng, 30, 4)
    q2 = random_orthonormal(rng, 30, 4)
    pair = principal_angles(q1, q2, np.arange(30))
    np.testing.assert_allclose(
        pair.v_b1.T @ pair.v_b1, np.eye(4), atol=1e-8
    )
    np.testing.assert_allclose(
        pair.v_b2.T @ pair.v_b2, np.eye(4), atol=1e-8
    )
    np.testing.assert_allclose(
        pair.v_b1.T @ pair.v_b2, np.diag(pair.cosines), atol=1e-8
    )


def test_permutation_applies_to_second_basis():
    rng = np.random.default_rng(8)
    q1 = random_orthonormal(rng, 10, 2)
    perm = rng.permutation(10)
    q2a = q1[np.argsort(perm)]  # rows scrambled so that q2a[perm] == q1
    pair = principal_angles(q1, q2a, perm)
    np.testing.assert_allclose(pair.cosines, np.ones(2), atol=1e-10)


def test_basis_rotation_invariance():
    rng = np.random.default_rng(9)
    q1, q2 = _planted_bases(rng, 25, [20.0, 50.0, 70.0])  # distinct angles
    rot = random_orthonormal(rng, 3, 3)
    pair = principal_angles(q1, q2, np.arange(25))
    pair_rot = principal_angles(q1 @ rot, q2, np.arange(25))
    np.testing.assert_allclose(pair.cosines, pair_rot.cosines, atol=1e-10)
    c_b = _shared_directions(pair)
    c_b_rot = _shared_directions(pair_rot)
    np.testing.assert_allclose(c_b @ c_b.T, c_b_rot @ c_b_rot.T, atol=1e-8)


# ------------------------------------------------------------ common_loadings


def test_common_basis_zero_angle():
    rng = np.random.default_rng(10)
    q1, q2 = _planted_bases(rng, 8, [0.0])
    pair = principal_angles(q1, q2, np.arange(8))
    c_b = _shared_directions(pair)
    np.testing.assert_allclose(c_b, pair.v_b1, atol=1e-7)
    np.testing.assert_allclose(c_b, pair.v_b2, atol=1e-7)


def test_common_basis_right_angle():
    rng = np.random.default_rng(11)
    q1, q2 = _planted_bases(rng, 8, [90.0])
    pair = principal_angles(q1, q2, np.arange(8))
    c_b = _shared_directions(pair)
    np.testing.assert_allclose(c_b, np.zeros_like(c_b), atol=1e-10)


def test_common_basis_sixty_degree_norm():
    rng = np.random.default_rng(12)
    q1, q2 = _planted_bases(rng, 9, [60.0])
    pair = principal_angles(q1, q2, np.arange(9))
    c_b = _shared_directions(pair)
    want = (1 - np.tan(np.deg2rad(30.0))) * np.sqrt((1 + 0.5) / 2.0)
    np.testing.assert_allclose(np.linalg.norm(c_b), want, atol=1e-8)
    np.testing.assert_allclose(np.linalg.norm(c_b), 0.3660254, atol=1e-6)


def test_common_basis_additivity_and_column_geometry():
    rng = np.random.default_rng(13)
    q1, q2 = _planted_bases(rng, 30, [15.0, 40.0, 65.0, 88.0])
    pair = principal_angles(q1, q2, np.arange(30))
    c_b = _shared_directions(pair)
    gram = c_b.T @ c_b
    np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-8)
    want_sq = (
        (1 - np.sqrt((1 - pair.cosines) / (1 + pair.cosines))) ** 2
        * (1 + pair.cosines)
        / 2.0
    )
    np.testing.assert_allclose(np.diag(gram), want_sq, atol=1e-8)
    # distinctive directions of the two datasets are orthogonal pairwise
    dots = np.sum((pair.v_b1 - c_b) * (pair.v_b2 - c_b), axis=0)
    np.testing.assert_allclose(dots, np.zeros(4), atol=1e-8)


def test_tied_cosine_block_rotation_preserves_projector():
    rng = np.random.default_rng(14)
    q1, q2 = _planted_bases(rng, 24, [45.0, 45.0, 45.0, 80.0])
    pair = principal_angles(q1, q2, np.arange(24))
    rotated = rotate_pair(pair, 0, 3, rng)
    c0 = _shared_directions(pair)
    c1 = _shared_directions(rotated)
    np.testing.assert_allclose(c0 @ c0.T, c1 @ c1.T, atol=1e-8)


def test_principal_angles_rejects_non_integer_permutation():
    from cdpa import InputError

    rng = np.random.default_rng(10)
    q1, q2 = _planted_bases(rng, 6, [10.0, 40.0])
    with pytest.raises(InputError):
        principal_angles(q1, q2, [0.9, 1.2, 2.7, 3.5, 4.1, 5.9])
