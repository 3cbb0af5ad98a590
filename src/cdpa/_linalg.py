"""Shared linear-algebra helpers with deterministic sign conventions."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalError


def fix_signs(u: np.ndarray, vt: np.ndarray | None = None):
    """Resolve the sign ambiguity of singular/eigen vectors.

    Each column of ``u`` is flipped so that its largest-magnitude entry is
    positive.  When ``vt`` is given, its rows are flipped jointly with the
    matching columns of ``u`` so that ``u @ diag(s) @ vt`` is unchanged.
    """
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    if vt is None:
        return u
    vt = vt.copy()
    k = min(vt.shape[0], u.shape[1])
    vt[:k] *= signs[:k, None]
    return u, vt


def svd(a: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """``np.linalg.svd``, with a failure to converge raised as ``NumericalError``."""
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of a {a.shape} matrix failed: {exc}") from exc


def eigh_top(a: np.ndarray, r: int):
    """The ``r`` largest eigenvalues of the symmetric ``a`` in descending
    order and their eigenvectors as columns, by LAPACK's MRRR solver
    (``scipy.linalg.eigh`` with ``driver="evr"``), which computes no other
    eigenpair.  A failure to converge is raised as ``NumericalError``.
    """
    m = a.shape[0]
    if r == 0:
        return np.zeros(0), np.zeros((m, 0))
    try:
        w, q = scipy.linalg.eigh(a, subset_by_index=[m - r, m - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"top-{r} eigensolve of a {a.shape} matrix failed: {exc}") from exc
    return w[::-1], q[:, ::-1]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric ``a`` in ascending order, without
    eigenvectors; a failure to converge is raised as ``NumericalError``."""
    try:
        return scipy.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalues of a {a.shape} matrix failed: {exc}") from exc


def random_orthonormal(rng: np.random.Generator, p: int, r: int) -> np.ndarray:
    """Random p x r matrix with orthonormal columns, sign-normalized."""
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return fix_signs(q)


def orthonormal_complement(
    rng: np.random.Generator, basis: np.ndarray, r: int
) -> np.ndarray:
    """Random orthonormal columns spanning directions orthogonal to ``basis``."""
    p = basis.shape[0]
    g = rng.standard_normal((p, r))
    g -= basis @ (basis.T @ g)
    q, _ = np.linalg.qr(g)
    # re-orthogonalize once against the basis for numerical safety
    q -= basis @ (basis.T @ q)
    q, _ = np.linalg.qr(q)
    return fix_signs(q)


def pad_rows(m: np.ndarray, p: int) -> np.ndarray:
    """Append zero rows so that ``m`` has ``p`` rows."""
    if m.shape[0] == p:
        return m
    return np.vstack([m, np.zeros((p - m.shape[0], m.shape[1]))])


def clip_correlations(values: np.ndarray) -> np.ndarray:
    """Clamp correlation-like values to [0, 1] with round-off guards.

    Values within 1e-12 of 1 are snapped to exactly 1 so that coincident
    inputs produce the exact limiting decomposition.
    """
    out = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    out[out > 1.0 - 1e-12] = 1.0
    return out

