"""Shared linear-algebra helpers with deterministic sign conventions."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

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


def _lapack(name: str, *args, **kwargs):
    """Call scipy's LAPACK wrapper ``name`` and return its outputs but the
    trailing ``info``; a nonzero ``info`` is raised as ``NumericalError``."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info > 0:
        raise NumericalError(f"LAPACK {name} did not converge (info={info})")
    if info < 0:
        raise NumericalError(f"LAPACK {name} rejected argument {-info}")
    return out[0] if len(out) == 1 else out


def tridiagonalize(a: np.ndarray):
    """Householder reduction ``a = Q T Q.T`` of the symmetric ``a`` (one
    triangle is read) by LAPACK ``dsytrd`` with the optimal workspace, done
    in place when ``a`` is C- or Fortran-contiguous: ``(c, d, e, tau)``, the
    diagonal ``d`` and subdiagonal ``e`` of ``T``, and the reflectors of
    ``Q`` stored below the subdiagonal of ``c`` with their factors ``tau``.
    """
    m = a.shape[0]
    lwork = int(_lapack("dsytrd_lwork", m, lower=1))
    # a symmetric C-ordered matrix is its own transpose, which is Fortran-ordered
    return _lapack("dsytrd", a.T if a.flags.c_contiguous else a, lower=1, lwork=lwork, overwrite_a=1)


def tridiagonal_eigvalsh(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal matrix with diagonal ``d``
    and subdiagonal ``e``, in ascending order, by LAPACK ``dsterf``."""
    return _lapack("dsterf", d, e)


def tridiagonal_top(c: np.ndarray, d: np.ndarray, e: np.ndarray, tau: np.ndarray, r: int):
    """The ``r`` largest eigenvalues, descending, and their eigenvectors as
    columns, of the matrix that ``tridiagonalize`` returned as ``(c, d, e,
    tau)``.  Bisection (``dstebz``) finds the eigenvalues of ``T``, inverse
    iteration (``dstein``) their vectors, and one ``dormqr`` applies ``Q``
    to them; no other eigenpair is computed.
    """
    m = d.size
    if r == 0:
        return np.zeros(0), np.zeros((m, 0))
    tiny = 2.0 * np.finfo(np.float64).tiny  # bisect to full relative accuracy
    k, w, iblock, isplit = _lapack("dstebz", d, e, 2, 0.0, 0.0, m - r + 1, m, tiny, "B")
    w = w[:k]
    z = _lapack("dstein", d, e, w, iblock, isplit)
    if m > 1:
        # H(i) leaves row 0 alone; its reflector fills c[i + 1:, i], so the
        # (m - 1)-row reflector block starts one element into c's buffer
        c = np.asfortranarray(c)
        block = np.ndarray((m, m - 1), buffer=c, offset=c.itemsize, order="F")
        lwork = int(_lapack("dormqr", "L", "N", block, tau, z[1:], -1)[1][0])
        z[1:] = _lapack("dormqr", "L", "N", block, tau, z[1:], lwork)[0]
    order = np.argsort(-w, kind="stable")  # dstebz orders by split block
    return w[order], z[:, order]


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

