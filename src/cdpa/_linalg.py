"""Shared linear-algebra helpers with deterministic sign conventions."""

from __future__ import annotations

import math

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
    and subdiagonal ``e``, in ascending order, by LAPACK ``dsterf``; a 1 x 1
    matrix, whose empty ``e`` scipy's wrapper rejects, is its own eigenvalue."""
    return d.copy() if d.size == 1 else _lapack("dsterf", d, e)


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


_EPS = np.finfo(np.float64).eps
# a kept pair is certified when its residual is at most _CERTIFY * m * eps * w_i
_CERTIFY = 0.5
# the filter is the Chebyshev polynomial of this degree on [0, a small Ritz value]
_DEGREE = 4


def filtered_top(g: np.ndarray, r: int):
    """The ``r`` largest eigenvalues, descending, and their eigenvectors as
    columns, of the symmetric positive semidefinite ``g`` (m x m), by
    Chebyshev-filtered subspace iteration (Zhou, Saad, Tiago & Chelikowsky,
    J. Comput. Phys. 2006); None when the result cannot be certified.

    A block of ``b = r + 3`` vectors starts from the top ``b`` Ritz pairs
    of the unit vectors of the ``2 b`` largest diagonal entries, which come
    from that 2b x 2b principal submatrix and the columns ``g[:, idx]``
    without a product by ``g``; twice ``b`` of them, so that samples repeated in
    the data (as in a bootstrap replicate) still leave ``b`` independent
    directions.  Each round applies to the block the degree-4 Chebyshev
    polynomial that is at most 1 in magnitude on ``[0, a]``, ``a`` the
    smallest Ritz value of the block above the round-off of ``g``
    (``m eps w_0``), and grows fast above it: three products ``g @ z``,
    as the first degree reuses ``g @ x`` from the last Rayleigh-Ritz step.
    It then orthonormalizes the block by QR and takes its Rayleigh-Ritz
    pairs: a fourth product and a b x b ``eigh``.  The top ``r`` pairs are
    returned once they are certified:

    * each residual ``||g x_i - w_i x_i||`` is at most ``m eps w_i / 2``.
      Converged pairs sit far below that (about ``0.01 m eps w_i`` on the
      benchmark's Grams), and the bound caps the error of each vector at
      its residual over its gap: a fifth pair certified at ``0.83 m eps
      w_4`` moved written matrices by 5.9e-14 of their largest entry, and
      one more round, to below ``m eps w_4 / 2``, brought that to 1.3e-14,
      as much as two direct eigensolvers differ.
    * no eigenvalue of ``g`` outside the kept pairs reaches ``w_{r-1}``.
      The rest of the spectrum has the sum ``t = trace(g) - sum(w)`` and
      the square sum ``f = ||g||_F**2 - sum(w**2)`` over ``k = m - r``
      eigenvalues, so its largest is at most ``t / k + sqrt((k - 1) (f / k
      - (t / k)**2))`` (Wolkowicz & Styan, Linear Algebra Appl. 1980);
      the residuals widen the margin by Weyl's inequality.  This catches a
      top eigenvector that the start misses exactly, as on a
      block-diagonal ``g``, where the residuals alone would certify
      smaller pairs.  Converged pairs that fail it are returned as None at
      once, since further rounds would not change it.

    The budget is the flops of the tridiagonal reduction that the
    iteration replaces, ``4/3 m**3``.  A round takes four products of ``2
    m**2 b`` flops, so ``m // (6 b)`` rounds fit in it, and the iteration
    gives up after them.  When fewer than three rounds fit, that is when
    ``m < 18 b``, it is not tried.  It also gives up when at most ``r``
    Ritz values of the block exceed the round-off of ``g``: there is no
    resolved gap below the kept pairs to filter across (a zero, rank-1 or
    exactly low-rank ``g``).  A None thus costs at most one reduction's
    flops, spent in matrix products, which run faster than the
    reduction's.

    Raises ``NumericalError`` when the QR or the Ritz eigensolve fails.
    """
    m = g.shape[0]
    if r == 0:
        return np.zeros(0), np.zeros((m, 0))
    b = r + 3
    rounds = m // (6 * b)
    if rounds < 3:
        return None
    idx = np.argsort(-np.diagonal(g), kind="stable")[: 2 * b]
    theta, s = _ritz(g[np.ix_(idx, idx)])
    theta, s = theta[:b], s[:, :b]
    x = np.zeros((m, b))
    x[idx] = s
    y = g[:, idx] @ s
    k = m - r
    fro = float(np.vdot(g, g)) * (1.0 + m * _EPS)  # bounds its own round-off
    trace = float(np.trace(g))
    for _ in range(rounds):
        # Ritz values at the round-off of g belong to null directions of g
        # (a repeated sample puts one in the start); filter above the rest
        resolved = int(np.count_nonzero(theta > m * _EPS * theta[0]))
        if resolved <= r:
            return None
        half = theta[resolved - 1] / 2.0  # the filter's centre and half-width
        z0, z = x, y / half - x
        for _ in range(_DEGREE - 1):
            z0, z = z, (g @ z) * (2.0 / half) - 2.0 * z - z0
        try:
            x = np.linalg.qr(z)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"QR of the filtered {z.shape} block failed: {exc}") from exc
        y = g @ x
        theta, s = _ritz(x.T @ y)
        x, y = x @ s, y @ s
        w = theta[:r]
        residual = np.linalg.norm(y[:, :r] - x[:, :r] * w, axis=0)
        if np.all(residual <= _CERTIFY * m * _EPS * w):
            t = (trace - float(np.sum(w))) / k  # the mean of the rest
            var = (fro - float(np.sum(w**2))) / k - t * t
            rest = t + math.sqrt(max(var, 0.0) * (k - 1))
            return (w, x[:, :r]) if rest < w[-1] - float(np.sum(residual)) else None
    return None


def _ritz(h: np.ndarray):
    """Eigenvalues, descending, and eigenvectors of the symmetric part of the
    small ``h``, with a failed eigensolve raised as ``NumericalError``."""
    try:
        theta, s = np.linalg.eigh((h + h.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Ritz eigensolve of a {h.shape} matrix failed: {exc}") from exc
    return theta[::-1], s[:, ::-1]


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

