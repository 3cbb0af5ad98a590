"""Signal denoising, rank selection, and pipeline diagnostics.

Each observed matrix is modeled as a low-rank signal plus noise.  The
signal is recovered by soft-thresholding the squared singular values with
a noise-calibrated constant, the per-dataset signal ranks are selected
from eigenvalue gaps, and the shared rank is selected by a penalized
log-likelihood criterion over the affinity of the right singular
subspaces.  Each dataset's short-side Gram matrix is formed once and
kept.  Rank selection reads all its eigenvalues from one tridiagonal
reduction of a copy.  Each rank takes only its top-r eigenpairs, from a
certified Chebyshev-filtered subspace iteration that spends at most the
flops of that reduction, or from a reduction when the iteration cannot
certify them or the Gram is too small for it; the tail energy is the
trace minus their sum.  For ranks that the Gram spectrum cannot
resolve, the spectrum comes from the SVD of the triangular factor of a
thin QR instead, and one Rayleigh-Ritz step gives the vectors either
way.  The correlation screen scores the cross-dataset pairs a block of
rows at a time and stops at the first block that decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from ._linalg import (
    filtered_top,
    fix_signs,
    svd,
    tridiagonal_eigvalsh,
    tridiagonal_top,
    tridiagonalize,
)
from ._worker import map_shared
from .errors import (
    DegenerateThreshold,
    InputError,
    NumericalError,
    RankTooLarge,
    TooFewSamples,
    check_count,
)

# the Gram route resolves energies above _RESOLVE * m * eps * s_0**2
_RESOLVE = 1e3
# largest |k| for which gram scales the product, not the data, by 4**-k
_UNSCALED_GRAM = 256


@dataclass(frozen=True)
class ObservedMatrix:
    """A variables-by-samples data matrix.

    Parameters
    ----------
    values : ndarray, shape (p, n)
        Data with rows as variables and columns as samples.
    """

    values: np.ndarray
    # not cached_property: before Python 3.12 its lock is shared by all instances
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "biuf":
            raise InputError(f"expected bool, integer or float data, got dtype {v.dtype}")
        v = v.astype(np.float64, copy=False)
        if v.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got shape {v.shape}")
        p, n = v.shape
        if p < 1 or n < 2:
            raise InputError(f"need p >= 1 and n >= 2, got ({p}, {n})")
        if not np.all(np.isfinite(v)):
            raise InputError("matrix contains non-finite entries")
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, values: np.ndarray, exponent: int) -> "ObservedMatrix":
        """An instance over the finite 2-d float64 ``values``, unchecked,
        whose largest ``|value|`` has binary exponent ``exponent``."""
        y = object.__new__(cls)
        object.__setattr__(y, "values", values)
        object.__setattr__(y, "_cache", {"exponent": exponent})
        return y

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def _exponent(self) -> int:
        """The binary exponent ``k`` of the largest ``|value|`` (0 for a
        zero matrix), so that ``|values| < 2**k``; ``center_rows`` gives it
        from the row extremes it reads anyway."""
        if "exponent" not in self._cache:
            v = self.values
            self._cache["exponent"] = int(np.frexp(max(v.max(), -v.min()))[1])
        return self._cache["exponent"]

    @property
    def gram(self) -> tuple[np.ndarray, int]:
        """``(g, k)``: the short-side Gram matrix of ``a = values / 2**k``.

        ``2**k`` is the power of two just above the largest ``|value|``, so
        the scaling is exact and no entry of ``g`` overflows.  ``g`` is
        ``a.T @ a`` when p >= n, whose eigenvectors are the right singular
        vectors, or ``a @ a.T`` when p < n, whose eigenvectors are the left
        ones; its eigenvalues are the squared singular values over
        ``4**k``.  For |k| <= 256 the product is taken of the unscaled
        values and scaled by ``4**-k`` after, which rounds bit for bit as
        the scaled product does (scaling by a power of two commutes with
        rounding wherever no product is subnormal) without a scaled copy
        of the data.  Formed once and kept: the top-r solves read it, and
        the tridiagonal reductions work on copies of it.
        """
        if "gram" not in self._cache:
            k = self._exponent
            a = self.values if abs(k) <= _UNSCALED_GRAM else np.ldexp(self.values, -k)
            g = a.T @ a if self.p >= self.n else a @ a.T
            self._cache["gram"] = (np.ldexp(g, -2 * k, out=g) if a is self.values else g), k
        return self._cache["gram"]

    @property
    def spectrum(self) -> np.ndarray:
        """All min(n, p) singular values in descending order, from a
        tridiagonal reduction of a copy of ``gram`` (``tridiagonalize``) read
        by ``dsterf`` (values only), negative eigenvalues clamped to zero.
        Only rank selection (``ed_select_rank``) reads it.  The reduction
        is kept until the first top-r read (``_top``)."""
        if "spectrum" not in self._cache:
            reduced = self._cache["reduced"] = tridiagonalize(self.gram[0].copy())
            w = tridiagonal_eigvalsh(reduced[1], reduced[2])[::-1]
            self._cache["spectrum"] = np.ldexp(np.sqrt(np.maximum(w, 0.0)), self._exponent)
        return self._cache["spectrum"]

    def _top(self, r: int) -> tuple[np.ndarray, np.ndarray, float]:
        """``(w, q, tail)``: the top ``r`` eigenpairs of ``gram``, descending,
        and its tail energy ``trace(g) - sum(w)``, in the units of ``gram``.

        The pairs come from the certified Chebyshev-filtered subspace
        iteration (``filtered_top``).  When it declines (``g`` smaller than
        18 (r + 3), or no certificate within the flops of one reduction),
        they are read from a tridiagonal reduction of a copy of ``g``
        instead (bisection, inverse iteration and one back-transform,
        ``tridiagonal_top``): the one ``spectrum`` kept, which the first
        top-r read drops either way, or a fresh one.  Either way they depend
        on ``g`` and ``r`` alone, so a rank's pairs are the same bits in
        every call order.
        """
        if ("top", r) not in self._cache:
            g, _ = self.gram
            reduced = self._cache.pop("reduced", None)
            top = filtered_top(g, r)
            w, q = top if top is not None else tridiagonal_top(*(reduced or tridiagonalize(g.copy())), r)
            self._cache["top", r] = w, q, float(np.trace(g)) - float(np.sum(w))
        return self._cache["top", r]

    def resolves(self, r: int) -> bool:
        """Whether the Gram route resolves rank ``r``.

        The eigenvalues of ``gram`` carry a round-off of about
        ``m * eps * w_0`` (m = min(n, p), ``w_0`` the largest).  Rank
        ``r >= 1`` is resolved when both the kept energy ``w_{r-1}``
        (``s_r**2``) and the tail energy ``trace - sum of the top r``
        (``sum_{l>r} s_l**2``) exceed ``1e3 * m * eps * w_0``; the top-r
        solve gives all three.  Rank 0 reads only the total energy.
        """
        if r == 0:
            return True
        w, _, tail = self._top(r)
        floor = _RESOLVE * min(self.p, self.n) * np.finfo(np.float64).eps * w[0]
        return bool(w[0] > 0 and w[-1] > floor and tail > floor)

    def factors(self, r: int):
        """``(s_r, residual, u_r, v_r)``: the top ``r`` singular values, the
        residual norm ``||Y - Y_r||_F = sqrt(sum_{l>r} s_l**2)``, and the
        top-``r`` left (p x r) and right (n x r) singular vectors, with
        unresolved signs.

        With ``m = Y`` (p >= n) or ``Y.T`` (p < n), the short-side vectors
        ``q_r`` are the top-``r`` eigenvectors of ``gram`` (``_top``: the
        certified filtered iteration, or a tridiagonal reduction when it
        declines), and the tail energy is its trace minus its top ``r``
        eigenvalues, when that resolves rank ``r``; otherwise both come
        from the SVD of the
        min(n, p)-square triangular factor of the thin QR of ``m``, whose
        spectrum is free of the Gram round-off.  One Rayleigh-Ritz step then
        refines ``q_r``: the thin QR ``m q_r = o t`` and the SVD
        ``t = a diag(s_r) b.T`` give the long-side vectors ``o a``, the
        short-side vectors ``q_r b`` and the top ``r`` singular values
        ``s_r``, so both sides are orthonormal to round-off.  The step is
        taken once per rank and reads nothing that depends on which ranks
        or spectra were read before, so the denoiser, the noise trace and
        the shared-rank criterion read the same values in every call order.
        """
        if r not in self._cache:
            tall = self.p >= self.n
            m = self.values if tall else self.values.T
            if self.resolves(r):
                _, q, tail = self._top(r)
                residual = math.ldexp(math.sqrt(max(tail, 0.0)), self._exponent)
            else:
                _, s, vt = svd(np.linalg.qr(m, mode="r"))
                q, residual = vt[:r].T, math.hypot(*s[r:])
            o, t = np.linalg.qr(m @ q)
            a, s_r, bt = svd(t)
            u, v = (o @ a, q @ bt.T) if tall else (q @ bt.T, o @ a)
            self._cache[r] = s_r, residual, u, v
        return self._cache[r]


@dataclass(frozen=True)
class RankProfile:
    """Selected signal ranks for the two datasets and their shared rank."""

    r1: int
    r2: int
    r12: int

    def __post_init__(self):
        for name in ("r1", "r2", "r12"):
            check_count(getattr(self, name), name)
        if not (0 <= self.r12 <= min(self.r1, self.r2)):
            raise InputError(
                f"need 0 <= r12 <= min(r1, r2), got ({self.r1}, {self.r2}, {self.r12})"
            )


@dataclass(frozen=True)
class SignalEstimate:
    """Soft-thresholded low-rank signal estimate, kept as its SVD factors.

    The p x n estimate ``xhat = left_vectors @ diag(soft_singular_values)
    @ right_vectors.T`` is formed only when it is read, a block of columns
    at a time by ``xhat_columns``.
    """

    rank: int
    soft_singular_values: np.ndarray
    tau: float
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def p(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def n(self) -> int:
        return self.right_vectors.shape[0]

    def xhat_columns(self, cols: slice = slice(None)) -> np.ndarray:
        """Columns ``cols`` of ``xhat``, as the rows of a C-contiguous array."""
        # a C-ordered right operand rounds as ``(u * s) @ v.T`` does, bit for bit
        scaled = np.multiply(self.soft_singular_values[:, None], self.left_vectors.T, order="C")
        return self.right_vectors[cols] @ scaled

    @cached_property
    def xhat(self) -> np.ndarray:
        """The dense p x n estimate."""
        return self.xhat_columns().T

    @property
    def root_trace(self) -> float:
        """The square root of the trace of the signal covariance ``xhat @
        xhat.T / n``, whose eigenvalues are ``soft_singular_values**2 / n``.
        It is formed from the soft singular values relative to the largest
        one and scaled once, so that no step squares a value that may be
        subnormal (the trace of data at 1e-160 is)."""
        s = self.soft_singular_values
        top = float(s.max(initial=0.0))
        return top * math.sqrt(float(np.sum((s / top) ** 2)) / self.n) if top > 0 else 0.0


@dataclass(frozen=True)
class Diagnostics:
    """Signal-to-noise ratios and the derived accuracy rate quantity."""

    snr: tuple[float, float]
    delta_theta: float


def center_rows(y: ObservedMatrix) -> ObservedMatrix:
    """Subtract the mean of each row.

    Constant rows become exact zeros: their round-off residual would be an
    exactly rank-1 pattern that rank selection reads as signal.  The row
    means and extremes ``lo``, ``hi`` give the rest without reading the
    centred copy again: a row is constant when ``lo == hi``, and rounding is
    monotone, so the largest centred ``|value|`` of a row is exactly
    ``max(hi - mean, mean - lo)``, which decides finiteness and ``gram``'s
    exponent.
    """
    mean = y.values.mean(axis=1, keepdims=True)
    lo, hi = y.values.min(axis=1, keepdims=True), y.values.max(axis=1, keepdims=True)
    spread = np.maximum(hi - mean, mean - lo)
    if not np.all(np.isfinite(spread)):
        raise InputError("centred matrix contains non-finite entries")
    constant = (lo == hi)[:, 0]
    v = y.values - mean
    v[constant] = 0.0
    spread[constant] = 0.0
    return ObservedMatrix._trusted(v, int(np.frexp(spread.max())[1]))


def _relative(s: np.ndarray) -> tuple[float, np.ndarray]:
    """``(s_0, s / s_0)``, with zeros for a zero spectrum."""
    s0 = float(s[0])
    return s0, (s / s0 if s0 > 0 else s)


def _squared(s0: float, rel: float) -> float:
    """``s0**2 * rel``, a variance of the estimate in the data's units.

    Raises ``NumericalError`` when ``s0**2`` or the product overflows
    (``inf * 0`` is NaN, so one finiteness check covers both).
    """
    value = s0 * s0 * rel
    if not math.isfinite(value):
        raise NumericalError(f"squared singular value {s0:.3e}**2 overflows; rescale the data")
    return value


def soft_threshold_denoise(y: ObservedMatrix, r: int) -> SignalEstimate:
    """Denoise ``y`` by soft-thresholding its squared singular values.

    The threshold ``tau * p`` is calibrated from the residual spectrum:
    ``tau = sum_{l>r} sigma_l^2 / (n*p - n*r - p*r)``.  The top ``r``
    squared singular values are shrunk by ``tau * p`` and floored at zero
    before reconstruction.  The residual energy ``sum_{l>r} sigma_l^2`` is
    the squared residual norm of ``y.factors(r)``.  Both are formed
    relative to the largest singular value, so no step squares the raw
    values.  Rank 0 is the zero-width case: the estimate is zero and
    ``tau = ||Y||_F^2 / (n*p)``.

    Raises
    ------
    RankTooLarge
        If ``r`` is outside ``[0, min(n, p)]``.
    DegenerateThreshold
        If ``n*p - n*r - p*r <= 0`` so the calibration is undefined.
    NumericalError
        If the squared largest singular value overflows.
    """
    p, n = y.p, y.n
    if not 0 <= r <= min(n, p):
        raise RankTooLarge(f"rank {r} outside [0, {min(n, p)}]")
    denom = n * p - n * r - p * r
    if denom <= 0:
        raise DegenerateThreshold(
            f"n*p - n*r - p*r = {denom} <= 0 for (n, p, r) = ({n}, {p}, {r})"
        )
    s, residual, u, v = y.factors(r)
    s0, t = _relative(np.append(s, residual))
    tau_rel = float(t[r] ** 2 / denom)
    tau = _squared(s0, tau_rel)
    s_soft = s0 * np.sqrt(np.maximum(t[:r] ** 2 - tau_rel * p, 0.0))
    u, vt = fix_signs(u, v.T)
    return SignalEstimate(
        rank=r,
        soft_singular_values=s_soft,
        tau=tau,
        left_vectors=u,
        right_vectors=vt.T,
    )


def ed_select_rank(y: ObservedMatrix) -> int:
    """Select the signal rank from the eigenvalue difference profile.

    Candidate ranks run up to ``T = min(#{eigenvalues >= mean}, m // 10)``
    with ``m = min(n, p)``.  The gap threshold ``delta`` is calibrated
    iteratively: regress the five eigenvalues past the current candidate
    rank on ``(index - 1)^(2/3)``, set ``delta = 2 |slope|``, re-select,
    and repeat to a fixed point (at most 50 rounds).

    Every threshold is linear in the eigenvalues, so they are taken
    relative to the largest one and the rank does not depend on the scale
    of ``y``.  Returns 0 for a zero matrix and when no eigenvalue gap
    clears the calibrated threshold.  It is the only step that reads the
    whole spectrum (``ObservedMatrix.spectrum``, values only).
    """
    p, n = y.p, y.n
    if n < 20:
        raise TooFewSamples(f"need n >= 20 to calibrate, got {n}")
    m = min(n, p)
    s = y.spectrum
    if s[0] == 0:
        return 0
    lam = (s / s[0]) ** 2
    t = min(int(np.sum(lam >= lam.mean())), m // 10)
    if t < 1:
        return 0
    if t + 5 > m:
        raise TooFewSamples(
            f"calibration window needs {t + 5} eigenvalues, only {m} available"
        )
    j = t + 1
    r: int | None = None
    for _ in range(50):
        idx = np.arange(j, j + 5)  # 1-based eigenvalue indices
        slope = np.polyfit((idx - 1) ** (2.0 / 3.0), lam[idx - 1], 1)[0]
        delta = 2.0 * abs(slope)
        hits = np.nonzero(lam[:t] - lam[1 : t + 1] >= delta)[0]
        r_new = int(hits[-1] + 1) if hits.size else 0
        if r_new == r:
            break
        r = r_new
        j = r + 1
    return int(r or 0)


_SCREEN_ROWS = 128  # rows of the p1 x p2 correlation matrix formed at a time
_SCREEN_ALPHA = 0.05  # family-wise level of the correlation screen


def correlation_screen(x1: SignalEstimate, x2: SignalEstimate) -> bool:
    """Test whether any cross-dataset variable pair is correlated.

    Applies the Fisher z normal-approximation test at level 0.05 to every
    pair of denoised variables with a Bonferroni correction over all
    p1 * p2 pairs.  A True result licenses a nonzero shared rank.  The
    test is monotone in |r|, so only the largest |r| of each block of rows
    is compared with the critical value, and scoring stops at the first
    block that clears it: the decision is the one the overall maximum
    gives, and a pair with a shared signal is decided by its first block.
    """
    z_crit = _screen_critical_z(x1.p * x2.p)
    scale = np.sqrt(x1.n - 3)
    return any(np.arctanh(min(r, 1.0 - 1e-15)) * scale >= z_crit for r in _block_maxima(x1, x2))


def _screen_critical_z(pairs: int) -> float:
    """The two-sided Bonferroni critical value over ``pairs`` tests,
    ``scipy.stats.norm.isf(q)``, which scipy defines as ``-ndtri(q)``."""
    return -ndtri(_SCREEN_ALPHA / (2.0 * pairs))


def _max_correlation(x1: SignalEstimate, x2: SignalEstimate) -> float:
    """Largest |r| over all cross-dataset pairs of denoised variables."""
    return max(_block_maxima(x1, x2), default=0.0)


def _block_maxima(x1: SignalEstimate, x2: SignalEstimate):
    """The largest |r| in each block of ``_SCREEN_ROWS`` rows of the p1 x p2
    cross-correlation matrix, yielded one block at a time.

    The correlations are formed from the rank-r factors of the two
    estimates, one block when it is asked for, and are never stored whole.
    """
    if x1.n != x2.n:
        raise InputError("signal estimates have different sample counts")
    a1, w1 = _standardized_rows(x1)
    a2, w2 = _standardized_rows(x2)
    cross = w1.T @ w2
    for start in range(0, x1.p, _SCREEN_ROWS):
        block = (a1[start : start + _SCREEN_ROWS] @ cross) @ a2.T
        yield float(np.max(np.abs(block)))


def _standardized_rows(x: SignalEstimate) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(a, w)`` with ``a @ w.T`` the row-standardized ``xhat``.

    Centring the rows of ``xhat = (u s) v.T`` centres the columns of
    ``v``, so each centred row norm is a quadratic form in ``w.T @ w``.
    """
    w = x.right_vectors - x.right_vectors.mean(axis=0)
    load = x.left_vectors * x.soft_singular_values
    sq = np.sum((load @ (w.T @ w)) * load, axis=1)
    # rows that are constant up to round-off contribute zero correlation
    norms = np.sqrt(np.maximum(sq, 0.0))
    norms[sq <= 1e-24 * np.sum(load**2, axis=1)] = np.inf
    return load / norms[:, None], w


def mdl_select_r12(
    y1: ObservedMatrix, y2: ObservedMatrix, r1: int, r2: int
) -> int:
    """Select the shared rank by the penalized subspace-affinity criterion.

    ``s_l`` are the singular values of the product of the two top right
    singular subspaces; the criterion ``n * sum_{l<=r} log(1 - s_l^2) +
    r * (r1 + r2 - r) * log(n)`` is minimized over ``r in [1, min(r1, r2)]``.
    It reads the top right singular vectors of ``factors``, which the
    denoiser has already refined at the same ranks in ``select_ranks``.
    """
    if y1.n != y2.n:
        raise InputError("datasets have different sample counts")
    if min(r1, r2) < 1:
        raise InputError("mdl_select_r12 requires r1, r2 >= 1")
    n = y1.n
    v1, v2 = y1.factors(r1)[3], y2.factors(r2)[3]
    s = svd(v1.T @ v2, compute_uv=False)
    s2 = np.minimum(s**2, 1.0 - 1e-12)  # guard against coincident subspaces
    rmax = min(r1, r2)
    crit = [
        n * np.sum(np.log(1.0 - s2[:r])) + r * (r1 + r2 - r) * np.log(n)
        for r in range(1, rmax + 1)
    ]
    return int(np.argmin(crit)) + 1


def select_ranks(
    y1: ObservedMatrix, y2: ObservedMatrix
) -> tuple[RankProfile, SignalEstimate, SignalEstimate, bool]:
    """Select the ranks and denoise both datasets.

    One step per dataset selects its rank ``r_k`` by ``ed_select_rank``
    and denoises it at that rank; the two steps are independent, so the
    caller runs dataset 1's and the package's shared worker thread
    dataset 2's (``_worker.map_shared``; the caller runs both when the
    worker is busy).  A failed step's error is raised once neither runs,
    dataset 1's when both fail.  The shared rank is then selected by
    ``mdl_select_r12`` when both ranks are nonzero and the correlation
    screen at level 0.05 finds a correlated pair, and is 0 otherwise.
    Returns the ranks, the two signal estimates at ``r1`` and ``r2``, and
    the screen result.

    Each dataset forms its short-side Gram matrix once and keeps it
    (``ObservedMatrix.gram``).  ED reads all its singular values from one
    tridiagonal reduction of a copy (``dsterf``, values only;
    ``ObservedMatrix.spectrum``).  The denoiser takes the top ``r``
    eigenpairs of the selected rank from the certified Chebyshev-filtered
    subspace iteration (``filtered_top``), which spends at most the flops
    of one reduction, or, when it cannot certify them or the Gram is
    smaller than ``18 (r + 3)``, from ED's reduction (bisection, inverse
    iteration and one back-transform).  The tail energy
    ``sum_{l>r} s_l**2`` is the trace minus the top ``r`` eigenvalues.  It
    refines the top-r vectors of both sides, which MDL then reads
    (``ObservedMatrix.factors``); a fixed-rank fit makes the same top-r
    solve without the reduction for ED.  When the kept energy ``s_r**2`` or
    the tail energy is within ``1e3 * m * eps * s_0**2`` of zero, where the
    Gram route cannot resolve it, the spectrum of that dataset is taken
    once more, from the triangular factor of its thin QR, before the same
    refinement.  The correlation screen stops at the first block of rows
    whose largest |r| clears the critical value.  Against reading the
    top-r pairs from ED's reduction, the ranks are unchanged on the
    reference panel and the written matrices of ``cdpa decompose
    --auto-ranks`` moved by at most 1.3e-14 of each file's largest entry
    on the benchmark's four p1 = 4000 draws.
    """
    if y1.n != y2.n:
        raise InputError(f"datasets have different sample counts: {y1.n} vs {y2.n}")
    x1, x2 = map_shared(lambda y: soft_threshold_denoise(y, ed_select_rank(y)), (y1, y2))
    r1, r2 = x1.rank, x2.rank
    screen = min(r1, r2) >= 1 and correlation_screen(x1, x2)
    r12 = mdl_select_r12(y1, y2, r1, r2) if screen else 0
    return RankProfile(r1=r1, r2=r2, r12=r12), x1, x2, screen


def compute_diagnostics(
    x1: SignalEstimate,
    x2: SignalEstimate,
    noise_root_traces: tuple[float, float],
) -> Diagnostics:
    """Signal-to-noise ratios and the clamped rate quantity.

    ``snr_k`` is the signal covariance trace over the noise covariance
    trace estimate, formed as the square of the ratio of their roots
    (``SignalEstimate.root_trace`` over ``noise_root_trace``), whose scales
    cancel before anything is squared, so that data at 1e-160, whose
    traces are subnormal, gives the same ratios.  The noise root is
    floored at ``1e-6`` times the signal root so that the ratio does not
    depend on the scale of the data (0 for a zero signal); the rate
    quantity is ``min(1/sqrt(n) + sum_k sqrt(log(p_k) / (n * snr_k)), 1)``.
    """
    n = x1.n
    snr = []
    for x, root_noise in zip((x1, x2), noise_root_traces):
        root_signal = x.root_trace
        snr.append((root_signal / max(root_noise, 1e-6 * root_signal)) ** 2 if root_signal > 0 else 0.0)
    delta = 1.0 / np.sqrt(n)
    for x, s in zip((x1, x2), snr):
        delta += np.sqrt(np.log(x.p) / (n * max(s, 1e-300)))
    return Diagnostics(snr=(snr[0], snr[1]), delta_theta=float(min(delta, 1.0)))


def _noise_energy(y: ObservedMatrix, xhat: SignalEstimate) -> tuple[float, float]:
    """``(s_0, e)`` with ``s_0`` the largest singular value of ``y`` and
    ``s_0**2 * e`` the noise covariance trace ``||Y - xhat||_F^2 / n``.

    ``xhat`` is ``y``'s own soft-threshold estimate, so the residual
    norm has the closed form ``sum_{l>r} s_l^2 + sum_{l<=r} (s_l -
    s_soft,l)^2``, formed relative to the largest value; ``y.factors``
    gives the top ``r`` singular values and the residual norm
    ``sqrt(sum_{l>r} s_l^2)``, as it gave them to the denoiser.
    """
    r = xhat.rank
    s, residual, _, _ = y.factors(r)
    s0, t = _relative(np.append(s, residual))
    t_soft = xhat.soft_singular_values / s0 if s0 > 0 else xhat.soft_singular_values
    return s0, float(t[r] ** 2 + np.sum((t[:r] - t_soft) ** 2)) / y.n


def noise_trace(y: ObservedMatrix, xhat: SignalEstimate) -> float:
    """Residual-based noise covariance trace estimate ``||Y - xhat||_F^2 / n``."""
    return _squared(*_noise_energy(y, xhat))


def noise_root_trace(y: ObservedMatrix, xhat: SignalEstimate) -> float:
    """``sqrt(noise_trace(y, xhat))``, formed relative to the largest
    singular value and scaled once, so that no step squares a value that
    may be subnormal; ``compute_diagnostics`` reads it."""
    s0, energy = _noise_energy(y, xhat)
    return s0 * math.sqrt(energy)
