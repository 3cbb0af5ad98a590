"""Assembly of the common-pattern and distinctive-pattern decomposition.

The common pattern of two aligned signal estimates combines three shared
ingredients: the common factor scores, the shared channel basis, and a
scale-balanced consensus of the two dual-weight matrices.  Each dataset's
total distinctive pattern is the residual after removing its rescaled
common pattern.  Both a sample pipeline and an analytic population path
are provided, plus a column-resampling bootstrap for the explained
variance.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import fix_signs, pad_rows
from .align import (
    PermutationPlan,
    SignChoice,
    as_permutation,
    build_match_problem,
    choose_sign,
    dspfp_match,
    identity_permutation,
)
from .dcca import (
    CanonicalSystem,
    CommonFactorSet,
    MixingChannel,
    SourceDecomposition,
    canonical_system,
    common_factor_coefficients,
    common_factor_scores,
    mixing_channel,
    source_decomposition,
)
from .denoise import (
    Diagnostics,
    ObservedMatrix,
    RankProfile,
    SignalEstimate,
    center_rows,
    compute_diagnostics,
    denoise_at_rank,
    noise_trace,
    select_ranks,
    signal_covariance,
)
from .errors import BadConfig, InputError, RankDeficiency
from .subspace import (
    ChannelPatternBasis,
    ChannelSubspacePair,
    channel_common_basis,
    orthonormal_basis,
    principal_angles,
)


@dataclass(frozen=True)
class DualWeight:
    """Per-dataset dual-weight matrices and their scale-balanced consensus."""

    s1: np.ndarray
    s2: np.ndarray
    s: np.ndarray
    scale1: float
    scale2: float


@dataclass(frozen=True)
class PatternDecomposition:
    """Common/distinctive pattern split of the aligned signal estimates.

    All matrices live in the padded row space.  The common pattern is
    kept both dense and as its rank-r12 factors ``c_factors = (loadings,
    scores)``: the pmax x r12 loadings ``c_b @ s`` and the r12 x n
    common factor scores ``c0``, with ``c == loadings @ scores`` bitwise.
    When r12 is 0 both factors have zero width, ``c``, ``c_scaled`` and
    ``h`` are zero and ``r12_zero`` is set.  ``scales`` holds the square
    roots of the two signal-covariance traces.  Exact identities:
    ``c_scaled[k] = scales[k] * c``,
    ``aligned_x[k] = c_scaled[k] + delta[k]``, and
    ``delta[k] = h[k] + aligned_d[k]``.
    """

    c: np.ndarray
    c_factors: tuple[np.ndarray, np.ndarray]
    scales: tuple[float, float]
    c_scaled: tuple[np.ndarray, np.ndarray]
    h: tuple[np.ndarray, np.ndarray]
    delta: tuple[np.ndarray, np.ndarray]
    aligned_x: tuple[np.ndarray, np.ndarray]
    explained: float

    @property
    def r12_zero(self) -> bool:
        """True when the common pattern has zero width (no shared rank)."""
        return self.c_factors[0].shape[1] == 0


@dataclass(frozen=True)
class BootstrapInterval:
    """Percentile bootstrap interval for the explained variance."""

    point: float
    lower: float
    upper: float
    level: float
    replicates: int


@dataclass(frozen=True)
class PopulationPatterns:
    """Analytic population quantities of the decomposition."""

    b1: np.ndarray
    b2: np.ndarray
    correlations: np.ndarray
    r12: int
    cosines: np.ndarray
    c_basis: np.ndarray
    s: np.ndarray
    b_c: np.ndarray
    explained: float
    contributions: np.ndarray


@dataclass(frozen=True)
class CdpaConfig:
    """Configuration of the end-to-end estimation pipeline."""

    ranks: RankProfile | None = None
    perm: str | np.ndarray = "identity"  # "identity", "dspfp", or an index array
    sign: str = "auto"  # "auto", "plus", "minus"
    center: bool = True
    screen_alpha: float = 0.05

    def __post_init__(self):
        if self.sign not in ("auto", "plus", "minus"):
            raise BadConfig(f"sign must be auto/plus/minus, got {self.sign!r}")
        if isinstance(self.perm, str) and self.perm not in ("identity", "dspfp"):
            raise BadConfig(f"perm must be identity/dspfp or an array, got {self.perm!r}")


@dataclass(frozen=True)
class DecompositionResult:
    """Full output of ``estimate_cdpa``: patterns plus run metadata."""

    patterns: PatternDecomposition
    sources: tuple[SourceDecomposition, SourceDecomposition]
    channels: tuple[MixingChannel, MixingChannel]
    system: CanonicalSystem | None
    pair: ChannelSubspacePair | None
    ranks: RankProfile
    permutation: PermutationPlan
    sign: int
    sign_choice: SignChoice | None
    diagnostics: Diagnostics
    config: CdpaConfig


def dual_weights(
    pair: ChannelSubspacePair,
    b1: MixingChannel,
    b2a_permuted: MixingChannel,
    traces: tuple[float, float],
) -> DualWeight:
    """Dual-weight matrices of the two aligned channels and their consensus.

    Each dataset's channel is expressed in its own principal-vector basis.
    The consensus halves the sum of the trace-scaled weights.
    """
    if traces[0] <= 0 or traces[1] <= 0:
        raise InputError("covariance traces must be positive")
    s1 = pair.v_b1.T @ b1.b
    s2 = pair.v_b2.T @ b2a_permuted.b
    scale1, scale2 = float(np.sqrt(traces[0])), float(np.sqrt(traces[1]))
    s = 0.5 * (s1 / scale1 + s2 / scale2)
    return DualWeight(s1=s1, s2=s2, s=s, scale1=scale1, scale2=scale2)


def common_pattern(
    basis: ChannelPatternBasis, weights: DualWeight, c0: CommonFactorSet
) -> np.ndarray:
    """Common-pattern matrix: shared basis times consensus weights times scores.

    The product runs left to right, ``(c_b @ s) @ c0``, the same product
    of the loadings and scores that ``assemble_patterns`` evaluates.
    """
    return basis.c_b @ weights.s @ c0.c0


def explained_variance(c: np.ndarray, n: int) -> float:
    """Average variance captured by the common pattern, ``||c||_F^2 / n``."""
    return float(np.sum(c**2) / n)


def pattern_decomposition(
    xhat_pair: tuple[SignalEstimate, SignalEstimate],
    source_pair: tuple[SourceDecomposition, SourceDecomposition],
    c_factors: tuple[np.ndarray, np.ndarray],
    traces: tuple[float, float],
    permutation: PermutationPlan,
) -> PatternDecomposition:
    """Assemble the rescaled common patterns and distinctive remainders.

    The common pattern is the product of its factors ``(loadings,
    scores)``.  The smaller dataset is zero-padded to the common row
    dimension and the permutation is applied to dataset 2's rows before
    the split.
    """
    loadings, scores = c_factors
    c = loadings @ scores
    pmax = max(xhat_pair[0].p, xhat_pair[1].p)
    n = xhat_pair[0].n
    aligned_x = []
    aligned_c = []
    aligned_d = []
    for k, (xh, src) in enumerate(zip(xhat_pair, source_pair), start=1):
        x = pad_rows(xh.xhat, pmax)
        cs = pad_rows(src.c, pmax)
        ds = pad_rows(src.d, pmax)
        if k == 2:
            x, cs, ds = x[permutation.perm], cs[permutation.perm], ds[permutation.perm]
        aligned_x.append(x)
        aligned_c.append(cs)
        aligned_d.append(ds)
    scales = (float(np.sqrt(traces[0])), float(np.sqrt(traces[1])))
    c_scaled = tuple(s * c for s in scales)
    h = tuple(aligned_c[k] - c_scaled[k] for k in range(2))
    delta = tuple(h[k] + aligned_d[k] for k in range(2))
    return PatternDecomposition(
        c=c,
        c_factors=c_factors,
        scales=scales,
        c_scaled=c_scaled,
        h=h,
        delta=delta,
        aligned_x=tuple(aligned_x),
        explained=explained_variance(c, n),
    )


def population_cdpa(
    v1: np.ndarray,
    lam1: np.ndarray,
    v2: np.ndarray,
    lam2: np.ndarray,
    z_cross: np.ndarray,
    permutation: np.ndarray | None = None,
) -> PopulationPatterns:
    """Analytic decomposition for a known factor model.

    The model supplies the covariance factorizations ``V_k diag(lam_k)
    V_k.T`` and the cross-covariance of the standardized factor scores.
    All quantities are computed on covariance factors; no sampling is
    involved.
    """
    u1, svals, v2t = np.linalg.svd(z_cross, full_matrices=True)
    u1, v2t = fix_signs(u1, v2t)
    u2 = v2t.T
    rho_all = np.clip(svals, 0.0, 1.0)
    r12 = int(np.sum(rho_all > 1e-12))
    if r12 == 0:
        raise RankDeficiency("population cross-covariance is zero")
    rho = rho_all[:r12]
    b1 = (v1 * np.sqrt(lam1)) @ u1[:, :r12]
    b2 = (v2 * np.sqrt(lam2)) @ u2[:, :r12]
    pmax = max(b1.shape[0], b2.shape[0])
    q1 = pad_rows(fix_signs(np.linalg.svd(b1, full_matrices=False)[0]), pmax)
    q2 = pad_rows(fix_signs(np.linalg.svd(b2, full_matrices=False)[0]), pmax)
    perm = (
        identity_permutation(pmax)
        if permutation is None
        else as_permutation(permutation, pmax)
    )
    pair = principal_angles(q1, q2, perm)
    basis = channel_common_basis(pair)
    trace1, trace2 = float(np.sum(lam1)), float(np.sum(lam2))
    weights = dual_weights(
        pair,
        MixingChannel(b=pad_rows(b1, pmax), dataset_index=1),
        MixingChannel(b=pad_rows(b2, pmax)[perm], dataset_index=2),
        (trace1, trace2),
    )
    b_c = basis.c_b @ weights.s
    a = common_factor_coefficients(rho)
    var_c0 = a**2 * (2.0 + 2.0 * rho)  # factor scores are uncorrelated across pairs
    contributions = var_c0 * np.sum(b_c**2, axis=0)
    return PopulationPatterns(
        b1=b1,
        b2=b2,
        correlations=rho,
        r12=r12,
        cosines=pair.cosines,
        c_basis=basis.c_b,
        s=weights.s,
        b_c=b_c,
        explained=float(np.sum(contributions)),
        contributions=contributions,
    )


def bootstrap_ci(
    y1: ObservedMatrix,
    y2: ObservedMatrix,
    ranks: RankProfile,
    permutation: PermutationPlan,
    replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    sign: int = 1,
    threads: int = 1,
) -> BootstrapInterval:
    """Percentile bootstrap interval for the explained variance.

    Columns are resampled with replacement jointly across the two
    datasets; ranks and the permutation stay fixed.  Replicate ``i`` uses
    seed ``seed ^ i`` so results are independent of scheduling.
    """
    if replicates < 100:
        raise BadConfig(f"need at least 100 replicates, got {replicates}")
    if not 0.0 < level < 1.0:
        raise BadConfig(f"level must be in (0, 1), got {level}")
    n = y1.n
    cfg = CdpaConfig(
        ranks=ranks,
        perm=permutation.perm,
        sign="plus" if sign >= 0 else "minus",
        center=False,
    )
    point = estimate_cdpa(y1, y2, cfg).patterns.explained

    def one(i: int) -> float:
        rng = np.random.default_rng(seed ^ i)
        idx = rng.integers(0, n, size=n)
        pair = (
            ObservedMatrix(y1.values[:, idx]),
            ObservedMatrix(y2.values[:, idx]),
        )
        return estimate_cdpa(pair[0], pair[1], cfg).patterns.explained

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(one, range(replicates)))
    else:
        values = [one(i) for i in range(replicates)]
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return BootstrapInterval(
        point=point,
        lower=float(lower),
        upper=float(upper),
        level=level,
        replicates=replicates,
    )


@dataclass(frozen=True)
class _CommonFactors:
    """The common pattern ``loadings @ scores`` of one orientation of dataset 2."""

    loadings: np.ndarray
    scores: np.ndarray

    @property
    def explained(self) -> float:
        """``||loadings @ scores||_F^2 / n`` from the two r12 x r12 Gram matrices."""
        gram = (self.loadings.T @ self.loadings) * (self.scores @ self.scores.T)
        return float(np.sum(gram) / self.scores.shape[1])


def _channel_stage(x1: SignalEstimate, x2: SignalEstimate, system: CanonicalSystem):
    """Common factor scores, both mixing channels and their padded orthonormal bases."""
    c0 = common_factor_scores(system, common_factor_coefficients(system.correlations))
    channels = (mixing_channel(x1, system, 1), mixing_channel(x2, system, 2))
    pmax = max(x1.p, x2.p)
    return c0, channels, tuple(pad_rows(orthonormal_basis(ch), pmax) for ch in channels)


def _signed_loadings(channels, bases, traces: tuple[float, float], perm: PermutationPlan):
    """Principal-angle pair and the common loadings of both orientations.

    Negating dataset 2 negates only its dual weight ``s2``, so orientation
    ``+1`` or ``-1`` has the loadings ``c_b @ s`` with the consensus
    ``s = (s1 / scale1 +- s2 / scale2) / 2``.  Returns ``(pair,
    {1: loadings, -1: loadings})``.
    """
    pmax = bases[0].shape[0]
    pair = principal_angles(*bases, perm.perm)
    w = dual_weights(
        pair,
        MixingChannel(b=pad_rows(channels[0].b, pmax), dataset_index=1),
        MixingChannel(b=pad_rows(channels[1].b, pmax)[perm.perm], dataset_index=2),
        traces,
    )
    c_b = channel_common_basis(pair).c_b
    return pair, {1: c_b @ w.s, -1: c_b @ (0.5 * (w.s1 / w.scale1 - w.s2 / w.scale2))}


def _dense_stage(x, channels, c0: CommonFactorSet, loadings, traces, perm):
    """Sources and dense patterns from the factors: the only p x n stage."""
    sources = tuple(source_decomposition(xk, ch, c0) for xk, ch in zip(x, channels))
    patterns = pattern_decomposition(x, sources, (loadings, c0.c0), traces, perm)
    return patterns, sources


def assemble_patterns(
    x1: SignalEstimate,
    x2: SignalEstimate,
    system: CanonicalSystem,
    traces: tuple[float, float],
    perm: PermutationPlan,
):
    """Assemble the decomposition from an existing canonical system.

    Returns ``(patterns, sources, channels, pair)``.  Taking the system
    as an argument keeps the assembly agnostic to how the canonical
    coordinates were chosen, which is what makes the final common
    pattern well defined under non-unique choices.
    """
    c0, channels, bases = _channel_stage(x1, x2, system)
    pair, loadings = _signed_loadings(channels, bases, traces, perm)
    patterns, sources = _dense_stage((x1, x2), channels, c0, loadings[1], traces, perm)
    return patterns, sources, channels, pair


def estimate_cdpa(
    y1: ObservedMatrix, y2: ObservedMatrix, config: CdpaConfig | None = None
) -> DecompositionResult:
    """Run the full estimation pipeline on two observed matrices.

    Steps: optional row centering, rank selection (or configured ranks),
    soft-threshold denoising, one canonical system, the mixing channels
    and their row alignment, sign resolution, and one dense assembly.
    Each dataset is factored by one SVD.  Negating dataset 2 leaves the
    canonical system, the common factor scores, the channel bases and
    the principal angles unchanged and negates only its dual weight, so
    sign ``auto`` compares the explained variance of both orientations
    on the common pattern's factors.  When ``-1`` is chosen, dataset 2
    and its channel, and with them its sources, are negated before the
    dense stage.  Deterministic given the configuration.

    When the correlation screen finds no cross-dataset correlation (or a
    zero shared rank is configured), the same dense stage runs on
    zero-width channels and factors: the common pattern is zero,
    ``r12_zero`` is set, the alignment is the identity, the sign is 1,
    and ``system``, ``pair`` and ``sign_choice`` are None.
    """
    config = config or CdpaConfig()
    if y1.n != y2.n:
        raise InputError(
            f"datasets have different sample counts: {y1.n} vs {y2.n}"
        )
    if config.center:
        y1 = center_rows(y1) if not y1.row_centered else y1
        y2 = center_rows(y2) if not y2.row_centered else y2

    if config.ranks is None:
        ranks, x1, x2, _ = select_ranks(y1, y2, config.screen_alpha)
    else:
        ranks = config.ranks
        x1, x2 = denoise_at_rank(y1, ranks.r1), denoise_at_rank(y2, ranks.r2)

    diagnostics = compute_diagnostics(x1, x2, (noise_trace(y1, x1), noise_trace(y2, x2)))
    pmax, n = max(y1.p, y2.p), y1.n
    system = pair = sign_choice = None
    sign = 1
    if ranks.r12 == 0:
        perm = PermutationPlan(
            perm=identity_permutation(pmax), objective=0.0, method="identity"
        )
        traces = tuple(float(np.sum(x.soft_singular_values**2 / n)) for x in (x1, x2))
        c0 = CommonFactorSet(c0=np.zeros((0, n)), coefficients=np.zeros(0))
        channels = (
            MixingChannel(b=np.zeros((x1.p, 0)), dataset_index=1),
            MixingChannel(b=np.zeros((x2.p, 0)), dataset_index=2),
        )
        loadings = np.zeros((pmax, 0))
    else:
        cov1, cov2 = signal_covariance(x1, n), signal_covariance(x2, n)
        traces = (cov1.trace, cov2.trace)
        system = canonical_system(cov1, cov2, x1, x2, ranks.r12)
        c0, channels, bases = _channel_stage(x1, x2, system)
        perm = _fixed_permutation(config, pmax) or dspfp_match(build_match_problem(*bases))
        pair, signed = _signed_loadings(channels, bases, traces, perm)
        if config.sign == "auto":
            sign_choice = choose_sign(*(_CommonFactors(signed[k], c0.c0) for k in (1, -1)))
            sign = sign_choice.sign
        elif config.sign == "minus":
            sign = -1
        loadings = signed[sign]
        if sign == -1:
            x2 = replace(x2, xhat=-x2.xhat, left_vectors=-x2.left_vectors)
            channels = (channels[0], MixingChannel(b=-channels[1].b, dataset_index=2))
        if perm.method in ("identity", "provided"):
            # fill in the exactly evaluated objective for the plan in effect
            perm = replace(perm, objective=float(np.sum(pair.cosines**2)))
    patterns, sources = _dense_stage((x1, x2), channels, c0, loadings, traces, perm)
    return DecompositionResult(
        patterns=patterns,
        sources=sources,
        channels=channels,
        system=system,
        pair=pair,
        ranks=ranks,
        permutation=perm,
        sign=sign,
        sign_choice=sign_choice,
        diagnostics=diagnostics,
        config=config,
    )


def _fixed_permutation(config: CdpaConfig, pmax: int) -> PermutationPlan | None:
    """The identity or provided plan; None when the heuristic solves for it."""
    # identity/provided objectives are filled in after assembly from the
    # principal angles
    if isinstance(config.perm, str) and config.perm == "identity":
        return PermutationPlan(
            perm=identity_permutation(pmax), objective=0.0, method="identity"
        )
    if not isinstance(config.perm, str):
        plan = PermutationPlan(perm=config.perm, objective=0.0, method="provided")
        if plan.perm.shape != (pmax,):
            raise InputError(
                f"provided permutation has length {plan.perm.shape[0]}, expected {pmax}"
            )
        return plan
    return None
