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
    DspfpConfig,
    PermutationPlan,
    SignChoice,
    as_permutation,
    build_match_problem,
    choose_sign,
    dspfp_match,
    identity_permutation,
    zero_pad,
)
from .dcca import (
    CanonicalSystem,
    CommonFactorSet,
    MixingChannel,
    SourceDecomposition,
    canonical_system,
    common_factor_coefficients,
    common_factor_scores,
    source_decomposition,
)
from .denoise import (
    Diagnostics,
    ObservedMatrix,
    RankProfile,
    SignalCovariance,
    SignalEstimate,
    center_rows,
    compute_diagnostics,
    correlation_screen,
    ed_select_rank,
    mdl_select_r12,
    noise_trace,
    signal_covariance,
    soft_threshold_denoise,
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
    common factor scores ``c0``, with ``c == loadings @ scores`` bitwise
    (both have zero width when r12 is 0).  ``scales`` holds the square
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
    r12_zero: bool = False


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
    seed: int = 0
    dspfp: DspfpConfig = DspfpConfig()
    shared_first_basis: bool = False

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
    shared_first_basis: bool = False,
) -> DualWeight:
    """Dual-weight matrices of the two aligned channels and their consensus.

    Each dataset's channel is expressed in its own principal-vector basis
    (``shared_first_basis=True`` instead expresses both in dataset 1's
    basis, kept only for auditing; it does not reproduce the closed-form
    population values).  The consensus halves the sum of the trace-scaled
    weights.
    """
    if traces[0] <= 0 or traces[1] <= 0:
        raise InputError("covariance traces must be positive")
    basis2 = pair.v_b1 if shared_first_basis else pair.v_b2
    s1 = pair.v_b1.T @ b1.b
    s2 = basis2.T @ b2a_permuted.b
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
    r12_zero: bool = False,
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
        r12_zero=r12_zero,
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


def _trivial_patterns(
    x1: SignalEstimate, x2: SignalEstimate, perm: PermutationPlan
) -> PatternDecomposition:
    """Zero-common decomposition used when no shared rank is licensed."""
    pmax = max(x1.p, x2.p)
    n = x1.n
    zeros = np.zeros((pmax, n))
    ax1 = pad_rows(x1.xhat, pmax)
    ax2 = pad_rows(x2.xhat, pmax)[perm.perm]
    return PatternDecomposition(
        c=zeros,
        c_factors=(np.zeros((pmax, 0)), np.zeros((0, n))),
        scales=tuple(
            float(np.sqrt(np.sum(x.soft_singular_values**2 / n))) for x in (x1, x2)
        ),
        c_scaled=(zeros, zeros),
        h=(np.zeros_like(ax1), np.zeros_like(ax2)),
        delta=(ax1, ax2),
        aligned_x=(ax1, ax2),
        explained=0.0,
        r12_zero=True,
    )


def assemble_patterns(
    x1: SignalEstimate,
    x2: SignalEstimate,
    system: CanonicalSystem,
    traces: tuple[float, float],
    perm: PermutationPlan,
    shared_first_basis: bool = False,
):
    """Assemble the decomposition from an existing canonical system.

    Returns ``(patterns, sources, channels, pair)``.  Taking the system
    as an argument keeps the assembly agnostic to how the canonical
    coordinates were chosen, which is what makes the final common
    pattern well defined under non-unique choices.
    """
    coeffs = common_factor_coefficients(system.correlations)
    c0 = common_factor_scores(system, coeffs)
    src1, chan1 = source_decomposition(x1, system, c0, 1)
    src2, chan2 = source_decomposition(x2, system, c0, 2)
    pmax = max(x1.p, x2.p)
    chan1p = zero_pad(chan1, pmax)
    chan2p = zero_pad(chan2, pmax)
    q1 = pad_rows(orthonormal_basis(chan1), pmax)
    q2a = pad_rows(orthonormal_basis(chan2), pmax)
    pair = principal_angles(q1, q2a, perm.perm)
    basis = channel_common_basis(pair)
    weights = dual_weights(
        pair,
        chan1p,
        MixingChannel(b=chan2p.b[perm.perm], dataset_index=2),
        traces,
        shared_first_basis=shared_first_basis,
    )
    c_factors = (basis.c_b @ weights.s, c0.c0)
    patterns = pattern_decomposition((x1, x2), (src1, src2), c_factors, traces, perm)
    return patterns, (src1, src2), (chan1, chan2), pair


def _assemble(
    x1: SignalEstimate,
    x2: SignalEstimate,
    cov1: SignalCovariance,
    cov2: SignalCovariance,
    r12: int,
    perm: PermutationPlan,
    shared_first_basis: bool = False,
):
    """Post-denoising pipeline for a fixed orientation and alignment."""
    system = canonical_system(cov1, cov2, x1, x2, r12)
    patterns, sources, channels, pair = assemble_patterns(
        x1,
        x2,
        system,
        (cov1.trace, cov2.trace),
        perm,
        shared_first_basis=shared_first_basis,
    )
    return patterns, sources, channels, system, pair


def _flip(x: SignalEstimate) -> SignalEstimate:
    return replace(
        x,
        xhat=-x.xhat,
        left_vectors=-x.left_vectors,
    )


def estimate_cdpa(
    y1: ObservedMatrix, y2: ObservedMatrix, config: CdpaConfig | None = None
) -> DecompositionResult:
    """Run the full estimation pipeline on two observed matrices.

    Steps: optional row centering, rank selection (or configured ranks),
    soft-threshold denoising, canonical decomposition, channel padding
    and row alignment, sign resolution, and final pattern assembly.
    Deterministic given the configuration.

    When the correlation screen finds no cross-dataset correlation (or a
    zero shared rank is configured), the result carries a zero common
    pattern and the ``r12_zero`` flag instead of raising.
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
        r1 = ed_select_rank(y1)
        r2 = ed_select_rank(y2)
        x1 = soft_threshold_denoise(y1, r1) if r1 >= 1 else _zero_estimate(y1)
        x2 = soft_threshold_denoise(y2, r2) if r2 >= 1 else _zero_estimate(y2)
        r12 = 0
        if (
            min(r1, r2) >= 1
            and correlation_screen(x1, x2, config.screen_alpha)
        ):
            r12 = mdl_select_r12(y1, y2, r1, r2)
        ranks = RankProfile(r1=r1, r2=r2, r12=r12)
    else:
        ranks = config.ranks
        x1 = (
            soft_threshold_denoise(y1, ranks.r1)
            if ranks.r1 >= 1
            else _zero_estimate(y1)
        )
        x2 = (
            soft_threshold_denoise(y2, ranks.r2)
            if ranks.r2 >= 1
            else _zero_estimate(y2)
        )

    diagnostics = compute_diagnostics(
        x1, x2, (noise_trace(y1, x1), noise_trace(y2, x2)), ranks
    )
    pmax = max(y1.p, y2.p)

    if ranks.r12 == 0:
        perm = PermutationPlan(
            perm=identity_permutation(pmax), objective=0.0, method="identity"
        )
        patterns = _trivial_patterns(x1, x2, perm)
        src = (
            SourceDecomposition(c=np.zeros_like(x1.xhat), d=x1.xhat),
            SourceDecomposition(c=np.zeros_like(x2.xhat), d=x2.xhat),
        )
        chans = (
            MixingChannel(b=np.zeros((y1.p, 0)), dataset_index=1),
            MixingChannel(b=np.zeros((y2.p, 0)), dataset_index=2),
        )
        return DecompositionResult(
            patterns=patterns,
            sources=src,
            channels=chans,
            system=None,
            pair=None,
            ranks=ranks,
            permutation=perm,
            sign=1,
            sign_choice=None,
            diagnostics=diagnostics,
            config=config,
        )

    cov1 = signal_covariance(x1, y1.n)
    cov2 = signal_covariance(x2, y2.n)

    # orientation of dataset 2 is resolved before the final assembly
    sign = 1
    sign_choice = None
    x2_minus = _flip(x2)
    if config.sign == "minus":
        sign = -1
        x2 = x2_minus

    perm = _resolve_permutation(config, x1, x2, cov1, cov2, ranks.r12, pmax)

    if config.sign == "auto":
        run_plus = _assemble(
            x1, x2, cov1, cov2, ranks.r12, perm, config.shared_first_basis
        )
        run_minus = _assemble(
            x1, x2_minus, cov1, cov2, ranks.r12, perm, config.shared_first_basis
        )
        sign_choice = choose_sign(run_plus[0], run_minus[0])
        sign = sign_choice.sign
        chosen = run_plus if sign == 1 else run_minus
    else:
        chosen = _assemble(
            x1, x2, cov1, cov2, ranks.r12, perm, config.shared_first_basis
        )

    patterns, sources, channels, system, pair = chosen
    if perm.method in ("identity", "provided"):
        # fill in the exactly evaluated objective for the plan in effect
        perm = replace(perm, objective=float(np.sum(pair.cosines**2)))
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


def _zero_estimate(y: ObservedMatrix) -> SignalEstimate:
    """Rank-zero signal estimate for a dataset with no detected signal."""
    p, n = y.p, y.n
    s = np.linalg.svd(y.values, compute_uv=False)
    return SignalEstimate(
        xhat=np.zeros((p, n)),
        rank=0,
        soft_singular_values=np.zeros(0),
        tau=float(np.sum(s**2) / (n * p)),
        left_vectors=np.zeros((p, 0)),
        right_vectors=np.zeros((n, 0)),
    )


def _resolve_permutation(
    config: CdpaConfig,
    x1: SignalEstimate,
    x2: SignalEstimate,
    cov1: SignalCovariance,
    cov2: SignalCovariance,
    r12: int,
    pmax: int,
) -> PermutationPlan:
    # identity/provided objectives are filled in after assembly from the
    # principal angles; only the heuristic needs the channel bases here
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
    system = canonical_system(cov1, cov2, x1, x2, r12)
    c0 = common_factor_scores(system, common_factor_coefficients(system.correlations))
    _, chan1 = source_decomposition(x1, system, c0, 1)
    _, chan2 = source_decomposition(x2, system, c0, 2)
    q1 = pad_rows(orthonormal_basis(chan1), pmax)
    q2a = pad_rows(orthonormal_basis(chan2), pmax)
    return dspfp_match(build_match_problem(q1, q2a), config.dspfp)
