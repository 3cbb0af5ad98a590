"""Assembly of the common-pattern and distinctive-pattern decomposition.

The common pattern of two aligned signal estimates is the product of its
loadings, the shared channel basis times a scale-balanced consensus of
the two dual-weight matrices (``subspace.common_loadings``), and the
common factor scores.  Each dataset's total distinctive pattern is the
residual after removing its rescaled common pattern.  Both a sample
pipeline and an analytic population path are provided, sharing one
common-loadings step, plus a column-resampling bootstrap for the
explained variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from ._linalg import fix_signs, pad_rows, svd
from ._worker import map_shared
from .align import (
    PermutationPlan,
    SignChoice,
    build_match_problem,
    choose_sign,
    dspfp_match,
    identity_permutation,
)
from .dcca import (
    CanonicalSystem,
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
    select_ranks,
    soft_threshold_denoise,
)
from .errors import BadConfig, InputError, RankDeficiency, check_count, check_real
from .subspace import (
    ChannelSubspacePair,
    common_loadings,
    orthonormal_basis,
    principal_angles,
)


@dataclass(frozen=True)
class PatternDecomposition:
    """Common/distinctive pattern split of the aligned signal estimates.

    Kept as factors: the common pattern's ``c_factors = (loadings,
    scores)``, the pmax x r12 loadings ``c_b @ s`` and the r12 x n common
    factor scores ``c0``; ``scales``, the square roots of the two
    signal-covariance traces; the two source splits (each a signal
    estimate, its mixing channel and ``c0``); and the row alignment
    ``permutation`` of dataset 2.  ``explained`` is ``sum(c**2) / n``, taken
    from the factors.

    Every dense matrix lives in the padded row space.  ``columns(cols)``
    forms a block of columns of the eleven matrices ``cdpa decompose``
    writes, each product once, in the file's column-major layout; reading
    any of ``c``, ``c_scaled``, ``h`` and ``delta`` forms all eleven at once.
    When r12 is 0 both factors have zero width, ``c``, ``c_scaled`` and
    ``h`` are zero and ``r12_zero`` is set.  Exact identities:
    ``c == loadings @ scores``, ``c_scaled[k] = scales[k] * c``,
    ``aligned_x[k] = c_scaled[k] + delta[k]``, and
    ``delta[k] = h[k] + aligned_d[k]``, where ``aligned_*`` is a source
    zero-padded to pmax rows, with dataset 2's rows permuted.
    """

    c_factors: tuple[np.ndarray, np.ndarray]
    scales: tuple[float, float]
    sources: tuple[SourceDecomposition, SourceDecomposition]
    permutation: PermutationPlan
    explained: float

    @property
    def r12_zero(self) -> bool:
        """True when the common pattern has zero width (no shared rank)."""
        return self.c_factors[0].shape[1] == 0

    @property
    def shape(self) -> tuple[int, int]:
        """``(pmax, n)``, the shape of every pattern."""
        return self.c_factors[0].shape[0], self.c_factors[1].shape[1]

    def _aligned(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Columns of dataset ``k`` (0-based) held as ``rows``, zero-padded to
        pmax and, for dataset 2 unless aligned by the identity, gathered."""
        if rows.shape[1] < self.shape[0]:
            rows = np.hstack([rows, np.zeros((rows.shape[0], self.shape[0] - rows.shape[1]))])
        if k == 0 or self.permutation.method == "identity":
            return rows
        return np.take(rows, self.permutation.perm, axis=1)

    def columns(self, cols: slice = slice(None), group: int | None = None) -> Iterator[tuple[str, np.ndarray]]:
        """Columns ``cols`` of the written matrices by file name, each as the
        rows of a C-contiguous array: ``c``, ``c_scaled_k``, then ``source_c_k``,
        ``source_d_k``, ``h_k`` and ``delta_k`` per source.  With ``group``
        set to 0 or 1, only that dataset's five, and ``c`` with dataset 2's,
        so the two groups share no file.  Each is yielded once formed, so a
        writer holds only blocks that later ones need."""
        groups = (0, 1) if group is None else (group,)
        loadings, scores = self.c_factors
        c = scores[:, cols].T @ loadings.T
        if 1 in groups:
            yield "c", c
        c_scaled = {k: self.scales[k] * c for k in groups}
        del c  # the later blocks read only its scaled copies
        for k in groups:
            yield f"c_scaled_{k + 1}", c_scaled[k]
        for k, src in enumerate(self.sources):
            if k in groups:
                source_c, source_d = src.columns(cols)
                yield f"source_c_{k + 1}", source_c
                yield f"source_d_{k + 1}", source_d
                h = self._aligned(k, source_c) - c_scaled[k]
                yield f"h_{k + 1}", h
                yield f"delta_{k + 1}", h + self._aligned(k, source_d)

    @cached_property
    def _dense(self) -> dict[str, np.ndarray]:
        return {name: rows.T for name, rows in self.columns()}

    @cached_property
    def c(self) -> np.ndarray:
        return self._dense["c"]

    @cached_property
    def c_scaled(self) -> tuple[np.ndarray, np.ndarray]:
        return self._dense["c_scaled_1"], self._dense["c_scaled_2"]

    @cached_property
    def h(self) -> tuple[np.ndarray, np.ndarray]:
        return self._dense["h_1"], self._dense["h_2"]

    @cached_property
    def delta(self) -> tuple[np.ndarray, np.ndarray]:
        return self._dense["delta_1"], self._dense["delta_2"]

    @cached_property
    def aligned_x(self) -> tuple[np.ndarray, np.ndarray]:
        xhats = (src.estimate.xhat_columns() for src in self.sources)
        return tuple(self._aligned(k, x).T for k, x in enumerate(xhats))


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
    """Analytic population quantities of the decomposition.

    ``b_c`` holds the pmax x r12 common loadings and ``contributions``
    the per-pair shares of the explained variance.
    """

    r12: int
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

    def __post_init__(self):
        if self.sign not in ("auto", "plus", "minus"):
            raise BadConfig(f"sign must be auto/plus/minus, got {self.sign!r}")
        if isinstance(self.perm, str) and self.perm not in ("identity", "dspfp"):
            raise BadConfig(f"perm must be identity/dspfp or an array, got {self.perm!r}")


@dataclass(frozen=True)
class DecompositionResult:
    """Full output of ``estimate_cdpa``: patterns plus run metadata.

    The sources and their mixing channels are read from
    ``patterns.sources`` (each source's ``channel``).
    """

    patterns: PatternDecomposition
    system: CanonicalSystem | None
    pair: ChannelSubspacePair | None
    ranks: RankProfile
    permutation: PermutationPlan
    sign: int
    sign_choice: SignChoice | None
    diagnostics: Diagnostics
    config: CdpaConfig


def pattern_decomposition(
    source_pair: tuple[SourceDecomposition, SourceDecomposition],
    c_factors: tuple[np.ndarray, np.ndarray],
    permutation: PermutationPlan,
) -> PatternDecomposition:
    """Assemble the rescaled common patterns and distinctive remainders.

    The common pattern is kept as its factors ``(loadings, scores)``, and
    ``explained`` comes from their r12 x r12 Gram matrices, as sign
    ``auto`` takes it.  ``scales`` are the square roots of the two
    sources' signal traces (``SignalEstimate.root_trace``), which negating
    dataset 2 leaves unchanged.
    The smaller dataset is zero-padded to the common row dimension and
    the permutation is applied to dataset 2's rows before the split, when
    a pattern is read.
    """
    return PatternDecomposition(
        c_factors=c_factors,
        scales=tuple(src.estimate.root_trace for src in source_pair),
        sources=source_pair,
        permutation=permutation,
        explained=_factor_explained(*c_factors),
    )


def population_cdpa(
    v1: np.ndarray,
    lam1: np.ndarray,
    v2: np.ndarray,
    lam2: np.ndarray,
    z_cross: np.ndarray,
) -> PopulationPatterns:
    """Analytic decomposition for a known factor model.

    The model supplies the covariance factorizations ``V_k diag(lam_k)
    V_k.T`` and the cross-covariance of the standardized factor scores.
    All quantities are computed on covariance factors; no sampling is
    involved.  The population channels ``B_k`` go through the fit's
    bases and common-loadings step.
    """
    u1, svals, v2t = svd(z_cross, full_matrices=True)
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
    bases = tuple(pad_rows(orthonormal_basis(b), pmax) for b in (b1, b2))
    scales = (float(np.sqrt(np.sum(lam1))), float(np.sqrt(np.sum(lam2))))
    padded = (pad_rows(b1, pmax), pad_rows(b2, pmax))
    b_c = common_loadings(principal_angles(*bases, identity_permutation(pmax)), *padded, scales)[0]
    a = common_factor_coefficients(rho)
    var_c0 = a**2 * (2.0 + 2.0 * rho)  # factor scores are uncorrelated across pairs
    contributions = var_c0 * np.sum(b_c**2, axis=0)
    return PopulationPatterns(
        r12=r12,
        b_c=b_c,
        explained=float(np.sum(contributions)),
        contributions=contributions,
    )


def check_bootstrap(replicates: int, level: float, seed: int = 0) -> None:
    """Reject bootstrap settings that ``bootstrap_ci`` cannot run."""
    for name, count in (("replicates", replicates), ("seed", seed)):
        check_count(count, name, BadConfig)
    check_real(level, "level", BadConfig)
    if seed < 0:
        raise BadConfig(f"seed must be nonnegative, got {seed}")
    if replicates < 100:
        raise BadConfig(f"need at least 100 replicates, got {replicates}")
    if not 0.0 < level < 1.0:
        raise BadConfig(f"level must be in (0, 1), got {level}")


def bootstrap_ci(
    y1: ObservedMatrix,
    y2: ObservedMatrix,
    fit: DecompositionResult,
    replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap interval for the explained variance of ``fit``.

    ``fit`` is the decomposition of ``y1`` and ``y2`` and gives the point
    estimate.  Columns are resampled with replacement jointly across the
    two datasets and refitted with the fit's configuration, its ranks,
    alignment and sign held fixed; the replicates are shared out over the
    package's worker threads (``_worker.map_shared``).  Replicate ``i``
    draws from the ``i``-th child of ``SeedSequence(seed).spawn``, so
    results are independent of scheduling and different master seeds give
    independent streams.
    """
    check_bootstrap(replicates, level, seed)
    n = y1.n
    cfg = replace(
        fit.config,
        ranks=fit.ranks,
        perm=fit.permutation.perm,
        sign="plus" if fit.sign >= 0 else "minus",
    )

    def one(child: np.random.SeedSequence) -> float:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        pair = (
            ObservedMatrix(y1.values[:, idx]),
            ObservedMatrix(y2.values[:, idx]),
        )
        return estimate_cdpa(pair[0], pair[1], cfg).patterns.explained

    values = map_shared(one, np.random.SeedSequence(seed).spawn(replicates))
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return BootstrapInterval(
        point=fit.patterns.explained,
        lower=float(lower),
        upper=float(upper),
        level=level,
        replicates=replicates,
    )


def _factor_explained(loadings: np.ndarray, scores: np.ndarray) -> float:
    """``||loadings @ scores||_F^2 / n`` from the two r12 x r12 Gram matrices."""
    gram = (loadings.T @ loadings) * (scores @ scores.T)
    return float(np.sum(gram) / scores.shape[1])


def assemble_patterns(
    x1: SignalEstimate,
    x2: SignalEstimate,
    system: CanonicalSystem | None,
    perm: str | np.ndarray = "identity",
    sign: str = "plus",
):
    """Assemble the decomposition from an existing canonical system.

    The one assembly, which ``estimate_cdpa`` calls once per fit: the
    common factor scores, both mixing channels and their padded bases,
    the row alignment (``perm`` as in ``CdpaConfig``; an identity or
    provided plan gets its objective from the principal angles), the
    principal angles, the common loadings of both orientations, the sign
    (``sign`` as in ``CdpaConfig``) and the patterns' factors.  Negating
    dataset 2 negates only its dual weight, so one ``common_loadings``
    call serves sign ``auto``; when ``-1`` is chosen, dataset 2 and its
    channel, and with them its sources, are negated.  Returns
    ``(patterns, pair, sign, sign_choice)``.

    Taking the system as an argument keeps the assembly agnostic to how
    the canonical coordinates were chosen, which is what makes the final
    common pattern well defined under non-unique choices.  ``system=None``
    is the zero shared rank: zero-width channels and factors, the
    identity alignment (a provided plan is still checked), sign 1, and
    no pair or sign choice.
    """
    pmax, n = max(x1.p, x2.p), x1.n
    plan = _fixed_permutation(perm, pmax)
    pair, sign_choice, resolved = None, None, 1
    if system is None:
        plan = _fixed_permutation("identity", pmax)
        c0, loadings = np.zeros((0, n)), np.zeros((pmax, 0))
        channels = (np.zeros((x1.p, 0)), np.zeros((x2.p, 0)))
    else:
        c0 = common_factor_scores(system)
        channels = (mixing_channel(x1, system, 1), mixing_channel(x2, system, 2))
        bases = tuple(pad_rows(orthonormal_basis(ch), pmax) for ch in channels)
        plan = plan or dspfp_match(build_match_problem(*bases))
        pair = principal_angles(*bases, plan.perm)
        padded = (pad_rows(channels[0], pmax), pad_rows(channels[1], pmax)[plan.perm])
        signed = dict(zip((1, -1), common_loadings(pair, *padded, (x1.root_trace, x2.root_trace))))
        if sign == "auto":
            sign_choice = choose_sign(*(_factor_explained(signed[k], c0) for k in (1, -1)))
            resolved = sign_choice.sign
        elif sign == "minus":
            resolved = -1
        loadings = signed[resolved]
        if resolved == -1:
            x2 = replace(x2, left_vectors=-x2.left_vectors)
            channels = (channels[0], -channels[1])
        if plan.method in ("identity", "provided"):
            plan = replace(plan, objective=float(np.sum(pair.cosines**2)))
    sources = tuple(source_decomposition(x, ch, c0) for x, ch in zip((x1, x2), channels))
    return pattern_decomposition(sources, (loadings, c0), plan), pair, resolved, sign_choice


def estimate_cdpa(
    y1: ObservedMatrix, y2: ObservedMatrix, config: CdpaConfig | None = None
) -> DecompositionResult:
    """Run the full estimation pipeline on two observed matrices.

    Steps: optional row centering, rank selection (or configured ranks),
    soft-threshold denoising, the diagnostics, one canonical system, and
    one call of ``assemble_patterns``, which aligns the rows, resolves the
    sign and assembles the patterns' factors.  Each dataset is factored
    once, through its Gram matrix.  Negating dataset 2 leaves the
    canonical system unchanged, so one system serves both orientations.
    Deterministic given the configuration.

    When the correlation screen finds no cross-dataset correlation (or a
    zero shared rank is configured), no system is built and the assembly
    runs its zero-width case: the common pattern is zero, ``r12_zero`` is
    set, the alignment is the identity (a provided permutation is still
    checked), the sign is 1, and ``system``, ``pair`` and ``sign_choice``
    are None.
    """
    config = config or CdpaConfig()
    if y1.n != y2.n:
        raise InputError(
            f"datasets have different sample counts: {y1.n} vs {y2.n}"
        )
    if config.center:
        y1, y2 = center_rows(y1), center_rows(y2)

    if config.ranks is None:
        ranks, x1, x2 = select_ranks(y1, y2)
    else:
        ranks = config.ranks
        x1, x2 = soft_threshold_denoise(y1, ranks.r1), soft_threshold_denoise(y2, ranks.r2)

    diagnostics = compute_diagnostics(x1, x2)
    system = canonical_system(x1, x2, ranks.r12) if ranks.r12 else None
    patterns, pair, sign, sign_choice = assemble_patterns(
        x1, x2, system, config.perm, config.sign
    )
    return DecompositionResult(
        patterns=patterns,
        system=system,
        pair=pair,
        ranks=ranks,
        permutation=patterns.permutation,
        sign=sign,
        sign_choice=sign_choice,
        diagnostics=diagnostics,
        config=config,
    )


def _fixed_permutation(perm: str | np.ndarray, pmax: int) -> PermutationPlan | None:
    """The identity or provided plan, its objective filled in by the
    assembly; None when the heuristic solves for it."""
    if isinstance(perm, str) and perm == "dspfp":
        return None
    if isinstance(perm, str):
        return PermutationPlan(identity_permutation(pmax), objective=0.0, method="identity")
    plan = PermutationPlan(perm=perm, objective=0.0, method="provided")
    if plan.perm.shape != (pmax,):
        raise InputError(f"provided permutation has length {len(plan.perm)}, expected {pmax}")
    return plan
