"""Row alignment of the two channel bases via graph matching.

Maximizing the summed squared cosines of the principal angles over row
permutations of the padded second basis is a quadratic assignment
problem.  A Frank-Wolfe assignment ascent solves it approximately; an
exhaustive oracle is available for small problems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dcca import MixingChannel
from .errors import BadDimensions, InputError, TooLarge


@dataclass(frozen=True)
class MatchProblem:
    """Projector-derived matrices of the row-matching objective.

    ``m1`` and ``m2`` are the basis projectors; ``diag1`` and ``diag2``
    are their diagonals after both are shifted to nonnegativity by their
    joint minimum entry, and seed one start of the matcher.
    """

    m1: np.ndarray
    m2: np.ndarray
    diag1: np.ndarray
    diag2: np.ndarray
    q1: np.ndarray
    q2a: np.ndarray

    @property
    def p(self) -> int:
        return self.m1.shape[0]


@dataclass(frozen=True)
class PermutationPlan:
    """A row alignment with its exactly evaluated trace objective.

    ``iterations`` is the number of assignment-ascent steps summed over
    all starts, and ``converged`` is true when every start's ascent
    stopped at a fixed point before the step bound.  Plans not found by
    the ascent report ``0`` and ``True``.
    """

    perm: np.ndarray
    objective: float
    method: str
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        try:
            perm = np.asarray(self.perm)
        except ValueError:
            raise InputError("permutation indices must be a flat list") from None
        # a bijection on 0..p-1 compared in the input's own dtype also
        # rejects non-integral indices instead of truncating them
        if (
            perm.ndim != 1
            or perm.dtype.kind not in "iuf"
            or not np.array_equal(np.sort(perm), np.arange(perm.shape[0]))
        ):
            raise InputError(
                "permutation is not a bijection on integer row indices"
            )
        object.__setattr__(self, "perm", perm.astype(np.intp))

    def to_json(self) -> str:
        return json.dumps([int(i) for i in self.perm])

    @staticmethod
    def from_json(text: str, method: str = "provided") -> "PermutationPlan":
        try:
            idx = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"permutation file is not valid JSON: {exc}") from None
        return PermutationPlan(perm=idx, objective=float("nan"), method=method)


@dataclass(frozen=True)
class SignChoice:
    """Orientation of dataset 2 chosen by the larger explained variance."""

    sign: int
    trace_plus: float
    trace_minus: float


@dataclass(frozen=True)
class DspfpConfig:
    """Tuning knobs of the assignment-ascent row matcher.

    ``max_iter`` bounds the ascent steps taken from each start, and
    ``polish`` applies pairwise swaps to each start's result.  Small
    problems (``p <= small_p``) add ``seeded_inits`` random starts drawn
    from ``init_seed``.
    """

    max_iter: int = 120
    polish: bool = True
    small_p: int = 12
    seeded_inits: int = 12
    init_seed: int = 12345


def identity_permutation(p: int) -> np.ndarray:
    return np.arange(p, dtype=np.intp)


def match_objective(q1: np.ndarray, q2a: np.ndarray, perm) -> float:
    """Exact trace objective ``||q1.T @ q2a[perm]||_F^2`` for one alignment."""
    return float(np.sum((q1.T @ q2a[np.asarray(perm, dtype=np.intp)]) ** 2))


def zero_pad(b2: MixingChannel, p1: int) -> MixingChannel:
    """Append zero rows so the channel has ``p1`` rows."""
    if p1 < b2.p:
        raise BadDimensions(f"cannot pad {b2.p} rows down to {p1}")
    if p1 == b2.p:
        return b2
    padded = np.vstack([b2.b, np.zeros((p1 - b2.p, b2.r12))])
    return MixingChannel(b=padded, dataset_index=b2.dataset_index)


def build_match_problem(q1: np.ndarray, q2a: np.ndarray) -> MatchProblem:
    """Projector matrices and their shifted diagonals."""
    if q1.shape != q2a.shape:
        raise InputError(f"basis shapes differ: {q1.shape} vs {q2a.shape}")
    m1 = q1 @ q1.T
    m2 = q2a @ q2a.T
    shift = min(m1.min(), m2.min())
    return MatchProblem(
        m1=m1,
        m2=m2,
        diag1=np.diag(m1) - shift,
        diag2=np.diag(m2) - shift,
        q1=q1,
        q2a=q2a,
    )


def _assign(score: np.ndarray) -> np.ndarray:
    """The permutation maximizing ``sum_i score[i, perm[i]]``."""
    _, cols = linear_sum_assignment(-score)  # rows come back as 0..p-1
    return cols.astype(np.intp)


def _ascend(q1, q2a, perm, max_iter):
    """Frank-Wolfe ascent from ``perm``: one linear assignment per step.

    Returns the final permutation, the steps taken and whether the
    ascent stopped because the objective no longer rose.
    """
    core = q1.T @ q2a[perm]
    obj = float(np.sum(core**2))
    for step in range(1, max_iter + 1):
        cand = _assign(q1 @ core @ q2a.T)
        cand_core = q1.T @ q2a[cand]
        cand_obj = float(np.sum(cand_core**2))
        if cand_obj <= obj + 1e-12:
            return perm, step, True
        perm, core, obj = cand, cand_core, cand_obj
    return perm, max_iter, False


def _swap_deltas(m1: np.ndarray, p2g: np.ndarray) -> np.ndarray:
    """Objective change for every pairwise swap, given gathered m2[perm][:, perm]."""
    g = m1 @ p2g
    gd = np.diag(g)
    base = g + g.T - gd[:, None] - gd[None, :]
    a_ii = np.diag(m1)
    b_ii = np.diag(p2g)
    corr = (a_ii[:, None] - m1) * (p2g - b_ii[:, None])
    diag_term = (a_ii[:, None] - a_ii[None, :]) * (b_ii[None, :] - b_ii[:, None])
    return 2.0 * (base - corr - corr.T) + diag_term


def _two_opt(m1, m2, perm, max_swaps=None):
    p = perm.shape[0]
    perm = perm.copy()
    if max_swaps is None:
        max_swaps = 4 * p
    for _ in range(max_swaps):
        deltas = _swap_deltas(m1, m2[np.ix_(perm, perm)])
        np.fill_diagonal(deltas, -np.inf)
        i, j = np.unravel_index(np.argmax(deltas), deltas.shape)
        if deltas[i, j] <= 1e-12:
            break
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def dspfp_match(problem: MatchProblem, cfg: DspfpConfig | None = None) -> PermutationPlan:
    """Approximate the optimal row alignment by assignment ascent.

    The objective ``f(P) = ||q1.T @ P @ q2a||_F^2`` is convex in P, so a
    Frank-Wolfe step over the doubly stochastic matrices always goes the
    full length to the vertex that maximizes the linearization: the
    permutation solving a linear assignment on the rank-r gradient
    ``q1 @ q1.T @ P @ q2a @ q2a.T``.  Each start X0 is first mapped to a
    permutation by one such assignment, then ascends one assignment per
    step until the objective stops rising or ``max_iter`` steps are
    taken.  Each start's result is polished by pairwise swaps, and the
    best permutation is returned, never worse than the identity.
    """
    cfg = cfg or DspfpConfig()
    p = problem.p
    q1, q2a = problem.q1, problem.q2a
    # for orthonormal bases the start m1 @ m2 has the identity's gradient,
    # so it would only repeat the identity start
    starts = [
        np.full((p, p), 1.0 / p),
        np.outer(problem.diag1, problem.diag2),
        np.eye(p),
    ]
    if p <= cfg.small_p:
        rng = np.random.default_rng(cfg.init_seed)
        starts += [rng.random((p, p)) for _ in range(cfg.seeded_inits)]
    best_perm = identity_permutation(p)
    best_obj = match_objective(q1, q2a, best_perm)
    iterations, converged = 0, True
    for x0 in starts:
        perm = _assign(q1 @ (q1.T @ x0 @ q2a) @ q2a.T)
        perm, steps, stopped = _ascend(q1, q2a, perm, cfg.max_iter)
        iterations += steps
        converged &= stopped
        if cfg.polish:
            perm = _two_opt(problem.m1, problem.m2, perm)
        obj = match_objective(q1, q2a, perm)
        if obj > best_obj + 1e-12:
            best_perm, best_obj = perm, obj
    return PermutationPlan(
        perm=best_perm,
        objective=best_obj,
        method="dspfp",
        iterations=iterations,
        converged=converged,
    )


_PERM_CACHE: dict[int, np.ndarray] = {}


def _all_permutations(p: int) -> np.ndarray:
    cached = _PERM_CACHE.get(p)
    if cached is None:
        cached = np.array(list(permutations(range(p))), dtype=np.intp)
        _PERM_CACHE[p] = cached
    return cached


def exhaustive_match(q1: np.ndarray, q2a: np.ndarray) -> PermutationPlan:
    """Globally optimal row alignment by enumeration; limited to p <= 9."""
    p = q1.shape[0]
    if p > 9:
        raise TooLarge(f"exhaustive search limited to p <= 9, got {p}")
    m1 = q1 @ q1.T
    m2 = q2a @ q2a.T
    perms = _all_permutations(p)
    best = -np.inf
    best_perm = None
    for start in range(0, perms.shape[0], 20000):
        block = perms[start : start + 20000]
        gathered = m2[block[:, :, None], block[:, None, :]]
        objs = np.einsum("ij,nij->n", m1, gathered)
        i = int(np.argmax(objs))
        if objs[i] > best:
            best = float(objs[i])
            best_perm = block[i]
    return PermutationPlan(
        perm=best_perm,
        objective=match_objective(q1, q2a, best_perm),
        method="exhaustive",
    )


def choose_sign(run_plus, run_minus) -> SignChoice:
    """Pick the dataset-2 orientation with larger explained variance.

    Both runs must come from the same ranks and permutation; ties break
    to the positive orientation.
    """
    tp = float(run_plus.explained)
    tm = float(run_minus.explained)
    return SignChoice(sign=1 if tp >= tm else -1, trace_plus=tp, trace_minus=tm)
