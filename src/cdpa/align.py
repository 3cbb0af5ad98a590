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

from .errors import InputError, TooLarge


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
        object.__setattr__(self, "perm", as_permutation(self.perm))

    def to_json(self) -> str:
        return json.dumps([int(i) for i in self.perm])

    @staticmethod
    def from_json(text: str) -> "PermutationPlan":
        try:
            idx = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"permutation file is not valid JSON: {exc}") from None
        return PermutationPlan(perm=idx, objective=float("nan"), method="provided")


@dataclass(frozen=True)
class SignChoice:
    """Orientation of dataset 2 chosen by the larger explained variance."""

    sign: int
    trace_plus: float
    trace_minus: float


# Problems with p <= SMALL_P also ascend from SEEDED_INITS random starts,
# drawn from the fixed INIT_SEED so that the result stays deterministic.
SMALL_P = 12
SEEDED_INITS = 12
INIT_SEED = 12345


def identity_permutation(p: int) -> np.ndarray:
    return np.arange(p, dtype=np.intp)


def as_permutation(perm, p: int | None = None) -> np.ndarray:
    """``perm`` as an index array, checked to be a bijection on ``0..p-1``.

    ``p`` defaults to the length of ``perm``.  The check compares in the
    input's own dtype, so non-integral indices raise ``InputError``
    instead of being truncated, as do boolean, non-numeric and nested
    ones.
    """
    try:
        arr = np.asarray(perm)
    except ValueError:
        raise InputError("permutation indices must be a flat list") from None
    if p is None and arr.ndim == 1:
        p = arr.shape[0]
    if (
        arr.shape != (p,)
        or arr.dtype.kind not in "iuf"
        or not np.array_equal(np.sort(arr), np.arange(p))
    ):
        raise InputError("permutation is not a bijection on integer row indices")
    return arr.astype(np.intp)


def match_objective(q1: np.ndarray, q2a: np.ndarray, perm) -> float:
    """Exact trace objective ``||q1.T @ q2a[perm]||_F^2`` for one alignment."""
    return float(np.sum((q1.T @ q2a[as_permutation(perm, q2a.shape[0])]) ** 2))


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


def _two_opt(m1, m2, perm):
    """Best-improvement pairwise swaps, at most ``4 p`` of them."""
    perm = perm.copy()
    for _ in range(4 * perm.shape[0]):
        deltas = _swap_deltas(m1, m2[np.ix_(perm, perm)])
        np.fill_diagonal(deltas, -np.inf)
        i, j = np.unravel_index(np.argmax(deltas), deltas.shape)
        if deltas[i, j] <= 1e-12:
            break
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def dspfp_match(problem: MatchProblem, max_iter: int = 120) -> PermutationPlan:
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
    p = problem.p
    q1, q2a = problem.q1, problem.q2a
    # for orthonormal bases the start m1 @ m2 has the identity's gradient,
    # so it would only repeat the identity start
    starts = [
        np.full((p, p), 1.0 / p),
        np.outer(problem.diag1, problem.diag2),
        np.eye(p),
    ]
    if p <= SMALL_P:
        rng = np.random.default_rng(INIT_SEED)
        starts += [rng.random((p, p)) for _ in range(SEEDED_INITS)]
    best_perm = identity_permutation(p)
    best_obj = match_objective(q1, q2a, best_perm)
    iterations, converged = 0, True
    for x0 in starts:
        perm = _assign(q1 @ (q1.T @ x0 @ q2a) @ q2a.T)
        perm, steps, stopped = _ascend(q1, q2a, perm, max_iter)
        iterations += steps
        converged &= stopped
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


def choose_sign(trace_plus: float, trace_minus: float) -> SignChoice:
    """Pick the dataset-2 orientation with the larger explained variance.

    Both explained variances must come from the same ranks and
    permutation; ties break to the positive orientation.
    """
    tp, tm = float(trace_plus), float(trace_minus)
    return SignChoice(sign=1 if tp >= tm else -1, trace_plus=tp, trace_minus=tm)
