"""Row alignment of the two channel bases via graph matching.

Maximizing the summed squared cosines of the principal angles over row
permutations of the padded second basis is a quadratic assignment
problem.  A Frank-Wolfe assignment ascent solves it approximately; an
exhaustive oracle is available for small problems.  Both read only the
padded p x r bases; no p x p projector is kept.

The ascent's independent starts run on the calling thread and on the
package's shared worker threads (``_worker.map_shared``).  Each start's
result depends on its inputs alone and the results are combined in start
order, so the plan is the same bits however the starts were shared out.

The objective measures how well the aligned subspaces agree, not whether
the alignment is the planted one: on channels whose planted angle is 30
degrees or more (``SimulationConfig.theta_deg``), it can prefer a
non-planted plan even on noiseless bases, and no solver closes that gap.

The ascent's linear assignments use scipy's ``linear_sum_assignment``,
a module attribute that imports ``scipy.optimize`` when first read.  As
``import cdpa`` loads no scipy at all, fits that never align rows never
load ``scipy.optimize``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from ._worker import map_shared
from .errors import InputError, NumericalError, TooLarge


def __getattr__(name):
    """Import the assignment solver on first use: ``scipy.optimize`` takes
    longer to import than a whole small fit, and only the ascent needs it."""
    if name != "linear_sum_assignment":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linear_sum_assignment

    globals()[name] = linear_sum_assignment
    return linear_sum_assignment


@dataclass(frozen=True)
class MatchProblem:
    """The padded p x r bases of the row-matching objective.

    ``diag1`` and ``diag2`` are the diagonals of the projectors
    ``q1 @ q1.T`` and ``q2a @ q2a.T``, shifted to nonnegativity by their
    joint minimum entry; they seed one start of the matcher.
    """

    q1: np.ndarray
    q2a: np.ndarray
    diag1: np.ndarray
    diag2: np.ndarray

    @property
    def p(self) -> int:
        return self.q1.shape[0]


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


def _check_bases(q1: np.ndarray, q2a: np.ndarray) -> None:
    if q1.shape != q2a.shape:
        raise InputError(f"basis shapes differ: {q1.shape} vs {q2a.shape}")


def match_objective(q1: np.ndarray, q2a: np.ndarray, perm) -> float:
    """Exact trace objective ``||q1.T @ q2a[perm]||_F^2`` for one alignment."""
    _check_bases(q1, q2a)
    return float(np.sum((q1.T @ q2a[as_permutation(perm, q2a.shape[0])]) ** 2))


_PROJECTOR_ROWS = 256  # rows of a p x p projector formed at a time


def build_match_problem(q1: np.ndarray, q2a: np.ndarray) -> MatchProblem:
    """The bases and the shifted diagonals of their projectors.

    The projectors are formed a block of rows at a time, for their joint
    minimum entry and their diagonals, and are never held whole.
    """
    _check_bases(q1, q2a)
    shift = np.inf
    diags = []
    for q in (q1, q2a):
        diag = np.empty(q.shape[0])
        for start in range(0, q.shape[0], _PROJECTOR_ROWS):
            block = q[start : start + _PROJECTOR_ROWS] @ q.T
            shift = min(shift, block.min())
            diag[start : start + block.shape[0]] = np.diagonal(block, offset=start)
        diags.append(diag)
    return MatchProblem(q1, q2a, diags[0] - shift, diags[1] - shift)


def _assign(score: np.ndarray) -> np.ndarray:
    """The permutation maximizing ``sum_i score[i, perm[i]]``.

    The solver minimizes the reduced cost: each row's maximum minus the
    row, less each column's minimum.  Adding a constant to a row or a
    column moves every permutation's total by the same amount, so the
    optimal set is that of ``-score``, and with a zero in every row and
    column the solver's augmenting-path searches are short (the reduction
    Jonker and Volgenant's solver starts with).  A solver failure is a
    ``NumericalError``.
    """
    cost = score.max(axis=1, keepdims=True) - score
    cost -= cost.min(axis=0)
    # looked up on the module at each call, so a rebound solver is the one used
    solve = sys.modules[__name__].linear_sum_assignment
    try:
        _, cols = solve(cost)  # rows come back as 0..p-1
    except ValueError as exc:
        raise NumericalError(f"linear assignment failed: {exc}") from exc
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


def _squared_row_distances(q: np.ndarray) -> np.ndarray:
    """``|q[i] - q[j]|^2`` for every pair of rows, from their Gram matrix."""
    g = q @ q.T
    norms = np.diag(g).copy()
    g *= -2.0
    g += norms[:, None]
    g += norms
    return g


def _swap_gains(q1: np.ndarray, q2p: np.ndarray) -> np.ndarray:
    """Objective gain of swapping rows i and j of ``q2p = q2a[perm]``.

    The swap changes ``K = q1.T @ q2p`` by ``-a b^T``, with
    ``a = q1[i] - q1[j]`` and ``b = q2p[i] - q2p[j]``, so the gain is
    ``|a|^2 |b|^2 - 2 a^T K b``.  With ``H = q1 K q2p.T`` the cross term
    ``a^T K b`` is ``H_ii + H_jj - H_ij - H_ji``.
    """
    h = q1 @ (q1.T @ q2p) @ q2p.T
    hd = np.diag(h)
    cross = hd[:, None] + hd - h - h.T
    return _squared_row_distances(q1) * _squared_row_distances(q2p) - 2.0 * cross


def _two_opt(q1, q2a, perm):
    """Best-improvement pairwise swaps, at most ``4 p`` of them."""
    perm = perm.copy()
    for _ in range(4 * perm.shape[0]):
        gains = _swap_gains(q1, q2a[perm])
        np.fill_diagonal(gains, -np.inf)
        i, j = np.unravel_index(np.argmax(gains), gains.shape)
        if gains[i, j] <= 1e-12:
            break
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _start_cores(problem: MatchProblem) -> list[np.ndarray]:
    """The r x r cores of the ascent's starts, in start order."""
    p = problem.p
    q1, q2a = problem.q1, problem.q2a
    # for orthonormal bases the start q1 q1.T q2a q2a.T has the identity's
    # core, so it would only repeat the identity start
    cores = [
        np.outer(q1.sum(0), q2a.sum(0)) / p,
        np.outer(q1.T @ problem.diag1, problem.diag2 @ q2a),
        q1.T @ q2a,
    ]
    if p <= SMALL_P:
        rng = np.random.default_rng(INIT_SEED)
        cores += [q1.T @ rng.random((p, p)) @ q2a for _ in range(SEEDED_INITS)]
    return cores


def _climb(q1, q2a, core, max_iter):
    """One start: ``(perm, objective, steps, stopped)`` after mapping
    ``core`` to a permutation, ascending from it and polishing."""
    perm, steps, stopped = _ascend(q1, q2a, _assign(q1 @ core @ q2a.T), max_iter)
    perm = _two_opt(q1, q2a, perm)
    return perm, match_objective(q1, q2a, perm), steps, stopped


def dspfp_match(problem: MatchProblem, max_iter: int = 120) -> PermutationPlan:
    """Approximate the optimal row alignment by assignment ascent.

    The objective ``f(P) = ||q1.T @ P @ q2a||_F^2`` is convex in P, so a
    Frank-Wolfe step over the doubly stochastic matrices always goes the
    full length to the vertex that maximizes the linearization: the
    permutation solving a linear assignment on the rank-r gradient
    ``q1 @ q1.T @ P @ q2a @ q2a.T``.  A start X0 enters only through its
    r x r core ``q1.T @ X0 @ q2a``, mapped to a permutation by one
    assignment on ``q1 @ core @ q2a.T``; each then ascends one assignment
    per step until the objective stops rising or ``max_iter`` steps are
    taken.  Each start's result is polished by pairwise swaps, and the
    best permutation is returned, never worse than the identity.

    The starts are shared with the package's worker threads and combined in
    start order; a failed start's error is raised once no start runs.
    """
    q1, q2a = problem.q1, problem.q2a
    best_perm = identity_permutation(problem.p)
    best_obj = match_objective(q1, q2a, best_perm)
    iterations, converged = 0, True
    climbs = map_shared(lambda core: _climb(q1, q2a, core, max_iter), _start_cores(problem))
    for perm, obj, steps, stopped in climbs:
        iterations += steps
        converged &= stopped
        if obj > best_obj + 1e-12:
            best_perm, best_obj = perm, obj
    return PermutationPlan(
        perm=best_perm,
        objective=best_obj,
        method="dspfp",
        iterations=iterations,
        converged=converged,
    )


@cache
def _all_permutations(p: int) -> np.ndarray:
    return np.array(list(permutations(range(p))), dtype=np.intp)


def exhaustive_match(q1: np.ndarray, q2a: np.ndarray) -> PermutationPlan:
    """Globally optimal row alignment by enumeration; limited to p <= 9."""
    _check_bases(q1, q2a)
    p = q1.shape[0]
    if p > 9:
        raise TooLarge(f"exhaustive search limited to p <= 9, got {p}")
    perms = _all_permutations(p)
    # blocks of 20000 permutations bound the gathered copies of q2a
    objs = [
        (np.einsum("ik,nil->nkl", q1, q2a[perms[s : s + 20000]]) ** 2).sum((1, 2))
        for s in range(0, perms.shape[0], 20000)
    ]
    best_perm = perms[int(np.argmax(np.concatenate(objs)))]
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
