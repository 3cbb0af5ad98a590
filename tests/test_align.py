import numpy as np
import pytest

from cdpa import (
    BadDimensions,
    CdpaConfig,
    MixingChannel,
    RankProfile,
    SimulationConfig,
    TooLarge,
    build_match_problem,
    choose_sign,
    dspfp_match,
    estimate_cdpa,
    exhaustive_match,
    generate_setup,
    match_objective,
    zero_pad,
)
from cdpa._linalg import random_orthonormal
from cdpa.align import _all_permutations

from helpers import dense_match_problem


# --------------------------------------------------------------- zero_pad


def test_zero_pad_noop():
    rng = np.random.default_rng(0)
    chan = MixingChannel(b=rng.standard_normal((6, 2)), dataset_index=2)
    assert zero_pad(chan, 6) is chan


def test_zero_pad_appends_zero_rows():
    chan = MixingChannel(b=np.arange(6.0).reshape(3, 2), dataset_index=2)
    padded = zero_pad(chan, 5)
    np.testing.assert_array_equal(padded.b[3:], np.zeros((2, 2)))
    np.testing.assert_array_equal(padded.b[:3], chan.b)
    np.testing.assert_array_equal(
        np.linalg.norm(padded.b, axis=0), np.linalg.norm(chan.b, axis=0)
    )


def test_zero_pad_rejects_shrinking():
    chan = MixingChannel(b=np.ones((4, 2)), dataset_index=2)
    with pytest.raises(BadDimensions):
        zero_pad(chan, 3)


# ---------------------------------------------------------- build_match_problem


def test_match_problem_identical_bases():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 8, 3)
    prob = build_match_problem(q, q.copy())
    np.testing.assert_allclose(prob.m1, prob.m2, atol=1e-12)
    np.testing.assert_allclose(prob.m1, prob.m1.T, atol=1e-12)
    np.testing.assert_allclose(prob.m1 @ prob.m1, prob.m1, atol=1e-8)
    np.testing.assert_allclose(np.trace(prob.m1), 3.0, atol=1e-10)


def test_match_problem_shift_is_joint_minimum():
    rng = np.random.default_rng(2)
    q1 = random_orthonormal(rng, 7, 2)
    q2 = random_orthonormal(rng, 7, 2)
    prob = dense_match_problem(q1, q2)
    assert prob.shift == min(prob.m1.min(), prob.m2.min())
    assert prob.m1_plus.min() >= 0.0
    assert prob.m2_plus.min() >= 0.0
    np.testing.assert_allclose(
        prob.offdiag1 + np.diag(prob.diag1), prob.m1_plus, atol=1e-14
    )


def _objectives_over_all_perms(q1, q2a):
    """The four equivalent alignment objectives for every permutation."""
    p = q1.shape[0]
    m1 = q1 @ q1.T
    m2 = q2a @ q2a.T
    prob = dense_match_problem(q1, q2a)
    perms = _all_permutations(p)
    gathered = m2[perms[:, :, None], perms[:, None, :]]
    trace_obj = np.einsum("ij,nij->n", m1, gathered)
    frob = -np.sum((m1[None, :, :] - gathered) ** 2, axis=(1, 2))
    gathered_plus = prob.m2_plus[perms[:, :, None], perms[:, None, :]]
    frob_plus = -np.sum((prob.m1_plus[None, :, :] - gathered_plus) ** 2, axis=(1, 2))
    off2 = prob.offdiag2
    off_g = off2[perms[:, :, None], perms[:, None, :]]
    split = np.einsum("ij,nij->n", prob.offdiag1, off_g) + (
        prob.diag2[perms] @ prob.diag1
    )
    return perms, np.stack([trace_obj, frob, frob_plus, split])


def test_objective_chain_shares_argmax_sets():
    rng = np.random.default_rng(3)
    for trial in range(6):
        p = 5 + trial % 2
        q1 = random_orthonormal(rng, p, 2)
        q2 = random_orthonormal(rng, p, 2)
        perms, objs = _objectives_over_all_perms(q1, q2)
        argmax_sets = [
            set(map(tuple, perms[o >= o.max() - 1e-9])) for o in objs
        ]
        assert argmax_sets[0] == argmax_sets[1] == argmax_sets[2] == argmax_sets[3]


def test_trace_objective_equals_summed_squared_cosines():
    rng = np.random.default_rng(4)
    q1 = random_orthonormal(rng, 6, 3)
    q2 = random_orthonormal(rng, 6, 3)
    perms = _all_permutations(6)
    for perm in perms[::60]:
        cos = np.linalg.svd(q1.T @ q2[perm], compute_uv=False)
        assert abs(match_objective(q1, q2, perm) - np.sum(cos**2)) <= 1e-10


# ------------------------------------------------------------------ dspfp


def test_dspfp_identical_bases_achieves_full_objective():
    rng = np.random.default_rng(5)
    q = random_orthonormal(rng, 9, 3)
    plan = dspfp_match(build_match_problem(q, q.copy()))
    np.testing.assert_allclose(plan.objective, 3.0, atol=1e-8)
    assert plan.method == "dspfp"


def test_dspfp_planted_permutation_recovery():
    rng = np.random.default_rng(6)
    for trial in range(10):
        q1 = random_orthonormal(rng, 8, 3)
        scramble = rng.permutation(8)
        plan = dspfp_match(build_match_problem(q1, q1[scramble]))
        best = exhaustive_match(q1, q1[scramble])
        np.testing.assert_allclose(best.objective, 3.0, atol=1e-8)
        assert abs(plan.objective - best.objective) <= 1e-8


def test_dspfp_never_below_identity():
    rng = np.random.default_rng(7)
    for trial in range(10):
        q1 = random_orthonormal(rng, 7, 3)
        q2 = random_orthonormal(rng, 7, 3)
        plan = dspfp_match(build_match_problem(q1, q2))
        assert plan.objective >= match_objective(q1, q2, np.arange(7)) - 1e-12
        assert -1e-8 <= plan.objective <= 3.0 + 1e-8


def test_dspfp_deterministic():
    rng = np.random.default_rng(8)
    q1 = random_orthonormal(rng, 7, 2)
    q2 = random_orthonormal(rng, 7, 2)
    a = dspfp_match(build_match_problem(q1, q2))
    b = dspfp_match(build_match_problem(q1, q2))
    np.testing.assert_array_equal(a.perm, b.perm)
    assert a.objective == b.objective


def test_dspfp_large_p_planted_recovery():
    # p = 100 is above small_p: deterministic starts only
    rng = np.random.default_rng(31)
    for trial in range(5):
        q1 = random_orthonormal(rng, 100, 5)
        scramble = rng.permutation(100)
        plan = dspfp_match(build_match_problem(q1, q1[scramble]))
        assert abs(plan.objective - 5.0) <= 1e-8


def test_dspfp_large_p_never_below_identity_and_deterministic():
    rng = np.random.default_rng(32)
    for trial in range(3):
        q1 = random_orthonormal(rng, 100, 5)
        q2 = random_orthonormal(rng, 100, 5)
        a = dspfp_match(build_match_problem(q1, q2))
        b = dspfp_match(build_match_problem(q1, q2))
        assert a.objective >= match_objective(q1, q2, np.arange(100)) - 1e-12
        np.testing.assert_array_equal(a.perm, b.perm)
        assert a.objective == b.objective
        assert (a.iterations, a.converged) == (b.iterations, b.converged)


def test_dspfp_reports_convergence():
    rng = np.random.default_rng(33)
    q1 = random_orthonormal(rng, 100, 5)
    q2 = random_orthonormal(rng, 100, 5)
    prob = build_match_problem(q1, q2)
    full = dspfp_match(prob)
    assert full.converged
    assert full.iterations >= 3  # at least one step per deterministic start
    cut = dspfp_match(prob, max_iter=1)
    assert not cut.converged
    assert cut.iterations == 3


# ------------------------------------------------------------- exhaustive


def test_exhaustive_identical_bases():
    rng = np.random.default_rng(9)
    q = random_orthonormal(rng, 6, 2)
    plan = exhaustive_match(q, q.copy())
    np.testing.assert_allclose(plan.objective, 2.0, atol=1e-10)


def test_exhaustive_planted_recovery():
    rng = np.random.default_rng(10)
    q1 = random_orthonormal(rng, 7, 3)
    scramble = rng.permutation(7)
    plan = exhaustive_match(q1, q1[scramble])
    np.testing.assert_allclose(plan.objective, 3.0, atol=1e-10)


def test_exhaustive_size_guard():
    rng = np.random.default_rng(11)
    q = random_orthonormal(rng, 10, 2)
    with pytest.raises(TooLarge):
        exhaustive_match(q, q.copy())


# ------------------------------------------------------------- choose_sign


class _Run:
    def __init__(self, explained):
        self.explained = explained


def test_choose_sign_tie_goes_positive():
    choice = choose_sign(_Run(0.4), _Run(0.4))
    assert choice.sign == 1


def test_choose_sign_prefers_larger_trace():
    choice = choose_sign(_Run(0.1), _Run(0.5))
    assert choice.sign == -1
    assert choice.trace_plus == 0.1
    assert choice.trace_minus == 0.5


def test_choose_sign_on_positively_associated_pair():
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=60, n=150, noise_var=0.5, seed=21
    )
    y1, y2, truth = generate_setup(cfg)
    fit = estimate_cdpa(
        y1,
        y2,
        CdpaConfig(
            ranks=RankProfile(5, 5, truth.r12),
            perm="identity",
            sign="auto",
            center=False,
        ),
    )
    assert fit.sign == 1
    assert fit.sign_choice.trace_plus > fit.sign_choice.trace_minus


# -------------------------------------------------- alignment stability study


def test_objective_gap_shrinks_with_noise():
    # exhaustive optima of estimated channels approach the planted optimum
    theta = 45.0
    base = SimulationConfig(setup=1, theta_deg=theta, p1=8, n=300, noise_var=1.0)
    _, _, truth = generate_setup(base)
    r12 = truth.r12
    q1_true = truth.v1[:, :r12]
    q2_true = truth.v2[:, :r12]
    best_true = exhaustive_match(q1_true, q2_true)
    means = []
    for noise in (64.0, 16.0, 1.0):
        gaps = []
        for i in range(25):
            cfg = SimulationConfig(
                setup=1, theta_deg=theta, p1=8, n=300, noise_var=noise, seed=100 + i
            )
            y1, y2, _ = generate_setup(cfg)
            fit = estimate_cdpa(
                y1,
                y2,
                CdpaConfig(
                    ranks=RankProfile(5, 5, r12),
                    perm="identity",
                    sign="plus",
                    center=False,
                ),
            )
            plan_hat = exhaustive_match(fit.pair.q1, fit.pair.q2a)
            got = match_objective(q1_true, q2_true, plan_hat.perm)
            gaps.append(abs(got - best_true.objective))
        means.append(np.mean(gaps))
    assert means[0] >= means[1] >= means[2]
    assert means[0] > means[2]


# ------------------------------------------------------- permutation plan io


def test_permutation_plan_json_roundtrip():
    from cdpa import PermutationPlan

    plan = PermutationPlan(perm=np.array([2, 0, 1]), objective=1.5, method="provided")
    text = plan.to_json()
    assert text == "[2, 0, 1]"
    back = PermutationPlan.from_json(text)
    np.testing.assert_array_equal(back.perm, [2, 0, 1])


def test_permutation_plan_rejects_non_bijection():
    from cdpa import InputError, PermutationPlan

    with pytest.raises(InputError):
        PermutationPlan(perm=np.array([0, 0, 2]), objective=0.0, method="provided")


def test_permutation_plan_rejects_non_integer_indices():
    from cdpa import InputError, PermutationPlan

    with pytest.raises(InputError):
        PermutationPlan.from_json("[0.9, 1.2, 2.7]")
    with pytest.raises(InputError):
        PermutationPlan(perm=np.array([0.9, 1.2, 2.7]), objective=0.0, method="provided")
    for bad in ("[[0, 1], [2]]", '["0", "1"]', "[true, false]"):
        with pytest.raises(InputError):
            PermutationPlan.from_json(bad)
    # integral floats name the same rows as their integers
    plan = PermutationPlan(perm=np.array([1.0, 0.0]), objective=0.0, method="provided")
    assert plan.perm.dtype == np.intp


def test_estimate_rejects_non_integer_permutation():
    from cdpa import InputError

    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=20, n=60, seed=3))
    perm = np.arange(20) + 0.5
    with pytest.raises(InputError):
        estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, 5), perm=perm, sign="plus"))


def test_provided_and_exhaustive_plans_report_no_iterations():
    from cdpa import PermutationPlan

    plan = PermutationPlan.from_json("[1, 0]")
    assert (plan.iterations, plan.converged) == (0, True)
    rng = np.random.default_rng(34)
    q = random_orthonormal(rng, 6, 2)
    best = exhaustive_match(q, q.copy())
    assert (best.iterations, best.converged) == (0, True)


def test_match_objective_rejects_non_integer_permutation():
    from cdpa import InputError

    rng = np.random.default_rng(35)
    q1, q2 = random_orthonormal(rng, 6, 2), random_orthonormal(rng, 6, 2)
    with pytest.raises(InputError):
        match_objective(q1, q2, [0.9, 1.2, 2.7, 3.5, 4.1, 5.9])
    with pytest.raises(InputError):
        match_objective(q1, q2, [0, 1, 2])
