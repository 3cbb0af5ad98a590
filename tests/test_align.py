import dataclasses
import json
import os
import sys
import threading
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cdpa.align
from cdpa import (
    CdpaConfig,
    InputError,
    NumericalError,
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
)
from cdpa._linalg import random_orthonormal
from cdpa.align import _all_permutations, _assign, _climb, _start_cores, _swap_gains

from helpers import CPUS, dense_match_problem, held_worker, needs_worker, pool_work, run_python


# ---------------------------------------------------------- build_match_problem


def test_match_problem_identical_bases():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 8, 3)
    prob = dense_match_problem(q, q.copy())
    np.testing.assert_allclose(prob.m1, prob.m2, atol=1e-12)
    np.testing.assert_allclose(prob.m1, prob.m1.T, atol=1e-12)
    np.testing.assert_allclose(prob.m1 @ prob.m1, prob.m1, atol=1e-8)
    np.testing.assert_allclose(np.trace(prob.m1), 3.0, atol=1e-10)
    # the library's problem keeps no p x p matrix
    q = random_orthonormal(rng, 2000, 3)
    big = build_match_problem(q, q.copy())
    assert all(np.size(getattr(big, f.name)) <= 2000 * 3 for f in dataclasses.fields(big))


def test_matchers_reject_mismatched_bases():
    rng = np.random.default_rng(36)
    q = random_orthonormal(rng, 5, 2)
    matchers = (
        build_match_problem,
        exhaustive_match,
        lambda a, b: match_objective(a, b, np.arange(b.shape[0])),
    )
    for other in (random_orthonormal(rng, 6, 2), random_orthonormal(rng, 5, 3)):
        for matcher in matchers:
            with pytest.raises(InputError, match="basis shapes differ"):
                matcher(q, other)


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


def _padded_basis(rng, p, r, zeros):
    """A p x r orthonormal basis with ``zeros`` zero rows at random places."""
    q = np.vstack([random_orthonormal(rng, p - zeros, r), np.zeros((zeros, r))])
    return q[rng.permutation(p)]


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 12),
    r=st.integers(1, 4),
    zeros1=st.integers(0, 11),
    zeros2=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_swap_gains_are_exact_objective_differences(p, r, zeros1, zeros2, seed):
    assume(r <= p)
    rng = np.random.default_rng(seed)
    q1 = _padded_basis(rng, p, r, min(zeros1, p - r))
    q2p = _padded_basis(rng, p, r, min(zeros2, p - r))
    gains = _swap_gains(q1, q2p)
    base = match_objective(q1, q2p, np.arange(p))
    for i, j in combinations(range(p), 2):
        swap = np.arange(p)
        swap[[i, j]] = [j, i]
        diff = match_objective(q1, q2p, swap) - base
        assert abs(gains[i, j] - diff) <= 1e-12
        assert abs(gains[j, i] - diff) <= 1e-12
        if not q1[[i, j]].any() or not q2p[[i, j]].any():
            assert gains[i, j] == 0.0 and gains[j, i] == 0.0


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


def test_import_loads_the_assignment_solver_only_when_dspfp_runs():
    # a fresh interpreter: this one has loaded scipy already
    code = f"""
import sys
import threading
import numpy as np
import cdpa, cdpa.cli
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert scipy() == [], scipy()
# no thread exists until the first call that shares work
assert threading.active_count() == 1, threading.enumerate()
# fits take their eigensolvers from numpy and the screen's critical value
# from the standard library: neither a fixed-rank nor an auto-rank fit
# loads scipy
y1, y2, _ = cdpa.generate_setup(cdpa.SimulationConfig(setup=1, theta_deg=30.0, p1=300, n=300, seed=5))
cdpa.estimate_cdpa(y1, y2, cdpa.CdpaConfig(ranks=cdpa.RankProfile(5, 5, 5), perm="identity"))
assert scipy() == [], scipy()
cdpa.estimate_cdpa(y1, y2)
assert scipy() == [], scipy()
# DSPFP loads the assignment solver
q = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 3)))[0]
cdpa.dspfp_match(cdpa.build_match_problem(q, q[::-1]))
assert "scipy.optimize" in sys.modules
# one worker for each CPU besides the caller's
assert threading.active_count() == {CPUS}, threading.enumerate()
"""
    run = run_python(code)
    assert run.returncode == 0, run.stderr


def test_dspfp_calls_the_solver_bound_on_the_module(monkeypatch):
    # rebind the module attribute, as a tracer that counts assignments does
    calls = []
    solver = cdpa.align.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solver(cost)

    rng = np.random.default_rng(34)
    q1 = random_orthonormal(rng, 30, 3)
    prob = build_match_problem(q1, q1[rng.permutation(30)])
    want = dspfp_match(prob)
    monkeypatch.setattr(cdpa.align, "linear_sum_assignment", counted)
    got = dspfp_match(prob)
    assert len(calls) >= got.iterations >= 3
    np.testing.assert_array_equal(got.perm, want.perm)
    assert (got.objective, got.iterations) == (want.objective, want.iterations)


def _serial_plan(prob, max_iter=120):
    """``dspfp_match``'s plan with every start run in order on this thread."""
    q1, q2a = prob.q1, prob.q2a
    best_perm = np.arange(prob.p)
    best_obj = match_objective(q1, q2a, best_perm)
    iterations, converged = 0, True
    for core in _start_cores(prob):
        perm, obj, steps, stopped = _climb(q1, q2a, core, max_iter)
        iterations += steps
        converged &= stopped
        if obj > best_obj + 1e-12:
            best_perm, best_obj = perm, obj
    return best_perm, best_obj, iterations, converged


@needs_worker
@pytest.mark.parametrize("p", [10, 100])
def test_dspfp_plan_does_not_depend_on_scheduling(monkeypatch, p):
    rng = np.random.default_rng(37)
    q1, q2 = random_orthonormal(rng, p, 4), random_orthonormal(rng, p, 4)
    prob = build_match_problem(q1, q2)
    want = _serial_plan(prob)
    dspfp_match(prob)  # the workers exist from here on
    caller = threading.current_thread()
    solver = cdpa.align.linear_sum_assignment
    threads, worker_joined = [], threading.Event()
    wait_for_worker = False

    def recording(cost):
        me = threading.current_thread()
        threads.append(me)
        if me is not caller:
            worker_joined.set()
        elif wait_for_worker:
            assert worker_joined.wait(30)  # a worker takes a start of its own
        return solver(cost)

    monkeypatch.setattr(cdpa.align, "linear_sum_assignment", recording)
    with held_worker():
        busy = dspfp_match(prob)
    assert set(threads) == {caller}  # busy workers hold nobody up
    threads.clear()
    wait_for_worker = True
    free = dspfp_match(prob)
    assert caller in threads and 2 <= len(set(threads)) <= CPUS
    for plan in (busy, free):
        np.testing.assert_array_equal(plan.perm, want[0])
        assert (plan.objective, plan.iterations, plan.converged) == want[1:]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_dspfp_raises_a_failed_start_once_no_start_runs(monkeypatch, failing):
    rng = np.random.default_rng(38)
    prob = build_match_problem(random_orthonormal(rng, 60, 3), random_orthonormal(rng, 60, 3))
    want = dspfp_match(prob)
    cores = _start_cores(prob)
    climb, solver = cdpa.align._climb, cdpa.align.linear_sum_assignment
    current, lock, running, entered = threading.local(), threading.Lock(), [0], []

    def tracked_climb(q1, q2a, core, max_iter):
        current.start = next(i for i, c in enumerate(cores) if np.array_equal(c, core))
        with lock:
            running[0] += 1
            entered.append(current.start)
        try:
            return climb(q1, q2a, core, max_iter)
        finally:
            with lock:
                running[0] -= 1

    def failing_solver(cost):
        if current.start == failing:
            raise ValueError("cost matrix is infeasible")
        time.sleep(0.002)  # the other starts are still running when it fails
        return solver(cost)

    monkeypatch.setattr(cdpa.align, "_climb", tracked_climb)
    monkeypatch.setattr(cdpa.align, "linear_sum_assignment", failing_solver)
    with pytest.raises(NumericalError, match="linear assignment failed"):
        dspfp_match(prob)
    assert running[0] == 0 and sorted(entered) == [0, 1, 2]
    monkeypatch.undo()
    again = dspfp_match(prob)  # the worker survives a failed start
    np.testing.assert_array_equal(again.perm, want.perm)
    assert again.iterations == want.iterations


def test_concurrent_callers_share_the_worker():
    # more callers than cores, switching threads often: every call gives
    # the plan of a serial run
    rng = np.random.default_rng(40)
    probs = [build_match_problem(random_orthonormal(rng, 40, 3), random_orthonormal(rng, 40, 3)) for _ in range(6)]
    want = [_serial_plan(prob) for prob in probs]
    plans = [[] for _ in probs]

    def call(k):
        for _ in range(3):
            plans[k].append(dspfp_match(probs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(probs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, (perm, obj, iterations, converged) in zip(plans, want):
        assert len(got) == 3
        for plan in got:
            np.testing.assert_array_equal(plan.perm, perm)
            assert (plan.objective, plan.iterations, plan.converged) == (obj, iterations, converged)


def _degenerate_scores():
    rng = np.random.default_rng(39)
    for p in range(1, 8):
        yield np.zeros((p, p))
        tied = np.repeat(rng.standard_normal((p + 1) // 2), 2)[:p]  # rows tied in pairs
        yield np.outer(tied, rng.standard_normal(p))
        yield np.outer(np.ones(p), rng.standard_normal(p))  # every row tied
        yield rng.standard_normal((p, p))
    for p in (1, 2):
        yield np.full((p, p), 3.5)
        yield -rng.standard_normal((p, p)) * 1e6


def test_assign_is_optimal_on_degenerate_scores():
    for score in _degenerate_scores():
        p = score.shape[0]
        perm = _assign(score)
        np.testing.assert_array_equal(np.sort(perm), np.arange(p))
        totals = score[np.arange(p), _all_permutations(p)].sum(axis=1)
        got = score[np.arange(p), perm].sum()
        assert got >= totals.max() - 1e-12 * max(1.0, np.abs(score).max()) * p


def test_dspfp_runs_in_a_thread_that_outlives_the_main_thread():
    # the interpreter has begun to exit when the late call runs
    code = """
import threading, time
import numpy as np
import cdpa
q = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 3)))[0]
prob = cdpa.build_match_problem(q, q[np.random.default_rng(1).permutation(30)])
want = cdpa.dspfp_match(prob)

def late():
    time.sleep(0.5)
    plan = cdpa.dspfp_match(prob)
    print("same plan" if np.array_equal(plan.perm, want.perm) else "other plan")

threading.Thread(target=late).start()
"""
    run = run_python(code)
    assert run.returncode == 0 and run.stdout == "same plan\n", run.stderr


def test_one_worker_thread_serves_rank_selection_and_dspfp():
    # importing starts no thread; an auto-rank fit and then a fit that
    # aligns by DSPFP share one pool, a worker thread for each CPU besides
    # the caller's
    code = f"""
import threading
import cdpa
assert threading.active_count() == 1, threading.enumerate()
y1, y2, _ = cdpa.generate_setup(cdpa.SimulationConfig(setup=1, theta_deg=15.0, p1=60, n=100, seed=1))
fit = cdpa.estimate_cdpa(y1, y2)
assert fit.ranks.r12 >= 1, fit.ranks
cdpa.estimate_cdpa(y1, y2, cdpa.CdpaConfig(ranks=fit.ranks, perm="dspfp"))
others = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
assert others == ["cdpa-worker"] * ({CPUS} - 1), others
"""
    run = run_python(code)
    assert run.returncode == 0, run.stderr


def test_dspfp_in_a_forked_child_starts_its_own_worker():
    # the child inherits the parent's module state but not its threads
    code = f"""
import os, sys, threading, warnings
import numpy as np
import cdpa
warnings.simplefilter("ignore", DeprecationWarning)  # forking with a live worker
q = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 3)))[0]
prob = cdpa.build_match_problem(q, q[np.random.default_rng(1).permutation(30)])
want = cdpa.dspfp_match(prob)
pid = os.fork()
if pid == 0:
    plan = cdpa.dspfp_match(prob)
    ok = np.array_equal(plan.perm, want.perm) and threading.active_count() == {CPUS}
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    run = run_python(code)
    assert run.returncode == 0, run.stderr


def test_one_cpu_runs_every_item_on_the_caller():
    # on one CPU there is no worker: the same work starts no thread and
    # gives the ranks, plan and interval of this process, bit for bit
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    code = """
import json, os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def refuse(thread):
    raise AssertionError(f"thread {thread.name} started")

threading.Thread.start = refuse
from helpers import pool_work
got = pool_work()
assert threading.active_count() == 1, threading.enumerate()
print(json.dumps(got))
"""
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == json.loads(json.dumps(pool_work()))


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


def test_choose_sign_tie_goes_positive():
    choice = choose_sign(0.4, 0.4)
    assert choice.sign == 1


def test_choose_sign_prefers_larger_trace():
    choice = choose_sign(0.1, 0.5)
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
