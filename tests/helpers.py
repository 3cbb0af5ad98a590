"""Shared test utilities: exact-moment constructions, tied-block rotations,
kernel recording and control of the shared worker thread."""

import contextlib
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from cdpa import (
    CanonicalSystem,
    ChannelSubspacePair,
    ObservedMatrix,
    build_match_problem,
    soft_threshold_denoise,
)
import cdpa._worker
import cdpa.denoise
from cdpa._linalg import random_orthonormal


def exact_scores(rng, n, rho):
    """Score matrices with exact sample moments and cross-correlation rho."""
    rho = np.asarray(rho, dtype=float)
    r = rho.shape[0]
    assert n >= 2 * r
    basis = random_orthonormal(rng, n, 2 * r) * np.sqrt(n)
    g1 = basis[:, :r].T
    g2 = basis[:, r:].T
    z1 = g1
    z2 = rho[:, None] * g1 + np.sqrt(1.0 - rho**2)[:, None] * g2
    return z1, z2


def exact_signal_pair(rng, p1, p2, lam, rho, n, planted_channel_cos=None):
    """Two exactly low-rank signal matrices with planted sample correlations.

    The factor matrices are drawn so that the leading channel blocks have
    the planted subspace cosines (``rho`` by default), mirroring the
    benchmark construction but with arbitrary sizes.
    """
    lam = np.asarray(lam, dtype=float)
    r = lam.shape[0]
    rho = np.asarray(rho, dtype=float)
    cosb = rho if planted_channel_cos is None else np.asarray(planted_channel_cos)
    pmax, pmin = max(p1, p2), min(p1, p2)
    q_small = random_orthonormal(rng, pmin, r)
    q_small_pad = np.vstack([q_small, np.zeros((pmax - pmin, r))])
    g = rng.standard_normal((pmax, r))
    g -= q_small_pad @ (q_small_pad.T @ g)
    w, _ = np.linalg.qr(g)
    q_big = q_small_pad * cosb + w * np.sqrt(1.0 - cosb**2)
    if p1 <= p2:
        v1, v2 = q_small, q_big
    else:
        v1, v2 = q_big, q_small
    z1, z2 = exact_scores(rng, n, rho)
    x1 = v1 @ (np.sqrt(lam)[:, None] * z1)
    x2 = v2 @ (np.sqrt(lam)[:, None] * z2)
    return x1, x2, dict(v1=v1, v2=v2, z1=z1, z2=z2, lam=lam, rho=rho)


def estimates_from(x1, x2, r1, r2):
    """Signal estimates from exactly low-rank matrices."""
    e1 = soft_threshold_denoise(ObservedMatrix(np.asarray(x1)), r1)
    e2 = soft_threshold_denoise(ObservedMatrix(np.asarray(x2)), r2)
    return e1, e2


def block_rotation(rng, size, start, stop):
    """Orthogonal matrix equal to the identity outside [start, stop)."""
    g = np.eye(size)
    width = stop - start
    q, _ = np.linalg.qr(rng.standard_normal((width, width)))
    g[start:stop, start:stop] = q
    return g


def rotate_system(system: CanonicalSystem, start: int, stop: int, rng):
    """Alternative canonical system with a rotated tied score block."""
    r1 = system.z1.shape[0]
    r2 = system.z2.shape[0]
    rot = block_rotation(rng, max(r1, r2), start, stop)
    g1 = rot[:r1, :r1]
    g2 = rot[:r2, :r2]
    return replace(system, z1=g1.T @ system.z1, z2=g2.T @ system.z2)


def rotate_pair(pair: ChannelSubspacePair, start: int, stop: int, rng):
    """Alternative principal vectors with a rotated tied cosine block."""
    r12 = pair.cosines.shape[0]
    g = block_rotation(rng, r12, start, stop)
    return replace(pair, v_b1=pair.v_b1 @ g, v_b2=pair.v_b2 @ g)


def dense_match_problem(q1, q2a):
    """The dense matrices of the objective chain, which the library never keeps.

    ``m1`` and ``m2`` are the basis projectors, ``shift`` their joint
    minimum entry, ``m*_plus`` the projectors shifted by it to
    nonnegativity, and ``offdiag*`` their off-diagonal parts; the shifted
    diagonals come from ``build_match_problem``.
    """
    prob = build_match_problem(q1, q2a)
    m1 = q1 @ q1.T
    m2 = q2a @ q2a.T
    shift = float(min(m1.min(), m2.min()))
    m1_plus = m1 - shift
    m2_plus = m2 - shift
    return SimpleNamespace(
        m1=m1,
        m2=m2,
        m1_plus=m1_plus,
        m2_plus=m2_plus,
        offdiag1=m1_plus - np.diag(prob.diag1),
        offdiag2=m2_plus - np.diag(prob.diag2),
        diag1=prob.diag1,
        diag2=prob.diag2,
        shift=shift,
    )


def record_linalg(monkeypatch):
    """Record every matrix passed to a dense decomposition kernel.

    Returns ``{"svd": [...], "eigh": [...], "reduce": [...], "spectrum":
    [...], "top": [...], "iterate": [...], "gram": [...]}``: the shapes
    passed to ``np.linalg.svd``, to any dense symmetric eigensolver
    (``eigh`` or ``eigvalsh`` of numpy or scipy), and to the tridiagonal
    reduction (LAPACK ``dsytrd``); the ``(m, m)`` order of each
    values-only read of a whole reduced spectrum (``dsterf``); ``((m, m),
    k)`` for each read of only the top ``k`` eigenpairs of a reduced
    matrix (``dstein``) and for each top-``k`` filtered subspace iteration
    (``filtered_top``, recorded whether or not it certifies); and the
    shape of each Gram matrix that an ``ObservedMatrix`` forms.
    """
    shapes = {"svd": [], "eigh": [], "reduce": [], "spectrum": [], "top": [], "iterate": [], "gram": []}

    def order(d):
        return (np.size(d), np.size(d))

    kernels = [
        (np.linalg, "svd", lambda a, *_: ("svd", np.shape(a))),
        (np.linalg, "eigh", lambda a, *_: ("eigh", np.shape(a))),
        (np.linalg, "eigvalsh", lambda a, *_: ("eigh", np.shape(a))),
        (scipy.linalg, "eigh", lambda a, *_: ("eigh", np.shape(a))),
        (scipy.linalg, "eigvalsh", lambda a, *_: ("eigh", np.shape(a))),
        (scipy.linalg.lapack, "dsytrd", lambda a, *_: ("reduce", np.shape(a))),
        (scipy.linalg.lapack, "dsterf", lambda d, *_: ("spectrum", order(d))),
        (scipy.linalg.lapack, "dstein", lambda d, e, w, *_: ("top", (order(d), np.size(w)))),
        (cdpa.denoise, "filtered_top", lambda g, r: ("iterate", (np.shape(g), r))),
    ]
    for module, name, entry in kernels:
        original = getattr(module, name)

        def recording(*args, _original=original, _entry=entry, **kwargs):
            key, value = _entry(*args)
            shapes[key].append(value)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    form = ObservedMatrix.gram.fget

    def forming(y):
        formed = "gram" not in y._cache
        g, k = form(y)
        if formed:
            shapes["gram"].append(g.shape)
        return g, k

    monkeypatch.setattr(ObservedMatrix, "gram", property(forming))
    return shapes


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@contextlib.contextmanager
def held_worker():
    """The shared worker thread kept busy for the block, so that a caller
    of ``map_shared`` runs every item itself."""
    cdpa._worker.map_shared(lambda item: item, [0])  # the worker exists from here on
    holding, release = threading.Event(), threading.Event()

    class Held:
        def serve(self):
            holding.set()
            release.wait(60)

    cdpa._worker._inbox.put(Held())
    assert holding.wait(30)
    try:
        yield
    finally:
        release.set()


def serial_map(monkeypatch):
    """Run every ``map_shared`` call as a plain loop on the caller."""
    serial = lambda run, items: [run(item) for item in items]  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.startswith("cdpa.") and getattr(module, "map_shared", None) is cdpa._worker.map_shared:
            monkeypatch.setattr(module, "map_shared", serial)


def meet_the_worker(monkeypatch, module, name):
    """Wrap ``module.name`` so that a call on this thread waits until another
    thread has called it too: work shared through ``map_shared`` then runs
    on both threads.  Returns the set of threads that called it."""
    original, caller = getattr(module, name), threading.current_thread()
    joined, threads = threading.Event(), set()

    def meeting(*args, **kwargs):
        me = threading.current_thread()
        threads.add(me)
        if me is caller:
            assert joined.wait(30), f"no other thread called {name}"
        else:
            joined.set()
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, meeting)
    return threads
