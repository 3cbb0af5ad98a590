"""One shared worker thread for independent items of work.

``map_shared(run, items)`` computes ``[run(item) for item in items]`` on
the calling thread and on one worker thread, started on first use and
kept for all callers, whatever ``--threads`` is.  It serves DSPFP's
starts, each dataset's rank selection and denoising, and the two groups
of files ``cdpa decompose`` writes.  Results come back in item order, so
a result that depends on its item alone is the same bits however the
items were shared out.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque


class _Items:
    """The items of one ``map_shared`` call: the caller takes them from the
    front and the worker from the back, so each runs exactly once and an
    item the worker has not begun, because it is busy, the caller runs."""

    def __init__(self, run, items):
        self._run = run
        self._items = items
        self._pending = deque(range(len(items)))
        self._busy = 0  # items the worker has begun and not finished
        self._idle = threading.Condition()
        self._outcomes = [None] * len(items)

    def _take(self, worker: bool):
        with self._idle:
            if not self._pending:
                return None
            self._busy += worker
            return self._pending.pop() if worker else self._pending.popleft()

    def _do(self, i: int) -> None:
        try:
            self._outcomes[i] = self._run(self._items[i]), None
        except Exception as exc:
            self._outcomes[i] = None, exc

    def serve(self) -> None:
        """The worker's part: run items from the back until none is left."""
        while (i := self._take(worker=True)) is not None:
            self._do(i)
            with self._idle:
                self._busy -= 1
                self._idle.notify_all()

    def results(self) -> list:
        """The caller's part: run items from the front until none is left,
        wait for those the worker began, then return every result in item
        order, or raise the first failed item's exception."""
        try:
            while (i := self._take(worker=False)) is not None:
                self._do(i)
        finally:
            with self._idle:
                self._pending.clear()
                self._idle.wait_for(lambda: not self._busy)
        for result, exc in self._outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in self._outcomes]


# The worker is a daemon thread fed by a queue, not an executor: an
# executor refuses work once the interpreter starts to exit, while a
# thread that outlives the main thread may still call the library.
_lock = threading.Lock()
_inbox = None  # made with the worker, on first use


def _serve(inbox) -> None:
    while True:
        inbox.get().serve()


def _forget() -> None:
    """A forked child has no worker thread; it starts its own when needed."""
    global _lock, _inbox
    _lock, _inbox = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def map_shared(run, items) -> list:
    """``[run(item) for item in items]``, computed by the caller and the
    shared worker thread; a failed item's exception is raised once no
    item runs, the first in item order when several fail."""
    global _inbox
    shared = _Items(run, items)
    with _lock:
        if _inbox is None:
            _inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_inbox,), name="cdpa-worker", daemon=True).start()
        _inbox.put(shared)
    return shared.results()
