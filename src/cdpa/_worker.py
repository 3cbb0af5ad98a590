"""One pool of worker threads for independent items of work.

``map_shared(run, items)`` computes ``[run(item) for item in items]`` on
the calling thread and on the package's worker threads, one for each CPU
the process may run on besides the caller's (``os.sched_getaffinity``,
else ``os.cpu_count``), started on first use and kept for all callers.
With one CPU there is no worker and the caller runs every item.  It
serves DSPFP's starts, each dataset's rank selection and denoising, the
two groups of files ``cdpa decompose`` writes, bootstrap replicates and
the cells of ``cdpa simulate``.  Results come back in item order, so a
result that depends on its item alone is the same bits however the
items were shared out.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque


class _Items:
    """The items of one ``map_shared`` call: the caller takes them from the
    front and the workers from the back, so each runs exactly once and an
    item no worker has begun, because all are busy, the caller runs."""

    def __init__(self, run, items):
        self._run = run
        self._items = items
        self._pending = deque(range(len(items)))
        self._busy = 0  # items the workers have begun and not finished
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
        """A worker's part: run items from the back until none is left."""
        while (i := self._take(worker=True)) is not None:
            self._do(i)
            with self._idle:
                self._busy -= 1
                self._idle.notify_all()

    def results(self) -> list:
        """The caller's part: run items from the front until none is left,
        wait for those the workers began, then return every result in item
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


# The workers are daemon threads fed by a queue, not an executor: an
# executor refuses work once the interpreter starts to exit, while a
# thread that outlives the main thread may still call the library.
_lock = threading.Lock()
_inbox = None  # made with the workers, on first use
_workers = 0


def _serve(inbox) -> None:
    while True:
        inbox.get().serve()


def _forget() -> None:
    """A forked child has no worker threads; it starts its own when needed."""
    global _lock, _inbox
    _lock, _inbox = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_shared(run, items) -> list:
    """``[run(item) for item in items]``, computed by the caller and the
    shared workers; a failed item's exception is raised once no item
    runs, the first in item order when several fail."""
    global _inbox, _workers
    shared = _Items(run, items)
    with _lock:
        if _inbox is None:
            _inbox, _workers = queue.SimpleQueue(), _cpus() - 1
            for _ in range(_workers):
                threading.Thread(target=_serve, args=(_inbox,), name="cdpa-worker", daemon=True).start()
        for _ in range(min(_workers, len(items) - 1)):  # the caller takes one item
            _inbox.put(shared)
    return shared.results()
