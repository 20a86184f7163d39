"""Runs the independent blocks of one call on every CPU the process may use.

:func:`run_split` takes a call's block list as ``range(n_items)`` and
splits it into contiguous chunks, one per CPU in the process's affinity
mask (:func:`cpu_count`) and never more than one per block. The calling
thread runs the first chunk; one helper thread per other CPU runs the
rest, and the caller waits for all of them before it returns. A block
must write only its own part of the output, so that the bytes do not
depend on how many chunks ran. The numpy calls that make up a block
release the interpreter lock, so the chunks overlap.

- Scratch: ``scratch()`` is called in the calling thread once per chunk,
  so every chunk gets its own buffers and the helpers allocate almost
  nothing.
- Inline: with one CPU, one block, or the dispatch lock held (another
  thread's split call, or a nested one from inside a chunk), ``fn`` runs
  the whole range in the calling thread.
- Errors: an exception raised in any chunk reaches the caller after every
  chunk has ended, so no helper still writes into the output.
- References: a helper drops its chunk's closure and scratch before it
  signals that it is done, so a split call holds nothing once it returns.
- Fork: the child of a fork starts with no helpers and a free dispatch
  lock; its first split call starts its own helpers.

Helpers are daemon threads, started by the first call that needs them and
kept for later calls. Each waits on a "go" lock and releases a "done" lock.
"""

import _thread
import functools
import os
import threading


def cpu_count():
    """The number of CPUs in the process's affinity mask."""
    return len(os.sched_getaffinity(0))


class _Helper:
    """A daemon thread that runs one chunk per release of ``go`` and
    releases ``done`` when the chunk has ended."""

    def __init__(self):
        self.go, self.done = _thread.allocate_lock(), _thread.allocate_lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.error = None
        threading.Thread(target=self._serve, name="bisrnet-split", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            try:
                self.job()
            except BaseException as e:  # re-raised in the caller by wait()
                self.error = e
            self.job = None
            self.done.release()

    def start(self, job):
        self.job = job
        self.go.release()

    def wait(self):
        """Waits for the chunk to end; returns its exception or None."""
        self.done.acquire()
        error, self.error = self.error, None
        return error


_dispatch = _thread.allocate_lock()
_helpers = []


def _forget_helpers():
    global _dispatch
    _dispatch = _thread.allocate_lock()
    _helpers.clear()


os.register_at_fork(after_in_child=_forget_helpers)


def run_split(fn, n_items, scratch):
    """Runs ``fn(lo, hi, scratch())`` over contiguous chunks [lo, hi) that
    cover range(n_items), one chunk per CPU, the first in the calling
    thread. Returns when every chunk has ended; if chunks raised, raises
    the exception of the first of them in block order."""
    n = min(n_items, cpu_count()) if n_items > 1 else 1
    if n < 2 or not _dispatch.acquire(blocking=False):
        fn(0, n_items, scratch())
        return
    try:
        bounds = [i * n_items // n for i in range(n + 1)]
        jobs = [functools.partial(fn, lo, hi, scratch()) for lo, hi in zip(bounds, bounds[1:])]
        while len(_helpers) < n - 1:
            _helpers.append(_Helper())
        helpers = _helpers[: n - 1]
        for helper, job in zip(helpers, jobs[1:]):
            helper.start(job)
        try:
            jobs[0]()
        finally:
            errors = [helper.wait() for helper in helpers]
        for error in errors:
            if error is not None:
                raise error
    finally:
        _dispatch.release()
