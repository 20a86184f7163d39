"""Runs the blocks of one pass on every CPU the process may use.

A pass over an (n, h, ...) array is cut into row blocks: a block is a run
of ``rows`` rows across all n images, [r0, r1) with r1 - r0 = rows except
at the end. The 1-bit passes cut their work that way: ``bitpack.bit_conv2d``,
``VanillaBinConv._sign_pack`` and ``BiSRConv._residual_rprelu``. Two float
passes number their blocks instead, one "row" per block: block b of
``tensor.conv2d_forward`` is one run of output rows of one image, and block
b of ``train.ssim`` is band b.

:func:`run_rows` owns the block loop. It splits the blocks into contiguous
chunks, one per CPU in the process's affinity mask (:func:`cpu_count`) and
never more than one per block, and calls ``body(r0, r1, *bufs)`` for each
block of a chunk. The calling thread runs the first chunk; one helper
thread per other CPU runs the rest, and the caller waits for all of them
before it returns. A block must write only its own rows of the output, so
that the bytes do not depend on how many chunks ran. The numpy calls that
make up a block (ufuncs, copies, GEMMs) release the interpreter lock, so
the chunks overlap. With one CPU in the mask (``taskset -c 0``) every pass
runs serially in the calling thread.

- Scratch: ``scratch()`` is called in the calling thread once per chunk
  and returns the chunk's buffers, so the helpers allocate almost nothing.
- Inline: with one CPU, one block, or the dispatch lock held (another
  thread's call, or a nested one from inside a block), every block runs
  in the calling thread.
- Errors: an exception raised in any chunk reaches the caller after every
  chunk has ended, so no helper still writes into the output.
- References: a helper drops its chunk's body and scratch before it
  signals that it is done, so a call holds nothing once it returns.
- Fork: the child of a fork starts with no helpers and a free dispatch
  lock; its first call starts its own helpers.

Helpers are daemon threads, started by the first call that needs them and
kept for later calls. Each waits on a "go" lock and releases a "done" lock.
This is the one module that imports ``threading`` or ``_thread``.
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


def _run_blocks(body, start, stop, rows, bufs):
    """Calls ``body(r0, r1, *bufs)`` for the blocks of ``rows`` rows that
    cover [start, stop), the last one shorter where rows does not divide."""
    for r0 in range(start, stop, rows):
        body(r0, min(r0 + rows, stop), *bufs)


def run_rows(body, h, rows, scratch):
    """Runs ``body(r0, r1, *bufs)`` over the blocks of ``rows`` rows that
    cover range(h), in contiguous chunks of blocks, one chunk per CPU, the
    first in the calling thread; ``bufs = scratch()`` is made once per
    chunk. Returns when every chunk has ended; if chunks raised, raises
    the exception of the first of them in block order."""
    n_blocks = -(-h // rows)
    n = min(n_blocks, cpu_count()) if n_blocks > 1 else 1
    if n < 2 or not _dispatch.acquire(blocking=False):
        _run_blocks(body, 0, h, rows, scratch())
        return
    try:
        bounds = [min(h, i * n_blocks // n * rows) for i in range(n + 1)]
        jobs = [functools.partial(_run_blocks, body, lo, hi, rows, scratch())
                for lo, hi in zip(bounds, bounds[1:])]
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
