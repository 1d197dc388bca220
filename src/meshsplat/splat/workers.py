"""One image's tiles on every CPU this process may use.

``split`` runs a tile function over the tiles of one image in this
process and in one persistent worker process per CPU beyond the first
(``spare_cpus``). Processes, not threads: numpy runs a multi-dimensional
``ufunc.accumulate`` (the compositor's transmittance product) without
releasing the GIL, so two threads over tiles ran at 0.86-1.02x of one
where the 1-D form reaches 1.75-1.87x.

The inputs a tile reads and the output image sit in one anonymous shared
mapping, made before the workers are forked, so a request is only the
function, the arrays' offsets and a few constants, sent down a pipe. All
processes claim whole tiles from a counter at the head of the mapping,
under one lock, and run the same function on the same inputs, so the
image is the serial loop's bit for bit whichever process ran a tile.

The caller calls ``ready`` before it builds a call's inputs, so that a
fork shares only what the process held before the call. ``ready`` forks
on the first call, and again after a call outgrew the mapping: such a
call runs in this process, and the next mapping is twice its size. Past
the first 16 MiB a call's pages are released when it ends, so a large
call costs no resident memory between calls.

A worker exits when its request pipe closes, which happens however this
process ends, and at once when its parent dies (``PR_SET_PDEATHSIG`` on
Linux); ``stop`` ends them at exit. A worker holds /dev/null as its
standard streams and closes every other descriptor it inherits, so a
pipe that reads this process's output sees its end when this process
exits. If a worker dies, the call runs the tiles no process finished
itself, and the next call forks again.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import math
import mmap
import multiprocessing
import os
import pickle
import select
import signal
import struct
import threading

import numpy as np

_ALIGN = 64           # bytes; every array in the mapping starts on a cache line
_MIN_BYTES = 1 << 24  # the mapping's floor, whose pages a call leaves resident
_WAIT_S = 0.1         # a claim that waits this long checks its peers are alive


def spare_cpus() -> int:
    """CPUs this process may use beyond the first: one worker each."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) - 1


class _Pool:
    """The shared mapping, its claim lock and the workers forked after it,
    each [pid, request pipe, reply pipe]; the pid is None once reaped."""

    def __init__(self, size: int, n_workers: int):
        self.owner = os.getpid()
        self.size = size
        self.mem = mmap.mmap(-1, size)  # anonymous and shared
        self.counter = memoryview(self.mem)[:8].cast("q")
        self.lock = multiprocessing.get_context("fork").Lock()
        self.workers = []
        try:
            for _ in range(n_workers):
                self.workers.append(self._fork())
        except OSError:
            self.stop()
            raise

    def _fork(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                _serve(self, req_r, rep_w)
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        return [pid, req_w, rep_r]

    def stop(self):
        """End and reap the workers; a forked copy of the owner only closes
        its copies of their pipes."""
        workers, self.workers = self.workers, []
        for pid, req, rep in workers:
            os.close(req)
            os.close(rep)
            if pid is not None and self.owner == os.getpid():
                with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)

    def alive(self) -> bool:
        """Whether every worker is still running; reaps those that are not."""
        for worker in self.workers:
            try:
                if worker[0] is not None and os.waitpid(worker[0], os.WNOHANG)[0]:
                    worker[0] = None
            except ChildProcessError:  # reaped elsewhere
                worker[0] = None
        return all(pid is not None for pid, _, _ in self.workers)

    def reply(self, rep) -> bool:
        """Wait for one worker's reply: False if any worker died first."""
        ready = select.poll()
        ready.register(rep, select.POLLIN)
        while not ready.poll(_WAIT_S * 1e3):
            if not self.alive():
                return False
        return os.read(rep, 1) == b"\0"


_pool: _Pool | None = None
_wanted = 0               # bytes the next mapping needs: twice the last call that outgrew one
_busy = threading.Lock()  # one call at a time uses the mapping


def stop() -> None:
    """End this process's workers; the next call forks new ones."""
    global _pool
    if _pool is not None:
        _pool.stop()
        _pool = None


atexit.register(stop)


def _layout(n_tiles, inputs, out_shape):
    """(offset, dtype, shape) of the done flags, each input and the output
    in the mapping, after the claim counter; and the bytes they span."""
    entries, at = [], _ALIGN
    for dtype, shape in ((np.dtype(np.uint8), (n_tiles,)), *((a.dtype, a.shape) for a in inputs),
                         (np.dtype(np.float64), out_shape)):
        entries.append((at, dtype.str, shape))
        at += -(-dtype.itemsize * math.prod(shape) // _ALIGN) * _ALIGN
    return entries, at


def _views(mem, layout):
    return [np.frombuffer(mem, dtype, math.prod(shape), offset).reshape(shape)
            for offset, dtype, shape in layout]


def _claim_tiles(pool, fn, done, inputs, out, consts, peers_alive) -> bool:
    """Claim and run tiles until none is left (True) or a claim finds a
    peer dead while it waits for the lock (False)."""
    lock, counter = pool.lock, pool.counter
    while True:
        while not lock.acquire(timeout=_WAIT_S):
            if not peers_alive():
                return False
        k = counter[0]
        counter[0] = k + 1
        lock.release()
        if k >= done.size:
            return True
        fn(out, k, *inputs, *consts)
        done[k] = 1


def _read(fd, n):
    """Exactly ``n`` bytes from ``fd``, or None at its end."""
    data = b""
    while len(data) < n:
        part = os.read(fd, n - len(data))
        if not part:
            return None
        data += part
    return data


def _serve(pool, req, rep):
    """A worker's life: run each request's share of tiles, reply, and
    return when the request pipe ends."""
    parent = pool.owner
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # not Linux: the pipe's end still stops it
        pass
    if os.getppid() != parent:  # the parent died before prctl took effect
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    lo, hi = sorted((req, rep))
    for first, last in ((3, lo), (lo + 1, hi), (hi + 1, os.sysconf("SC_OPEN_MAX"))):
        os.closerange(first, last)
    gc.disable()  # a collection would touch, and copy, every inherited page
    while (head := _read(req, 4)) is not None:
        fn, layout, consts = pickle.loads(_read(req, struct.unpack("I", head)[0]))
        done, *inputs, out = _views(pool.mem, layout)
        _claim_tiles(pool, fn, done, inputs, out, consts, lambda: os.getppid() == parent)
        del done, inputs, out
        os.write(rep, b"\0")


def ready() -> None:
    """Fork the workers if none run for this CPU count, or if the last
    call outgrew their mapping. Called before the caller builds a call's
    inputs: a fork shares the parent's memory of that moment, and the
    pages the parent frees later stay with the worker."""
    global _pool
    n_workers = spare_cpus()
    if n_workers < 1 or not _busy.acquire(blocking=False):
        return
    try:
        pool = _pool
        if (pool is None or pool.owner != os.getpid() or len(pool.workers) != n_workers
                or pool.size < _wanted):
            stop()
            _pool = _Pool(max(_wanted, _MIN_BYTES), n_workers)
    except OSError:  # no process could be forked: calls run in this process
        pass
    finally:
        _busy.release()


def split(fn, n_tiles, inputs, out_shape, consts, out_dtype):
    """``fn(out, k, *inputs, *consts)`` for each tile k < ``n_tiles``, which
    writes tile k's block of the float64 image ``out`` [``out_shape``],
    zero elsewhere; returns ``out`` as ``out_dtype``. Tiles are claimed in
    index order across this process and the workers ``ready`` forked.
    Each entry of the list ``inputs`` is set to None once its array is in
    the mapping, so an array the caller holds nowhere else is freed there.
    Returns None, having run nothing and left ``inputs`` as it was, when
    no worker runs for this CPU count, another thread is inside a call,
    or the call does not fit the mapping (then the next ``ready`` forks
    again at twice its size)."""
    global _wanted
    pool = _pool
    if (pool is None or pool.owner != os.getpid() or len(pool.workers) != spare_cpus()
            or not _busy.acquire(blocking=False)):
        return None
    try:
        layout, size = _layout(n_tiles, inputs, out_shape)
        if size > pool.size:
            _wanted = 2 * size
            return None
        done, *views, out = _views(pool.mem, layout)
        for i, view in enumerate(views):
            view[...] = inputs[i]
            inputs[i] = None
        out[...] = 0.0
        done[:] = 0
        pool.counter[0] = 0
        msg = pickle.dumps((fn, layout, consts))
        msg = struct.pack("I", len(msg)) + msg
        try:  # one write of under PIPE_BUF bytes is whole or fails
            sent = all(os.write(req, msg) == len(msg) for _, req, _ in pool.workers)
        except OSError:  # a worker died since the last call
            sent = False
        ok = (_claim_tiles(pool, fn, done, views, out, consts, pool.alive) and sent
              and all(pool.reply(rep) for _, _, rep in pool.workers))
        if not ok:  # finish what a dead worker left; the next call forks again
            stop()
            for k in np.flatnonzero(done == 0):
                fn(out, k, *views, *consts)
        image = out.astype(out_dtype)
        del done, views, out
        if size > _MIN_BYTES and hasattr(mmap, "MADV_REMOVE"):  # Linux
            pool.mem.madvise(mmap.MADV_REMOVE, _MIN_BYTES, size - _MIN_BYTES)
        return image
    except BaseException:
        stop()  # a worker may still be writing into the mapping
        raise
    finally:
        _busy.release()
