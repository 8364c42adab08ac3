"""Run OpenBLAS's parallel jobs on threads that sleep between calls.

OpenBLAS splits a large call (a GEMM over many rows, say) into one job per
BLAS thread: job 0 runs on the calling thread, the others on OpenBLAS's own
workers. An idle OpenBLAS worker spins for about 0.13 s before it sleeps, so
a stage that makes a parallel call more often than that keeps every extra
core busy between calls; a sleeping worker instead pays a wake-up on each
call it serves (``BENCH_16.json``). ``jobs_on_pool`` installs a job runner
of its own through OpenBLAS's thread callback for the ``with`` block, and
removes it when the block exits or raises; without a callback setter in
numpy's BLAS (MKL, Accelerate, an older OpenBLAS) the block runs as it would
without it. OpenBLAS still splits the work and runs the same kernels on the
same parts, so every result keeps its bytes. How the runner keeps the
contract the ``trainer`` docstring states:

- All jobs at once. The jobs of one level-3 call wait on each other, so run
  one after another they would deadlock. The pool first grows to one worker
  per job beyond the first, hands each worker its job, runs job 0 on the
  caller and returns once every job is done. Workers block on a lock between
  calls and never spin. Calls from several threads are served one at a time.
- Placement. The scheduler may queue a woken worker on its waker's CPU, and
  then keeps waking it there, so the jobs of a call take turns on one CPU
  (seen on a 2-vCPU KVM guest: ``gemm_dispatch`` in ``BENCH_16.json``). A
  worker that wakes on its caller's CPU therefore moves itself off it: it
  narrows its own affinity to the process's other CPUs and at once widens
  it back, and stays where it lands. No thread is pinned.
- Fork. The pool belongs to a pid: a forked child starts workers of its own
  on its first parallel call.
- Interrupt. The runner never raises or returns early: ctypes would swallow
  the exception, and a lost job means garbage or a hang. While the block
  runs in the main thread, its SIGINT handler records a signal handled
  inside the runner instead of raising; every job is still waited for, and
  a helper thread sends the signal again once the runner has returned (it
  needs the GIL, which the runner holds until then). A SIGINT handled
  anywhere else goes to the handler the block found.
"""

from __future__ import annotations

import _thread
import contextlib
import ctypes
import functools
import os
import signal
import threading

# openblas_dojob_callback and openblas_threads_callback of OpenBLAS's cblas.h
_DOJOB = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_void_p, ctypes.c_int)
_RUNNER = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_void_p, ctypes.c_int,
                           ctypes.c_size_t, ctypes.c_void_p, ctypes.c_int)

# callback setters: the numpy wheel's scipy-openblas, then a plain OpenBLAS
_SETTERS = ("scipy_openblas_set_threads_callback_function64_",
            "openblas_set_threads_callback_function")


@functools.cache
def numpy_lib():
    """ctypes handle of numpy's own extension, or None; a symbol lookup
    through it also searches the libraries it links, which is where a
    wheel's OpenBLAS lives."""
    try:
        from numpy._core import _multiarray_umath
        return ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def _setter():
    lib = numpy_lib()
    if lib is None:
        return None
    for name in _SETTERS:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [ctypes.c_void_p], None
            return fn
    return None


try:
    _getcpu = ctypes.CDLL(None).sched_getcpu
    _getcpu.argtypes, _getcpu.restype = [], ctypes.c_int
except (OSError, AttributeError):
    def _getcpu() -> int:  # no placement check
        return -1


def _move_off(cpu: int) -> None:
    """Move the calling thread off ``cpu`` to another CPU it may run on,
    leaving its affinity as it was (module docstring)."""
    try:
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _start(target, *args) -> None:
    threading.Thread(target=target, args=args, daemon=True,
                     name=f"stageflow-blas-{target.__name__}").start()


class _Pool:
    """The job threads of one process: worker k runs job k of every call,
    and one more thread re-raises a deferred interrupt in the main thread."""

    def __init__(self):
        self.pid = os.getpid()
        self.busy = _thread.allocate_lock()    # one call at a time
        self.trip = _thread.allocate_lock()    # held while no interrupt is due
        self.trip.acquire()
        self.workers = []                      # a (go, done) lock pair each
        self.call = None          # (dojob, jobdata, elsize, data, caller's CPU)
        self.calls = 0            # calls served
        _start(self._interrupt)

    def grow(self, n: int) -> None:
        while len(self.workers) < n:
            go, done = _thread.allocate_lock(), _thread.allocate_lock()
            go.acquire()
            done.acquire()
            self.workers.append((go, done))
            _start(self._serve, len(self.workers), go, done)

    def _serve(self, k: int, go, done) -> None:
        while True:
            go.acquire()
            dojob, jobdata, elsize, data, cpu = self.call
            if cpu >= 0 and cpu == _getcpu():
                _move_off(cpu)
            dojob(k, jobdata + k * elsize, data)
            done.release()

    def _interrupt(self) -> None:
        # a real signal, as the deferred one was: it also cuts short a
        # sleep or a blocking wait the main thread has entered since
        while True:
            self.trip.acquire()
            if callable(signal.getsignal(signal.SIGINT)):
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


_pool: _Pool | None = None
_dojobs: dict = {}  # dojob address -> its ctypes function
_interrupted = False  # a SIGINT was handled inside _run


def _run(sync, dojob, numjobs, elsize, jobdata, data):
    """OpenBLAS's thread callback: run jobs 0..numjobs-1 of one call, job 0
    on this thread, and return once all are done (module docstring)."""
    global _pool, _interrupted
    if _pool is None or _pool.pid != os.getpid():
        _pool = _Pool()
    pool = _pool
    fn = _dojobs.get(dojob) or _dojobs.setdefault(dojob, _DOJOB(dojob))
    with pool.busy:
        pool.calls += 1
        pool.grow(numjobs - 1)
        pool.call = (fn, jobdata, elsize, data, _getcpu())
        workers = pool.workers[:numjobs - 1]
        for go, _ in workers:
            go.release()
        fn(0, jobdata, data)
        for _, done in workers:
            done.acquire()
    # the last thing the runner does: the trip thread needs the GIL, which
    # this thread holds until it returns
    if _interrupted:
        _interrupted = False
        if pool.trip.locked():
            pool.trip.release()


_RUN_CODE = _run.__code__
_RUNNER_FN = _RUNNER(_run)  # kept alive: OpenBLAS holds only its address
_RUNNER_ADDR = ctypes.cast(_RUNNER_FN, ctypes.c_void_p).value


def _deferring(prev):
    """A SIGINT handler that records a signal handled inside ``_run`` and
    hands any other to ``prev``."""
    def handler(signum, frame):
        global _interrupted
        f = frame
        while f is not None:
            if f.f_code is _RUN_CODE:
                _interrupted = True
                return
            f = f.f_back
        return prev(signum, frame)
    return handler


@contextlib.contextmanager
def jobs_on_pool():
    """Run the block's parallel OpenBLAS calls on the pool (module
    docstring)."""
    set_runner = _setter()
    if set_runner is None:
        yield
        return
    prev = signal.getsignal(signal.SIGINT)
    handler = None
    if threading.current_thread() is threading.main_thread() and callable(prev):
        handler = _deferring(prev)
        signal.signal(signal.SIGINT, handler)
    set_runner(_RUNNER_ADDR)
    try:
        yield
    finally:
        set_runner(None)
        if handler is not None and signal.getsignal(signal.SIGINT) is handler:
            signal.signal(signal.SIGINT, prev)
