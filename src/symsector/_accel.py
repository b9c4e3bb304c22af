"""Optional numba acceleration with a transparent numpy fallback.

The environment variable ``SYMSECTOR_NUMBA`` controls jit usage: set it to
``0`` (or ``off``/``false``) to force the pure-numpy code paths even when
numba is importable.  Kernels are written twice, a scalar jit version and a
vectorized numpy version, and the dispatch layer picks one at import time.
The one fork rule and the one worker pool (can_fork, run_forked) live here
too, next to the CPU bound of every pool.
"""

import os

_flag = os.environ.get("SYMSECTOR_NUMBA", "1").strip().lower()
_WANT_NUMBA = _flag not in ("0", "off", "false", "no")

try:
    if not _WANT_NUMBA:
        raise ImportError("numba disabled by SYMSECTOR_NUMBA")
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag in tests
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):
        """No-op decorator standing in for numba.njit."""

        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


def using_numba():
    """Return True when jit-compiled kernels are active."""
    return HAVE_NUMBA


def available_cpus():
    """CPUs this process may run on, the bound of every worker pool."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork():
    """True when fork exists and this process is not itself a worker."""
    import multiprocessing

    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


def run_forked(fn, jobs, workers):
    """[fn(*job) for job in jobs] on `workers` forked processes.

    Jobs start in the order given.  A job whose worker died gets its
    BrokenProcessPool in place of its result.
    """
    import concurrent.futures
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except concurrent.futures.process.BrokenProcessPool as exc:
                results.append(exc)
    return results
