"""The worker pools: their CPU bound, the one fork rule and one runner.

available_cpus bounds every pool, can_fork says where a pool may be
forked, and run_forked runs jobs on one.
"""

import os


def using_numba():
    """False: the kernels have one backend, plain Python and numpy.

    Kept only for perfbench, which reads it to label its records; it goes
    when perfbench stops reading it.
    """
    return False


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
    import concurrent.futures.process
    import multiprocessing

    broken = concurrent.futures.process.BrokenProcessPool
    with concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = []
        for job in jobs:
            try:
                futures.append(pool.submit(fn, *job))
            except broken as exc:  # a worker died before this job went in
                futures.append(concurrent.futures.Future())
                futures[-1].set_exception(exc)
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except broken as exc:
                results.append(exc)
    return results
