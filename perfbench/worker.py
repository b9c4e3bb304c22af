"""One repetition of a perfbench workload in a fresh process.

Started by run.py with ``src`` on PYTHONPATH.  The worker imports
symsector and builds the model table, prints ``READY`` (the parent
times set-up from process start to that line), runs the workload once,
checks its outputs and prints one JSON line with the results.

    python3 perfbench/worker.py --workload grid-im0 --seed 0 --trace 0 \
        --tmp .perfbench-out
"""

import argparse
import json
import resource
import sys
import tempfile
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True,
                        help="directory for output files and spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import symsector.cli  # noqa: F401  the CLI entry point imports this
    t1 = time.perf_counter()
    symsector.SteinParams().table
    t2 = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    out = {
        "import_s": t1 - t0,
        "table_s": t2 - t1,
        "backend": "numba" if symsector._accel.using_numba() else "numpy",
        "numpy": workloads.np.__version__,
    }
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        if args.workload == "library-scalar":
            points = workloads.scalar_points(args.seed)
            start = time.perf_counter()
            results, latency = workloads.run_points(points, tracer)
            out["wall_s"] = time.perf_counter() - start
            out["rss_mb"] = _peak_rss_mb()
            out["point_ms"] = [1e3 * t for t in latency]
            checked = workloads.check_points(args.seed, results)
        else:
            path = f"{tmp}/out"
            argv = workloads.cli_args(args.workload, args.seed) + ["--out", path]
            start = time.perf_counter()
            code, grid = workloads.run_cli(argv, tracer)
            out["wall_s"] = time.perf_counter() - start
            out["rss_mb"] = _peak_rss_mb()
            if args.workload == "verify-q":
                checked = workloads.check_verify(code, path)
            else:
                checked = workloads.check_grid(args.workload, args.seed, code,
                                               grid, path)
    out["attempted"], out["failed"], out["detail"] = checked
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(f"{args.tmp}/spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out), flush=True)
    return 0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
