"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload grid-im0 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Each repetition runs in a fresh worker process (worker.py)
on the numpy backend, one at a time, so nothing a repetition caches
reaches the next one.  Repetitions start until the next one would end
after ``--seconds``; at least MIN_REPS run.

With ``--trace 0`` the metrics are the end-to-end ones: median wall
time after set-up, median set-up time (process start to ready, also
sampled by set-up-only workers) and median peak RSS.  With ``--trace 1``
traced and untraced repetitions alternate; the metrics are per layer,
timings are medians over the traced repetitions, counts must repeat
exactly between them, and ``trace.overhead_s`` is the traced minus the
untraced median wall time.

Every line but the last is for people.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib.util
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid-im0", "grid-z1", "verify-q", "library-scalar")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_SETUPS = 12
WORKER_TIMEOUT_S = 120.0
# One compute thread: on a small machine idle BLAS threads spinning next to
# the Python thread made verify-q 25% slower and its repetitions vary by 30%.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# per-layer values that must repeat exactly between repetitions of a seed
EXACT_UNITS = ("count", "bytes", "frac")


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def run_worker(env, tmp, args, trace, setup_only=False):
    """Start one worker and wait for it; returns its result dict.

    setup_s is measured here, from just before the process starts to
    the moment its READY line arrives.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise WorkerError("worker timed out during set-up")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S - setup_s)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s
    result["rep_s"] = time.perf_counter() - start
    return result


def measure(args, env, tmp):
    """Repetitions within the time budget, then set-up-only top-ups."""
    run_worker(env, tmp, args, False, setup_only=True)  # warm caches
    reps = []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(reps) % 2 == 0
        rep = run_worker(env, tmp, args, trace)
        rep["traced"] = trace
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + rep["rep_s"] > args.seconds:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(env, tmp, args, False, setup_only=True)["setup_s"])
    return reps, setups


def percentile(values, q):
    """Nearest-rank percentile q (0-100) of values."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def end_to_end(reps, setups):
    """(metrics, notes) for an untraced run."""
    wall = [rep["wall_s"] for rep in reps]
    metrics = {
        "wall_s": (statistics.median(wall), "s", len(wall)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(rep["rss_mb"] for rep in reps), "MB",
                        len(reps)),
    }
    notes = {}
    points = [ms for rep in reps for ms in rep.get("point_ms", [])]
    if points:
        notes["point_ms.p50"] = (percentile(points, 50), "ms", len(points))
        notes["point_ms.p95"] = (percentile(points, 95), "ms", len(points))
    return metrics, notes


def per_layer(reps):
    """(metrics, notes, counts_repeat) for a traced run.

    The metric names and units are the per_layer list of BENCHMARK.json.
    Timings are medians over the traced repetitions; values in
    EXACT_UNITS come from the first and must repeat in the others.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    traced = [rep["layers"] for rep in reps if rep["traced"]]
    t_wall = statistics.median(rep["wall_s"] for rep in reps if rep["traced"])
    u_wall = statistics.median(rep["wall_s"] for rep in reps if not rep["traced"])
    measured = {
        "setup.import_s": statistics.median(rep["import_s"] for rep in reps),
        "setup.table_s": statistics.median(rep["table_s"] for rep in reps),
        "trace.overhead_s": t_wall - u_wall,
    }
    metrics = {}
    repeat = True
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            metrics[name] = (measured[name], unit, len(reps))
        elif unit in EXACT_UNITS:
            repeat = repeat and all(r[name] == traced[0][name] for r in traced)
            metrics[name] = (traced[0][name], unit, len(traced))
        else:
            metrics[name] = (statistics.median(r[name] for r in traced), unit,
                             len(traced))
    notes = {"wall_s.traced": (t_wall, "s", len(traced)),
             "wall_s.untraced": (u_wall, "s", len(reps) - len(traced))}
    return metrics, notes, repeat


def environment(reps):
    def cache(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                 capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    return {
        "backend": reps[0]["backend"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "worker_processes": 1,
        "blas_threads": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "symsector" / "__init__.py").is_file():
        print(f"error: no symsector sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench-out"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SYMSECTOR_NUMBA="0",
               **BLAS_THREADS)
    try:
        reps, setups = measure(args, env, tmp)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = failed == 0
    if args.trace:
        metrics, notes, repeat = per_layer(reps)
        correct = correct and repeat
        if not repeat:
            print("counts differ between traced repetitions", file=sys.stderr)
    else:
        metrics, notes = end_to_end(reps, setups)
        notes["fail_frac"] = (failed / attempted, "frac", attempted)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, last check: {reps[-1]['detail']}")
    print("# env " + json.dumps(environment(reps), sort_keys=True))
    print("# wall_s of each repetition: " + " ".join(
        f"{rep['wall_s']:.4f}{'T' if rep['traced'] else ''}" for rep in reps))
    for name, (value, unit, n) in {**metrics, **notes}.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:52s} {shown} {unit:6s} n={n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
