"""Record the reference outputs that the perfbench checks compare with.

    PYTHONPATH=src SYMSECTOR_NUMBA=0 python3 perfbench/record.py [workload ...]

Writes perfbench/ref/<workload>.json with one entry per input variant.
Run it only at a commit whose outputs are trusted; it refuses to record
a grid with an ERROR cell or a scalar call that raised.  For verify-q
it records the suite names the report must list, all passing.
"""

import json
import sys
import tempfile
from pathlib import Path

from symsector import verify

import workloads

TMP = Path(__file__).resolve().parent.parent / ".perfbench-out"


def record_grid(workload, seed, tmp):
    args = workloads.cli_args(workload, seed)
    code, grid = workloads.run_cli(args + ["--out", f"{tmp}/out"])
    letters = workloads.label_letters(grid.labels)
    if code != 0 or (letters == ord("E")).any():
        raise SystemExit(f"{workload} variant {seed}: ERROR cells, not recorded")
    idx = workloads.ab_index(letters.size)
    return {
        "args": args,
        "labels": workloads.encode_labels(grid.labels),
        "a": [float(grid.a.flat[i]) for i in idx],
        "b": [float(grid.b.flat[i]) for i in idx],
    }


def record_points(seed):
    results, _ = workloads.run_points(workloads.scalar_points(seed))
    if any(isinstance(v, list) and v[0] == "raised" for row in results for v in row):
        raise SystemExit(f"library-scalar variant {seed}: a call raised, not recorded")
    return {"points": results}


def main(names):
    TMP.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        if workload == "verify-q":
            _write(workload, {"suites": list(verify.SUITE_NAMES)})
            continue
        variants = []
        with tempfile.TemporaryDirectory(dir=TMP) as tmp:
            for seed in range(workloads.VARIANTS):
                if workload == "library-scalar":
                    variants.append(record_points(seed))
                else:
                    variants.append(record_grid(workload, seed, tmp))
                print(f"{workload} variant {seed} recorded", flush=True)
        _write(workload, {"tolerance": workloads.TOLERANCE, "variants": variants})
    return 0


def _write(workload, data):
    with open(workloads.REF_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, **data}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
