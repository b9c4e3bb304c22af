"""Inputs, execution and output checks of the perfbench workloads.

Every input is derived from the seed.  ``seed % VARIANTS`` selects one
of the recorded input sets, so the output of every seed is checked
against a reference stored in ``perfbench/ref`` (written by
``record.py``).  The program sees only CLI arguments or the generated
points.

Workloads (see README.md for why each was chosen):

* ``grid-im0``: ``classify-grid --slice im:0`` with a seeded box, CSV out.
* ``grid-z1``: ``slice-plot --slice z1:<v>`` with a seeded v and box, SVG out.
* ``verify-q``: ``verify --sample-scale 0.1 --seed <variant>``, JSON out.
* ``library-scalar``: one caller in a closed loop over seeded points,
  making the four README quick-start calls per point.
"""

import base64
import json
import time
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np

import symsector
from symsector import cli, gridplot, sectors

from run import WORKLOADS

VARIANTS = 16
REF_DIR = Path(__file__).resolve().parent / "ref"

GRID_N = {"grid-im0": 201, "grid-z1": 151}
VERIFY_SCALE = "0.1"
SCALAR_POINTS = 60
# grid cells whose a and b are compared with the reference
AB_SAMPLES = 128
# recorded with the references: |x - ref| <= abs + rel * |ref| for every
# compared float; well above the 1e-8 agreement the offset reading certifies
TOLERANCE = {"abs": 1e-6, "rel": 1e-8}

_CODES = {
    sectors.U_MM: "m",
    sectors.H_MINUS: "-",
    sectors.U_MP: "x",
    sectors.H_PLUS: "+",
    sectors.U_PP: "p",
    sectors.UNRESOLVED: "?",
    gridplot.ERROR_LABEL: "E",
}
_FILL_LABEL = {fill: label for label, fill in gridplot.PALETTE.items()}


def _rng(workload, seed):
    return np.random.default_rng([WORKLOADS.index(workload), seed % VARIANTS])


def cli_args(workload, seed):
    """CLI arguments of a CLI workload, without the --out option."""
    rng = _rng(workload, seed)
    if workload == "grid-im0":
        box = round(float(rng.uniform(46.0, 50.0)), 3)
        return ["classify-grid", "--grid", str(GRID_N[workload]),
                "--slice", "im:0", "--box", repr(box)]
    if workload == "grid-z1":
        z1 = round(float(rng.uniform(-44.0, -36.0)), 3)
        box = round(float(rng.uniform(44.0, 52.0)), 3)
        return ["slice-plot", "--grid", str(GRID_N[workload]),
                "--slice", f"z1:{z1!r}", "--box", repr(box)]
    if workload == "verify-q":
        return ["verify", "--sample-scale", VERIFY_SCALE,
                "--seed", str(seed % VARIANTS)]
    raise ValueError(f"{workload} is not a CLI workload")


def scalar_points(seed):
    """Seeded point stream of the library-scalar workload."""
    rng = _rng("library-scalar", seed)
    x = rng.uniform(-64.0, 64.0, (SCALAR_POINTS, 2))
    y = rng.uniform(-8.0, 8.0, (SCALAR_POINTS, 2))
    return [
        symsector.SymPoint(complex(x1, y1), complex(x2, y2))
        for (x1, x2), (y1, y2) in zip(x, y)
    ]


def run_cli(argv, tracer=None):
    """Run one CLI command in-process; returns (exit code, GridResult).

    The grid writers are tapped to keep the classified grid for the
    output checks; the tap adds one Python call per writer call.
    """
    captured = []

    def tap(writer):
        def write(result, *args, **kwargs):
            captured.append(result)
            return writer(result, *args, **kwargs)

        return write

    csv_writer, svg_writer = gridplot.grid_csv, gridplot.grid_svg
    gridplot.grid_csv, gridplot.grid_svg = tap(csv_writer), tap(svg_writer)
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.root(cli.main, argv)
    finally:
        gridplot.grid_csv, gridplot.grid_svg = csv_writer, svg_writer
    return code, (captured[0] if captured else None)


def _point(p, params):
    """The four README quick-start calls on one point.

    Names are looked up on the package at call time so that traced
    wrappers see them.  A call that raises yields its exception.
    """
    row = []
    for call in (
        lambda: symsector.compute_c(0.5 * (p.z1 - p.z2), params),
        lambda: symsector.classify_closed_form(p, params),
        lambda: symsector.classify_by_flow(p, params),
        lambda: symsector.integrate_flow(p, params),
    ):
        try:
            row.append(call())
        except Exception as exc:  # a raising call is a counted failure
            row.append(exc)
    return row


def _json_value(k, value):
    if isinstance(value, Exception):
        return ["raised", type(value).__name__]
    if k == 0:
        return float(value)
    if k == 3:
        return [value.termination, float(value.times[-1])]
    return value


def run_points(points, tracer=None):
    """Closed loop, one caller: returns (results, per-point seconds).

    results[i][k] is the JSON-ready value of call k on point i, or
    ["raised", <exception type>] when the call raised.
    """
    params = symsector.SteinParams(alpha=1.5, epsilon=16.0, smoothing="pure")
    results = []
    latency = []
    for p in points:
        start = time.perf_counter()
        if tracer is None:
            row = _point(p, params)
        else:
            row = tracer.root(_point, p, params)
        latency.append(time.perf_counter() - start)
        results.append([_json_value(k, v) for k, v in enumerate(row)])
    return results, latency


def label_letters(labels):
    """One letter per cell of a label grid, row-major, as uint8 codes."""
    text = "".join(_CODES[str(lab)] for lab in np.asarray(labels).ravel())
    return np.frombuffer(text.encode("ascii"), "u1")


def encode_labels(labels):
    """Compact text form of a label grid for the reference files."""
    return base64.b64encode(zlib.compress(label_letters(labels).tobytes(), 9)).decode()


def decode_labels(blob):
    return np.frombuffer(zlib.decompress(base64.b64decode(blob)), "u1")


def ab_index(n_cells):
    """Fixed, evenly spread cells whose a and b values are recorded."""
    return np.linspace(0, n_cells - 1, AB_SAMPLES).round().astype(int)


def close(x, ref, tol):
    return abs(x - ref) <= tol["abs"] + tol["rel"] * abs(ref)


def load_ref(workload, seed):
    """(recorded variant of this seed, recorded tolerance)."""
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["variants"][seed % VARIANTS], data["tolerance"]


def check_grid(workload, seed, code, result, out_path):
    """(attempted, failed, detail); one operation per grid cell."""
    n = GRID_N[workload]
    attempted = n * n
    ref, tol = load_ref(workload, seed)
    if ref["args"] != cli_args(workload, seed):
        return attempted, attempted, "inputs differ from the recorded ones"
    if code != 0 or result is None:
        return attempted, attempted, f"exit code {code}"
    codes = label_letters(result.labels)
    want = decode_labels(ref["labels"])
    if codes.size != attempted or want.size != attempted:
        return attempted, attempted, "grid shape differs from the reference"
    bad = (codes != want) | (codes == ord("E"))
    for k, idx in enumerate(ab_index(attempted)):
        if not (close(result.a.flat[idx], ref["a"][k], tol)
                and close(result.b.flat[idx], ref["b"][k], tol)):
            bad[idx] = True
    written = (_csv_labels if workload == "grid-im0" else _svg_labels)(out_path, n)
    if written is None:
        return attempted, attempted, "output file is malformed"
    bad |= written != codes
    failed = int(bad.sum())
    return attempted, failed, f"{failed} of {attempted} cells differ"


def _csv_labels(path, n):
    """Label letters of a classify-grid CSV in row-major order."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n * n + 1 or lines[0] != gridplot.CSV_HEADER:
        return None
    out = np.zeros(n * n, "u1")
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 5 or fields[2] not in _CODES:
            return None
        out[k] = ord(_CODES[fields[2]])
    return out


def _svg_labels(path, n):
    """Label letters decoded from the run-length rects of a slice SVG."""
    grid = np.zeros((n, n), "u1")
    filled = np.zeros((n, n), bool)
    try:
        root = ET.parse(path).getroot()
        cell = float(root.get("width")) / n
        for rect in root.iter("{http://www.w3.org/2000/svg}rect"):
            label = _FILL_LABEL[rect.get("fill")]
            i = round(float(rect.get("x")) / cell)
            k = i + round(float(rect.get("width")) / cell)
            j = n - 1 - round(float(rect.get("y")) / cell)
            if not 0 <= i < k <= n or not 0 <= j < n:
                return None
            grid[i:k, j] = ord(_CODES[label])
            filled[i:k, j] = True
    except (ET.ParseError, KeyError, TypeError, ValueError):
        return None
    return grid.ravel() if filled.all() else None


def suite_names():
    """The suite names the verify report must list, as recorded."""
    with open(REF_DIR / "verify-q.json", encoding="utf-8") as fh:
        return json.load(fh)["suites"]


def check_verify(code, out_path):
    """(attempted, failed, detail); one operation per suite."""
    names = suite_names()
    try:
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        passed = {s["name"]: bool(s["passed"]) for s in report["suites"]}
    except (OSError, ValueError, KeyError, TypeError):
        return len(names), len(names), "report is missing or malformed"
    failed = sum(not passed.get(name, False) for name in names)
    if failed == 0 and (code != 0 or not report.get("passed")
                        or list(passed) != names):
        failed = 1
    return len(names), failed, f"{failed} of {len(names)} suites failed"


def check_points(seed, results):
    """(attempted, failed, detail); one operation per scalar call."""
    ref, tol = load_ref("library-scalar", seed)
    attempted = 4 * len(results)
    if len(ref["points"]) != len(results):
        return attempted, attempted, "point count differs from the reference"
    failed = 0
    for got_row, want_row in zip(results, ref["points"]):
        for got, want in zip(got_row, want_row):
            failed += not _same(got, want, tol)
    return attempted, failed, f"{failed} of {attempted} calls failed or differ"


def _same(got, want, tol):
    if isinstance(want, float):
        return isinstance(got, float) and close(got, want, tol)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, tol) for g, w in zip(got, want)))
    return got == want
