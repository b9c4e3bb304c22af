"""Grid classification exports and slice figures.

A slice fixes either the common imaginary part of both pair coordinates
(IM_FIXED, drawing the (Re z1, Re z2) plane) or the first coordinate at
a real value (Z1_FIXED, drawing the z2 plane).  Every grid cell is
classified by the closed-form sector label; failures become an ERROR
label for that cell only.  Exports are a fixed-header CSV and a
hand-assembled SVG 1.1 document, both byte-deterministic.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import flow, sectors
from .flow import DEFAULT_SETTINGS
from .geometry import DEFAULT_PARAMS

IM_FIXED = "IM_FIXED"
Z1_FIXED = "Z1_FIXED"
ERROR_LABEL = "ERROR"

CSV_HEADER = "coord1,coord2,label,re_z0_plus_c,re_z0_minus_c"

# largest |s| whose w = s*s is finite
_S_MAX = math.sqrt(sys.float_info.max)

# fixed fill palette; the two hypersurface contours are stroked in
# black (minus side, a = 0) and white (plus side, b = 0)
PALETTE = {
    sectors.U_MM: "#4e79a7",
    sectors.U_MP: "#f1ce63",
    sectors.U_PP: "#e15759",
    sectors.H_MINUS: "#2a2a2a",
    sectors.H_PLUS: "#5a5a5a",
    sectors.UNRESOLVED: "#bab0ac",
    ERROR_LABEL: "#ff00ff",
}
MINUS_STROKE = "#000000"
PLUS_STROKE = "#ffffff"


@dataclass(frozen=True)
class SliceSpec:
    """One drawing plane: kind IM_FIXED or Z1_FIXED plus the fixed value."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (IM_FIXED, Z1_FIXED):
            raise ValueError(f"unknown slice kind: {self.kind!r}")
        value = float(self.value)
        if not np.isfinite(value):
            raise ValueError(f"slice value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", value)


_SLICE_ALIASES = {
    "im": IM_FIXED,
    "im_fixed": IM_FIXED,
    "z1": Z1_FIXED,
    "z1_fixed": Z1_FIXED,
}


def parse_slice(text):
    """Slice spec from "im:<a>" or "z1:<b>" (case-insensitive).

    Raises
    ------
    ValueError
        On an unknown kind or a malformed value.
    """
    kind, sep, value = str(text).partition(":")
    if not sep:
        raise ValueError(f"slice must look like 'im:0' or 'z1:-40', got {text!r}")
    key = kind.strip().lower()
    if key not in _SLICE_ALIASES:
        raise ValueError(f"unknown slice kind {kind!r}")
    return SliceSpec(_SLICE_ALIASES[key], float(value))


@dataclass
class GridResult:
    """Classified slice grid.

    labels has shape (len(axis1), len(axis2)); a and b are the two
    offset values Re z0 + c and Re z0 - c per cell (nan on ERROR cells).
    """

    spec: SliceSpec
    axis1: np.ndarray
    axis2: np.ndarray
    labels: np.ndarray
    a: np.ndarray
    b: np.ndarray


def grid_box(spec, params, box=None):
    """Half-width of the grid window, 3 epsilon by default.

    Raises ValueError where a cell's s = (z1 - z2)/2 would overflow w = s*s.
    """
    if box is None:
        box = 3.0 * params.epsilon
    if spec.kind == IM_FIXED:
        s_max = box
    else:
        s_max = 0.5 * math.hypot(abs(spec.value) + box, box)
    if not s_max <= _S_MAX:
        raise ValueError(
            f"box {box:g} on the {spec.kind} slice at {spec.value:g} puts "
            f"|z1 - z2|/2 at {s_max:g}; w = s*s overflows beyond {_S_MAX:.4g}"
        )
    return box


def classify_grid(spec, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS,
                  grid_n=201, box=None, band_tol=None):
    """Classify one slice on a grid_n x grid_n grid over [-box, box]^2."""
    box = grid_box(spec, params, box)
    if band_tol is None:
        band_tol = sectors.default_band_tol(params)
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    axis1 = np.linspace(-box, box, grid_n)
    axis2 = np.linspace(-box, box, grid_n)
    A1, A2 = np.meshgrid(axis1, axis2, indexing="ij")
    if spec.kind == IM_FIXED:
        z1 = A1 + 1j * spec.value
        z2 = A2 + 1j * spec.value
    else:
        z1 = np.full(A1.shape, complex(spec.value, 0.0))
        z2 = A1 + 1j * A2
    s = 0.5 * (z1 - z2)
    # Re z0 from the real parts alone: Im(z1 + z2) overflows on im-slices
    # beyond |v| ~ 9e307, and 0.5 * z0 as a complex product would be nan
    x0 = 0.5 * (z1.real + z2.real)
    c = flow.compute_c_batch(s.ravel(), params, settings).reshape(s.shape)
    a = x0 + c
    b = x0 - c
    labels = np.asarray(sectors.labels_from_ab(a, b, band_tol), dtype="U16")
    bad = ~np.isfinite(c)
    if bad.any():
        labels = labels.copy()
        labels[bad] = ERROR_LABEL
    return GridResult(spec, axis1, axis2, labels, a, b)


def grid_csv(result):
    """CSV text of a classified grid, row-major in (coord1, coord2).

    Values are taken out of the arrays one grid row at a time, so no
    numpy scalar is indexed per cell, and each grid row is joined into
    one string before the next is formatted.
    """
    rows = [CSV_HEADER + "\n"]
    coord2 = ["%.6g" % x for x in result.axis2.tolist()]
    for x1, labels, a, b in zip(
        result.axis1.tolist(), result.labels, result.a, result.b
    ):
        coord1 = "%.6g," % x1
        cells = zip(coord2, labels.tolist(), a.tolist(), b.tolist())
        rows.append(
            "".join("%s%s,%s,%.6g,%.6g\n" % (coord1, x2, lab, u, v)
                    for x2, lab, u, v in cells)
        )
    return "".join(rows)


def _edge_segments(F, cw, ch, size):
    """Cell-edge segments where F changes sign between neighbours.

    np.nonzero lists cells in row-major order: first every edge between
    rows i and i + 1, then every edge between columns j and j + 1.
    """
    segs = []
    ii, jj = np.nonzero(F[:-1] * F[1:] < 0.0)
    for i, j in zip(ii.tolist(), jj.tolist()):
        x = (i + 1) * cw
        y = size - (j + 1) * ch
        segs.append((x, y, x, y + ch))
    ii, jj = np.nonzero(F[:, :-1] * F[:, 1:] < 0.0)
    for i, j in zip(ii.tolist(), jj.tolist()):
        y = size - (j + 1) * ch
        x = i * cw
        segs.append((x, y, x + cw, y))
    return segs


def _path(segs, stroke, width):
    if not segs:
        return ""
    d = " ".join("M%.2f %.2f L%.2f %.2f" % seg for seg in segs)
    return (
        f'<path d="{d}" stroke="{stroke}" stroke-width="{width:.2f}" '
        f'fill="none"/>\n'
    )


def grid_svg(result, size=640):
    """SVG 1.1 document of a classified grid.

    Cells are filled by label with run-length merged rects per row;
    the zero sets of the two offsets are stroked along cell edges.
    coord1 runs right, coord2 runs up.
    """
    cw = size / result.axis1.size
    ch = size / result.axis2.size
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n',
        f"<title>sector slice {result.spec.kind} {result.spec.value:g}</title>\n",
    ]
    for j, column in enumerate(result.labels.T.tolist()):
        y = size - (j + 1) * ch
        i = 0
        for lab, run in itertools.groupby(column):
            k = i + sum(1 for _ in run)
            fill = PALETTE.get(lab, PALETTE[ERROR_LABEL])
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>\n'
                % (i * cw, y, (k - i) * cw, ch, fill)
            )
            i = k
    width = max(1.0, 0.25 * min(cw, ch))
    parts.append(_path(_edge_segments(result.a, cw, ch, size), MINUS_STROKE, width))
    parts.append(_path(_edge_segments(result.b, cw, ch, size), PLUS_STROKE, width))
    parts.append("</svg>\n")
    return "".join(parts)
