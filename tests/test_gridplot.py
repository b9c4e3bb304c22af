"""Grid classification, CSV dumps, and SVG rendering."""

import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from symsector.flow import FlowSettings
from symsector.geometry import SteinParams
from symsector.gridplot import (
    CSV_HEADER,
    ERROR_LABEL,
    IM_FIXED,
    MINUS_STROKE,
    PALETTE,
    PLUS_STROKE,
    GridResult,
    SliceSpec,
    Z1_FIXED,
    _path,
    classify_grid,
    grid_csv,
    grid_svg,
    parse_slice,
)


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize("alpha", [5.0, 10.0])
@pytest.mark.parametrize("spec", ["im:0", "z1:-40"])
def test_grids_at_large_alpha_have_no_error_cells(spec, alpha, mode):
    # Delta rows integrate u = e^(-L t) sqrt(w), which stays bounded where
    # w overflows, and stop on a relative drift bound at any alpha
    params = SteinParams(alpha=alpha, epsilon=16.0, smoothing=mode)
    result = classify_grid(parse_slice(spec), params, grid_n=41)
    assert not (result.labels == ERROR_LABEL).any()


def test_parse_slice_variants():
    assert parse_slice("im:0") == SliceSpec(IM_FIXED, 0.0)
    assert parse_slice("im_fixed:2.5") == SliceSpec(IM_FIXED, 2.5)
    assert parse_slice("z1:-3") == SliceSpec(Z1_FIXED, -3.0)
    assert parse_slice("z1_fixed:0.25") == SliceSpec(Z1_FIXED, 0.25)


@pytest.mark.parametrize("bad", ["", "im", "chi:1", "im:abc", "im:nan"])
def test_parse_slice_rejects(bad):
    with pytest.raises(ValueError):
        parse_slice(bad)


def test_grid_corner_labels(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=9)
    assert res.labels.shape == (9, 9)
    assert res.labels[0, 0] == "U_MM"
    assert res.labels[-1, -1] == "U_PP"
    assert res.labels[0, -1] == "U_MP"
    assert res.labels[-1, 0] == "U_MP"
    assert np.all(np.isfinite(res.a)) and np.all(np.isfinite(res.b))


def test_grid_symmetry_under_pair_swap(pure16):
    # unordered pairs: the label grid is symmetric in the two coordinates
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=15)
    assert np.array_equal(res.labels, res.labels.T)


def test_far_imaginary_slice_matches_im0(pure16):
    # s and Re z0 do not depend on v on an im-slice, even where Im(z1 + z2)
    # overflows
    grids = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("im:0", "im:1e308", "im:-1.7e308"):
            grids.append(classify_grid(parse_slice(text), pure16, FlowSettings(),
                                       grid_n=5, box=1.0))
    for res in grids[1:]:
        assert np.array_equal(res.labels, grids[0].labels)
        assert np.array_equal(res.a, grids[0].a)
        assert np.array_equal(res.b, grids[0].b)


def test_z1_fixed_slice_runs(pure16):
    res = classify_grid(parse_slice("z1:-40"), pure16, FlowSettings(), grid_n=7)
    assert res.labels.shape == (7, 7)
    assert set(np.unique(res.labels)) <= {
        "U_MM", "U_MP", "U_PP", "H_MINUS", "H_PLUS", "UNRESOLVED", "ERROR",
    }


def test_csv_layout(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=9)
    lines = grid_csv(res).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 81
    first = lines[1].split(",")
    assert len(first) == 5
    assert first[2] in PALETTE
    # row-major: first axis varies slowest
    assert lines[1].split(",")[0] == lines[9].split(",")[0]


def test_csv_deterministic(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=9)
    assert grid_csv(res) == grid_csv(res)


def test_svg_well_formed(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=21)
    svg = grid_svg(res)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "rect" in body
    # both hypersurface traces cross this window
    assert "path" in body


def test_svg_deterministic(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=11)
    assert grid_svg(res) == grid_svg(res)


def test_custom_box_and_band(pure16):
    res = classify_grid(parse_slice("im:0"), pure16, FlowSettings(), grid_n=5,
                        box=10.0, band_tol=1e-3)
    assert res.axis1[0] == -10.0 and res.axis1[-1] == 10.0
    assert res.axis2[0] == -10.0 and res.axis2[-1] == 10.0


# Per-cell reference writers: the writers take values out of the arrays a
# grid row at a time and find edges with numpy masks, and must give these
# bytes exactly.


def _csv_per_cell(result):
    lines = [CSV_HEADER]
    for i in range(result.axis1.size):
        for j in range(result.axis2.size):
            lines.append(
                "%.6g,%.6g,%s,%.6g,%.6g"
                % (result.axis1[i], result.axis2[j], result.labels[i, j],
                   result.a[i, j], result.b[i, j])
            )
    return "\n".join(lines) + "\n"


def _edges_per_cell(F, cw, ch, size):
    n1, n2 = F.shape
    segs = []
    for i in range(n1 - 1):
        for j in range(n2):
            if F[i, j] * F[i + 1, j] < 0.0:
                x = (i + 1) * cw
                y = size - (j + 1) * ch
                segs.append((x, y, x, y + ch))
    for i in range(n1):
        for j in range(n2 - 1):
            if F[i, j] * F[i, j + 1] < 0.0:
                y = size - (j + 1) * ch
                x = i * cw
                segs.append((x, y, x + cw, y))
    return segs


def _svg_per_cell(result, size=640):
    n1 = result.axis1.size
    n2 = result.axis2.size
    cw = size / n1
    ch = size / n2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n',
        f"<title>sector slice {result.spec.kind} {result.spec.value:g}</title>\n",
    ]
    labels = result.labels
    for j in range(n2):
        y = size - (j + 1) * ch
        i = 0
        while i < n1:
            lab = labels[i, j]
            k = i
            while k < n1 and labels[k, j] == lab:
                k += 1
            fill = PALETTE.get(str(lab), PALETTE[ERROR_LABEL])
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>\n'
                % (i * cw, y, (k - i) * cw, ch, fill)
            )
            i = k
    width = max(1.0, 0.25 * min(cw, ch))
    parts.append(_path(_edges_per_cell(result.a, cw, ch, size), MINUS_STROKE, width))
    parts.append(_path(_edges_per_cell(result.b, cw, ch, size), PLUS_STROKE, width))
    parts.append("</svg>\n")
    return "".join(parts)


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-200, 1e200, 1e-7, 123456.5]


def _hostile_grid(n1, n2, seed):
    """Random labels in runs, ERROR cells with nan offsets, special values."""
    rng = np.random.default_rng(seed)
    names = list(PALETTE) + ["NOT_A_LABEL"]
    labels = np.array(names, dtype="U16")[rng.integers(0, len(names), (n1, n2))]
    # long runs along coord1 and one column of a single label throughout
    labels[: n1 // 2, ::2] = labels[0, ::2]
    labels[:, n2 // 2] = "U_MP"
    a = rng.normal(0.0, 30.0, (n1, n2))
    b = rng.normal(0.0, 30.0, (n1, n2))
    for F in (a, b):
        pick = rng.random((n1, n2)) < 0.3
        F[pick] = rng.choice(_SPECIAL, int(pick.sum()))
    a[labels == ERROR_LABEL] = np.nan
    b[labels == ERROR_LABEL] = np.nan
    axis1 = np.linspace(-47.3, 47.3, n1)
    axis2 = np.linspace(-1e-5, 3e7, n2)
    axis1[n1 // 2] = -0.0
    spec = SliceSpec(Z1_FIXED, -40.123)
    return GridResult(spec, axis1, axis2, labels, a, b)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (7, 4), (3, 9), (40, 40)])
@pytest.mark.parametrize("seed", [0, 1])
def test_writers_match_per_cell_reference(shape, seed):
    res = _hostile_grid(*shape, seed)
    assert grid_csv(res) == _csv_per_cell(res)
    assert grid_svg(res) == _svg_per_cell(res)
    assert grid_svg(res, size=97) == _svg_per_cell(res, size=97)


def test_writers_match_per_cell_reference_on_a_classified_grid(pure16):
    res = classify_grid(parse_slice("z1:-40"), pure16, FlowSettings(), grid_n=23,
                        box=48.0)
    assert grid_csv(res) == _csv_per_cell(res)
    assert grid_svg(res) == _svg_per_cell(res)
