"""Sector labels, chart axioms, and truncation behavior."""

import math

import numpy as np
import pytest

from symsector.flow import FlowSettings, compute_c
from symsector.geometry import SteinParams, SymPoint
from symsector.sectors import (
    SECTOR_LABELS,
    characteristic_direction,
    check_dI_characteristic,
    check_disjointness,
    check_poisson_bracket,
    check_truncation_absorbing,
    check_ZI_scaling,
    classify_by_flow,
    classify_by_flow_batch,
    classify_closed_form,
    classify_values,
    default_band_tol,
    eval_I,
    hypersurface_point,
    in_V_region,
    labels_from_ab,
    saddle_reading,
    truncation_region_contains,
)

LN4 = 2.0 * math.log(2.0)


# ------------------------------------------------------------------- labels


def test_label_vocabulary():
    assert set(SECTOR_LABELS) == {
        "U_MM", "H_MINUS", "U_MP", "H_PLUS", "U_PP", "UNRESOLVED",
    }


def test_diagonal_pair_classifies_mixed(pure16):
    # equal points sit on the branch locus with Re z0 = 0 < c(0)
    assert classify_closed_form(SymPoint(1.0j, 1.0j), pure16) == "U_MP"


def test_deep_negative_pair_classifies_double_minus():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    assert classify_closed_form(SymPoint(-10.0, -10.0 + 2.0j), params) == "U_MM"
    assert classify_closed_form(SymPoint(-5.0, -5.0 + 1.0j), params) == "U_MM"


def test_deep_positive_pair_classifies_double_plus(pure16):
    assert classify_closed_form(SymPoint(100.0, 90.0 + 1.0j), pure16) == "U_PP"


def test_classify_values_reports_offsets(pure16):
    label, a, b, c = classify_values(SymPoint(-10.0, -64.0), pure16)
    # z0 = -37, sqrt(w0) = 27 real: identity region so c = 27
    assert label == "U_MM"
    assert c == pytest.approx(27.0, rel=1e-6)
    assert a == pytest.approx(-10.0, rel=1e-6)
    assert b == pytest.approx(-64.0, rel=1e-6)


def test_labels_from_ab_order():
    band = 1e-6
    a = np.array([-5.0, 0.0, 2.0, 2.0, 2.0, np.nan])
    b = np.array([-9.0, -9.0, -9.0, 0.0, 3.0, 1.0])
    out = labels_from_ab(a, b, band)
    assert list(out) == ["U_MM", "H_MINUS", "U_MP", "H_PLUS", "U_PP", "UNRESOLVED"]


def test_flow_batch_of_no_rows(pure16):
    # an empty list, like compute_c_batch([]); a lone row or a row of
    # three columns is still refused
    assert classify_by_flow_batch([], pure16).shape == (0,)
    for bad in ([1.0, 0.5, 3.5, 0.0], [[1.0, 0.5, 3.5]]):
        with pytest.raises(ValueError):
            classify_by_flow_batch(bad, pure16)


def test_flow_and_closed_form_agree(pure16, rng):
    settings = FlowSettings()
    n = 60
    for _ in range(n):
        p = SymPoint.from_sym(
            complex(rng.uniform(-48, 48), rng.uniform(-48, 48)),
            complex(rng.uniform(-48, 48), rng.uniform(-48, 48)),
        )
        closed = classify_closed_form(p, pure16)
        flowed = classify_by_flow(p, pure16, settings)
        assert closed == flowed


def test_constructed_hypersurface_points_label_on_band(pure16):
    settings = FlowSettings(step_tolerance=1e-12)
    eps = pure16.epsilon
    for sign, want in ((-1, "H_MINUS"), (1, "H_PLUS")):
        p = hypersurface_point(sign, 1.5 * eps + 0.3j * eps, 0.5 * eps,
                               pure16, settings)
        assert classify_closed_form(p, pure16) == want


def test_default_band_tol_scales(pure16):
    assert default_band_tol(pure16) == pytest.approx(1.6e-5)


# -------------------------------------------------------------- chart axioms


def test_v_region_membership(cutoff16):
    eps = cutoff16.epsilon
    inside = SymPoint(-3.0 * eps + 0.2j, 0.1 * eps + 0.4j)
    assert in_V_region(inside, -1, cutoff16)
    assert not in_V_region(inside, 1, cutoff16)
    plus_side = SymPoint(0.5 * eps + 0.1j, 3.0 * eps)
    assert in_V_region(plus_side, 1, cutoff16)
    assert not in_V_region(plus_side, -1, cutoff16)
    assert not in_V_region(SymPoint(0.5, 0.2), 1, cutoff16)


def test_eval_I_inside_chart(cutoff16):
    eps = cutoff16.epsilon
    p = SymPoint(0.3 * eps + 0.7j, -3.0 * eps + 0.1j)
    iv = eval_I(p, -1, cutoff16)
    assert iv.chart_time == 0.0
    assert iv.value == pytest.approx(0.7, rel=1e-12)


def test_eval_I_after_entry_matches_scaling(cutoff16):
    # I is constant by construction along the flow: flowing a chart
    # point upward by tau and reading from outside must return
    # e^{alpha tau} times its in-chart height
    from symsector.flow import flow_state_to_time

    settings = FlowSettings(step_tolerance=1e-11)
    eps = cutoff16.epsilon
    tau = 0.5
    q = SymPoint(0.5 * eps + 0.7j, -2.3 * eps + 0.2j)
    assert in_V_region(q, -1, cutoff16)
    base = eval_I(q, -1, cutoff16, settings)
    assert base.chart_time == 0.0
    state = flow_state_to_time(q.state(), tau, cutoff16, settings, direction=-1.0)
    p_out = SymPoint.from_sym(state[0] + 1j * state[1], state[2] + 1j * state[3])
    assert not in_V_region(p_out, -1, cutoff16)
    iv = eval_I(p_out, -1, cutoff16, settings)
    assert iv.chart_time > 0.0
    assert iv.value == pytest.approx(
        math.exp(cutoff16.alpha * tau) * base.value, rel=1e-6
    )


def test_zi_scaling_residual_small(cutoff16):
    eps = cutoff16.epsilon
    for sign in (-1, 1):
        p = SymPoint(0.5 * eps + 0.8j, sign * 3.0 * eps + 0.5j)
        res = check_ZI_scaling(p, sign, cutoff16)
        assert abs(res) <= 1e-4


def test_characteristic_direction_positive(cutoff16):
    settings = FlowSettings(step_tolerance=1e-11)
    eps = cutoff16.epsilon
    for sign in (-1, 1):
        u = 2.0 * eps
        p = hypersurface_point(sign, u + 0.25j * eps, 0.4 * eps, cutoff16, settings)
        d = check_dI_characteristic(p, sign, cutoff16, settings)
        assert d > 0.0
        assert abs(d - 1.0) <= 1e-2


def test_characteristic_direction_vector_shape(cutoff16):
    settings = FlowSettings(step_tolerance=1e-11)
    eps = cutoff16.epsilon
    p = hypersurface_point(-1, 2.0 * eps, 0.0, cutoff16, settings)
    C = characteristic_direction(p, -1, cutoff16, settings)
    assert C.shape == (4,)
    assert np.all(np.isfinite(C))


def test_poisson_brackets_vanish(cutoff16):
    # one surface point near each saddle site, inside its chart strip
    eps = cutoff16.epsilon
    za = 0.3 * eps + 0.3j
    zb = 8.0 * eps + complex(-0.5 * eps, 0.4)
    for i, j in ((0, 1), (0, 0), (1, 1)):
        res = check_poisson_bracket(za, zb, i, j, cutoff16)
        assert abs(res) <= 1e-4


def test_saddle_reading_site_shift(cutoff16):
    eps = cutoff16.epsilon
    z = 8.0 * eps + 1.0 + 2.0j
    assert saddle_reading(z, 8.0 * eps, eps) == pytest.approx(2.0)
    assert saddle_reading(z - 8.0 * eps, 0.0, eps) == pytest.approx(2.0)
    from symsector.sectors import NotInNeighborhoodError

    with pytest.raises(NotInNeighborhoodError):
        saddle_reading(z, 0.0, eps)


def test_hypersurfaces_disjoint(pure16):
    margin = check_disjointness(pure16, grid_n=11)
    assert margin > 0.0


# --------------------------------------------------------------- truncation


def test_truncation_region_membership():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    assert truncation_region_contains(SymPoint(-2.0, -9.0), params)
    assert not truncation_region_contains(SymPoint(-0.5, -9.0), params)
    assert not truncation_region_contains(SymPoint(2.0, -9.0), params)


def test_truncation_absorbing_entry_time():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    t = check_truncation_absorbing(SymPoint(-0.5, -10.0), params)
    assert t == pytest.approx(LN4, abs=1e-5)
    assert check_truncation_absorbing(SymPoint(-2.0, -9.0), params) == 0.0


def test_truncation_forward_invariance():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    from symsector.flow import flow_state_to_time

    state = flow_state_to_time(SymPoint(-2.0, -9.0).state(), 0.5, params,
                               FlowSettings())
    p = SymPoint.from_sym(state[0] + 1j * state[1], state[2] + 1j * state[3])
    assert truncation_region_contains(p, params)
