"""Integration error against a tight reference.

Fixed seeded sets run at the default step tolerance (rtol 1e-9) and at
rtol 1e-13, which shares every model formula with the default run, so
the difference is integration error alone.  A change to the kernels
that makes answers worse, not only different, fails here.

Each bound is about 4x the error measured with drives in the frame of
the flow at infinity (z in closed form, u = e^(-L t) sqrt(w) integrated
beyond |w| = epsilon), rounded:

- escape time, pure mode: median 2.6e-11, q99 2.1e-9
- escape time, cutoff mode: median 2.6e-11, q99 2.1e-9, max 1.6e-7
- offset c: max 1.3e-9 pure, 3.8e-9 cutoff (a Delta drive is read at
  the end of the step that enters its region, not refined)

Before that frame, with z and w stepped together, the escape times were
1.6e-10 and 1.35e-8 in both modes, and 9.5e-7 at most in cutoff mode.
Upward drives to the V-entry band, whose steps H_MAX_V_ENTRY caps, differ
from the reference by a median of 2.2e-15 and at most 1.3e-12 in time,
and by 2.0e-12 relative in the event state, in both modes.

The pure-mode escape-time max is not bounded: two rows of the set enter
the escape region only briefly, between two step ends of one of the two
runs: the default run steps over the entry of row 65
(test_brief_first_entry_is_found), the reference over that of row 494.
In cutoff mode the step that ends such an entry lands on the outer knot
|w| = epsilon, which a cutoff escape drive counts as outside the band,
so neither entry is missed.  Upward drives visit the V-entry band as
briefly, in both modes: each run steps over a few of those visits.
"""

import numpy as np
import pytest

from symsector import _kernels, flow
from symsector.flow import FlowSettings
from symsector.geometry import SteinParams

ALPHA = 1.5
TIGHT = 1e-13
SETTINGS = FlowSettings(escape_radius=64.0)
TIGHT_SETTINGS = FlowSettings(escape_radius=64.0, step_tolerance=TIGHT)
# (median, q99, max) bounds of the escape-time difference; None: unbounded
ESCAPE_BOUNDS = {"pure": (1e-10, 9e-9, None), "cutoff": (1e-10, 9e-9, 7e-7)}
OFFSET_BOUND = 1e-8
# rows of the pure-mode set that enter the escape region only briefly,
# while |w| shrinks through epsilon: the default run steps over the entry
# of the first, the reference over that of the second
MISSED_ENTRY = 65
FOUND_ENTRY = 494


def _drive_rows():
    """1,000 states, z and sqrt(w) uniform in [-48, 48]^2 (seed 7)."""
    rng = np.random.default_rng(7)
    z = rng.uniform(-48.0, 48.0, (1000, 2))
    s = rng.uniform(-48.0, 48.0, 1000) + 1j * rng.uniform(-48.0, 48.0, 1000)
    w = s * s
    return np.column_stack([z, w.real, w.imag])


def _escape(Y, params, settings):
    """Status, escape time, event sign and sign pair of each row of Y."""
    Y = Y.copy()
    status, t, sign = flow.drive_batch(Y, params, settings,
                                       _kernels.EVENT_PAIR_ESCAPE)
    pairs = [flow.escape_sign_pair(row) for row in Y]
    return status, t, sign, pairs


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_escape_times_match_a_tight_reference(mode):
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    Y = _drive_rows()
    status, t, sign, pairs = _escape(Y, params, SETTINGS)
    status_ref, t_ref, sign_ref, pairs_ref = _escape(Y, params, TIGHT_SETTINGS)
    assert np.all(status == _kernels.STATUS_EVENT)
    assert np.array_equal(status, status_ref)
    assert np.array_equal(sign, sign_ref)
    assert pairs == pairs_ref
    err = np.abs(t - t_ref)
    q50_bound, q99_bound, max_bound = ESCAPE_BOUNDS[mode]
    assert np.median(err) < q50_bound
    assert np.quantile(err, 0.99) < q99_bound
    if max_bound is not None:
        assert err.max() < max_bound


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_offsets_match_a_tight_reference(mode):
    # 600 keys over [0, 48]^2 and 200 over [0, 4]^2, most of whose w-flows
    # start inside the profile knots and cut steps at them in cutoff mode
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 48.0, 600) + 1j * rng.uniform(0.0, 48.0, 600)
    s = np.append(s, rng.uniform(0.0, 4.0, 200) + 1j * rng.uniform(0.0, 4.0, 200))
    c = flow.compute_c_batch(s, params, FlowSettings())
    c_ref = flow.compute_c_batch(s, params, FlowSettings(step_tolerance=TIGHT))
    assert np.isfinite(c).all() and np.isfinite(c_ref).all()
    assert np.abs(c - c_ref).max() < OFFSET_BOUND


@pytest.mark.xfail(strict=True, reason=(
    "events are tested only at accepted step ends, so an entry into the "
    "escape region that begins and ends within one step is missed: the "
    "default run steps over this entry and reports t = 4.384"))
def test_brief_first_entry_is_found(pure16):
    # z = (43.020, 7.040), w = (-224.121, -0.686): the region is entered at
    # t = 0.796, while |w| shrinks through epsilon, so in the w-frame
    state = _drive_rows()[MISSED_ENTRY]
    got = flow.integrate_flow(state, pure16, SETTINGS, record=False)
    ref = flow.integrate_flow(state, pure16, TIGHT_SETTINGS, record=False)
    assert ref.escape_data["time"] == pytest.approx(0.796, abs=1e-3)
    assert got.escape_data["time"] == pytest.approx(ref.escape_data["time"],
                                                    abs=1e-6)


def test_brief_entry_missed_by_the_reference_is_found(pure16):
    # z = (-41.336, -23.196), w = (-225.393, -22.053): the region is entered
    # at t = 0.910, while |w| shrinks through epsilon; the default run finds
    # the entry, the reference steps over it and reports t = 3.263
    state = _drive_rows()[FOUND_ENTRY]
    got = flow.integrate_flow(state, pure16, SETTINGS, record=False)
    assert got.escape_data["time"] == pytest.approx(0.910, abs=1e-3)


@pytest.mark.parametrize("alpha", [1.2, 3.0, 10.0])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_escape_drives_match_a_tight_reference_at_any_alpha(mode, alpha):
    # the factors e^((alpha-1) t) and e^(-alpha t) of the frame grow fastest
    # at large alpha; no row may end NONFINITE or disagree on where it
    # escapes
    params = SteinParams(alpha=alpha, epsilon=16.0, smoothing=mode)
    Y = _drive_rows()[:300]
    status, t, sign, pairs = _escape(Y, params, SETTINGS)
    status_ref, _, sign_ref, pairs_ref = _escape(Y, params, TIGHT_SETTINGS)
    assert np.all(status == _kernels.STATUS_EVENT)
    assert np.array_equal(status, status_ref)
    assert np.array_equal(sign, sign_ref)
    assert pairs == pairs_ref


# rows of the accuracy set whose upward flow visits the V-entry band for
# 0.026 to 0.08 time units, less than the step cap H_MAX_V_ENTRY = 0.1:
# the default run steps over the visits of the first four, the reference
# over those of the last two
V_MISSED_BY_DEFAULT = [87, 177, 370, 453]
V_MISSED_BY_REFERENCE = [402, 875]
# (median, max) bounds of the upward V-entry time difference, and the max
# bound of the relative difference of the event states
V_ENTRY_BOUNDS = (1e-14, 6e-12)
V_ENTRY_STATE_BOUND = 8e-12


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_upward_v_entry_drives_match_a_tight_reference(mode):
    # drives to the V-entry band, whose entry eval_I locates downward, run
    # upward; measured: time median 2.2e-15, max 1.3e-12, state max 2.0e-12
    # relative, in both modes, over the 143 rows that enter the band from
    # outside.  409 rows start inside it and end there at t = 0, and 446
    # never reach it before max_time.
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    Y = _drive_rows()
    out = []
    for settings in (SETTINGS, TIGHT_SETTINGS):
        Yk = Y.copy()
        out.append((*flow.drive_batch(Yk, params, settings, _kernels.EVENT_V_ENTRY,
                                      direction=-1.0), Yk))
    (status, t, sign, got), (status_ref, t_ref, sign_ref, ref) = out
    differ = np.nonzero((status != status_ref) | (sign != sign_ref))[0]
    assert differ.tolist() == sorted(V_MISSED_BY_DEFAULT + V_MISSED_BY_REFERENCE)
    assert np.all(status[V_MISSED_BY_DEFAULT] == _kernels.STATUS_TIME_END)
    assert np.all(status_ref[V_MISSED_BY_REFERENCE] == _kernels.STATUS_TIME_END)
    event = status == _kernels.STATUS_EVENT
    event[differ] = False
    start = event & (t == 0.0)
    assert np.array_equal(start, event & (t_ref == 0.0))
    assert np.array_equal(got[start], Y[start])
    located = event & ~start
    assert np.count_nonzero(located) > 100
    err = np.abs(t - t_ref)[located]
    assert np.median(err) < V_ENTRY_BOUNDS[0] and err.max() < V_ENTRY_BOUNDS[1]
    rel = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert rel[located].max() < V_ENTRY_STATE_BOUND


# (sqrt(w0), direction, t): |w| grows from inside epsilon = 16 to far
# beyond it, so each drive switches to the u-frame on the way
SWITCHING = [(0.5 + 0.2j, 1.0, 6.0), (1.0 + 3.0j, -1.0, 2.0)]


@pytest.mark.parametrize("s0, direction, t", SWITCHING, ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_fixed_time_drives_across_the_switch_match_a_tight_reference(
        mode, s0, direction, t):
    # measured: relative error at most 3.0e-10 in both modes
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    w0 = s0 * s0
    state = np.array([7.0, -3.0, w0.real, w0.imag])
    got = flow.flow_state_to_time(state, t, params, FlowSettings(), direction)
    ref = flow.flow_state_to_time(state, t, params, FlowSettings(step_tolerance=TIGHT),
                                  direction)
    assert abs(w0) < 16.0 < 64.0 < np.hypot(got[2], got[3])
    assert np.abs(got - ref).max() < 1.2e-9 * np.abs(ref).max()
