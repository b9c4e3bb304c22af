"""Integration error against a tight reference.

Fixed seeded sets run at the default step tolerance (rtol 1e-9) and at
rtol 1e-13, which shares every model formula with the default run, so
the difference is integration error alone.  A change to the kernels
that makes answers worse, not only different, fails here.

Each bound is about 4x the error measured when events were bisected
with full step attempts, rounded up; on the dense output of the event
step the error is the second figure:

- escape time, pure mode: median 1.6e-10 (1.6e-10), q99 1.2e-8 (1.35e-8)
- escape time, cutoff mode: median 1.6e-10 (1.6e-10), q99 1.1e-8
  (1.2e-8), max 7.1e-7 (9.5e-7)
- offset c: max 2.5e-9 pure, 3.9e-9 cutoff (Delta has no events)

The pure-mode escape-time max is not bounded: one row of the set enters
the escape region only briefly, between two step ends of the default
run (test_brief_first_entry_is_found).
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
ESCAPE_BOUNDS = {"pure": (7e-10, 5e-8, None), "cutoff": (7e-10, 5e-8, 3e-6)}
OFFSET_BOUND = 1e-8
# the row of the pure-mode set whose first entry the default run steps over
BRIEF_ENTRY = 494


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
    "escape region that begins and ends within one default step is missed"))
def test_brief_first_entry_is_found(pure16):
    # z = (-41.336, -23.196), w = (-225.393, -22.053): the reference enters
    # the escape region at t = 0.910 and the default run reports t = 3.263
    state = _drive_rows()[BRIEF_ENTRY]
    got = flow.integrate_flow(state, pure16, SETTINGS, record=False)
    ref = flow.integrate_flow(state, pure16, TIGHT_SETTINGS, record=False)
    assert ref.escape_data["time"] == pytest.approx(0.910, abs=1e-3)
    assert got.escape_data["time"] == pytest.approx(ref.escape_data["time"],
                                                    abs=1e-6)
