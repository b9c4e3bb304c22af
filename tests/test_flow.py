"""Flow integration, escape behavior, and offset readings."""

import concurrent.futures
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from symsector import _kernels, flow, sectors
from symsector.flow import (
    FlowSettings,
    NoEscapeError,
    NonFiniteFlowError,
    TERM_ESCAPED,
    TERM_MAX_TIME,
    compute_c,
    compute_c_batch,
    compute_delta,
    compute_delta_batch,
    drive_batch,
    escape_sign_pair,
    first_event,
    flow_unperturbed_z,
    integrate_flow,
    point_of,
    resolve_escape_radius,
)
from symsector.geometry import SteinParams, SymPoint, complex_square, sym2_potential

LN4 = 2.0 * math.log(2.0)


# -------------------------------------------------------------- closed form


def test_unperturbed_z_doubles_real():
    assert flow_unperturbed_z(1.0, LN4) == pytest.approx(2.0, abs=1e-13)


def test_unperturbed_z_shrinks_imag():
    assert flow_unperturbed_z(4.0j, LN4) == pytest.approx(0.5j, abs=1e-13)


def test_unperturbed_z_vectorized():
    z = np.array([1.0, 4.0j, 1.0 + 1.0j])
    out = flow_unperturbed_z(z, LN4)
    assert np.allclose(out, [2.0, 0.5j, 2.0 + 0.125j], atol=1e-12)


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.05, 2.5))
def test_unperturbed_z_group_law(x, y, t):
    z = complex(x, y)
    once = flow_unperturbed_z(z, 2 * t)
    twice = flow_unperturbed_z(flow_unperturbed_z(z, t), t)
    assert abs(once - twice) <= 1e-9 * (1.0 + abs(once))


def test_unperturbed_z_keeps_a_finite_part_beside_an_infinite_one():
    # the parts are set apart: x + 1j * y would turn 0 * inf into a nan Re
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = flow_unperturbed_z(complex(1.0, math.inf), 1.0)
    assert z.real == np.exp(0.5) and z.imag == math.inf


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_drives_take_z_in_closed_form(mode, direction, rng):
    # z of a drive is flow_unperturbed_z at the drive's time, bit for bit,
    # from the lockstep and the row loop, at events and at the end of time
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_time=8.0)
    n = flow._LOCKSTEP_ROWS[params.table[0]] + 4
    z = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    w = complex_square(rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n))
    Y = np.column_stack([z.real, z.imag, w.real, w.imag])
    ends = []
    for kind, t_end in ((_kernels.EVENT_NONE, 3.0), (_kernels.EVENT_PAIR_ESCAPE, None)):
        for rows in (slice(None), slice(0, 1)):  # the lockstep, the row loop
            Yk = Y[rows].copy()
            status, t, _ = drive_batch(Yk, params, settings, kind, t_end, direction)
            want = flow_unperturbed_z(z[rows], direction * t, 1.5)
            assert Yk[:, 0].tobytes() == want.real.tobytes()
            assert Yk[:, 1].tobytes() == want.imag.tobytes()
            ends += status.tolist()
    # the upward flow never enters the escape region from outside
    assert (_kernels.STATUS_EVENT in ends) == (direction == 1.0)


def test_escape_drives_take_few_steps(pure16):
    # beyond |w| = epsilon the drive integrates u = e^(-L t) sqrt(w), whose
    # steps the nonlinearity sets rather than the e^((alpha-1) t) growth:
    # about 12 recorded steps per escape, against about 52 with z and w
    # stepped together through the growth
    rng = np.random.default_rng(0)
    z = rng.uniform(-48.0, 48.0, (200, 2))
    s = rng.uniform(-48.0, 48.0, 200) + 1j * rng.uniform(-48.0, 48.0, 200)
    w = complex_square(s)
    steps = [len(integrate_flow(np.array([x, y, v.real, v.imag]), pure16).times) - 1
             for (x, y), v in zip(z.tolist(), w.tolist())]
    assert np.mean(steps) <= 20


# ----------------------------------------------------------- product region


def test_deep_product_flow_matches_product_law(pure16, rng):
    n = 64
    x_z = rng.uniform(-8.0, 8.0, n)
    y_z = rng.uniform(5.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    u0 = rng.uniform(300.0, 600.0, n)
    v0 = rng.uniform(-3.0, 3.0, n)
    z0 = x_z + 1j * y_z
    s0 = u0 + 1j * v0
    w0 = s0 * s0
    Y = np.column_stack([x_z, y_z, w0.real, w0.imag])
    status, _, _ = drive_batch(Y, pure16, FlowSettings(), _kernels.EVENT_NONE, t_end=LN4)
    assert np.all(status == _kernels.STATUS_TIME_END)
    zf = Y[:, 0] + 1j * Y[:, 1]
    sf = np.sqrt(Y[:, 2] + 1j * Y[:, 3])
    for num, ex in (
        (zf + sf, flow_unperturbed_z(z0 + s0, LN4)),
        (zf - sf, flow_unperturbed_z(z0 - s0, LN4)),
    ):
        assert np.max(np.abs(num - ex) / np.abs(ex)) <= 1e-6


# ------------------------------------------------------------------- escape


def test_near_diagonal_pairs_escape(pure16, rng):
    eps = pure16.epsilon
    n = 16
    root = math.sqrt(eps)
    s0 = rng.uniform(-root, root, n) + 1j * rng.uniform(-root, root, n)
    w0 = s0 * s0
    Y = np.column_stack([
        rng.uniform(-2 * eps, 2 * eps, n), rng.uniform(-2 * eps, 2 * eps, n),
        w0.real, w0.imag,
    ])
    status, _, _ = drive_batch(Y, pure16, FlowSettings(), _kernels.EVENT_NONE, t_end=18.0)
    assert np.all(status == _kernels.STATUS_TIME_END)
    assert np.all(Y[:, 2] > 1e3 * eps)
    assert np.all(np.abs(Y[:, 3]) < 1e-3 * np.maximum(np.abs(w0.imag), eps))


def test_drive_batch_nonfinite_status_matches_scalar(pure16):
    # kappa = 2|w| overflows at |w| = 1e308, so every attempt is non-finite;
    # w = -1e308 has both pair coordinates at Re z, outside the escape region
    settings = FlowSettings(max_steps=2000)
    state = [1.0, 0.5, -1e308, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        # enough rows for the numpy lockstep, which the scalar call never runs
        rows = np.array([state] * flow._LOCKSTEP_ROWS[pure16.table[0]])
        status, t, _ = drive_batch(rows, pure16, settings, _kernels.EVENT_PAIR_ESCAPE)
        assert (status == _kernels.STATUS_NONFINITE).all() and (t == 0.0).all()
        with pytest.raises(NonFiniteFlowError):
            integrate_flow(state, pure16, settings, record=False)
        # w = 1e308 puts the pair coordinates at +-inf: the start is the escape
        state = [1.0, 0.5, 1e308, 0.0]
        rows = np.array([state] * flow._LOCKSTEP_ROWS[pure16.table[0]])
        status, t, _ = drive_batch(rows, pure16, settings, _kernels.EVENT_PAIR_ESCAPE)
        assert (status == _kernels.STATUS_EVENT).all() and (t == 0.0).all()
        traj = integrate_flow(state, pure16, settings, record=False)
    assert traj.termination == TERM_ESCAPED and traj.escape_data["time"] == 0.0


def test_opposite_imaginary_pair_escape_signs():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    traj = integrate_flow(SymPoint(1.0j, -1.0j), params, FlowSettings(max_time=60.0))
    assert traj.termination == TERM_ESCAPED
    assert traj.escape_data["signs"] == (-1, 1)
    assert traj.escape_data["time"] > 0.0
    assert escape_sign_pair(traj.final_state()) == (-1, 1)


def test_no_escape_within_tiny_horizon(pure16):
    traj = integrate_flow(SymPoint(1.0j, -1.0j), pure16, FlowSettings(max_time=0.5))
    assert traj.termination == TERM_MAX_TIME


def test_trajectory_recording(pure16):
    traj = integrate_flow(SymPoint(-3.0, -5.0 + 1.0j), pure16,
                          FlowSettings(max_time=1.0))
    assert traj.times.ndim == 1
    assert traj.states.shape == (traj.times.size, 4)
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.allclose(traj.states[-1], traj.final_state())
    t_last, p_last = traj.samples[-1]
    assert t_last == traj.times[-1]
    assert p_last.z == pytest.approx(traj.final_point().z)


def test_potential_monotone_along_trajectory(pure16):
    traj = integrate_flow(SymPoint(2.0 + 3.0j, -1.0 - 6.0j), pure16,
                          FlowSettings(max_time=3.0))
    vals = [sym2_potential(complex(a, b), complex(c, d), pure16)
            for a, b, c, d in traj.states]
    assert np.max(np.diff(vals)) <= 1e-9


def test_state_point_round_trip():
    p = SymPoint(0.5 - 2.0j, 1.0 + 0.25j)
    q = point_of(p.state())
    assert q.z == pytest.approx(p.z) and q.w == pytest.approx(p.w)


def test_escape_radius_resolution(pure16):
    assert resolve_escape_radius(FlowSettings(), pure16) == pytest.approx(16000.0)
    assert resolve_escape_radius(FlowSettings(escape_radius=77.0), pure16) == 77.0


def test_flow_settings_validation():
    # max_time=inf made every drive stop at t = 0 (its end gate 1e-14 * t_end
    # is inf); step_tolerance=nan spent the whole step budget
    bad = [
        dict(max_time=0.0), dict(step_tolerance=-1.0), dict(max_time=math.inf),
        dict(max_time=math.nan), dict(step_tolerance=math.nan),
        dict(escape_radius=math.nan), dict(escape_radius=math.inf),
        dict(escape_radius=0.0), dict(max_steps=0), dict(max_steps=-1),
        dict(max_steps=2.5), dict(max_steps=True),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            FlowSettings(**kwargs)
    assert FlowSettings(max_steps=np.int64(5)).max_steps == 5


@given(st.sampled_from(["max_time", "step_tolerance", "escape_radius"]), st.floats())
@example("max_time", math.inf)
@example("step_tolerance", math.nan)
@example("escape_radius", -math.inf)
@example("max_time", 0.0)
def test_flow_settings_take_exactly_finite_positive_floats(name, value):
    if math.isfinite(value) and value > 0.0:
        assert getattr(FlowSettings(**{name: value}), name) == value
    else:
        with pytest.raises(ValueError):
            FlowSettings(**{name: value})


@pytest.mark.parametrize("t, direction", [
    (-0.5, 1.0), (math.inf, 1.0), (math.nan, 1.0), (0.5, 2.0), (0.5, 0.0),
], ids=["negative-time", "infinite-time", "nan-time", "direction-2", "direction-0"])
def test_flow_state_to_time_rejects_bad_time_or_direction(pure16, t, direction):
    # each of these used to return the state unchanged or flow a wrong time
    with pytest.raises(ValueError):
        flow.flow_state_to_time([1.0, 0.5, 3.0, 1.0], t, pure16, direction=direction)


@pytest.mark.parametrize("t_end, direction", [
    (math.nan, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, 2.0),
], ids=["nan-time", "negative-time", "infinite-time", "direction-2"])
def test_drive_batch_rejects_bad_time_or_direction(pure16, t_end, direction):
    # t_end = nan ran the whole step budget and ended STATUS_RUNNING, where
    # the scalar kernel ends the same row STATUS_NONFINITE
    Y = np.array([[1.0, 0.5, 3.0, 1.0]])
    with pytest.raises(ValueError):
        drive_batch(Y, pure16, FlowSettings(max_steps=2000), _kernels.EVENT_NONE,
                    t_end=t_end, direction=direction)


@pytest.mark.parametrize("Y", [
    np.array([[1, 2, 3, 4], [5, -6, 7, 8]]),
    np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32),
    np.array([[1.0, 2.0, 3.0]]),
    np.array([1.0, 2.0, 3.0, 4.0]),
], ids=["int64", "float32", "three-columns", "one-row-1d"])
def test_drive_batch_rejects_rows_it_cannot_integrate_in_place(pure16, Y):
    # an int64 Y spent the whole step budget: each accepted state was
    # truncated on its way back into Y, leaving [[1, 0, 3, 0], [5, 0, 7, 0]]
    before = Y.copy()
    with pytest.raises(ValueError, match="float64"):
        drive_batch(Y, pure16, FlowSettings(max_steps=50), _kernels.EVENT_NONE,
                    t_end=1.0)
    assert np.array_equal(Y, before)


@pytest.mark.parametrize("state", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 99.0]],
                         ids=["three-entries", "five-entries"])
@pytest.mark.parametrize("call", [
    lambda s, p: integrate_flow(s, p),
    lambda s, p: integrate_flow(s, p, record=False),
    lambda s, p: flow.flow_state_to_time(s, 0.5, p),
    lambda s, p: first_event(s, _kernels.EVENT_PAIR_ESCAPE, p, FlowSettings()),
], ids=["integrate", "integrate-unrecorded", "to-time", "first-event"])
def test_scalar_flow_apis_take_only_four_entry_states(pure16, state, call):
    # as drive_batch takes only 4 columns: a 5th entry was dropped silently
    # (and failed in np.vstack unrecorded), a 3-entry state raised IndexError
    with pytest.raises(ValueError, match="4 entries"):
        call(state, pure16)


# ----------------------------------------------------------- offset readings


def test_offset_identity_region(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    eps = pure16.epsilon
    assert compute_c(3.0 * eps, pure16, settings) == pytest.approx(3.0 * eps, abs=1e-6 * eps)


def test_delta_on_real_axis(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    eps = pure16.epsilon
    d = compute_delta(2.0 * eps, pure16, settings)
    assert d.real == pytest.approx(2.0 * eps, abs=5e-8)
    assert abs(d.imag) < 5e-9


def test_offset_midscale_band(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    eps = pure16.epsilon
    c = compute_c(0.5 * eps, pure16, settings)
    assert 0.5 * eps <= c <= eps


def test_offset_at_branch_locus(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    c = compute_c(0.0, pure16, settings)
    assert 0.0 < c <= pure16.epsilon


def test_offset_lower_bound_exact(pure16, rng):
    # c >= |Re sqrt(w0)| holds pointwise, not only asymptotically
    settings = FlowSettings(step_tolerance=1e-11)
    u = rng.uniform(-30.0, 30.0, 12)
    v = rng.uniform(-30.0, 30.0, 12)
    c = compute_c_batch(u + 1j * v, pure16, settings)
    assert np.all(np.isfinite(c))
    assert np.all(c >= np.abs(u) - 1e-9 * (1.0 + np.abs(u)))


def test_offset_symmetries_bitwise(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    s = 3.0 + 2.0j
    c = compute_c(s, pure16, settings)
    assert compute_c(-s, pure16, settings) == c
    assert compute_c(np.conj(s), pure16, settings) == c


def test_batch_matches_scalar(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    # padded to enough distinct keys for the numpy lockstep
    n = flow._LOCKSTEP_ROWS[pure16.table[0]]
    pad = np.random.default_rng(3).uniform(0.0, 48.0, (2, n))
    seeds = np.array([0.5 + 0.1j, 8.0 - 3.0j, 0.0 + 5.0j, *(pad[0] + 1j * pad[1])])
    batch = compute_c_batch(seeds, pure16, settings)
    for s, c in zip(seeds, batch):
        assert compute_c(s, pure16, settings) == pytest.approx(float(c), rel=1e-12)


def test_scalar_offsets_are_the_batch_offsets_bit_for_bit(pure16):
    # both square the root as Python's complex product does
    rng = np.random.default_rng(25)
    s = rng.uniform(-50.0, 50.0, 300) + 1j * rng.uniform(-50.0, 50.0, 300)
    c = compute_c_batch(s, pure16)
    delta, status = compute_delta_batch(s, pure16)
    assert (status == _kernels.STATUS_EVENT).all()
    assert _hex(c) == _hex([compute_c(x, pure16) for x in s.tolist()])
    args = flow._delta_args(pure16, flow.DEFAULT_SETTINGS, "real", 1.0)
    kernel = [_kernels._delta_one((x * x).real, (x * x).imag, *args) for x in s.tolist()]
    assert _hex(c) == _hex([abs(out[1]) for out in kernel])
    scalar = [compute_delta(x, pure16) for x in s.tolist()]
    assert _hex(delta.real) == _hex([d.real for d in scalar])
    assert _hex(delta.imag) == _hex([d.imag for d in scalar])


def test_delta_batch_nonfinite_status_matches_scalar(pure16):
    # w0 = s0^2 overflows in Im for the second: NONFINITE all the same, with
    # Delta and c nan, and no numpy warning reaches the caller
    settings = FlowSettings(max_steps=2000)
    # 1.0 padded to enough distinct keys for the numpy lockstep
    ones = [1.0 + 0.5 * k for k in range(flow._LOCKSTEP_ROWS[pure16.table[0]])]
    for s0 in (1e154, 1e154 + 1e154j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta, status = compute_delta_batch([s0, *ones], pure16, settings)
            c = compute_c_batch([s0, *ones], pure16, settings)
        assert status.tolist() == [_kernels.STATUS_NONFINITE] + [
            _kernels.STATUS_EVENT] * len(ones)
        assert np.isnan(delta[0]) and np.isnan(c[0]) and np.isfinite(c[1:]).all()
        with pytest.raises(NonFiniteFlowError):
            compute_delta(s0, pure16, settings)


def test_offset_batch_integrates_each_folded_value_once(pure16, monkeypatch):
    # repeats, mirrored pairs (+-s, conj s), +-0.0, an unresolved row and
    # a NaN: the folded offsets equal the per-row kernel bit for bit
    settings = FlowSettings(max_steps=2000)
    x = np.array([
        [3.0 + 2.0j, -3.0 - 2.0j, 3.0 - 2.0j, -3.0 + 2.0j, 3.0 + 2.0j],
        [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5.0j],
        [-5.0j, 2.0, -2.0, 1e154, complex(np.nan, 1.0)],
    ])
    rows = []

    def counted(s, *args, **kwargs):
        rows.append(np.size(s))
        return compute_delta_batch(s, *args, **kwargs)

    # through the module global, where tracers wrap it
    monkeypatch.setattr(flow, "compute_delta_batch", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        c = compute_c_batch(x, pure16, settings)
        delta, status = compute_delta_batch(x, pure16, settings, reading="real")
    assert rows == [6] and c.shape == x.shape
    assert status[13] == _kernels.STATUS_NONFINITE
    expect = [float.hex(float(v)) for v in np.abs(delta.real)]
    assert [float.hex(float(v)) for v in c.ravel()] == expect
    assert np.isnan(c.ravel()[[13, 14]]).all()


def test_pure_offset_scaling_law(rng):
    # in pure mode w = sqrt(eps) v maps the eps-flow onto the eps = 1
    # flow, so Delta_eps(eps^(1/4) s) = eps^(1/4) Delta_1(s)
    settings = FlowSettings(step_tolerance=1e-11)
    s = rng.uniform(-3.0, 3.0, 6) + 1j * rng.uniform(-3.0, 3.0, 6)
    unit = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    d1, st1 = compute_delta_batch(s, unit, settings)
    assert np.all(st1 == _kernels.STATUS_EVENT)
    for eps in (4.0, 16.0):
        q = eps**0.25
        params = SteinParams(alpha=1.5, epsilon=eps, smoothing="pure")
        d, st_eps = compute_delta_batch(q * s, params, settings)
        assert np.all(st_eps == _kernels.STATUS_EVENT)
        assert np.all(np.abs(d - q * d1) <= 1e-7 * (1.0 + np.abs(d)))


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_offset_matches_tight_reference(mode, rng):
    # c at the default tolerance against |Re Delta| read in the complex
    # rule at step tolerance 1e-13 with u_star doubled; a reading rule
    # that stops well before Re Delta settles misses by more than 1e-7
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    s = rng.uniform(-48.0, 48.0, 32) + 1j * rng.uniform(-48.0, 48.0, 32)
    c = compute_c_batch(s, params)
    ref, status = compute_delta_batch(
        s, params, FlowSettings(step_tolerance=1e-13), u_star_factor=2.0
    )
    assert np.all(status == _kernels.STATUS_EVENT)
    assert np.max(np.abs(c - np.abs(ref.real))) <= 1e-7


def test_cutoff_offsets_match_tight_reference(cutoff16, rng):
    # keys with |s| <= 6 start inside the profile knots |w| = 4, 6.66 and 16
    # and cross them; stepping onto each knot keeps c at the default
    # tolerance within 1e-8 of c at step tolerance 1e-13
    s = rng.uniform(0.0, 6.0, 24) + 1j * rng.uniform(0.0, 6.0, 24)
    c = compute_c_batch(s, cutoff16)
    ref = compute_c_batch(s, cutoff16, FlowSettings(step_tolerance=1e-13))
    assert np.all(np.isfinite(c))
    assert np.max(np.abs(c - ref)) <= 1e-8


def test_escape_times_match_tight_reference(pure16, rng):
    # label-agreement rows: at the default tolerance every status and event
    # sign equals that of a step tolerance 1e-13 run, and the escape times
    # are as close as the rows near the hypersurfaces allow
    n = 200
    z = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    s = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    X = np.column_stack([z.real, z.imag, (s * s).real, (s * s).imag])
    got = drive_batch(X.copy(), pure16, FlowSettings(), _kernels.EVENT_PAIR_ESCAPE)
    ref = drive_batch(X.copy(), pure16, FlowSettings(step_tolerance=1e-13),
                      _kernels.EVENT_PAIR_ESCAPE)
    assert np.all(ref[0] == _kernels.STATUS_EVENT)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[2], ref[2])
    err = np.abs(got[1] - ref[1])
    assert np.max(err) <= 1e-6 and np.median(err) <= 5e-10


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_is_equivariant_along_the_flow(mode, rng):
    # Delta = lim exp(-(alpha-1) t) sqrt(w(t)), so continuing the branch of
    # sqrt(w) along the orbit from s0 to s_tau gives Delta(s_tau) =
    # exp((alpha-1) tau) Delta(s0); unlike the scaling law, also in cutoff
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(step_tolerance=1e-12)
    s0 = rng.uniform(-48.0, 48.0, 40) + 1j * rng.uniform(-48.0, 48.0, 40)
    steps = rng.integers(20, 151, 40)  # tau = 0.01 steps in [0.2, 1.5]
    s = s0.copy()
    for k in range(steps.max()):
        go = steps > k
        w = s[go] * s[go]
        Y = np.column_stack([np.zeros((w.size, 2)), w.real, w.imag])
        status, _, _ = drive_batch(Y, params, settings, _kernels.EVENT_NONE,
                                   t_end=0.01)
        assert np.all(status == _kernels.STATUS_TIME_END)
        root = np.sqrt(Y[:, 2] + 1j * Y[:, 3])
        s[go] = np.where(np.abs(root - s[go]) <= np.abs(root + s[go]), root, -root)
    d0, status0 = compute_delta_batch(s0, params, settings)
    d, status = compute_delta_batch(s, params, settings)
    assert np.all(status0 == _kernels.STATUS_EVENT)
    assert np.all(status == _kernels.STATUS_EVENT)
    want = np.exp((params.alpha - 1.0) * 0.01 * steps) * d0
    assert np.all(np.abs(d - want) <= 1e-7 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_backward_flow_undoes_forward_flow(mode, rng):
    # the flow direction is the sign of the step; a sign slip in the z part
    # or in the w part alone misses the start by O(1)
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(step_tolerance=1e-11)
    n = flow._LOCKSTEP_ROWS[params.table[0]]  # enough rows for the numpy lockstep
    z = rng.uniform(-8.0, 8.0, (n, 2))
    s = rng.uniform(-8.0, 8.0, n) + 1j * rng.uniform(-8.0, 8.0, n)
    X = np.column_stack([z, (s * s).real, (s * s).imag])
    tol = 1e-6 * (1.0 + np.abs(X))
    for tau in (0.2, 0.5, 1.0):
        Y = X.copy()
        for direction in (1.0, -1.0):
            status, _, _ = drive_batch(Y, params, settings, _kernels.EVENT_NONE,
                                       t_end=tau, direction=direction)
            assert np.all(status == _kernels.STATUS_TIME_END)
        assert np.all(np.abs(Y - X) <= tol)
        back = [
            flow.flow_state_to_time(flow.flow_state_to_time(x, tau, params, settings),
                                    tau, params, settings, direction=-1.0)
            for x in X
        ]
        assert np.all(np.abs(np.array(back) - X) <= tol)


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_round_trip_at_the_default_tolerance(mode, rng):
    # w crosses the cutoff knots |w| = 4, 6.66 and 16 on many of these
    # rows, some only dipping across one and back within a step; the
    # kernels step onto every crossing, so cutoff returns as pure mode does
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    n = 200
    z = rng.uniform(-8.0, 8.0, (n, 2))
    s = rng.uniform(-8.0, 8.0, n) + 1j * rng.uniform(-8.0, 8.0, n)
    X = np.column_stack([z, (s * s).real, (s * s).imag])
    for tau in (0.2, 0.5, 1.0):
        Y = X.copy()
        for direction in (1.0, -1.0):
            status, _, _ = drive_batch(Y, params, FlowSettings(), _kernels.EVENT_NONE,
                                       t_end=tau, direction=direction)
            assert np.all(status == _kernels.STATUS_TIME_END)
        assert np.all(np.abs(Y - X) <= 1e-7 * (1.0 + np.abs(X)))


def test_unknown_reading_rule_is_rejected(pure16):
    # "complex-im" was a third rule: "complex", and |Im d| < 5e-9
    for reading in ("imag", "complex-im"):
        with pytest.raises(ValueError, match="reading") as info:
            compute_delta(1.0, pure16, reading=reading)
        assert "'complex'" in str(info.value) and "'real'" in str(info.value)
        with pytest.raises(ValueError, match="reading"):
            compute_delta_batch([1.0], pure16, reading=reading)


def test_delta_u_star_factor_consistency(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    s = 1.5 + 4.0j
    d1 = compute_delta(s, pure16, settings, u_star_factor=1.0)
    d2 = compute_delta(s, pure16, settings, u_star_factor=1.5)
    assert abs(d1 - d2) <= 1e-7 * (1.0 + abs(d1))


# --------------------------------------------------- Delta batches split by fork

needs_split = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only fork splits a batch",
)
_delta_rows = flow._delta_rows


def _split_keys():
    # 2,005 principal roots: far real ones converge at once, near ones
    # run out of time, and 1e154 (w overflows) and NaN end NONFINITE
    rng = np.random.default_rng(5)
    x = rng.uniform(64.0, 400.0, 1000)
    far = x + 1j * x * rng.uniform(-1e-10, 1e-10, 1000)
    near = rng.uniform(0.0, 48.0, 1000) + 1j * rng.uniform(-48.0, 48.0, 1000)
    return np.concatenate([far, near, [1e154, np.nan, 0.0, 1e-300, 3.0j]])


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _die_in_worker(W, args):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _delta_rows(W, args)


def _batch_without_pool(keys, params, settings):
    # runs in a pool worker: a nested pool would raise here
    concurrent.futures.ProcessPoolExecutor = _no_pool
    return compute_delta_batch(keys, params, settings)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was made")


@pytest.fixture()
def two_way(monkeypatch):
    """Two CPUs, the 1,000-row floor _split_keys is sized for, and a
    record of the worker count of each forked Delta batch."""
    counts = []
    run_forked = flow.run_forked

    def record(fn, jobs, workers):
        counts.append(workers)
        return run_forked(fn, jobs, workers)

    monkeypatch.setattr(flow, "available_cpus", lambda: 2)
    monkeypatch.setattr(flow, "_SPLIT_ROWS", 1000)
    monkeypatch.setattr(flow, "run_forked", record)
    return counts


@needs_split
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize("reading", ["complex", "real"])
def test_split_delta_batch_is_bit_identical(mode, reading, two_way):
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=1.0)
    keys = _split_keys()
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = complex_square(keys)
        delta, status = compute_delta_batch(keys, params, settings, reading)
        W = np.column_stack([w0.real, w0.imag])
        args = flow._delta_args(params, settings, reading, 1.0)
        n = keys.size
        want = (np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n), np.zeros(n))
        _kernels._delta_batch_np(W, *args, *want)
    assert two_way == [2]
    assert status.tolist() == want[0].tolist()
    assert set(status.tolist()) == {
        _kernels.STATUS_EVENT, _kernels.STATUS_TIME_END, _kernels.STATUS_NONFINITE,
    }
    event = status == _kernels.STATUS_EVENT
    assert _hex(delta.real[event]) == _hex(want[1][event])
    assert _hex(delta.imag[event]) == _hex(want[2][event])
    # the kernel returns no reading on a row that did not converge
    assert np.isnan(want[1][~event]).all() and np.isnan(want[2][~event]).all()
    assert np.isnan(delta.real[~event]).all() and np.isnan(delta.imag[~event]).all()


@needs_split
def test_split_delta_survives_a_dead_worker(pure16, two_way, monkeypatch):
    keys = _split_keys()
    w0 = keys * keys
    W = np.column_stack([w0.real, w0.imag])
    args = flow._delta_args(pure16, FlowSettings(max_time=1.0), "real", 1.0)
    monkeypatch.setattr(flow, "_delta_rows", _die_in_worker)
    with np.errstate(over="ignore", invalid="ignore"):
        got = flow._delta_split(W, args)
        want = _delta_rows(W, args)
    assert two_way == [2]
    for g, w in zip(got, want):
        assert _hex(g) == _hex(w)


@needs_split
def test_delta_batch_stays_serial(pure16, two_way, monkeypatch):
    settings = FlowSettings(max_time=0.5)
    keys = _split_keys()[:2000]
    # in a worker of a fork pool, as verify runs its suites
    with concurrent.futures.ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        in_worker = pool.submit(_batch_without_pool, keys, pure16, settings)
        in_worker = in_worker.result()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    below_floor = compute_delta_batch(keys[1:], pure16, settings)
    monkeypatch.setattr(flow, "can_fork", lambda: False)
    serial = compute_delta_batch(keys, pure16, settings)
    assert two_way == []
    tail = (serial[0][1:], serial[1][1:])
    for got, want in ((in_worker, serial), (below_floor, tail)):
        assert got[1].tolist() == want[1].tolist()
        assert _hex(got[0].real) == _hex(want[0].real)
        assert _hex(got[0].imag) == _hex(want[0].imag)


# ------------------------------------------------------------- event driving


def test_pair_escape_event():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    hit, t, state, _sign = first_event(
        SymPoint(1.0j, -1.0j).state(), _kernels.EVENT_PAIR_ESCAPE, params,
        FlowSettings(),
    )
    assert hit and t > 0.0
    assert abs(state[2]) > 1.0


def test_truncation_entry_time():
    params = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    hit, t, _, _ = first_event(
        SymPoint(-0.5, -10.0).state(), _kernels.EVENT_TRUNC_REGION, params,
        FlowSettings(),
    )
    assert hit
    # Re z1 = -0.5 e^{t/2} reaches -eps exactly at t = 2 ln 2
    assert t == pytest.approx(LN4, abs=1e-5)


# in V-: Re z1 = 15.84 within epsilon = 16, Re z2 = -48 below -2 epsilon; the
# first step carries Re z1 past epsilon
_IN_V_MINUS = SymPoint(15.84 + 1.0j, -48.0 + 0.5j)


@pytest.mark.parametrize("rows", ["row-loop", "lockstep"])
def test_a_start_inside_the_region_is_the_event(rows):
    # both drive kernels test the start state before their first attempt
    params = SteinParams(epsilon=16.0)
    settings = FlowSettings()
    x = _IN_V_MINUS.state()
    n = 1 if rows == "row-loop" else flow._LOCKSTEP_ROWS[params.table[0]]
    Y = np.array([x] * n)
    status, t, sign = drive_batch(Y, params, settings, _kernels.EVENT_V_ENTRY)
    assert (status == _kernels.STATUS_EVENT).all()
    assert (t == 0.0).all() and (sign == -1).all() and _hex(Y.ravel()) == _hex([*x] * n)
    hit, t, y, sign = first_event(x, _kernels.EVENT_V_ENTRY, params, settings)
    assert (hit, t, sign) == (True, 0.0, -1) and _hex(y) == _hex(x)


@pytest.mark.parametrize("rows", ["row-loop", "lockstep"])
@pytest.mark.parametrize("kind", [-1, 4, 7])
def test_an_unknown_event_kind_is_refused(pure16, kind, rows):
    # the scalar twin read no region for such a kind, the numpy one V-entry
    x = SymPoint(0.5 + 1.0j, -48.0 + 0.5j).state()
    n = 1 if rows == "row-loop" else flow._LOCKSTEP_ROWS[pure16.table[0]]
    with pytest.raises(ValueError, match="unknown event kind"):
        drive_batch(np.array([x] * n), pure16, FlowSettings(), kind)
    with pytest.raises(ValueError, match="unknown event kind"):
        first_event(x, kind, pure16, FlowSettings())


def test_first_event_raises_when_the_step_budget_runs_out():
    # it used to return hit False, read as "max_time elapsed", so the
    # caller below raised NoEscapeError
    params = SteinParams(epsilon=1.0)
    p = SymPoint(-0.5, -10.0)
    one_step = FlowSettings(max_steps=1)
    with pytest.raises(RuntimeError, match="step budget exhausted"):
        first_event(p.state(), _kernels.EVENT_TRUNC_REGION, params, one_step)
    with pytest.raises(RuntimeError, match="step budget exhausted") as info:
        sectors.check_truncation_absorbing(p, params, one_step)
    assert not isinstance(info.value, NoEscapeError)


# ----------------------------------------- scalar calls are one-row batches


def _front_end_rows(rng, n):
    # pair states with z and sqrt(w) in [-48, 48]^2, and their roots
    z = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    s = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    w = complex_square(s)
    return s, np.column_stack([z.real, z.imag, w.real, w.imag])


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_scalar_calls_are_their_batch_rows_bit_for_bit(mode, rng):
    # the batches have _LOCKSTEP_ROWS rows or more, so on the numpy backend
    # they run the lockstep and every scalar call the row loop
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=8.0, escape_radius=64.0)
    n = flow._LOCKSTEP_ROWS[params.table[0]] + 4
    s, X = _front_end_rows(rng, n)
    for reading in ("complex", "real"):
        delta, status = compute_delta_batch(s, params, reading=reading)
        assert (status == _kernels.STATUS_EVENT).all()
        scalar = [compute_delta(x, params, reading=reading) for x in s.tolist()]
        assert _hex(delta.real) == _hex([d.real for d in scalar])
        assert _hex(delta.imag) == _hex([d.imag for d in scalar])
    c = compute_c_batch(s, params)
    assert _hex(c) == _hex([compute_c(x, params) for x in s.tolist()])

    labels = sectors.classify_by_flow_batch(X, params, settings)
    points = [point_of(x) for x in X]
    assert labels.tolist() == [
        sectors.classify_by_flow(p, params, settings) for p in points
    ]
    # the batch labels the pair states of the points, as classify_by_flow does
    assert labels.tolist() == sectors.classify_by_flow_batch(
        [p.state() for p in points], params, settings).tolist()

    for kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_TRUNC_REGION,
                 _kernels.EVENT_V_ENTRY):
        Y = X.copy()
        status, t, sign = drive_batch(Y, params, settings, kind)
        for x, y, st_, t_, sg in zip(X, Y, status, t, sign):
            hit, t1, y1, sg1 = first_event(x, kind, params, settings)
            assert hit == (st_ == _kernels.STATUS_EVENT)
            assert _hex([t1, sg1]) == _hex([t_, sg]) and _hex(y1) == _hex(y)

    for direction in (1.0, -1.0):
        Y = X.copy()
        status, _, _ = drive_batch(Y, params, settings, _kernels.EVENT_NONE,
                                   t_end=0.3, direction=direction)
        assert (status == _kernels.STATUS_TIME_END).all()
        for x, y in zip(X, Y):
            got = flow.flow_state_to_time(x, 0.3, params, settings, direction)
            assert _hex(got) == _hex(y)


def _spy(monkeypatch, names):
    """Record, in order, which of the named _kernels functions run."""
    ran = []
    for name in names:
        kernel = getattr(_kernels, name)

        def spy(*args, _name=name, _kernel=kernel):
            ran.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(_kernels, name, spy)
    return ran


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_lockstep_runs_from_lockstep_rows_on(mode, rng, monkeypatch):
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=8.0, escape_radius=64.0)
    n = flow._LOCKSTEP_ROWS[params.table[0]]
    s, X = _front_end_rows(rng, n)
    ran = _spy(monkeypatch, ["_drive_batch", "_drive_batch_np",
                             "_delta_batch", "_delta_batch_np"])
    below = compute_delta_batch(s[:-1], params)
    at = compute_delta_batch(s, params)
    assert (at[1] == _kernels.STATUS_EVENT).all()
    Y_below, Y_at = X[:-1].copy(), X.copy()
    drive_below = drive_batch(Y_below, params, settings, _kernels.EVENT_PAIR_ESCAPE)
    drive_at = drive_batch(Y_at, params, settings, _kernels.EVENT_PAIR_ESCAPE)
    assert ran == ["_delta_batch", "_delta_batch_np", "_drive_batch", "_drive_batch_np"]
    for got, want in zip(below, at):
        assert _hex(got.real) == _hex(want.real[:-1])
        assert _hex(got.imag) == _hex(np.imag(want)[:-1])
    for got, want in zip(drive_below, drive_at):
        assert _hex(got) == _hex(want[:-1])
    assert _hex(Y_below.ravel()) == _hex(Y_at[:-1].ravel())


def test_scalar_calls_never_reach_the_lockstep(pure16, monkeypatch):
    def lockstep_attempt(*args):
        raise AssertionError("a scalar call ran the numpy lockstep")

    monkeypatch.setattr(_kernels, "_attempt_np", lockstep_attempt)
    settings = FlowSettings(max_time=8.0, escape_radius=64.0)
    p = SymPoint(3.0 + 1.0j, -5.0 + 2.0j)
    x = p.state()
    compute_delta(8.0 - 3.0j, pure16)
    compute_c(8.0 - 3.0j, pure16)
    sectors.classify_closed_form(p, pure16)
    sectors.hypersurface_point(-1, 8.0 - 3.0j, 1.0, pure16)
    sectors.classify_by_flow(p, pure16, settings)
    first_event(x, _kernels.EVENT_PAIR_ESCAPE, pure16, settings)
    flow.flow_state_to_time(x, 0.3, pure16, settings, direction=-1.0)
    integrate_flow(p, pure16, settings)


@pytest.mark.parametrize("value", [None, [1.0, 2.0]], ids=["none", "list"])
def test_compute_delta_refuses_a_non_number_with_type_error(pure16, value):
    # its complex() conversion comes before the batch call, which would
    # read None as a NaN row and a list as two rows
    with pytest.raises(TypeError):
        compute_delta(value, pure16)
