"""Flow integration, escape behavior, and offset readings."""

import concurrent.futures
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symsector import _kernels, flow
from symsector._accel import using_numba
from symsector.flow import (
    FlowSettings,
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
from symsector.geometry import SteinParams, SymPoint, sym2_potential

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
    # kappa = 2|w| overflows at |w| = 1e308, so every attempt is non-finite
    settings = FlowSettings(max_steps=2000)
    state = [1.0, 0.5, 1e308, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        status, t, _ = drive_batch(
            np.array([state]), pure16, settings, _kernels.EVENT_PAIR_ESCAPE
        )
        assert status[0] == _kernels.STATUS_NONFINITE and t[0] == 0.0
        with pytest.raises(NonFiniteFlowError):
            integrate_flow(state, pure16, settings, record=False)


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
    with pytest.raises(ValueError):
        FlowSettings(max_time=0.0)
    with pytest.raises(ValueError):
        FlowSettings(step_tolerance=-1.0)


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
    d = compute_delta(2.0 * eps, pure16, settings, reading="complex-im")
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
    seeds = np.array([0.5 + 0.1j, 8.0 - 3.0j, 0.0 + 5.0j])
    batch = compute_c_batch(seeds, pure16, settings)
    for s, c in zip(seeds, batch):
        assert compute_c(s, pure16, settings) == pytest.approx(float(c), rel=1e-12)


def test_delta_batch_nonfinite_status_matches_scalar(pure16):
    # w0 = s0^2 overflows in Im for the second: NONFINITE all the same, with
    # Delta and c nan, and no numpy warning reaches the caller
    settings = FlowSettings(max_steps=2000)
    for s0 in (1e154, 1e154 + 1e154j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta, status = compute_delta_batch([s0, 1.0], pure16, settings)
            c = compute_c_batch([s0, 1.0], pure16, settings)
        assert status.tolist() == [_kernels.STATUS_NONFINITE, _kernels.STATUS_EVENT]
        assert np.isnan(delta[0]) and np.isnan(c[0]) and np.isfinite(c[1])
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
    # or in the w part alone misses the start by O(1).  At the default
    # tolerance, cutoff rows whose w crosses the profile knots come back
    # only to about 1e-5: the error estimate does not see the kinks
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(step_tolerance=1e-11)
    z = rng.uniform(-8.0, 8.0, (8, 2))
    s = rng.uniform(-8.0, 8.0, 8) + 1j * rng.uniform(-8.0, 8.0, 8)
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


def test_unknown_reading_rule_is_rejected(pure16):
    with pytest.raises(ValueError, match="reading"):
        compute_delta(1.0, pure16, reading="imag")


def test_delta_u_star_factor_consistency(pure16):
    settings = FlowSettings(step_tolerance=1e-11)
    s = 1.5 + 4.0j
    d1 = compute_delta(s, pure16, settings, u_star_factor=1.0)
    d2 = compute_delta(s, pure16, settings, u_star_factor=1.5)
    assert abs(d1 - d2) <= 1e-7 * (1.0 + abs(d1))


# --------------------------------------------------- Delta batches split by fork

needs_split = pytest.mark.skipif(
    using_numba() or "fork" not in multiprocessing.get_all_start_methods(),
    reason="only the numpy backend splits, and only with fork",
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
    """Two CPUs, and a record of the process count of each Delta batch."""
    counts = []
    delta_workers = flow._delta_workers

    def workers(n):
        counts.append(delta_workers(n))
        return counts[-1]

    monkeypatch.setattr(flow, "available_cpus", lambda: 2)
    monkeypatch.setattr(flow, "_delta_workers", workers)
    return counts


@needs_split
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize("reading", ["complex", "real", "complex-im"])
def test_split_delta_batch_is_bit_identical(mode, reading, two_way):
    params = SteinParams(alpha=1.5, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=1.0)
    keys = _split_keys()
    w0 = keys * keys
    with np.errstate(over="ignore", invalid="ignore"):
        delta, status = compute_delta_batch(keys, params, settings, reading)
        W = np.column_stack([w0.real, w0.imag])
        args = flow._delta_args(params, settings, reading, 1.0)
        n = keys.size
        want = (np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n), np.zeros(n))
        _kernels.delta_batch_kernel(W, *args, *want)
    assert two_way == [2]
    assert status.tolist() == want[0].tolist()
    assert set(status.tolist()) == {
        _kernels.STATUS_EVENT, _kernels.STATUS_TIME_END, _kernels.STATUS_NONFINITE,
    }
    event = status == _kernels.STATUS_EVENT
    assert _hex(delta.real[event]) == _hex(want[1][event])
    assert _hex(delta.imag[event]) == _hex(want[2][event])
    assert np.isnan(delta[~event]).all()


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
    monkeypatch.setattr(flow, "using_numba", lambda: True)
    serial = compute_delta_batch(keys, pure16, settings)
    assert two_way == [1, 1]
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
