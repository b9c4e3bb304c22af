"""Parity of the scalar kernels with their vectorized numpy twins.

The scalar kernels (jit-compiled when numba is present) and the numpy
batch kernels evaluate the same formulas in the same order, so they are
required to agree exactly, not to a tolerance.  Two pairs are the
exception, because their DP5 steps group the stage products differently
(h (a f) in the lockstep attempt, (h a) f in the scalar steps) and so
round apart on a few rows: the Delta kernels agree in status and to
1e-8 (1 + |Delta|), and the drive kernels agree in status and event sign,
at events in time and state to 1e-12 (1 + |x|), and elsewhere to
1e-6 (1 + |x|), since a step one twin accepts the other may retry.
"""

import itertools
import math

import numpy as np
import pytest

from symsector import _kernels, flow, smoothing
from symsector._accel import using_numba
from symsector.flow import FlowSettings
from symsector.geometry import SteinParams, SymPoint
from symsector.sectors import (
    U_MM,
    U_MP,
    U_PP,
    UNRESOLVED,
    classify_by_flow,
    classify_by_flow_batch,
)

ALPHA = 1.5


def _radii(mode):
    table = SteinParams(epsilon=16.0, smoothing=mode).table
    if mode == "pure":
        # the closed form in rho2 = r^2 + eps up to R_BIG, x = eps/r^2 beyond
        return table, [0.0, 1e-3, 0.7, 4.0, 15.0, 16.0, 40.0, 1e4, 1e100,
                       np.nextafter(1e100, np.inf), 1e103, 1e160, 1e300]
    r0, rm, r1 = table[2:5]
    return table, [
        0.0, 0.5 * r0, np.nextafter(r0, 0.0),  # inner
        r0, 0.5 * (r0 + rm),  # segment 1
        rm, 0.5 * (rm + r1), np.nextafter(r1, 0.0),  # segment 2
        r1, 2.0 * r1, 1e4,  # outer
    ]


def _w_rows(radii):
    # hypot(+-r, 0) and hypot(0, r) are exactly r, so the knots are hit
    rows = []
    for r in radii:
        rows += [(r, 0.0), (-r, 0.0), (0.0, r), (0.6 * r, -0.8 * r)]
    return np.array(rows)


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_rhs_w_twins_agree_exactly(mode):
    table, radii = _radii(mode)
    if mode == "cutoff":
        r = np.asarray(radii)
        r0, rm, r1 = table[2:5]
        # every branch of the profile is sampled
        assert (r < r0).any() and ((r >= r0) & (r < rm)).any()
        assert ((r >= rm) & (r < r1)).any() and (r >= r1).any()
    W = _w_rows(radii)
    vec = _kernels._rhs_w_np(W, ALPHA, table)
    assert np.isfinite(vec).all()
    for (y2, y3), row in zip(W.tolist(), vec.tolist()):
        assert tuple(_kernels._rhs2(y2, y3, ALPHA, table)) == tuple(row)
    # _rhs_z is the z-part of _rhs_np, here fed the w rows as z values
    Y = np.column_stack([W, W])
    full = _kernels._rhs_np(Y, ALPHA, table)
    assert np.array_equal(full[:, 2:], vec)
    for (y0, y1), row in zip(W.tolist(), full[:, :2].tolist()):
        assert _kernels._rhs_z(y0, y1, ALPHA, table) == tuple(row)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("reading", ["complex", "real", "complex-im"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_twins_agree(mode, reading):
    # not bitwise twins: the lockstep attempt groups its stage products as
    # h (a f), the scalar step as (h a) f, so the trajectories round apart
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    args = flow._delta_args(params, FlowSettings(max_steps=2000), reading, 1.0)
    rng = np.random.default_rng(3)
    s = rng.uniform(-48.0, 48.0, 24) + 1j * rng.uniform(-48.0, 48.0, 24)
    w = np.append(s * s, 1e308)  # kappa = 2|w| overflows: STATUS_NONFINITE
    W = np.column_stack([w.real, w.imag])
    n = len(W)
    status = np.zeros(n, dtype=np.int64)
    d_re, d_im, t = np.zeros(n), np.zeros(n), np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        _kernels._delta_batch_np(W, *args, status, d_re, d_im, t)
        for k, (xw, yw) in enumerate(W.tolist()):
            got, re_k, im_k, _ = _kernels._delta_one(xw, yw, *args)
            assert got == status[k]
            if got == _kernels.STATUS_EVENT:
                d = complex(d_re[k], d_im[k])
                assert abs(complex(re_k, im_k) - d) <= 1e-8 * (1.0 + abs(d))
    assert status[-1] == _kernels.STATUS_NONFINITE
    assert np.all(status[:-1] == _kernels.STATUS_EVENT)


@pytest.mark.parametrize("reading", ["complex", "real", "complex-im"])
def test_delta_twins_spend_the_same_step_budget(reading):
    # three attempts take w0 = 9 + 40i to t = 0.0633, long before a reading
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing="pure")
    args = flow._delta_args(params, FlowSettings(max_steps=3), reading, 1.0)
    status = np.zeros(1, dtype=np.int64)
    d_re, d_im, t = np.zeros(1), np.zeros(1), np.zeros(1)
    _kernels._delta_batch_np(np.array([[9.0, 40.0]]), *args, status, d_re, d_im, t)
    got, re_k, im_k, t_k = _kernels._delta_one(9.0, 40.0, *args)
    assert got == status[0] == _kernels.STATUS_TIME_END
    assert t_k == t[0] == pytest.approx(0.06331595106659027, rel=1e-12)
    assert np.isnan([re_k, im_k, d_re[0], d_im[0]]).all()


@pytest.mark.parametrize("reading", ["complex", "real", "complex-im"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_twins_on_the_negative_real_axis(mode, reading):
    # sqrt(w0) is +i or -i times sqrt(-w0) by the sign of the zero Im w0,
    # but no reading is taken before w has drifted right, and the first
    # accepted step sets Im w to +0.0: both zeros give the same bits
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    args = flow._delta_args(params, FlowSettings(max_steps=2000), reading, 1.0)
    W = np.array([[x, z] for x in (-0.5, -40.0, -900.0) for z in (0.0, -0.0)])
    n = len(W)
    status = np.zeros(n, dtype=np.int64)
    d_re, d_im, t = np.zeros(n), np.zeros(n), np.zeros(n)
    _kernels._delta_batch_np(W, *args, status, d_re, d_im, t)
    scalar = [_kernels._delta_one(xw, yw, *args) for xw, yw in W.tolist()]
    assert [r[0] for r in scalar] == status.tolist()
    assert np.all(status == _kernels.STATUS_EVENT)
    for k in range(0, n, 2):
        assert scalar[k] == scalar[k + 1]
        assert _bits(d_re[k], d_im[k], t[k]) == _bits(d_re[k + 1], d_im[k + 1], t[k + 1])
    if mode == "pure":
        # in cutoff mode these rows cross the profile knots radially, where
        # the step controller rejects many attempts and the twins end up to
        # 1.3e-7 (1 + |Delta|) apart: that mode is held to statuses only
        for (_, re_k, im_k, _), dr, di in zip(scalar, d_re, d_im):
            d = complex(dr, di)
            assert abs(complex(re_k, im_k) - d) <= 1e-8 * (1.0 + abs(d))


@pytest.mark.parametrize("h_max", [0.1, 0.01])
def test_step_controller_twins_agree_exactly(h_max):
    errs = [1e-40, 1e-3, 0.5, 1.0, 3.0, 1e9]
    h_use = 0.03
    vec = _kernels._next_h_np(np.array(errs), np.full(len(errs), h_use), h_max)
    assert [_kernels._next_h(e, h_use, h_max) for e in errs] == vec.tolist()


def test_pair_re_twins_agree_exactly():
    rng = np.random.default_rng(7)
    x = rng.uniform(-50.0, 50.0, 64)
    w = rng.uniform(-50.0, 50.0, 64) + 1j * rng.uniform(-50.0, 50.0, 64)
    # the negative real axis, where |w| + Re w may round below zero
    w[:8] = -rng.uniform(0.0, 50.0, 8) + 1j * rng.uniform(-1e-12, 1e-12, 8)
    r = np.abs(w)
    hi, lo = _kernels.pair_re_np(x, w.real, r)
    for k in range(x.size):
        got = _kernels._pair_re(float(x[k]), float(w.real[k]), float(r[k]))
        assert got == (hi[k], lo[k])


@pytest.mark.parametrize("epsilon", [2.5, 16.0])
def test_cutoff_kappa_shrink_reads_smoothing_profile(epsilon):
    table = SteinParams(epsilon=epsilon, smoothing="cutoff").table
    r = np.linspace(table[2], table[4], 2001)
    kappa, shrink = _kernels._kappa_shrink_np(r, table)
    mp = smoothing.norm_m_prime(r, table)
    assert np.array_equal(kappa, 2.0 * r / mp)
    assert np.array_equal(shrink, smoothing.norm_m(r, table) / (r * mp))


def _event_rows(epsilon, rng):
    x = rng.uniform(-4.0 * epsilon, 4.0 * epsilon, 20000)
    w = rng.uniform(-1.0, 1.0, (20000, 2)) * (4.0 * epsilon) ** 2
    rows = [np.column_stack([x, np.zeros_like(x), w])]
    # real w = u^2 gives pair coordinates x +- u exactly, so these rows
    # sit on the region boundaries x = +-eps, +-2 eps and x1 + x2 = -3 eps
    xs = epsilon * np.arange(-4.0, 4.5, 0.5)
    us = epsilon * np.arange(0.0, 4.5, 0.5)
    for u in us:
        for re_w in (u * u, -u * u):
            rows.append([(xk, 0.0, re_w, 0.0) for xk in xs])
    rows.append([(xk, 0.0, 0.0, epsilon) for xk in xs])  # |w| = eps
    return np.vstack(rows)


@pytest.mark.parametrize(
    "kind",
    [_kernels.EVENT_NONE, _kernels.EVENT_PAIR_ESCAPE,
     _kernels.EVENT_TRUNC_REGION, _kernels.EVENT_V_ENTRY],
    ids=["none", "pair-escape", "trunc-region", "v-entry"],
)
def test_event_twins_agree_exactly(kind):
    epsilon = 16.0
    radius = 2.0 * epsilon
    Y = _event_rows(epsilon, np.random.default_rng(5))
    hit, sign = _kernels._event_np(Y, radius, epsilon, kind)
    if kind != _kernels.EVENT_NONE:
        assert hit.any() and not hit.all()
    for row, h, sg in zip(Y.tolist(), hit.tolist(), sign.tolist()):
        got = _kernels._event_val(*row, radius, epsilon, kind)
        assert (bool(got[0]), int(got[1])) == (h, sg)


# two rows inside each region at t = 0, with the event signs they take
_INSIDE = {
    _kernels.EVENT_PAIR_ESCAPE: [(300.0, 0.0, 1e4, 0.0), (-300.0, 0.0, 1e4, 0.0)],
    _kernels.EVENT_TRUNC_REGION: [(-40.0, 0.0, 4.0, 0.0), (-60.0, 0.0, 100.0, 0.0)],
    _kernels.EVENT_V_ENTRY: [(-20.0, 0.0, 400.0, 0.0), (20.0, 0.0, 400.0, 0.0)],
}


def _drive_both(rows, args, t_end, fdir):
    """(status, t, sign, states) of the numpy batch and of the scalar kernel."""
    n = len(rows)
    Y = np.array(rows)
    status, sign = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    t = np.zeros(n)
    rec = np.empty((1, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        _kernels._drive_batch_np(Y, 0.0, t_end, *args, status, t, sign, fdir)
        res = [_kernels._drive(*row, 0.0, t_end, *args, rec, False, fdir)
               for row in rows]
    scalar = [np.array([r[k] for r in res]) for k in (0, 1, 6)]
    return (status, t, sign, Y), (*scalar, np.array([r[2:6] for r in res]))


def _assert_twins(batch, scalar):
    status, t, sign, Y = batch
    assert np.array_equal(status, scalar[0])
    assert np.array_equal(sign, scalar[2])
    # an attempt whose error estimate the twins round to either side of
    # 1.0 is accepted by one and retried by the other, after which their
    # trajectories differ at the step tolerance; the event rows here keep
    # one step sequence, so their refinement is checked to 1e-12
    ev = status == _kernels.STATUS_EVENT
    rel = np.where(ev, 1e-12, 1e-6)
    assert np.all(np.abs(t - scalar[1]) <= rel * (1.0 + np.abs(scalar[1])))
    assert np.all(np.abs(Y - scalar[3]) <= rel[:, None] * (1.0 + np.abs(scalar[3])))


@pytest.mark.parametrize("fdir", [1.0, -1.0], ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize(
    "kind",
    [_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_TRUNC_REGION,
     _kernels.EVENT_V_ENTRY],
    ids=["pair-escape", "trunc-region", "v-entry"],
)
def test_drive_twins_agree_on_events(kind, mode, fdir):
    # the numpy batch refines all its events after the lockstep, the
    # scalar kernel bisects each one as it is found
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    args = flow._drive_args(params, settings, kind)
    rng = np.random.default_rng(5)
    z = rng.uniform(-48.0, 48.0, (8, 2))
    s = rng.uniform(-48.0, 48.0, 8) + 1j * rng.uniform(-48.0, 48.0, 8)
    flowing = [(x, y, (v * v).real, (v * v).imag) for (x, y), v in zip(z, s)]
    # the inside rows hit in the first lockstep iteration, the flowing ones
    # later and apart; w = 1e308 overflows kappa: STATUS_NONFINITE
    rows = flowing + _INSIDE[kind] + [(1.0, 0.5, 1e308, 0.0)]
    batch, scalar = _drive_both(rows, args, 4.0, fdir)
    _assert_twins(batch, scalar)
    status, _, sign, _ = batch
    assert np.all(status[8:10] == _kernels.STATUS_EVENT)
    assert status[10] == _kernels.STATUS_NONFINITE
    if kind == _kernels.EVENT_V_ENTRY:
        assert sign[8:10].tolist() == [-1, 1]
    # the upward flow shrinks both pair coordinates, so it never enters
    # the escape region from outside
    if not (kind == _kernels.EVENT_PAIR_ESCAPE and fdir == -1.0):
        assert (status[:8] == _kernels.STATUS_EVENT).any()
    # a batch in which no row reaches the region
    missed = [row for row, st in zip(flowing, status)
              if st != _kernels.STATUS_EVENT]
    batch, scalar = _drive_both(missed, args, 4.0, fdir)
    _assert_twins(batch, scalar)
    assert missed and np.all(batch[0] == _kernels.STATUS_TIME_END)


def test_drive_twins_agree_on_stalls():
    # at epsilon = 1e-30 the flow from (0, 1e-9 i, 0) slows below the stall
    # speed at t = 1.841, and the critical point stalls at once
    params = SteinParams(alpha=ALPHA, epsilon=1e-30, smoothing="pure")
    settings = FlowSettings()
    args = flow._drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE)
    rows = [(0.0, 1e-9, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
    batch, scalar = _drive_both(rows, args, settings.max_time, 1.0)
    _assert_twins(batch, scalar)
    assert np.all(batch[0] == _kernels.STATUS_STALLED)
    assert batch[1][0] == pytest.approx(1.841, abs=1e-3) and batch[1][1] == 0.0
    for row in rows:
        traj = flow.integrate_flow(np.array(row), params, settings, record=False)
        assert traj.termination == flow.TERM_NEAR_CRITICAL


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_batch_rows_are_independent(mode):
    # a row's outputs are the same bits alone and at any place in a larger
    # batch, so callers may join batches (offset-evenness runs three as one)
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    rng = np.random.default_rng(9)
    s = rng.uniform(-48.0, 48.0, 10) + 1j * rng.uniform(-48.0, 48.0, 10)
    s = np.append(s, [2.0j, -2.0j, 1e154])  # w0 on the negative axis; overflow
    perm = rng.permutation(s.size)
    d, status = flow.compute_delta_batch(s, params, settings, reading="real")
    d_p, status_p = flow.compute_delta_batch(s[perm], params, settings, reading="real")
    assert _bits(d[perm], status[perm]) == _bits(d_p, status_p)
    for k in (0, 10, 12):
        d_k, status_k = flow.compute_delta_batch(s[k:k + 1], params, settings,
                                                 reading="real")
        assert _bits(d[k:k + 1], status[k:k + 1]) == _bits(d_k, status_k)
    assert status[-1] == _kernels.STATUS_NONFINITE

    kind = _kernels.EVENT_PAIR_ESCAPE
    z = rng.uniform(-48.0, 48.0, (8, 2))
    Y = np.column_stack([z, (s[:8] * s[:8]).real, (s[:8] * s[:8]).imag])
    Y = np.vstack([Y, _INSIDE[kind], [(1.0, 0.5, 1e308, 0.0)]])
    perm = rng.permutation(len(Y))
    Y_all, Y_p = Y.copy(), Y[perm]
    out = flow.drive_batch(Y_all, params, settings, kind, t_end=4.0)
    out_p = flow.drive_batch(Y_p, params, settings, kind, t_end=4.0)
    assert _bits(Y_all[perm], *(o[perm] for o in out)) == _bits(Y_p, *out_p)
    for k in (0, 8, 10):
        Y_k = Y[k:k + 1].copy()
        out_k = flow.drive_batch(Y_k, params, settings, kind, t_end=4.0)
        assert _bits(Y_all[k:k + 1], *(o[k:k + 1] for o in out)) == _bits(Y_k, *out_k)
    assert (out[0][:8] == _kernels.STATUS_EVENT).any()


@pytest.mark.parametrize(
    "p, settings, want",
    [
        (SymPoint(-40.0, -64.0 + 1.0j), FlowSettings(), U_MM),
        (SymPoint(30.0 + 1.0j, -30.0), FlowSettings(), U_MP),
        (SymPoint(40.0, 64.0 + 1.0j), FlowSettings(), U_PP),
        (SymPoint(1.0j, -1.0j), FlowSettings(max_time=0.5), UNRESOLVED),
        # w = 1e308: the kernels end the row STATUS_NONFINITE
        (SymPoint(1e154, -1e154), FlowSettings(max_steps=2000), UNRESOLVED),
        # step budget spent: STATUS_RUNNING
        (SymPoint(-40.0, -64.0 + 1.0j), FlowSettings(max_steps=3), UNRESOLVED),
    ],
    ids=["U_MM", "U_MP", "U_PP", "time-end", "nonfinite", "running"],
)
def test_flow_label_scalar_matches_batch(pure16, p, settings, want):
    label = classify_by_flow(p, pure16, settings)
    assert label == want
    assert list(classify_by_flow_batch([p.state()], pure16, settings)) == [label]


def _same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    nan = np.isnan(got) & np.isnan(want)
    return bool(np.all(nan | (got.view(np.uint64) == want.view(np.uint64))))


_EDGE = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-320,
         2.2250738585072014e-308, 1e-300, 1.0, -3.0, 1e300, 1e307, -1e307]


def test_complex_abs_is_bitwise_np_hypot():
    # the scalar kernels take |w| as abs(complex(x, y)): CPython calls libm
    # hypot there, as np.hypot does (math.hypot rounds some pairs apart)
    rng = np.random.default_rng(11)
    n = 120_000
    mant = rng.uniform(1.0, 10.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
    xy = mant * 10.0 ** rng.integers(-300, 301, (n, 2))
    xy = np.vstack([xy, list(itertools.product(_EDGE, repeat=2))])
    got = [abs(complex(x, y)) for x, y in xy.tolist()]
    assert _same_bits(got, np.hypot(xy[:, 0], xy[:, 1]))


def test_hypot_matches_np_hypot_where_it_overflows():
    # abs(complex) raises OverflowError there; _hypot halves both first
    big = [1.7976931348623157e308, -1.2e308, 1e308, np.nextafter(1e308, 0.0)]
    rng = np.random.default_rng(12)
    xy = rng.uniform(-1.79, 1.79, (20_000, 2)) * 1e308
    xy = np.vstack([xy, list(itertools.product(_EDGE + big, repeat=2))])
    got = [_kernels._hypot(x, y) for x, y in xy.tolist()]
    assert all(type(v) is float for v in got)
    with np.errstate(over="ignore"):
        want = np.hypot(xy[:, 0], xy[:, 1])
    assert np.isinf(want[np.isfinite(xy).all(axis=1)]).any()
    assert _same_bits(got, want)


@pytest.mark.skipif(using_numba(), reason="plain-Python scalar kernels only")
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_scalar_kernels_stay_on_builtin_floats(mode):
    # the front ends pass the table as a tuple of floats, so no numpy
    # scalar enters the arithmetic of the plain-Python kernels
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_steps=20000)
    table = params.scalar_table
    for r in _radii(mode)[1]:
        assert all(type(v) is float for v in _kernels._w_terms(float(r), ALPHA, table))
    args = flow._drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE, scalar=True)
    state = SymPoint(-40.0, -64.0 + 1.0j).state().tolist()
    res = _kernels._drive(*state, 0.0, 60.0, *args, np.empty((1, 5)), False, 1.0)
    assert res[0] == _kernels.STATUS_EVENT
    assert all(type(v) is float for v in res[1:6])
    for reading in flow._READINGS:
        args = flow._delta_args(params, settings, reading, 1.0, scalar=True)
        res = _kernels._delta_one(300.0, 400.0, *args)
        assert res[0] == _kernels.STATUS_EVENT
        assert all(type(v) is float for v in res[1:])


_HOSTILE = [math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7e308, 1e-320]
_HOSTILE_W = sorted(
    {(a, b) for a in _HOSTILE for b in (0.0, a)}
    | {(0.0, b) for b in _HOSTILE}
    | {(1e308, 1.7e308), (1.7e308, -1.7e308), (1e-320, math.inf)},
    key=repr,
)


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_scalar_kernels_end_hostile_rows_with_a_status(mode):
    # built-in floats raise where numpy scalars only warned: x / 0.0,
    # ** and abs(complex) past the float range, math.sqrt below zero
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=4.0, max_steps=2000)
    rec = np.empty((1, 5))
    ends = []
    for kind, fdir in itertools.product(range(4), (1.0, -1.0)):
        args = flow._drive_args(params, settings, kind, scalar=True)
        for w in _HOSTILE_W:
            ends.append(
                (w, _kernels._drive(1.0, 0.5, *w, 0.0, 4.0, *args, rec, False, fdir)[0])
            )
    for reading in flow._READINGS:
        args = flow._delta_args(params, settings, reading, 1.0, scalar=True)
        ends += [(w, _kernels._delta_one(*w, *args)[0]) for w in _HOSTILE_W]
    for w, status in ends:
        if all(abs(v) < 1e-300 for v in w):
            assert status in (_kernels.STATUS_EVENT, _kernels.STATUS_TIME_END)
        else:
            assert status == _kernels.STATUS_NONFINITE
