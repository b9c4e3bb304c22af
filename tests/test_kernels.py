"""Parity of the scalar kernels with their vectorized numpy twins.

The plain-Python scalar kernels and the numpy batch kernels evaluate the
same formulas in the same order, with the same correctly rounded
operations, so they are required to agree exactly, not to a tolerance:
each formula, and each whole trajectory of the drive kernels, Delta rows
included, status, time and state alike.
"""

import collections
import inspect
import itertools
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from symsector import _kernels, flow, smoothing
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
    # the u-frame twins, on u rows whose s = (ea u0, eb u1) has |s|^2 near
    # each radius; the factors of tau = 0 are 1.0, so there |s|^2 is r
    S = _w_rows(np.sqrt(radii))
    tau = np.where(np.arange(len(S)) % 2, np.linspace(-2.0, 2.0, len(S)), 0.0)
    ea, eb = _kernels._factors(ALPHA, tau)
    U = S / np.column_stack([ea, eb])
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 gives nan
        vec = _kernels._rhs_u_np(U, ea, eb, ALPHA, table)
    rows = zip(U.tolist(), ea.tolist(), eb.tolist(), vec.tolist())
    for (u0, u1), a, b, row in rows:
        got = _kernels._rhs_u(u0, u1, ALPHA, (table, (a,), (b,)), 0)
        assert _bits(got) == _bits(row)
    if mode == "cutoff":
        # beyond the outer knot s moves linearly, so u does not move at all
        outside = (_kernels._sum_sq(S) >= table[4]) & (tau == 0.0)
        assert outside.any() and not vec[outside].any()


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_u_frame_rhs_is_the_w_flow(mode):
    # u' = e^(-L tau) (G(s) - L s) with G(s) = w'(s^2) / (2 s): against that
    # definition, from _rhs2 in complex arithmetic, which cancels where the
    # kernel's closed form in x = eps/r^2 does not
    table = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode).table
    rng = np.random.default_rng(4)
    s = (rng.uniform(-1.0, 1.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400)) * 10.0 ** (
        rng.uniform(0.0, 3.0, 400))
    s = s[np.abs(s) ** 2 >= 4.0]  # the pure form and every cutoff segment
    tau = rng.uniform(-2.0, 2.0, s.size)
    ea, eb = _kernels._factors(ALPHA, tau)
    for sk, a, b in zip(s.tolist(), ea.tolist(), eb.tolist()):
        w = sk * sk
        g = complex(*_kernels._rhs2(w.real, w.imag, ALPHA, table)) / (2.0 * sk)
        ls = complex((ALPHA - 1.0) * sk.real, -ALPHA * sk.imag)
        d = g - ls
        want = (d.real / a, d.imag / b)
        got = _kernels._rhs_u(sk.real / a, sk.imag / b, ALPHA, (table, (a,), (b,)), 0)
        scale = 1e-13 * abs(ls)
        assert abs(got[0] - want[0]) * a <= scale and abs(got[1] - want[1]) * b <= scale


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _delta_both(W, params, settings):
    """Both drive twins on the Delta rows [0, 0, Re w0, Im w0] of W, to
    max_time; they must give the same bits, and end STATUS_EVENT only
    inside the Delta region.  Returns (status, t, sign, states)."""
    args = flow._drive_args(params, settings, _kernels.EVENT_DELTA)
    rows = [(0.0, 0.0, x, y) for x, y in np.asarray(W, dtype=float).tolist()]
    batch, scalar = _drive_both(rows, args, settings.max_time, 1.0)
    _assert_twins(batch, scalar)
    _assert_events_hold(batch, args)
    return batch


def _delta_starts(start, rng, n):
    """n keys s0 drawn from [-48, 48]: off both axes for start "complex",
    and alternately on the real and the imaginary axis for start "real",
    where w0 = s0^2 is real with Im w0 = +-0."""
    if start == "complex":
        return rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    return rng.uniform(-48.0, 48.0, n) * np.where(np.arange(n) % 2, 1.0, 1j)


# keys whose Delta rows run out of max_time = 1, by start
_SLOW_STARTS = {
    "complex": [0.1 + 40.0j, 2.0 + 2.0j, 10.0 + 10.0j, 0.5 - 20.0j],
    "real": [2.0, 10.0, 20.0j, 0.5j],
}


@pytest.mark.parametrize("start", ["complex", "real"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_twins_agree(mode, start):
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    s = _delta_starts(start, np.random.default_rng(3), 24)
    # w = -1e308 starts outside the region, and kappa = 2|w| overflows:
    # STATUS_NONFINITE; w = 1e308 starts inside it
    w = np.append(s * s, [-1e308, 1e308])
    settings = FlowSettings(max_steps=2000)
    status, t = _delta_both(np.column_stack([w.real, w.imag]), params, settings)[:2]
    assert status[-2] == _kernels.STATUS_NONFINITE
    assert status[-1] == _kernels.STATUS_EVENT and t[-1] == 0.0
    assert np.all(status[:-2] == _kernels.STATUS_EVENT) and (t[:-2] > 0.0).any()
    # rows stopped by max_time
    settings = FlowSettings(max_time=1.0, max_steps=2000)
    w = np.array(_SLOW_STARTS[start]) ** 2
    status = _delta_both(np.column_stack([w.real, w.imag]), params, settings)[0]
    assert (status == _kernels.STATUS_TIME_END).any()


@pytest.mark.parametrize("start, w0, t_end", [
    ("complex", (9.0, 40.0), 0.46949795488546775),
    ("real", (-1600.0, 0.0), 0.3386199784153654),
], ids=["complex", "real"])
def test_delta_twins_spend_the_same_step_budget(start, w0, t_end):
    # three attempts take w0 = 9 + 40i to t = 0.4695, and w0 = -1600
    # (s0 = 40i, Re s0 = 0) to t = 0.3386, long before |Re s| reaches s_star
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing="pure")
    settings = FlowSettings(max_steps=3)
    status, t = _delta_both([w0], params, settings)[:2]
    assert status[0] == _kernels.STATUS_RUNNING
    assert t[0] == pytest.approx(t_end, rel=1e-12)
    with pytest.raises(flow.NoEscapeError):
        flow.compute_delta(complex(np.sqrt(complex(*w0))), params, settings)


@pytest.mark.parametrize("start", ["complex", "real"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_twins_on_the_negative_real_axis(mode, start):
    # sqrt(w0) is +i or -i times sqrt(-w0) by the sign of the zero Im w0,
    # but Re s is 0 there, and the region is entered only once w has
    # drifted right: both zeros give the same status, time and Delta.
    # Start "complex" takes w0 just off the axis, on either side of the
    # branch cut of sqrt: the flow of conj(w0) is the conjugate of the flow
    # of w0, so both sides give the same status, time and Re Delta too.
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_steps=2000)
    side = (0.0,) if start == "real" else (1e-3, 1e-200)
    W = np.array([[x, z] for x in (-0.5, -40.0, -900.0) for y in side for z in (y, -y)])
    # in cutoff mode these rows cross the profile knots radially, which the
    # kernels land on as step boundaries, as bitwise twins in both modes
    status = _delta_both(W, params, settings)[0]
    assert np.all(status == _kernels.STATUS_EVENT)
    args = (settings.max_time, *flow._drive_args(params, settings, _kernels.EVENT_DELTA))
    rows = flow._delta_rows(W, args)
    for k in range(0, len(W), 2):
        assert _bits(*(o[k] for o in rows)) == _bits(*(o[k + 1] for o in rows))


@pytest.mark.parametrize("h_max", [0.1, 0.01])
def test_step_controller_twins_agree_exactly(h_max):
    # every factor from its clip at 10 to its clip at 0.2, and the halving
    # of a non-finite attempt
    rng = np.random.default_rng(6)
    errs = [0.0, 1e-40, 1e-3, 0.5, 1.0, 3.0, 1e9, math.inf, math.nan]
    errs += (10.0 ** rng.uniform(-12.0, 8.0, 200)).tolist()
    h_use = 0.03
    vec = _kernels._next_h_np(np.array(errs), np.full(len(errs), h_use), h_max)
    assert [_kernels._next_h(e, h_use, h_max) for e in errs] == vec.tolist()


def _frames(mode, rng, n):
    """Random (rhs_np, scalar rhs, context of stage k, pair rows) of both frames.

    The w-frame rows are w, the u-frame rows u with their attempts from
    random times t; the scalar context of an attempt of size h from t is
    its table, or the frame of _rhs_u (what _drive passes to _advance).
    """
    table = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode).table
    t = rng.uniform(0.0, 3.0, n)

    def w_rhs(Z, k, t, h):
        return _kernels._rhs_w_np(Z, ALPHA, table)

    def u_rhs(Z, k, t, h):
        tau = t + _kernels.FRAME_NODES[k] * h
        return _kernels._rhs_u_np(Z, *_kernels._factors(ALPHA, tau), ALPHA, table)

    def u_frame(tk, hk):
        ea, eb = _kernels._factors(ALPHA, tk + _kernels._STEP_NODES * hk)
        da, db = _kernels._factors(ALPHA, tk + _kernels._DENSE_NODES * hk)
        return table, ea.tolist() + da.tolist(), eb.tolist() + db.tolist()

    Y = rng.uniform(-48.0, 48.0, (n, 2)) * 10.0 ** rng.integers(-2, 3, (n, 1))
    Y[np.hypot(Y[:, 0], Y[:, 1]) < 1.0] += 3.0  # away from w = 0 and s = 0
    return t, [(w_rhs, _kernels._rhs2, lambda tk, hk: table, Y),
               (u_rhs, _kernels._rhs_u, u_frame, Y / 8.0)]


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_step_twins_agree_exactly(mode):
    # one attempt from random pairs of either frame, steps of either sign:
    # the numpy attempt and the scalar step give the same new pair and
    # scaled error; a regrouped stage sum parts them on a few rows in 1e3
    rng = np.random.default_rng(8)
    n = 2000
    h = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    rtol = 1e-9
    t, frames = _frames(mode, rng, n)
    for rhs, rhs2, ctx, Y in frames:
        K1 = rhs(Y, 0, t, h)
        Yn, err = _kernels._attempt_np(Y, K1, h, rhs, rtol, t)
        rows = zip(Y.tolist(), K1.tolist(), h.tolist(), t.tolist())
        for k, (y, f, hk, tk) in enumerate(rows):
            c = ctx(tk, hk)
            assert _bits(rhs2(*y, ALPHA, c, 0)) == _bits(f)
            na, nb, e5a, e5b, e3a, e3b = _kernels._step2(*y, *f, hk, rhs2, ALPHA, c)
            sa, sb = (_kernels.ATOL + rtol * max(abs(p), abs(q))
                      for p, q in zip(y, (na, nb)))
            e5a, e5b, e3a, e3b = e5a / sa, e5b / sb, e3a / sa, e3b / sb
            sq5 = e5a * e5a + e5b * e5b
            sq3 = e3a * e3a + e3b * e3b
            assert [na, nb] == Yn[k].tolist()
            assert _kernels._err_norm(sq5, sq3, 2.0, hk) == err[k]


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_dense_twins_agree_exactly(mode):
    # the dense output of one step from random pairs of either frame, steps
    # of either sign: the coefficients of _dense_np are those of _dense2, bit
    # for bit
    rng = np.random.default_rng(9)
    n = 1000
    h = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    t, frames = _frames(mode, rng, n)
    for rhs, rhs2, ctx, Y in frames:
        K1 = rhs(Y, 0, t, h)
        Yn = _kernels._attempt_np(Y, K1, h, rhs, 1e-9, t)[0]
        Kn = rhs(Yn, 12, t, h)
        C = _kernels._dense_np(Y, K1, Yn, Kn, h, rhs, t)
        assert C.shape == (7, n, 2) and np.isfinite(C).all()
        rows = zip(Y.tolist(), K1.tolist(), Yn.tolist(), Kn.tolist(), h.tolist(),
                   t.tolist())
        for k, (y, f, yn, g, hk, tk) in enumerate(rows):
            coefs = _kernels._dense2(*y, *f, *yn, *g, hk, rhs2, ALPHA, ctx(tk, hk))
            assert [list(c) for c in coefs] == C[:, k].T.tolist()


def test_tableau_matches_scipy():
    # every coefficient the kernels hold against the DOP853 tables that
    # scipy ships (the package itself never imports scipy)
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def dense(rows, width):
        out = np.zeros((len(rows), width))
        for i, terms in enumerate(rows):
            for j, a in terms:
                out[i, j] += a
        return out

    assert np.array_equal(dense(_kernels.STAGES, 16), ref.A[1:12])
    assert np.array_equal(dense(_kernels.DENSE_STAGES, 16), ref.A[13:16])
    assert np.array_equal(dense(_kernels.DENSE_ROWS, 16), ref.D)
    assert np.array_equal(dense([_kernels.WEIGHTS], 12)[0], ref.B)
    assert np.array_equal(dense([_kernels.ERR5], 13)[0], ref.E5)
    assert np.array_equal(dense([_kernels.ERR3], 13)[0], ref.E3)
    nodes = _kernels.C_NODES + (1.0,) + _kernels.DENSE_NODES
    assert np.array_equal(nodes, ref.C)


def test_tableau_is_consistent():
    # each row of A sums to its node, the dense-output stages 14-16
    # included, the weights to 1 and both error estimates to 0, as in any
    # consistent embedded pair
    rows = _kernels.STAGES + _kernels.DENSE_STAGES
    nodes = _kernels.C_NODES[1:] + _kernels.DENSE_NODES
    assert _kernels.DENSE_NODES == (0.1, 0.2, 7.0 / 9.0)
    for terms, node in zip(rows, nodes, strict=True):
        assert sum(a for _, a in terms) == pytest.approx(node, abs=1e-14)
    assert sum(b for _, b in _kernels.WEIGHTS) == pytest.approx(1.0, abs=1e-14)
    for row in (_kernels.ERR5, _kernels.ERR3):
        assert sum(e for _, e in row) == pytest.approx(0.0, abs=1e-14)


def _rhs_z(ya, yb, alpha, table, k=0):
    """_kernels._rhs_z called as _step2 calls a right-hand side."""
    return _kernels._rhs_z(ya, yb, alpha)


def test_step_is_eighth_order():
    # the z-subsystem is linear with a known flow; the local error of an
    # 8th order step shrinks 2^9-fold when the step halves
    table = SteinParams(epsilon=16.0).table

    def error(h):
        f = _rhs_z(1.0, 1.0, ALPHA, table)
        na, nb = _kernels._step2(1.0, 1.0, *f, h, _rhs_z, ALPHA, table)[:2]
        return abs(na - math.exp((ALPHA - 1.0) * h)), abs(nb - math.exp(-ALPHA * h))

    for big, small in zip(error(0.8), error(0.4)):
        assert 2.0**8 < big / small < 2.0**10


def _dense_step(y, h, rhs, table):
    """Start, end, end derivative and dense output of one DOP853 step."""
    f = rhs(*y, ALPHA, table)
    n = _kernels._step2(*y, *f, h, rhs, ALPHA, table)[:2]
    g = rhs(*n, ALPHA, table)
    return f, n, g, _kernels._dense2(*y, *f, *n, *g, h, rhs, ALPHA, table)


@pytest.mark.parametrize("h", [0.3, -0.3])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_dense_output_matches_the_step_at_its_ends(mode, h):
    # contd8 is y at x = 0 and n at x = 1, to rounding, with derivatives
    # h f and h g there; _contd8 is made of operators alone, so a complex
    # step x + 1e-20 i differentiates it exactly
    table = SteinParams(epsilon=16.0, smoothing=mode).table
    y = (12.0, -9.0)  # |w| = 15 crosses no knot for |h| = 0.3
    f, n, g, coefs = _dense_step(y, h, _kernels._rhs2, table)
    for k, c in enumerate(coefs):
        assert _kernels._contd8(y[k], 0.0, c) == y[k]
        assert _kernels._contd8(y[k], 1.0, c) == pytest.approx(n[k], rel=1e-15)
        d0 = _kernels._contd8(y[k], 1e-20j, c).imag / 1e-20
        d1 = _kernels._contd8(y[k], 1.0 + 1e-20j, c).imag / 1e-20
        assert d0 == pytest.approx(h * f[k], rel=1e-13)
        assert d1 == pytest.approx(h * g[k], rel=1e-13)


def test_dense_output_is_seventh_order():
    # on the linear z-subsystem the interior error of the 7th order
    # interpolant shrinks 2^8-fold when the step halves
    table = SteinParams(epsilon=16.0).table

    def error(h):
        coefs = _dense_step((1.0, 1.0), h, _rhs_z, table)[3]
        exact = (math.exp((ALPHA - 1.0) * 0.5 * h), math.exp(-ALPHA * 0.5 * h))
        return [abs(_kernels._contd8(1.0, 0.5, c) - e) for c, e in zip(coefs, exact)]

    for big, small in zip(error(0.8), error(0.4)):
        assert 2.0**7.5 < big / small < 2.0**8.5


def _knot_cut_both(rows, table):
    """Fractions of steps w(s) = w0 + s v over [0, 1], batch and scalar."""
    W0 = np.array([r[:2] for r in rows], dtype=float)
    V = np.array([r[2:] for r in rows], dtype=float)
    W1 = W0 + V
    vec = _kernels._knot_cut_np(W0, V, W1, V, np.ones(len(rows)), table)
    scalar = [_kernels._knot_fraction(*w0, *v, *w1, *v, 1.0, table)
              for w0, v, w1 in zip(W0.tolist(), V.tolist(), W1.tolist())]
    assert scalar == vec.tolist()
    return vec


def test_knot_cut_finds_the_first_crossing():
    # on a straight path |w|^2 is quadratic in s, which its cubic Hermite
    # interpolant reproduces, so the cut falls on the exact crossing
    table = SteinParams(epsilon=16.0, smoothing="cutoff").table
    r0, rm, r1 = table[2:5]
    assert (r0, r1) == (4.0, 16.0)
    cases = [
        ((3.5, 0.0, 1.0, 0.0), 0.5),  # outward across r0
        ((17.0, 0.0, -2.0, 0.0), 0.5),  # inward across r1
        ((3.0, 0.0, 14.0, 0.0), 1.0 / 14.0),  # across all three: r0 first
        ((17.0, 0.0, -14.0, 0.0), 1.0 / 14.0),  # inward: r1 first
        ((5.0, 1.0, 2.0, 0.0), None),  # |w|^2 = (5 + 2 s)^2 + 1 meets rm^2
        ((-1.0, 3.9, 2.0, 0.0), (1.0 - math.sqrt(0.79)) / 2.0),  # dips under r0
        ((5.0, 0.0, 1.0, 0.0), 1.0),  # inside one segment
        ((4.0, 0.0, 1.0, 0.0), 1.0),  # from the knot itself
        ((4.0 * (1.0 - 2e-9), 0.0, 1.0, 0.0), 2e-9 * 4.0),  # just inside it
    ]
    got = _knot_cut_both([row for row, _ in cases], table)
    for (row, want), frac in zip(cases, got):
        if want is None:
            want = 0.5 * (math.sqrt(rm * rm - 1.0) - 5.0)
        assert frac == pytest.approx(want, abs=1e-12)


_CUTOFF16 = SteinParams(epsilon=16.0, smoothing="cutoff").table


@st.composite
def _knot_step(draw):
    """One step (xa, ya, fxa, fya, xb, yb, fxb, fyb, h) of w.

    Near a knot k the radii sit on it, inside or just outside its band or
    up to 30% off, so steps cross it either way or end on it; a dip starts
    and ends on one side with h f pointing through k at both ends, so the
    interpolant may cross k and come back.  Far rows have |w| up to 1e100,
    huge ones up to the float limit, where |w|^2 overflows.  h takes
    either sign, as in the upward flow.
    """
    k = draw(st.sampled_from(_CUTOFF16[2:5]))
    kind = draw(st.sampled_from(["near", "dip", "far", "huge"]))
    sign = st.sampled_from([-1.0, 1.0])
    h = draw(sign) * draw(st.floats(0.01, 1.0))
    vr = [k * draw(st.floats(-10.0, 10.0)) for _ in range(2)]
    if kind == "near":
        off = st.one_of(st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]), st.floats(0.0, 0.3))
        r = [k * (1.0 + draw(sign) * draw(off)) for _ in range(2)]
    elif kind == "dip":
        side = draw(sign)
        r = [k * (1.0 + side * draw(st.floats(1e-8, 0.3))) for _ in range(2)]
        vr = [-side * math.copysign(vr[0], h), side * math.copysign(vr[1], h)]
    elif kind == "far":
        r = [10.0 ** draw(st.floats(2.0, 100.0)) for _ in range(2)]
        vr = [v * r[0] for v in vr]
    else:
        r = [draw(st.floats(1e150, 1.7e308)) for _ in range(2)]
        vr = [v * rk for v, rk in zip(vr, r)]
    step = []
    for rk, v in zip(r, vr):
        angle = draw(st.floats(-math.pi, math.pi))
        c, s = math.cos(angle), math.sin(angle)
        vt = draw(st.floats(-1.0, 1.0)) * abs(v)
        step += [rk * c, rk * s, v * c - vt * s, v * s + vt * c]
    return (*step, h)


@hypothesis.settings(max_examples=50)
@given(steps=st.lists(_knot_step(), min_size=1, max_size=16))
def test_knot_cut_screen_keeps_every_cut(steps):
    # the numpy knot cut screens rows by the Bernstein hull of the
    # interpolant; the rows it passes over must be ones the scalar rule
    # gives 1.0, and the rejected-step test must be _knot_crossed
    table = _CUTOFF16
    S = np.array(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        vec = _kernels._knot_cut_np(S[:, 0:2], S[:, 2:4], S[:, 4:6], S[:, 6:8],
                                    S[:, 8], table)
        qa, qb = _kernels._sum_sq(S[:, 0:2]), _kernels._sum_sq(S[:, 4:6])
        held = _kernels._holds_band_np(np.minimum(qa, qb), np.maximum(qa, qb), table)
    scalar = [_kernels._knot_fraction(*row, table) for row in steps]
    assert _bits(vec) == _bits(scalar)
    crossed = [_kernels._knot_crossed(a, b, table) > 0.0
               for a, b in zip(qa.tolist(), qb.tolist())]
    assert held.tolist() == crossed


def test_pure_mode_never_reaches_the_knot_cut(monkeypatch):
    def refuse(*args):
        raise AssertionError("knot code ran in pure mode")

    for name in ("_knot_crossed", "_knot_fraction", "_on_knot", "_holds_band_np",
                 "_knot_cut_np"):
        monkeypatch.setattr(_kernels, name, refuse)
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing="pure")
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    rows = [(1.0, 0.5, 3.5, 0.0), (-1.0, 2.0, -300.0, 40.0)]
    args = flow._drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE)
    batch, scalar = _drive_both(rows, args, 4.0, 1.0)
    _assert_twins(batch, scalar)
    W = np.array([row[2:] for row in rows])
    s = np.sqrt(W[:, 0] + 1j * W[:, 1])
    d, status = flow.compute_delta_batch(s, params, settings)
    assert np.all(status == _kernels.STATUS_EVENT)
    assert [flow.compute_delta(v, params, settings) for v in s] == list(d)


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


_KINDS = ["none", "pair-escape", "trunc-region", "v-entry", "delta"]


def _event_rows(epsilon, rng, n=20000):
    x = rng.uniform(-4.0 * epsilon, 4.0 * epsilon, n)
    w = rng.uniform(-1.0, 1.0, (n, 2)) * (4.0 * epsilon) ** 2
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


def _reference_event(Y, radius, epsilon, kind):
    """The event regions as comparisons of the pair coordinates; (hit, sign).

    A reference implementation: the kernels read the regions off the
    margin ratios of _kernels._gap_ratio, and must decide every state as
    these comparisons do.
    """
    n = Y.shape[0]
    if kind == _kernels.EVENT_NONE:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    r = np.hypot(Y[:, 2], Y[:, 3])
    x1, x2 = _kernels.pair_re_np(Y[:, 0], Y[:, 2], r)
    sign = np.zeros(n, dtype=np.int64)
    if kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_DELTA):
        hit = (np.minimum(np.abs(x1), np.abs(x2)) > radius) & (r > epsilon)
        return hit, sign
    if kind == _kernels.EVENT_TRUNC_REGION:
        hit = (x1 <= -epsilon) & (x2 <= -epsilon) & (x1 + x2 <= -3.0 * epsilon)
        return hit, sign
    minus = (x1 > -epsilon) & (x1 < epsilon) & (x2 < -2.0 * epsilon)
    plus = (x2 > -epsilon) & (x2 < epsilon) & (x1 > 2.0 * epsilon)
    sign[minus] = -1
    sign[plus] = 1
    return minus | plus, sign


@pytest.mark.parametrize("kind", range(5), ids=_KINDS)
def test_event_twins_agree_exactly(kind):
    # both twins read the regions off their margin ratios, and give the
    # hits and signs of the reference comparisons bit for bit: on drawn
    # rows, on the region edges of _event_rows (|w| = eps among them) and
    # on every row with one coordinate moved one ulp either way
    hits = set()
    for epsilon in (16.0, 1.0, 1e-3, 3.7e5):
        rows = _event_rows(epsilon, np.random.default_rng(5), 2000)
        moved = [rows]
        for j, to in itertools.product(range(4), (-np.inf, np.inf)):
            near = rows.copy()
            near[:, j] = np.nextafter(near[:, j], to)
            moved.append(near)
        Y = np.vstack(moved)
        for radius in (2.0 * epsilon, 1e3 * max(1.0, epsilon)):
            want = _reference_event(Y, radius, epsilon, kind)
            hit, sign = _kernels._event_np(Y, radius, epsilon, kind)
            assert _bits(hit, sign) == _bits(*want)
            hits.update(hit.tolist())
            for row, h, sg in zip(Y.tolist(), *(w.tolist() for w in want)):
                assert _kernels._event_val(*row, radius, epsilon, kind) == (h, sg)
    assert hits == ({False} if kind == _kernels.EVENT_NONE else {False, True})


def test_cutoff_escape_drives_count_the_outer_knot_as_outside():
    # a cutoff step that ends an entry into the escape region by |w|
    # shrinking through epsilon lands on the outer knot, on either side of
    # it within KNOT_TOL; a cutoff escape drive reads that band as outside,
    # every other drive and the region test itself read epsilon
    epsilon, radius = 16.0, 64.0
    tol = _kernels.KNOT_TOL
    lowered = epsilon - tol * epsilon
    for mode in ("pure", "cutoff"):
        table = SteinParams(epsilon=epsilon, smoothing=mode).table
        for kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_TRUNC_REGION,
                     _kernels.EVENT_V_ENTRY):
            cut = mode == "cutoff" and kind == _kernels.EVENT_PAIR_ESCAPE
            assert _kernels._event_eps(table, kind) == (lowered if cut else epsilon)
    table = SteinParams(epsilon=epsilon, smoothing="cutoff").table
    # (|w|, on the outer knot, inside the region as read with epsilon)
    for r, on_knot, plain in ((epsilon * (1.0 - 0.5 * tol), True, False),
                              (epsilon, True, False),
                              (epsilon * (1.0 + 0.5 * tol), True, True),
                              (epsilon * (1.0 - 2.0 * tol), False, False)):
        row = (-100.0, 0.0, 0.0, r)  # w = i r: |Re sqrt(w)| = sqrt(r / 2)
        assert _kernels._on_knot(0.0, r, table) == on_knot
        for eps, hit in ((epsilon, plain), (lowered, on_knot or plain)):
            assert _kernels._event_val(*row, radius, eps, 1) == (hit, 0)
            vec = _kernels._event_np(np.array([row]), radius, eps, 1)
            assert vec[0].tolist() == [hit]


@pytest.mark.parametrize("reading", ["epsilon", "knot"])
@pytest.mark.parametrize(
    "kind",
    [_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_TRUNC_REGION, _kernels.EVENT_V_ENTRY],
    ids=["pair-escape", "trunc-region", "v-entry"],
)
def test_event_gap_is_positive_only_inside_the_region(kind, reading):
    # g > 0 implies a hit of _event_val and a hit implies g >= 0, so the
    # secant on g never moves an end of the bracket the predicate would not;
    # read with epsilon and with the lowered epsilon of a cutoff escape
    # drive (_event_eps), on drawn rows, on the region edges of _event_rows
    # and on |w| = eps and its neighbouring floats.  The twins agree bit for
    # bit, infinite gaps included.
    epsilon = 16.0
    radius = 2.0 * epsilon
    eps = epsilon
    if reading == "knot":
        eps = _kernels._event_eps(SteinParams(epsilon=epsilon, smoothing="cutoff").table,
                                  _kernels.EVENT_PAIR_ESCAPE)
        assert eps < epsilon
    edge = [(x, 0.0, 0.0, r) for x in eps * np.arange(-4.0, 4.5, 0.5)
            for r in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, np.inf))]
    Y = np.vstack([_event_rows(eps, np.random.default_rng(8)), edge])
    hit, _ = _kernels._event_np(Y, radius, eps, kind)
    ratio = _kernels._event_ratio_np(Y, radius, eps, kind)
    gap = np.array([_kernels._log_gap(v) for v in ratio.tolist()])
    assert hit.any() and not hit.all() and (gap == 0.0).any()
    assert np.all(hit[gap > 0.0]) and np.all(gap[hit] >= 0.0)
    scalar = [_kernels._event_ratio(*row, radius, eps, kind) for row in Y.tolist()]
    assert _bits(ratio) == _bits(scalar)


# two rows inside each region at t = 0, with the event signs they take
_INSIDE = {
    _kernels.EVENT_PAIR_ESCAPE: [(300.0, 0.0, 1e4, 0.0), (-300.0, 0.0, 1e4, 0.0)],
    _kernels.EVENT_TRUNC_REGION: [(-40.0, 0.0, 4.0, 0.0), (-60.0, 0.0, 100.0, 0.0)],
    _kernels.EVENT_V_ENTRY: [(-20.0, 0.0, 400.0, 0.0), (20.0, 0.0, 400.0, 0.0)],
    _kernels.EVENT_DELTA: [(0.0, 0.0, 1e4, 0.0), (0.0, 0.0, 3000.0, -500.0)],
}


def _drive_both(rows, args, t_end, fdir):
    """(status, t, sign, states) of the numpy batch and of the scalar kernel."""
    n = len(rows)
    Y = np.array(rows)
    status, sign = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    t = np.zeros(n)
    rec = np.empty((0, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        _kernels._drive_batch_np(Y, t_end, *args, status, t, sign, fdir)
        res = [_kernels._drive(*row, t_end, *args, rec, fdir) for row in rows]
    scalar = [np.array([r[k] for r in res]) for k in (0, 1, 6)]
    return (status, t, sign, Y), (*scalar, np.array([r[2:6] for r in res]))


def _assert_twins(batch, scalar):
    assert _bits(*batch) == _bits(scalar[0], scalar[1], scalar[2], scalar[3])


def _assert_events_hold(batch, args):
    """Every STATUS_EVENT row of a _drive_both batch is in its region."""
    status, _, sign, Y = batch
    radius, kind = args[3], args[4]
    epsilon = _kernels._event_eps(args[1], kind)
    for row, st_k, sg in zip(Y.tolist(), status.tolist(), sign.tolist()):
        if st_k == _kernels.STATUS_EVENT:
            assert _kernels._event_val(*row, radius, epsilon, kind) == (True, sg)


def _event_drive(mode, kind):
    """Drive arguments of an event kind, 8 flowing rows and the _INSIDE rows.

    The flowing rows of EVENT_DELTA are Delta rows, with z = 0.
    """
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    rng = np.random.default_rng(5)
    z = rng.uniform(-48.0, 48.0, (8, 2)) * (kind != _kernels.EVENT_DELTA)
    s = rng.uniform(-48.0, 48.0, 8) + 1j * rng.uniform(-48.0, 48.0, 8)
    flowing = [(x, y, (v * v).real, (v * v).imag) for (x, y), v in zip(z, s)]
    return flow._drive_args(params, settings, kind), flowing, _INSIDE[kind]


@pytest.mark.parametrize("fdir", [1.0, -1.0], ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize("kind", range(1, 5), ids=_KINDS[1:])
def test_drive_twins_agree_on_events(kind, mode, fdir):
    # the numpy batch refines all its events together after the lockstep,
    # the scalar kernel each one as it is found, both on the dense output;
    # both read a Delta row at the end of the step that enters its region
    args, flowing, inside = _event_drive(mode, kind)
    # the inside rows are the event at their start, the flowing ones hit
    # later and apart; w = -1e308 overflows kappa and starts outside every
    # region: STATUS_NONFINITE
    rows = flowing + inside + [(1.0, 0.5, -1e308, 0.0)]
    batch, scalar = _drive_both(rows, args, 4.0, fdir)
    _assert_twins(batch, scalar)
    _assert_events_hold(batch, args)
    status, t, sign, Y = batch
    assert np.all(status[8:10] == _kernels.STATUS_EVENT) and np.all(t[8:10] == 0.0)
    assert _bits(Y[8:10]) == _bits(np.array(inside))
    assert status[10] == _kernels.STATUS_NONFINITE and t[10] == 0.0
    if kind == _kernels.EVENT_V_ENTRY:
        assert sign[8:10].tolist() == [-1, 1]
    # the upward flow shrinks both pair coordinates, so it never enters
    # the escape region, or the Delta region, from outside
    escape = kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_DELTA)
    if not (escape and fdir == -1.0):
        assert (status[:8] == _kernels.STATUS_EVENT).any()
    # a batch in which no row reaches the region
    missed = [row for row, st in zip(flowing, status)
              if st != _kernels.STATUS_EVENT]
    if not missed:  # every Delta row reaches s_star = sqrt(epsilon) = 4 in time
        assert (kind, mode, fdir) == (_kernels.EVENT_DELTA, "cutoff", 1.0)
        return
    batch, scalar = _drive_both(missed, args, 4.0, fdir)
    _assert_twins(batch, scalar)
    assert missed and np.all(batch[0] == _kernels.STATUS_TIME_END)


# z values and roots sqrt(w0) around the switch at |w| = epsilon = 16: roots
# inside it, outside it near the imaginary axis (|w| shrinks before it grows)
# and outside it near the real axis (|w| grows at once)
_SWITCH_Z = [(-40.0, 3.0), (30.0, -1.0), (5.0, 0.5), (-10.0, 20.0)]
_SWITCH_S = [0.5 + 0.2j, 1.0 + 3.0j, 2.0 - 1.0j, 3.5 + 0.5j,
             0.3 + 6.0j, -0.2 + 9.0j, 0.1 - 20.0j, 1.0 + 40.0j,
             6.0 + 0.3j, -9.0 + 1.0j, 20.0 - 2.0j, 45.0 + 5.0j]


@pytest.mark.parametrize("fdir", [1.0, -1.0], ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
@pytest.mark.parametrize("kind", range(5), ids=_KINDS)
def test_drive_twins_agree_across_the_switch(kind, mode, fdir):
    # every root with every z (z = 0 for the Delta rows): the w-frame and
    # u-frame passes of the lockstep give the bits of the scalar drive
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    args = flow._drive_args(params, FlowSettings(escape_radius=64.0, max_steps=2000),
                            kind)
    zs = [(0.0, 0.0)] if kind == _kernels.EVENT_DELTA else _SWITCH_Z
    rows = [(x, y, (v * v).real, (v * v).imag) for x, y in zs for v in _SWITCH_S]
    batch, scalar = _drive_both(rows, args, 4.0, fdir)
    _assert_twins(batch, scalar)
    _assert_events_hold(batch, args)
    if kind == _kernels.EVENT_NONE:
        # fixed-time drives from inside epsilon end in the u-frame
        status, _, _, Y = batch
        assert np.all(status == _kernels.STATUS_TIME_END)
        r = np.hypot(Y[:, 2], Y[:, 3])
        start = np.abs(np.array(_SWITCH_S * len(_SWITCH_Z))) ** 2
        assert (r[start < 16.0] > 64.0).any()


@pytest.mark.parametrize("fdir", [1.0, -1.0], ids=["down", "up"])
@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_no_drive_returns_inside_epsilon(mode, fdir):
    # beyond |w| = epsilon the flow is near the linear saddle, along which
    # x^2 / y^2 of s = x + i y is monotone, so |w| once growing outside
    # epsilon keeps growing: the one switch per row never needs undoing
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    args = flow._drive_args(params, FlowSettings(), _kernels.EVENT_NONE)
    rng = np.random.default_rng(14)
    z = rng.uniform(-48.0, 48.0, (100, 2))
    s = rng.uniform(-48.0, 48.0, 100) + 1j * rng.uniform(-48.0, 48.0, 100)
    s = np.append(s, _SWITCH_S)
    grew = 0
    for (x, y), v in zip(itertools.cycle(z.tolist()), (s * s).tolist()):
        rec = np.empty((2000, 5))
        res = _kernels._drive(x, y, v.real, v.imag, 6.0, *args, rec, fdir)
        r = np.hypot(rec[:res[7], 3], rec[:res[7], 4])
        out = np.nonzero((r[1:] >= 16.0) & (r[1:] > r[:-1]))[0]
        if out.size:
            grew += 1
            assert np.all(np.diff(r[out[0]:]) > 0.0)
    assert grew > 100


def _count_calls(monkeypatch, name, counter, key):
    """Count the calls of a kernel function under counter[key()]."""
    func = getattr(_kernels, name)

    def counted(*args):
        counter[name, key()] += 1
        return func(*args)

    monkeypatch.setattr(_kernels, name, counted)


# Refining an event recomputes the stages of its step once and adds the
# dense-output stages 14-16: 14 evaluations of the one integrated pair (w in
# the w-frame, u in the u-frame), however many times the event location
# reads the dense output.  A drive that starts inside the region has its event
# at that start and makes no attempt.
REFINE_RHS = 14


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_event_refinement_spends_fixed_rhs_evaluations(monkeypatch, mode):
    args, flowing, inside = _event_drive(mode, _kernels.EVENT_PAIR_ESCAPE)
    # the roots around the switch locate their events in 2 to 5 reads
    around = [(x, y, (v * v).real, (v * v).imag)
              for x, y in _SWITCH_Z for v in _SWITCH_S]
    rows = flowing + around + inside
    counts = collections.Counter()
    judging = []  # nonempty inside _advance, the judged attempt
    for name in ("_rhs2", "_rhs_u", "_contd8"):
        _count_calls(monkeypatch, name, counts, lambda: bool(judging))
    advance = _kernels._advance

    def judged(*a):
        judging.append(True)
        try:
            return advance(*a)
        finally:
            judging.pop()

    monkeypatch.setattr(_kernels, "_advance", judged)
    rec = np.empty((0, 5))
    reads = set()
    frames = set()
    for row in rows:
        counts.clear()
        res = _kernels._drive(*row, 4.0, *args, rec, 1.0)
        status, t, steps = res[0], res[1], res[8]
        event = status == _kernels.STATUS_EVENT
        assert (row in inside) == (event and t == 0.0) == (steps == 0)
        refined = event and row not in inside
        # outside the attempts: the w' at the start, u' at the switch if the
        # row switched, and the refinement in the frame of the event step
        w_calls, u_calls = counts["_rhs2", False], counts["_rhs_u", False]
        switched = u_calls % REFINE_RHS
        assert switched in (0, 1)
        assert w_calls + u_calls == 1 + switched + REFINE_RHS * refined
        if refined:  # _contd8 runs twice per read of the dense output
            frames.add(bool(switched))
            reads.add(counts["_contd8", False])
    assert len(reads) > 1 and frames == {False, True}


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_batch_event_refinement_spends_fixed_rhs_evaluations(monkeypatch, mode):
    args, flowing, inside = _event_drive(mode, _kernels.EVENT_PAIR_ESCAPE)
    rows = flowing + inside
    calls = {"_rhs_w_np": [], "_rhs_u_np": []}  # row counts outside the lockstep
    depth = []
    starts = []  # the rows each lockstep pass activates
    lockstep = _kernels._lockstep

    def spy(name):
        func = getattr(_kernels, name)

        def counted(Z, *a):
            if not depth:
                calls[name].append(len(Z))
            return func(Z, *a)

        return counted

    def marked(*a):
        starts.append(a[-1][0].copy())
        depth.append(True)
        try:
            return lockstep(*a)
        finally:
            depth.pop()

    for name in calls:
        monkeypatch.setattr(_kernels, name, spy(name))
    monkeypatch.setattr(_kernels, "_lockstep", marked)
    status, t = _drive_both(rows, args, 4.0, 1.0)[0][:2]
    event = status == _kernels.STATUS_EVENT
    assert np.all(event[len(flowing):]) and np.all(t[len(flowing):] == 0.0)
    assert starts[0].tolist() == [True] * len(flowing) + [False] * len(inside)
    assert not starts[1][len(flowing):].any()
    # the w' of every row at the start, then 14 calls per refined frame, on
    # the event rows that start outside the region
    w_calls, u_calls = calls["_rhs_w_np"], calls["_rhs_u_np"]
    assert w_calls[0] == len(rows)
    n_w, n_u = w_calls[1:2] or [0], u_calls[:1] or [0]
    assert w_calls[1:] == n_w * REFINE_RHS and u_calls == n_u * REFINE_RHS
    assert n_w[0] > 0 and n_u[0] > 0
    assert n_w[0] + n_u[0] == np.count_nonzero(event[:len(flowing)])


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_delta_rows_are_read_without_refinement(monkeypatch, mode):
    # every state inside the Delta region gives Delta to DELTA_TOL, so both
    # twins read a Delta row at the end of the step that enters it, and
    # never build the dense output
    def refuse(*args):
        raise AssertionError("a Delta row was refined")

    for name in ("_dense_event", "_dense2", "_dense_np"):
        monkeypatch.setattr(_kernels, name, refuse)
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    s = np.array(_SWITCH_S) * 2.0
    w = np.column_stack([(s * s).real, (s * s).imag])
    status, t = _delta_both(w, params, FlowSettings())[:2]
    assert np.all(status == _kernels.STATUS_EVENT) and (t > 0.0).any()


# most dense-output reads per located event, on the mean; bisecting the
# event predicate to EVENT_TOL took about 45
EVENT_READS = 8


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_events_take_few_dense_output_reads(monkeypatch, mode):
    # the secant on the event gap locates an event in a few reads of the
    # dense output, in both frames; every event step starts outside the
    # region.  The batch twin makes the same reads: the rows of its
    # refinement iterations, which read the margin ratio once each after
    # reading it at both ends of every event step.  Its other reads of the
    # ratio go through the event predicate _event_np.
    reads = collections.defaultdict(list)  # frame -> reads per located event
    counts = collections.Counter()
    _count_calls(monkeypatch, "_contd8", counts, lambda: None)
    dense_event, ratio_np = _kernels._dense_event, _kernels._event_ratio_np
    event_np = _kernels._event_np
    ratio_rows = []
    judging = []  # nonempty inside _event_np

    def located(*a):
        counts.clear()
        out = dense_event(*a)
        pre, frame, radius, eps, kind = a[8], a[17], a[18], a[19], a[20]
        assert not _kernels._event_val(*pre, radius, eps, kind)[0]
        reads[frame is not None].append(counts["_contd8", None] // 2)
        return out

    def ratio_spy(Y, *a):
        if not judging:
            ratio_rows.append(len(Y))
        return ratio_np(Y, *a)

    def judged(*a):
        judging.append(True)
        try:
            return event_np(*a)
        finally:
            judging.pop()

    monkeypatch.setattr(_kernels, "_dense_event", located)
    monkeypatch.setattr(_kernels, "_event_ratio_np", ratio_spy)
    monkeypatch.setattr(_kernels, "_event_np", judged)
    for kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_TRUNC_REGION,
                 _kernels.EVENT_V_ENTRY):
        for fdir in (1.0, -1.0):
            args, flowing, inside = _event_drive(mode, kind)
            before = sum(map(sum, reads.values()))
            ratio_rows.clear()
            status, t = _drive_both(flowing + inside, args, 4.0, fdir)[0][:2]
            # the events at t = 0 are those of rows that start inside
            n_refined = np.count_nonzero((status == _kernels.STATUS_EVENT) & (t > 0.0))
            n_reads = sum(map(sum, reads.values())) - before
            assert sum(ratio_rows) - 2 * n_refined == n_reads
    assert set(reads) == {False, True}
    for frame_reads in reads.values():
        assert np.mean(frame_reads) <= EVENT_READS


def test_drive_twins_agree_on_stalls():
    # at epsilon = 1e-30 the flow from (0, 1e-9 i, 0) has speed
    # 1.5e-9 exp(-1.5 t), below the stall speed from t = ln(15)/1.5 = 1.805;
    # the kernels see it at the end of the step past it, t = 1.988, and the
    # critical point stalls at once
    params = SteinParams(alpha=ALPHA, epsilon=1e-30, smoothing="pure")
    settings = FlowSettings()
    args = flow._drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE)
    rows = [(0.0, 1e-9, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
    batch, scalar = _drive_both(rows, args, settings.max_time, 1.0)
    _assert_twins(batch, scalar)
    assert np.all(batch[0] == _kernels.STATUS_STALLED)
    assert batch[1][0] == pytest.approx(1.988, abs=1e-3) and batch[1][1] == 0.0
    for row in rows:
        traj = flow.integrate_flow(np.array(row), params, settings, record=False)
        assert traj.termination == flow.TERM_NEAR_CRITICAL


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_row_loop_batch_kernels_loop_the_scalar_kernels(mode):
    # each row of _drive_batch gets the bits of its scalar kernel called
    # with the same arguments, which pins the argument order of the row loop
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    rng = np.random.default_rng(13)
    z = rng.uniform(-48.0, 48.0, (5, 2))
    s = rng.uniform(-48.0, 48.0, 4) + 1j * rng.uniform(-48.0, 48.0, 4)
    # w = 1e308 ends STATUS_NONFINITE, or at the start under EVENT_PAIR_ESCAPE
    w = np.append(s * s, 1e308)
    rows = [(x, y, v.real, v.imag) for (x, y), v in zip(z, w)]
    rec = np.empty((0, 5))
    for kind, fdir in [(0, 1.0), (1, -1.0), (2, 1.0), (3, 1.0), (4, 1.0)]:
        args = flow._drive_args(params, settings, kind)
        Y = np.array(rows + _INSIDE.get(kind, []))
        out = (np.zeros(len(Y), dtype=np.int64), np.zeros(len(Y)),
               np.zeros(len(Y), dtype=np.int64))
        # the rows are read from the batch as numpy floats, on which the
        # overflow row warns
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_kernels._drive(*row, 4.0, *args, rec, fdir) for row in Y.tolist()]
            _kernels._drive_batch(Y, 4.0, *args, *out, fdir)
        assert [r[7] for r in want] == [0] * len(Y)  # a zero-row rec records none
        assert _bits(*out, Y) == _bits(*(np.array([r[k] for r in want])
                                         for k in (0, 1, 6)), [r[2:6] for r in want])


def test_batch_kernel_backends_share_one_signature():
    # flow runs either batch kernel with the same arguments
    assert (inspect.signature(_kernels._drive_batch)
            == inspect.signature(_kernels._drive_batch_np))


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_batch_rows_are_independent(mode):
    # a row's outputs are the same bits alone and at any place in a larger
    # batch, so callers may join batches (offset-evenness runs three as one)
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(escape_radius=64.0, max_steps=2000)
    rng = np.random.default_rng(9)
    n = flow._LOCKSTEP_ROWS[params.table[0]] - 3  # enough rows for the numpy lockstep
    s = rng.uniform(-48.0, 48.0, n) + 1j * rng.uniform(-48.0, 48.0, n)
    s = np.append(s, [2.0j, -2.0j, 1e155])  # w0 on the negative axis; overflow
    perm = rng.permutation(s.size)
    with np.errstate(over="ignore"):  # 1e155 squared, here and below
        d, status = flow.compute_delta_batch(s, params, settings)
        d_p, status_p = flow.compute_delta_batch(s[perm], params, settings)
    assert _bits(d[perm], status[perm]) == _bits(d_p, status_p)
    for k in (0, n, n + 2):
        with np.errstate(over="ignore"):
            d_k, status_k = flow.compute_delta_batch(s[k:k + 1], params, settings)
        assert _bits(d[k:k + 1], status[k:k + 1]) == _bits(d_k, status_k)
    assert status[-1] == _kernels.STATUS_NONFINITE

    kind = _kernels.EVENT_PAIR_ESCAPE
    z = rng.uniform(-48.0, 48.0, (n, 2))
    Y = np.column_stack([z, (s[:n] * s[:n]).real, (s[:n] * s[:n]).imag])
    Y = np.vstack([Y, _INSIDE[kind], [(1.0, 0.5, 1e308, 0.0)]])
    perm = rng.permutation(len(Y))
    Y_all, Y_p = Y.copy(), Y[perm]
    out = flow.drive_batch(Y_all, params, settings, kind, t_end=4.0)
    out_p = flow.drive_batch(Y_p, params, settings, kind, t_end=4.0)
    assert _bits(Y_all[perm], *(o[perm] for o in out)) == _bits(Y_p, *out_p)
    for k in (0, n, n + 2):
        Y_k = Y[k:k + 1].copy()
        out_k = flow.drive_batch(Y_k, params, settings, kind, t_end=4.0)
        assert _bits(Y_all[k:k + 1], *(o[k:k + 1] for o in out)) == _bits(Y_k, *out_k)
    assert (out[0][:n] == _kernels.STATUS_EVENT).any()


@pytest.mark.parametrize(
    "p, settings, want",
    [
        (SymPoint(-40.0, -64.0 + 1.0j), FlowSettings(), U_MM),
        (SymPoint(30.0 + 1.0j, -30.0), FlowSettings(), U_MP),
        (SymPoint(40.0, 64.0 + 1.0j), FlowSettings(), U_PP),
        (SymPoint(1.0j, -1.0j), FlowSettings(max_time=0.5), UNRESOLVED),
        # w = -1e308: the kernels end the row STATUS_NONFINITE
        (SymPoint(1e154j, -1e154j), FlowSettings(max_steps=2000), UNRESOLVED),
        # w = 1e308: the pair coordinates are +-inf, and the start the escape
        (SymPoint(1e154, -1e154), FlowSettings(max_steps=2000), U_MP),
        # step budget spent: STATUS_RUNNING
        (SymPoint(-40.0, -64.0 + 1.0j), FlowSettings(max_steps=3), UNRESOLVED),
    ],
    ids=["U_MM", "U_MP", "U_PP", "time-end", "nonfinite", "escaped-at-start",
         "running"],
)
def test_flow_label_scalar_matches_batch(pure16, p, settings, want):
    label = classify_by_flow(p, pure16, settings)
    assert label == want
    # _LOCKSTEP_ROWS copies, so on the numpy backend the batch runs the lockstep
    rows = [p.state()] * flow._LOCKSTEP_ROWS[pure16.table[0]]
    assert list(classify_by_flow_batch(rows, pure16, settings)) == [label] * len(rows)


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


@pytest.mark.parametrize("mode", ["pure", "cutoff"])
def test_scalar_kernels_stay_on_builtin_floats(mode):
    # the table is a tuple of floats, so no numpy scalar enters the
    # arithmetic of the plain-Python kernels
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_steps=20000)
    table = params.table
    for r in _radii(mode)[1]:
        assert all(type(v) is float for v in _kernels._w_terms(float(r), ALPHA, table))
    args = flow._drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE)
    state = SymPoint(-40.0, -64.0 + 1.0j).state().tolist()
    res = _kernels._drive(*state, 60.0, *args, np.empty((0, 5)), 1.0)
    assert res[0] == _kernels.STATUS_EVENT
    assert all(type(v) is float for v in res[1:6])
    args = flow._drive_args(params, settings, _kernels.EVENT_DELTA)
    # s0 = 1 + 20i starts outside the Delta region in both modes
    res = _kernels._drive(0.0, 0.0, -399.0, 40.0, 60.0, *args, np.empty((0, 5)), 1.0)
    assert res[0] == _kernels.STATUS_EVENT and res[1] > 0.0
    assert all(type(v) is float for v in res[1:6])


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
    # ** and abs(complex) past the float range, math.sqrt below zero; the
    # numpy twins end every row with the same bits.  A row that starts
    # inside its region, as the reference comparisons read it, is the event
    # at t = 0; under EVENT_PAIR_ESCAPE and EVENT_DELTA those are the rows
    # whose pair coordinates are +-inf.
    params = SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
    settings = FlowSettings(max_time=4.0, max_steps=2000)
    rec = np.empty((0, 5))
    ends = []
    n_inside = 0
    for kind, fdir in itertools.product(range(5), (1.0, -1.0)):
        args = flow._drive_args(params, settings, kind)
        scalar = [_kernels._drive(1.0, 0.5, *w, 4.0, *args, rec, fdir)
                  for w in _HOSTILE_W]
        Y = np.array([(1.0, 0.5, *w) for w in _HOSTILE_W])
        with np.errstate(over="ignore", invalid="ignore"):
            inside = _reference_event(Y, args[3], _kernels._event_eps(args[1], kind),
                                      kind)[0]
        out = (np.zeros(len(Y), dtype=np.int64), np.zeros(len(Y)),
               np.zeros(len(Y), dtype=np.int64))
        _kernels._drive_batch_np(Y, 4.0, *args, *out, fdir)
        assert _bits(*out, Y) == _bits(*(np.array([r[k] for r in scalar])
                                         for k in (0, 1, 6)), [r[2:6] for r in scalar])
        for w, r, start in zip(_HOSTILE_W, scalar, inside.tolist()):
            if start:
                assert kind in (_kernels.EVENT_PAIR_ESCAPE, _kernels.EVENT_DELTA)
                assert r[:2] == (_kernels.STATUS_EVENT, 0.0) and r[8] == 0
                n_inside += 1
            else:
                ends.append((w, r[0]))
    assert n_inside > 0
    for w, status in ends:
        if all(abs(v) < 1e-300 for v in w):
            assert status in (_kernels.STATUS_EVENT, _kernels.STATUS_TIME_END)
        else:
            assert status == _kernels.STATUS_NONFINITE


# Property-based parity: drawn batches of rows, finite ones and ones made of
# hostile magnitudes, through both twins with the same params.table object.
# Each example is one batch, since a small numpy batch costs about as much
# as a large one; the lockstep of a cutoff batch dominates the run time.
_MAGNITUDES = [math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-320, 1e154, -1e154]
_PARAMS = {mode: SteinParams(alpha=ALPHA, epsilon=16.0, smoothing=mode)
           for mode in ("pure", "cutoff")}
_DRAWN_SETTINGS = FlowSettings(max_time=8.0, escape_radius=64.0, max_steps=2000)


def _drawn_rows(width, half):
    finite = st.floats(-half, half)
    hostile = st.one_of(finite, st.sampled_from(_MAGNITUDES))
    row = st.one_of(st.tuples(*[finite] * width), st.tuples(*[hostile] * width))
    return st.lists(row, min_size=1, max_size=12)


@hypothesis.settings(max_examples=20)
@given(rows=_drawn_rows(4, 64.0), mode=st.sampled_from(sorted(_PARAMS)),
       kind=st.sampled_from(range(5)), fdir=st.sampled_from([1.0, -1.0]))
def test_drive_twins_agree_on_drawn_rows(rows, mode, kind, fdir):
    args = flow._drive_args(_PARAMS[mode], _DRAWN_SETTINGS, kind)
    assert args[1] is _PARAMS[mode].table
    batch, scalar = _drive_both(rows, args, 2.0, fdir)
    _assert_twins(batch, scalar)
    _assert_events_hold(batch, args)


@hypothesis.settings(max_examples=20)
@given(rows=_drawn_rows(2, 4096.0), mode=st.sampled_from(sorted(_PARAMS)))
def test_delta_twins_agree_on_drawn_rows(rows, mode):
    # w rows up to 4096 start at |sqrt(w)| up to 64, around s_star in pure
    # mode and beyond it in cutoff mode
    _delta_both(np.array(rows), _PARAMS[mode], _DRAWN_SETTINGS)
