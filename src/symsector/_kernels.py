"""Adaptive Dormand-Prince 5(4) kernels for the model flow.

The downward gradient flow on the symmetric square is integrated with the
embedded Dormand-Prince 5(4) pair (FSAL) and the standard step-size
controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).  The
state is [Re z, Im z, Re w, Im w]; the linear z-subsystem and the
autonomous w-subsystem are decoupled, and the w-subsystem alone also
serves the branch-locus asymptotics.  The flow direction (+1 downward,
-1 upward) is the sign of the step h: derivatives, FSAL seeds included,
are those of the downward flow.  Negation is exact, so h (-f) and (-h) f
round alike and either form gives the same bits.

Each formula has one vectorized numpy definition: the w-flow coefficients
(_kappa_shrink_np, on the smoothing evaluator in cutoff mode; _rhs_w_np,
_rhs_np), one DP5 attempt with its scaled error (_attempt_np), the step
controller (_next_h_np), the pair coordinates (pair_re_np) and the event
regions (_event_np).  _lockstep is the one numpy loop: it owns the step
budget, the attempt, acceptance, the controller and the dead-row rule.
The batch kernels _drive_batch_np and _delta_batch_np pass it the stop
rule run before each attempt: stall and end of time for the drive, the
reading rule and max_time for Delta.  The drive also passes its event
predicate, holds each row that enters its region and refines all of them
in one vectorized bisection after the lockstep.  The numpy kernels run
when jit is unavailable or disabled via SYMSECTOR_NUMBA=0;
drive_batch_kernel and delta_batch_kernel are bound once to the batch
kernels of the active backend, whose jit and numpy forms take the same
parameters.  Both ignore overflow and invalid-value warnings: a row that
leaves the float range ends STATUS_NONFINITE.

What no caller varies is a module constant, not a parameter: the
absolute tolerance ATOL, the largest step H_MAX, the stall speed
STALL_SPEED, and for Delta the reading agreement AGREE_TOL and the
READ_COMPLEX_IM bound IM_TOL.  epsilon is read from the table (table[1]),
and every drive starts at t = 0.  The step controllers (_next_h,
_next_h_np) still take the cap h_max, and the event predicates
(_event_val, _event_np) epsilon, since sectors calls the region test
without a table.

The scalar kernels are the one permitted twin: _w_terms, the right-hand
sides _rhs_z and _rhs2, one DP5 step _step2 that takes its right-hand
side as an argument, _next_h, _pair_re and _event_val (also the region
test of sectors).  They are jit-compiled under numba and run as plain
Python otherwise (the decorator degrades to a no-op); scalar callers use
them directly and never build a one-row numpy batch.  Each attempt of
the scalar _drive, and of the bisection _bisect_event with which it (and
through it the numba _drive_batch) refines its events, is one _step2 on
z with _rhs_z and one on w with _rhs2; _delta_one steps w alone.

As plain Python the scalar kernels run on built-in floats, with the same
bits as numpy scalars at several times the speed: the front ends pass the
table as a tuple of floats, |w| is _hypot (abs(complex), which calls libm
hypot as np.hypot does), and real roots and finiteness tests come from
math.  Three stdlib twins are avoided because their bits differ:
math.hypot rounds some pairs apart from libm hypot, cmath.sqrt differs
from np.sqrt on the imaginary axis (so the complex roots of _delta_one
stay np.sqrt), and math.exp differs from np.exp in the last place on
some arguments (so the reading scale stays np.exp).
"""

import math

import numpy as np

from . import smoothing
from ._accel import njit, prange, using_numba

# Dormand-Prince 5(4) tableau, FSAL form
C2, C3, C4, C5, C6 = 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0
A21 = 0.2
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
B1, B3, B4, B5, B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
E1, E3, E4, E5, E6, E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# fixed integration constants of every kernel
ATOL = 1e-30  # absolute part of the error scale
H_MAX = 0.1  # largest step of the drive and Delta kernels
STALL_SPEED = 1e-10  # a trajectory slower than this has stalled
AGREE_TOL = 1e-8  # Delta readings 0.7 apart agree to this
IM_TOL = 5e-9  # Im Delta residual bound of READ_COMPLEX_IM

STATUS_RUNNING = 0
STATUS_EVENT = 1
STATUS_TIME_END = 2
STATUS_STALLED = 3
STATUS_NONFINITE = 4

EVENT_NONE = 0
EVENT_PAIR_ESCAPE = 1
EVENT_TRUNC_REGION = 2
EVENT_V_ENTRY = 3

MODE_PURE = smoothing.MODE_PURE

# Beyond this radius the pure coefficients are taken in x = eps/r^2, since
# r*r (and rho2^1.5 a little earlier) would overflow; below it they keep
# the closed form in rho2 = r^2 + eps.
R_BIG = 1e100

# reading rules of the Delta kernels (see _delta_one)
READ_COMPLEX = 0
READ_REAL = 1
READ_COMPLEX_IM = 2


@njit(cache=True)
def _hypot(x, y):
    """hypot(x, y), bitwise as np.hypot, returned as a built-in float.

    abs(complex) calls libm hypot but raises OverflowError where a finite
    pair overflows.  Below 1e308 in both coordinates it cannot; beyond,
    both are halved first (exact, but for a subnormal partner too small
    to matter) and the result doubled, giving inf where np.hypot does.
    """
    if abs(x) < 1e308 and abs(y) < 1e308:
        return abs(complex(x, y))
    return 2.0 * abs(complex(0.5 * x, 0.5 * y))


@njit(cache=True)
def _w_terms(r, alpha, table):
    """Drift and shrink coefficients of the w-subsystem at radius r.

    dxw/dt = drift - shrink * xw, dyw/dt = -shrink * yw.
    """
    mode = table[0]
    eps = table[1]
    if mode == MODE_PURE or r < table[2]:
        if r > R_BIG:
            x = eps / r / r
            shrink = (1.0 + x) / (1.0 + 2.0 * x)
            kappa = 2.0 * r * math.sqrt(1.0 + x) * shrink
        else:
            rho2 = r * r + eps
            den = r * r + 2.0 * eps
            kappa = 2.0 * rho2 * math.sqrt(rho2) / den
            shrink = rho2 / den
    elif r >= table[4]:
        kappa = 2.0 * r
        shrink = 1.0
    else:
        if r < table[3]:
            c0 = table[5]
            c1 = table[6]
            c2 = table[7]
            c3 = table[8]
        else:
            c0 = table[9]
            c1 = table[10]
            c2 = table[11]
            c3 = table[12]
        m = c0 + r * (c1 + r * (c2 + r * c3))
        mp = c1 + r * (2.0 * c2 + 3.0 * r * c3)
        kappa = 2.0 * r / mp
        shrink = m / (r * mp)
    drift = 0.5 * kappa * (2.0 * alpha - 1.0)
    return drift, shrink


@njit(cache=True)
def _rhs_z(y0, y1, alpha, table):
    """Right-hand side of the linear z-subsystem.

    table is unused; it keeps the signature of _rhs2 for _step2.
    """
    return (alpha - 1.0) * y0, -alpha * y1


@njit(cache=True)
def _rhs2(y2, y3, alpha, table):
    """Right-hand side of the autonomous w-subsystem."""
    r = _hypot(y2, y3)
    drift, shrink = _w_terms(r, alpha, table)
    return drift - shrink * y2, -shrink * y3


@njit(cache=True)
def _step2(ya, yb, fa, fb, h, rhs, alpha, table):
    """One embedded step of a 2-component subsystem with right-hand side rhs.

    rhs is _rhs_z or _rhs2, and h carries the flow direction as its sign.
    Returns the 5th order solution, the error estimate, and the last
    stage derivative (FSAL seed for the next step).
    """
    a2, b2 = rhs(ya + h * A21 * fa, yb + h * A21 * fb, alpha, table)
    a3, b3 = rhs(
        ya + h * (A31 * fa + A32 * a2),
        yb + h * (A31 * fb + A32 * b2),
        alpha,
        table,
    )
    a4, b4 = rhs(
        ya + h * (A41 * fa + A42 * a2 + A43 * a3),
        yb + h * (A41 * fb + A42 * b2 + A43 * b3),
        alpha,
        table,
    )
    a5, b5 = rhs(
        ya + h * (A51 * fa + A52 * a2 + A53 * a3 + A54 * a4),
        yb + h * (A51 * fb + A52 * b2 + A53 * b3 + A54 * b4),
        alpha,
        table,
    )
    a6, b6 = rhs(
        ya + h * (A61 * fa + A62 * a2 + A63 * a3 + A64 * a4 + A65 * a5),
        yb + h * (A61 * fb + A62 * b2 + A63 * b3 + A64 * b4 + A65 * b5),
        alpha,
        table,
    )
    na = ya + h * (B1 * fa + B3 * a3 + B4 * a4 + B5 * a5 + B6 * a6)
    nb = yb + h * (B1 * fb + B3 * b3 + B4 * b4 + B5 * b5 + B6 * b6)
    a7, b7 = rhs(na, nb, alpha, table)
    ea = h * (E1 * fa + E3 * a3 + E4 * a4 + E5 * a5 + E6 * a6 + E7 * a7)
    eb = h * (E1 * fb + E3 * b3 + E4 * b4 + E5 * b5 + E6 * b6 + E7 * b7)
    return na, nb, ea, eb, a7, b7


@njit(cache=True)
def _pair_re(x, re_w, r):
    """Real parts (x_hi, x_lo) of the two pair coordinates.

    With Re z = x, Re w = re_w and |w| = r, the pair is z +- sqrt(w) and
    u = |Re sqrt(w)| = sqrt((r + Re w)/2), so x_hi = x + u >= x_lo = x - u.
    """
    s = r + re_w
    if s < 0.0:
        s = 0.0
    u = math.sqrt(0.5 * s)
    return x + u, x - u


@njit(cache=True)
def _next_h(err, h_use, h_max):
    """Step size after an attempt of size h_use with scaled error err."""
    if err <= 1e-30:
        fac = 5.0
    else:
        fac = 0.9 * err ** (-0.2)
        if fac < 0.2:
            fac = 0.2
        elif fac > 5.0:
            fac = 5.0
    h = h_use * fac
    if h > h_max:
        h = h_max
    return h


@njit(cache=True)
def _event_val(y0, y1, y2, y3, radius, epsilon, kind):
    """Event predicate at a state; returns (hit, sign)."""
    if kind == EVENT_NONE:
        return False, 0
    r = _hypot(y2, y3)
    x1, x2 = _pair_re(y0, y2, r)
    if kind == EVENT_PAIR_ESCAPE:
        a1 = abs(x1)
        a2 = abs(x2)
        lo = a1 if a1 < a2 else a2
        return lo > radius and r > epsilon, 0
    if kind == EVENT_TRUNC_REGION:
        hit = x1 <= -epsilon and x2 <= -epsilon and x1 + x2 <= -3.0 * epsilon
        return hit, 0
    if kind == EVENT_V_ENTRY:
        if -epsilon < x1 < epsilon and x2 < -2.0 * epsilon:
            return True, -1
        if -epsilon < x2 < epsilon and x1 > 2.0 * epsilon:
            return True, 1
    return False, 0


@njit(cache=True)
def _bisect_event(p0, p1, p2, p3, f0, f1, f2, f3, h_acc, alpha, table, fdir, radius,
                  kind):
    """Bisect an event crossing inside one accepted step of size h_acc.

    The step starts at state p, with FSAL derivative f there, and ends
    inside the event region; fdir is the sign of each trial step.
    Returns (y0, y1, y2, y3, dt, sign): the first state found inside the
    region, its time offset from p, and the event sign there.  Only the
    scalar :func:`_drive` (and so the numba :func:`_drive_batch`) calls
    it; :func:`_drive_batch_np` applies the same rule to all its rows at
    once.
    """
    lo = 0.0
    hi = h_acc
    for _ in range(64):
        if hi - lo < 1e-13 * (hi if hi > 1.0 else 1.0):
            break
        mid = 0.5 * (lo + hi)
        hs = fdir * mid
        mz = _step2(p0, p1, f0, f1, hs, _rhs_z, alpha, table)
        mw = _step2(p2, p3, f2, f3, hs, _rhs2, alpha, table)
        mhit, _ = _event_val(mz[0], mz[1], mw[0], mw[1], radius, table[1], kind)
        if mhit:
            hi = mid
        else:
            lo = mid
    hs = fdir * hi
    yz = _step2(p0, p1, f0, f1, hs, _rhs_z, alpha, table)
    yw = _step2(p2, p3, f2, f3, hs, _rhs2, alpha, table)
    _, sign = _event_val(yz[0], yz[1], yw[0], yw[1], radius, table[1], kind)
    return yz[0], yz[1], yw[0], yw[1], hi, sign


@njit(cache=True)
def _drive(
    y0, y1, y2, y3, t_end, alpha, table, rtol, radius, event_kind, max_steps, rec, fdir
):
    """Integrate one trajectory from t = 0 with adaptive steps and event location.

    Returns (status, t, y0, y1, y2, y3, event_sign, n_recorded, n_steps).
    t advances by the step size; fdir (+1 or -1) is the sign of every
    step, so fdir = -1 follows the upward flow.  The start and accepted
    states are appended to rec as rows (t, y0, y1, y2, y3) until its
    capacity is reached; a rec of zero rows records nothing.
    """
    t = 0.0
    h = min(H_MAX, 0.05)
    f10, f11 = _rhs_z(y0, y1, alpha, table)
    f12, f13 = _rhs2(y2, y3, alpha, table)
    nrec = 0
    cap = rec.shape[0]
    if nrec < cap:
        rec[nrec, 0] = t
        rec[nrec, 1] = y0
        rec[nrec, 2] = y1
        rec[nrec, 3] = y2
        rec[nrec, 4] = y3
        nrec += 1
    status = STATUS_RUNNING
    esign = 0
    steps = 0
    while steps < max_steps:
        speed = math.sqrt(f10 * f10 + f11 * f11 + f12 * f12 + f13 * f13)
        if speed < STALL_SPEED:
            status = STATUS_STALLED
            break
        remaining = t_end - t
        if remaining <= 1e-14 * (1.0 if t_end < 1.0 else t_end):
            status = STATUS_TIME_END
            break
        h_use = h if h < remaining else remaining
        hs = fdir * h_use
        n0, n1, e0, e1, k0, k1 = _step2(y0, y1, f10, f11, hs, _rhs_z, alpha, table)
        n2, n3, e2, e3, k2, k3 = _step2(y2, y3, f12, f13, hs, _rhs2, alpha, table)
        steps += 1
        if not (
            math.isfinite(n0)
            and math.isfinite(n1)
            and math.isfinite(n2)
            and math.isfinite(n3)
        ):
            h *= 0.5
            if h < 1e-14:
                status = STATUS_NONFINITE
                break
            continue
        s0 = ATOL + rtol * max(abs(y0), abs(n0))
        s1 = ATOL + rtol * max(abs(y1), abs(n1))
        s2 = ATOL + rtol * max(abs(y2), abs(n2))
        s3 = ATOL + rtol * max(abs(y3), abs(n3))
        q0 = e0 / s0
        q1 = e1 / s1
        q2 = e2 / s2
        q3 = e3 / s3
        err = math.sqrt(0.25 * (q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3))
        if err <= 1.0:
            hit, _ = _event_val(n0, n1, n2, n3, radius, table[1], event_kind)
            if hit:
                y0, y1, y2, y3, dt, esign = _bisect_event(
                    y0, y1, y2, y3, f10, f11, f12, f13, h_use, alpha, table,
                    fdir, radius, event_kind,
                )
                t += dt
                status = STATUS_EVENT
            else:
                y0, y1, y2, y3 = n0, n1, n2, n3
                t += h_use
                f10, f11, f12, f13 = k0, k1, k2, k3
            if nrec < cap:
                rec[nrec, 0] = t
                rec[nrec, 1] = y0
                rec[nrec, 2] = y1
                rec[nrec, 3] = y2
                rec[nrec, 4] = y3
                nrec += 1
            if hit:
                break
        h = _next_h(err, h_use, H_MAX)
    if status == STATUS_RUNNING and t_end - t <= 1e-14 * (
        1.0 if t_end < 1.0 else t_end
    ):
        status = STATUS_TIME_END
    return status, t, y0, y1, y2, y3, esign, nrec, steps


@njit(cache=True, parallel=True)
def _drive_batch(
    Y, t_end, alpha, table, rtol, radius, event_kind, max_steps,
    out_status, out_t, out_sign, fdir,
):
    """Integrate every row of Y in place; fill status, time, event sign."""
    n = Y.shape[0]
    rec = np.empty((0, 5))
    for i in prange(n):
        res = _drive(
            Y[i, 0], Y[i, 1], Y[i, 2], Y[i, 3], t_end, alpha, table, rtol, radius,
            event_kind, max_steps, rec, fdir,
        )
        out_status[i] = res[0]
        out_t[i] = res[1]
        Y[i, 0] = res[2]
        Y[i, 1] = res[3]
        Y[i, 2] = res[4]
        Y[i, 3] = res[5]
        out_sign[i] = res[6]


@njit(cache=True)
def _delta_one(xw, yw, alpha, table, rtol, u_star, reading, max_time, max_steps):
    """Rescaled branch-direction limit of one w-trajectory.

    Integrates the autonomous w-subsystem and reads d = exp(-(alpha-1) t)
    sqrt(w) once |Re sqrt(w)| clears u_star > 0.  sqrt is the principal
    root, taken only when a reading is due.  Im w keeps its sign along
    the w-flow, so off the negative real axis (where |Re sqrt(w)| = 0 and
    no reading is taken) this is the branch continued from the principal
    root of w0.  Convergence is declared when two
    readings 0.7 apart agree to AGREE_TOL: as complex numbers under
    READ_COMPLEX, in their real parts only under READ_REAL (Im d decays
    like exp(-(2 alpha - 1) t), long after Re d has settled), and as
    complex numbers with |Im d| < IM_TOL under READ_COMPLEX_IM.
    Returns (status, Re d, Im d, t).
    """
    rate = alpha - 1.0
    y2 = xw
    y3 = yw
    t = 0.0
    h = min(H_MAX, 0.05)
    f12, f13 = _rhs2(y2, y3, alpha, table)
    have_prev = False
    prev_re = 0.0
    prev_im = 0.0
    t_next = 0.0
    best_re = math.nan
    best_im = math.nan
    steps = 0
    while steps < max_steps and t < max_time:
        if t >= t_next:
            s = complex(np.sqrt(complex(y2, y3)))
            if abs(s.real) >= u_star:
                scale = float(np.exp(-rate * t))
                d_re = scale * s.real
                d_im = scale * s.imag
                best_re = d_re
                best_im = d_im
                if have_prev:
                    if reading == READ_REAL:
                        gap = abs(d_re - prev_re)
                    else:
                        gap = _hypot(d_re - prev_re, d_im - prev_im)
                    im_ok = reading != READ_COMPLEX_IM or abs(d_im) < IM_TOL
                    if gap < AGREE_TOL and im_ok:
                        return STATUS_EVENT, d_re, d_im, t
                prev_re = d_re
                prev_im = d_im
                have_prev = True
                t_next = t + 0.7
        out = _step2(y2, y3, f12, f13, h, _rhs2, alpha, table)
        n2, n3, e2, e3 = out[0], out[1], out[2], out[3]
        steps += 1
        if not (math.isfinite(n2) and math.isfinite(n3)):
            h *= 0.5
            if h < 1e-14:
                return STATUS_NONFINITE, best_re, best_im, t
            continue
        s2 = ATOL + rtol * max(abs(y2), abs(n2))
        s3 = ATOL + rtol * max(abs(y3), abs(n3))
        q2 = e2 / s2
        q3 = e3 / s3
        err = math.sqrt(0.5 * (q2 * q2 + q3 * q3))
        if err <= 1.0:
            y2, y3 = n2, n3
            t += h
            f12, f13 = out[4], out[5]
        h = _next_h(err, h, H_MAX)
    return STATUS_TIME_END, best_re, best_im, t


@njit(cache=True, parallel=True)
def _delta_batch(
    W, alpha, table, rtol, u_star, reading, max_time, max_steps,
    out_status, out_re, out_im, out_t,
):
    """Branch-direction limits for every row (Re w, Im w) of W.

    Each row follows the reading rule of :func:`_delta_one`.
    """
    n = W.shape[0]
    for i in prange(n):
        res = _delta_one(
            W[i, 0], W[i, 1], alpha, table, rtol, u_star, reading, max_time, max_steps
        )
        out_status[i] = res[0]
        out_re[i] = res[1]
        out_im[i] = res[2]
        out_t[i] = res[3]


def _kappa_shrink_np(r, table):
    """Vectorized w-flow coefficients at radii r: (kappa, shrink).

    kappa = 2r/m'(r) and shrink = m(r)/(r m'(r)), so that the drift of
    Re w is kappa (2 alpha - 1)/2.  The pure profile has the closed form
    below (taken in x = eps/r^2 beyond R_BIG), which cutoff mode also uses
    inside table[2]; from there on m and m' come from the smoothing
    evaluator.
    """
    eps = table[1]
    if table[0] == MODE_PURE:
        big = r > R_BIG
        if big.any():
            rf = np.maximum(r, R_BIG)
            x = eps / rf / rf
            shrink = (1.0 + x) / (1.0 + 2.0 * x)
            kappa = 2.0 * rf * np.sqrt(1.0 + x) * shrink
            near = _kappa_shrink_np(np.minimum(r, R_BIG), table)
            return np.where(big, kappa, near[0]), np.where(big, shrink, near[1])
        rho2 = r * r + eps
        den = r * r + 2.0 * eps
        return 2.0 * rho2 * np.sqrt(rho2) / den, rho2 / den
    # inner radii read the profile at the knot and are replaced below
    rb = np.maximum(r, table[2])
    m, mp = smoothing._profile(rb, table, (1, 2))
    kappa = 2.0 * rb / mp
    shrink = m / (rb * mp)
    inner = r < table[2]
    kappa[inner], shrink[inner] = _kappa_shrink_np(r[inner], (MODE_PURE, eps))
    return kappa, shrink


def _rhs_w_np(W, alpha, table):
    """Vectorized right-hand side of the w-subsystem on rows [Re w, Im w]."""
    kappa, shrink = _kappa_shrink_np(np.hypot(W[:, 0], W[:, 1]), table)
    F = np.empty_like(W)
    F[:, 0] = 0.5 * kappa * (2.0 * alpha - 1.0) - shrink * W[:, 0]
    F[:, 1] = -shrink * W[:, 1]
    return F


def _rhs_np(Y, alpha, table):
    """Vectorized right-hand side on rows [Re z, Im z, Re w, Im w]."""
    F = np.empty_like(Y)
    F[:, 0] = (alpha - 1.0) * Y[:, 0]
    F[:, 1] = -alpha * Y[:, 1]
    F[:, 2:] = _rhs_w_np(Y[:, 2:], alpha, table)
    return F


def _attempt_np(Y, K1, h, rhs, rtol):
    """One embedded Dormand-Prince attempt for all rows with per-row step h.

    rhs maps state rows to derivative rows.  Returns the 5th-order states,
    the last stage derivative (FSAL seed of the next step) and the scaled
    RMS error of each row; rows whose new state is not finite get inf.
    """
    hc = h[:, None]
    K2 = rhs(Y + hc * (A21 * K1))
    K3 = rhs(Y + hc * (A31 * K1 + A32 * K2))
    K4 = rhs(Y + hc * (A41 * K1 + A42 * K2 + A43 * K3))
    K5 = rhs(Y + hc * (A51 * K1 + A52 * K2 + A53 * K3 + A54 * K4))
    K6 = rhs(Y + hc * (A61 * K1 + A62 * K2 + A63 * K3 + A64 * K4 + A65 * K5))
    Yn = Y + hc * (B1 * K1 + B3 * K3 + B4 * K4 + B5 * K5 + B6 * K6)
    K7 = rhs(Yn)
    E = hc * (E1 * K1 + E3 * K3 + E4 * K4 + E5 * K5 + E6 * K6 + E7 * K7)
    scale = ATOL + rtol * np.maximum(np.abs(Y), np.abs(Yn))
    q = E / scale
    err = np.sqrt((q * q).sum(axis=1) / Y.shape[1])
    err[~np.isfinite(Yn).all(axis=1)] = np.inf
    return Yn, K7, err


def _next_h_np(err, h_use, h_max):
    """Vectorized twin of :func:`_next_h`; a non-finite err halves the step."""
    with np.errstate(divide="ignore", over="ignore"):
        fac = np.clip(0.9 * err**-0.2, 0.2, 5.0)
    fac[err <= 1e-30] = 5.0
    fac[~np.isfinite(err)] = 0.5
    return np.minimum(h_use * fac, h_max)


def pair_re_np(x, re_w, r):
    """Vectorized twin of :func:`_pair_re`: (x_hi, x_lo) arrays."""
    u = np.sqrt(0.5 * np.maximum(r + re_w, 0.0))
    return x + u, x - u


def _event_np(Y, radius, epsilon, kind):
    """Vectorized event predicate; returns (hit, sign) arrays."""
    n = Y.shape[0]
    if kind == EVENT_NONE:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    r = np.hypot(Y[:, 2], Y[:, 3])
    x1, x2 = pair_re_np(Y[:, 0], Y[:, 2], r)
    sign = np.zeros(n, dtype=np.int64)
    if kind == EVENT_PAIR_ESCAPE:
        hit = (np.minimum(np.abs(x1), np.abs(x2)) > radius) & (r > epsilon)
        return hit, sign
    if kind == EVENT_TRUNC_REGION:
        hit = (x1 <= -epsilon) & (x2 <= -epsilon) & (x1 + x2 <= -3.0 * epsilon)
        return hit, sign
    minus = (x1 > -epsilon) & (x1 < epsilon) & (x2 < -2.0 * epsilon)
    plus = (x2 > -epsilon) & (x2 < epsilon) & (x1 > 2.0 * epsilon)
    sign[minus] = -1
    sign[plus] = 1
    return minus | plus, sign


def _lockstep(Y, t, rhs, rtol, max_steps, status, stop, t_end=np.inf, fdir=1.0,
              event=None):
    """Advance the rows of Y and t in place, one attempt per active row in
    each of at most max_steps iterations.

    Each iteration stop(active, K1) first clears the rows that end there,
    setting their status; steps are clipped to t_end - t.  An accepted
    step ending where event(Yn) holds is not taken: the row stops with
    STATUS_EVENT and its step goes to h_event.  Returns (K1, h_event).
    """
    n = Y.shape[0]
    h = np.full(n, min(H_MAX, 0.05))
    h_event = np.zeros(n)
    K1 = rhs(Y)
    active = np.ones(n, dtype=bool)
    for _ in range(int(max_steps)):
        stop(active, K1)
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        h_use = np.minimum(h[idx], t_end - t[idx])
        Yn, K7, err = _attempt_np(Y[idx], K1[idx], fdir * h_use, rhs, rtol)
        acc = err <= 1.0
        if acc.any():
            if event is not None:
                hit = np.zeros_like(acc)
                hit[acc] = event(Yn[acc])
                ev = idx[hit]
                h_event[ev] = h_use[hit]
                status[ev] = STATUS_EVENT
                active[ev] = False
                acc &= ~hit
            ai = idx[acc]
            Y[ai] = Yn[acc]
            t[ai] += h_use[acc]
            K1[ai] = K7[acc]
        h[idx] = _next_h_np(err, h_use, H_MAX)
        dead = idx[~np.isfinite(err) & (h[idx] < 1e-14)]
        status[dead] = STATUS_NONFINITE
        active[dead] = False
    return K1, h_event


@np.errstate(over="ignore", invalid="ignore")
def _drive_batch_np(
    Y, t_end, alpha, table, rtol, radius, event_kind, max_steps,
    out_status, out_t, out_sign, fdir,
):
    """Lockstep vectorized twin of :func:`_drive_batch`.

    A row whose accepted step ends inside the event region stops there
    with STATUS_EVENT, keeping its pre-step state, FSAL derivative and
    time.  After the lockstep every event row is bisected at once through
    :func:`_attempt_np`, by the rule of :func:`_bisect_event`: at most 64
    halvings per row, each row stopping once hi - lo < 1e-13 max(hi, 1).
    """

    def rhs(Z):
        return _rhs_np(Z, alpha, table)

    def event(Z):
        return _event_np(Z, radius, table[1], event_kind)[0]

    end_gate = 1e-14 * max(1.0, abs(t_end))

    def stop(active, K1):
        stalled = active & (np.sqrt((K1 * K1).sum(axis=1)) < STALL_SPEED)
        out_status[stalled] = STATUS_STALLED
        active &= ~stalled
        done = active & (t_end - out_t <= end_gate)
        out_status[done] = STATUS_TIME_END
        active &= ~done

    out_t[:] = 0.0
    out_status[:] = STATUS_RUNNING
    out_sign[:] = 0
    K1, h_event = _lockstep(Y, out_t, rhs, rtol, max_steps, out_status, stop, t_end,
                            fdir, event)
    ev = np.nonzero(out_status == STATUS_EVENT)[0]
    if ev.size:
        P = Y[ev]
        KP = K1[ev]
        lo = np.zeros(ev.size)
        hi = h_event[ev]
        for _ in range(64):
            live = np.nonzero(hi - lo >= 1e-13 * np.maximum(hi, 1.0))[0]
            if not live.size:
                break
            mid = 0.5 * (lo[live] + hi[live])
            Ym = _attempt_np(P[live], KP[live], fdir * mid, rhs, rtol)[0]
            mhit = event(Ym)
            hi[live[mhit]] = mid[mhit]
            lo[live[~mhit]] = mid[~mhit]
        Y[ev] = _attempt_np(P, KP, fdir * hi, rhs, rtol)[0]
        out_sign[ev] = _event_np(Y[ev], radius, table[1], event_kind)[1]
        out_t[ev] += hi
    leftover = out_status == STATUS_RUNNING
    out_status[leftover & (out_t >= t_end - end_gate)] = STATUS_TIME_END


@np.errstate(over="ignore", invalid="ignore")
def _delta_batch_np(
    W, alpha, table, rtol, u_star, reading, max_time, max_steps,
    out_status, out_re, out_im, out_t,
):
    """Lockstep vectorized twin of :func:`_delta_batch`.

    Each row follows the reading rule of :func:`_delta_one`.
    """

    def rhs(Z):
        return _rhs_w_np(Z, alpha, table)

    n = W.shape[0]
    y = W.astype(float)
    rate = alpha - 1.0
    have_prev = np.zeros(n, dtype=bool)
    prev = np.zeros(n, dtype=complex)
    t_next = np.zeros(n)

    def stop(active, K1):
        due = np.nonzero(active & (out_t >= t_next))[0]
        if due.size:
            s = np.sqrt(y[due, 0] + 1j * y[due, 1])
            readable = np.abs(s.real) >= u_star
            ri = due[readable]
            d = np.exp(-rate * out_t[ri]) * s[readable]
            out_re[ri] = d.real
            out_im[ri] = d.imag
            if reading == READ_REAL:
                gap = np.abs(d.real - prev[ri].real)
            else:
                gap = np.abs(d - prev[ri])
            conv = have_prev[ri] & (gap < AGREE_TOL)
            if reading == READ_COMPLEX_IM:
                conv &= np.abs(d.imag) < IM_TOL
            out_status[ri[conv]] = STATUS_EVENT
            active[ri[conv]] = False
            rest = ri[~conv]
            prev[rest] = d[~conv]
            have_prev[rest] = True
            t_next[rest] = out_t[rest] + 0.7
        active[out_t >= max_time] = False

    out_status[:] = STATUS_TIME_END
    out_re[:] = np.nan
    out_im[:] = np.nan
    out_t[:] = 0.0
    _lockstep(y, out_t, rhs, rtol, max_steps, out_status, stop)


drive_batch_kernel = _drive_batch if using_numba() else _drive_batch_np
delta_batch_kernel = _delta_batch if using_numba() else _delta_batch_np


def warmup():
    """Touch every jit kernel once so later timings exclude compilation."""
    table = smoothing.build_smoothing_table(1.0)
    # the scalar front ends pass the table as a tuple, the batches as is
    scalar_table = tuple(table.tolist())
    rec = np.empty((4, 5))
    _drive(
        1.0, 0.5, 0.2, 0.1, 0.01, 1.5, scalar_table, 1e-6, 1e3, EVENT_PAIR_ESCAPE,
        100, rec, 1.0,
    )
    Y = np.array([[1.0, 0.0, 0.5, 0.2]])
    st = np.zeros(1, dtype=np.int64)
    tt = np.zeros(1)
    sg = np.zeros(1, dtype=np.int64)
    _drive_batch(Y, 0.01, 1.5, table, 1e-6, 1e3, EVENT_NONE, 100, st, tt, sg, 1.0)
    _delta_one(1.0, 0.5, 1.5, scalar_table, 1e-6, 2.0, READ_COMPLEX, 1.0, 50)
    W = np.array([[1.0, 0.5]])
    dr = np.zeros(1)
    di = np.zeros(1)
    _delta_batch(W, 1.5, table, 1e-6, 2.0, READ_COMPLEX, 1.0, 50, st, dr, di, tt)
