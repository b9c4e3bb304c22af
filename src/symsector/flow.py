"""Trajectory integration, escape detection, and branch-direction limits.

Public wrappers around the adaptive kernels: recorded trajectories,
batched integration and the rescaled limit Delta of the w-flow whose
real part is the hypersurface offset c.  This module is the one front
end of the kernels: their shared arguments are built once here
(_drive_args), one rule (_row_loop) picks the batch kernel, and each
scalar query is a one-row batch, with the batch's bits.  Delta is a
drive too (_delta_rows).  Only integrate_flow, which records, calls the
scalar kernel _drive itself.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._accel import available_cpus, can_fork, run_forked
from .geometry import ALPHA_DEFAULT, DEFAULT_PARAMS, SymPoint, complex_square
from .smoothing import MODE_CUTOFF, MODE_PURE

TERM_ESCAPED = "ESCAPED"
TERM_MAX_TIME = "MAX_TIME"
TERM_NEAR_CRITICAL = "NEAR_CRITICAL"

_SPLIT_ROWS = 5000  # fewest Delta rows worth a forked process
# fewest rows the numpy lockstep runs, by smoothing mode (table[0]); see _row_loop
_LOCKSTEP_ROWS = {MODE_PURE: 72, MODE_CUTOFF: 544}


class NoEscapeError(RuntimeError):
    """The trajectory failed to reach its target region in max_time."""


class NonFiniteFlowError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class FlowSettings:
    """Integration controls shared by all flow-based operations; immutable.

    escape_radius defaults to 1e3 * max(1, epsilon) when left None, so
    escape always means leaving the region where the perturbation and
    the hypersurfaces live.  step_tolerance is the relative tolerance of
    every adaptive step and max_steps (an integer >= 1) the step budget
    of one trajectory; the three floats must be finite and positive.
    Delta is a drive too, with the same controls; escape_radius does not
    apply to it.  The largest step is fixed: _kernels.H_MAX (0.5) while a
    drive integrates w, none once it integrates u = e^(-Lt) sqrt(w)
    beyond |w| = epsilon, and _kernels.H_MAX_V_ENTRY (0.1) in both frames
    for the V-entry event.  So is the stall speed, _kernels.STALL_SPEED
    (1e-10).  A drive takes z in closed form, so the step tolerance
    bounds the error of w (or u) alone.
    """

    max_time: float = 60.0
    escape_radius: float = None
    step_tolerance: float = 1e-9
    max_steps: int = 1_000_000

    def __post_init__(self):
        for value in (self.max_time, self.step_tolerance):
            if not 0.0 < value < math.inf:
                raise ValueError("flow settings must be finite and positive")
        if self.escape_radius is not None and not 0.0 < self.escape_radius < math.inf:
            raise ValueError("escape_radius must be finite and positive")
        n = self.max_steps
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("max_steps must be an integer >= 1")


DEFAULT_SETTINGS = FlowSettings()


def resolve_escape_radius(settings, params):
    """Concrete escape radius for a parameter set."""
    if settings.escape_radius is not None:
        return float(settings.escape_radius)
    return 1e3 * max(1.0, params.epsilon)


@dataclass
class Trajectory:
    """Recorded downward-flow trajectory.

    times and states hold the accepted integration samples (states are
    rows [Re z, Im z, Re w, Im w]); termination is one of ESCAPED,
    MAX_TIME, NEAR_CRITICAL.  For escaped trajectories escape_data
    carries the crossing time and the ordered sign pair of
    (Re z1, Re z2) at escape.
    """

    times: np.ndarray
    states: np.ndarray
    termination: str
    escape_data: dict = None

    @property
    def samples(self):
        """Samples as (t, SymPoint) pairs."""
        return [(float(t), point_of(row)) for t, row in zip(self.times, self.states)]

    def final_state(self):
        return self.states[-1].copy()

    def final_point(self):
        return point_of(self.states[-1])


def flow_unperturbed_z(z0, t, alpha=ALPHA_DEFAULT):
    """Exact saddle flow of the z-coordinate, ignoring the w-coupling.

    Downward flow for t > 0: Re z grows at rate alpha-1, Im z decays at
    rate alpha.  Negative t flows upward.  This is the closed form the
    drive kernels take for z (_kernels._factors), with the same bits; the
    real and imaginary parts are set apart, so an infinite part leaves
    the other finite.
    """
    z0 = np.asarray(z0, dtype=complex)
    ea, eb = _kernels._factors(alpha, np.asarray(t, dtype=float))
    z = np.empty(np.broadcast(z0, ea).shape, dtype=complex)
    z.real, z.imag = ea * z0.real, eb * z0.imag
    return z[()]


def point_of(state):
    """SymPoint of a real state vector."""
    return SymPoint.from_sym(state[0] + 1j * state[1], state[2] + 1j * state[3])


def escape_sign_pair(state):
    """Ordered sign pair of (Re z1, Re z2) recovered from a state."""
    y0, _, y2, y3 = np.asarray(state, dtype=float).tolist()
    x_hi, x_lo = _kernels._pair_re(y0, y2, _kernels._hypot(y2, y3))
    return (int(np.sign(x_lo)), int(np.sign(x_hi)))


def _row_loop(n, table):
    """The batch kernel for n rows: the row loop or the numpy lockstep.

    The row loop _drive_batch, which runs the scalar kernel row by row,
    takes batches below _LOCKSTEP_ROWS of the smoothing mode of table;
    _drive_batch_np takes the rest.  Those counts are where the lockstep
    overtook the row loop on random escape drives (2 cores): near 72 rows
    in pure mode and 544 in cutoff mode, where knot landings hold the
    lockstep's slowest rows for many iterations.  Delta rows cross over
    later: on keys uniform in [0, 48]^2 the lockstep took about 1.5 times
    as long as the row loop at 72 pure-mode rows, and about 4.5 times at
    544 cutoff-mode rows, most of which start inside EVENT_DELTA and cost
    the row loop nothing.  Both give the same bits, so the choice never
    changes an output.
    """
    if n < _LOCKSTEP_ROWS[table[0]]:
        return _kernels._drive_batch
    return _kernels._drive_batch_np


def _drive_args(params, settings, event_kind):
    """Arguments alpha .. max_steps of _drive (scalar) or the batch kernels.

    The radius is the escape radius, or s_star for EVENT_DELTA.
    """
    if event_kind == _kernels.EVENT_DELTA:
        radius = _kernels._delta_radius(params.alpha, params.table)
    else:
        radius = resolve_escape_radius(settings, params)
    return (params.alpha, params.table, settings.step_tolerance, radius, event_kind,
            settings.max_steps)


def _end_time(t_end, direction):
    """float(t_end), checked finite and >= 0, with direction 1.0 or -1.0."""
    t_end = float(t_end)
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"end time must be finite and nonnegative, not {t_end!r}")
    if direction not in (1.0, -1.0):
        raise ValueError(f"direction must be 1.0 or -1.0, not {direction!r}")
    return t_end


def _state4(state):
    """state as a float array, checked to hold the 4 entries of a drive."""
    state = np.asarray(state, dtype=float)
    if state.shape != (4,):
        raise ValueError(f"a flow state has 4 entries, not shape {state.shape}")
    return state


def integrate_flow(p0, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS,
                   record=True):
    """Integrate the downward flow from p0 until escape or max_time.

    The trajectory terminates ESCAPED when both pair coordinates have
    |Re| beyond the escape radius and the point is outside the perturbed
    band |w| <= epsilon (in cutoff mode within KNOT_TOL of |w| = epsilon
    counts as outside, as a step landed on the outer knot does); it
    terminates NEAR_CRITICAL if the speed drops below the stall
    threshold, and MAX_TIME otherwise.  A recorded trajectory holds the
    state [z, w] at the start and at each accepted step.

    Raises
    ------
    ValueError
        If p0 is not a SymPoint or a state of 4 entries.
    NonFiniteFlowError
        If the state leaves the representable range.
    """
    state = p0.state() if isinstance(p0, SymPoint) else _state4(p0)
    rec = [] if record else None
    status, t, y0, y1, y2, y3, _, _ = _kernels._drive(
        *state.tolist(), float(settings.max_time),
        *_drive_args(params, settings, _kernels.EVENT_PAIR_ESCAPE), rec, 1.0,
    )
    out_state = np.array([y0, y1, y2, y3])
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status == _kernels.STATUS_RUNNING:
        raise RuntimeError("step budget exhausted before max_time")
    if record:
        rec = np.array(rec)
        times = rec[:, 0].copy()
        states = rec[:, 1:].copy()
    else:
        times = np.array([0.0, t])
        states = np.vstack([state, out_state])
    if status == _kernels.STATUS_EVENT:
        termination = TERM_ESCAPED
        escape_data = {"time": float(t), "signs": escape_sign_pair(out_state)}
    elif status == _kernels.STATUS_STALLED:
        termination = TERM_NEAR_CRITICAL
        escape_data = None
    else:
        termination = TERM_MAX_TIME
        escape_data = None
    return Trajectory(times, states, termination, escape_data)


def flow_state_to_time(state, t, params, settings=DEFAULT_SETTINGS, direction=1.0):
    """State advanced by time t along the downward (or upward) flow.

    state must have 4 entries, t be finite and >= 0, and direction 1.0
    (downward) or -1.0 (upward); anything else raises ValueError.
    """
    Y = np.array([_state4(state)])
    (status,), _, _ = drive_batch(Y, params, settings, _kernels.EVENT_NONE, t, direction)
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status != _kernels.STATUS_TIME_END:
        raise RuntimeError("time integration terminated early")
    return Y[0]


def first_event(state, event_kind, params, settings):
    """First hit of an event region along the downward flow.

    Returns (hit, t, state, sign); hit is False if the flow stalled or
    max_time elapsed without entering the region.  A start already inside
    the region is the event, at t = 0 (drive_batch).  A state of other
    than 4 entries or an unknown event kind raises ValueError, a step
    budget spent before max_time RuntimeError.
    """
    Y = np.array([_state4(state)])
    (status,), (t,), (sign,) = drive_batch(Y, params, settings, event_kind)
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status == _kernels.STATUS_RUNNING:
        raise RuntimeError("step budget exhausted before max_time")
    if status == _kernels.STATUS_EVENT:
        return True, float(t), Y[0], int(sign)
    return False, float(t), Y[0], 0


def drive_batch(Y, params, settings, event_kind, t_end=None, direction=1.0):
    """Integrate every row of Y in place; returns (status, t, sign).

    Runs the batch kernel that :func:`_row_loop` picks up to t_end
    (default max_time), which must be finite and >= 0, downward for
    direction 1.0 and upward for -1.0.  Y must be a 2-D float64
    array of 4 columns: another dtype would truncate each state written
    back, and a converted copy would leave the caller's Y as it was.  A
    row that starts inside the region of event_kind, one of EVENT_NONE ..
    EVENT_V_ENTRY, ends STATUS_EVENT at t = 0.
    """
    if not (isinstance(Y, np.ndarray) and Y.dtype == np.float64
            and Y.ndim == 2 and Y.shape[1] == 4):
        raise ValueError("Y must be a 2-D float64 array with 4 columns")
    if event_kind not in range(_kernels.EVENT_NONE, _kernels.EVENT_V_ENTRY + 1):
        raise ValueError(f"unknown event kind {event_kind!r}")
    n = Y.shape[0]
    out_status = np.zeros(n, dtype=np.int64)
    out_t = np.zeros(n)
    out_sign = np.zeros(n, dtype=np.int64)
    t_end = _end_time(settings.max_time if t_end is None else t_end, direction)
    _row_loop(n, params.table)(
        Y, t_end, *_drive_args(params, settings, event_kind),
        out_status, out_t, out_sign, direction,
    )
    return out_status, out_t, out_sign


def compute_delta(sqrt_w0, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Rescaled branch-direction limit Delta of one w-trajectory.

    The w-flow started at w0 = sqrt_w0^2 is integrated, and
    Delta = lim exp(-(alpha-1) t) sqrt(w(t)) on the branch of sqrt(w)
    continued from the principal root of w0.  Im w keeps its sign along
    the flow, so that branch is the principal root wherever it is read.
    Where sqrt_w0 is the other root, Delta is negated, so Delta is exactly
    odd in sqrt_w0 and Re Delta is even under conjugation.

    Re Delta is read once |Re sqrt(w)| passes s_star, beyond which it
    drifts by less than _kernels.DELTA_TOL relatively (_delta_rows).
    Im Delta decays like exp(-(2 alpha - 1) t) and is returned as its
    limit, 0.

    Raises
    ------
    NoEscapeError
        If |Re sqrt(w)| does not pass s_star within max_time.
    """
    (delta,), (status,) = compute_delta_batch([complex(sqrt_w0)], params, settings)
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state in w-flow")
    if status != _kernels.STATUS_EVENT:
        raise NoEscapeError("no branch-direction reading before max_time")
    return complex(delta)


def compute_c(sqrt_w0, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Hypersurface offset c = |Re Delta| >= 0 of one w-value (compute_delta)."""
    return abs(compute_delta(sqrt_w0, params, settings).real)


def _delta_rows(W, args):
    """(status, Re Delta, t) of the Delta rows [Re w0, Im w0] of W.

    A Delta row is the drive of [0, 0, Re w0, Im w0] to the region
    EVENT_DELTA, whose arguments args are (max_time, *_drive_args), run
    by the batch kernel that _row_loop picks.  Where it ends STATUS_EVENT
    at time t, Re Delta = Re u = Re sqrt(w) / e^((alpha-1) t), the
    principal root of its w, as at the switch to the u-frame; a row whose
    reading is not finite ends STATUS_NONFINITE, and Re Delta is nan on
    every row that does not end STATUS_EVENT.
    """
    _max_time, alpha, table, *_ = args
    n = W.shape[0]
    Y = np.zeros((n, 4))
    Y[:, 2:] = W
    status, t = np.zeros(n, dtype=np.int64), np.zeros(n)
    _row_loop(n, table)(Y, *args, status, t, np.zeros(n, dtype=np.int64), 1.0)
    s = np.empty(n, dtype=complex)  # x + 1j y is nan for y = inf
    s.real, s.imag = Y[:, 2], Y[:, 3]
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.sqrt(s).real / _kernels._factors(alpha, t)[0]
    event = status == _kernels.STATUS_EVENT
    status[event & ~np.isfinite(re)] = _kernels.STATUS_NONFINITE
    re[status != _kernels.STATUS_EVENT] = np.nan
    return status, re, t


def _delta_split(W, args):
    """:func:`_delta_rows` of W, with its rows shared among forked workers.

    Only where _accel.can_fork allows, and only with _SPLIT_ROWS rows or
    more per process.  Worker j takes rows j, j+k, ...: the rows of
    compute_c_batch come sorted, so strided chunks mix short and long
    trajectories.  Every kernel operation is per row, and each active
    row makes one attempt per lockstep iteration, so any split gives the
    same bits.  A chunk whose worker died is run here.
    """
    k = min(available_cpus(), W.shape[0] // _SPLIT_ROWS)
    if k < 2 or not can_fork():
        return _delta_rows(W, args)
    parts = run_forked(_delta_rows, [(W[j::k], args) for j in range(k)], k)
    parts = [_delta_rows(W[j::k], args) if isinstance(part, Exception) else part
             for j, part in enumerate(parts)]
    outs = tuple(np.empty(W.shape[0], dtype=got.dtype) for got in parts[0])
    for j, part in enumerate(parts):
        for out, got in zip(outs, part):
            out[j::k] = got
    return outs


def compute_delta_batch(sqrt_w0s, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Branch-direction limits of many w-values.

    Returns (delta, status) where delta is complex (nan where Delta was
    not resolved) and status is the raw kernel status row.  Each row is
    read as :func:`compute_delta` reads its value.
    """
    s0 = np.asarray(sqrt_w0s, dtype=complex).ravel()
    # beyond |s| ~ 1.34e154 w0 overflows; such a row ends NONFINITE
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = complex_square(s0)
        # the kernels read the branch of the principal root of w0; negate
        # Delta where s0 is the other root, to follow the branch through s0
        root = np.sqrt(w0)
        flip = np.abs(root - s0) > np.abs(root + s0)
    W = np.column_stack([w0.real, w0.imag])
    args = _drive_args(params, settings, _kernels.EVENT_DELTA)
    status, re, _ = _delta_split(W, (float(settings.max_time), *args))
    delta = np.empty(re.size, dtype=complex)
    delta.real = re
    delta.imag = np.where(status == _kernels.STATUS_EVENT, 0.0, np.nan)
    delta[flip] = -delta[flip]
    return delta, status


def compute_c_batch(sqrt_w0s, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Offsets c = |Re Delta| for many w-values (nan where unresolved).

    c is bitwise even under s -> -s and s -> conj(s), so each distinct
    (|Re s|, |Im s|) is integrated once and its offset scattered back
    to every query that folds to it, in the shape of sqrt_w0s.
    """
    s = np.asarray(sqrt_w0s, dtype=complex)
    key = np.empty(s.size, dtype=complex)
    key.real = np.abs(s.real).ravel()
    key.imag = np.abs(s.imag).ravel()
    key, inverse = np.unique(key, return_inverse=True)
    delta, _ = compute_delta_batch(key, params, settings)
    return np.abs(delta.real)[inverse].reshape(s.shape)
