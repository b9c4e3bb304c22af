"""Trajectory integration, escape detection, and branch-direction limits.

Public wrappers around the adaptive kernels: single trajectories with
optional recording, batched integration (the backend _kernels selects:
jit or vectorized numpy), and the rescaled limit Delta of the w-flow
whose real part is the hypersurface offset c.  This module is the one
front end of the kernels: each kernel's shared arguments are built once
here (_drive_args, _delta_args).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._accel import available_cpus, using_numba
from .geometry import ALPHA_DEFAULT, SteinParams, SymPoint

TERM_ESCAPED = "ESCAPED"
TERM_MAX_TIME = "MAX_TIME"
TERM_NEAR_CRITICAL = "NEAR_CRITICAL"

_ATOL = 1e-30
_H_MAX = 0.1  # largest step of the drive and Delta kernels
_STALL_SPEED = 1e-10  # a trajectory slower than this has stalled
_AGREE_TOL = 1e-8  # Delta readings 0.7 apart agree to this
_IM_TOL = 5e-9  # Im Delta residual bound of the "complex-im" reading
_READINGS = {
    "complex": _kernels.READ_COMPLEX,
    "real": _kernels.READ_REAL,
    "complex-im": _kernels.READ_COMPLEX_IM,
}
_REC_CAP = 65536
_SPLIT_ROWS = 1000  # fewest Delta rows worth a forked process


class NoEscapeError(RuntimeError):
    """The trajectory failed to reach its target region in max_time."""


class NonFiniteFlowError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass
class FlowSettings:
    """Integration controls shared by all flow-based operations.

    escape_radius defaults to 1e3 * max(1, epsilon) when left None, so
    escape always means leaving the region where the perturbation and
    the hypersurfaces live.  step_tolerance is the relative tolerance of
    every adaptive step and max_steps the step budget of one trajectory.
    The largest step (0.1) and the stall speed (1e-10) are fixed.
    """

    max_time: float = 60.0
    escape_radius: float = None
    step_tolerance: float = 1e-9
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.max_time <= 0 or self.step_tolerance <= 0:
            raise ValueError("flow settings must be positive")
        if self.escape_radius is not None and self.escape_radius <= 0:
            raise ValueError("escape_radius must be positive")


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
    rate alpha.  Negative t flows upward.
    """
    z0 = np.asarray(z0, dtype=complex)
    return np.exp((alpha - 1.0) * t) * z0.real + 1j * np.exp(-alpha * t) * z0.imag


def point_of(state):
    """SymPoint of a real state vector."""
    return SymPoint.from_sym(state[0] + 1j * state[1], state[2] + 1j * state[3])


def escape_sign_pair(state):
    """Ordered sign pair of (Re z1, Re z2) recovered from a state."""
    y0, _, y2, y3 = np.asarray(state, dtype=float).tolist()
    x_hi, x_lo = _kernels._pair_re(y0, y2, _kernels._hypot(y2, y3))
    return (int(np.sign(x_lo)), int(np.sign(x_hi)))


def _drive_args(params, settings, event_kind, scalar=False):
    """Arguments alpha .. max_steps of _drive (scalar) or the batch kernels."""
    radius = resolve_escape_radius(settings, params)
    table = params.scalar_table if scalar else params.table
    return (params.alpha, table, settings.step_tolerance, _ATOL, _H_MAX,
            radius, params.epsilon, event_kind, _STALL_SPEED, settings.max_steps)


def _drive_state(state, t0, t_end, params, settings, event_kind, record, fdir=1.0):
    """Run the scalar kernel from a state; returns kernel outputs.

    The raw kernel status comes first: STATUS_EVENT, STATUS_TIME_END,
    STATUS_STALLED, STATUS_NONFINITE or STATUS_RUNNING (step budget spent).
    """
    rec = np.empty((_REC_CAP if record else 1, 5))
    status, t, y0, y1, y2, y3, esign, nrec, _ = _kernels._drive(
        float(state[0]), float(state[1]), float(state[2]), float(state[3]),
        float(t0), float(t_end),
        *_drive_args(params, settings, event_kind, scalar=True),
        rec, record, fdir,
    )
    out_state = np.array([y0, y1, y2, y3])
    return status, t, out_state, esign, rec[:nrec]


def integrate_flow(p0, params=None, settings=None, record=True):
    """Integrate the downward flow from p0 until escape or max_time.

    The trajectory terminates ESCAPED when both pair coordinates have
    |Re| beyond the escape radius and the point is outside the perturbed
    band |w| <= epsilon; it terminates NEAR_CRITICAL if the speed drops
    below the stall threshold, and MAX_TIME otherwise.

    Raises
    ------
    NonFiniteFlowError
        If the state leaves the representable range.
    """
    if params is None:
        params = SteinParams()
    if settings is None:
        settings = FlowSettings()
    state = p0.state() if isinstance(p0, SymPoint) else np.asarray(p0, dtype=float)
    status, t, out_state, _, rec = _drive_state(
        state, 0.0, settings.max_time, params, settings,
        _kernels.EVENT_PAIR_ESCAPE, record,
    )
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status == _kernels.STATUS_RUNNING:
        raise RuntimeError("step budget exhausted before max_time")
    if record:
        times = rec[:, 0].copy()
        states = rec[:, 1:5].copy()
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


def flow_state_to_time(state, t, params, settings=None, direction=1.0):
    """State advanced by time t along the downward (or upward) flow."""
    if settings is None:
        settings = FlowSettings()
    status, _, out_state, _, _ = _drive_state(
        np.asarray(state, dtype=float), 0.0, float(t), params, settings,
        _kernels.EVENT_NONE, False, fdir=direction,
    )
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status != _kernels.STATUS_TIME_END:
        raise RuntimeError("time integration terminated early")
    return out_state


def first_event(state, event_kind, params, settings):
    """First hit of an event region along the downward flow.

    Returns (hit, t, state, sign); hit is False if max_time elapsed
    without entering the region.  A start already inside the region
    returns t = 0.
    """
    state = np.asarray(state, dtype=float)
    radius = resolve_escape_radius(settings, params)
    hit0, sign0 = _kernels._event_val(
        state[0], state[1], state[2], state[3], radius, params.epsilon, event_kind
    )
    if hit0:
        return True, 0.0, state.copy(), int(sign0)
    status, t, out_state, esign, _ = _drive_state(
        state, 0.0, settings.max_time, params, settings, event_kind, False
    )
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state during integration")
    if status == _kernels.STATUS_EVENT:
        return True, float(t), out_state, int(esign)
    return False, float(t), out_state, 0


def drive_batch(Y, params, settings, event_kind, t_end=None, direction=1.0):
    """Integrate every row of Y in place; returns (status, t, sign).

    Runs the batch kernel of the active backend (jit or numpy).
    """
    n = Y.shape[0]
    out_status = np.zeros(n, dtype=np.int64)
    out_t = np.zeros(n)
    out_sign = np.zeros(n, dtype=np.int64)
    t_end = float(settings.max_time if t_end is None else t_end)
    _kernels.drive_batch_kernel(
        Y, 0.0, t_end, *_drive_args(params, settings, event_kind),
        out_status, out_t, out_sign, direction,
    )
    return out_status, out_t, out_sign


def default_u_star(epsilon):
    """Reading threshold for the branch-direction limit.

    Beyond this |Re sqrt(w)| the drift left in the rescaled reading is
    below 1e-9 per unit time, so two readings 0.7 apart agreeing to
    1e-8 certify convergence.
    """
    return max(4.0 * epsilon, (3e9 * epsilon * epsilon) ** (1.0 / 7.0))


def _delta_args(params, settings, reading, u_star_factor, scalar=False):
    """Arguments alpha .. max_steps of _delta_one (scalar) or the batch kernels."""
    if reading not in _READINGS:
        raise ValueError(f"reading must be one of {sorted(_READINGS)}, not {reading!r}")
    u_star = default_u_star(params.epsilon) * u_star_factor
    table = params.scalar_table if scalar else params.table
    return (params.alpha, table, settings.step_tolerance, _ATOL, _H_MAX,
            u_star, _AGREE_TOL, _IM_TOL, _READINGS[reading], settings.max_time,
            settings.max_steps)


def _other_branch(w0, s0):
    """Whether s0 is the negative of the principal root of w0 = s0^2.

    The kernels read the branch through the principal root; where this
    holds, Delta is negated to follow the branch through s0 itself.
    """
    return np.abs(np.sqrt(w0) - s0) > np.abs(np.sqrt(w0) + s0)


def compute_delta(
    sqrt_w0, params=None, settings=None, reading="complex", u_star_factor=1.0
):
    """Rescaled branch-direction limit Delta of one w-trajectory.

    The w-flow started at w0 = sqrt_w0^2 is integrated, and
    Delta = lim exp(-(alpha-1) t) sqrt(w(t)) on the branch of sqrt(w)
    continued from the principal root of w0.  Im w keeps its sign along
    the flow, so that branch is the principal root wherever it is read.
    Where sqrt_w0 is the other root, Delta is negated, so Delta is exactly
    odd in sqrt_w0 and Re Delta is even under conjugation.

    A reading d is taken once |Re sqrt(w)| passes u_star_factor times
    :func:`default_u_star`, and every 0.7 in time after that.  The reading
    rule says when two successive readings have converged:

    - "complex": they agree to 1e-8 as complex numbers;
    - "real": their real parts agree to 1e-8.  Im d decays like
      exp(-(2 alpha - 1) t) long after Re d has settled, so this rule
      stops far earlier; Im Delta is then not converged;
    - "complex-im": as "complex", and |Im d| is below 5e-9.

    Raises
    ------
    NoEscapeError
        If no stable reading is reached within max_time.
    """
    if params is None:
        params = SteinParams()
    if settings is None:
        settings = FlowSettings()
    s0 = complex(sqrt_w0)
    w0 = s0 * s0
    status, dre, dim, _ = _kernels._delta_one(
        w0.real, w0.imag,
        *_delta_args(params, settings, reading, u_star_factor, scalar=True),
    )
    if status == _kernels.STATUS_NONFINITE:
        raise NonFiniteFlowError("non-finite state in w-flow")
    if status != _kernels.STATUS_EVENT:
        raise NoEscapeError("no stable branch-direction reading before max_time")
    d = complex(dre, dim)
    return -d if _other_branch(w0, s0) else d


def compute_c(sqrt_w0, params=None, settings=None):
    """Hypersurface offset c = |Re Delta| >= 0 of one w-value.

    Delta is read with the "real" rule of :func:`compute_delta`: the
    reading stops once Re Delta has settled to 1e-8.
    """
    return abs(compute_delta(sqrt_w0, params, settings, reading="real").real)


def _delta_rows(W, args):
    """(status, re, im, t) of the batch Delta kernel on the rows of W."""
    n = W.shape[0]
    out = (np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n), np.zeros(n))
    _kernels.delta_batch_kernel(W, *args, *out)
    return out


def _delta_workers(n):
    """Processes to share an n-row Delta batch; 1 keeps it here.

    Only the numpy kernel splits (the jit kernel is parallel already,
    and fork is unsafe once numba threads run), only with fork, never
    inside a worker, and only with _SPLIT_ROWS rows or more per process.
    """
    k = min(available_cpus(), n // _SPLIT_ROWS)
    if k < 2 or using_numba():
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1
    return k


def _delta_split(W, args):
    """:func:`_delta_rows` of W, with its rows shared among processes.

    Process j takes rows j, j+k, ...: the rows of compute_c_batch come
    sorted, so strided chunks mix short and long trajectories.  Every
    kernel operation is per row, and each active row makes one attempt
    per lockstep iteration, so any split gives the same bits.  Chunk 0
    runs here; a chunk whose worker dies is run here too.
    """
    k = _delta_workers(W.shape[0])
    if k == 1:
        return _delta_rows(W, args)
    import concurrent.futures
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(
        k - 1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(_delta_rows, W[j::k], args) for j in range(1, k)]
        parts = [_delta_rows(W[0::k], args)]
        for j, future in enumerate(futures, 1):
            try:
                parts.append(future.result())
            except concurrent.futures.process.BrokenProcessPool:
                parts.append(_delta_rows(W[j::k], args))
    outs = tuple(np.empty(W.shape[0], dtype=got.dtype) for got in parts[0])
    for j, part in enumerate(parts):
        for out, got in zip(outs, part):
            out[j::k] = got
    return outs


def compute_delta_batch(
    sqrt_w0s, params=None, settings=None, reading="complex", u_star_factor=1.0
):
    """Branch-direction limits of many w-values.

    Returns (delta, status) where delta is complex (nan where the
    reading did not converge) and status is the raw kernel status row.
    Each row is read as :func:`compute_delta` reads its value, with the
    same reading rule.
    """
    if params is None:
        params = SteinParams()
    if settings is None:
        settings = FlowSettings()
    s0 = np.asarray(sqrt_w0s, dtype=complex).ravel()
    # beyond |s| ~ 1.34e154 w0 overflows; the kernel ends such a row NONFINITE
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = s0 * s0
        flip = _other_branch(w0, s0)
    W = np.column_stack([w0.real, w0.imag])
    args = _delta_args(params, settings, reading, u_star_factor)
    out_status, out_re, out_im, _ = _delta_split(W, args)
    delta = out_re + 1j * out_im
    delta[flip] = -delta[flip]
    delta[out_status != _kernels.STATUS_EVENT] = np.nan
    return delta, out_status


def compute_c_batch(sqrt_w0s, params=None, settings=None):
    """Offsets c = |Re Delta| for many w-values (nan where unresolved).

    Delta is read with the "real" rule, as :func:`compute_c` reads it.
    c is bitwise even under s -> -s and s -> conj(s), so each distinct
    (|Re s|, |Im s|) is integrated once and its offset scattered back
    to every query that folds to it, in the shape of sqrt_w0s.
    """
    s = np.asarray(sqrt_w0s, dtype=complex)
    key = np.empty(s.size, dtype=complex)
    key.real = np.abs(s.real).ravel()
    key.imag = np.abs(s.imag).ravel()
    key, inverse = np.unique(key, return_inverse=True)
    delta, _ = compute_delta_batch(key, params, settings, reading="real")
    return np.abs(delta.real)[inverse].reshape(s.shape)
