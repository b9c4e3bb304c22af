"""Sector classification and hypersurface axioms of the local model.

The complement of the two sector-boundary hypersurfaces H0,- and H0,+
falls into three open sectors, labeled by the signs of the two unstable
pair coordinates at escape.  Closed-form labels come from the offsets

    a = Re z0 + c(w0),      b = Re z0 - c(w0),

with c the branch-direction offset of the w-flow; flow labels come from
actually integrating to escape.  The V-regions are the standard charts
near each end of a band where the chart height function I is read off.
"""

import numpy as np

from . import _kernels, flow
from .flow import DEFAULT_SETTINGS
from .geometry import DEFAULT_PARAMS, SymPoint, form_is_degenerate, symplectic_form_closed

U_MM = "U_MM"
U_MP = "U_MP"
U_PP = "U_PP"
H_MINUS = "H_MINUS"
H_PLUS = "H_PLUS"
UNRESOLVED = "UNRESOLVED"

SECTOR_LABELS = (U_MM, H_MINUS, U_MP, H_PLUS, U_PP, UNRESOLVED)


class NotInNeighborhoodError(RuntimeError):
    """The point does not reach the requested V-region."""


class ConditionError(RuntimeError):
    """A linear solve in the characteristic direction is ill-posed."""


def default_band_tol(params):
    """Half-width of the numerical hypersurface band."""
    return 1e-6 * max(1.0, params.epsilon)


def labels_from_ab(a, b, band_tol):
    """Vectorized sector labels from the two offsets.

    Since a - b = 2c > 0, the five cases below are exhaustive and
    mutually exclusive; points with non-finite offsets get UNRESOLVED.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    conds = [
        ~(np.isfinite(a) & np.isfinite(b)),
        a < -band_tol,
        np.abs(a) <= band_tol,
        b < -band_tol,
        np.abs(b) <= band_tol,
    ]
    choices = [UNRESOLVED, U_MM, H_MINUS, U_MP, H_PLUS]
    return np.select(conds, choices, default=U_PP)


def classify_values(p, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS, band_tol=None):
    """Label and offsets (label, a, b, c) of one point."""
    if band_tol is None:
        band_tol = default_band_tol(params)
    sqrt_w0 = 0.5 * (p.z1 - p.z2)
    c = flow.compute_c(sqrt_w0, params, settings)
    x0 = p.z.real
    a = x0 + c
    b = x0 - c
    label = str(labels_from_ab(a, b, band_tol)[()])
    return label, a, b, c


def classify_closed_form(p, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS,
                         band_tol=None):
    """Closed-form sector label of one point.

    Raises
    ------
    flow.NoEscapeError
        If the offset c of the point's w-value cannot be resolved.
    """
    return classify_values(p, params, settings, band_tol)[0]


def _flow_label(x_hi, x_lo, status, radius, epsilon):
    """Flow label from the final pair coordinates and kernel status.

    The one label rule of :func:`classify_by_flow_batch`.
    """
    if status == _kernels.STATUS_EVENT:
        if x_hi < 0:
            return U_MM
        return U_MP if x_lo < 0 else U_PP
    if status != _kernels.STATUS_TIME_END:
        return UNRESOLVED
    a_hi = abs(x_hi)
    a_lo = abs(x_lo)
    if min(a_lo, a_hi) < epsilon and max(a_lo, a_hi) > radius:
        big = x_hi if a_hi > a_lo else x_lo
        return H_MINUS if big < 0 else H_PLUS
    return UNRESOLVED


def classify_by_flow(p, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Sector label of one point by integrating the downward flow.

    Escape gives an open-sector label from the sign pair at escape; a
    trajectory that still straddles the saddle at max_time, one
    coordinate pinned near zero and the other far out, gets the
    hypersurface label of the far coordinate's sign; anything else is
    UNRESOLVED: a stall, a non-finite state or a spent step budget
    (FlowSettings.max_steps).  Never raises for a flow failure.  The
    point is a one-row batch of :func:`classify_by_flow_batch`.
    """
    return classify_by_flow_batch([p.state()], params, settings)[0]


def classify_by_flow_batch(states, params, settings=DEFAULT_SETTINGS):
    """Flow labels for rows [Re z, Im z, Re w, Im w].

    The states are copied, so the caller's rows stay as they were.  Each
    row gets the label :func:`classify_by_flow` gives its point.
    """
    Y = np.array(states, dtype=float)
    if Y.shape == (0,):  # an empty batch; any other shape drive_batch checks
        Y = Y.reshape(0, 4)
    status, _, _ = flow.drive_batch(
        Y, params, settings, _kernels.EVENT_PAIR_ESCAPE
    )
    radius = flow.resolve_escape_radius(settings, params)
    # a STATUS_NONFINITE row may overflow here; its status labels it
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.hypot(Y[:, 2], Y[:, 3])
        x_hi, x_lo = _kernels.pair_re_np(Y[:, 0], Y[:, 2], r)
    labels = np.empty(Y.shape[0], dtype=object)
    labels[:] = [
        _flow_label(hi, lo, st, radius, params.epsilon)
        for hi, lo, st in zip(x_hi.tolist(), x_lo.tolist(), status.tolist())
    ]
    return labels


def _pair_coords(p):
    """Pair coordinates ordered as (small |Re| first, other second)."""
    z1, z2 = p.z1, p.z2
    k1 = (abs(z1.real), abs(z1.imag))
    k2 = (abs(z2.real), abs(z2.imag))
    return (z1, z2) if k1 <= k2 else (z2, z1)


def in_V_region(p, sign, params=DEFAULT_PARAMS):
    """Whether p lies in the V-chart at the given end of the band.

    V- is the set where one pair coordinate has Re in (-eps, eps) and
    the other has Re < -2 eps; V+ mirrors it with Re > 2 eps.
    """
    hit, esign = _kernels._event_val(
        *p.state(), 0.0, params.epsilon, _kernels.EVENT_V_ENTRY
    )
    return bool(hit) and esign == (1 if sign > 0 else -1)


class IValue:
    """Chart height reading: value and the chart time it was taken at."""

    def __init__(self, value, chart_time):
        self.value = float(value)
        self.chart_time = float(chart_time)

    def __repr__(self):
        return f"IValue(value={self.value!r}, chart_time={self.chart_time!r})"


def eval_I(p, sign, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Height function of the stable chart at the given band end.

    For p already in the V-region this is Im of the near-saddle pair
    coordinate at chart time 0.  Otherwise the point is flowed downward
    to its first V-entry at time t and the invariant reading
    exp(alpha t) Im z1(t) is returned with chart_time t.

    Raises
    ------
    NotInNeighborhoodError
        If the flow does not enter the requested V-region.
    """
    if in_V_region(p, sign, params):
        small, _ = _pair_coords(p)
        return IValue(small.imag, 0.0)
    hit, t, state, esign = flow.first_event(
        p.state(), _kernels.EVENT_V_ENTRY, params, settings
    )
    if not hit:
        raise NotInNeighborhoodError("flow does not reach a V-region in max_time")
    if esign != (1 if sign > 0 else -1):
        raise NotInNeighborhoodError("flow enters the opposite V-region")
    q = flow.point_of(state)
    small, _ = _pair_coords(q)
    return IValue(np.exp(params.alpha * t) * small.imag, t)


def check_ZI_scaling(p, sign, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS, h=0.03):
    """Residual of the Liouville scaling identity Z I = alpha I.

    The derivative of s -> I(downward flow at time s) is estimated by a
    fourth-order central difference and compared with -alpha I(p);
    the absolute residual is returned.
    """
    i0 = eval_I(p, sign, params, settings).value
    vals = {}
    state = p.state()
    for s in (-2.0 * h, -h, h, 2.0 * h):
        adv = flow.flow_state_to_time(
            state, abs(s), params, settings, direction=1.0 if s > 0 else -1.0
        )
        vals[s] = eval_I(flow.point_of(adv), sign, params, settings).value
    fd = (-vals[2 * h] + 8.0 * vals[h] - 8.0 * vals[-h] + vals[-2 * h]) / (12.0 * h)
    return abs(fd + params.alpha * i0)


def _offset_gradient(p, sign, params, settings):
    """Gradient of the defining function F = Re z0 -+ c in real coords.

    F = a = Re z0 + c for the minus hypersurface (sign < 0) and
    F = b = Re z0 - c for the plus one; only the w-components need
    finite differences since c depends on w alone.
    """
    w = p.w
    csign = 1.0 if sign < 0 else -1.0
    grad = np.array([1.0, 0.0, 0.0, 0.0])
    for k, comp in ((2, 1.0), (3, 1j)):
        step = 1e-3 * (1.0 + abs(w))
        wp = w + comp * step
        wm = w - comp * step
        cp = flow.compute_c(np.sqrt(wp), params, settings)
        cm = flow.compute_c(np.sqrt(wm), params, settings)
        grad[k] = csign * (cp - cm) / (2.0 * step)
    return grad


def characteristic_direction(p, sign, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """Characteristic (kernel) direction of the hypersurface at p.

    The hypersurface is the level set F = 0 of the offset; its
    characteristic line is spanned by C with Omega C = grad F, which is
    automatically tangent to the level set and satisfies the positive
    orientation omega(grad F, C) = |grad F|^2 > 0.

    Raises
    ------
    ConditionError
        If the gradient degenerates or the Kahler form is degenerate.
    """
    grad = _offset_gradient(p, sign, params, settings)
    if not np.isfinite(grad).all() or np.linalg.norm(grad) < 1e-8:
        raise ConditionError("degenerate hypersurface gradient")
    omega = symplectic_form_closed(p.z, p.w, params)
    if form_is_degenerate(omega):
        raise ConditionError("degenerate form matrix")
    return np.linalg.solve(omega, grad)


def check_dI_characteristic(p, sign, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS,
                            h=1e-3):
    """Derivative of I along the oriented characteristic direction.

    Positive values mean the characteristic foliation is transverse to
    the level sets of I in the orientation fixed by the model; at a
    V-chart point of the hypersurface the value is 1 exactly.
    """
    C = characteristic_direction(p, sign, params, settings)
    scale = h / max(1.0, np.linalg.norm(C))
    state = p.state()
    vals = []
    for s in (scale, -scale):
        q = flow.point_of(state + s * C)
        vals.append(eval_I(q, sign, params, settings).value)
    return (vals[0] - vals[1]) / (2.0 * scale)


def saddle_reading(z, site, epsilon):
    """Chart height of one surface point near one saddle site.

    Exact product-chart version of the I reading: for |Re(z - site)|
    below epsilon the height is Im(z - site); otherwise the point is
    outside the chart (the downward flow only expands Re).
    """
    zeta = z - site
    if abs(zeta.real) >= epsilon:
        raise NotInNeighborhoodError("point is outside the saddle chart")
    return zeta.imag


def check_poisson_bracket(za, zb, i, j, params=DEFAULT_PARAMS, h=1e-5):
    """Residual of {I_i, I_j} = 0 in a two-saddle product chart.

    The state is an ordered pair (za, zb) of surface points near two
    saddle sites on the real axis; the product symplectic form is
    dx_a ^ dy_a + dx_b ^ dy_b.  The bracket is formed from finite
    differences of the two chart readings; for i = j the result is
    zero by antisymmetry.
    """
    eps = params.epsilon
    sites = (0.0, 8.0 * eps)
    coords = np.array([za.real, za.imag, zb.real, zb.imag])

    def reading(k, vec):
        site = sites[k]
        pa = complex(vec[0], vec[1])
        pb = complex(vec[2], vec[3])
        # assign pair members to sites by proximity of Re
        da = abs(pa.real - site)
        db = abs(pb.real - site)
        zk = pa if da <= db else pb
        return saddle_reading(zk, site, eps)

    def grad(k):
        g = np.zeros(4)
        for m in range(4):
            e = np.zeros(4)
            e[m] = h
            g[m] = (reading(k, coords + e) - reading(k, coords - e)) / (2.0 * h)
        return g

    omega = np.zeros((4, 4))
    omega[0, 1] = 1.0
    omega[1, 0] = -1.0
    omega[2, 3] = 1.0
    omega[3, 2] = -1.0
    gi = grad(i)
    gj = grad(j)
    x_i = np.linalg.solve(omega, gi)
    return float(abs(gj @ x_i))


def check_disjointness(params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS, grid_n=21,
                       box=None):
    """Minimum over a coordinate grid of max(|a|, |b|).

    Since a - b = 2c, the two hypersurfaces stay apart by at least
    2 min c; the returned minimum is strictly positive exactly when no
    grid point lies on both bands at once.
    """
    if box is None:
        box = 3.0 * params.epsilon
    axis = np.linspace(-box, box, grid_n)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    roots = (uu + 1j * vv).ravel()
    c = flow.compute_c_batch(roots, params, settings)
    if not np.isfinite(c).all():
        raise flow.NoEscapeError("offset grid contains unresolved values")
    # max(|x + c|, |x - c|) = |x| + c for c >= 0
    return float(np.abs(axis).min() + c.min())


def truncation_region_contains(p, params=DEFAULT_PARAMS):
    """Whether p lies in the absorbing truncation region of U_MM."""
    hit, _ = _kernels._event_val(
        *p.state(), 0.0, params.epsilon, _kernels.EVENT_TRUNC_REGION
    )
    return bool(hit)


def check_truncation_absorbing(p, params=DEFAULT_PARAMS, settings=DEFAULT_SETTINGS):
    """First entry time of the downward flow into the truncation region.

    Returns 0 for a point already inside.  Once entered, the region is
    never left: both Re coordinates only become more negative along the
    flow there.

    Raises
    ------
    flow.NoEscapeError
        If the region is not entered before max_time.
    """
    hit, t, _, _ = flow.first_event(
        p.state(), _kernels.EVENT_TRUNC_REGION, params, settings
    )
    if not hit:
        raise flow.NoEscapeError("truncation region not entered before max_time")
    return float(t)


def hypersurface_point(sign, sqrt_w0, y_z, params=DEFAULT_PARAMS,
                       settings=DEFAULT_SETTINGS):
    """A point of H0,- (sign < 0) or H0,+ (sign > 0) over a given w.

    The offsets are linear in Re z0, so the hypersurface over w0 is
    exactly Re z0 = -+ c(w0).
    """
    c = flow.compute_c(sqrt_w0, params, settings)
    x_z = -c if sign < 0 else c
    z0 = complex(x_z, y_z)
    s = complex(sqrt_w0)
    return SymPoint(z0 + s, z0 - s)
