"""Property verification suites for the model and the combinatorics.

Each suite draws a deterministic sample stream, measures one structural
property and returns its gated checks as data: a check is a name, a
measured value, a sense (<=, <, >=, > or ==) and a bound.  One rule,
``passes``, decides every suite: it passes when it has at least one
check and every check value is finite and meets its bound.  A suite
that stops early (an integration that ended early, unresolved offsets,
an exception) returns no checks, so it fails.  Suites that depend on
the smoothing tail being absent pin the cutoff profile at epsilon = 16,
where the exact region contains every sampled chart; offset-bound
suites pin the pure profile at the same scale, where the branch-locus
offset stays far below the bound.  The report is a JSON-ready dict with
no timing data, so one configuration always produces identical bytes.
"""

import json
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels, flow, geometry, sectors, smoothing, surfaces
from ._accel import available_cpus, can_fork, run_forked
from .flow import FlowSettings
from .geometry import SteinParams, SymPoint

# scale where both smoothing modes have proven margins for every gate
PIN_EPSILON = 16.0

_LN4 = 2.0 * math.log(2.0)

SENSES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
          ">": operator.gt, "==": operator.eq}


@dataclass
class VerifyConfig:
    """Knobs shared by every suite.

    sample_scale multiplies the sample counts (and shrinks grids), so a
    small scale gives a fast determinism check with the same code paths.
    Every suite pins its own smoothing profile.  alpha and epsilon are
    checked by SteinParams.
    """

    seed: int = 0
    sample_scale: float = 1.0
    epsilon: float = 16.0
    alpha: float = 1.5
    suites: tuple = None

    def __post_init__(self):
        if not 0.0 < self.sample_scale < math.inf:
            raise ValueError("sample_scale must be positive and finite")
        if not 0 <= self.seed < math.inf or int(self.seed) != self.seed:
            raise ValueError("seed must be a nonnegative integer")
        SteinParams(alpha=self.alpha, epsilon=self.epsilon)
        if isinstance(self.suites, str):
            raise TypeError("suites must be a sequence of suite names")
        unknown = sorted(set(self.suites or ()) - set(SUITE_NAMES))
        if unknown:
            raise ValueError("unknown suite name(s): " + ", ".join(unknown))


def _count(config, base):
    return max(1, int(round(base * config.sample_scale)))


def _grid_n(config, base):
    g = max(11, int(round(base * math.sqrt(config.sample_scale))))
    return g + 1 if g % 2 == 0 else g


def _params(config):
    return SteinParams(alpha=config.alpha, epsilon=config.epsilon, smoothing="pure")


def _json_value(x):
    # JSON has no NaN or infinity; -0.0 would print its sign
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if not math.isfinite(x):
        return None
    return float(x) + 0.0


def holds(check):
    """Whether one check's value is finite and meets its bound."""
    value = check["value"]
    return (value is not None and math.isfinite(value)
            and SENSES[check["sense"]](value, check["bound"]))


def passes(checks):
    """The pass rule of every suite: some checks, and all of them hold."""
    return bool(checks) and all(holds(c) for c in checks)


def _result(samples, checks, detail):
    """Result dict of one suite from (name, value, sense, bound) checks."""
    checks = [
        {"name": name, "value": _json_value(value), "sense": sense,
         "bound": _json_value(bound)}
        for name, value, sense, bound in checks
    ]
    return {
        "passed": passes(checks),
        "samples": int(samples),
        "checks": checks,
        "detail": str(detail),
    }


def _cbox(rng, n, half):
    return rng.uniform(-half, half, n) + 1j * rng.uniform(-half, half, n)


# ---------------------------------------------------------------- geometry


def _suite_pair_sym_round_trip(config, rng):
    n = _count(config, 400)
    z1 = _cbox(rng, n, 50.0)
    z2 = _cbox(rng, n, 50.0)
    errs = []
    swaps = []
    for a, b in zip(z1, z2):
        p = SymPoint(a, b)
        q = SymPoint.from_sym(p.z, p.w)
        direct = abs(q.z1 - a) + abs(q.z2 - b)
        crossed = abs(q.z1 - b) + abs(q.z2 - a)
        errs.append(np.minimum(direct, crossed) / (1.0 + abs(a) + abs(b)))
        swaps.append(abs(SymPoint(b, a).w - p.w))
    zc, wc = geometry.sym_from_pair(z1, z2)
    r1, r2 = geometry.pair_from_sym(zc, wc)
    errs.append(np.max(
        np.minimum(np.abs(r1 - z1) + np.abs(r2 - z2),
                   np.abs(r1 - z2) + np.abs(r2 - z1))
        / (1.0 + np.abs(z1) + np.abs(z2))
    ))
    checks = [
        ("round-trip error", np.max(errs), "<=", 1e-9),
        ("swap change of w", np.max(swaps), "==", 0.0),
    ]
    return _result(n, checks, "unordered round trip, scalar and batch; "
                   "swapping the pair leaves w exactly unchanged")


def _suite_smoothing_profile_bounds(config, rng):
    eps = config.epsilon
    pure = smoothing.build_smoothing_table(eps, "pure")
    r = np.linspace(0.0, 10.0 * eps, 2001)
    pure_err = np.max([
        np.max(np.abs(smoothing.norm_value(r, pure) - np.sqrt(r * r + eps))),
        abs(float(smoothing.norm_value(0.0, pure)) - math.sqrt(eps)),
    ])
    detail = "pure profile matches sqrt(r^2+eps)"
    try:
        cut = smoothing.build_smoothing_table(eps, "cutoff")
    except smoothing.SmoothingError:
        checks = [("pure profile error", pure_err, "<=", 1e-9),
                  ("epsilon", eps, "<", 2.1)]
        return _result(
            r.size, checks,
            detail + "; cutoff profile infeasible at this epsilon (expected "
            "below roughly 2.1, where the annulus gap cannot fit a "
            "monotone bridge)",
        )
    r0, rm, r1 = cut[2], cut[3], cut[4]
    outer = np.linspace(r1, 10.0 * eps, 501)
    jumps = []
    for knot in (r0, rm, r1):
        lo = float(smoothing.norm_value(knot * (1.0 - 1e-9), cut))
        hi = float(smoothing.norm_value(knot * (1.0 + 1e-9), cut))
        jumps.append(abs(hi - lo) / (1.0 + knot))
    bridge = np.linspace(r0, r1, 2001)
    checks = [
        ("pure profile error", pure_err, "<=", 1e-7),
        ("cutoff error beyond r1",
         np.max(np.abs(smoothing.norm_value(outer, cut) - outer)), "<=", 1e-7),
        ("knot jump", np.max(jumps), "<=", 1e-7),
        ("min m' on the bridge",
         np.min(smoothing.norm_m_prime(bridge, cut)), ">", 0.0),
    ]
    return _result(
        r.size + outer.size + bridge.size, checks,
        detail + f"; cutoff exact beyond r1={r1:g}, continuous knots, "
        "increasing bridge",
    )


def _phi_gradient(z, w, params):
    """Analytic real gradient of the potential at (z, w)."""
    a = params.alpha
    r = abs(w)
    if r > 0.0:
        coef = float(smoothing.norm_m(r, params.table)) / (2.0 * r * r)
    else:
        coef = 0.0
    return np.array([
        2.0 * (1.0 - a) * z.real,
        2.0 * a * z.imag,
        coef * w.real + 0.5 * (1.0 - 2.0 * a),
        coef * w.imag,
    ])


def _suite_kahler_form_consistency(config, rng):
    params = _params(config)
    eps = params.epsilon
    n = _count(config, 40)
    J = geometry.complex_structure()
    fd_errs = []
    metric_errs = []
    for _ in range(n):
        z = complex(rng.uniform(-3 * eps, 3 * eps), rng.uniform(-3 * eps, 3 * eps))
        w = complex(rng.uniform(-3 * eps, 3 * eps), rng.uniform(-3 * eps, 3 * eps))
        closed = geometry.symplectic_form_closed(z, w, params)
        fd = geometry.symplectic_form_fd(z, w, params)
        fd_errs.append(np.max(np.abs(closed - fd)) / (1.0 + np.max(np.abs(closed))))
        dz, dw = geometry.flow_field_zw(z, w, params)
        X = np.array([dz.real, dz.imag, dw.real, dw.imag])
        grad = _phi_gradient(z, w, params)
        # omega(X, J v) + dPhi(v) = 0 for the downward metric gradient
        row = X @ closed @ J
        metric_errs.append(np.max(np.abs(row + grad)) / (1.0 + np.linalg.norm(grad)))
    checks = [
        ("form entries, fd vs closed", np.max(fd_errs), "<=", 1e-5),
        ("metric gradient identity", np.max(metric_errs), "<=", 1e-9),
    ]
    return _result(n, checks, "closed-form symplectic form against finite "
                   "differences; the flow is the downward metric gradient")


def _suite_kahler_factor_bounds(config, rng):
    params = _params(config)
    eps = params.epsilon
    r = np.linspace(0.0, 10.0 * eps, 2001)
    kf = geometry.kahler_factor(r, params)
    root = math.sqrt(eps)
    try:
        geometry.kahler_factor(1.0, _pin_cutoff(config))
        cutoff_raises = False
    except ValueError:
        cutoff_raises = True
    checks = [
        ("min factor - sqrt(eps)", np.min(kf) - root, ">=", -1e-12 * root),
        ("|factor(0) - sqrt(eps)|", abs(float(kf[0]) - root), "<=", 1e-12 * root),
        ("min increment", np.min(np.diff(kf)), ">=", -1e-9),
        ("max factor - 2 sqrt(r^2+eps)",
         np.max(kf - 2.0 * np.sqrt(r * r + eps)), "<=", 1e-9),
        ("cutoff mode rejected", cutoff_raises, "==", True),
    ]
    return _result(r.size, checks, "factor >= sqrt(eps) with equality only at "
                   "the branch locus; monotone")


def _suite_disk_blend_psh(config, rng):
    alpha = config.alpha
    m5 = geometry.check_psh(
        lambda Z: geometry.phi_D1(Z, alpha), (-5.0, 5.0, -5.0, 5.0), 401
    )
    checks = [
        ("min Laplacian", m5, ">", 0.0),
        ("min Laplacian against the designed floor", m5, ">=",
         geometry.disk_laplacian_floor(alpha) - 1e-6),
    ]
    return _result(401 * 401, checks, "blended disk potential on [-5,5]^2 at 401^2")


def _suite_disk_cover_family(config, rng):
    alpha = config.alpha
    jumps = []
    slope_jumps = []
    laps = []
    samples = 0
    for n in range(1, 5):
        rn = 0.25 ** (1.0 / n)
        for theta in np.linspace(0.0, 2.0 * np.pi, 17)[:-1]:
            e = complex(np.cos(theta), np.sin(theta))
            lo = geometry.phi_Dn((rn - 1e-9) * e, n, alpha)
            hi = geometry.phi_Dn((rn + 1e-9) * e, n, alpha)
            jumps.append(abs(hi - lo))
            d = 1e-6
            s_in = (geometry.phi_Dn(rn * e, n, alpha)
                    - geometry.phi_Dn((rn - d) * e, n, alpha)) / d
            s_out = (geometry.phi_Dn((rn + d) * e, n, alpha)
                     - geometry.phi_Dn(rn * e, n, alpha)) / d
            slope_jumps.append(abs(s_out - s_in))
            samples += 1
        for _ in range(20):
            zp = _cbox(rng, 1, 1.3)[0]
            lap = geometry.laplacian_fd(lambda q: geometry.phi_Dn(q, n, alpha), zp)
            laps.append(float(np.real(lap)))
            samples += 1
    z = _cbox(rng, 64, 1.3)
    checks = [
        ("value jump", np.max(jumps), "<=", 1e-6),
        ("slope jump", np.max(slope_jumps), "<=", 1e-3),
        ("min Laplacian", np.min(laps), ">", -1e-6),
        ("n=1 deviation", np.max(np.abs(geometry.phi_Dn(z, 1, alpha)
                                        - geometry.phi_D1(z, alpha))), "<=", 1e-9),
    ]
    return _result(samples, checks, "covers phi_Dn glue continuously and stay "
                   "subharmonic; n=1 is the disk potential")


# -------------------------------------------------------------------- flow


def _suite_product_flow_regression(config, rng):
    params = _pin_pure(config)
    settings = FlowSettings()
    n = _count(config, 1000)
    # deep product region: |w| >= 9e4, so the smoothing tail perturbs
    # the w-drift at relative order eps/(2 |w|^2) ~ 1e-9, far under gate
    x_z = rng.uniform(-8.0, 8.0, n)
    y_z = rng.uniform(5.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    u0 = rng.uniform(300.0, 600.0, n)
    v0 = rng.uniform(-3.0, 3.0, n)
    z0 = x_z + 1j * y_z
    s0 = u0 + 1j * v0
    w0 = geometry.complex_square(s0)
    Y = np.column_stack([x_z, y_z, w0.real, w0.imag])
    t = _LN4
    status, _, _ = flow.drive_batch(Y, params, settings, _kernels.EVENT_NONE, t_end=t)
    if not np.all(status == _kernels.STATUS_TIME_END):
        return _result(n, [], "fixed-time integration terminated early")
    zf = Y[:, 0] + 1j * Y[:, 1]
    sf = np.sqrt(Y[:, 2] + 1j * Y[:, 3])
    num1 = zf + sf
    num2 = zf - sf
    ex1 = flow.flow_unperturbed_z(z0 + s0, t, params.alpha)
    ex2 = flow.flow_unperturbed_z(z0 - s0, t, params.alpha)
    devs = []
    for num, ex in ((num1, ex1), (num2, ex2)):
        devs.append(np.abs(num.real - ex.real) / np.abs(ex.real))
        devs.append(np.abs(num.imag - ex.imag) / np.abs(ex.imag))

    ok_two = abs(flow.flow_unperturbed_z(1.0, _LN4) - 2.0) < 1e-12
    ok_half = abs(flow.flow_unperturbed_z(4j, _LN4) - 0.5j) < 1e-12

    # fixed pair far from the diagonal at a much smaller smoothing scale;
    # here |w| is only 2.5, so the smoothing tail allows ~eps/(2|w|^2)
    # and the pair gets its own 1e-4 gate
    tiny = SteinParams(alpha=config.alpha, epsilon=0.01, smoothing="pure")
    p = SymPoint(-5.0, -8.0 + 1.0j)
    out = flow.flow_state_to_time(p.state(), t, tiny, settings)
    q = flow.point_of(out)
    e1 = flow.flow_unperturbed_z(-5.0, t, config.alpha)
    e2 = flow.flow_unperturbed_z(-8.0 + 1.0j, t, config.alpha)
    pair_dev = np.min(np.max([
        [abs(q.z1 - e1) / abs(e1), abs(q.z2 - e2) / abs(e2)],
        [abs(q.z1 - e2) / abs(e2), abs(q.z2 - e1) / abs(e1)],
    ], axis=1))
    checks = [
        ("per-coordinate deviation", np.max(devs), "<=", 1e-6),
        ("fixed pair deviation", pair_dev, "<=", 1e-4),
        ("phi(1) = 2 at t = ln 4", ok_two, "==", True),
        ("phi(4i) = i/2 at t = ln 4", ok_half, "==", True),
    ]
    return _result(2 * n + 1, checks, "relative deviation from the product law")


def _suite_near_diagonal_escape(config, rng):
    params = _pin_pure(config)
    settings = FlowSettings()
    eps = params.epsilon
    n = _count(config, 100)
    root = math.sqrt(eps)
    x_z = rng.uniform(-2 * eps, 2 * eps, n)
    y_z = rng.uniform(-2 * eps, 2 * eps, n)
    u0 = rng.uniform(-root, root, n)
    v0 = rng.uniform(-root, root, n)
    w0 = geometry.complex_square(u0 + 1j * v0)
    im0 = np.abs(w0.imag)
    Y = np.column_stack([x_z, y_z, w0.real, w0.imag])
    status, _, _ = flow.drive_batch(Y, params, settings, _kernels.EVENT_NONE, t_end=18.0)
    if not np.all(status == _kernels.STATUS_TIME_END):
        return _result(n, [], "fixed-time integration terminated early")
    checks = [
        ("shortfall of Re w below 1000 eps", np.max(1e3 * eps - Y[:, 2]), "<", 0.0),
        ("|Im w| over its allowance",
         np.max(np.abs(Y[:, 3]) / (1e-3 * np.maximum(im0, eps))), "<", 1.0),
    ]
    return _result(n, checks, "near-diagonal starts leave through large "
                   "positive Re w")


def _suite_potential_monotone(config, rng):
    params = _params(config)
    eps = params.epsilon
    settings = FlowSettings(max_time=3.0)
    n = _count(config, 40)
    rises = [0.0]
    for _ in range(n):
        p = SymPoint(*geometry.pair_from_sym(_cbox(rng, 1, 2 * eps)[0],
                                             _cbox(rng, 1, 2 * eps)[0]))
        traj = flow.integrate_flow(p, params, settings, record=True)
        vals = geometry.sym2_potential(
            traj.states[:, 0] + 1j * traj.states[:, 1],
            traj.states[:, 2] + 1j * traj.states[:, 3],
            params,
        )
        rise = np.diff(vals) / (1.0 + np.abs(vals[:-1]))
        if rise.size:
            rises.append(np.max(rise))
    return _result(n, [("relative rise", np.max(rises), "<=", 1e-9)],
                   "potential is nonincreasing along the downward flow")


# ------------------------------------------------------------------ offset


def _c_settings():
    return FlowSettings(step_tolerance=1e-11)


def _pin_pure(config):
    return SteinParams(alpha=config.alpha, epsilon=PIN_EPSILON, smoothing="pure")


def _pin_cutoff(config):
    return SteinParams(alpha=config.alpha, epsilon=PIN_EPSILON, smoothing="cutoff")


def _suite_offset_grid_bounds(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    g = _grid_n(config, 101)
    axis = np.linspace(-3 * eps, 3 * eps, g)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    roots = (uu + 1j * vv).ravel()
    c = flow.compute_c_batch(roots, params, _c_settings())
    if not np.isfinite(c).all():
        return _result(roots.size, [], "unresolved offsets on the grid")
    absu = np.abs(roots.real)
    checks = [
        ("lower excess |Re| - c", np.max(absu - c), "<=", 1e-6),
        ("upper excess c - max(|Re|, eps)", np.max(c - np.maximum(absu, eps)),
         "<=", 1e-6),
    ]
    return _result(roots.size, checks,
                   f"|Re| <= c <= max(|Re|, eps) on a {g}x{g} grid")


def _suite_offset_evenness(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    n = _count(config, 60)
    s = _cbox(rng, n, 3 * eps)
    st = _c_settings()
    # Delta, not compute_c_batch itself: that folds all three arguments to
    # the same keys and would compare a result with itself.  Lockstep rows
    # are independent, so one batch of all three gives each the bits of
    # its own batch.
    delta, _ = flow.compute_delta_batch(np.concatenate([s, -s, np.conj(s)]), params, st)
    c0, c_neg, c_conj = np.split(np.abs(delta.real), 3)
    # an unresolved offset makes its difference non-finite, so it fails
    checks = [
        ("change under negation", np.max(np.abs(c0 - c_neg)), "<=", 1e-8),
        ("change under conjugation", np.max(np.abs(c0 - c_conj)), "<=", 1e-8),
    ]
    return _result(n, checks, "offset is even under both negation and conjugation")


def _suite_offset_identity_region(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    n = _count(config, 200)
    u = rng.uniform(1.052 * eps, 3 * eps, n) * rng.choice([-1.0, 1.0], n)
    v = rng.uniform(-3 * eps, 3 * eps, n)
    c = flow.compute_c_batch(u + 1j * v, params, _c_settings())
    return _result(n, [("|c - |Re||", np.max(np.abs(c - np.abs(u))), "<=", 1e-6)],
                   "c equals |Re sqrt(w)| beyond 1.05 eps")


def _suite_offset_smoothness(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    g = 101
    u = np.linspace(-3 * eps, 3 * eps, g)
    h = u[1] - u[0]
    c = flow.compute_c_batch(u + 0.3j * eps, params, _c_settings())
    if not np.isfinite(c).all():
        return _result(g, [], "unresolved offsets on the section")
    return _result(
        g, [("max second difference", np.max(np.abs(np.diff(c, 2))), "<", h)],
        "second differences along a section stay below the grid step "
        "(no jumps across the branch locus)",
    )


def _suite_delta_reading_consistency(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    st = _c_settings()
    d_id = flow.compute_delta(2.0 * eps, params, st)
    n = _count(config, 30)
    s = _cbox(rng, n, 3 * eps)
    d1, st1 = flow.compute_delta_batch(s, params, FlowSettings())
    d2, st2 = flow.compute_delta_batch(s, params, FlowSettings(step_tolerance=1e-13))
    u_axis = rng.uniform(0.3 * eps, 2.0 * eps, 10)
    d_real, st3 = flow.compute_delta_batch(u_axis, params, st)
    resolved = (
        np.all(st1 == _kernels.STATUS_EVENT)
        and np.all(st2 == _kernels.STATUS_EVENT)
        and np.all(st3 == _kernels.STATUS_EVENT)
    )
    checks = [
        ("all readings resolved", resolved, "==", True),
        ("identity point error", abs(d_id - 2.0 * eps), "<=", 5e-8),
        ("step-tolerance dependence", np.max(np.abs(d1 - d2)), "<=", 1e-7),
        ("real-axis imaginary part", np.max(np.abs(d_real.imag)), "<=", 5e-9),
    ]
    return _result(n + 11, checks, "Delta readings agree across step tolerances "
                   "and with the identity region")


# ----------------------------------------------------------------- sectors


def _suite_label_agreement(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    settings = FlowSettings()
    band = 1e-6
    n = _count(config, 10000)
    z0 = _cbox(rng, n, 3 * eps)
    s0 = _cbox(rng, n, 3 * eps)
    c = flow.compute_c_batch(s0, params, settings)
    if not np.isfinite(c).all():
        return _result(n, [], "unresolved offsets in the sample")
    a = z0.real + c
    b = z0.real - c
    closed = sectors.labels_from_ab(a, b, band)
    w0 = geometry.complex_square(s0)
    Y = np.column_stack([z0.real, z0.imag, w0.real, w0.imag])
    flowed = sectors.classify_by_flow_batch(Y, params, settings)
    agree = closed == flowed
    in_band = np.minimum(np.abs(a), np.abs(b)) < band

    # points constructed on the hypersurfaces must classify as such
    h_ok = True
    tight = FlowSettings(step_tolerance=1e-12)
    hs = FlowSettings(max_time=20.0)
    for sign, want in ((-1, sectors.H_MINUS), (1, sectors.H_PLUS)):
        for u0 in (1.3 * eps, 1.8 * eps, 2.5 * eps):
            p = sectors.hypersurface_point(
                sign, u0 + 0.3j * eps, 0.5 * eps, params, tight
            )
            h_ok = h_ok and sectors.classify_by_flow(p, params, hs) == want
    checks = [
        ("agreement fraction", np.mean(agree), ">=", 0.999),
        ("disagreements outside the band", np.sum(~agree & ~in_band), "==", 0),
        ("constructed hypersurface points labelled by flow", h_ok, "==", True),
    ]
    return _result(n + 6, checks, "closed-form labels against flow-limit labels")


def _suite_hypersurface_disjointness(config, rng):
    params = _pin_pure(config)
    gap = sectors.check_disjointness(params, _c_settings(), grid_n=21)
    return _result(21 * 21, [("min of max(|a|,|b|)", gap, ">", 0.0)],
                   "the two hypersurfaces never meet on the grid")


def _v_sample(rng, eps, sign):
    small = complex(rng.uniform(-0.8 * eps, 0.8 * eps), rng.uniform(-eps, eps))
    big_re = rng.uniform(2.5 * eps, 4.0 * eps)
    big = complex(sign * big_re, rng.uniform(-eps, eps))
    return SymPoint(small, big)


def _suite_chart_scaling_identity(config, rng):
    params = _pin_cutoff(config)
    eps = params.epsilon
    settings = FlowSettings()
    per_side = _count(config, 100)
    residuals = [
        sectors.check_ZI_scaling(_v_sample(rng, eps, sign), sign, params, settings)
        for sign in (-1, 1) for _ in range(per_side)
    ]
    return _result(2 * per_side, [("ZI + alpha I", np.max(residuals), "<=", 1e-4)],
                   "Liouville scaling of the chart height on both band ends")


def _suite_characteristic_transversality(config, rng):
    params = _pin_cutoff(config)
    eps = params.epsilon
    settings = FlowSettings()
    per_side = _count(config, 100)
    vals = []
    for sign in (-1, 1):
        for _ in range(per_side):
            u0 = rng.uniform(1.2 * eps, 3.0 * eps)
            v0 = rng.uniform(-eps, eps)
            y_z = rng.uniform(-eps, eps)
            p = sectors.hypersurface_point(sign, u0 + 1j * v0, y_z, params, settings)
            vals.append(sectors.check_dI_characteristic(p, sign, params, settings))
    checks = [
        ("min dI(C)", np.min(vals), ">", 0.0),
        ("|dI(C) - 1|", np.max(np.abs(np.subtract(vals, 1.0))), "<=", 1e-2),
    ]
    return _result(2 * per_side, checks, "chart height grows along the "
                   "characteristic direction (exact value 1 in the chart)")


def _suite_chart_poisson_brackets(config, rng):
    params = _pin_cutoff(config)
    eps = params.epsilon
    n = _count(config, 100)
    brackets = []
    for k in range(n):
        za = complex(rng.uniform(-0.8 * eps, 0.8 * eps), rng.uniform(-eps, eps))
        zb = 8.0 * eps + complex(
            rng.uniform(-0.8 * eps, 0.8 * eps), rng.uniform(-eps, eps)
        )
        i, j = (0, 1) if k % 10 else (k // 10 % 2, k // 10 % 2)
        brackets.append(sectors.check_poisson_bracket(za, zb, i, j, params))
    return _result(n, [("|{I_i, I_j}|", np.max(brackets), "<=", 1e-4)],
                   "two-saddle chart heights commute in the product form")


def _suite_chart_independence(config, rng):
    params = _pin_cutoff(config)
    eps = params.epsilon
    settings = FlowSettings()
    n = _count(config, 60)
    tau = 0.5
    rels = [0.0]
    bad = 0
    for k in range(n):
        sign = -1 if k % 2 else 1
        im_small = rng.uniform(0.5, eps) * (1.0 if rng.uniform() < 0.5 else -1.0)
        small = complex(rng.uniform(-0.8 * eps, 0.8 * eps), im_small)
        big = complex(sign * rng.uniform(2.2 * eps, 2.5 * eps),
                      rng.uniform(-eps, eps))
        p_in = SymPoint(small, big)
        i_in = sectors.eval_I(p_in, sign, params, settings)
        out = flow.flow_state_to_time(p_in.state(), tau, params, settings,
                                      direction=-1.0)
        p_out = flow.point_of(out)
        if sectors.in_V_region(p_out, sign, params):
            bad += 1
            continue
        i_out = sectors.eval_I(p_out, sign, params, settings)
        rel = abs(i_out.value * math.exp(-params.alpha * tau) - i_in.value)
        rels.append(rel / np.maximum(abs(i_in.value), 1e-9))
    checks = [
        ("transported points still in the chart", bad, "==", 0),
        ("relative height mismatch", np.max(rels), "<=", 1e-6),
    ]
    return _result(n, checks, "height read inside the chart agrees with the "
                   "flow-transported reading from outside")


def _suite_truncation_absorption(config, rng):
    params = _pin_pure(config)
    eps = params.epsilon
    settings = FlowSettings()
    n = _count(config, 1000)
    draw = 3 * n
    x1 = rng.uniform(-3 * eps, -0.1 * eps, draw)
    x2 = rng.uniform(-3 * eps, -0.1 * eps, draw)
    y1 = rng.uniform(-eps, eps, draw)
    y2 = rng.uniform(-eps, eps, draw)
    z1 = x1 + 1j * y1
    z2 = x2 + 1j * y2
    s0 = 0.5 * (z1 - z2)
    c = flow.compute_c_batch(s0, params, settings)
    if not np.isfinite(c).all():
        return _result(draw, [], "unresolved offsets in the sample")
    z0 = 0.5 * (z1 + z2)
    labels = sectors.labels_from_ab(z0.real + c, z0.real - c, 1e-6)
    keep = np.flatnonzero(labels == sectors.U_MM)
    if keep.size < n:
        return _result(draw, [], "sampler produced too few points of the "
                       "lower sector")
    keep = keep[:n]
    w0 = geometry.complex_square(s0[keep])
    Y = np.column_stack([z0.real[keep], z0.imag[keep], w0.real, w0.imag])
    status, t, _ = flow.drive_batch(Y, params, settings,
                                    _kernels.EVENT_TRUNC_REGION)

    # once inside, the region is invariant under further flow
    stay = True
    for row in Y[:: max(1, n // 20)]:
        later = flow.flow_state_to_time(row, 0.5, params, settings)
        stay = stay and sectors.truncation_region_contains(
            flow.point_of(later), params
        )

    ex_params = SteinParams(alpha=config.alpha, epsilon=1.0, smoothing="pure")
    t_ex = sectors.check_truncation_absorbing(
        SymPoint(-0.5, -10.0), ex_params, settings
    )
    checks = [
        ("lower-sector points absorbed", np.sum(status == _kernels.STATUS_EVENT),
         "==", n),
        ("region invariant under further flow", stay, "==", True),
        ("reference entry time deviation", abs(t_ex - _LN4), "<=", 1e-5),
    ]
    return _result(n + 1, checks, f"latest entry t={float(np.max(t)):g}")


# ----------------------------------------------------------- combinatorics


def _defects(samples, defects, detail):
    """Result of a combinatorics suite: its first defect, if any, as detail."""
    return _result(samples, [("defects", len(defects), "==", 0)],
                   defects[0] if defects else detail)


def _suite_decomposition_counts(config, rng):
    samples = 0
    defects = []
    for m in range(0, 7):
        for n in range(1, 7):
            for _ in range(2):
                surf = surfaces.random_valid_surface(m, n, rng)
                errs = [v for v in surfaces.validate(surf)
                        if v["severity"] == surfaces.SEV_ERROR]
                if errs:
                    defects.append(f"random surface invalid: {errs[0]['code']}")
                elif (surfaces.enumerate_decomposition(surf).counts()
                      != surfaces.counts_formula(m, n)):
                    defects.append(f"count mismatch at m={m}, n={n}")
                samples += 1
    return _defects(samples, defects,
                    "piece/hypersurface/corner counts match the closed formulas")


def _suite_corner_pairing(config, rng):
    samples = 0
    defects = []
    for m in range(0, 7):
        surf = surfaces.random_valid_surface(m, 3, rng)
        dec = surfaces.enumerate_decomposition(surf)
        corners = dec.corners
        expect = m * (m - 1) // 2
        ok = len(corners) == expect and len(set(corners)) == expect
        order = {s: k for k, s in enumerate(dec.saddles)}
        for si, sj in corners:
            ok = ok and order[si] < order[sj]
            tag = surfaces.corner_tag(si, sj)
            ok = ok and si in tag and sj in tag and "gamma" in tag
        if not ok:
            defects.append(f"corner defect at m={m}")
        samples += 1 + len(corners)
    return _defects(samples, defects,
                    "every unordered saddle pair appears exactly once")


def _suite_builtin_decompositions(config, rng):
    ex = surfaces.builtin_surface("example-5.3")
    four = surfaces.builtin_surface("p1-minus-4pts")
    facts = []
    facts.append(surfaces.is_valid(ex))
    facts.append(surfaces.is_valid(four))
    facts.append(surfaces.euler_characteristic(ex) == 1)
    facts.append(surfaces.euler_characteristic(four) == -2)
    dec_ex = surfaces.enumerate_decomposition(ex)
    dec_four = surfaces.enumerate_decomposition(four)
    facts.append(dec_ex.counts() == {"pieces": 6, "hypersurfaces": 6, "corners": 1})
    facts.append(dec_four.counts() == {"pieces": 3, "hypersurfaces": 2, "corners": 0})
    disp = {surfaces.completion_of(four, i, j)["display"]
            for i, j in dec_four.pieces}
    facts.append(disp == {"(C*)^2", "P x C*", "C x C*"})
    lg = surfaces.lg_labels(four)
    facts.append(set(lg) == {"U_MM", "U_PP", "U_MP+U_PP", "mirror"})
    facts.append("{xyz=0}" in lg.get("mirror", ""))
    facts.append(surfaces.lg_labels(ex) == {})
    fib = surfaces.fiber_of(four, "s1", "minus")
    facts.append(fib["adjacent"] and fib["text"].startswith("COMPLETION_OF"))
    far = surfaces.fiber_of(ex, "s1", "m3")
    facts.append((not far["adjacent"]) and far["text"] == "POINT(s1) x m3")
    rt = surfaces.CombSurface.loads(four.dumps())
    facts.append(rt.to_json_dict() == four.to_json_dict())
    defects = [f"built-in fact {k} fails" for k, ok in enumerate(facts) if not ok]
    return _defects(len(facts), defects,
                    "built-in decompositions, completions, labels and round trip")


def _suite_fiber_adjacency(config, rng):
    samples = 0
    defects = []
    for m in range(1, 7):
        surf = surfaces.random_valid_surface(m, 4, rng)
        dec = surfaces.enumerate_decomposition(surf)
        for s, comp in dec.hypersurfaces:
            k = surf.arc_ids.index(s)
            sa, sb = surf.arcs[k]
            owners = {surf.slot_owner(sa), surf.slot_owner(sb)}
            fib = surfaces.fiber_of(surf, s, comp)
            want = comp in owners
            if fib["adjacent"] != want:
                defects.append(f"adjacency mismatch at {s}, {comp}")
            elif not fib["text"].startswith("COMPLETION_OF" if want else "POINT"):
                defects.append(f"fiber text mismatch at {s}, {comp}")
            samples += 1
    return _defects(samples, defects,
                    "fiber form follows arc adjacency on random surfaces")


def _suite_surface_validation(config, rng):
    C = surfaces.Component
    cases = []

    s = surfaces.CombSurface([C("a", 0, 2, ["p"]), C("a", 0, 2, ["q"])],
                             [("p", "q")])
    cases.append(("DUPLICATE_COMPONENT_ID", s))
    s = surfaces.CombSurface([C("a", 0, 2, ["p", "q"])], [("p", "p")])
    cases.append(("ARC_SELF_SLOT", s))
    s = surfaces.CombSurface([C("a", 0, 2, ["p", "q"])], [("p", "r")])
    cases.append(("UNKNOWN_SLOT", s))
    s = surfaces.CombSurface([C("a", 0, 3, ["p", "q", "r"])],
                             [("p", "q"), ("p", "r")])
    cases.append(("SLOT_REUSED", s))
    s = surfaces.CombSurface([C("a", 0, 2, ["p", "q"])], [])
    cases.append(("SLOT_UNPAIRED", s))
    s = surfaces.CombSurface([C("a", 0, 2, ["p"]), C("b", 0, 2, ["q"])],
                             [("p", "q")], expected_euler=5)
    cases.append(("EULER_MISMATCH", s))
    s = surfaces.CombSurface([C("a", -1, 2, ["p"]), C("b", 0, 2, ["q"])],
                             [("p", "q")])
    cases.append(("NEGATIVE_COUNT", s))
    s = surfaces.CombSurface([C("a", 0, 2, ["p", "q"]), C("b", 1, 1, [])],
                             [("p", "q")])
    cases.append(("DISCONNECTED", s))

    defects = []
    for code, surf in cases:
        found = [v for v in surfaces.validate(surf) if v["code"] == code]
        if not found:
            defects.append(f"missing {code}")
        elif (found[0]["severity"] == surfaces.SEV_ERROR) != (code != "DISCONNECTED"):
            defects.append(f"wrong severity for {code}")
    if not surfaces.is_valid(cases[-1][1]):
        defects.append("a disconnected surface is rejected, not warned about")
    return _defects(len(cases), defects,
                    "every defect code fires with the right severity")


REGISTRY = (
    ("pair-sym-round-trip", _suite_pair_sym_round_trip),
    ("smoothing-profile-bounds", _suite_smoothing_profile_bounds),
    ("kahler-form-consistency", _suite_kahler_form_consistency),
    ("kahler-factor-bounds", _suite_kahler_factor_bounds),
    ("disk-blend-psh", _suite_disk_blend_psh),
    ("disk-cover-family", _suite_disk_cover_family),
    ("product-flow-regression", _suite_product_flow_regression),
    ("near-diagonal-escape", _suite_near_diagonal_escape),
    ("potential-monotone", _suite_potential_monotone),
    ("offset-grid-bounds", _suite_offset_grid_bounds),
    ("offset-evenness", _suite_offset_evenness),
    ("offset-identity-region", _suite_offset_identity_region),
    ("offset-smoothness", _suite_offset_smoothness),
    ("delta-reading-consistency", _suite_delta_reading_consistency),
    ("label-agreement", _suite_label_agreement),
    ("hypersurface-disjointness", _suite_hypersurface_disjointness),
    ("chart-scaling-identity", _suite_chart_scaling_identity),
    ("characteristic-transversality", _suite_characteristic_transversality),
    ("chart-poisson-brackets", _suite_chart_poisson_brackets),
    ("chart-independence", _suite_chart_independence),
    ("truncation-absorption", _suite_truncation_absorption),
    ("decomposition-counts", _suite_decomposition_counts),
    ("corner-pairing", _suite_corner_pairing),
    ("builtin-decompositions", _suite_builtin_decompositions),
    ("fiber-adjacency", _suite_fiber_adjacency),
    ("surface-validation", _suite_surface_validation),
)

SUITE_NAMES = tuple(name for name, _ in REGISTRY)


def _raised(exc):
    return _result(0, [], f"raised {type(exc).__name__}: {exc}")


def _run_indexed(config, idx):
    """(result, wall seconds) of REGISTRY[idx], drawing from its own rng."""
    name, fn = REGISTRY[idx]
    rng = np.random.default_rng((int(config.seed), idx))
    start = time.perf_counter()
    try:
        out = fn(config, rng)
    except Exception as exc:  # honest failure, never silent
        out = _raised(exc)
    out["name"] = name
    return out, time.perf_counter() - start


def run_suite(name, config=None):
    """Run one suite by name and return its result dict."""
    if config is None:
        config = VerifyConfig()
    if name not in SUITE_NAMES:
        raise KeyError(name)
    return _run_indexed(config, SUITE_NAMES.index(name))[0]


def run_all(config=None, timings=None):
    """Run the wanted suites and assemble the deterministic report.

    Suites run in forked worker processes, at most one per available
    CPU, or one by one here where _accel.can_fork says no.  The longest
    suite starts first; results are taken in registry order, so the
    report does not depend on the schedule.  A worker that dies fails
    each suite it left unfinished.
    If timings is a dict, it receives the worker count, the total wall
    time and each suite's wall time in its worker (None if unfinished);
    none of it enters the report.
    """
    if config is None:
        config = VerifyConfig()
    idxs = [idx for idx, name in enumerate(SUITE_NAMES)
            if not config.suites or name in config.suites]
    start = time.perf_counter()
    if can_fork():
        # Workers inherit the imported modules and REGISTRY as they are now.
        workers = min(len(idxs), available_cpus())
        # label-agreement is about half of all suite time at full
        # scale; it starts first, and the other suites fill the rest
        first = sorted(idxs, key=lambda i: SUITE_NAMES[i] != "label-agreement")
        done = dict(zip(first, run_forked(
            _run_indexed, [(config, idx) for idx in first], workers)))
        runs = [(dict(_raised(done[i]), name=SUITE_NAMES[i]), None)
                if isinstance(done[i], Exception) else done[i] for i in idxs]
    else:
        workers = 1
        runs = [_run_indexed(config, idx) for idx in idxs]
    if timings is not None:
        timings.update(
            workers=workers,
            wall_s=time.perf_counter() - start,
            suites={out["name"]: wall_s for out, wall_s in runs},
        )
    results = [out for out, _ in runs]
    failed = [r["name"] for r in results if not r["passed"]]
    return {
        "config": {
            "alpha": float(config.alpha),
            "epsilon": float(config.epsilon),
            "sample_scale": float(config.sample_scale),
            "seed": int(config.seed),
        },
        "failed": failed,
        "passed": not failed,
        "suites": results,
    }


def report_json(report):
    """Stable byte representation of a report."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
