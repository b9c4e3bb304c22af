"""Radial smoothing profiles for the branch-locus direction.

The potential on the symmetric square contains a term ``n(|w|)/2`` where
``n`` smooths the non-differentiable ``|w|``.  Two profiles are provided:

``pure``
    ``n(r) = sqrt(r^2 + epsilon)`` everywhere.  Simple, real-analytic,
    but decays to ``r`` only algebraically, so the flow keeps a small
    perturbation at every radius.

``cutoff``
    Equal to the pure profile for ``r <= epsilon/4`` and exactly ``r``
    for ``r >= epsilon``, bridged on the annulus by a monotone C^1
    profile for ``m(r) = r n'(r)``.  Outside radius ``epsilon`` the flow
    is exactly the unsmoothed one.  Subharmonicity of ``n(|w|)/2`` is
    equivalent to ``m' > 0``, which the construction guarantees; it is
    feasible only for ``epsilon`` above roughly ``2.1``.

Profiles are frozen into a flat table, an immutable tuple of 15 built-in
floats that every kernel takes.  One numpy evaluator reads it for n, m, m'
and the kernels' cutoff coefficients.
"""

import math

import numpy as np

MODE_PURE = 0.0
MODE_CUTOFF = 1.0

# table layout:
#   [0] mode   [1] epsilon   [2] r0   [3] rm   [4] r1
#   [5:9]  monomial coefficients of m(r) on [r0, rm]
#   [9:13] monomial coefficients of m(r) on [rm, r1]
#   [13] additive constant for n(r) on [r0, rm]
#   [14] additive constant for n(r) on [rm, r1]
TABLE_SIZE = 15

# feasibility margin for the annulus bridge; below this the value gap
# cannot be closed by any monotone profile with room to spare
_FEASIBILITY_MARGIN = 1.05


class SmoothingError(ValueError):
    """Raised when a smoothing profile cannot satisfy its constraints."""


def _mode_code(mode):
    if mode == "pure":
        return MODE_PURE
    if mode == "cutoff":
        return MODE_CUTOFF
    raise SmoothingError("unknown smoothing mode: %r" % (mode,))


def pure_norm(r, epsilon):
    """Smoothed norm sqrt(r^2 + epsilon)."""
    r = np.asarray(r, dtype=float)
    return np.sqrt(r * r + epsilon)


def pure_m(r, epsilon):
    """m(r) = r n'(r) for the pure profile: r^2 / sqrt(r^2 + epsilon)."""
    r = np.asarray(r, dtype=float)
    return r * r / np.sqrt(r * r + epsilon)


def pure_m_prime(r, epsilon):
    """Derivative of pure_m: r (r^2 + 2 epsilon) / (r^2 + epsilon)^(3/2)."""
    r = np.asarray(r, dtype=float)
    rho2 = r * r + epsilon
    return r * (r * r + 2.0 * epsilon) / (rho2 * np.sqrt(rho2))


def _hermite_monomial(a, b, ya, yb, da, db):
    """Monomial coefficients of the cubic Hermite on [a, b].

    Returns (c0, c1, c2, c3) with p(t) = c0 + c1 t + c2 t^2 + c3 t^3
    matching values ya, yb and slopes da, db at the endpoints.
    """
    h = b - a
    s = (yb - ya) / h
    # coefficients in the local variable u = t - a
    e0 = ya
    e1 = da
    e2 = (3.0 * s - 2.0 * da - db) / h
    e3 = (da + db - 2.0 * s) / (h * h)
    # shift u = t - a to monomials in t
    c0 = e0 - e1 * a + e2 * a * a - e3 * a * a * a
    c1 = e1 - 2.0 * e2 * a + 3.0 * e3 * a * a
    c2 = e2 - 3.0 * e3 * a
    c3 = e3
    return c0, c1, c2, c3


def _segment_log_integral(c, a, b):
    """Exact value of the integral of p(t)/t over [a, b] for cubic p."""
    c0, c1, c2, c3 = c
    return (
        c0 * math.log(b / a)
        + c1 * (b - a)
        + c2 * (b * b - a * a) / 2.0
        + c3 * (b * b * b - a * a * a) / 3.0
    )


def _segment_antiderivative(c, t):
    """Antiderivative of p(t)/t at t (up to a constant) for cubic p."""
    c0, c1, c2, c3 = c
    return c0 * np.log(t) + c1 * t + c2 * t * t / 2.0 + c3 * t * t * t / 3.0


# the bridge annulus starts at this fraction of epsilon; below it the
# profile is exactly the pure one
_BRIDGE_START = 0.25


def _bridge_segments(epsilon, lam):
    """Build the two Hermite segments of m(r) for shape parameter lam.

    lam in (0, 1) sweeps the bridge from its minimal-area shape (knot
    near r1, first segment climbing at the smallest slope the C^1 match
    at r0 allows, interior slope near zero) to its maximal-area shape
    (knot near r0, interior slope near the monotone-cubic limit).  The
    integral of m/r varies continuously along the sweep, so a sign
    bracket pins the value the outer match requires.
    """
    r0 = _BRIDGE_START * epsilon
    r1 = epsilon
    rm = r1 - (r1 - r0) * lam
    if not r0 < rm < r1:
        return None
    m0 = float(pure_m(r0, epsilon))
    d0 = float(pure_m_prime(r0, epsilon))
    m1 = r1
    d1 = 1.0
    h1 = rm - r0
    h2 = r1 - rm
    s1 = (1.02 + lam) * d0 / 3.0
    mu = m0 + s1 * h1
    if mu >= m1:
        return None
    s2 = (m1 - mu) / h2
    if s2 <= 0.0 or d1 > 3.0 * s2:
        return None
    # interior slope slides between its monotone-safe extremes
    dm_hi = 0.95 * min(3.0 * s1, 3.0 * s2)
    dm_lo = min(0.05 * min(s1, s2), dm_hi)
    dm = dm_lo + (dm_hi - dm_lo) * lam
    seg1 = _hermite_monomial(r0, rm, m0, mu, d0, dm)
    seg2 = _hermite_monomial(rm, r1, mu, m1, dm, d1)
    return r0, rm, r1, seg1, seg2


def _bridge_integral(epsilon, lam):
    built = _bridge_segments(epsilon, lam)
    if built is None:
        return None
    r0, rm, r1, seg1, seg2 = built
    return _segment_log_integral(seg1, r0, rm) + _segment_log_integral(seg2, rm, r1)


def build_smoothing_table(epsilon, mode="pure"):
    """Freeze a smoothing profile into a flat table of floats.

    Parameters
    ----------
    epsilon : float
        Smoothing scale, strictly positive.
    mode : str
        "pure" or "cutoff".

    Returns
    -------
    tuple
        TABLE_SIZE built-in floats (layout above), read by every kernel
        and evaluator; a tuple cannot be written to.

    Raises
    ------
    SmoothingError
        If epsilon is not positive, or the cutoff bridge is infeasible
        at this epsilon (roughly epsilon < 2.1).
    """
    epsilon = float(epsilon)
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise SmoothingError("epsilon must be finite and positive")
    code = _mode_code(mode)
    table = np.zeros(TABLE_SIZE, dtype=np.float64)
    table[0] = code
    table[1] = epsilon
    if code == MODE_PURE:
        return tuple(table.tolist())

    r0 = _BRIDGE_START * epsilon
    r1 = epsilon
    m0 = float(pure_m(r0, epsilon))
    # the n-values at both ends of the annulus fix the integral of m/r
    target = r1 - math.sqrt(r0 * r0 + epsilon)
    floor = m0 * math.log(r1 / r0)
    if target <= _FEASIBILITY_MARGIN * floor:
        raise SmoothingError(
            "cutoff profile infeasible at epsilon=%g: the annulus value "
            "gap %.6g is too close to the monotone floor %.6g" % (epsilon, target, floor)
        )

    # scan knot positions for a bracket, then bisect within it
    lams = np.linspace(1e-3, 1.0 - 1e-3, 257)
    vals = [_bridge_integral(epsilon, lam) for lam in lams]
    lo = hi = None
    for i in range(len(lams) - 1):
        va, vb = vals[i], vals[i + 1]
        if va is None or vb is None:
            continue
        if (va - target) * (vb - target) <= 0.0:
            lo, hi = float(lams[i]), float(lams[i + 1])
            f_lo = va
            break
    if lo is None:
        raise SmoothingError(
            "cutoff profile infeasible at epsilon=%g: bridge integral "
            "cannot reach the required value" % epsilon
        )
    rising = f_lo <= target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = _bridge_integral(epsilon, mid)
        if val is None:
            hi = mid
            continue
        if (val < target) == rising:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    lam = 0.5 * (lo + hi)
    r0, rm, r1, seg1, seg2 = _bridge_segments(epsilon, lam)

    # n is continuous: pin the antiderivative constants at r0 and rm
    n0 = math.sqrt(r0 * r0 + epsilon)
    k1 = n0 - _segment_antiderivative(seg1, r0)
    n_rm = _segment_antiderivative(seg1, rm) + k1
    k2 = n_rm - _segment_antiderivative(seg2, rm)

    table[2] = r0
    table[3] = rm
    table[4] = r1
    table[5:9] = seg1
    table[9:13] = seg2
    table[13] = k1
    table[14] = k2

    # subharmonicity gate: m' must stay strictly positive on the bridge
    grid = np.linspace(r0, r1, 4001)
    mp = norm_m_prime(grid, table)
    if float(mp.min()) <= 0.0:
        raise SmoothingError(
            "cutoff profile lost monotonicity at epsilon=%g" % epsilon
        )
    return tuple(table.tolist())


_PURE = (pure_norm, pure_m, pure_m_prime)


def _profile(r, table, orders):
    """Profile values at radii r, one per requested order (0: n, 1: m, 2: m').

    The one evaluator behind norm_value, norm_m, norm_m_prime and the flow
    kernels' cutoff coefficients.  In cutoff mode one split on the knots
    table[2:5] serves every order: the pure profile, the two bridge cubics
    of m in the kernels' Horner form, and n = m = r, m' = 1 from table[4].
    The table is read as an array once per call, so its entries enter the
    array arithmetic as numpy scalars.
    """
    r = np.asarray(r, dtype=float)
    table = np.asarray(table)
    epsilon = table[1]
    if table[0] == MODE_PURE:
        return [_PURE[k](r, epsilon) for k in orders]
    rv = np.atleast_1d(r)
    inner = rv < table[2]
    bridge = ~(inner | (rv >= table[4]))
    t = rv[bridge]
    # each bridge radius takes the cubic of its segment, split at table[3]
    first = t < table[3]
    c0, c1, c2, c3 = np.where(first, table[5:9, None], table[9:13, None])
    outs = []
    for k in orders:
        out = np.ones_like(rv) if k == 2 else rv.copy()
        out[inner] = _PURE[k](rv[inner], epsilon)
        if k == 0:
            const = np.where(first, table[13], table[14])
            out[bridge] = _segment_antiderivative((c0, c1, c2, c3), t) + const
        elif k == 1:
            out[bridge] = c0 + t * (c1 + t * (c2 + t * c3))
        else:
            out[bridge] = c1 + t * (2.0 * c2 + 3.0 * t * c3)
        outs.append(out[0] if r.ndim == 0 else out)
    return outs


def norm_value(r, table):
    """Evaluate n(r) for the profile frozen in ``table``."""
    return _profile(r, table, (0,))[0]


def norm_m(r, table):
    """Evaluate m(r) = r n'(r) for the profile frozen in ``table``."""
    return _profile(r, table, (1,))[0]


def norm_m_prime(r, table):
    """Evaluate m'(r); positivity is equivalent to subharmonicity."""
    return _profile(r, table, (2,))[0]
