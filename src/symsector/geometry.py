"""Potentials, Kahler data, and vector fields for the local model.

The local model is the symmetric square of a complex saddle chart.  A
pair of surface points (z1, z2) is encoded by the symmetric coordinates

    z = (z1 + z2) / 2,        w = ((z1 - z2) / 2)^2,

so w is a single-valued coordinate on the quotient and the branch locus
(the image of the diagonal) is w = 0.  The total potential splits into a
z-part and a w-part; only the w-part needs smoothing because |w| is not
differentiable at the branch locus.  All real 4-vectors are ordered
[Re z, Im z, Re w, Im w].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, smoothing

ALPHA_DEFAULT = 1.5
EPSILON_DEFAULT = 16.0

_J_MATRIX = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


class DegenerateFormError(ValueError):
    """Raised when a Kahler form fails :func:`form_is_degenerate`."""


@dataclass(frozen=True)
class SteinParams:
    """Parameters of the smoothed plurisubharmonic potential.

    Immutable: equal parameters compare and hash equal, one object can be
    shared, and :func:`dataclasses.replace` makes a changed copy.  The
    smoothing ``table`` is built once, at construction: the tuple of
    floats of :func:`smoothing.build_smoothing_table` that the scalar,
    numpy and jit kernels all take.  A table that cannot be built raises
    :class:`smoothing.SmoothingError`, a ValueError (a cutoff profile below
    epsilon ~ 2.1, for one).

    Parameters
    ----------
    alpha : float
        Saddle steepness, strictly greater than 1.  The unstable and
        stable rates of the downward flow are alpha-1 and alpha.
    epsilon : float
        Smoothing scale for the branch-locus direction.
    smoothing : str
        "pure" or "cutoff"; see :mod:`symsector.smoothing`.
    """

    alpha: float = ALPHA_DEFAULT
    epsilon: float = EPSILON_DEFAULT
    smoothing: str = "pure"
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed 1")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.smoothing not in ("pure", "cutoff"):
            raise ValueError("smoothing must be 'pure' or 'cutoff'")
        table = smoothing.build_smoothing_table(self.epsilon, self.smoothing)
        object.__setattr__(self, "table", table)


DEFAULT_PARAMS = SteinParams()


@dataclass(frozen=True)
class SymPoint:
    """Unordered pair of chart points, stored as one representative.

    The symmetric coordinates z and w are derived properties; w is
    invariant under swapping z1 and z2, exactly so in floating point.
    """

    z1: complex
    z2: complex

    def __post_init__(self):
        z1 = complex(self.z1)
        z2 = complex(self.z2)
        if not (np.isfinite([z1.real, z1.imag, z2.real, z2.imag]).all()):
            raise ValueError("SymPoint coordinates must be finite")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    @property
    def z(self):
        return 0.5 * (self.z1 + self.z2)

    @property
    def w(self):
        half = 0.5 * (self.z1 - self.z2)
        return half * half

    @classmethod
    def from_sym(cls, z, w):
        """Point with given symmetric coordinates (see :func:`pair_from_sym`)."""
        return cls(*pair_from_sym(z, w))

    def state(self):
        """Real state vector [Re z, Im z, Re w, Im w]."""
        z = self.z
        w = self.w
        return np.array([z.real, z.imag, w.real, w.imag])


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a point of the model, in (dz, dw) components."""

    dz: complex
    dw: complex


def phi_1d(z, alpha=ALPHA_DEFAULT):
    """Quadratic saddle potential on one chart.

    phi(z) = (1 - alpha)/2 * x^2 + alpha/2 * y^2, a plurisubharmonic
    saddle (Laplacian is identically 1) whose downward gradient flow
    expands Re z at rate alpha-1 and contracts Im z at rate alpha.
    """
    z = np.asarray(z, dtype=complex)
    x = z.real
    y = z.imag
    return 0.5 * (1.0 - alpha) * x * x + 0.5 * alpha * y * y


def complex_square(s):
    """s * s as Python's complex product forms it: (x*x - y*y, x*y + y*x).

    numpy's complex multiply fuses the real part into one multiply-add
    where the CPU has FMA, which can change the last bit.
    """
    s = np.asarray(s, dtype=complex)
    x, y = s.real, s.imag
    out = np.empty(s.shape, dtype=complex)
    out.real = x * x - y * y
    out.imag = x * y + y * x
    return out


def sym_from_pair(z1, z2):
    """Symmetric coordinates (z, w) of an unordered pair."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    return 0.5 * (z1 + z2), complex_square(0.5 * (z1 - z2))


def pair_from_sym(z, w):
    """One ordered representative (z1, z2) of the pair at (z, w).

    The principal square root of w is used; the other representative
    swaps the two entries.
    """
    z = np.asarray(z, dtype=complex)
    root = np.sqrt(np.asarray(w, dtype=complex))
    return z + root, z - root


def smoothed_norm(w, params=DEFAULT_PARAMS):
    """Smoothed |w| used by the potential.

    Equals sqrt(|w|^2 + epsilon) in pure mode; in cutoff mode it is
    exactly |w| once |w| >= epsilon.
    """
    return smoothing.norm_value(np.abs(np.asarray(w, dtype=complex)), params.table)


def kahler_factor(w, params=DEFAULT_PARAMS):
    """Inverse Kahler density 2|w| / m'(|w|) of the w-direction.

    This is the factor by which the metric rescales Euclidean gradients
    in the w-plane.  In pure mode it equals 2 rho^3 / (|w|^2 + 2 eps)
    with rho = sqrt(|w|^2 + eps), is bounded below by sqrt(epsilon), and
    the bound is attained only at the branch locus w = 0.

    Raises
    ------
    ValueError
        In cutoff mode, where the closed form below does not apply.
    """
    if params.smoothing != "pure":
        raise ValueError("kahler_factor is defined for pure smoothing only")
    r = np.abs(np.asarray(w, dtype=complex))
    return _kernels._kappa_shrink_np(r, params.table)[0]


def sym2_potential(z, w, params=DEFAULT_PARAMS):
    """Smoothed potential on the symmetric square (vectorized).

    Phi(z, w) = (1-alpha) (Re z)^2 + alpha (Im z)^2
                + n(|w|)/2 + (1-2 alpha)/2 * Re w,

    where n is the smoothing profile.  With the exact profile n(r) = r
    this is the sum of the two chart potentials; the smoothing replaces
    the |w| kink along the branch locus.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    a = params.alpha
    zpart = (1.0 - a) * z.real**2 + a * z.imag**2
    n = smoothing.norm_value(np.abs(w), params.table)
    return zpart + 0.5 * n + 0.5 * (1.0 - 2.0 * a) * w.real


def phi_sym_smoothed(p, params=DEFAULT_PARAMS):
    """Smoothed potential at one :class:`SymPoint`."""
    return float(sym2_potential(p.z, p.w, params))


def symplectic_form_closed(z, w, params=DEFAULT_PARAMS):
    """Kahler form of the smoothed potential as a 4x4 matrix.

    Block diagonal in the [Re z, Im z, Re w, Im w] ordering: the z-block
    is 2 dx ^ dy for every alpha, and the w-block is m'(|w|)/(2|w|),
    which tends to 1/sqrt(epsilon) at the branch locus and to 1/(2|w|)
    far from it; it equals 1/kappa of the w-flow.
    """
    kappa, _ = _kernels._kappa_shrink_np(np.atleast_1d(np.abs(w)), params.table)
    q = float(1.0 / kappa[0])
    omega = np.zeros((4, 4))
    omega[0, 1] = 2.0
    omega[1, 0] = -2.0
    omega[2, 3] = q
    omega[3, 2] = -q
    return omega


def symplectic_form_fd(z, w, params=DEFAULT_PARAMS, h=1e-3):
    """Kahler form assembled from a finite-difference real Hessian.

    The coefficient matrix of dd^c Phi is assembled from second
    differences of the potential, with no knowledge of the block
    structure; this is the independent cross-check of
    :func:`symplectic_form_closed`.
    """
    p0 = np.array([np.real(z), np.imag(z), np.real(w), np.imag(w)])

    def val(p):
        return float(sym2_potential(p[0] + 1j * p[1], p[2] + 1j * p[3], params))

    steps = h * (1.0 + np.abs(p0))
    hess = np.zeros((4, 4))
    f0 = val(p0)
    for i in range(4):
        ei = np.zeros(4)
        ei[i] = steps[i]
        hess[i, i] = (val(p0 + ei) - 2.0 * f0 + val(p0 - ei)) / steps[i] ** 2
        for j in range(i + 1, 4):
            ej = np.zeros(4)
            ej[j] = steps[j]
            mixed = (
                val(p0 + ei + ej)
                - val(p0 + ei - ej)
                - val(p0 - ei + ej)
                + val(p0 - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            hess[i, j] = mixed
            hess[j, i] = mixed

    omega = np.zeros((4, 4))
    omega[0, 1] = hess[0, 0] + hess[1, 1]
    omega[2, 3] = hess[2, 2] + hess[3, 3]
    omega[0, 2] = hess[1, 2] - hess[0, 3]
    omega[0, 3] = hess[0, 2] + hess[1, 3]
    omega[1, 2] = -(hess[0, 2] + hess[1, 3])
    omega[1, 3] = hess[1, 2] - hess[0, 3]
    for i in range(4):
        for j in range(i):
            omega[i, j] = -omega[j, i]
    return omega


def form_is_degenerate(omega):
    """Whether a form of :func:`symplectic_form_closed` is degenerate: its
    z-block is the constant 2, so exactly where its w-block 1/kappa is not
    finite and positive.  A bound on det = (2/kappa)^2 would depend on |w|.
    """
    return not 0.0 < omega[2, 3] < math.inf


def symplectic_form(p, params=DEFAULT_PARAMS):
    """Kahler form at a :class:`SymPoint`, checked by :func:`form_is_degenerate`."""
    omega = symplectic_form_closed(p.z, p.w, params)
    if form_is_degenerate(omega):
        raise DegenerateFormError("Kahler form is degenerate")
    return omega


def complex_structure():
    """Standard complex structure J acting on [Re z, Im z, Re w, Im w]."""
    return _J_MATRIX.copy()


def flow_field_zw(z, w, params=DEFAULT_PARAMS):
    """Downward metric gradient of the potential at (z, w).

    Returns the pair (dz/dt, dw/dt) as complex numbers.  The z-part is
    the exact saddle flow ((alpha-1) Re z, -alpha Im z); the w-part is

        dw/dt = kappa(r) (2 alpha - 1)/2 - (m(r) / (r m'(r))) w,

    with r = |w| and kappa = 2r/m'(r).  At the branch locus this is the
    constant drift (sqrt(epsilon) (2 alpha - 1)/2, 0).
    """
    a = params.alpha
    z = complex(z)
    w = complex(w)
    dz = complex(*_kernels._rhs_z(z.real, z.imag, a))
    r = _kernels._hypot(w.real, w.imag)
    drift, shrink = _kernels._w_terms(r, a, params.table)
    return dz, drift - shrink * w


def flow_vector_field(p, params=DEFAULT_PARAMS):
    """Downward gradient field at a :class:`SymPoint`."""
    dz, dw = flow_field_zw(p.z, p.w, params)
    return TangentVector(dz, dw)


def liouville_vector_field(p, params=DEFAULT_PARAMS):
    """Upward gradient field; the negation of :func:`flow_vector_field`."""
    dz, dw = flow_field_zw(p.z, p.w, params)
    return TangentVector(-dz, -dw)


def _blend_profile(alpha):
    """Curvature profile of the one-variable bridge of the disk potential.

    Returns node positions xs[0..3] on [1/3, 2/3] and the values of j''
    at the nodes; j'' is linear on each of the three pieces.  The piece
    widths and plateau depth are chosen so the bridge matches slopes of
    the two quadratic ends and keeps the Laplacian alpha + j'' positive.
    """
    span = 1.0 / 3.0
    frac = min((alpha - 1.0) / (2.0 * alpha + 1.0), 0.2)
    depth = (1.0 + 0.5 * frac) / (1.0 - frac)
    x1 = 1.0 / 3.0
    x2 = 2.0 / 3.0
    xs = np.array([x1, x1 + frac * span, x2 - frac * span, x2])
    j2 = np.array([alpha, -depth, -depth, 1.0 - alpha])
    return xs, j2


def disk_laplacian_floor(alpha=ALPHA_DEFAULT):
    """Designed lower bound of the Laplacian alpha + j'' of :func:`phi_D1`.

    j'' is linear between its nodes, so its least node value gives the
    floor min(alpha - depth, 1): the plateau -depth, or the outer end
    1 - alpha, whichever is lower.
    """
    _, j2 = _blend_profile(alpha)
    return alpha + float(j2.min())


_DISK_CACHE = {}


def _disk_tables(alpha):
    """Node data (xs, j'', j', j) and the constant C for one alpha."""
    key = float(alpha)
    if key in _DISK_CACHE:
        return _DISK_CACHE[key]
    xs, j2 = _blend_profile(alpha)
    jp = np.zeros(4)
    jrel = np.zeros(4)
    jp[0] = alpha / 3.0
    for i in range(3):
        h = xs[i + 1] - xs[i]
        p = j2[i]
        q = (j2[i + 1] - j2[i]) / h
        jp[i + 1] = jp[i] + p * h + 0.5 * q * h * h
        jrel[i + 1] = jrel[i] + jp[i] * h + 0.5 * p * h * h + q * h**3 / 6.0
    # value matching at x = 2/3 fixes the additive constant of the well
    const = (2.0 * alpha - 1.0) / 18.0 + jrel[3]
    data = (xs, j2, jp, jrel, const)
    _DISK_CACHE[key] = data
    return data


def disk_mixing_constant(alpha=ALPHA_DEFAULT):
    """Additive constant C of the disk potential's central well."""
    return _disk_tables(alpha)[4]


def _blend_j(x, alpha):
    """Evaluate j, the x-profile of the bridge, on 1/3 <= x <= 2/3."""
    xs, j2, jp, jrel, const = _disk_tables(alpha)
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, 2)
    h = x - xs[idx]
    p = j2[idx]
    q = (j2[idx + 1] - j2[idx]) / (xs[idx + 1] - xs[idx])
    jval = jrel[idx] + jp[idx] * h + 0.5 * p * h * h + q * h**3 / 6.0
    return alpha / 18.0 - const + jval


def phi_D1(z, alpha=ALPHA_DEFAULT):
    """Potential on a disk with one interior minimum and one saddle.

    Equals (alpha/2) |z|^2 - C for Re z < 1/3 (a well centered at the
    origin) and (1-alpha)/2 (Re z - 1)^2 + (alpha/2) (Im z)^2 for
    Re z > 2/3 (a saddle at 1), bridged in between by a profile that is
    a function of Re z alone and keeps the Laplacian strictly positive.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    x = z.real
    y = z.imag
    const = disk_mixing_constant(alpha)
    out = np.empty(z.shape, dtype=float)
    left = x < 1.0 / 3.0
    right = x > 2.0 / 3.0
    mid = ~(left | right)
    out[left] = 0.5 * alpha * (x[left] ** 2) - const
    out[right] = 0.5 * (1.0 - alpha) * (x[right] - 1.0) ** 2
    if mid.any():
        out[mid] = _blend_j(x[mid], alpha)
    out += 0.5 * alpha * y**2
    return float(out[0]) if scalar else out


def phi_Dn(z, n, alpha=ALPHA_DEFAULT):
    """Potential on a disk glued to n saddles through an n-fold cover.

    Outside radius r_n = (1/4)^(1/n) this is the pullback of
    :func:`phi_D1` under z -> z^n; inside, the degenerate well
    (alpha/2) |z|^(2n) is replaced by a strictly convex radial quadratic
    matched to first order at r_n.  For n = 1 this is exactly
    :func:`phi_D1`.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    rn = 0.25 ** (1.0 / n)
    const = disk_mixing_constant(alpha)
    amp = 0.5 * alpha * n * rn ** (2 * n - 2)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    r = np.atleast_1d(r)
    out = np.empty(z.shape, dtype=float)
    inner = r <= rn
    out[inner] = amp * (r[inner] ** 2 - rn**2) + 0.5 * alpha * rn ** (2 * n) - const
    out[~inner] = phi_D1(z[~inner] ** n, alpha)
    return float(out[0]) if scalar else out


def check_psh(potential, rectangle=(-5.0, 5.0, -5.0, 5.0), grid_n=401):
    """Minimum finite-difference Laplacian of a potential over a grid.

    The potential is evaluated vectorized on a (grid_n+2)^2 padded grid
    over the rectangle (x_lo, x_hi, y_lo, y_hi) and the five-point
    Laplacian is formed at the grid spacing.  A strictly positive return
    certifies plurisubharmonicity up to that resolution.

    Raises
    ------
    ValueError
        If the potential returns non-finite values on the grid.
    """
    x_lo, x_hi, y_lo, y_hi = rectangle
    if not (x_hi > x_lo and y_hi > y_lo and grid_n >= 2):
        raise ValueError("rectangle must be nondegenerate and grid_n >= 2")
    hx = (x_hi - x_lo) / (grid_n - 1)
    hy = (y_hi - y_lo) / (grid_n - 1)
    xs = x_lo + hx * np.arange(-1, grid_n + 1)
    ys = y_lo + hy * np.arange(-1, grid_n + 1)
    Z = xs[None, :] + 1j * ys[:, None]
    P = np.asarray(potential(Z), dtype=float)
    if not np.isfinite(P).all():
        raise ValueError("potential returned non-finite values on the grid")
    mid = P[1:-1, 1:-1]
    d2x = (P[1:-1, 2:] - 2.0 * mid + P[1:-1, :-2]) / (hx * hx)
    d2y = (P[2:, 1:-1] - 2.0 * mid + P[:-2, 1:-1]) / (hy * hy)
    return float((d2x + d2y).min())


def laplacian_fd(func, z, h=1e-4):
    """Five-point finite-difference Laplacian of a scalar function of z."""
    z = complex(z)
    return (
        func(z + h)
        + func(z - h)
        + func(z + 1j * h)
        - 4.0 * func(z)
        + func(z - 1j * h)
    ) / (h * h)
