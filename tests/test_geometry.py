"""Potential, form, and disk-potential geometry checks."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from symsector import flow, geometry, gridplot, sectors
from symsector.flow import FlowSettings
from symsector.geometry import (
    complex_square,
    SteinParams,
    SymPoint,
    check_psh,
    complex_structure,
    disk_mixing_constant,
    flow_field_zw,
    flow_vector_field,
    form_is_degenerate,
    kahler_factor,
    laplacian_fd,
    liouville_vector_field,
    pair_from_sym,
    phi_1d,
    phi_D1,
    phi_Dn,
    phi_sym_smoothed,
    smoothed_norm,
    sym2_potential,
    sym_from_pair,
    symplectic_form,
    symplectic_form_closed,
    symplectic_form_fd,
)
from symsector.smoothing import TABLE_SIZE, build_smoothing_table

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------ frozen values


def test_phi_1d_values():
    assert phi_1d(2.0) == pytest.approx(-1.0, abs=1e-14)
    assert phi_1d(1.0 + 1.0j) == pytest.approx(0.5, abs=1e-14)
    assert phi_1d(0.0) == 0.0


def test_smoothed_norm_at_branch_locus(pure16):
    assert smoothed_norm(0.0, pure16) == pytest.approx(4.0, abs=1e-14)


def test_potential_at_origin(pure16):
    assert sym2_potential(0.0, 0.0, pure16) == pytest.approx(2.0, abs=1e-14)


def test_potential_outer_exact_cutoff(cutoff16):
    # beyond the smoothing support the w-part is |w|/2 + (1-2a)/2 Re w
    assert sym2_potential(0.0, 16.0, cutoff16) == pytest.approx(-8.0, abs=1e-12)
    assert sym2_potential(0.0, 32.0, cutoff16) == pytest.approx(-16.0, abs=1e-12)


def test_kahler_factor_value():
    p1 = SteinParams(alpha=1.5, epsilon=1.0, smoothing="pure")
    assert kahler_factor(1.0, p1) == pytest.approx(2.0 * 2.0 ** 1.5 / 3.0, rel=1e-14)


def test_kahler_factor_cutoff_rejected(cutoff16):
    with pytest.raises(ValueError):
        kahler_factor(1.0, cutoff16)


def test_disk_mixing_constant_fixed():
    assert disk_mixing_constant(1.5) == pytest.approx(0.22858796296296297, rel=1e-12)


# ------------------------------------------------------- coordinate round trip


def test_sympoint_pair_storage():
    p = SymPoint(1.0 + 2.0j, 3.0 - 4.0j)
    assert p.z == pytest.approx(2.0 - 1.0j)
    assert p.w == pytest.approx((-1.0 + 3.0j) ** 2)


def test_sympoint_swap_invariant():
    a, b = 0.3 - 2.0j, -1.5 + 0.25j
    p = SymPoint(a, b)
    q = SymPoint(b, a)
    assert p.z == q.z and p.w == q.w


@given(finite, finite, finite, finite)
@example(0.0, 0.0, -5e-324, 1.0)
def test_pair_sym_pair_round_trip(x1, y1, x2, y2):
    # the pair is unordered, so the better of the two matchings counts;
    # sorting both pairs by (Re, Im) matched the wrong partners at the
    # tie of 0j and -0+1j returned for the example
    z1 = complex(x1, y1)
    z2 = complex(x2, y2)
    z, w = sym_from_pair(z1, z2)
    r1, r2 = pair_from_sym(z, w)
    direct = abs(r1 - z1) + abs(r2 - z2)
    crossed = abs(r1 - z2) + abs(r2 - z1)
    assert min(direct, crossed) <= 1e-9 * (1.0 + abs(z1) + abs(z2))


def _bits(z):
    return (float(z.real).hex(), float(z.imag).hex())


def test_from_sym_is_the_scalar_pair_formula_bit_for_bit(rng):
    # z -+ the principal root of w in Python complex arithmetic, which
    # from_sym computed before it called pair_from_sym
    n = 2000
    mag = 10.0 ** rng.uniform(-300, 150, (4, n))
    sgn = rng.choice([-1.0, 1.0], (4, n))
    parts = mag * sgn
    cases = list(zip(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]))
    cases += [(0.5 - 2.0j, complex(-x, 0.0)) for x in (4.0, 1e-300, 1e150)]
    cases += [(0.5 - 2.0j, complex(-x, -0.0)) for x in (4.0, 1e-300, 1e150)]
    for z, w in cases:
        root = complex(np.sqrt(complex(w)))
        z = complex(z)
        p = SymPoint.from_sym(z, w)
        assert _bits(p.z1) == _bits(z + root) and _bits(p.z2) == _bits(z - root)


def test_complex_square_is_the_python_product_bit_for_bit(rng):
    # numpy's complex multiply may fuse the real part into one FMA
    mag = 10.0 ** rng.uniform(-300, 150, (2, 2000))
    parts = mag * rng.choice([-1.0, 1.0], (2, 2000))
    values = list(parts[0] + 1j * parts[1])
    values += list(rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(-50.0, 50.0, 2000))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e200, 1.5]
    values += [complex(x, y) for x in special for y in special]
    with np.errstate(over="ignore", invalid="ignore"):
        got = complex_square(np.array(values))
    for s, g in zip(values, got.tolist()):
        assert _bits(g) == _bits(s * s)


def test_sym_from_pair_squares_as_sympoint_w(rng):
    z1 = rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(-50.0, 50.0, 2000)
    z2 = rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(-50.0, 50.0, 2000)
    _, w = sym_from_pair(z1, z2)
    for a, b, got in zip(z1.tolist(), z2.tolist(), w.tolist()):
        assert _bits(got) == _bits(SymPoint(a, b).w)


def test_sympoint_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymPoint(float("nan") + 0.0j, 0.0)


def test_phi_sym_smoothed_matches_coordinates(pure16):
    p = SymPoint(1.0 + 2.0j, 3.0 - 4.0j)
    assert phi_sym_smoothed(p, pure16) == pytest.approx(
        sym2_potential(p.z, p.w, pure16), rel=1e-14
    )


# ------------------------------------------------------------------ params


@pytest.mark.parametrize(
    "kwargs",
    [dict(alpha=1.0), dict(alpha=0.5), dict(epsilon=0.0), dict(epsilon=-2.0),
     dict(smoothing="nope"), dict(alpha=math.inf), dict(epsilon=math.inf),
     dict(epsilon=1.0, smoothing="cutoff")],
)
def test_stein_params_validation(kwargs):
    base = dict(alpha=1.5, epsilon=16.0, smoothing="pure")
    base.update(kwargs)
    with pytest.raises(ValueError):
        SteinParams(**base)


def test_replaced_params_build_their_own_table():
    # the kernels read epsilon from table[1], so a copy must not inherit
    # the cached table of the original
    params = SteinParams(epsilon=16.0, smoothing="cutoff")
    assert params.table[1] == 16.0
    copy = dataclasses.replace(params, epsilon=4.0, smoothing="pure")
    assert np.array_equal(copy.table, build_smoothing_table(4.0, "pure"))


def test_params_are_immutable_values():
    # a mutable SteinParams kept the table of its first epsilon after
    # p.epsilon was assigned, so the kernels and the Python code disagreed
    p = SteinParams(epsilon=16.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.epsilon = 4.0
    settings = FlowSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.max_time = 1.0
    assert p.table[1] == 16.0
    assert hash(p) == hash(SteinParams(epsilon=16.0)) and p == SteinParams()
    assert hash(settings) == hash(FlowSettings(max_time=60.0))
    # a writable table let p.table[1] = 4.0 make the numpy kernels read
    # epsilon 4 while p.epsilon said 16; the one table every kernel takes
    # is a tuple of built-in floats
    assert type(p.table) is tuple and len(p.table) == TABLE_SIZE
    assert all(type(v) is float for v in p.table)
    with pytest.raises(TypeError):
        p.table[1] = 4.0
    assert p.table[1] == 16.0


@pytest.mark.parametrize("module", [flow, geometry, gridplot, sectors],
                         ids=lambda m: m.__name__)
def test_params_and_settings_never_default_to_none(module):
    # the shared defaults are DEFAULT_PARAMS and DEFAULT_SETTINGS; a None
    # default would bring back one "if params is None" branch per function
    checked = []
    for name, func in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(func):
            continue
        if func.__module__ != module.__name__:
            continue
        for arg in inspect.signature(func).parameters.values():
            if arg.name in ("params", "settings"):
                checked.append((name, arg.name, arg.default))
    assert checked
    assert [c for c in checked if c[2] is None] == []


# ------------------------------------------------------------- form algebra


def test_complex_structure_squares_to_minus_identity():
    J = complex_structure()
    assert np.array_equal(J @ J, -np.eye(4))


def test_form_closed_matches_fd(pure16, cutoff16, rng):
    r0, r1 = cutoff16.table[2], cutoff16.table[4]
    cases = [(pure16, complex(rng.uniform(-40, 40), rng.uniform(-40, 40)))
             for _ in range(10)]
    # cutoff mode on the bridge annulus, where m' is a cubic
    cases += [(cutoff16, rng.uniform(r0, r1) * np.exp(2j * np.pi * rng.uniform()))
              for _ in range(10)]
    for params, w in cases:
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        closed = symplectic_form_closed(z, w, params)
        fd = symplectic_form_fd(z, w, params)
        assert np.max(np.abs(closed - fd)) <= 1e-5 * (1.0 + np.max(np.abs(closed)))


def test_form_is_antisymmetric_and_nondegenerate(pure16, rng):
    for _ in range(10):
        p = SymPoint(complex(rng.uniform(-9, 9), rng.uniform(-9, 9)),
                     complex(rng.uniform(-9, 9), rng.uniform(-9, 9)))
        om = symplectic_form(p, pure16)
        assert np.max(np.abs(om + om.T)) <= 1e-9 * (1.0 + np.max(np.abs(om)))
        assert abs(np.linalg.det(om)) > 1e-12


@pytest.mark.parametrize("smoothing", ["pure", "cutoff"])
@pytest.mark.parametrize("w", [2e6, 1e9, -1e9j], ids=["2e6", "1e9", "-1e9j"])
def test_form_far_out_is_not_degenerate(smoothing, w):
    # a bound |det| < 1e-12 refused these: det = (2/kappa)^2 and kappa ~ 2|w|
    params = SteinParams(smoothing=smoothing)
    p = SymPoint.from_sym(0.5, w)
    assert np.array_equal(symplectic_form(p, params),
                          symplectic_form_closed(p.z, p.w, params))


@pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
def test_form_with_a_bad_w_block_is_degenerate(q):
    omega = symplectic_form_closed(0.0, 1.0)
    assert not form_is_degenerate(omega)
    omega[2, 3], omega[3, 2] = q, -q
    assert form_is_degenerate(omega)


def test_metric_compatibility(pure16, rng):
    # omega(v, J v) > 0: the pairing with the complex structure is a metric
    J = complex_structure()
    for _ in range(10):
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        w = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        om = symplectic_form_closed(z, w, pure16)
        v = rng.standard_normal(4)
        assert v @ om @ (J @ v) > 0.0


def test_flow_field_is_downhill(pure16, rng):
    # moving along the flow field must lower the potential
    for _ in range(10):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        w = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        dz, dw = flow_field_zw(z, w, pure16)
        h = 1e-6
        before = sym2_potential(z, w, pure16)
        after = sym2_potential(z + h * dz, w + h * dw, pure16)
        assert after < before


def test_flow_field_beyond_the_float_range_is_not_finite(pure16, cutoff16):
    # |w| overflows to inf: the field is infinite, no OverflowError
    for params in (pure16, cutoff16):
        dz, dw = flow_field_zw(0.0, complex(1.5e308, 1.5e308), params)
        assert dz == 0.0
        assert dw.real == np.inf and np.isfinite(dw.imag)


def test_liouville_is_negated_flow(pure16):
    p = SymPoint(1.0 + 2.0j, 3.0 - 4.0j)
    f = flow_vector_field(p, pure16)
    l = liouville_vector_field(p, pure16)
    assert l.dz == -f.dz and l.dw == -f.dw


# ------------------------------------------------------------ disk potentials


def test_disk_blend_psh_floor():
    m = check_psh(lambda Z: phi_D1(Z, 1.5), (-5.0, 5.0, -5.0, 5.0), 201)
    floor = 1.5 - (1.0 + 0.0625) / 0.875
    assert m > 0.0
    assert m >= floor - 1e-6


def test_phi_dn_c1_at_seam():
    for n in (1, 2, 3):
        rn = 0.25 ** (1.0 / n)
        for theta in (0.0, 1.1, 2.9):
            e = complex(math.cos(theta), math.sin(theta))
            lo = phi_Dn((rn - 1e-9) * e, n)
            hi = phi_Dn((rn + 1e-9) * e, n)
            assert abs(hi - lo) <= 1e-6
            d = 1e-6
            s_in = (phi_Dn(rn * e, n) - phi_Dn((rn - d) * e, n)) / d
            s_out = (phi_Dn((rn + d) * e, n) - phi_Dn(rn * e, n)) / d
            assert abs(s_out - s_in) <= 1e-3


def test_phi_dn_reduces_to_base_disk(rng):
    pts = rng.uniform(-1.3, 1.3, (32, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    base = np.array([phi_D1(q) for q in z])
    cover = np.array([phi_Dn(q, 1) for q in z])
    assert np.max(np.abs(base - cover)) <= 1e-9


def test_phi_dn_outer_matches_composed_cover():
    # away from the well the n-fold potential is the base one composed
    # with z^n
    for n in (2, 3):
        for q in (0.95 + 0.1j, -0.8 + 0.55j, 1.4 - 0.2j):
            assert phi_Dn(q, n) == pytest.approx(phi_D1(q ** n), rel=1e-12)


def test_laplacian_fd_convention():
    # quadratic |z|^2 has constant Laplacian 4 in this convention
    val = laplacian_fd(lambda q: abs(q) ** 2, 0.3 + 0.7j)
    assert val == pytest.approx(4.0, rel=1e-5)
