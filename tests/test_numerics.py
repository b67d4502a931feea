import cmath
import random

import numpy as np
import pytest

from cyclic_strata.numerics import (
    CurveInstance,
    OffCurveError,
    RamificationError,
    SpecialDivisorError,
    affine_point,
    fs_det,
    fs_matrix,
    lift_points,
    mu_coeffs,
)
from cyclic_strata.semigroup import CurveSignature


CURVE_25 = CurveInstance(CurveSignature(2, 5), (1, 0, 0, 0, 0))  # y^2 = x^5 + 1


def random_curve(rng, r, s):
    lambdas = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(s))
    return CurveInstance(CurveSignature(r, s), lambdas)


def random_points(rng, curve, n):
    # Spread radii keep the point matrix reasonably conditioned.
    xs = [
        (1.0 + 0.35 * i) * cmath.exp(2j * cmath.pi * rng.random())
        for i in range(n)
    ]
    return lift_points(curve, xs, rng.randrange(curve.signature.r))


def test_curve_instance_validation():
    with pytest.raises(ValueError):
        CurveInstance(CurveSignature(2, 5), (1, 0))
    assert CURVE_25.f(2) == 33


def test_lift_branches():
    p = lift_points(CURVE_25, [0.0], 0)[0]
    assert abs(p.y - 1) < 1e-14
    p1 = lift_points(CURVE_25, [0.0], 1)[0]
    assert abs(p1.y + 1) < 1e-14
    cubic = CurveInstance(CurveSignature(3, 4), (1, 0, 0, 0))
    q = lift_points(cubic, [1.0], 0)[0]
    assert abs(q.y - 2 ** (1 / 3)) < 1e-14
    with pytest.raises(RamificationError):
        lift_points(CURVE_25, [-1.0], 0)
    with pytest.raises(ValueError):
        lift_points(CURVE_25, [0.0], 2)


def test_affine_point_residual_check():
    with pytest.raises(OffCurveError):
        affine_point(CURVE_25, 0.0, 1.5)
    good = affine_point(CURVE_25, 0.0, 1.0)
    assert good.residual <= 1e-10
    # f(1e300) overflows to NaN, and a NaN residual must not pass the check
    with pytest.raises(OffCurveError):
        affine_point(CURVE_25, 1e300, 0.0)


def test_fs_examples():
    pts = lift_points(CURVE_25, [0.3, 1.7], 0)
    assert fs_det(CURVE_25, pts[:1]) == 1  # phi_0 = 1
    with pytest.raises(ValueError, match="at least one point"):
        fs_det(CURVE_25, [])
    assert abs(fs_det(CURVE_25, pts) - (pts[1].x - pts[0].x)) < 1e-12
    repeated = [pts[0], pts[0]]
    scale = abs(pts[0].x) + 1
    assert abs(fs_det(CURVE_25, repeated)) < 1e-12 * scale
    matrix = fs_matrix(CURVE_25, pts)
    assert matrix.shape == (2, 2)
    assert np.allclose(matrix[:, 0], 1)


def test_mu_single_point():
    pts = lift_points(CURVE_25, [0.3], 0)
    result = mu_coeffs(CURVE_25, pts)
    assert abs(result.coefficients[0] - pts[0].x) < 1e-13
    assert result.extra_zero_count == 1  # pole order 2, one point
    assert type(result.value_scale(pts[0])) is float  # the CLI's JSON writer takes no numpy floats


def test_mu_rejects_duplicates_and_special():
    pts = lift_points(CURVE_25, [0.3], 0)
    with pytest.raises(ValueError):
        mu_coeffs(CURVE_25, [pts[0], pts[0]])
    # two points sharing x on opposite branches of y^2 = x^5 + 1 make
    # (1, x) columns dependent only in degenerate cases; build a genuinely
    # special pair instead: same x, same phi row via branch symmetry at n=2
    p_up = lift_points(CURVE_25, [0.3], 0)[0]
    p_down = lift_points(CURVE_25, [0.3], 1)[0]
    with pytest.raises(SpecialDivisorError):
        mu_coeffs(CURVE_25, [p_up, p_down])


def test_mu_defining_property_random():
    rng = random.Random(12345)
    for r, s in [(2, 5), (3, 4), (3, 5)]:
        curve = random_curve(rng, r, s)
        g = curve.signature.genus
        for n in range(1, g + 1):
            pts = random_points(rng, curve, n)
            try:
                result = mu_coeffs(curve, pts)
            except SpecialDivisorError:
                continue
            for p in pts:
                assert abs(result.value(p)) <= 1e-9 * max(result.value_scale(p), 1.0)


def test_fs_antisymmetry_and_mu_permutation_invariance():
    rng = random.Random(999)
    curve = random_curve(rng, 3, 5)
    pts = random_points(rng, curve, 4)
    base = fs_det(curve, pts)
    swapped = [pts[1], pts[0], pts[2], pts[3]]
    assert abs(fs_det(curve, swapped) + base) <= 1e-9 * abs(base)
    result = mu_coeffs(curve, pts)
    perm = [pts[2], pts[0], pts[3], pts[1]]
    permuted = mu_coeffs(curve, perm)
    scale = max(abs(c) for c in result.coefficients)
    for a, b in zip(result.coefficients, permuted.coefficients):
        assert abs(a - b) <= 1e-9 * scale
