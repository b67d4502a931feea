"""Complex floating-point evaluation of point matrices on y^r = f(x).

Given a smooth affine curve ``y^r = f(x)`` (``f`` monic of degree s) and
points P_1..P_n on it, the point matrix has entries ``phi_j(P_i)`` where
``phi_0, phi_1, ...`` is the pole-order monomial basis from
:mod:`cyclic_strata.semigroup`.  Its determinant vanishes exactly on special
point configurations, and bordering it with one extra point P produces the
monic interpolation function

    mu_n(P) = phi_n(P) + sum_{k<n} (-1)^(n-k) mu_{n,k} phi_k(P)

of minimal pole order vanishing at P_1..P_n.  The coefficients mu_{n,k} are
recovered here by a dense linear solve; the condition number of the point
matrix is reported alongside, since these matrices are Vandermonde-like and
degrade quickly for clustered points.

Repeated points (confluent limits) are intentionally not supported: inputs
must be pairwise distinct.

numpy is imported by the functions that compute with it, so importing this
module (as the package and its CLI do) does not load it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .semigroup import CurveSignature, monomial_basis

if TYPE_CHECKING:
    import numpy as np

ON_CURVE_TOL = 1e-10
SPECIAL_TOL = 1e-12


class RamificationError(ValueError):
    """x lies over a ramification point (f(x) = 0); no branch is selectable."""


class OffCurveError(ValueError):
    """A supplied point does not satisfy the curve equation to tolerance."""


class SpecialDivisorError(ArithmeticError):
    """The point matrix is numerically singular (special configuration)."""


@dataclass(frozen=True)
class CurveInstance:
    """y^r = f(x) with f(x) = x^s + lambda_{s-1} x^{s-1} + ... + lambda_0."""

    signature: CurveSignature
    lambdas: tuple[complex, ...]

    def __post_init__(self):
        if len(self.lambdas) != self.signature.s:
            raise ValueError(
                f"need {self.signature.s} lower coefficients, got {len(self.lambdas)}"
            )

    def f(self, x: complex) -> complex:
        value = 1.0 + 0.0j
        for c in reversed(self.lambdas):
            value = value * x + c
        return value


@dataclass(frozen=True)
class AffinePoint:
    x: complex
    y: complex
    residual: float


def affine_point(curve: CurveInstance, x: complex, y: complex) -> AffinePoint:
    residual = abs(y ** curve.signature.r - curve.f(x))
    point = AffinePoint(complex(x), complex(y), residual)
    if not residual <= ON_CURVE_TOL * max(1.0, abs(y) ** curve.signature.r):  # NaN fails
        raise OffCurveError(f"point ({x}, {y}) misses the curve by {residual:.3e}")
    return point


def lift_points(curve: CurveInstance, xs, branch: int) -> list[AffinePoint]:
    """Lift x-values to the curve along one of the r root branches.

    Branch m picks the root |f|^(1/r) exp(i (arg f + 2 pi m) / r), i.e. the
    branches are ordered by argument starting from the principal root.
    """
    r = curve.signature.r
    if not 0 <= branch < r:
        raise ValueError(f"branch must lie in [0, {r}), got {branch}")
    points = []
    for x in xs:
        fx = curve.f(x)
        if fx == 0:
            raise RamificationError(f"f({x}) = 0; x lies under a ramification point")
        modulus = abs(fx) ** (1.0 / r)
        phase = (cmath.phase(fx) + 2.0 * cmath.pi * branch) / r
        y = modulus * cmath.exp(1j * phase)
        points.append(affine_point(curve, x, y))
    return points


def _phi_values(curve: CurveInstance, points, count: int) -> np.ndarray:
    import numpy as np

    basis = monomial_basis(curve.signature, count)
    matrix = np.empty((len(points), count), dtype=complex)
    for i, p in enumerate(points):
        for j, mono in enumerate(basis):
            matrix[i, j] = (p.x ** mono.a) * (p.y ** mono.b)
    return matrix


def fs_matrix(curve: CurveInstance, points) -> np.ndarray:
    """n x n point matrix: row i holds phi_0..phi_{n-1} at P_i."""
    return _phi_values(curve, points, len(points))


def fs_det(curve: CurveInstance, points) -> complex:
    if not points:
        raise ValueError("need at least one point")
    import numpy as np

    return complex(np.linalg.det(fs_matrix(curve, points)))


@dataclass(frozen=True)
class MuCoefficients:
    """mu_{n,0..n-1} plus solve diagnostics; mu_{n,n} = 1 by convention."""

    curve: CurveInstance
    coefficients: tuple[complex, ...]
    condition_number: float
    extra_zero_count: int  # pole order minus n: zeros of mu_n away from the inputs

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def value(self, point: AffinePoint) -> complex:
        phi = _phi_values(self.curve, [point], self.n + 1)[0]
        n = self.n
        total = phi[n]
        for k in range(n):
            total += (-1) ** (n - k) * self.coefficients[k] * phi[k]
        return complex(total)

    def value_scale(self, point: AffinePoint) -> float:
        """Magnitude scale of the defining sum at a point, for residual tests."""
        phi = _phi_values(self.curve, [point], self.n + 1)[0].tolist()
        n = self.n
        return abs(phi[n]) + sum(abs(self.coefficients[k] * phi[k]) for k in range(n))


def mu_coeffs(curve: CurveInstance, points) -> MuCoefficients:
    """Solve for the interpolation coefficients at n distinct points."""
    n = len(points)
    if n < 1:
        raise ValueError("need at least one point")
    if len({(round(p.x.real, 12), round(p.x.imag, 12), round(p.y.real, 12), round(p.y.imag, 12)) for p in points}) != n:
        raise ValueError("points must be pairwise distinct")
    import numpy as np

    full = _phi_values(curve, points, n + 1)
    psi = full[:, :n]
    # Hadamard-scaled singularity test for the unbordered determinant.
    scale = float(np.prod(np.linalg.norm(psi, axis=1))) or 1.0
    determinant = np.linalg.det(psi)
    if abs(determinant) <= SPECIAL_TOL * scale:
        raise SpecialDivisorError(
            f"point matrix is singular to tolerance (|det| = {abs(determinant):.3e}); "
            "the configuration is special"
        )
    solution = np.linalg.solve(psi, -full[:, n])
    coeffs = tuple(
        complex((-1) ** (n - k) * solution[k]) for k in range(n)
    )
    pole_order = monomial_basis(curve.signature, n + 1)[n].wdeg
    return MuCoefficients(curve, coeffs, float(np.linalg.cond(psi)), pole_order - n)
