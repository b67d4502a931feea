"""Stratification data and derivative certificates for cyclic plane curves.

The package computes, in exact arithmetic, the Weierstrass-semigroup and
Young-diagram combinatorics attached to a cyclic curve y^r = f(x), the Schur
polynomial of its diagram by several independent determinant routes, and
certificates for which partial derivatives of the stratum-restricted Schur
form vanish and with which constants.
"""

from .semigroup import (
    CurveSignature,
    NonGapSequence,
    WeierstrassMonomial,
    YoungDiagram,
    monomial_basis,
    nongap_sequence,
    u_weights,
    young_diagram,
)
from .strata import (
    FrobeniusCharacteristics,
    StratumProfile,
    characteristics,
    fay_sets,
    hyperelliptic_natural,
    n_k,
    N_k_sum,
    N_k_tail,
    natural_k,
    natural_k_i,
    rim_hook_reading,
    stratum_profile,
    stratum_table,
    truncate_lower,
    truncate_upper,
)
from .polynomials import (
    MultiIndex,
    SparsePolynomial,
    det,
    exact_divide,
)
from .schur import (
    SchurForm,
    h_complete,
    h_from_T,
    h_recursion_check,
    schur_bialternant,
    schur_in_T,
    schur_jacobi_trudi,
    schur_split_trudi,
    schur_tail_trudi,
    transition_matrix,
)
from .certifier import (
    CertificateBundle,
    CertificationError,
    DerivativeCertificate,
    HookHierarchy,
    SweepReport,
    build_hierarchy,
    certify_g_power,
    certify_natural,
    sub_vanishing_sweep,
    trial_points,
)
from .numerics import (
    AffinePoint,
    CurveInstance,
    MuCoefficients,
    OffCurveError,
    RamificationError,
    SpecialDivisorError,
    affine_point,
    fs_det,
    fs_matrix,
    lift_points,
    mu_coeffs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
