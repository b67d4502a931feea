"""What importing the package and running each command loads, and what the
package exports.

Only floating-point work (`mu`) and the packed kernels of `polynomials` use
numpy, so the exact commands must run without ever importing it.  Each case
runs in a fresh interpreter, since the test process itself has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclic_strata
from test_cli import subcommand_parsers, write_curve_files

SRC = Path(__file__).resolve().parents[1] / "src"

# one small valid argv for each subcommand but `mu`
EXACT_CASES = {
    "gaps": ["gaps", "5", "7"],
    "strata": ["strata", "7", "9"],
    "natural": ["natural", "2,9", "3,7"],
    "schur": ["schur", "3", "7"],
    "certify": ["certify", "3", "7"],
}

PUBLIC_NAMES = [
    "AffinePoint", "CertificateBundle", "CertificationError", "CurveInstance",
    "CurveSignature", "DerivativeCertificate", "FrobeniusCharacteristics",
    "HookHierarchy", "MuCoefficients", "MultiIndex", "N_k_sum", "N_k_tail",
    "NonGapSequence", "OffCurveError", "RamificationError", "SchurForm",
    "SparsePolynomial", "SpecialDivisorError", "StratumProfile", "SweepReport",
    "WeierstrassMonomial", "YoungDiagram", "affine_point",
    "build_hierarchy", "certifier", "certify_g_power", "certify_natural",
    "characteristics", "det", "exact_divide", "fay_sets", "fs_det", "fs_matrix",
    "h_complete", "h_from_T", "h_recursion_check", "hyperelliptic_natural",
    "lift_points", "monomial_basis", "mu_coeffs", "n_k", "natural_k",
    "natural_k_i", "nongap_sequence", "numerics", "polynomials",
    "rim_hook_reading", "schur", "schur_bialternant", "schur_in_T",
    "schur_jacobi_trudi", "schur_split_trudi", "schur_tail_trudi", "semigroup",
    "strata", "stratum_profile", "stratum_table", "sub_vanishing_sweep",
    "transition_matrix", "trial_points", "truncate_lower", "truncate_upper",
    "u_weights", "young_diagram",
]


def numpy_loaded_by(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; whether it left numpy imported."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


def main_code(argv) -> str:
    return f"from cyclic_strata import cli\nassert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("command", sorted(subcommand_parsers()))
def test_only_mu_loads_numpy(command, tmp_path):
    if command == "mu":
        curve_path, points_path = write_curve_files(tmp_path)
        argv = ["mu", "--curve", str(curve_path), "--points", str(points_path)]
    else:
        assert command in EXACT_CASES, f"`{command}` has no case here"
        argv = EXACT_CASES[command]
    assert numpy_loaded_by(main_code(argv)) == (command == "mu")


def test_import_leaves_numpy_unloaded():
    assert not numpy_loaded_by("import cyclic_strata")


def test_the_dominant_expansion_loads_numpy():
    # (3,7) reaches _expand_dominant, so the probe above can see numpy at all
    assert numpy_loaded_by(
        "from cyclic_strata import CurveSignature, schur_jacobi_trudi, young_diagram\n"
        "sig = CurveSignature(3, 7)\n"
        "schur_jacobi_trudi(young_diagram(sig), sig.genus)"
    )


@pytest.mark.parametrize("function", ["fs_det", "mu_coeffs"])
def test_an_empty_point_list_is_rejected_before_numpy_loads(function):
    assert not numpy_loaded_by(
        f"from cyclic_strata import CurveInstance, CurveSignature, {function}\n"
        "curve = CurveInstance(CurveSignature(2, 5), (1, 0, 0, 0, 0))\n"
        "try:\n"
        f"    {function}(curve, [])\n"
        "except ValueError as exc:\n"
        "    assert str(exc) == 'need at least one point', exc\n"
        "else:\n"
        "    raise AssertionError('no ValueError')"
    )


def test_public_names_are_pinned():
    # __all__ is every public name in the package namespace, so a new
    # module-level name would be exported without this check
    assert sorted(cyclic_strata.__all__) == PUBLIC_NAMES
