"""The names the benchmark's tracer reads from the package must exist.

``perfbench/tracing.py`` wraps every ``SparsePolynomial`` method named in
``POLYNOMIAL_METHODS`` (reading ``vars(SparsePolynomial)[name]``), and
``perfbench/run.py`` reads ``schur.h_from_T.cache_info``.  A deletion of any
of them breaks every traced benchmark run, so it should fail here too.
"""

import importlib.util
from pathlib import Path

from cyclic_strata import schur
from cyclic_strata.polynomials import SparsePolynomial

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_polynomial_method_is_defined():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.POLYNOMIAL_METHODS
    missing = [name for name in tracing.POLYNOMIAL_METHODS if name not in vars(SparsePolynomial)]
    assert not missing


def test_h_from_T_reports_its_cache():
    assert callable(schur.h_from_T.cache_info)
