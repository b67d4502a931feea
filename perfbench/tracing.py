"""In-memory span tracer installed around the package's public functions.

The tracer replaces, in every module of a freshly imported package, each
public function (and the hot ``SparsePolynomial`` methods) by a wrapper
that records a span: the operation it belongs to, the layer name, start,
end and nesting depth.  A layer's self time is its span's duration minus the
time covered by its child spans; self times and call counts are summed per
layer as the spans close, and the spans themselves are kept (up to a cap)
and written out when the benchmark ends.  Wrappers record nothing outside an
operation, so the benchmark's own checks cost the trace nothing.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

SPAN_CAP = 200_000

# Layer names for single functions; every other public function of a module
# is recorded under the module's "other" layer (or the module name alone).
FUNCTION_LAYERS = {
    "polynomials": {"exact_divide": "polynomials.exact_divide", "det": "polynomials.det"},
    "schur": {
        "h_from_T": "schur.h_from_T",
        "schur_in_T": "schur.schur_in_T",
        "schur_bialternant": "schur.bialternant",
        "schur_jacobi_trudi": "schur.jacobi_trudi",
        "schur_tail_trudi": "schur.tail_trudi",
        "schur_split_trudi": "schur.split_trudi",
        "bialternant_value": "schur.value",
        "jacobi_trudi_value": "schur.value",
        "tail_trudi_value": "schur.value",
        "split_trudi_value": "schur.value",
    },
    "certifier": {
        "derivative_on_stratum": "certifier.derivative_on_stratum",
        "restricted_derivative_poly": "certifier.restricted_derivative_poly",
        "certify_natural": "certifier.certify_natural",
        "sub_vanishing_sweep": "certifier.sub_vanishing_sweep",
        "certify_g_power": "certifier.certify_g_power",
    },
    "semigroup": {},
    "strata": {},
    "numerics": {"mu_coeffs": "numerics.mu_coeffs", "fs_det": "numerics.fs_det"},
    "cli": {"main": "cli.main"},
}
MODULE_DEFAULT = {
    "polynomials": "polynomials.other",
    "schur": "schur.other",
    "certifier": "certifier.other",
    "semigroup": "semigroup",
    "strata": "strata",
    "numerics": "numerics.other",
    "cli": None,  # command handlers run inside cli.main and count as its self time
}
POLYNOMIAL_METHODS = {
    "__mul__": "polynomials.mul",
    "substitute": "polynomials.substitute",
    "partial_derivative": "polynomials.partial_derivative",
    "evaluate": "polynomials.evaluate",
    "__add__": "polynomials.other",
    "__sub__": "polynomials.other",
    "__rsub__": "polynomials.other",
    "__neg__": "polynomials.other",
    "__pow__": "polynomials.other",
    "scale": "polynomials.other",
    "rename_variables": "polynomials.other",
}


def _mul_pairs(counts, args, result):
    left, right = args
    counts["polynomials.mul.term_pairs"] += len(left) * (
        len(right) if isinstance(right, type(left)) else 1
    )


def _substitute_terms(counts, args, result):
    counts["polynomials.substitute.terms_in"] += len(args[0])


def _divide_pairs(counts, args, result):
    counts["polynomials.exact_divide.term_pairs"] += len(args[0]) * len(args[1])


def _det_size(counts, args, result):
    counts["polynomials.det.max_n"] = max(counts["polynomials.det.max_n"], len(args[0]))


def _bundle_certificates(counts, args, result):
    counts["certifier.certificates"] += len(result.certificates)


def _one_certificate(counts, args, result):
    counts["certifier.certificates"] += 1


def _sweep_checked(counts, args, result):
    counts["certifier.multisets_checked"] += result.checked


COUNTERS = {
    "polynomials.mul": _mul_pairs,
    "polynomials.substitute": _substitute_terms,
    "polynomials.exact_divide": _divide_pairs,
    "polynomials.det": _det_size,
    "certifier.certify_natural": _bundle_certificates,
    "certifier.certify_g_power": _one_certificate,
    "certifier.sub_vanishing_sweep": _sweep_checked,
}


class Tracer:
    """Spans and per-layer totals for one traced round."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        self._stack: list[list[float]] = []
        self._op = -1

    def wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(layer, frame, end)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, layer: str, frame: list[float], end: float) -> None:
        duration = end - frame[0]
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self._op, layer, frame[0], end, len(self._stack)))
        else:
            self.spans_dropped += 1

    def run_op(self, op_id: int, call):
        """Run one operation as the root span ``bench.op``; return its result."""
        self._op = op_id
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close("bench.op", frame, end)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module)."""
        replacements = {}
        for short, module in modules.items():
            if short not in FUNCTION_LAYERS:
                continue
            for name, value in vars(module).items():
                if name.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                layer = FUNCTION_LAYERS[short].get(name, MODULE_DEFAULT[short])
                if layer is None:
                    continue
                replacements[id(value)] = (value, self.wrap(layer, value))
        for module in modules.values():
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
        poly_class = modules["polynomials"].SparsePolynomial
        for name, layer in POLYNOMIAL_METHODS.items():
            setattr(poly_class, name, self.wrap(layer, vars(poly_class)[name]))
