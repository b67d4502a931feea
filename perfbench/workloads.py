"""The benchmark's workloads: operations on the package and their checks.

A workload builds, from a freshly imported package and a seeded random
generator, a fixed list of operations.  Each operation is one call into the
package's public API and a check that compares its output with the reference
computations in :mod:`reference` (never with stored output of the package).
The seed moves only data whose cost does not depend on it (rational and
integer evaluation points, random curves, row counts), so every seed gives
the same operations in the same order.  Certification runs with the
package's default trial points (``seed=0``, three trials), the ones the
``certify`` command uses, so its inputs do not depend on the seed at all.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge the groups so that each one is spread evenly over the round.

    Within a group the order is kept (its first call fills the package's
    caches for that curve).  Across groups, an operation at fraction f of its
    group runs at about fraction f of the round, so cheap operations sample
    the host over the whole round rather than over its first seconds.
    """
    keyed = [((i + 0.5) / len(group), n, op)
             for n, group in enumerate(groups) for i, op in enumerate(group)]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


# -- certification --------------------------------------------------------------


def _natural_check(r, s, k, mode):
    g = ref.genus(r, s)
    expected = ref.natural_set(r, s, k)

    def check(bundle) -> list[str]:
        where = f"certify_natural ({r},{s}) k={k}"
        problems = []
        if bundle.mode != mode:
            problems.append(f"{where}: mode {bundle.mode}, expected {mode}")
        if set(bundle.index_set) != expected:
            problems.append(f"{where}: index set {bundle.index_set}, expected {sorted(expected)}")
        if len(bundle.certificates) != 2 ** len(expected):
            problems.append(f"{where}: {len(bundle.certificates)} certificates, "
                            f"expected {2 ** len(expected)}")
        main = bundle.main
        if main.verdict != "nonzero" or main.constant is None or abs(main.constant) != 1:
            problems.append(f"{where}: natural-set constant {main.constant}, expected +/-1")
        for cert in bundle.certificates[:-1]:
            if cert.verdict != "zero" or cert.mode != mode:
                problems.append(f"{where}: subset {cert.index_multiset} gave {cert.verdict}")
            if not set(cert.index_multiset) < expected or not all(1 <= i <= g for i in cert.index_multiset):
                problems.append(f"{where}: {cert.index_multiset} is not a proper subset")
        return problems

    return check


def _sweep_check(r, s, k, mode):
    g = ref.genus(r, s)
    n = ref.rank(r, s, k)

    def check(report) -> list[str]:
        where = f"sub_vanishing_sweep ({r},{s}) k={k}"
        problems = []
        if report.checked != ref.sweep_count(g, n):
            problems.append(f"{where}: checked {report.checked}, expected {ref.sweep_count(g, n)}")
        if report.order_bound != n or report.mode != mode:
            problems.append(f"{where}: bound {report.order_bound} mode {report.mode}")
        return problems

    return check


def _g_power_check(r, s, k, ell, mode):
    g = ref.genus(r, s)
    n = ref.rank(r, s, k)
    weight = ref.tail_weight(r, s, k)
    hooks = ref.first_column_hooks(r, s)

    def check(cert) -> list[str]:
        where = f"certify_g_power ({r},{s}) k={k} ell={ell}"
        problems = []
        if cert.verdict != "nonzero" or not cert.constant or cert.mode != mode:
            problems.append(f"{where}: {cert.verdict} constant {cert.constant} mode {cert.mode}")
        traded = sum(hooks[i - 1] for i in cert.index_multiset)
        if traded != weight:
            problems.append(f"{where}: index weight {traded}, expected N_k = {weight}")
        if ell == n + 1:
            pure = (g - k) * (g - k + 1) // 2 if r == 2 else weight
            if len(cert.index_multiset) != pure or set(cert.index_multiset) != {g}:
                problems.append(f"{where}: pure case {cert.index_multiset}, expected {pure} x u{g}")
        return problems

    return check


def _certification_ops(m, signatures, natural_only, mode) -> list[Op]:
    groups = []
    for r, s in signatures:
        sig = m.semigroup.CurveSignature(r, s)
        ops: list[Op] = []
        groups.append(ops)
        for k in range(1, sig.genus):
            ops.append(Op(
                f"certify_natural ({r},{s}) k={k}",
                lambda sig=sig, k=k: m.certifier.certify_natural(sig, k, 3),
                _natural_check(r, s, k, mode),
            ))
            if (r, s) in natural_only:
                continue
            ops.append(Op(
                f"sub_vanishing_sweep ({r},{s}) k={k}",
                lambda sig=sig, k=k: m.certifier.sub_vanishing_sweep(sig, k, 3),
                _sweep_check(r, s, k, mode),
            ))
            for ell in range(1, ref.rank(r, s, k) + 2):
                ops.append(Op(
                    f"certify_g_power ({r},{s}) k={k} ell={ell}",
                    lambda sig=sig, k=k, ell=ell: m.certifier.certify_g_power(sig, k, ell, 3),
                    _g_power_check(r, s, k, ell, mode),
                ))
    return _interleave(groups)


def build_certify_expanded(m, rng) -> list[Op]:
    # (3,7) is left out: its 20 s of certification made a round of one run,
    # and the median operation time of such runs spread by 19-42 %.
    return _certification_ops(m, [(2, 9), (3, 5), (2, 11)], (), "expanded")


def build_certify_sampled(m, rng) -> list[Op]:
    return _certification_ops(m, [(5, 7), (4, 7), (3, 8)], {(5, 7), (4, 7)}, "sampled")


# -- Schur routes -----------------------------------------------------------------


def _rational_point(rng, n) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(1, 40), rng.randint(1, 40)))
    out = sorted(values)
    rng.shuffle(out)
    return out


def _symbolic_check(name, parts, point):
    """A t-polynomial equals s_parts: coefficient sum and value at a point."""
    n = len(point)

    def check(poly) -> list[str]:
        text = poly.canonical_str()
        problems = []
        if ref.coefficient_sum(text) != ref.hook_content(parts, n):
            problems.append(f"{name}: coefficient sum differs from the hook-content formula")
        values = {i: t for i, t in enumerate(point, start=1)}
        if ref.evaluate_text(text, values) != ref.schur_value(parts, point):
            problems.append(f"{name}: value at {point} differs from the bialternant")
        return problems

    return check


def _form_check(name, r, s, parts, point):
    """A SchurForm: as_t at the point and as_u at u_i = p_(hook_i)/hook_i give s_parts."""

    def check(form) -> list[str]:
        expected = ref.schur_value(parts, point)
        problems = []
        as_t = ref.evaluate_text(form.as_t.canonical_str(), dict(enumerate(point, start=1)))
        if as_t != expected:
            problems.append(f"{name}: as_t value {as_t}, expected {expected}")
        as_u = ref.evaluate_text(form.as_u.canonical_str(), ref.u_point(r, s, point))
        if as_u != expected:
            problems.append(f"{name}: as_u value {as_u}, expected {expected}")
        return problems

    return check


def _value_check(name, expected):
    def check(value) -> list[str]:
        return [] if value == expected() else [f"{name}: {value} differs from {expected()}"]

    return check


def build_routes(m, rng) -> list[Op]:
    sch = m.schur
    groups = []
    for r, s in [(2, 9), (3, 5), (2, 11), (3, 7)]:
        ops: list[Op] = []
        groups.append(ops)
        sig = m.semigroup.CurveSignature(r, s)
        g = sig.genus
        lam = m.semigroup.young_diagram(sig)
        parts = ref.diagram(r, s)
        point = _rational_point(rng, g)
        tag = f"({r},{s})"
        ops.append(Op(f"schur_bialternant {tag}", lambda lam=lam, g=g: sch.schur_bialternant(lam, g),
                      _symbolic_check(f"bialternant {tag}", parts, point)))
        ops.append(Op(f"schur_jacobi_trudi {tag}", lambda lam=lam, g=g: sch.schur_jacobi_trudi(lam, g),
                      _symbolic_check(f"jacobi_trudi {tag}", parts, point)))
        ops.append(Op(f"schur_tail_trudi {tag}", lambda lam=lam, g=g: sch.schur_tail_trudi(lam, g),
                      _symbolic_check(f"tail_trudi {tag}", parts, point)))
        for k in range(g + 1):
            ops.append(Op(f"schur_split_trudi {tag} k={k}",
                          lambda lam=lam, g=g, k=k: sch.schur_split_trudi(lam, g, k),
                          _symbolic_check(f"split_trudi {tag} k={k}", parts, point)))
        for k in [g] + list(range(g)):
            head = m.strata.truncate_upper(lam, k)
            ops.append(Op(f"schur_in_T {tag} k={k}",
                          lambda head=head, sig=sig: sch.schur_in_T(head, sig),
                          _form_check(f"schur_in_T {tag} k={k}", r, s, parts[:k], point[:k])))

    # (5,7), genus 12, is above the expansion gate: exact values only.
    sig = m.semigroup.CurveSignature(5, 7)
    g = sig.genus
    lam = m.semigroup.young_diagram(sig)
    parts = ref.diagram(5, 7)
    routes = [("bialternant_value", lambda p: sch.bialternant_value(lam, g, p)),
              ("jacobi_trudi_value", lambda p: sch.jacobi_trudi_value(lam, g, p)),
              ("tail_trudi_value", lambda p: sch.tail_trudi_value(lam, g, p))]
    routes += [(f"split_trudi_value k={k}", lambda p, k=k: sch.split_trudi_value(lam, g, k, p))
               for k in range(g + 1)]
    for j in range(2):
        ops = []
        groups.append(ops)
        # A seeded order of fixed coordinates: the value is symmetric, and
        # points drawn at random made the cost of the exact Fraction
        # arithmetic vary by 15 % from seed to seed.
        point = rng.sample(range(150 + j, 200, 4), g)
        expected = functools.cache(lambda point=point: ref.schur_value(parts, point))
        for name, route in routes:
            ops.append(Op(f"{name} (5,7) point {j}", lambda route=route, point=point: route(point),
                          _value_check(f"{name} (5,7) at {point}", expected)))
    ones = [1] * g
    at_ones = functools.cache(lambda: ref.hook_content(parts, g))
    groups.append([Op(f"{name} (5,7) at ones", lambda route=route: route(ones),
                      _value_check(f"{name} (5,7) at ones", at_ones))
                   for name, route in routes[1:3]])
    return _interleave(groups)


# -- tables and numerics ----------------------------------------------------------

TABLE_MAX_S = 13
MU_CURVES = 40
MU_SIGNATURES = [(2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (5, 7)]
MU_TOL = 1e-9


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str


def _run_cli(main, argv) -> CliResult:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return CliResult(code, buffer.getvalue())


def _cli_check(command, fmt, r, s, count):
    g = ref.genus(r, s)
    where = f"cli {command} {r} {s} --format {fmt}"

    def expected_rows():
        if command == "gaps":
            return [[str(n), str(v)] for n, v in enumerate(ref.pole_orders(r, s, count))]
        if command == "strata":
            return [[str(k), str(ref.rank(r, s, k)), str(ref.tail_weight(r, s, k))] for k in range(g)]
        return [sorted(ref.natural_set(r, s, k)) for k in range(1, g)]

    def check(result) -> list[str]:
        code, text = result.code, result.text
        if code != 0:
            return [f"{where}: exit code {code}"]
        expected = expected_rows()
        if fmt == "json":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                return [f"{where}: output is not JSON ({exc})"]
            if command == "gaps":
                got = [[str(n), str(v)] for n, v in enumerate(payload["nongaps"])]
                ok = got == expected and payload["gaps"] == ref.gaps(r, s)
            elif command == "strata":
                got = [[str(p["k"]), str(p["n_k"]), str(p["N_k"])] for p in payload["profiles"]]
                ok = got == expected
            else:
                got = [sorted(payload[0]["natural"][str(k)]) for k in range(1, g)]
                ok = got == expected
        else:
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(text)))[1:]
            else:
                rows = [[c.strip() for c in line.strip("|").split("|")]
                        for line in text.splitlines() if line.startswith("|")][2:]
            if command == "natural":
                got = [sorted(int(v) for v in cell.strip("{}").split(",")) for cell in rows[0][2:2 + g - 1]]
            else:
                got = [row[:len(expected[0])] for row in rows]
            ok = got == expected
            if ok and command == "gaps" and fmt == "table":
                ok = text.rstrip().endswith("gaps: " + ", ".join(map(str, ref.gaps(r, s))))
        return [] if ok else [f"{where}: output disagrees with the reference tables"]

    return check


def _mu_check(r, s, points):
    def check(result) -> list[str]:
        worst = max(ref.mu_residual(r, s, result.coefficients, p.x, p.y) for p in points)
        return [] if worst <= MU_TOL else [f"mu_coeffs ({r},{s}): residual {worst:.3e}"]

    return check


def _fs_check(r, s):
    def check(result) -> list[str]:
        base, swapped = result
        ok = abs(base + swapped) <= MU_TOL * abs(base) and base != 0
        return [] if ok else [f"fs_det ({r},{s}): {base} and {swapped} are not opposite"]

    return check


def build_tables(m, rng) -> list[Op]:
    groups = []
    for s in range(3, TABLE_MAX_S + 1):
        for r in range(2, s):
            if math.gcd(r, s) != 1:
                continue
            ops: list[Op] = []
            groups.append(ops)
            g = ref.genus(r, s)
            count = g + 1 + rng.randrange(3)
            for fmt in ("table", "json", "csv"):
                for command, argv in (
                    ("gaps", ["gaps", str(r), str(s), "--count", str(count)]),
                    ("strata", ["strata", str(r), str(s)]),
                    ("natural", ["natural", f"{r},{s}"]),
                ):
                    ops.append(Op(f"cli {command} {r} {s} {fmt}",
                                  lambda argv=argv + ["--format", fmt]: _run_cli(m.cli.main, argv),
                                  _cli_check(command, fmt, r, s, count)))
    num = m.numerics
    ops = []
    groups.append(ops)
    for i in range(MU_CURVES):
        r, s = MU_SIGNATURES[i % len(MU_SIGNATURES)]
        sig = m.semigroup.CurveSignature(r, s)
        curve = num.CurveInstance(
            sig, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(s)))
        n = rng.randint(2, min(sig.genus, 6))
        # Spread radii keep the point matrix well conditioned.
        xs = [(1.0 + 0.35 * j) * cmath.exp(2j * cmath.pi * rng.random()) for j in range(n)]
        points = num.lift_points(curve, xs, rng.randrange(r))
        ops.append(Op(f"mu_coeffs ({r},{s}) curve {i}",
                      lambda curve=curve, points=points: num.mu_coeffs(curve, points),
                      _mu_check(r, s, points)))
        swapped = [points[1], points[0]] + points[2:]
        ops.append(Op(f"fs_det ({r},{s}) curve {i}",
                      lambda curve=curve, points=points, swapped=swapped: (
                          num.fs_det(curve, points), num.fs_det(curve, swapped)),
                      _fs_check(r, s)))
    return _interleave(groups)


WORKLOADS = {
    "certify-expanded": build_certify_expanded,
    "certify-sampled": build_certify_sampled,
    "routes": build_routes,
    "tables": build_tables,
}
