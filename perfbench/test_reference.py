"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest perfbench
"""

import math
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_curve_data_matches_published_tables():
    # (5,7): pole orders, diagram and the stratum table of the package's docs.
    assert ref.genus(5, 7) == 12
    assert ref.pole_orders(5, 7, 6) == [0, 5, 7, 10, 12, 14]
    assert ref.diagram(5, 7) == (12, 8, 7, 5, 4, 3, 3, 2, 1, 1, 1, 1)
    assert ref.first_column_hooks(5, 7) == (23, 18, 16, 13, 11, 9, 8, 6, 4, 3, 2, 1)
    assert ref.diagonal_hooks(ref.tail(5, 7, 0)) == (23, 13, 9, 3)
    assert ref.natural_set(5, 7, 0) == {10, 6, 4, 1}
    assert ref.natural_set(5, 7, 1) == {12, 8, 5, 2}
    assert ref.natural_set(5, 7, 2) == {9, 7, 3}
    assert [ref.tail_weight(5, 7, k) for k in range(3)] == [48, 36, 28]
    assert ref.diagram(2, 5) == (2, 1)


def test_hyperelliptic_tail_weight_and_weight_identity():
    for g in range(2, 9):
        r, s = 2, 2 * g + 1
        assert sum(ref.diagram(r, s)) == (r * r - 1) * (s * s - 1) // 24
        for k in range(g + 1):
            assert ref.tail_weight(r, s, k) == (g - k) * (g - k + 1) // 2
            assert sum(ref.diagonal_hooks(ref.tail(r, s, k))) == ref.tail_weight(r, s, k)


def test_sweep_count_is_the_number_of_small_multisets():
    for g in range(1, 7):
        for n in range(1, 5):
            brute = sum(
                1 for size in range(n) for _ in combinations_with_replacement(range(g), size)
            )
            assert ref.sweep_count(g, n) == brute


def test_schur_value_and_hook_content():
    a, b, c = Fraction(2), Fraction(3, 5), Fraction(-7, 2)
    assert ref.schur_value((2, 1), [a, b]) == a * a * b + a * b * b
    assert ref.schur_value((1,), [a, b, c]) == a + b + c
    assert ref.schur_value((1, 1, 1, 1), [a, b, c]) == 0
    assert ref.hook_content((2, 1), 2) == 2
    assert ref.hook_content((1,), 5) == 5
    # s_(n) = h_n: the number of monomials of degree n in m variables.
    assert ref.hook_content((4,), 3) == math.comb(6, 4)
    # Eight semistandard tableaux of shape (2,1) with entries 1..3.
    assert ref.hook_content((2, 1), 3) == 8


def test_parse_polynomial_round_trip():
    text = "1/3*u2^3 - u1 + 2*u1*u3^2 - 5"
    assert ref.parse_polynomial(text) == [
        (Fraction(1, 3), {2: 3}), (Fraction(-1), {1: 1}),
        (Fraction(2), {1: 1, 3: 2}), (Fraction(-5), {}),
    ]
    values = {1: Fraction(2), 2: Fraction(3), 3: Fraction(1, 2)}
    assert ref.evaluate_text(text, values) == Fraction(9) - 2 + 1 - 5
    assert ref.evaluate_text("-t1^2", {1: Fraction(3)}) == -9
    assert ref.coefficient_sum(text) == Fraction(1, 3) - 1 + 2 - 5
    assert ref.parse_polynomial("0") == []


def test_mu_residual():
    # y^2 = x^5 + 1 through one point: mu_1 = x - x0, so the coefficient is x0.
    x0, y0 = 0.3 + 0.2j, (complex(0.3 + 0.2j) ** 5 + 1) ** 0.5
    assert ref.mu_residual(2, 5, [x0], x0, y0) < 1e-15
    assert ref.mu_residual(2, 5, [x0 + 0.1], x0, y0) > 1e-3


def _certificate(verdict, constant, index, mode="expanded"):
    return SimpleNamespace(verdict=verdict, constant=constant, index_multiset=index, mode=mode)


def test_natural_check_flags_wrong_constants_and_subsets():
    check = workloads._natural_check(3, 5, 1, "expanded")
    nat = tuple(sorted(ref.natural_set(3, 5, 1)))
    subsets = [c for size in range(len(nat)) for c in combinations(nat, size)]
    good = [_certificate("zero", None, sub) for sub in subsets]
    good.append(_certificate("nonzero", Fraction(-1), nat))

    def bundle(certs):
        return SimpleNamespace(mode="expanded", index_set=nat[::-1], certificates=certs,
                               main=certs[-1])

    assert check(bundle(good)) == []
    bad_constant = good[:-1] + [_certificate("nonzero", Fraction(2), nat)]
    assert check(bundle(bad_constant))
    bad_subset = [_certificate("nonzero", Fraction(1), subsets[0])] + good[1:]
    assert check(bundle(bad_subset))


def test_sweep_and_g_power_checks():
    g, n = ref.genus(2, 9), ref.rank(2, 9, 1)
    sweep = workloads._sweep_check(2, 9, 1, "expanded")
    assert sweep(SimpleNamespace(checked=ref.sweep_count(g, n), order_bound=n, mode="expanded")) == []
    assert sweep(SimpleNamespace(checked=ref.sweep_count(g, n) - 1, order_bound=n, mode="expanded"))
    pure_len = ref.tail_weight(2, 9, 1)
    pure = workloads._g_power_check(2, 9, 1, n + 1, "expanded")
    assert pure(_certificate("nonzero", Fraction(3), (g,) * pure_len)) == []
    assert pure(_certificate("nonzero", Fraction(3), (g,) * (pure_len - 1)))
    assert pure(_certificate("nonzero", Fraction(0), (g,) * pure_len))


def test_cli_check_reads_every_format():
    gaps = ref.gaps(2, 5)
    rows = [(n, v, "-") for n, v in enumerate(ref.pole_orders(2, 5, 3))]
    table = "(r,s) = (2,5), genus 2\n| n | N(n) | phi_n |\n| - | - | - |\n"
    table += "".join(f"| {n} | {v} | {p} |\n" for n, v, p in rows)
    table += "gaps: " + ", ".join(map(str, gaps)) + "\n"
    check = workloads._cli_check("gaps", "table", 2, 5, 3)
    assert check(workloads.CliResult(0, table)) == []
    assert check(workloads.CliResult(0, table.replace("| 2 | 4 |", "| 2 | 5 |")))
    assert check(workloads.CliResult(2, table))
    csv_text = "n,N(n),phi_n\n" + "".join(f"{n},{v},{p}\n" for n, v, p in rows)
    assert workloads._cli_check("gaps", "csv", 2, 5, 3)(workloads.CliResult(0, csv_text)) == []
    json_check = workloads._cli_check("natural", "json", 2, 5, 0)
    assert json_check(workloads.CliResult(0, '[{"natural": {"1": [2]}}]')) == []
    assert json_check(workloads.CliResult(0, '[{"natural": {"1": [1]}}]'))
    assert json_check(workloads.CliResult(0, "not json"))


def test_tail_level_leaves_ten_operations_in_one_round():
    for n in (40, 46, 65, 92, 485):
        level = run.tail_level(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, level))
        assert beyond >= 10
        assert n - math.ceil((level + 0.01) * n) < 10


@pytest.fixture(scope="module")
def package():
    sys.path.insert(0, str(run.SRC))
    return run.fresh_import()


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_numerics_operations_pass_on_many_seeds(package, seed):
    ops = [op for op in workloads.build_tables(package, random.Random(seed))
           if not op.name.startswith("cli")]
    assert len(ops) == 2 * workloads.MU_CURVES
    for op in ops:
        assert op.check(op.call()) == [], op.name


def test_every_workload_has_enough_operations_for_a_tail(package):
    for name, build in workloads.WORKLOADS.items():
        names = [op.name for op in build(package, random.Random(0))]
        assert len(names) >= 40, name
        assert names == [op.name for op in build(package, random.Random(1))]


def test_cheap_operations_pass_their_checks(package):
    ops = workloads.build_tables(package, random.Random(5))[:45]
    ops += [op for op in workloads.build_routes(package, random.Random(5))
            if "(2,9)" in op.name or "(3,5)" in op.name or "at ones" in op.name]
    ops += [op for op in workloads.build_certify_expanded(package, random.Random(5))
            if "(3,5)" in op.name]
    for op in ops:
        assert op.check(op.call()) == [], op.name


def test_a_traced_round_records_every_per_layer_metric():
    modules = run.fresh_import()
    tracer = tracing.Tracer()
    tracer.install(vars(modules))
    rng = random.Random(5)
    ops = [op for op in workloads.build_routes(modules, rng)
           if "(3,5)" in op.name or "at ones" in op.name]
    ops += [op for op in workloads.build_certify_expanded(modules, rng) if "(3,5)" in op.name]
    tables = workloads.build_tables(modules, rng)
    ops += [op for op in tables if " 3 5 " in op.name or "curve 0" in op.name]
    for index, op in enumerate(ops):
        tracer.run_op(index, op.call)
    names = run.metric_units("per_layer")
    values = run.layer_values(tracer, modules, 1.0, names)
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in run.RUN_LEVEL_LAYERS or name == "cli.output_bytes":
            continue  # measured by the runner, not by the tracer
        if kind in ("s", "calls"):
            assert run._layer_sum(tracer.calls, layer) > 0, name
        else:
            assert values[name] > 0, name
