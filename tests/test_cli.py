import argparse
import contextlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import read_golden
from cyclic_strata import certifier, cli, schur
from cyclic_strata.certifier import CertificationError
from cyclic_strata.numerics import CurveInstance, lift_points
from cyclic_strata.semigroup import CurveSignature
from cyclic_strata.strata import n_k


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_strata_golden_5_7(capsys):
    code, out, _ = run_cli(capsys, "strata", "5", "7")
    assert code == 0
    assert out == read_golden("strata_5_7.md")


def test_strata_golden_7_9(capsys):
    code, out, _ = run_cli(capsys, "strata", "7", "9")
    assert code == 0
    assert out == read_golden("strata_7_9.md")


def test_natural_golden(capsys):
    code, out, _ = run_cli(
        capsys, "natural", "2,3", "2,5", "2,7", "2,9", "2,11", "2,13", "2,15", "2,17"
    )
    assert code == 0
    assert out == read_golden("natural_hyperelliptic.md")
    code, out, _ = run_cli(
        capsys, "natural", "3,4", "3,5", "3,7", "3,8", "3,10", "5,6", "5,7"
    )
    assert code == 0
    assert out == read_golden("natural_trigonal_pentagonal.md")


@pytest.mark.parametrize("argv, golden", [
    (("strata", "7", "9", "--format", "json"), "strata_7_9.json"),
    (("strata", "5", "7", "--format", "csv"), "strata_5_7.csv"),
    (("natural", "2,9", "3,7", "5,7", "--format", "json"), "natural_2_9_3_7_5_7.json"),
    (("certify", "3", "7", "--format", "json"), "certify_3_7.json"),
    (("certify", "4", "5"), "certify_4_5.md"),
    (("schur", "3", "5", "--format", "json"), "schur_3_5.json"),
    (("schur", "3", "7", "--k", "3"), "schur_3_7_k3.md"),
    (("certify", "3", "17", "--format", "csv"), "certify_3_17.csv"),
    (("schur", "4", "7", "--max-expand-genus", "9", "--format", "json"), "schur_4_7_g9.json"),
    (("gaps", "5", "7", "--format", "json"), "gaps_5_7.json"),
])
def test_json_and_csv_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == read_golden(golden)


def test_gaps_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "gaps", "2", "5")
    assert code == 0
    assert "| 1 | 2 | x |" in out
    assert "gaps: 1, 3" in out
    code, out, _ = run_cli(capsys, "gaps", "5", "7", "--format", "json")
    payload = json.loads(out)
    assert payload["nongaps"][:5] == [0, 5, 7, 10, 12]
    assert len(payload["gaps"]) == 12
    # JSON round-trips
    assert json.loads(json.dumps(payload)) == payload


def test_gaps_count_is_capped_before_anything_is_built(capsys, monkeypatch):
    cap = cli.GAPS_MAX_COUNT
    assert cap == 100_000
    code, out, _ = run_cli(capsys, "gaps", "2", "3", "--count", str(cap), "--format", "csv")
    assert code == 0 and len(out.splitlines()) == cap + 1

    def unreachable(*args):
        raise AssertionError("gaps built its rows before checking --count")

    monkeypatch.setattr(cli, "nongap_sequence", unreachable)
    monkeypatch.setattr(cli, "monomial_basis", unreachable)
    for count in (cap + 1, 0):
        code, out, err = run_cli(capsys, "gaps", "2", "3", "--count", str(count))
        assert (code, out) == (2, "")
        assert err == f"error: --count must lie in [1, {cap}], got {count}\n"


def test_strata_and_natural_cap_the_genus_before_anything_is_built(capsys, monkeypatch):
    cap = cli.TABLE_MAX_GENUS
    assert cap == 1_000
    assert CurveSignature(2, 2 * cap + 3).genus == cap + 1

    def unreachable(*args):
        raise AssertionError("a table row was built before the genus was checked")

    monkeypatch.setattr(cli, "stratum_table", unreachable)
    for argv in (["strata", "2", "5"], ["natural", "2,5"]):  # the patched name is the one read
        with pytest.raises(AssertionError, match="table row"):
            cli.main(argv)
    message = f"genus {cap + 1} of (2,{2 * cap + 3}) exceeds the table cap {cap}"
    code, out, err = run_cli(capsys, "strata", "2", str(2 * cap + 3))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, "natural", "2,5", f"2,{2 * cap + 3}", "--format", "json")
    assert (code, out, err) == (2, "", f"error: bad signature '2,{2 * cap + 3}': {message}\n")


# For each subcommand that takes `r s`: arguments above its bound, and the
# entry points whose work grows with the genus, none of which may run first.
BOUND_CASES = {
    "gaps": (["2", str(2 * cli.GAPS_MAX_COUNT + 3), "--count", "5"],
             ["nongap_sequence", "monomial_basis"]),
    "strata": (["2", str(2 * cli.TABLE_MAX_GENUS + 3)], ["stratum_table"]),
    "schur": (["2", "2000001", "--k", "1"], ["young_diagram", "truncate_upper", "schur_in_T"]),
    "certify": (["2", str(2 * cli.CERTIFY_MAX_GENUS + 3)],
                ["certify_natural", "sub_vanishing_sweep", "certify_g_power", "natural_k"]),
}


def r_s_subcommands() -> list[str]:
    return [name for name, parser in subcommand_parsers().items()
            if {"r", "s"} <= {a.dest for a in parser._actions if not a.option_strings}]


@pytest.mark.parametrize("command", r_s_subcommands())
def test_every_r_s_subcommand_checks_its_bound_first(capsys, monkeypatch, command):
    assert command in BOUND_CASES, f"`{command}` takes r s but has no bound case"
    argv, entry_points = BOUND_CASES[command]

    def unreachable(*args, **kwargs):
        raise AssertionError(f"`{command}` did work that grows with the genus before its bound")

    for name in entry_points:
        monkeypatch.setattr(cli, name, unreachable)
    genus = CurveSignature(int(argv[0]), int(argv[1])).genus
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: genus {genus} ") and err.count("\n") == 1


def test_gaps_takes_a_genus_up_to_its_cap(capsys):
    cap = cli.GAPS_MAX_COUNT
    code, out, _ = run_cli(capsys, "gaps", "2", str(2 * cap + 1), "--count", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[1:] == ["0,0,1", "1,2,x"]
    code, _, err = run_cli(capsys, "gaps", "2", str(2 * cap + 3), "--count", "2")
    assert (code, err) == (2, f"error: genus {cap + 1} of (2,{2 * cap + 3}) exceeds the gaps cap {cap}\n")


def test_certify_csv_builds_no_zero_certificate(capsys, monkeypatch):
    verdicts = []
    original = certifier.DerivativeCertificate

    def recording(*args):
        verdicts.append(args[2])
        return original(*args)

    monkeypatch.setattr(certifier, "DerivativeCertificate", recording)
    code, out, _ = run_cli(capsys, "certify", "2", "21", "--format", "csv")
    assert code == 0 and out.startswith("k,index_set,verdict")
    assert verdicts and "zero" not in verdicts


def test_certify_json_writes_each_certificate_as_it_is_listed(capsys, monkeypatch):
    original = certifier.DerivativeCertificate
    out, zeros = [], []

    def listing(*args):
        if args[2] == "zero":
            out.append(capsys.readouterr().out)
            # every zero certificate listed before this one is written already
            assert sum(text.count('"verdict": "zero"') for text in out) == len(zeros)
            zeros.append(args)
        return original(*args)

    monkeypatch.setattr(certifier, "DerivativeCertificate", listing)
    code = cli.main(["certify", "3", "7", "--format", "json"])
    out.append(capsys.readouterr().out)
    assert code == 0 and "".join(out) == read_golden("certify_3_7.json")
    sig = CurveSignature(3, 7)
    assert len(zeros) == sum(2 ** n_k(sig, k) - 1 for k in range(1, sig.genus))


@pytest.mark.parametrize("r, s", [(7, 9), (5, 13)])
def test_certify_genus_24_in_full(capsys, r, s):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "certify", str(r), str(s), "--format", "json")
    assert time.perf_counter() - start < 5
    payload = json.loads(out)
    assert code == 0 and [level["natural"]["k"] for level in payload] == list(range(1, 24))
    for level in payload:
        main = level["natural"]["certificates"][-1]
        assert (abs(main["constant_num"]), main["constant_den"]) == (1, 1)


def test_certify_caps_the_genus_before_any_certificate(capsys, monkeypatch):
    cap = cli.CERTIFY_MAX_GENUS
    assert cap == 36
    code, out, _ = run_cli(capsys, "certify", "2", str(2 * cap + 1), "--k", str(cap - 1))
    assert code == 0 and "certified: all statements hold" in out

    def unreachable(*args, **kwargs):
        raise AssertionError("a certificate was built before the genus was checked")

    monkeypatch.setattr(cli, "certify_natural", unreachable)
    monkeypatch.setattr(cli, "sub_vanishing_sweep", unreachable)
    monkeypatch.setattr(cli, "certify_g_power", unreachable)
    assert CurveSignature(2, 2 * cap + 3).genus == cap + 1
    for argv in [(), ("--k", "1"), ("--format", "json")]:
        code, out, err = run_cli(capsys, "certify", "2", str(2 * cap + 3), *argv)
        message = f"genus {cap + 1} of (2,{2 * cap + 3}) exceeds the certify cap {cap}"
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("token", ["3", "3,a", "3,4,5", ",", "3.0,4"])
def test_natural_rejects_a_token_that_is_not_r_s(capsys, token):
    code, out, err = run_cli(capsys, "natural", "2,5", token)
    assert (code, out) == (2, "")
    assert err == f"error: bad signature {token!r}: expected r,s with integers r and s\n"
    code, _, err = run_cli(capsys, "natural", "2,4")
    assert code == 2 and err == "error: bad signature '2,4': require gcd(r, s) = 1, got (2, 4)\n"


def test_natural_needs_a_signature():
    # nargs="+" lets argparse exit before the handler runs.
    with pytest.raises(SystemExit) as info:
        cli.main(["natural"])
    assert info.value.code == 2


def test_strata_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "strata", "3", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["profiles"][0]["k"] == 0
    assert payload["profiles"][1]["natural"] == [2]


def test_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "strata", "2", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("k,n_k,N_k")
    code, out, _ = run_cli(capsys, "gaps", "2", "5", "--format", "csv")
    assert out.splitlines()[1] == "0,0,1"


def test_schur_command(capsys):
    code, out, _ = run_cli(capsys, "schur", "2", "5")
    assert code == 0
    assert out.strip() == "1/3*u2^3 - u1"
    code, out, _ = run_cli(capsys, "schur", "2", "5", "--k", "0")
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "schur", "2", "7", "--format", "json")
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["schur_u"].startswith("1/45*u3^6")


def test_schur_k0_builds_no_diagram(capsys, monkeypatch):
    # The empty head prints `1` at any genus without the curve diagram.
    def unreachable(*args):
        raise AssertionError("schur --k 0 built the curve diagram")

    for module, name in [(cli, "young_diagram"), (cli, "truncate_upper"), (schur, "young_diagram")]:
        monkeypatch.setattr(module, name, unreachable)
    code, out, _ = run_cli(capsys, "schur", "2", "2000001", "--k", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "schur", "2", "2000001", "--k", "0", "--format", "json")
    assert code == 0
    assert out == '{\n  "r": 2,\n  "s": 2000001,\n  "k": 0,\n  "genus": 1000000,\n  "schur_u": "1"\n}\n'


def test_schur_gate_exit_code(capsys):
    code, _, err = run_cli(capsys, "schur", "5", "7")
    assert code == 2
    assert "expansion gate" in err and "--max-expand-genus" in err
    # The flag the message names lifts the gate.
    code, _, err = run_cli(capsys, "schur", "2", "15")
    assert code == 2 and err.endswith("(--max-expand-genus on the command line)\n")
    code, out, _ = run_cli(capsys, "schur", "2", "15", "--max-expand-genus", "7")
    assert code == 0 and out.startswith("1/")


@pytest.mark.parametrize("argv, message", [
    (("schur", "3", "7", "--k", "7"), "k must lie in [0, 6]"),
    (("schur", "3", "7", "--k", "-1"), "k must lie in [0, 6]"),
    (("certify", "1", "2"), "certification needs genus >= 2"),
    (("certify", "2", "3"), "certification needs genus >= 2"),
    (("certify", "3", "7", "--k", "0"), "k must lie in [1, 6)"),
    (("certify", "3", "7", "--k", "6"), "k must lie in [1, 6)"),
])
def test_schur_and_certify_reject_a_level_or_genus_out_of_range(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_invalid_signature_exit_code(capsys):
    code, _, err = run_cli(capsys, "certify", "4", "6")
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("argv, code, golden", [
    (["gaps", "5", "7", "--format", "json"], 0, "gaps_5_7.json"),
    (["certify", "4", "6"], 2, None),
])
def test_console_script_hook_exits_with_the_code_of_main(capsys, monkeypatch, argv, code, golden):
    monkeypatch.setattr("sys.argv", ["cyclic-strata", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == code
    if golden is not None:
        assert capsys.readouterr().out == read_golden(golden)


def test_certify_success(capsys):
    code, out, _ = run_cli(capsys, "certify", "2", "7")
    assert code == 0
    assert "certified: all statements hold" in out
    code, out, _ = run_cli(capsys, "certify", "2", "9", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["natural"]["certificates"][-1]["verdict"] == "nonzero"
    assert json.loads(json.dumps(payload)) == payload


def test_certify_all_levels_completes(capsys):
    # the full genus-6 run across every level finishes and certifies
    code, out, _ = run_cli(capsys, "certify", "3", "7")
    assert code == 0
    assert "certified: all statements hold" in out


def test_certify_failure_exit_code(capsys, monkeypatch):
    # Injected fault: make the certifier report a contradiction.
    def boom(sig, k, trials, **kwargs):
        raise CertificationError("injected fault", point=(1, 2))

    monkeypatch.setattr(cli, "certify_natural", boom)
    code, _, err = run_cli(capsys, "certify", "2", "7")
    assert code == 3
    assert "injected fault" in err
    assert "witness" in err


def test_certify_json_prints_nothing_when_a_later_level_fails(capsys, monkeypatch):
    # Level 1 certifies, level 2 fails: the JSON of level 1 must not have been written.
    certify_natural = cli.certify_natural

    def fail_at_level_2(sig, k, trials, **kwargs):
        if k == 2:
            raise CertificationError("injected fault", point=(1, 2))
        return certify_natural(sig, k, trials, **kwargs)

    monkeypatch.setattr(cli, "certify_natural", fail_at_level_2)
    code, out, err = run_cli(capsys, "certify", "2", "7", "--format", "json")
    assert (code, out) == (3, "")
    assert "injected fault" in err and "witness point: ('1', '2')" in err


def test_certify_failure_prints_survivors(capsys, monkeypatch):
    def boom(sig, k, trials, **kwargs):
        raise CertificationError("injected fault", point=(1, 2), survivors={(2, 1): -1, (): 3})

    monkeypatch.setattr(cli, "certify_natural", boom)
    code, _, err = run_cli(capsys, "certify", "2", "7")
    assert code == 3
    assert err.index("witness") < err.index("survivors: -1*s(2,1) +3*s()")


def test_certify_mode_follows_the_fixed_gate(capsys):
    # Genus 7 is above the expansion gate, so every certificate is labelled
    # "sampled"; certify has no gate option to move that label.
    code, out, err = run_cli(capsys, "certify", "2", "15", "--k", "6", "--format", "json")
    assert code == 0, err
    level = json.loads(out)[0]
    assert level["natural"]["mode"] == "sampled"
    certificates = level["natural"]["certificates"] + level["g_power"]
    assert {(c["mode"], c["engine"]) for c in certificates} == {("sampled", "rimhook")}
    assert (level["sweep"]["mode"], level["sweep"]["engine"]) == ("sampled", "rimhook")
    with pytest.raises(SystemExit) as info:
        cli.main(["certify", "2", "15", "--k", "6", "--max-expand-genus", "7"])
    assert info.value.code == 2


@pytest.mark.parametrize("flags", [("--trials", "0"), ("--trials", "-1"), ("--seed", "-5")])
def test_certify_rejects_bad_trials_and_seed(capsys, flags):
    code, out, err = run_cli(capsys, "certify", "2", "5", *flags)
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be >= 1 and --seed >= 0\n"


def test_repeated_main_calls_do_not_leak_parsed_values(capsys):
    # main reuses one parser; every call must still start from the defaults.
    default_gaps = run_cli(capsys, "gaps", "2", "5")
    default_certify = run_cli(capsys, "certify", "2", "5")
    assert default_gaps[0] == default_certify[0] == 0
    for _ in range(2):
        code, out, _ = run_cli(capsys, "gaps", "2", "5", "--count", "2", "--format", "csv")
        assert (code, out.splitlines()) == (0, ["n,N(n),phi_n", "0,0,1", "1,2,x"])
        assert run_cli(capsys, "gaps", "2", "5") == default_gaps
        code, _, _ = run_cli(capsys, "certify", "2", "5", "--trials", "1", "--seed", "7",
                             "--format", "json")
        assert code == 0
        with pytest.raises(SystemExit) as info:
            cli.main(["gaps", "2", "5", "--count"])
        assert info.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, "certify", "2", "5") == default_certify
        assert run_cli(capsys, "certify", "2", "5", "--seed", "-1")[0] == 2
        assert run_cli(capsys, "gaps", "2", "5") == default_gaps


def test_certify_genus_24(capsys):
    # (7,9) has genus 24, beyond the old sampled-evaluation limit of 16.
    code, out, err = run_cli(capsys, "certify", "7", "9", "--k", "23")
    assert code == 0, err
    assert "certified: all statements hold" in out


def write_curve_files(tmp_path, lambdas=(1, 0, 0, 0, 0), xs=(0.4, 1.3)):
    curve = CurveInstance(CurveSignature(2, 5), tuple(complex(v) for v in lambdas))
    points = lift_points(curve, list(xs), 0)
    curve_path = tmp_path / "curve.json"
    points_path = tmp_path / "points.json"
    curve_path.write_text(json.dumps({
        "r": 2, "s": 5, "lambdas": [[c.real, c.imag] for c in curve.lambdas],
    }))
    points_path.write_text(json.dumps([
        [p.x.real, p.x.imag, p.y.real, p.y.imag] for p in points
    ]))
    return curve_path, points_path


def test_mu_command(capsys, tmp_path):
    curve_path, points_path = write_curve_files(tmp_path)
    code, out, _ = run_cli(capsys, "mu", "--curve", str(curve_path),
                           "--points", str(points_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    # mu_2 = x^2 - 1.7 x + 0.52 for roots 0.4 and 1.3
    assert abs(payload["coefficients"][0][0] - 0.52) < 1e-12
    assert abs(payload["coefficients"][1][0] - 1.7) < 1e-12
    assert max(payload["residuals"]) <= 1e-9


def test_mu_residual_above_tol_exits_4_after_printing(capsys, tmp_path):
    # Three points on the genus-2 curve: the residuals are rounding-sized, not 0.
    curve_path, points_path = write_curve_files(tmp_path, xs=(0.4, 1.3, 2.2))
    code, out, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                             "--points", str(points_path), "--tol", "0")
    assert code == 4
    assert err == "tolerance failure: interpolation residual too large\n"
    assert json.loads(out)["n"] == 3  # the result is still printed


def test_mu_off_curve_exit_code(capsys, tmp_path):
    curve_path, points_path = write_curve_files(tmp_path)
    # off the curve; f(x) overflowing to NaN; y^2 overflowing
    for point in [[0.4, 0.0, 99.0, 0.0], [1e300, 0.0, 0.0, 0.0], [0.0, 0.0, 1e200, 0.0]]:
        points_path.write_text(json.dumps([point]))
        code, _, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                               "--points", str(points_path))
        assert code == 4
        assert "tolerance" in err


def test_mu_malformed_input_exit_code(capsys, tmp_path):
    curve_path, points_path = write_curve_files(tmp_path)
    spec = json.loads(curve_path.read_text())
    curve_path.write_text("{not json")
    code, _, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                           "--points", str(points_path))
    assert code == 2
    # Exponents must be JSON integers: no float, bool, string or null.
    for r, s in [(2.7, 5), (2, 5.0), (True, 5), ("2", 5), (2, None)]:
        curve_path.write_text(json.dumps({**spec, "r": r, "s": s}))
        code, out, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                                 "--points", str(points_path))
        assert (code, out) == (2, ""), (r, s)
        assert err.startswith("error: malformed curve/points file: r and s must be JSON integers")


@pytest.mark.parametrize("points", [
    "[]",
    "[[0, 0, 0, 0], [0, 0, 0, 0]]",
    "[[1e400, 0, 0, 0]]",
    "[[NaN, 0, 0, 0]]",
])
def test_mu_rejects_empty_repeated_or_non_finite_points(capsys, tmp_path, points):
    # (0, 0) lies on y^2 = x^5 + 4x^4 + 3x^3 + 2x^2 + x, so only the rule can reject it.
    curve_path, points_path = tmp_path / "curve.json", tmp_path / "points.json"
    curve_path.write_text('{"r": 2, "s": 5, "lambdas": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]]}')
    points_path.write_text(points)
    code, out, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                             "--points", str(points_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_mu_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tmp_path, tol):
    curve_path, points_path = write_curve_files(tmp_path)
    code, out, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                             "--points", str(points_path), "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol")


def test_mu_has_no_format_flag(tmp_path):
    # mu always prints JSON, so it does not accept --format.
    curve_path, points_path = write_curve_files(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["mu", "--curve", str(curve_path), "--points", str(points_path),
                  "--format", "table"])
    assert info.value.code == 2


def test_readme_cli_section_names_every_flag():
    # Every long option of every subcommand is documented, and every flag the
    # README's CLI section names exists.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    options = {
        option
        for sub in subcommand_parsers().values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert options - named == set()
    assert named - options == set()


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
                | st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0) | st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example([[], {}, (), {"a": {}, "b": [[]]}])
@example([[1, True, 0, False], [True], [10**60, -10**60, -1]])
@example({"\u00e9\n": ["\u00e9\u4e2d\U0001f600", '"q"\\', "\x00\x1f\n\t\x7f"]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300])
def test_json_text_is_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def streamed(value):
    """``value`` with each list or tuple that is the whole or a dict's value
    turned into an iterator, as ``cmd_certify`` hands its certificates over."""
    if type(value) is dict:
        return {key: streamed(item) for key, item in value.items()}
    return iter(value) if type(value) in (list, tuple) else value


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({"a": [], "b": {"c": ()}, "d": {}, "e": [{"f": [1]}]})
def test_write_json_streams_the_text_of_json_text(value):
    for indent in ("\n", "\n    "):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._write_json(streamed(value), indent)
        assert out.getvalue() == cli._json_text(value, indent)


@pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{(1,): 2}], {1.5}, [b"x"],
                                   {"a": 2 + 1j}, range(2)])
def test_json_text_rejects_what_it_does_not_cover(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def json_commands() -> list[str]:
    return sorted(
        name for name, sub in subcommand_parsers().items()
        if name == "mu" or any("--format" in action.option_strings and "json" in action.choices
                               for action in sub._actions)
    )


JSON_ARGV = {
    "gaps": ["gaps", "5", "7"],
    "strata": ["strata", "3", "7"],
    "natural": ["natural", "2,5", "3,7"],
    "schur": ["schur", "2", "7"],
    "certify": ["certify", "2", "7"],
}


@pytest.mark.parametrize("command", json_commands())
def test_every_json_output_is_json_dumps_indent_2(capsys, tmp_path, command):
    # A new JSON-printing command fails here until it gets a case.
    if command == "mu":
        curve_path, points_path = write_curve_files(tmp_path)
        argv = ["mu", "--curve", str(curve_path), "--points", str(points_path)]
    else:
        argv = JSON_ARGV[command] + ["--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
