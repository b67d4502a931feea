import argparse
import json
import re
from pathlib import Path

import pytest

from conftest import read_golden
from cyclic_strata import cli
from cyclic_strata.certifier import CertificationError
from cyclic_strata.numerics import CurveInstance, lift_points
from cyclic_strata.semigroup import CurveSignature


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


def test_schur_gate_exit_code(capsys):
    code, _, err = run_cli(capsys, "schur", "5", "7")
    assert code == 2
    assert "expansion gate" in err


def test_invalid_signature_exit_code(capsys):
    code, _, err = run_cli(capsys, "certify", "4", "6")
    assert code == 2
    assert "gcd" in err


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
    curve_path.write_text("{not json")
    code, _, err = run_cli(capsys, "mu", "--curve", str(curve_path),
                           "--points", str(points_path))
    assert code == 2


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
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {
        option
        for sub in subcommands.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert options - named == set()
    assert named - options == set()
