"""Command-line front end: semigroup tables, stratum tables, certificates.

Commands
--------
gaps      pole orders, gaps and the monomial basis of one signature
strata    per-level stratification table (characteristics, hooks, index sets)
natural   the natural-index-set grid for several signatures at once
schur     stratum-coordinate form of the (truncated) curve Schur polynomial
certify   run the derivative-vanishing certification for one or all levels
mu        interpolation coefficients for points on a concrete curve (always JSON)

Exit codes: 0 success, 2 invalid input, 3 certification failure, 4 numeric
tolerance failure.  All exact data is printed without floating conversion;
only `mu` deals in floats.  JSON output is byte-identical to `json.dumps(indent=2)`.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from collections.abc import Iterator
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .certifier import (
    CertificationError,
    certify_g_power,
    certify_natural,
    sub_vanishing_sweep,
)
from .numerics import (
    CurveInstance,
    OffCurveError,
    SpecialDivisorError,
    affine_point,
    mu_coeffs,
)
from .schur import EXPANSION_GATE, ExpansionLimitError, check_expansion_gate, schur_in_T
from .semigroup import CurveSignature, YoungDiagram, monomial_basis, nongap_sequence, young_diagram
from .strata import natural_k, stratum_table, truncate_upper

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CERTIFICATION = 3
EXIT_TOLERANCE = 4
GAPS_MAX_COUNT = 100_000  # rows, and genus, `gaps` prints at most; checked before any is built
TABLE_MAX_GENUS = 1_000  # genus `strata` and `natural` tabulate at most; checked likewise
CERTIFY_MAX_GENUS = 36  # genus `certify` takes at most (its JSON lists 2^n_k certificates a level); checked likewise


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("-" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _print_table(fmt: str, header: list[str], rows: list[list[str]]) -> None:
    print((_csv_table if fmt == "csv" else _md_table)(header, rows), end="")


def _json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(indent=2)`` for plain dicts with str keys, lists,
    tuples, str, int, float, bool and None; ``indent`` is the newline and
    indentation that ``value`` is written at.  Anything else is a TypeError."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            if {*map(type, value)} != {str}:
                raise TypeError("JSON object keys must be str")
            items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        items = map(str, value) if {*map(type, value)} == {int} else [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is float or kind is bool:  # the C encoder: float repr, NaN, Infinity, true, false
        return json.dumps(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(value, indent: str) -> None:
    """Write ``_json_text(value, indent)`` to stdout, a dict one key at a time
    and an iterator, as a JSON array, one item at a time, so that no
    iterator is held whole."""
    write = sys.stdout.write
    inner = indent + "  "
    if isinstance(value, Iterator):
        sep = "["
        for item in value:
            write(sep + inner + _json_text(item, inner))
            sep = ","
        write("[]" if sep == "[" else indent + "]")
    elif type(value) is dict and value:
        sep = "{"
        for key, item in value.items():
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner)
            sep = ","
        write(indent + "}")
    else:
        write(_json_text(value, indent))


def _ints(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _set_cell(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _parse_signature(r: int, s: int) -> CurveSignature:
    try:
        return CurveSignature(r, s)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _table_signature(r: int, s: int) -> CurveSignature:
    sig = _parse_signature(r, s)
    if sig.genus > TABLE_MAX_GENUS:
        raise SystemExit2(f"genus {sig.genus} of ({r},{s}) exceeds the table cap {TABLE_MAX_GENUS}")
    return sig


class SystemExit2(Exception):
    """Invalid-input errors that should terminate with exit code 2."""


def cmd_gaps(args) -> int:
    sig = _parse_signature(args.r, args.s)
    if sig.genus > GAPS_MAX_COUNT:
        raise SystemExit2(f"genus {sig.genus} of ({sig.r},{sig.s}) exceeds the gaps cap {GAPS_MAX_COUNT}")
    count = args.count if args.count is not None else sig.genus + 1
    if not 1 <= count <= GAPS_MAX_COUNT:
        raise SystemExit2(f"--count must lie in [1, {GAPS_MAX_COUNT}], got {count}")
    ngs = nongap_sequence(sig, count)
    basis = monomial_basis(sig, count)
    if args.format == "json":
        payload = {
            "r": sig.r,
            "s": sig.s,
            "genus": sig.genus,
            "nongaps": list(ngs.values),
            "gaps": list(ngs.gaps()),
            "monomials": [{"a": m.a, "b": m.b, "wdeg": m.wdeg, "name": m.name()} for m in basis],
        }
        print(_json_text(payload))
        return EXIT_OK
    header = ["n", "N(n)", "phi_n"]
    rows = [[str(n), str(ngs.values[n]), basis[n].name()] for n in range(count)]
    if args.format == "csv":
        print(_csv_table(header, rows), end="")
        return EXIT_OK
    print(f"(r,s) = ({sig.r},{sig.s}), genus {sig.genus}")
    print(_md_table(header, rows), end="")
    print("gaps: " + ", ".join(str(v) for v in ngs.gaps()))
    return EXIT_OK


def cmd_strata(args) -> int:
    sig = _table_signature(args.r, args.s)
    profiles = stratum_table(sig)[:sig.genus]
    if args.format == "json":
        payload = {"r": sig.r, "s": sig.s, "genus": sig.genus,
                   "profiles": [p.to_json_dict() for p in profiles]}
        print(_json_text(payload))
        return EXIT_OK
    header = ["k", "n_k", "N_k", "(a;b)", "(a_i+b_i+1)", "sum", "natural_k"]
    rows = []
    for p in profiles:
        ab = "(" + ",".join(map(str, p.chars.a)) + ";" + ",".join(map(str, p.chars.b)) + ")"
        rows.append([
            str(p.k), str(p.n_k), str(p.N_k), ab,
            _ints(p.chars.hooks()), str(sum(p.chars.hooks())), _ints(p.natural),
        ])
    _print_table(args.format, header, rows)
    return EXIT_OK


def cmd_natural(args) -> int:
    sigs = []
    for token in args.signatures:
        try:
            r, s = map(int, token.split(","))
        except ValueError:
            raise SystemExit2(f"bad signature {token!r}: expected r,s with integers r and s")
        try:
            sigs.append(_table_signature(r, s))
        except SystemExit2 as exc:
            raise SystemExit2(f"bad signature {token!r}: {exc}")
    width = max(sig.genus - 1 for sig in sigs)
    tables = [stratum_table(sig) for sig in sigs]
    if args.format == "json":
        payload = []
        for sig, table in zip(sigs, tables):
            payload.append({
                "r": sig.r,
                "s": sig.s,
                "g": sig.genus,
                "natural": {str(k): sorted(table[k].natural) for k in range(1, sig.genus)},
            })
        print(_json_text(payload))
        return EXIT_OK
    header = ["(r,s)", "g"] + [f"natural_{k}" for k in range(1, width + 1)]
    rows = []
    for sig, table in zip(sigs, tables):
        cells = [f"({sig.r},{sig.s})", str(sig.genus)]
        for k in range(1, width + 1):
            cells.append(_set_cell(table[k].natural) if k < sig.genus else "")
        rows.append(cells)
    _print_table(args.format, header, rows)
    return EXIT_OK


def cmd_schur(args) -> int:
    sig = _parse_signature(args.r, args.s)
    k = args.k if args.k is not None else sig.genus
    if not 0 <= k <= sig.genus:
        raise SystemExit2(f"k must lie in [0, {sig.genus}]")
    if k:  # every head but the empty one expands the full form
        check_expansion_gate(sig, args.max_expand_genus)
        diagram = truncate_upper(young_diagram(sig), k)
    else:
        diagram = YoungDiagram(())
    form = schur_in_T(diagram, sig, args.max_expand_genus)
    text = form.as_u.canonical_str()
    if args.format == "json":
        print(_json_text({"r": sig.r, "s": sig.s, "k": k, "genus": sig.genus, "schur_u": text}))
    else:
        print(text)
    return EXIT_OK


def cmd_certify(args) -> int:
    sig = _parse_signature(args.r, args.s)
    g = sig.genus
    if g > CERTIFY_MAX_GENUS:
        raise SystemExit2(f"genus {g} of ({args.r},{args.s}) exceeds the certify cap {CERTIFY_MAX_GENUS}")
    if g < 2:
        raise SystemExit2("certification needs genus >= 2")
    levels = [args.k] if args.k is not None else list(range(1, g))
    if any(not 1 <= k < g for k in levels):
        raise SystemExit2(f"k must lie in [1, {g})")
    if args.trials < 1 or args.seed < 0:
        raise SystemExit2("--trials must be >= 1 and --seed >= 0")
    results = []
    for k in levels:
        bundle = certify_natural(sig, k, args.trials, seed=args.seed)
        sweep = sub_vanishing_sweep(sig, k, args.trials, seed=args.seed)
        powers = [
            certify_g_power(sig, k, ell, args.trials, seed=args.seed)
            for ell in range(1, len(natural_k(sig, k)) + 2)
        ]
        results.append((bundle, sweep, powers))
    if args.format == "json":
        # Each certificate is written as soon as it is listed, so none is held.
        for i, (bundle, sweep, powers) in enumerate(results):
            sys.stdout.write(("," if i else "[") + "\n  ")
            _write_json({"natural": {**bundle.json_head(),
                                     "certificates": (c.to_json_dict() for c in bundle.iter_certificates())},
                         "sweep": sweep.to_json_dict(),
                         "g_power": [c.to_json_dict() for c in powers]}, "\n  ")
        sys.stdout.write("\n]\n")
        return EXIT_OK
    header = ["k", "index_set", "verdict", "constant", "mode", "sweep_checked"]
    rows = []
    for bundle, sweep, powers in results:
        main = bundle.main
        constant = "" if main.constant is None else str(main.constant)
        rows.append([
            str(bundle.k), _ints(bundle.index_set), main.verdict,
            constant, bundle.mode, str(sweep.checked),
        ])
        for cert in powers:
            rows.append([
                str(bundle.k), _ints(cert.index_multiset), cert.verdict,
                str(cert.constant), cert.mode, "",
            ])
    _print_table(args.format, header, rows)
    if args.format != "csv":
        print("certified: all statements hold")
    return EXIT_OK


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")


def cmd_mu(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise SystemExit2(f"--tol must be a finite number >= 0, got {args.tol}")
    curve_spec = _load_json(args.curve)
    points_spec = _load_json(args.points)
    try:
        r, s = curve_spec["r"], curve_spec["s"]
        if (type(r), type(s)) != (int, int):  # bool is an int subclass
            raise ValueError(f"r and s must be JSON integers, got {r!r}, {s!r}")
        sig = _parse_signature(r, s)
        lambdas = tuple(complex(re, im) for re, im in curve_spec["lambdas"])
        curve = CurveInstance(sig, lambdas)
        raw_points = [
            (complex(xr, xi), complex(yr, yi)) for xr, xi, yr, yi in points_spec
        ]
        if not all(map(cmath.isfinite, [*lambdas, *(z for point in raw_points for z in point)])):
            raise ValueError("lambdas and coordinates must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit2(f"malformed curve/points file: {exc}")
    try:
        points = [affine_point(curve, x, y) for x, y in raw_points]
        result = mu_coeffs(curve, points)
    except (OffCurveError, SpecialDivisorError, OverflowError) as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:  # no points, or repeated points
        raise SystemExit2(str(exc))
    residuals = [abs(result.value(p)) / max(result.value_scale(p), 1e-300) for p in points]
    payload = {
        "n": result.n,
        "coefficients": [[c.real, c.imag] for c in result.coefficients],
        "residuals": residuals,
        "condition_number": result.condition_number,
        "extra_zero_count": result.extra_zero_count,
    }
    print(_json_text(payload))
    if any(res > args.tol for res in residuals):
        print("tolerance failure: interpolation residual too large", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-strata",
        description="Stratification data and Schur-level derivative certificates "
        "for cyclic plane curves y^r = f(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("gaps", help="pole orders, gaps and monomials")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--count", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("strata", help="per-level stratification table")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    add_common(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("natural", help="natural index sets for several signatures")
    p.add_argument("signatures", nargs="+", metavar="r,s")
    add_common(p)
    p.set_defaults(func=cmd_natural)

    p = sub.add_parser("schur", help="stratum-coordinate Schur polynomial")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-expand-genus", type=int, default=EXPANSION_GATE)
    add_common(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("certify", help="derivative-vanishing certification")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("mu", help="interpolation coefficients on a concrete curve (JSON)")
    p.add_argument("--curve", required=True, help="JSON: {r, s, lambdas: [[re,im],..]}")
    p.add_argument("--points", required=True, help="JSON: [[xre,xim,yre,yim],..]")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_mu)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One parser per process; parse_args fills a fresh namespace every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, ExpansionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        if exc.point is not None:
            print(f"witness point: {tuple(str(t) for t in exc.point)}", file=sys.stderr)
        if exc.survivors is not None:
            terms = " ".join(f"{c:+d}*s{_ints(nu)}" for nu, c in exc.survivors.items())
            print(f"survivors: {terms or 'none'}", file=sys.stderr)
        return EXIT_CERTIFICATION


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
