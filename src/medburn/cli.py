"""File-based front end: parse game specs, run solvers, emit reports.

Game files are JSON with rationals written as integers, ``"p/q"`` strings, or
exact decimal strings; floats are parsed digit-exactly, never through binary
floating point.  A file carries either a full game (types, actions, u, v,
prior) or a ``direct_pieces`` value structure over the same prior, plus an
optional ``expected`` block of protocol values that ``verify`` re-checks.
Direct pieces must cover the belief simplex, and only part of that is
checked: ``values`` and ``sweep`` check that some piece holds each prior
they solve at, and ``verify`` on at most three types also reports the first
grid point of its oracle that no piece holds.  Both are validation errors.

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 unsupported sweep
dimension, 5 verification violation, 6 an exact certificate check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Belief, GameValidationError, PersuasionGame, restrict_to_support, validate_game
from .geometry import (
    GenericityBoundExceeded,
    PiecewiseValueStructure,
    Polytope,
    ValuePiece,
    compile_pieces,
    direct_structure,
    is_generic,
)
from .lp import CertificateError
from .mechanism import (
    check_ic, construct_optimal_mdmb, net_payoffs, sender_payoff, validate_delta
)
from .oracle import GridSpec, audit_structure
from .rational import Rational, format_decimal, format_fraction, rat
from .solvers import (
    protocol_report,
    protocol_report_structure,
    value_mdmb,
    verify_saddle_structure,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SWEEP = 4
EXIT_VERIFY = 5
EXIT_CERTIFICATE = 6


class GameFileError(ValueError):
    """Structural problem in a spec file (missing/ill-typed fields)."""


@dataclass(frozen=True)
class GameSpecFile:
    """Parsed spec file: a game or a direct value structure, plus expectations."""

    types: tuple[str, ...]
    prior: Belief
    game: PersuasionGame | None
    structure: PiecewiseValueStructure | None
    expected: dict[str, Rational]

    def any_structure(self) -> PiecewiseValueStructure:
        if self.structure is not None:
            return self.structure
        return compile_pieces(restrict_to_support(self.game))


def _want(data: dict, key: str, kind, where: str):
    if key not in data:
        raise GameFileError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise GameFileError(f"{where}: field {key!r} has the wrong type")
    return value


def _rat_field(value, where: str) -> Rational:
    if isinstance(value, bool):
        raise GameFileError(f"{where}: booleans are not numbers")
    if isinstance(value, (int, str, Fraction)):
        try:
            return rat(value)
        except (ValueError, TypeError) as exc:
            raise GameFileError(f"{where}: {exc}") from exc
    raise GameFileError(f"{where}: expected an int or rational string")


def load_game_file(path: str) -> GameSpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # parse_float sees the raw literal text, so decimals convert exactly
            data = json.load(fh, parse_float=Fraction)
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise GameFileError(f"{path}: top level must be an object")

    types = tuple(str(t) for t in _want(data, "types", list, path))
    prior_raw = _want(data, "prior", list, path)
    prior_vals = [_rat_field(v, f"{path}: prior[{i}]") for i, v in enumerate(prior_raw)]

    has_game = "u" in data or "v" in data or "actions" in data
    has_pieces = "direct_pieces" in data
    if has_game == has_pieces:
        raise GameFileError(
            f"{path}: provide exactly one of (actions, u, v) or direct_pieces"
        )

    expected_raw = data.get("expected", {})
    if not isinstance(expected_raw, dict):
        raise GameFileError(f"{path}: field 'expected' must be an object")
    expected = {}
    for key, value in expected_raw.items():
        expected[str(key)] = _rat_field(value, f"{path}: expected[{key}]")

    prior = Belief(prior_vals)  # simplex violations surface as validation errors
    if has_game:
        actions = tuple(str(a) for a in _want(data, "actions", list, path))
        u_rows = _want(data, "u", list, path)
        u = []
        for i, row in enumerate(u_rows):
            if not isinstance(row, list):
                raise GameFileError(f"{path}: u[{i}] must be a list")
            u.append([_rat_field(v, f"{path}: u[{i}][{j}]") for j, v in enumerate(row)])
        v_row = _want(data, "v", list, path)
        v = [_rat_field(x, f"{path}: v[{i}]") for i, x in enumerate(v_row)]
        game = validate_game(types, actions, u, v, prior)
        return GameSpecFile(types, prior, game, None, expected)

    pieces_raw = _want(data, "direct_pieces", list, path)
    pieces = []
    for i, piece in enumerate(pieces_raw):
        where = f"{path}: direct_pieces[{i}]"
        if not isinstance(piece, dict):
            raise GameFileError(f"{where} must be an object")
        inequalities = piece.get("inequalities", [])
        if not isinstance(inequalities, list):
            raise GameFileError(f"{where}: field 'inequalities' must be a list")
        rows = []
        for j, ineq in enumerate(inequalities):
            if not (isinstance(ineq, list) and len(ineq) == 3):
                raise GameFileError(f"{where}: inequality {j} must be [coeffs, rel, rhs]")
            coeffs, rel, rhs = ineq
            if not isinstance(coeffs, list) or len(coeffs) != len(types):
                raise GameFileError(f"{where}: inequality {j} coefficient count")
            if rel not in ("<=", "=", ">="):
                raise GameFileError(f"{where}: inequality {j} relation {rel!r}")
            rows.append(
                (
                    [_rat_field(c, f"{where}: coeff") for c in coeffs],
                    rel,
                    _rat_field(rhs, f"{where}: rhs"),
                )
            )
        vmin = _rat_field(_want(piece, "vmin", (int, str, Fraction), where), where)
        vmax = _rat_field(_want(piece, "vmax", (int, str, Fraction), where), where)
        label = str(piece.get("label", f"piece{i}"))
        pieces.append(
            ValuePiece(Polytope.on_simplex(len(types), rows), vmin, vmax, (), label)
        )
    structure = direct_structure(pieces, prior)
    return GameSpecFile(types, prior, None, structure, expected)


def _print_value(label: str, value: Rational, fractions_only: bool) -> None:
    if fractions_only:
        print(f"{label} {format_fraction(value)}")
    else:
        print(f"{label} {format_fraction(value)} ({format_decimal(value)})")


def cmd_values(args) -> int:
    spec = load_game_file(args.path)
    report = protocol_report_structure(spec.any_structure(), [rat(c) for c in args.budget])
    _print_value("CT", report.ct, args.fractions)
    _print_value("MD", report.md, args.fractions)
    for cap, value in report.budgeted:
        _print_value(f"MDMB[C={format_fraction(cap)}]", value, args.fractions)
    _print_value("MDMB", report.mdmb, args.fractions)
    _print_value("BP", report.bp, args.fractions)
    return EXIT_OK


def cmd_mechanism(args) -> int:
    delta = validate_delta(args.delta)  # before any LP is solved
    spec = load_game_file(args.path)
    if spec.game is None:
        raise ValueError("mechanism construction needs an explicit game, not direct pieces")
    game = restrict_to_support(spec.game)
    value, cert = value_mdmb(game)
    mech = construct_optimal_mdmb(game, cert.p_star, delta)
    print(f"value {format_fraction(value)} ({format_decimal(value)})")
    for j, belief in enumerate(mech.atoms):
        print(
            f"atom {j}: belief {belief}  burn {format_fraction(mech.x[j])}"
            f"  value {format_fraction(mech.values[j])}"
        )
    for t, label in enumerate(game.types):
        row = " ".join(format_fraction(p) for p in mech.pi[t])
        print(f"pi[{label}] {row}")
    nets = net_payoffs(game, mech)
    print("net payoffs " + " ".join(
        f"{label}={format_fraction(n)}" for label, n in zip(game.types, nets)
    ))
    residuals = check_ic(game, mech)
    flat = [r for row in residuals for r in row]
    print("ic residuals " + ("all zero" if all(r == 0 for r in flat) else "VIOLATED"))
    for t, label in enumerate(game.types):
        print(f"  residual[{label}] " + " ".join(format_fraction(r) for r in residuals[t]))
    payoff = sender_payoff(game, mech)
    print(f"sender payoff {format_fraction(payoff)} ({format_decimal(payoff)})")
    return EXIT_OK


def _parse_prior(text: str, dim: int) -> Belief:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise GameValidationError(f"prior {text!r} needs {dim} entries")
    return Belief([rat(p) for p in parts])


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    spec = load_game_file(args.path)
    budgets = [rat(c) for c in args.budget]
    dim = len(spec.types)
    priors: list[Belief] = []
    labels: list[str] = []
    render = format_fraction if args.fractions else format_decimal
    if args.prior:
        for text in args.prior:
            mu = _parse_prior(text, dim)
            priors.append(mu)
            labels.append(";".join(render(w) for w in mu.weights))
    elif dim == 2:
        n = args.steps
        for k in range(n + 1):
            mu = Belief([rat(k, n), rat(n - k, n)])
            priors.append(mu)
            labels.append(render(rat(k, n)))
    else:
        print(
            f"sweeping needs a binary game or explicit --prior values ({dim} types here)",
            file=sys.stderr,
        )
        return EXIT_SWEEP

    header = ["prior", "ct", "md"]
    header += [f"mdmb_C{format_fraction(c)}" for c in sorted(set(budgets))]
    header += ["mdmb", "bp"]
    lines = [",".join(header)]
    base = spec.structure or compile_pieces(spec.game)
    for mu, label in zip(priors, labels):
        if all(w != 0 for w in mu.weights):
            report = protocol_report_structure(base.with_prior(mu), budgets)
        elif spec.game is not None:
            # a boundary prior drops types, which changes the pieces
            report = protocol_report(spec.game.with_prior(mu), budgets)
        else:
            print("direct-pieces sweeps need full-support priors", file=sys.stderr)
            return EXIT_SWEEP
        cells = [label, render(report.ct), render(report.md)]
        cells += [render(v) for _, v in report.budgeted]
        cells += [render(report.mdmb), render(report.bp)]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_game_file(args.path)
    budgets = [rat(c) for c in args.budget]
    structure = spec.any_structure()
    rep = protocol_report_structure(structure, budgets)
    violations = []

    if structure.dim <= 3:
        grid = GridSpec(args.grid) if args.grid else None
        report = audit_structure(structure, rep, grid=grid)
        print("protocol      exact        lower        upper        slack     status")
        for row in report.rows:
            lower = format_fraction(row.lower) if row.lower is not None else "-"
            upper = format_fraction(row.upper) if row.upper is not None else "-"
            status = "ok" if row.satisfied else "VIOLATED"
            print(
                f"{row.protocol:<13} {format_fraction(row.exact):<12} {lower:<12} "
                f"{upper:<12} {format_fraction(row.slack):<9} {status}"
            )
            if not row.satisfied:
                violations.append(f"oracle row {row.protocol}")
    else:
        print(f"oracle rows skipped ({structure.dim} types exceeds the grid oracle)")

    # the structure holds only the prior's supported types
    labels = [spec.types[t] for t in spec.prior.support()]
    verdict = verify_saddle_structure(structure, rep.certificate, None, labels)
    if verdict.ok:
        print(f"saddle: verified at value {format_fraction(rep.mdmb)}")
    else:
        print(f"saddle: FAILED ({verdict.first_violation})")
        violations.append("saddle certificate")

    if spec.game is not None:
        try:
            generic = is_generic(spec.game).generic
        except GenericityBoundExceeded as exc:
            print(f"genericity: skipped ({exc})")
        else:
            print(f"genericity: {'true' if generic else 'false'}")
    else:
        print("genericity: n/a (direct pieces)")

    if spec.expected:
        computed = {"ct": rep.ct, "md": rep.md, "mdmb": rep.mdmb, "bp": rep.bp}
        for key, want in spec.expected.items():
            if key not in computed:
                print(f"expected: unknown key {key!r}")
                violations.append(f"expected key {key}")
                continue
            got = computed[key]
            if got != want:
                print(
                    f"expected: {key} = {format_fraction(want)} but computed "
                    f"{format_fraction(got)}"
                )
                violations.append(f"expected {key}")
            else:
                print(f"expected: {key} = {format_fraction(want)} ok")

    return EXIT_VERIFY if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medburn",
        description="Exact protocol values and mechanisms for finite persuasion games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("values", help="print the five protocol values")
    p.add_argument("path")
    p.add_argument("--budget", action="append", default=[], metavar="C")
    p.add_argument("--fractions", action="store_true", help="print fractions only")
    p.set_defaults(func=cmd_values)

    p = sub.add_parser("mechanism", help="construct and audit a burning mechanism")
    p.add_argument("path")
    p.add_argument("--delta", required=True, metavar="D")
    p.set_defaults(func=cmd_mechanism)

    p = sub.add_parser("sweep", help="CSV of protocol values across priors")
    p.add_argument("path")
    p.add_argument("--steps", type=int, default=20, metavar="N")
    p.add_argument("--budget", action="append", default=[], metavar="C")
    p.add_argument("--prior", action="append", default=[], metavar="P",
                   help="explicit prior as comma-separated rationals (repeatable)")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--fractions", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="oracle audit, saddle check, genericity")
    p.add_argument("path")
    p.add_argument("--budget", action="append", default=[], metavar="C")
    p.add_argument("--grid", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
