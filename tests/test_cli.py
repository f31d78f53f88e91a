import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from medburn import SubjectivePrior, cli, geometry
from medburn.cli import load_game_file, main
from medburn.rational import rat

GAMES = Path(__file__).resolve().parent.parent / "games"
PINNED_CLI_DIGEST = "53b7b3222d48079b3c169f2ee695d56c650b7184c2ec1c7d781b04941f15ca08"
PINNED_SWEEP_DIGEST = "9b9d01656148846bc72b8639c0a0b1b0da98376a6fe37f56593469979576a432"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_values_salesman(capsys):
    code, out, _ = run(capsys, "values", GAMES / "salesman.json", "--budget", "2", "--budget", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("CT 0")
    assert lines[1].startswith("MD 0")
    assert lines[2].startswith("MDMB[C=1] 0")
    assert lines[3].startswith("MDMB[C=2] 1/5")
    assert lines[4].startswith("MDMB 1/3")
    assert lines[5].startswith("BP 1/2")


def test_values_abstract_pieces(capsys):
    code, out, _ = run(capsys, "values", GAMES / "abstract_pieces.json")
    assert code == 0
    assert "MD 7/3" in out
    assert "MDMB 7/3" in out
    assert "CT 2" in out
    assert "BP 5/2" in out


def test_values_fraction_flag_round_trip(capsys):
    code, out, _ = run(capsys, "values", GAMES / "three_actions.json", "--fractions")
    assert code == 0
    for line in out.strip().splitlines():
        label, frac = line.split()
        assert rat(frac) is not None


def test_values_malformed_prior(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "types": ["a", "b"],
                "actions": ["x"],
                "u": [[1, 1]],
                "v": [0],
                "prior": ["1/2", "1/3"],
            }
        )
    )
    code, _, err = run(capsys, "values", bad)
    assert code == 3
    assert "validation" in err


def test_values_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "values", bad)
    assert code == 2
    assert "parse error" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"types": ["a"], "prior": [1]}))
    code, _, err = run(capsys, "values", missing)
    assert code == 2

    # ill-typed blocks are parse errors too, not tracebacks
    game = json.loads((GAMES / "salesman.json").read_text())
    pieces = json.loads((GAMES / "abstract_pieces.json").read_text())
    pieces["direct_pieces"][0]["inequalities"] = 3
    for name, data in (("expected.json", {**game, "expected": ["ct", 0]}), ("ineq.json", pieces)):
        bad = tmp_path / name
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "values", bad)
        assert code == 2
        assert err.startswith("parse error: ")


def test_mechanism_salesman(capsys):
    code, out, _ = run(capsys, "mechanism", GAMES / "salesman.json", "--delta", "1/10")
    assert code == 0
    assert "sender payoff 3/10" in out
    assert "ic residuals all zero" in out
    assert "burn 7" in out  # revealing-high message burn at delta 1/10


def test_mechanism_influencer(capsys):
    code, out, _ = run(capsys, "mechanism", GAMES / "influencer.json", "--delta", "1/100")
    assert code == 0
    payoff = rat(next(l for l in out.splitlines() if l.startswith("sender payoff")).split()[2])
    assert rat(5, 2) - rat(1, 50) <= payoff <= rat(5, 2)
    assert "ic residuals all zero" in out


def test_mechanism_rejects_delta_one(capsys):
    code, _, err = run(capsys, "mechanism", GAMES / "salesman.json", "--delta", "1")
    assert code == 3
    assert "delta" in err


@pytest.mark.parametrize(
    "delta, message",
    [
        ("2", "delta must lie strictly between 0 and 1, got 2"),
        ("x", "bad delta: cannot parse rational literal 'x'"),
    ],
)
def test_mechanism_bad_delta_is_a_validation_error(capsys, delta, message):
    code, out, err = run(capsys, "mechanism", GAMES / "salesman.json", "--delta", delta)
    assert (code, out, err) == (3, "", f"validation error: {message}\n")
    # the delta is checked before the game file is even read
    code, out, err = run(capsys, "mechanism", GAMES / "missing.json", "--delta", delta)
    assert (code, out, err) == (3, "", f"validation error: {message}\n")


def test_mechanism_refuses_direct_pieces(capsys):
    code, out, err = run(capsys, "mechanism", GAMES / "abstract_pieces.json", "--delta", "1/10")
    assert (code, out) == (3, "")
    assert err == "validation error: mechanism construction needs an explicit game, not direct pieces\n"


def test_sweep_matches_closed_forms(capsys):
    code, out, _ = run(
        capsys, "sweep", GAMES / "salesman.json", "--steps", "20", "--budget", "1",
        "--budget", "2", "--fractions",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prior,ct,md,mdmb_C1,mdmb_C2,mdmb,bp"
    assert len(lines) == 22
    for line in lines[1:]:
        prior, ct, md, c1, c2, mdmb, bp = (rat(x) for x in line.split(","))
        if prior < rat(1, 2):
            assert mdmb == prior / (1 - prior)
            assert c1 == 0
            assert c2 == (prior / (2 - 3 * prior) if prior > 0 else 0)
        else:
            assert mdmb == 1
            assert c2 == 1


def test_sweep_single_step_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", GAMES / "salesman.json", "--steps", "1", "--fractions")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_sweep_rejects_steps_below_one(capsys, steps):
    code, out, err = run(capsys, "sweep", GAMES / "salesman.json", "--steps", steps)
    assert code == 3
    assert out == ""
    assert err == f"validation error: --steps must be at least 1, got {steps}\n"


def test_sweep_deterministic_and_to_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", GAMES / "salesman.json", "--steps", "6", "--out", out_file
    )
    assert code == 0
    first = out_file.read_bytes()
    run(capsys, "sweep", GAMES / "salesman.json", "--steps", "6", "--out", out_file)
    assert out_file.read_bytes() == first


def test_sweep_requires_priors_beyond_binary(capsys):
    code, _, err = run(capsys, "sweep", GAMES / "influencer.json")
    assert code == 4
    assert "prior" in err


def test_sweep_explicit_priors(capsys):
    code, out, _ = run(
        capsys, "sweep", GAMES / "influencer.json", "--prior", "1/3,1/3,1/3", "--fractions"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "1/3;1/3;1/3,2,11/5,5/2,8/3"


def test_verify_fixtures(capsys):
    for name in ("salesman.json", "influencer.json", "three_actions.json"):
        code, out, _ = run(capsys, "verify", GAMES / name)
        assert code == 0, out
        assert "saddle: verified" in out
        assert "genericity: true" in out


def test_verify_reports_relation_three_actions(capsys):
    code, out, _ = run(capsys, "verify", GAMES / "three_actions.json")
    assert code == 0
    assert "expected: ct = 1/4 ok" in out
    assert "expected: bp = 3/10 ok" in out


def test_genericity_refuses_past_its_bound(tmp_path, capsys, monkeypatch):
    # eleven types: 2^11 - 1 support faces, past MAX_GENERIC_TYPES
    n = 11
    data = {
        "types": [f"t{i}" for i in range(n)],
        "actions": ["act", "wait"],
        "u": [[(-1) ** i for i in range(n)], [0] * n],
        "v": [1, 0],
        "prior": [f"1/{n}"] * n,
    }
    path = tmp_path / "eleven.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", path)
    assert code == 0, out
    assert "genericity: skipped (11 types exceeds the bound of 10)\n" in out

    def refuse(lp):
        raise AssertionError("is_generic solved an LP past its bound")

    monkeypatch.setattr(geometry, "solve", refuse)
    with pytest.raises(geometry.GenericityBoundExceeded, match="11 types exceeds the bound of 10"):
        geometry.is_generic(load_game_file(str(path)).game)


def test_verify_abstract_pieces(capsys):
    code, out, _ = run(capsys, "verify", GAMES / "abstract_pieces.json", "--grid", "60")
    assert code == 0
    assert "genericity: n/a" in out
    assert "expected: md = 7/3 ok" in out


def test_verify_corrupted_fixture(tmp_path, capsys):
    data = json.loads((GAMES / "salesman.json").read_text())
    data["expected"]["mdmb"] = "2/3"
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", bad)
    assert code == 5
    assert "but computed" in out


def test_sweep_direct_pieces_needs_interior_priors(capsys):
    code, _, err = run(
        capsys, "sweep", GAMES / "abstract_pieces.json", "--prior", "1,0,0"
    )
    assert code == 4
    assert "full-support" in err


def _half_covered(tmp_path, prior):
    """Direct pieces that cover only ``x_a >= 1/2``."""
    f = tmp_path / "gap.json"
    f.write_text(json.dumps({
        "types": ["a", "b"],
        "prior": prior,
        "direct_pieces": [{"inequalities": [[[1, 0], ">=", "1/2"]], "vmin": 1, "vmax": 1}],
    }))
    return f


@pytest.mark.parametrize("command", ["values", "verify"])
def test_uncovered_prior_is_a_validation_error(tmp_path, capsys, command):
    code, out, err = run(capsys, command, _half_covered(tmp_path, ["1/4", "3/4"]))
    assert (code, out) == (3, "")
    assert err == "validation error: no piece covers the prior (1/4, 3/4)\n"


def test_sweep_to_an_uncovered_prior_is_a_validation_error(tmp_path, capsys):
    path = _half_covered(tmp_path, ["3/4", "1/4"])
    code, out, err = run(capsys, "sweep", path, "--prior", "3/5,2/5", "--prior", "1/4,3/4")
    assert (code, out) == (3, "")
    assert err == "validation error: no piece covers the prior (1/4, 3/4)\n"


def test_direct_pieces_are_trusted_to_cover_the_simplex(tmp_path, capsys):
    # A gap away from the prior goes unseen by ``values``, which solves as if
    # the pieces covered the simplex; ``verify``'s grid reaches the uncovered
    # vertex (0, 1) and refuses the file.
    path = _half_covered(tmp_path, ["3/4", "1/4"])
    code, out, err = run(capsys, "values", path, "--fractions")
    assert (code, out, err) == (0, "CT 1\nMD 1\nMDMB 1\nBP 1\n", "")
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (3, "")
    assert err == "validation error: no piece covers belief (0, 1)\n"


def test_values_single_type_game(tmp_path, capsys):
    f = tmp_path / "solo.json"
    f.write_text(
        json.dumps(
            {
                "types": ["only"],
                "actions": ["a", "b"],
                "u": [[2], [1]],
                "v": [5, 9],
                "prior": [1],
            }
        )
    )
    code, out, _ = run(capsys, "values", f, "--fractions")
    assert code == 0
    assert all(line.endswith(" 5") for line in out.strip().splitlines())


def test_printed_fractions_reparse(capsys):
    code, out, _ = run(capsys, "values", GAMES / "salesman.json", "--fractions")
    assert code == 0
    for line in out.strip().splitlines():
        token = line.split()[-1]
        assert str(rat(token)) == token


def test_certificate_error_survives_optimize(tmp_path):
    # Negative controls: with the dual check forced to fail, ``solve`` must
    # refuse its answer and the CLI must exit 6, even under ``python -O``,
    # which strips every assert statement.  The same holds for the envelope
    # checks: a decomposition that no longer re-evaluates to its LP value, and
    # LP answers whose OPTIMAL status is no longer recognised.
    script = tmp_path / "sabotage.py"
    salesman = str(GAMES / "salesman.json")
    script.write_text(
        "import sys\n"
        "import medburn.envelopes as envelopes\n"
        "import medburn.lp as lp\n"
        "from medburn.cli import EXIT_CERTIFICATE, main\n"
        "assert False, 'assert statements are live: this run does not test -O'\n"
        "dual_feasible = lp.dual_feasible\n"
        "lp.dual_feasible = lambda program, y: False\n"
        "rows = lp.integer_rows([({0: 1}, '<=', 3)])\n"
        "program = lp.LinearProgram('max', [lp.NONNEG], {0: 1}, rows)\n"
        "try:\n"
        "    lp.solve(program)\n"
        "except lp.CertificateError as exc:\n"
        "    print('solve raised', exc)\n"
        "else:\n"
        "    sys.exit('solve returned an uncertified answer')\n"
        f"codes = [main(['values', {salesman!r}])]\n"
        "lp.dual_feasible = dual_feasible\n"
        "weight = envelopes.subjective_weight\n"
        "envelopes.subjective_weight = lambda lam, prior, mu: 2 * weight(lam, prior, mu)\n"
        f"codes.append(main(['values', {salesman!r}]))\n"
        "envelopes.subjective_weight = weight\n"
        "envelopes.OPTIMAL = 'sabotaged'\n"
        f"codes.append(main(['values', {salesman!r}]))\n"
        "print('exit', *codes)\n"
        "sys.exit(0 if codes == [EXIT_CERTIFICATE] * 3 else 1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "solve raised simplex dual multipliers are infeasible" in proc.stdout
    assert "exit 6 6 6" in proc.stdout
    assert proc.stderr.splitlines() == [
        "certificate error: simplex dual multipliers are infeasible",
        "certificate error: decomposition does not re-evaluate to the value",
        "certificate error: piece regions failed to cover the simplex",
    ]


def test_verify_names_supported_types_when_the_prior_has_a_zero(tmp_path, capsys, monkeypatch):
    # Z has prior 0, so the structure holds only H and L: a saddle check that
    # fails on the structure's first type must name H, not Z.
    game = tmp_path / "zero_type.json"
    game.write_text(json.dumps({
        "types": ["Z", "H", "L"], "actions": ["buy", "pass"], "u": [[3, 5, -5], [0, 0, 0]],
        "v": [1, 0], "prior": ["0", "1/4", "3/4"],
    }))
    report = cli.protocol_report_structure

    def tampered(structure, budgets):
        rep = report(structure, budgets)
        cert = dataclasses.replace(rep.certificate, lambda_star=SubjectivePrior([1, 0]))
        return dataclasses.replace(rep, certificate=cert)

    monkeypatch.setattr(cli, "protocol_report_structure", tampered)
    code, out, _ = run(capsys, "verify", game)
    assert code == 5
    assert "saddle: FAILED (supported type H has directional payoff 1 != value 1/3)" in out


def test_corrupted_integer_read_back_is_refused(tmp_path):
    # Negative controls for the integer read-back, under ``python -O``: one
    # numerator moved by one in the simplex's primal point, in its dual
    # multipliers, or in an envelope atom's block sums must fail an exact
    # check, so the CLI exits 6 instead of printing a value.
    script = tmp_path / "corrupt.py"
    salesman = str(GAMES / "salesman.json")
    script.write_text(
        "import sys\n"
        "import medburn.envelopes as envelopes\n"
        "import medburn.lp as lp\n"
        "from medburn.cli import EXIT_CERTIFICATE, main\n"
        "from medburn.rational import ScaledVector\n"
        "assert False, 'assert statements are live: this run does not test -O'\n"
        "def bump(v):\n"
        "    return ScaledVector((v.nums[0] + 1,) + v.nums[1:], v.den)\n"
        "read_primal, read_duals = lp._Tableau._read_primal, lp._Tableau._read_duals\n"
        "parts = envelopes._parts\n"
        "def bumped_parts(*args):\n"
        "    got = parts(*args)\n"
        "    got[0] = got[0]._replace(z=(got[0].z[0] + 1,) + got[0].z[1:])\n"
        "    return got\n"
        "lp._Tableau._read_primal = lambda self: bump(read_primal(self))\n"
        f"codes = [main(['values', {salesman!r}])]\n"
        "lp._Tableau._read_primal = read_primal\n"
        "lp._Tableau._read_duals = lambda self, phase1: bump(read_duals(self, phase1))\n"
        f"codes.append(main(['values', {salesman!r}]))\n"
        "lp._Tableau._read_duals = read_duals\n"
        "envelopes._parts = bumped_parts\n"
        f"codes.append(main(['values', {salesman!r}]))\n"
        "envelopes._parts = parts\n"
        f"codes.append(main(['values', {salesman!r}]))\n"
        "print('exit', *codes)\n"
        "sys.exit(0 if codes == [EXIT_CERTIFICATE] * 3 + [0] else 1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "exit 6 6 6 0" in proc.stdout
    assert proc.stderr.splitlines() == [
        "certificate error: simplex primal point is infeasible",
        "certificate error: strong duality violated",
        "certificate error: decomposition is not Bayes-plausible",
    ]


def test_cli_output_is_pinned(capsys):
    # The digest pins the exit code and every stdout byte of the three
    # report commands on the four fixtures; a refactor that leaves values,
    # certificates and mechanisms alone must leave it unchanged.
    commands = [
        ("values", "--budget", "1", "--budget", "2"),
        ("mechanism", "--delta", "1/10"),
        ("verify",),
    ]
    texts = []
    for name in ("abstract_pieces", "influencer", "salesman", "three_actions"):
        for command, *options in commands:
            code, out, _ = run(capsys, command, GAMES / f"{name}.json", *options)
            texts.append(f"{name} {command} exit {code}\n{out}")
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_CLI_DIGEST


def test_sweep_output_is_pinned(capsys):
    # The digest pins the exit code and every stdout byte of four sweeps:
    # a binary grid with budgets given out of order, explicit fractions, a
    # game swept through a boundary prior, and direct pieces at two priors.
    runs = [
        ("salesman", "--steps", "20", "--budget", "2", "--budget", "1"),
        ("three_actions", "--budget", "1", "--fractions"),
        ("influencer", "--prior", "1/3,1/3,1/3", "--prior", "0,1/2,1/2", "--prior", "1/2,1/4,1/4"),
        ("abstract_pieces", "--prior", "1/3,1/3,1/3", "--prior", "1/5,2/5,2/5"),
    ]
    texts = []
    for name, *options in runs:
        code, out, _ = run(capsys, "sweep", GAMES / f"{name}.json", *options)
        texts.append(f"{name} sweep exit {code}\n{out}")
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_SWEEP_DIGEST


def test_verify_budget_order_does_not_matter(capsys):
    # Audit rows follow the report's ascending caps, whatever the flag order.
    path = GAMES / "salesman.json"
    first = run(capsys, "verify", path, "--budget", "2", "--budget", "1")
    second = run(capsys, "verify", path, "--budget", "1", "--budget", "2")
    assert first[0] == 0
    assert first == second
    assert first[1].index("mdmb[C=1]") < first[1].index("mdmb[C=2]")


def test_values_repeated_budgets_print_one_line_per_cap(capsys):
    code, out, _ = run(
        capsys, "values", GAMES / "salesman.json", "--budget", "1", "--budget", "1",
        "--budget", "1/1", "--budget", "0", "--fractions",
    )
    assert code == 0
    assert out.splitlines() == ["CT 0", "MD 0", "MDMB[C=0] 0", "MDMB[C=1] 0", "MDMB 1/3", "BP 1/2"]


def test_sweep_repeated_budgets_share_one_column(capsys):
    # steps 4 sweeps the two boundary priors too, which are solved on their own
    code, out, _ = run(
        capsys, "sweep", GAMES / "salesman.json", "--steps", "4", "--budget", "2",
        "--budget", "1", "--budget", "2", "--fractions",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prior,ct,md,mdmb_C1,mdmb_C2,mdmb,bp"
    assert len(lines) == 6
    assert all(len(line.split(",")) == 7 for line in lines)
