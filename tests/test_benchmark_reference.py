"""Every answer the benchmark checks, replayed against its recorded reference.

``perfbench/reference/*.json`` holds the answers the benchmark compares each
op with: ``medburn verify`` stdout per fixture, and the six-value chain of
every ``ladder`` game and ``sweep`` prior.  A change that moves one of them
makes a benchmark op fail; these tests show it in the suite first.  The
reference files are only read.
"""

import contextlib
import difflib
import io
import json
from pathlib import Path

import pytest

from medburn import (
    Belief,
    check_ic,
    construct_optimal_mdmb,
    format_fraction,
    protocol_report,
    rat,
    restrict_to_support,
    validate_game,
)
from medburn.cli import load_game_file, main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"
GAMES = ROOT / "games"


def _reference(name):
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _chain(report):
    return [format_fraction(v) for v in report.chain()]


@pytest.mark.parametrize("fixture", sorted(_reference("verify")))
def test_verify_stdout_matches_the_reference(fixture):
    expected = _reference("verify")[fixture]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(GAMES / f"{fixture}.json")])
    assert code == 0
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), out.getvalue().splitlines(keepends=True),
        "reference", "medburn verify",
    ))
    assert not diff, diff


def test_ladder_values_and_mechanisms_match_the_reference():
    ref = _reference("ladder")
    budgets = [rat(c) for c in ref["budgets"]]
    checked = 0
    for shape, pool in ref["shapes"].items():
        for entry in pool:
            label = f"{shape}#{entry['index']}"
            game = validate_game(
                entry["types"], entry["actions"], entry["u"], entry["v"], entry["prior"]
            )
            report = protocol_report(game, budgets)
            assert _chain(report) == entry["values"], label
            game = restrict_to_support(game)
            mech = construct_optimal_mdmb(game, report.certificate.p_star, ref["delta"])
            assert all(r == 0 for row in check_ic(game, mech) for r in row), label
            checked += 1
    assert checked == 144


def test_sweep_values_match_the_reference():
    ref = _reference("sweep")
    budgets = [rat(1), rat(2)]
    checked = 0
    for name in ("salesman", "three_actions"):
        game = load_game_file(str(GAMES / f"{name}.json")).game
        n = ref[name]["steps"]
        for k, values in enumerate(ref[name]["values"]):
            mu = Belief([rat(k, n), rat(n - k, n)])
            assert _chain(protocol_report(game.with_prior(mu), budgets)) == values, (name, k)
            checked += 1
    game = load_game_file(str(GAMES / "influencer.json")).game
    pool = ref["influencer"]
    for prior, values in zip(pool["priors"], pool["values"], strict=True):
        report = protocol_report(game.with_prior(Belief(prior)), budgets)
        assert _chain(report) == values, prior
        checked += 1
    assert checked == 719
