"""The three benchmark workloads: ``ladder``, ``sweep`` and ``verify``.

Each workload turns a seed into a list of *cycles*; a cycle is a list of ops
that together cover every kind of input the workload has.  A timed run makes
whole passes over the list, so every run of a seed holds the same ops, and
one pass takes 24 to 26 s of calibrated op time at the commit that
introduced the benchmark.  An op is one call a researcher would make and wait for; the
benchmark is a closed loop with one client, so the next op starts when the
previous one returns.

Ops call medburn through ``sys.modules`` at call time, never through names
bound when this file is imported: every set-up re-imports medburn, and the
tracer replaces the module attributes that ops look up.

Reference answers live in ``reference/*.json`` and were recorded by
``make_reference.py`` from the medburn commit that introduced this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

from tracing import ORACLE_CACHES

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

BUDGETS = ("1", "2")
DELTA = "1/10"

LADDER_SHAPES = ((3, 6), (4, 6), (4, 8))
LADDER_POOL = 48
# Games whose calibrated reference time ranks in the middle LADDER_WINDOW of their
# shape's pool.  Solve time varies tenfold between random games of one shape,
# so drawing from the whole pool would make a run's figures depend more on
# the seed than on the program; see README.md.
LADDER_WINDOW = 6

SWEEP_GAMES = ("salesman", "three_actions")
SWEEP_STEPS = 40
INFLUENCER_PRIORS_PER_PASS = 40
SWEEP_PASSES = 4

VERIFY_FIXTURES = ("salesman", "three_actions", "influencer", "abstract_pieces")
VERIFY_CYCLES = 2


def random_game_entries(rng: Random, n_types: int, n_actions: int) -> dict:
    """Game entries drawn as ``tests/random_games.py`` draws them."""
    parts = [rng.randint(1, 6) for _ in range(n_types)]
    total = sum(parts)
    return {
        "types": [f"t{i}" for i in range(n_types)],
        "actions": [f"a{i}" for i in range(n_actions)],
        "u": [[rng.randint(-5, 5) for _ in range(n_types)] for _ in range(n_actions)],
        "v": [rng.randint(-5, 5) for _ in range(n_actions)],
        "prior": [f"{p}/{total}" for p in parts],
    }


def ladder_pool_rng(shape: tuple[int, int]) -> Random:
    return Random(f"medburn-ladder-{shape[0]}x{shape[1]}")


def influencer_prior_pool() -> list[tuple[str, str, str]]:
    """Distinct interior priors with integer parts 1..9, in a fixed order."""
    from fractions import Fraction

    seen = {}
    for a in range(1, 10):
        for b in range(1, 10):
            for c in range(1, 10):
                total = a + b + c
                key = (Fraction(a, total), Fraction(b, total), Fraction(c, total))
                seen.setdefault(key, tuple(str(x) for x in key))
    return list(seen.values())


def fraction_strings(values) -> tuple[str, ...]:
    fmt = sys.modules["medburn"].format_fraction
    return tuple(fmt(v) for v in values)


def load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- ops ---------------------------------------------------------------------


@dataclass
class ReportOp:
    """``protocol_report(game, [1, 2])``; on ``ladder`` also a mechanism.

    ``check`` compares the six values with the reference and, with
    ``full``, re-audits the saddle certificate, which costs about a quarter
    of the op and so runs outside the timed region.
    """

    label: str
    game: object
    expected: tuple[str, ...]
    with_mechanism: bool

    def prepare(self) -> None:
        pass

    def run(self):
        mb = sys.modules["medburn"]
        budgets = [mb.rat(c) for c in BUDGETS]
        report = mb.protocol_report(self.game, budgets)
        if not self.with_mechanism:
            return report, None
        game = mb.restrict_to_support(self.game)
        mech = mb.construct_optimal_mdmb(game, report.certificate.p_star, DELTA)
        return report, mb.check_ic(game, mech)

    def check(self, outcome, full: bool) -> str | None:
        report, residuals = outcome
        got = fraction_strings(report.chain())
        if got != self.expected:
            return f"values {got} differ from reference {self.expected}"
        if residuals is not None and any(r != 0 for row in residuals for r in row):
            return "check_ic residuals are not all zero"
        if full and not sys.modules["medburn"].verify_saddle(self.game, report.certificate).ok:
            return "verify_saddle rejected the certificate"
        return None


@dataclass
class VerifyOp:
    """``medburn verify <fixture>`` in-process, stdout captured."""

    label: str
    path: str
    expected_stdout: str
    expected_lines: tuple[str, ...]

    def prepare(self) -> None:
        # A fresh ``medburn verify`` process starts with empty oracle caches.
        oracle = sys.modules["medburn.oracle"]
        for name in ORACLE_CACHES:
            getattr(oracle, name).cache_clear()
        warm = [n for n in ORACLE_CACHES if getattr(oracle, n).cache_info().currsize != 0]
        if warm:
            raise RuntimeError(f"oracle caches not empty before a verify op: {warm}")

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sys.modules["medburn.cli"].main(["verify", self.path])
        return code, out.getvalue()

    def check(self, outcome, full: bool) -> str | None:
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        missing = [line for line in self.expected_lines if line not in text]
        if missing:
            return f"expected values not confirmed: {missing}"
        if text != self.expected_stdout:
            return "stdout differs from the reference output"
        return None


# -- corpora -----------------------------------------------------------------


def _validated(entries: dict):
    mb = sys.modules["medburn"]
    return mb.validate_game(
        entries["types"], entries["actions"], entries["u"], entries["v"], entries["prior"]
    )


def ladder_cycles(root: Path, seed: int) -> list[list[ReportOp]]:
    """One game per shape per cycle, from the middle of each shape's pool."""
    ref = load_reference("ladder")
    rng = Random(seed)
    picks = {}
    for t, a in LADDER_SHAPES:
        pool = ref["shapes"][f"{t}x{a}"]
        lo = (len(pool) - LADDER_WINDOW) // 2
        window = pool[lo : lo + LADDER_WINDOW]
        picks[(t, a)] = rng.sample(window, len(window))
    cycles = []
    for c in range(LADDER_WINDOW):
        cycle = []
        for shape in LADDER_SHAPES:
            entry = picks[shape][c]
            label = f"{shape[0]}x{shape[1]}#{entry['index']}"
            cycle.append(ReportOp(label, _validated(entry), tuple(entry["values"]), True))
        cycles.append(cycle)
    return cycles


def sweep_cycles(root: Path, seed: int) -> list[list[ReportOp]]:
    """Each pass sweeps salesman and three_actions over k/N, then influencer."""
    ref = load_reference("sweep")
    cli = sys.modules["medburn.cli"]
    mb = sys.modules["medburn"]
    games = {name: cli.load_game_file(str(root / "games" / f"{name}.json")).game
             for name in SWEEP_GAMES + ("influencer",)}
    grid_ops = []
    for name in SWEEP_GAMES:
        n = ref[name]["steps"]
        for k, values in enumerate(ref[name]["values"]):
            mu = mb.Belief([mb.rat(k, n), mb.rat(n - k, n)])
            grid_ops.append(ReportOp(f"{name}@{k}/{n}", games[name].with_prior(mu),
                                     tuple(values), False))
    pool = ref["influencer"]
    order = Random(seed).sample(range(len(pool["priors"])), len(pool["priors"]))
    cycles = []
    for p in range(SWEEP_PASSES):
        cycle = list(grid_ops)
        for i in order[p * INFLUENCER_PRIORS_PER_PASS : (p + 1) * INFLUENCER_PRIORS_PER_PASS]:
            prior = pool["priors"][i]
            game = games["influencer"].with_prior(mb.Belief(prior))
            cycle.append(ReportOp(f"influencer@{';'.join(prior)}", game,
                                  tuple(pool["values"][i]), False))
        cycles.append(cycle)
    return cycles


def verify_cycles(root: Path, seed: int) -> list[list[VerifyOp]]:
    """All four fixtures per cycle, in a seeded order."""
    ref = load_reference("verify")
    cli = sys.modules["medburn.cli"]
    ops = []
    for name in VERIFY_FIXTURES:
        path = str(root / "games" / f"{name}.json")
        spec = cli.load_game_file(path)
        lines = tuple(f"expected: {key} = {fraction_strings([value])[0]} ok\n"
                      for key, value in spec.expected.items())
        ops.append(VerifyOp(name, path, ref[name], lines))
    rng = Random(seed)
    return [rng.sample(ops, len(ops)) for _ in range(VERIFY_CYCLES)]


WORKLOADS = {
    "ladder": (("medburn",), ladder_cycles),
    "sweep": (("medburn", "medburn.cli"), sweep_cycles),
    "verify": (("medburn", "medburn.cli", "medburn.oracle"), verify_cycles),
}
