"""Record the reference answers the benchmark checks every op against.

    python3 perfbench/make_reference.py [ladder|sweep|verify ...]

Run from the repository root.  It rewrites ``perfbench/reference/<name>.json``
from the medburn sources in ``src/``; the files in the repository were made at
the commit that introduced the benchmark, so a later change that moves a value
shows up as a failed op.  The ladder pool is ordered by the op time measured
here, corrected for host speed as the benchmark's own clock does; that order
picks the middle window the benchmark draws from.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import medburn  # noqa: E402
import medburn.cli  # noqa: E402

from clock import Clock  # noqa: E402
from workloads import (  # noqa: E402
    BUDGETS,
    DELTA,
    LADDER_POOL,
    LADDER_SHAPES,
    REFERENCE,
    SWEEP_GAMES,
    SWEEP_STEPS,
    VERIFY_FIXTURES,
    fraction_strings,
    influencer_prior_pool,
    ladder_pool_rng,
    random_game_entries,
)

BUDGET_VALUES = [medburn.rat(c) for c in BUDGETS]


def chain(game) -> list[str]:
    return list(fraction_strings(medburn.protocol_report(game, BUDGET_VALUES).chain()))


def ladder_op(entries: dict, clock: Clock) -> tuple[float, list[str]]:
    """Time one ladder op on these game entries; return (calibrated seconds, values)."""
    game = medburn.validate_game(
        entries["types"], entries["actions"], entries["u"], entries["v"], entries["prior"]
    )
    with clock.sampling():
        start = time.perf_counter()
        report = medburn.protocol_report(game, BUDGET_VALUES)
        mech = medburn.construct_optimal_mdmb(game, report.certificate.p_star, DELTA)
        medburn.check_ic(game, mech)
        end = time.perf_counter()
    return clock.corrected(start, end), list(fraction_strings(report.chain()))


def ladder() -> dict:
    clock = Clock()
    shapes = {}
    for shape in LADDER_SHAPES:
        rng = ladder_pool_rng(shape)
        pool = []
        for index in range(LADDER_POOL):
            entries = random_game_entries(rng, *shape)
            elapsed, values = ladder_op(entries, clock)
            pool.append(dict(index=index, **entries, values=values, ref_s=round(elapsed, 4)))
            print(f"ladder {shape} #{index}: {elapsed:.3f} s", file=sys.stderr, flush=True)
        pool.sort(key=lambda e: e["ref_s"])
        shapes[f"{shape[0]}x{shape[1]}"] = pool
    return {"budgets": list(BUDGETS), "delta": DELTA, "shapes": shapes}


def sweep() -> dict:
    out = {}
    for name in SWEEP_GAMES:
        game = medburn.cli.load_game_file(str(ROOT / "games" / f"{name}.json")).game
        n = SWEEP_STEPS
        values = []
        for k in range(n + 1):
            mu = medburn.Belief([medburn.rat(k, n), medburn.rat(n - k, n)])
            values.append(chain(game.with_prior(mu)))
        out[name] = {"steps": n, "values": values}
    game = medburn.cli.load_game_file(str(ROOT / "games" / "influencer.json")).game
    priors = influencer_prior_pool()
    values = [chain(game.with_prior(medburn.Belief(p))) for p in priors]
    out["influencer"] = {"priors": [list(p) for p in priors], "values": values}
    return out


def verify() -> dict:
    out = {}
    for name in VERIFY_FIXTURES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = medburn.cli.main(["verify", str(ROOT / "games" / f"{name}.json")])
        if code != 0:
            raise SystemExit(f"verify {name} exited {code}")
        out[name] = buf.getvalue()
    return out


def main(argv: list[str]) -> int:
    makers = {"ladder": ladder, "sweep": sweep, "verify": verify}
    for name in argv or list(makers):
        data = makers[name]()
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
