import dataclasses
import hashlib
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd
from pathlib import Path
from random import Random

import pytest

import medburn.oracle as oracle
from medburn import Belief, SubjectivePrior, rat
from medburn.cli import EXIT_CERTIFICATE, EXIT_VALIDATION, load_game_file, main
from medburn.geometry import Polytope, ValuePiece, compile_pieces, direct_structure
from medburn.lp import CertificateError
from medburn.oracle import (
    GridSpec,
    TooManyTypes,
    affine_lambda_grid_binary,
    audit_structure,
    grid_beliefs,
    grid_concavify,
    grid_min_lambda,
    grid_qcav_binary,
    lipschitz_slack,
    simplex_lambda_grid,
    snapped_resolution,
)
from medburn.rational import format_fraction
from medburn.solvers import protocol_report_structure, value_bp, value_mdmb
from random_games import game_corpus

GAMES = Path(__file__).resolve().parent.parent / "games"
PINNED_AUDIT_DIGEST = "19bde10bc4bdf7ed2c3d418d357c5e3e164e74d7970108811e243a31424b8512"


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1)
    with pytest.raises(TooManyTypes):
        grid_beliefs(4, 8)


def test_grids_past_the_point_bound_are_refused(capsys):
    # 2**16 points: two types up to resolution 65535, three up to 360.  The
    # small refusals come first, so the CLI call below never builds a grid.
    assert len(oracle._compositions(3, 360)) == 361 * 362 // 2
    for dim, n, points in ((2, 65536, 65537), (3, 361, 65703)):
        with pytest.raises(ValueError, match=f"grid of {points} points exceeds the bound of 65536"):
            oracle._compositions(dim, n)
    assert main(["verify", str(GAMES / "influencer.json"), "--grid", "5000"]) == EXIT_VALIDATION
    assert "grid of 12507501 points exceeds the bound of 65536" in capsys.readouterr().err


def test_salesman_low_type_oracle(salesman):
    s = compile_pieces(salesman)
    value = grid_concavify(s, SubjectivePrior([0, 1]), None, GridSpec(4096))
    assert value == rat(1, 3)  # boundary 1/2 and prior 1/4 both sit on the grid
    slack = lipschitz_slack(s, SubjectivePrior([0, 1]), None, GridSpec(4096))
    assert slack <= rat(1, 1024)


def test_constant_structure_oracle(single_action):
    s = compile_pieces(single_action)
    lam = SubjectivePrior.from_belief(s.prior)
    assert grid_concavify(s, lam, None, GridSpec(64)) == 7


def test_influencer_oracle_weights(influencer):
    s = compile_pieces(influencer)
    value = grid_concavify(s, SubjectivePrior([0, "1/2", "1/2"]), None, GridSpec(60))
    assert value >= rat(5, 2) - rat(1, 10)
    assert value <= rat(5, 2)  # a lower bound can never exceed the envelope
    bp = grid_concavify(s, SubjectivePrior.from_belief(s.prior), None, GridSpec(60))
    assert bp == rat(8, 3)


def test_grid_min_lambda_simplex(salesman):
    s = compile_pieces(salesman)
    value, arg = grid_min_lambda(s, simplex_lambda_grid(2, 128), None, GridSpec(4096))
    assert value == rat(1, 3)
    assert arg.weights[0] == 0  # attained at the low-type vertex
    # the exact min-max never exceeds any single grid evaluation here
    exact, _ = value_mdmb(salesman)
    for lam in simplex_lambda_grid(2, 16):
        assert exact <= grid_concavify(s, lam, None, GridSpec(4096))


def test_grid_min_lambda_affine(salesman):
    s = compile_pieces(salesman)
    grid = affine_lambda_grid_binary(-4, 2, 192)
    value, _ = grid_min_lambda(s, grid, rat(0), GridSpec(1024))
    assert value == 0


def test_grid_min_lambda_single_piece(single_action):
    s = compile_pieces(single_action)
    values = {
        str(grid_concavify(s, lam, None, GridSpec(64)))
        for lam in simplex_lambda_grid(2, 8)
    }
    assert values == {"7"}


def test_grid_qcav(salesman, three_actions):
    assert grid_qcav_binary(compile_pieces(salesman), GridSpec(1024)) == 0
    assert grid_qcav_binary(compile_pieces(three_actions), GridSpec(1920)) == rat(1, 4)


def _prior_past_the_grid(table):
    """The table with its prior moved right of every grid point, off the
    table's values: no superlevel set can straddle it."""
    ghost = (table.scale + 1,) + table.coords[table.prior_idx][1:]
    return table._replace(coords=table.coords + (ghost,), prior_idx=len(table.coords))


def test_grid_qcav_refuses_when_no_level_is_feasible(salesman, monkeypatch):
    grid_table = oracle._grid_table
    monkeypatch.setattr(oracle, "_grid_table", lambda s, r: _prior_past_the_grid(grid_table(s, r)))
    with pytest.raises(CertificateError, match="no grid level straddles the prior"):
        grid_qcav_binary(compile_pieces(salesman), GridSpec(64))


def test_verify_exits_on_a_table_without_feasible_level(monkeypatch, capsys):
    # Only the quasi-concave oracle sees the doctored table; the CLI reports
    # the failure as a certificate error, not a traceback.
    grid_table, qcav = oracle._grid_table, oracle.grid_qcav_binary

    def doctored_qcav(structure, grid):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_grid_table", lambda s, r: _prior_past_the_grid(grid_table(s, r)))
            return qcav(structure, grid)

    monkeypatch.setattr(oracle, "grid_qcav_binary", doctored_qcav)
    assert main(["verify", str(GAMES / "salesman.json")]) == EXIT_CERTIFICATE
    captured = capsys.readouterr()
    assert captured.err == "certificate error: no grid level straddles the prior\n"


def test_hull_matches_literal_pair_search(three_actions):
    from medburn.envelopes import evaluate_subjective

    s = compile_pieces(three_actions)
    n = 30
    grid = GridSpec(n)
    simplex = (SubjectivePrior([0, 1]), SubjectivePrior(["1/2", "1/2"]))
    # with the affine weight -2 the reweighted share w is negative wherever
    # mu_H > 3/11, so max(w * hi, w * (lo - b)) can take its second branch
    affine = SubjectivePrior([-2, 3])
    cases = [(lam, b) for lam in simplex for b in (None, rat(0), rat(2))]
    cases += [(affine, rat(0)), (affine, rat(2))]
    for lam, budget in cases:
        f = {
            mu.weights: evaluate_subjective(s, lam, budget, mu)
            for mu in grid_beliefs(2, n)
        }
        prior_x = s.prior[0]
        best = evaluate_subjective(s, lam, budget, s.prior)
        for a, b in combinations_with_replacement(sorted(f), 2):
            if not (a[0] <= prior_x <= b[0]):
                continue
            if a[0] == b[0]:
                value = max(f[a], f[b]) if a[0] == prior_x else None
            else:
                w = (prior_x - a[0]) / (b[0] - a[0])
                value = (1 - w) * f[a] + w * f[b]
            if value is not None and value > best:
                best = value
        assert grid_concavify(s, lam, budget, grid) == best


def _reference_hull_value(table, vals):
    """Upper-concave-hull interpolation at the prior over every table point:
    the points sorted by first coordinate, Andrew's monotone chain, then the
    chord over the prior; ``vals`` holds a value for every point."""
    pts = sorted(zip((k[0] for k in table.coords), vals))
    hull = []
    for p in pts:
        if hull and hull[-1][0] == p[0]:
            if p[1] > hull[-1][1]:
                hull.pop()
            else:
                continue
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    x0 = table.coords[table.prior_idx][0]
    if x0 <= hull[0][0]:
        return rat(hull[0][1])
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x0 <= x2:
            return rat(y1 * (x2 - x1) + (y2 - y1) * (x0 - x1), x2 - x1)
    return rat(hull[-1][1])


def _reference_concavify(structure, lam, budget, resolution):
    """The two-type grid bound over every table point, not the run endpoints."""
    table = oracle._grid_table(structure, resolution)
    full = table._replace(scored=range(len(table.coords)))
    vals, den = oracle._pointwise_values(structure, lam, budget, full)
    return max(_reference_hull_value(full, vals), rat(vals[table.prior_idx])) / den


def _reference_qcav(structure, resolution):
    """The best level whose superlevel set straddles the prior, scanning every
    table point at every level."""
    table = oracle._grid_table(structure, resolution)
    x0 = table.coords[table.prior_idx][0]
    points = [(k[0], hi) for k, hi in zip(table.coords, table.hi)]
    for level in sorted(set(table.hi), reverse=True):
        if any(x <= x0 and v >= level for x, v in points) and any(
            x >= x0 and v >= level for x, v in points
        ):
            return rat(level, table.vden)
    raise CertificateError("no grid level straddles the prior")


def _binary_hull_cases():
    """(structure, resolution) for 50 two-type corpus games: at the snapped
    resolution, and at 31, which leaves every corpus prior off the grid."""
    games = [g for g in game_corpus(120, seed=1717) if g.n_types == 2][:50]
    assert len(games) == 50
    cases = []
    for game in games:
        s = compile_pieces(game)
        cases += [(s, snapped_resolution(s, 32)), (s, 31)]
    return cases


_HULL_LAMBDAS = [(lam, b) for lam in simplex_lambda_grid(2, 4) for b in (None, 0, 1, 2)] + [
    (lam, b) for lam in affine_lambda_grid_binary(-4, 2, 48) for b in (0, 1, 2)
]


def test_run_endpoint_hull_matches_the_all_points_hull():
    # Points inside a run of equal (lo, hi) lie on or under the chord of the
    # run's endpoints, so the hull over the endpoints is the full hull.
    for s, n in _binary_hull_cases():
        table = oracle._grid_table(s, n)
        assert table.prior_idx == table.n_grid or n != 31
        assert len(table.scored) < len(table.coords)
        for lam, b in _HULL_LAMBDAS:
            budget = None if b is None else rat(b)
            assert grid_concavify(s, lam, budget, GridSpec(n)) == _reference_concavify(
                s, lam, budget, n
            ), (s.prior, n, lam, b)
        assert grid_qcav_binary(s, GridSpec(n)) == _reference_qcav(s, n)


def test_dropping_a_run_endpoint_changes_the_hull(monkeypatch):
    # Negative control: the comparison above would catch a missing endpoint.
    grid_table = oracle._grid_table
    for s, n in _binary_hull_cases():
        table = grid_table(s, n)
        for j, i in enumerate(table.scored):
            if i == table.prior_idx:
                continue
            doctored = table._replace(scored=table.scored[:j] + table.scored[j + 1 :])
            monkeypatch.setattr(oracle, "_grid_table", lambda *_: doctored)
            for lam, b in _HULL_LAMBDAS:
                budget = None if b is None else rat(b)
                if grid_concavify(s, lam, budget, GridSpec(n)) != _reference_concavify(
                    s, lam, budget, n
                ):
                    return
            monkeypatch.setattr(oracle, "_grid_table", grid_table)
    pytest.fail("no dropped run endpoint changed any grid value")


@pytest.mark.parametrize("name, count", [("salesman", 6), ("three_actions", 8)])
def test_verify_tables_keep_only_run_endpoints(name, count):
    # The audit's snapped two-type tables score these few points, not every
    # grid point (257 and 361).
    s = load_game_file(str(GAMES / f"{name}.json")).any_structure()
    table = oracle._grid_table(s, snapped_resolution(s, 256))
    assert len(table.scored) == count


def test_dominance_and_monotone_gaps(salesman):
    s = compile_pieces(salesman)
    exact = value_bp(salesman)
    lam = SubjectivePrior.from_belief(s.prior)
    gaps = []
    upper_gaps = []
    for n in (64, 256, 1024):
        lower = grid_concavify(s, lam, None, GridSpec(n))
        assert lower <= exact
        gaps.append(exact - lower)
        upper, _ = grid_min_lambda(s, simplex_lambda_grid(2, 16), None, GridSpec(n))
        vstar, _ = value_mdmb(salesman)
        assert upper >= vstar or vstar - upper <= lipschitz_slack(s, lam, None, GridSpec(n))
        upper_gaps.append(abs(upper - vstar))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert upper_gaps[0] >= upper_gaps[1] >= upper_gaps[2]


def test_snapped_resolution(salesman):
    s = compile_pieces(salesman)
    n = snapped_resolution(s, 256)
    # boundary 1/2 and prior 1/4 force a multiple of 4
    assert n % 4 == 0 and n >= 256


def test_audit_fixture_games(salesman, three_actions):
    structure = compile_pieces(salesman)
    report = audit_structure(structure, protocol_report_structure(structure, [2]))
    assert report.ok
    names = [r.protocol for r in report.rows]
    assert names == ["bp", "ct", "mdmb", "md", "mdmb[C=2]"]
    structure2 = compile_pieces(three_actions)
    report2 = audit_structure(structure2, protocol_report_structure(structure2))
    assert report2.ok


def test_audit_structure_direct(abstract_structure):
    report = audit_structure(
        abstract_structure, protocol_report_structure(abstract_structure), grid=GridSpec(60)
    )
    assert report.ok
    by_name = {r.protocol: r for r in report.rows}
    assert by_name["bp"].exact == rat(5, 2)
    assert by_name["mdmb"].exact == rat(7, 3)


def test_audit_negative_control(salesman):
    # A report claiming a wrong MDMB value must be flagged on that row alone.
    structure = compile_pieces(salesman)
    doctored = dataclasses.replace(protocol_report_structure(structure), mdmb=rat(9, 10))
    report = audit_structure(structure, doctored, grid=GridSpec(256))
    assert not report.ok
    flagged = [r.protocol for r in report.rows if not r.satisfied]
    assert flagged == ["mdmb"]


def test_audit_negative_control_md(salesman):
    # The same for the budget-0 (mediation) certificate's value.
    structure = compile_pieces(salesman)
    report = protocol_report_structure(structure, [2])
    (zero, cert), *caps = report.capped
    wrong = dataclasses.replace(cert, value=rat(1, 2))
    doctored = dataclasses.replace(report, capped=((zero, wrong), *caps))
    audit = audit_structure(structure, doctored, grid=GridSpec(256))
    flagged = [r.protocol for r in audit.rows if not r.satisfied]
    assert flagged == ["md"]


def test_zero_cap_reuses_the_md_bound(monkeypatch, capsys):
    # A cap of 0 repeats MD's certificate, so its audit row repeats MD's row
    # without another grid minimum.
    calls = []
    grid_concavify = oracle.grid_concavify

    def counting(*args, **kwargs):
        calls.append(args)
        return grid_concavify(*args, **kwargs)

    monkeypatch.setattr(oracle, "grid_concavify", counting)
    path = str(GAMES / "three_actions.json")
    counts, rows = [], {}
    for extra in ([], ["--budget", "0"]):
        calls.clear()
        assert main(["verify", path, *extra]) == 0
        counts.append(len(calls))
        for line in capsys.readouterr().out.splitlines():
            label, *fields = line.split()
            rows[label] = fields
    assert counts[1] == counts[0]
    assert rows["mdmb[C=0]"] == rows["md"]


@pytest.mark.parametrize("name", ["abstract_pieces", "influencer", "salesman", "three_actions"])
def test_audit_solves_no_lp(monkeypatch, name):
    # Every exact value comes from the report: with each binding of ``solve``
    # made to raise, the audit of an already solved report still runs and passes.
    structure = load_game_file(str(GAMES / f"{name}.json")).any_structure()
    report = protocol_report_structure(structure, [1, 2])

    def refuse(program):
        raise AssertionError("the audit solved an LP")

    for module in ("medburn.geometry", "medburn.envelopes", "medburn.solvers"):
        monkeypatch.setattr(f"{module}.solve", refuse)
    assert audit_structure(structure, report).ok


def test_random_binary_games_dominance():
    # with piece boundaries and the prior on the grid, the hull bound is exact:
    # values are affine per piece, so optimal atoms sit at on-grid endpoints
    for game in [g for g in game_corpus(30, seed=1411) if g.n_types == 2][:10]:
        s = compile_pieces(game)
        n = snapped_resolution(s, 128)
        captured = all((w * n).denominator == 1 for w in s.prior.weights)
        for piece in s.pieces:
            (a,) = piece.actions
            for b in range(game.n_actions):
                # the boundary of (u_a - u_b) . (x, 1 - x) >= 0
                c0, c1 = (game.u[a][t] - game.u[b][t] for t in range(2))
                if b != a and c0 != c1:
                    x = -c1 / (c0 - c1)
                    if 0 <= x <= 1 and (x * n).denominator != 1:
                        captured = False
        exact = value_bp(game)
        lam = SubjectivePrior.from_belief(s.prior)
        lower = grid_concavify(s, lam, None, GridSpec(n))
        assert lower <= exact
        if captured:
            assert lower == exact


def _audit_text(report) -> str:
    def text(v):
        return "-" if v is None else format_fraction(v)

    return "\n".join(
        "|".join((r.protocol, text(r.exact), text(r.lower), text(r.upper), text(r.slack),
                  str(r.satisfied)))
        for r in report.rows
    )


def test_audit_rows_are_pinned():
    # The digest pins every audit row the oracle returns, exactly as the
    # Fraction oracle computed it: any change to the grid arithmetic must
    # leave the lower and upper bounds bit-identical.  The slack column also
    # reads the worst prior the LP returns, which moves with the simplex's
    # path wherever several reweightings attain the minimum.
    texts = []
    for name in ("abstract_pieces", "influencer", "salesman", "three_actions"):
        structure = load_game_file(str(GAMES / f"{name}.json")).any_structure()
        report = protocol_report_structure(structure, [1, 2])
        texts.append(_audit_text(audit_structure(structure, report)))
    for game in game_corpus(40, seed=8112):
        if game.n_types > 3:
            continue
        grid = GridSpec(30) if game.n_types == 3 else None
        structure = compile_pieces(game)
        report = protocol_report_structure(structure, [1, 2])
        texts.append(_audit_text(audit_structure(structure, report, grid=grid)))
    digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_AUDIT_DIGEST


def _negative_structure():
    """Direct pieces whose values are all negative, so every front key is too."""
    P = Polytope.on_simplex
    pieces = [
        ValuePiece(P(3, []), rat(-3), rat(-2), label="floor"),
        ValuePiece(P(3, [((1, 0, 0), ">=", "1/2")]), rat(-1), rat("-1/3"), label="east"),
        ValuePiece(P(3, [((0, 1, -1), ">=", "1/3")]), rat(-5), rat("-1/2"), label="north"),
    ]
    return direct_structure(pieces, Belief(["1/5", "2/5", "2/5"]))


def _three_type_cases():
    """(name, structure, resolution): the three-type fixtures and a negative
    direct structure at the audit's grid, every three-type game of
    ``game_corpus(200)`` at a coarser one."""
    cases = [
        (name, load_game_file(str(GAMES / f"{name}.json")).any_structure(), 60)
        for name in ("influencer", "abstract_pieces")
    ]
    cases.append(("negative", _negative_structure(), 60))
    cases += [
        (f"corpus{i}", compile_pieces(g), 24)
        for i, g in enumerate(game_corpus(200)) if g.n_types == 3
    ]
    return cases


def _brute_force_concavify(structure, lam, resolution):
    """Best of the prior atom and every candidate split, each scored by
    summing pointwise values."""
    table = oracle._grid_table(structure, resolution)
    vals, den = oracle._pointwise_values(structure, lam, None, table)
    best, best_den = vals[table.prior_idx], 1
    for combo, weights, delta in oracle._candidates(structure, resolution).every:
        v = sum(w * vals[i] for i, w in zip(combo, weights))
        if v * best_den > best * delta:
            best, best_den = v, delta
    return rat(best, best_den * den)


def _covers(f, g):
    """Whether key ``g``'s ``A / delta`` is componentwise at most ``f``'s."""
    return all(g[t] * f[3] <= f[t] * g[3] for t in range(3))


def test_front_scores_like_every_candidate():
    # Scoring a simplex reweighting on the front must give the maximum over
    # every candidate; the front must cover each candidate and be an antichain.
    rng = Random(8101)
    randoms = []
    for _ in range(20):
        parts = [rng.randint(0, 9) for _ in range(3)]
        parts[rng.randrange(3)] += 1
        randoms.append(SubjectivePrior([rat(p, sum(parts)) for p in parts]))
    sizes = {}
    for name, s, n in _three_type_cases():
        lams = simplex_lambda_grid(3, 4) + [SubjectivePrior.from_belief(s.prior)] + randoms
        for lam in lams:
            assert grid_concavify(s, lam, None, GridSpec(n)) == _brute_force_concavify(s, lam, n), (
                name, lam)
        table = oracle._grid_table(s, n)
        candidates = oracle._candidates(s, n)
        keys = [
            tuple(sum(w * table.hi[i] * table.coords[i][t] for i, w in zip(combo, weights))
                  for t in range(3)) + (delta,)
            for combo, weights, delta in candidates.every
        ]
        front = candidates.front
        assert set(front) <= set(keys), name
        assert all(any(_covers(f, g) for f in front) for g in keys), name
        assert not any(_covers(f, g) for f, g in permutations(front, 2)), name
        sizes[name] = len(front)
    assert sizes["influencer"] == 30 and sizes["abstract_pieces"] == 1
    assert max(sizes.values()) > 30  # some corpus game keeps a large front


def _reference_candidates(structure, resolution):
    """The candidate list built the direct way: ``_barycentric`` on every pool
    triple, and a walk along each ray through the prior until it leaves the
    simplex."""
    table = oracle._grid_table(structure, resolution)
    coords, prior_idx = table.coords, table.prior_idx
    prior = coords[prior_idx]
    index = {k: i for i, k in enumerate(coords)}
    out = []
    step = table.scale // resolution
    if all(v % step == 0 for v in prior):
        for i, k in enumerate(coords):
            if i == prior_idx:
                continue
            d = [prior[t] - k[t] for t in range(3)]
            g = 0
            for v in d:
                g = gcd(g, v // step)
            d = [v // g for v in d]
            j = 1
            while True:
                b = tuple(prior[t] + j * d[t] for t in range(3))
                if any(v < 0 for v in b):
                    break
                if b in index:
                    out.append(((i, index[b]), (j, g), g + j))
                j += 1
    for combo in combinations(oracle._boundary_pool(3, table, index), 3):
        w = oracle._barycentric(prior, *(coords[i] for i in combo))
        if w is not None:
            out.append((combo, *w))
    rng = Random(oracle._SEED)
    all_idx = list(range(len(coords)))
    for _ in range(oracle._RESTARTS):
        combo = tuple(rng.sample(all_idx, 3))
        w = oracle._barycentric(prior, *(coords[i] for i in combo))
        if w is not None:
            out.append((combo, *w))
    return tuple(out)


def test_candidate_list_is_pinned():
    # The cross-product table and the bounded walk build the same candidates,
    # in the same order, as the direct construction.
    structures = [
        load_game_file(str(GAMES / f"{name}.json")).any_structure()
        for name in ("influencer", "abstract_pieces")
    ]
    structures += [compile_pieces(g) for g in game_corpus(60) if g.n_types == 3]
    for s in structures:
        for n in (24, 60):
            assert oracle._candidates(s, n).every == _reference_candidates(s, n)
