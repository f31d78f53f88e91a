import math

import pytest

from medburn import Belief, rat, validate_game
from medburn.geometry import (
    PiecewiseValueStructure,
    Polytope,
    ValuePiece,
    best_responses,
    compile_pieces,
    is_generic,
    tie_region,
    value_interval,
)
from medburn.lp import EQ, GE, LE, NONNEG, OPTIMAL, LinearProgram, integer_rows, solve
from medburn.oracle import grid_beliefs
from medburn.solvers import protocol_report


def test_best_responses_salesman(salesman):
    assert best_responses(salesman, Belief(["3/10", "7/10"])) == (1,)  # pass
    assert best_responses(salesman, Belief(["1/2", "1/2"])) == (0, 1)  # tied
    assert best_responses(salesman, Belief(["4/5", "1/5"])) == (0,)


def test_best_responses_three_actions(three_actions):
    assert best_responses(three_actions, Belief(["1/5", "4/5"])) == (0, 1)


def test_value_interval(salesman, three_actions):
    assert value_interval(three_actions, Belief(["2/3", "1/3"])) == (rat(1, 4), rat(1))
    assert value_interval(salesman, Belief(["4/5", "1/5"])) == (rat(1), rat(1))
    assert value_interval(salesman, Belief(["1/2", "1/2"])) == (rat(0), rat(1))


def test_compile_pieces_salesman(salesman):
    s = compile_pieces(salesman)
    labels = [p.label for p in s.pieces]
    assert labels == ["{buy}", "{pass}"]
    buy, pas = s.pieces
    assert (buy.vmin, buy.vmax) == (rat(1), rat(1))
    assert (pas.vmin, pas.vmax) == (rat(0), rat(0))
    assert s.interval_at(Belief(["1/2", "1/2"])) == (rat(0), rat(1))
    # region extents on the 1-d slice
    assert pas.region.contains(Belief([0, 1]))
    assert pas.region.contains(Belief(["1/2", "1/2"]))
    assert not pas.region.contains(Belief(["3/5", "2/5"]))
    assert buy.region.contains(Belief(["1/2", "1/2"]))
    assert not buy.region.contains(Belief(["2/5", "3/5"]))
    tie = tie_region(salesman, (0, 1))
    assert tie.contains(Belief(["1/2", "1/2"]))
    assert not tie.contains(Belief(["1/4", "3/4"]))


def test_compile_pieces_influencer_tie_region(influencer):
    s = compile_pieces(influencer)
    mu = Belief(["1/2", "1/4", "1/4"])
    assert best_responses(influencer, mu) == (0, 1)
    assert tie_region(influencer, (0, 1)).contains(mu)
    assert s.interval_at(mu) == (rat(2), rat(3))


def test_compile_pieces_single_action(single_action):
    s = compile_pieces(single_action)
    assert len(s.pieces) == 1
    assert s.pieces[0].region.contains(Belief([1, 0]))
    assert s.pieces[0].region.contains(Belief(["1/3", "2/3"]))


@pytest.mark.parametrize("fixture", ["salesman", "three_actions", "influencer"])
def test_generic_fixtures(fixture, request):
    game = request.getfixturevalue(fixture)
    report = is_generic(game)
    assert report.generic
    assert report.failing is None
    # every witness really is a unique best response with the right support
    for support, action, witness in report.witnesses:
        assert witness.support() == support
        assert best_responses(game, witness) == (action,)


def test_duplicate_action_rows_break_genericity():
    game = validate_game(
        ["H", "L"],
        ["a1", "a2"],
        [[2, -1], [2, -1]],  # identical receiver payoffs, different sender values
        [0, 1],
        ["1/2", "1/2"],
    )
    report = is_generic(game)
    assert not report.generic
    assert report.failing is not None


def test_interval_matches_brute_force_on_grid(salesman, three_actions):
    # 13 actions all tied at (1/2, 1/2), and 16 actions tangent to a parabola,
    # each optimal around a/16 with neighbours tied at the grid points (2a+1)/32
    thirteen = validate_game(
        ["H", "L"],
        [f"a{i}" for i in range(13)],
        [[i, -i] for i in range(13)],
        list(range(13)),
        ["1/2", "1/2"],
    )
    sixteen = validate_game(
        ["H", "L"],
        [f"a{i}" for i in range(16)],
        [[32 * i - i * i, -i * i] for i in range(16)],
        [(7 * i) % 5 for i in range(16)],
        ["1/3", "2/3"],
    )
    assert len(compile_pieces(sixteen).pieces) == 16
    for game in (salesman, three_actions, thirteen, sixteen):
        structure = compile_pieces(game)
        for mu in grid_beliefs(2, 64):
            ro = best_responses(game, mu)
            expected = (min(game.v[a] for a in ro), max(game.v[a] for a in ro))
            assert value_interval(game, mu) == expected
            assert structure.interval_at(mu) == expected
        chain = protocol_report(game, [1, 2]).chain()
        assert list(chain) == sorted(chain)


def test_piece_coverage_on_grid(influencer):
    structure = compile_pieces(influencer)
    for mu in grid_beliefs(3, 64):
        tie = best_responses(influencer, mu)
        assert tie_region(influencer, tie).contains(mu)
        covering = [structure.pieces[i].actions for i in structure.pieces_at(mu)]
        assert covering == [(a,) for a in tie]


def test_tie_sets_hold_throughout_their_regions(influencer, three_actions):
    for game, dim, n in ((influencer, 3, 32), (three_actions, 2, 64)):
        structure = compile_pieces(game)
        for mu in grid_beliefs(dim, n):
            ro = set(best_responses(game, mu))
            for idx in structure.pieces_at(mu):
                assert set(structure.pieces[idx].actions) <= ro


def test_subset_value_consistency(influencer):
    structure = compile_pieces(influencer)
    for mu in grid_beliefs(3, 32):
        lo, hi = structure.interval_at(mu)
        for idx in structure.pieces_at(mu):
            piece = structure.pieces[idx]
            assert lo <= piece.vmin <= hi
            assert lo <= piece.vmax <= hi


def _implied_by_signs(coeffs, relation):
    """True when every z >= 0 satisfies ``coeffs . z REL 0``."""
    if relation == GE:
        return all(c >= 0 for c in coeffs)
    if relation == LE:
        return all(c <= 0 for c in coeffs)
    return all(c == 0 for c in coeffs)


def _holds(coeffs, relation, mu):
    lhs = sum(c * w for c, w in zip(coeffs, mu.weights))
    if relation == GE:
        return lhs >= 0
    if relation == LE:
        return lhs <= 0
    return lhs == 0


def _best_response_rows(game, a):
    """The rows ``tie_region`` is built from: ``(u_a - u_b) . mu >= 0`` per other action ``b``."""
    return [
        (tuple(game.u[a][t] - game.u[b][t] for t in range(game.n_types)), GE, rat(0))
        for b in range(game.n_actions)
        if b != a
    ]


def _dense(region):
    """A region's integer rows, read back as dense rationals over each row's denominator."""
    return tuple(
        (tuple(rat(dict(pairs).get(t, 0), den) for t in range(region.dim)), relation)
        for pairs, relation, rhs, den in region.rows
    )


@pytest.mark.parametrize("fixture", ["salesman", "influencer"])
def test_cone_rows_drop_exactly_the_sign_implied_rows(fixture, request):
    game = request.getfixturevalue(fixture)
    structure = compile_pieces(game)
    n = structure.dim
    for piece in structure.pieces:
        region = piece.region
        (a,) = piece.actions
        homogenized = [
            (tuple(c - rhs for c in coeffs), relation)
            for coeffs, relation, rhs in _best_response_rows(game, a)
        ]
        kept = _dense(region)
        for (pairs, _, rhs, den), (coeffs, _) in zip(region.rows, kept):
            assert rhs == 0 and all(v for _, v in pairs)
            assert den == math.lcm(*[c.denominator for c in coeffs])
        assert not any(_implied_by_signs(*row) for row in kept)
        assert kept == tuple(row for row in homogenized if not _implied_by_signs(*row))
        # the kept rows still cut the best-response region out of the simplex
        for mu in grid_beliefs(n, 24):
            inside = all(_holds(coeffs, relation, mu) for coeffs, relation in kept)
            assert inside == region.contains(mu) == (a in best_responses(game, mu))


def _contains_reference(rows, mu):
    """Containment by ``Fraction`` row sums over the literal rows, the exact reference."""
    for coeffs, relation, rhs in rows:
        lhs = sum((rat(c) * w for c, w in zip(coeffs, mu.weights)), rat(0))
        rhs = rat(rhs)
        if (relation == LE and lhs > rhs) or (relation == GE and lhs < rhs):
            return False
        if relation == EQ and lhs != rhs:
            return False
    return True


def _empty_reference(dim, rows):
    """Emptiness by one LP over the literal ``Fraction`` rows plus the simplex."""
    cons = [({t: 1 for t in range(dim)}, EQ, 1)]
    cons += [(dict(enumerate(rat(c) for c in coeffs)), rel, rhs) for coeffs, rel, rhs in rows]
    return solve(LinearProgram("max", [NONNEG] * dim, {}, integer_rows(cons))).status != OPTIMAL


def test_integer_containment_matches_fraction_reference(influencer):
    # Two regions with an '=' row, fractional coefficients and facets through
    # grid points, plus influencer's pieces; the grid holds the vertices.
    literal = [
        [([1, -1, 0], EQ, 0), (["1/3", "-2/5", "1/2"], LE, "1/5")],
        [([2, 1, 0], GE, "1/2"), ([0, "3/4", -1], LE, "1/4")],
    ]
    regions = [Polytope.on_simplex(3, rows) for rows in literal]
    for piece in compile_pieces(influencer).pieces:
        literal.append(_best_response_rows(influencer, piece.actions[0]))
        regions.append(piece.region)
    structure = PiecewiseValueStructure(
        tuple(ValuePiece(r, rat(0), rat(1)) for r in regions), influencer.prior
    )
    tight = {LE: 0, EQ: 0, GE: 0}
    for mu in grid_beliefs(3, 30) + (influencer.prior,):
        expected = tuple(i for i, rows in enumerate(literal) if _contains_reference(rows, mu))
        assert structure.pieces_at(mu) == expected
        # the same point over a multiple of its least common denominator
        scale = 7 * 30 * 60
        point = [int(w * scale) for w in mu.weights]
        assert structure.pieces_at_scaled(point, scale) == expected
        for i, region in enumerate(regions):
            assert region.contains(mu) == (i in expected)
            for coeffs, relation, rhs in literal[i]:
                tight[relation] += i in expected and _holds(
                    [rat(c) - rat(rhs) for c in coeffs], EQ, mu
                )
    assert min(tight.values()) > 0, tight


# Direct regions with a row of every trim class: for each relation, one row
# that z >= 0 implies after homogenizing (dropped) and kept rows with and
# without both signs.  Each entry: literal rows, relations kept, empty?
_TRIM_REGIONS = [
    (
        [
            ([2, 1, 1], GE, 1),  # (1, 0, 0) >= 0: dropped
            ([1, -1, 0], GE, 0),  # mixed signs: kept
            ([1, 1, "1/2"], LE, 1),  # (0, 0, -1/2) <= 0: dropped
            (["1/3", "-2/5", "1/2"], LE, "1/5"),  # mixed signs: kept
            ([1, 1, 1], EQ, 1),  # all zeros: dropped
        ],
        [GE, LE],
        False,
    ),
    (
        [
            ([1, 1, 0], GE, 1),  # (0, 0, -1) >= 0, no positive: kept (the face mu_2 = 0)
            ([1, 0, 0], LE, "2/3"),
            ([0, 0, 0], GE, 0),  # all zeros: dropped
        ],
        [GE, LE],
        False,
    ),
    (
        [
            ([1, 2, 1], LE, 1),  # (0, 1, 0) <= 0, no negative: kept (the face mu_1 = 0)
            ([1, 0, -1], EQ, 0),  # kept: the single point (1/2, 0, 1/2)
            ([0, 0, 0], LE, 0),  # all zeros: dropped
        ],
        [LE, EQ],
        False,
    ),
    (
        [
            ([2, 1, 1], GE, 1),  # dropped
            ([1, -1, 0], GE, 0),
            ([0, 1, 0], GE, "3/4"),  # with the row above, no belief is left
        ],
        [GE, GE],
        True,
    ),
]


@pytest.mark.parametrize("rows, relations, empty", _TRIM_REGIONS)
def test_trimmed_rows_match_the_literal_region(rows, relations, empty):
    region = Polytope.on_simplex(3, rows)
    assert [relation for _, relation, _, _ in region.rows] == relations
    assert not any(_implied_by_signs(*row) for row in _dense(region))
    assert region.is_empty() == empty == _empty_reference(3, rows)
    inside = 0
    for mu in grid_beliefs(3, 30):
        expected = _contains_reference(rows, mu)
        assert region.contains(mu) == expected
        inside += expected
    assert (inside == 0) == empty
