import random
from itertools import combinations

import pytest

from medburn import Belief, SubjectivePrior, rat
from medburn.envelopes import (
    concavify_weighted,
    evaluate_subjective,
    quasiconcavify,
    subjective_weight,
    worst_prior_envelope,
)
from medburn.geometry import PiecewiseValueStructure, ValuePiece, compile_pieces, tie_region
from medburn.oracle import GridSpec, grid_concavify, lipschitz_slack
from random_games import game_corpus


def cav(structure, lam, budget=None):
    return concavify_weighted(structure, lam, budget)


def test_salesman_low_type_share(salesman):
    s = compile_pieces(salesman)
    result = cav(s, SubjectivePrior([0, 1]))
    assert result.value == rat(1, 3)  # prior/(1-prior) at prior 1/4
    split = {a.belief.weights: a.weight for a in result.atoms}
    assert split == {
        (rat(1, 2), rat(1, 2)): rat(1, 2),
        (rat(0), rat(1)): rat(1, 2),
    }


def test_influencer_vertex_reweightings(influencer):
    s = compile_pieces(influencer)
    assert cav(s, SubjectivePrior([1, 0, 0])).value == 3
    assert cav(s, SubjectivePrior([0, 1, 0])).value == 3
    assert cav(s, SubjectivePrior([0, 0, 1])).value == rat(8, 3)


def test_influencer_worst_reweighting(influencer):
    s = compile_pieces(influencer)
    result = cav(s, SubjectivePrior([0, "1/2", "1/2"]))
    assert result.value == rat(5, 2)


def test_reweighting_at_prior_is_plain_concavification(salesman, three_actions):
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        lam = SubjectivePrior.from_belief(s.prior)
        result = cav(s, lam)
        for atom in result.atoms:
            assert subjective_weight(lam, s.prior, atom.belief) == 1


def test_quasiconcavify(salesman, three_actions, single_action):
    assert quasiconcavify(compile_pieces(salesman)) == 0
    assert quasiconcavify(compile_pieces(three_actions)) == rat(1, 4)
    assert quasiconcavify(compile_pieces(single_action)) == 7


def test_evaluate_subjective_budget_table(salesman):
    # the two-branch pointwise value at the tie belief
    s = compile_pieces(salesman)
    lam = SubjectivePrior([-1, 2])
    mu = Belief(["1/2", "1/2"])
    w = subjective_weight(lam, s.prior, mu)
    assert w == rat(-2, 3)
    assert evaluate_subjective(s, lam, rat(2), mu) == max(w * 1, w * (0 - 2))
    assert evaluate_subjective(s, lam, rat(2), mu) == rat(4, 3)


def test_evaluate_subjective_max_only(three_actions):
    s = compile_pieces(three_actions)
    assert evaluate_subjective(
        s, SubjectivePrior([1, 0]), None, Belief(["2/3", "1/3"])
    ) == rat(10, 3)
    lam = SubjectivePrior.from_belief(s.prior)
    assert evaluate_subjective(s, lam, None, s.prior) == rat(1, 4)


def test_result_invariants_and_caratheodory(influencer):
    s = compile_pieces(influencer)
    lam = SubjectivePrior(["1/3", "1/3", "1/3"])
    result = cav(s, lam)
    assert len(result.atoms) <= 4  # |types| + 1
    total = sum((a.weight for a in result.atoms), rat(0))
    assert total == 1
    recombined = sum(
        (a.weight * subjective_weight(lam, s.prior, a.belief) * a.value for a in result.atoms),
        rat(0),
    )
    assert recombined == result.value
    for atom in result.atoms:
        piece = s.pieces[atom.piece]
        assert piece.region.contains(atom.belief)
        assert atom.value == piece.vmax  # max-only branch


def test_cav_dominates_pointwise(salesman, three_actions):
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        for lam in (SubjectivePrior([1, 0]), SubjectivePrior(["1/2", "1/2"])):
            assert cav(s, lam).value >= evaluate_subjective(s, lam, None, s.prior)
        lam = SubjectivePrior(["-1/2", "3/2"])
        assert (
            cav(s, lam, rat(1)).value
            >= evaluate_subjective(s, lam, rat(1), s.prior)
        )


def test_worst_prior_requires_full_support(salesman):
    s = compile_pieces(salesman).with_prior(Belief([1, 0]))
    with pytest.raises(ValueError):
        worst_prior_envelope(s, None)


def test_query_validation(salesman):
    s = compile_pieces(salesman)
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([-1, 2]))
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([1, 0]), rat(-1))
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([1, 0, 0]))


def test_binary_grid_oracle_agreement(salesman, three_actions):
    grid = GridSpec(4096)
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        for lam in (
            SubjectivePrior([1, 0]),
            SubjectivePrior([0, 1]),
            SubjectivePrior(["1/2", "1/2"]),
            SubjectivePrior.from_belief(s.prior),
        ):
            exact = cav(s, lam).value
            bound = grid_concavify(s, lam, None, grid)
            slack = max(rat(1, 1024), lipschitz_slack(s, lam, None, grid))
            assert bound <= exact <= bound + slack


def tie_pieces(game):
    """Every nonempty region of a tie set of two or more actions, as a piece."""
    out = []
    for size in range(2, game.n_actions + 1):
        for tie in combinations(range(game.n_actions), size):
            region = tie_region(game, tie)
            if not region.is_empty():
                values = [game.v[a] for a in tie]
                out.append(ValuePiece(region, min(values), max(values), tie))
    return out


def test_full_and_reduced_piece_sets_agree():
    rng = random.Random(424242)
    corpus = [g for g in game_corpus(40, seed=8112)[:40]]
    checked = 0
    for game in corpus:
        if checked >= 12:
            break
        s = compile_pieces(game)
        ties = tie_pieces(game)
        if not ties:
            continue  # no tie pieces to add; nothing to compare
        full = PiecewiseValueStructure(s.pieces + tuple(ties), s.prior)
        lam = SubjectivePrior.from_belief(s.prior)
        assert cav(s, lam).value == cav(full, lam).value
        assert quasiconcavify(s) == quasiconcavify(full)
        for budget in (None, rat(0), rat(1)):
            assert (
                worst_prior_envelope(s, budget).envelope.value
                == worst_prior_envelope(full, budget).envelope.value
            )
        checked += 1
    assert checked >= 8


def test_caratheodory_reduction_on_integer_atoms():
    # No envelope LP of the suite returns more than |types| + 1 atoms, so the
    # reduction is driven directly: a constant value, and four atoms of
    # weight 1/4 at (0, 1), (1/4, 3/4), (3/4, 1/4) and (1, 0), as block sums
    # over 16.
    from medburn import envelopes
    from medburn.geometry import Polytope
    from medburn.lp import CertificateError

    piece = ValuePiece(Polytope.on_simplex(2), rat(1), rat(1))
    structure = PiecewiseValueStructure((piece,), Belief(["1/2", "1/2"]))
    lam = SubjectivePrior.from_belief(structure.prior)
    parts = [envelopes._Part(z, 0, "max", rat(1)) for z in ((0, 4), (1, 3), (3, 1), (4, 0))]
    beliefs = {(rat(z[0], 4), rat(z[1], 4)) for z, *_ in parts}
    kept, den = envelopes._caratheodory_reduce(structure, lam, parts, 16, rat(1))
    assert 1 <= len(kept) <= 3
    envelopes._check_split(structure, lam, kept, den, rat(1))
    atoms = envelopes._atoms(kept, den)
    assert {a.belief.weights for a in atoms} <= beliefs
    assert sum(a.weight for a in atoms) == 1
    assert all(sum(a.weight * a.belief[t] for a in atoms) == rat(1, 2) for t in range(2))
    # one block sum moved by one no longer averages to the prior
    moved = [kept[0]._replace(z=(kept[0].z[0] + 1,) + kept[0].z[1:])] + kept[1:]
    with pytest.raises(CertificateError, match="Bayes-plausible"):
        envelopes._check_split(structure, lam, moved, den, rat(1))
