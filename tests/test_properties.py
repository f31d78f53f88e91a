"""Structural sanity properties on randomly drawn games."""

import random

from medburn import Belief, SubjectivePrior, rat, validate_game
from medburn.envelopes import concavify_weighted, subjective_weight
from medburn.geometry import compile_pieces
from medburn.solvers import (
    interim_payoffs,
    value_bp,
    value_mdmb,
    verify_saddle,
)
from random_games import game_corpus
from references import max_selection


def test_envelope_decompositions_are_bayes_plausible():
    for game in game_corpus(12, seed=3001):
        structure = compile_pieces(game)
        lam = SubjectivePrior.from_belief(structure.prior)
        result = concavify_weighted(structure, lam)
        total = [rat(0)] * structure.dim
        for atom in result.atoms:
            for t in range(structure.dim):
                total[t] += atom.weight * atom.belief[t]
        assert tuple(total) == structure.prior.weights
        assert len(result.atoms) <= structure.dim + 1
        assert result.value == value_bp(game)


def test_certificates_verify_and_reprice(salesman, influencer, three_actions):
    from medburn.core import restrict_to_support
    from medburn.solvers import value_mdmb_budget

    for game in list(game_corpus(10, seed=3002)) + [salesman, influencer, three_actions]:
        value, cert = value_mdmb(game)
        assert verify_saddle(game, cert).ok
        restricted = restrict_to_support(game)
        payoffs = interim_payoffs(restricted, cert.p_star, max_selection(restricted, cert.p_star))
        assert payoffs == cert.per_type_payoffs
        assert min(payoffs) == value
        for cap in (0, 1):
            _, budget_cert = value_mdmb_budget(game, cap)
            assert verify_saddle(game, budget_cert, cap).ok


def test_values_invariant_under_action_relabeling():
    rng = random.Random(3003)
    for game in game_corpus(8, seed=3004):
        perm = list(range(game.n_actions))
        rng.shuffle(perm)
        shuffled = validate_game(
            game.types,
            [game.actions[a] for a in perm],
            [game.u[a] for a in perm],
            [game.v[a] for a in perm],
            game.prior,
        )
        assert value_bp(game) == value_bp(shuffled)
        assert value_mdmb(game)[0] == value_mdmb(shuffled)[0]


def test_duplicate_action_changes_nothing():
    for game in game_corpus(6, seed=3005):
        doubled = validate_game(
            game.types,
            list(game.actions) + ["copy"],
            list(game.u) + [game.u[0]],
            list(game.v) + [game.v[0]],
            game.prior,
        )
        assert value_bp(game) == value_bp(doubled)
        assert value_mdmb(game)[0] == value_mdmb(doubled)[0]


def test_reweighting_identity():
    # the reweighting factor integrates to one over any plausible decomposition
    for game in game_corpus(6, seed=3006):
        structure = compile_pieces(game)
        lam = SubjectivePrior.from_belief(structure.prior)
        result = concavify_weighted(structure, lam)
        total = sum(
            (a.weight * subjective_weight(lam, structure.prior, a.belief) for a in result.atoms),
            rat(0),
        )
        assert total == 1
