from itertools import combinations
from random import Random

import pytest
from scipy.optimize import linprog

import medburn.solvers as solvers
from medburn import Belief, PosteriorDistribution, SubjectivePrior, rat, validate_game
from medburn.geometry import best_responses, compile_pieces, is_generic
from medburn.solvers import (
    InadmissibleValue,
    SaddleCertificate,
    interim_payoffs,
    protocol_report,
    protocol_report_structure,
    value_bp,
    value_bp_structure,
    value_ct,
    value_md,
    value_mdmb,
    value_mdmb_budget,
    value_mdmb_budget_structure,
    value_mdmb_structure,
    verify_saddle,
)
from random_games import random_game_of_shape, random_interior_prior
from references import NotBinary, max_selection, value_mdmb_binary


def tau_star():
    return PosteriorDistribution(
        [
            (Belief(["1/2", "1/4", "1/4"]), rat(2, 3)),
            (Belief([0, "1/2", "1/2"]), rat(1, 3)),
        ]
    )


def test_interim_payoffs_influencer(influencer):
    p = tau_star()
    payoffs = interim_payoffs(influencer, p, max_selection(influencer, p))
    assert payoffs == (rat(3), rat(5, 2), rat(5, 2))


def test_interim_payoffs_trivial_scheme(salesman):
    p = PosteriorDistribution([(salesman.prior, 1)])
    payoffs = interim_payoffs(salesman, p, max_selection(salesman, p))
    assert payoffs == (rat(0), rat(0))  # pass is optimal at the prior


def test_interim_payoffs_salesman_split(salesman):
    p = PosteriorDistribution(
        [(Belief(["1/2", "1/2"]), rat(1, 2)), (Belief([0, 1]), rat(1, 2))]
    )
    payoffs = interim_payoffs(salesman, p, max_selection(salesman, p))
    assert payoffs == (rat(1), rat(1, 3))


def test_interim_payoffs_rejects_inadmissible(salesman):
    p = PosteriorDistribution([(salesman.prior, 1)])
    with pytest.raises(InadmissibleValue):
        interim_payoffs(salesman, p, [rat(1, 2)])  # only 0 achievable at the prior


def test_value_bp(salesman, three_actions):
    assert value_bp(salesman) == rat(1, 2)
    assert value_bp(three_actions) == rat(3, 10)
    assert value_bp(salesman.with_prior(Belief(["3/5", "2/5"]))) == 1


def test_value_ct(salesman, three_actions):
    assert value_ct(salesman) == 0
    assert value_ct(three_actions) == rat(1, 4)
    assert value_ct(salesman.with_prior(Belief(["3/5", "2/5"]))) == 1


def test_value_mdmb_budget_curve(salesman):
    value, cert = value_mdmb_budget(salesman, 2)
    assert value == rat(1, 5)
    assert verify_saddle(salesman, cert, 2).ok
    assert value_mdmb_budget(salesman, 1)[0] == 0
    high = salesman.with_prior(Belief(["3/5", "2/5"]))
    for cap in (0, 1, 7):
        assert value_mdmb_budget(high, cap)[0] == 1


def test_budget_curve_closed_form_dense(salesman):
    # worked closed form of the binary fixture: 0 up to cap 1, then a hyperbola
    for mu0 in (rat(1, 10), rat(1, 5), rat(3, 10), rat(2, 5), rat(9, 20)):
        game = salesman.with_prior(Belief([mu0, 1 - mu0]))
        for cap in (rat(1, 8), rat(1, 2), rat(1), rat(5, 4), rat(2), rat(4)):
            expect = 0 if cap <= 1 else (cap - 1) * mu0 / (cap * (1 - mu0) - mu0)
            assert value_mdmb_budget(game, cap)[0] == expect
    high = salesman.with_prior(Belief(["1/2", "1/2"]))
    assert value_mdmb_budget(high, rat(1, 2))[0] == 1


def test_budget_values_climb_toward_unlimited_burning(salesman):
    # the budget curve approaches the unlimited value from below, never meeting it
    unlimited, _ = value_mdmb(salesman)
    previous = None
    for cap in (2, 4, 8, 16, 64):
        value = value_mdmb_budget(salesman, cap)[0]
        assert value < unlimited
        if previous is not None:
            assert value > previous
        previous = value


def test_value_md(salesman, abstract_structure):
    assert value_md(salesman) == 0
    from medburn.solvers import value_mdmb_budget_structure

    assert value_mdmb_budget_structure(abstract_structure, 0)[0] == rat(7, 3)


def test_value_md_single_type():
    g = validate_game(["only"], ["a", "b"], [[2], [1]], [5, 9], [1])
    assert value_md(g) == 5  # receiver picks a, worth 5 to the sender


def test_value_mdmb(salesman, influencer, three_actions):
    v, cert = value_mdmb(salesman)
    assert v == rat(1, 3)
    assert min(cert.per_type_payoffs) == v
    assert verify_saddle(salesman, cert).ok

    v1, cert1 = value_mdmb(influencer)
    assert v1 == rat(5, 2)
    assert verify_saddle(influencer, cert1).ok

    v2, _ = value_mdmb(three_actions)
    assert v2 == rat(1, 4)


def test_value_mdmb_binary(salesman, three_actions, influencer):
    assert value_mdmb_binary(salesman) == rat(1, 3)  # min{1, 1/3}
    assert value_mdmb_binary(three_actions) == rat(1, 4)  # min{1, 1/4}
    assert value_mdmb_binary(salesman.with_prior(Belief(["3/5", "2/5"]))) == 1
    with pytest.raises(NotBinary):
        value_mdmb_binary(influencer)


def test_verify_saddle_paper_certificate(influencer):
    p = tau_star()
    payoffs = interim_payoffs(influencer, p, max_selection(influencer, p))
    cert = SaddleCertificate(
        SubjectivePrior([0, "1/2", "1/2"]), p, rat(5, 2), payoffs
    )
    verdict = verify_saddle(influencer, cert)
    assert verdict.ok
    assert payoffs[0] == 3 and payoffs[0] > rat(5, 2)


def test_verify_saddle_rejects_wrong_reweighting(influencer):
    p = tau_star()
    payoffs = interim_payoffs(influencer, p, max_selection(influencer, p))
    cert = SaddleCertificate(
        SubjectivePrior(["1/3", "1/3", "1/3"]), p, rat(5, 2), payoffs
    )
    verdict = verify_saddle(influencer, cert)
    assert not verdict.ok
    assert "directional payoff" in verdict.first_violation


def test_verify_saddle_single_type():
    g = validate_game(["only"], ["a", "b"], [[2], [1]], [5, 9], [1])
    p = PosteriorDistribution([(Belief([1]), 1)])
    cert = SaddleCertificate(SubjectivePrior([1]), p, rat(5), (rat(5),))
    assert verify_saddle(g, cert).ok


def test_protocol_report_salesman(salesman):
    report = protocol_report(salesman, [1, 2])
    assert report.chain() == (0, 0, 0, rat(1, 5), rat(1, 3), rat(1, 2))


def test_protocol_report_three_actions(three_actions):
    report = protocol_report(three_actions)
    assert report.ct == report.md == report.mdmb == rat(1, 4)
    assert report.bp == rat(3, 10)
    assert report.mdmb < report.bp


def test_protocol_report_structure(abstract_structure):
    report = protocol_report_structure(abstract_structure)
    assert report.md == report.mdmb == rat(7, 3)
    assert report.ct == 2
    assert report.ct < rat(7, 3)
    assert report.bp == rat(5, 2)


def test_protocol_report_degenerate_prior(salesman):
    report = protocol_report(salesman.with_prior(Belief([1, 0])), [2])
    assert set(report.chain()) == {rat(1)}  # buy is optimal when quality is known high


def test_protocol_report_solves_each_distinct_cap_once(salesman, monkeypatch):
    # MD is solved first and without a start; every distinct cap above 0 and
    # unlimited burning are solved once each, from MD's basis.
    solved = []
    worst_prior_envelope = solvers.worst_prior_envelope

    def counting(structure, budget, start=None):
        solved.append((budget, start))
        return worst_prior_envelope(structure, budget, start)

    monkeypatch.setattr(solvers, "worst_prior_envelope", counting)
    structure = compile_pieces(salesman)
    report = protocol_report_structure(structure, [1, 1, "1/1"])
    assert [budget for budget, _ in solved] == [0, 1, None]
    md_start, cap_start, unlimited_start = [start for _, start in solved]
    assert md_start is None and cap_start is not None and cap_start is unlimited_start
    assert report.budgeted == ((1, 0),)

    # a zero cap is mediation: its row reuses MD's certificate
    solved.clear()
    report = protocol_report_structure(structure, [2, 0])
    assert [budget for budget, _ in solved] == [0, 2, None]
    (md_cap, md_cert), (zero_cap, zero_cert), (two_cap, _) = report.capped
    assert (md_cap, zero_cap, two_cap) == (0, 0, 2)
    assert zero_cert is md_cert
    assert report.budgeted == ((0, report.md), (2, rat(1, 5)))


def _obedient_program(u, v, prior, objective, burns=(0.0,)):
    """BP, MDMB, MD or MDMB[C] as a float LP over ``x[t][m] >= 0``.

    Built from ``u``, ``v`` and the prior alone.  A message ``m`` is a pair
    (recommended action ``a``, burn level ``c`` in ``burns``) and pays the
    sender ``v[a] - c``; ``x[t][m]`` is the joint mass of type ``t`` and
    message ``m``.  Each type's masses sum to its prior and every message's
    recommendation is obeyed.  ``objective`` "expected" (BP) maximises the
    sender's expected value; "worst" (MDMB) adds a free ``eta`` below every
    type's conditional payoff and "equal" (MD, and MDMB[C] with burns 0
    and C) makes every type's conditional payoff equal ``eta``; both
    maximise ``eta``.
    """
    n_actions, n_types = len(u), len(prior)
    messages = [(a, c) for a in range(n_actions) for c in burns]
    with_eta = objective != "expected"
    n = n_types * len(messages) + with_eta
    col = lambda t, m: t * len(messages) + m  # noqa: E731
    a_eq, b_eq = [], []
    for t in range(n_types):
        row = [0.0] * n
        for m in range(len(messages)):
            row[col(t, m)] = 1.0
        a_eq.append(row)
        b_eq.append(prior[t])
    a_ub, b_ub = [], []
    for m, (a, _) in enumerate(messages):
        for b in range(n_actions):
            if a != b:
                row = [0.0] * n
                for t in range(n_types):
                    row[col(t, m)] = -(u[a][t] - u[b][t])
                a_ub.append(row)
                b_ub.append(0.0)
    cost = [0.0] * n
    if with_eta:
        for t in range(n_types):
            row = [0.0] * n
            row[-1] = 1.0
            for m, (a, c) in enumerate(messages):
                row[col(t, m)] = -(v[a] - c) / prior[t]
            (a_ub if objective == "worst" else a_eq).append(row)
            (b_ub if objective == "worst" else b_eq).append(0.0)
        cost[-1] = -1.0
    else:
        for t in range(n_types):
            for m, (a, c) in enumerate(messages):
                cost[col(t, m)] = -(v[a] - c)
    bounds = [(0, None)] * (n - with_eta) + [(None, None)] * with_eta
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("shape", [(4, 6), (4, 8), (5, 8), (6, 8)], ids="{0[0]}x{0[1]}".format)
def test_bp_and_mdmb_agree_with_an_independent_float_program(shape):
    # Past three types the grid oracle cannot audit the values; an obedience
    # program solved in floating point by HiGHS checks BP, MDMB, MD and
    # MDMB[C] for C = 1, 2 instead.
    n_types, n_actions = shape
    rng = Random(f"float-check-{n_types}x{n_actions}")
    for _ in range(4):
        game = random_game_of_shape(rng, n_types, n_actions)
        u = [[float(x) for x in row] for row in game.u]
        v = [float(x) for x in game.v]
        prior = [float(p) for p in game.prior.weights]
        checks = [
            ("bp", value_bp(game), "expected", (0.0,)),
            ("mdmb", value_mdmb(game)[0], "worst", (0.0,)),
            ("md", value_md(game), "equal", (0.0,)),
        ]
        checks += [
            (f"mdmb[C={c}]", value_mdmb_budget(game, c)[0], "equal", (0.0, float(c)))
            for c in (1, 2)
        ]
        for name, exact, objective, burns in checks:
            ref = _obedient_program(u, v, prior, objective, burns)
            assert abs(float(exact) - ref) <= 1e-7 * max(1.0, abs(ref)), (game, name)
        assert value_ct(game) == _cheap_talk_level(u, v, prior), (game, "ct")


def _cheap_talk_level(u, v, prior):
    """CT as the highest level of ``v`` at which HiGHS finds an obedient split.

    At a level, ``x[t][a] >= 0`` is the joint mass of type ``t`` and a
    recommended action ``a`` worth at least the level; each type's masses
    sum to its prior and every recommendation is obeyed.  CT is a value of
    ``v``, so the level compares exactly.
    """
    n_actions, n_types = len(u), len(prior)
    for level in sorted(set(v), reverse=True):
        allowed = [a for a in range(n_actions) if v[a] >= level]
        n = n_types * len(allowed)
        a_eq = [[float(j // len(allowed) == t) for j in range(n)] for t in range(n_types)]
        a_ub = []
        for i, a in enumerate(allowed):
            for b in range(n_actions):
                if b != a:
                    row = [0.0] * n
                    for t in range(n_types):
                        row[t * len(allowed) + i] = -(u[a][t] - u[b][t])
                    a_ub.append(row)
        res = linprog([0.0] * n, A_ub=a_ub or None, b_ub=[0.0] * len(a_ub) or None,
                      A_eq=a_eq, b_eq=prior, bounds=[(0, None)] * n, method="highs")
        assert res.status in (0, 2)  # feasible or infeasible, nothing else
        if res.status == 0:
            return level
    raise AssertionError("the lowest level holds every action, so it must be feasible")


@pytest.mark.parametrize("shape", [(4, 6), (5, 6), (6, 6)], ids="{0[0]}x{0[1]}".format)
def test_burning_strictly_improves_mediation_past_three_types(shape):
    # The paper's claim on generic games: wherever commitment is valuable
    # (MD < BP), burning strictly helps mediation (MD < MDMB).  Receiver
    # payoffs come from [-60, 60], as draws from [-5, 5] are rarely generic
    # at four or more types.
    n_types, n_actions = shape
    rng = Random(f"headline-{n_types}x{n_actions}")
    failing, improved = [], 0
    for _ in range(4):
        game = random_game_of_shape(rng, n_types, n_actions, u_bound=60)
        assert is_generic(game).generic, game
        for _ in range(5):
            shifted = game.with_prior(random_interior_prior(rng, n_types))
            md = value_md(shifted)
            if md < value_bp(shifted):
                if md < value_mdmb(shifted)[0]:
                    improved += 1
                else:
                    failing.append((shifted.u, shifted.v, str(shifted.prior)))
    assert not failing, failing
    assert improved, "no sampled prior where commitment is valuable"
    print(f"burning strictly improves mediation at {improved} of {4 * 5} priors")


# -- where burning gains nothing: receiver ties -------------------------------
# The claim above holds at almost every prior, so random interior priors never
# test the measure-zero set where it may fail.  These tests go there: priors
# where two actions tie as the receiver's best response.


def _two_type_ties(game):
    """The interior priors of a two-type game where two actions tie as best
    responses."""
    ties = set()
    for a, b in combinations(range(game.n_actions), 2):
        h0, h1 = game.u[a][0] - game.u[b][0], game.u[a][1] - game.u[b][1]
        if h0 != h1 and 0 < h1 / (h1 - h0) < 1:
            mu = Belief([h1 / (h1 - h0), h0 / (h0 - h1)])
            if {a, b} <= set(best_responses(game, mu)):
                ties.add(mu)
    return sorted(ties, key=lambda mu: mu.weights)


def _perturbations(mu):
    """``mu`` moved by +-1/1000 and +-1/10**6 along every edge direction."""
    out = []
    for i, j in combinations(range(len(mu)), 2):
        for step in (rat(1, 1000), rat(-1, 1000), rat(1, 10**6), rat(-1, 10**6)):
            w = list(mu.weights)
            w[i] += step
            w[j] -= step
            out.append(Belief(w))
    return out


def _rows(rows):
    return "; ".join(",".join(map(str, row)) for row in rows)


def _md_mdmb_bp(structure, mu):
    at = structure.with_prior(mu)
    md = value_mdmb_budget_structure(at, 0)[0]
    return md, value_mdmb_structure(at)[0], value_bp_structure(at)


def _no_gain_at_ties(game, ties):
    """The priors among ``ties`` and their perturbations where commitment is
    valuable (MD < BP) but burning gains nothing (MD = MDMB), each with
    whether it lies on a tie; and the perturbations of such a tie where
    burning still gains nothing.  Every exception is printed."""
    structure = compile_pieces(game)
    exceptions, unrestored = [], []
    for tie in ties:
        near = _perturbations(tie)
        values = {mu: _md_mdmb_bp(structure, mu) for mu in [tie] + near}
        for mu, (md, mdmb, bp) in values.items():
            if md < bp and md == mdmb:
                on_tie = len(best_responses(game, mu)) > 1
                exceptions.append((mu, on_tie))
                print(f"no gain from burning at {mu}: MD = MDMB = {md} < BP = {bp}, "
                      f"{'on a tie' if on_tie else 'OFF EVERY TIE'}; "
                      f"u = {_rows(game.u)}, v = {_rows([game.v])}")
        md, mdmb, bp = values[tie]
        if md < bp and md == mdmb:
            unrestored += [mu for mu in near if not values[mu][0] < values[mu][1]]
    return exceptions, unrestored


def test_burning_gains_nothing_only_on_receiver_ties(salesman, three_actions):
    rng = Random("tie-priors")
    games = [salesman, three_actions]
    assert all(is_generic(game).generic for game in games)
    while len(games) < 202:
        game = random_game_of_shape(rng, 2, rng.choice([3, 4, 5]))
        if is_generic(game).generic:
            games.append(game)
    exceptions, unrestored = [], []
    for game in games:
        found, missed = _no_gain_at_ties(game, _two_type_ties(game))
        exceptions += found
        unrestored += missed
    assert [mu for mu, on_tie in exceptions if not on_tie] == []
    assert unrestored == []
    assert (three_actions.prior, True) in exceptions
    print(f"{len(exceptions)} tie priors where burning gains nothing, all restored off the tie")


def test_no_gain_from_burning_at_the_three_actions_tie(three_actions):
    structure = compile_pieces(three_actions)
    assert best_responses(three_actions, three_actions.prior) == (0, 1)
    assert _md_mdmb_bp(structure, Belief(["1/5", "4/5"])) == (rat(1, 4), rat(1, 4), rat(3, 10))
    md, mdmb, _ = _md_mdmb_bp(structure, Belief(["201/1000", "799/1000"]))
    assert md == rat(1, 4) and mdmb == rat(1402, 5593)
    exceptions, unrestored = _no_gain_at_ties(three_actions, [three_actions.prior])
    assert exceptions == [(three_actions.prior, True)]
    assert unrestored == []


def test_no_gain_from_burning_at_three_type_ties():
    game = validate_game(
        ["t0", "t1", "t2"],
        ["a0", "a1", "a2"],
        [[-3, 2, 2], [4, -5, -5], [2, 0, 4]],
        [-4, 1, -3],
        ["1/3", "1/3", "1/3"],
    )
    assert is_generic(game).generic
    ties = [Belief(["1/8", "19/32", "9/32"]), Belief(["1/4", "11/16", "1/16"])]
    structure = compile_pieces(game)
    for mu in ties:
        assert best_responses(game, mu) == (0, 2)
        md, mdmb, bp = _md_mdmb_bp(structure, mu)
        assert md == mdmb == -3 < bp
    exceptions, unrestored = _no_gain_at_ties(game, ties)
    assert exceptions == [(mu, True) for mu in ties]  # none of the 24 perturbations
    assert unrestored == []
