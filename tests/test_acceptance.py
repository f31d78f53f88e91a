"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values below are either worked closed forms of the fixture games or
frozen outputs of the independent grid oracle; nothing here is tuned to the
LP pipeline under test.
"""

import random

import pytest

from medburn import Belief, PosteriorDistribution, SubjectivePrior, rat
from medburn.envelopes import concavify_weighted
from medburn.geometry import compile_pieces, is_generic
from medburn.mechanism import (
    construct_optimal_mdmb,
    deviation_findings,
    net_payoffs,
    sender_payoff,
    validate_mechanism,
)
from medburn.oracle import GridSpec, audit_report, audit_structure, grid_concavify, grid_qcav_binary
from medburn.solvers import (
    SaddleCertificate,
    interim_payoffs,
    max_selection,
    protocol_report_structure,
    value_bp,
    value_ct,
    value_md,
    value_mdmb,
    value_mdmb_binary,
    value_mdmb_budget,
    value_mdmb_budget_structure,
    value_mdmb_structure,
    value_ct_structure,
    value_bp_structure,
    verify_saddle,
)
from random_games import CORPUS_SEED, game_corpus, random_interior_prior


def report(number: int, description: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert not violations, f"criterion {number}: {violations[:5]}"


def test_criterion_1_binary_closed_forms(salesman):
    bad = []
    for mu0 in (rat(1, 10), rat(1, 4), rat(2, 5)):
        game = salesman.with_prior(Belief([mu0, 1 - mu0]))
        if value_mdmb(game)[0] != mu0 / (1 - mu0):
            bad.append(("mdmb", mu0))
        if value_md(game) != 0:
            bad.append(("md", mu0))
        if value_ct(game) != 0:
            bad.append(("ct", mu0))
    for mu0 in (rat(1, 2), rat(3, 5)):
        game = salesman.with_prior(Belief([mu0, 1 - mu0]))
        if value_mdmb(game)[0] != 1:
            bad.append(("mdmb", mu0))
    report(1, "binary closed forms mu0/(1-mu0) and saturation at 1", bad)


def test_criterion_2_budget_curve(salesman):
    bad = []
    for cap, mu0 in ((rat(2), rat(1, 4)), (rat(3), rat(1, 10)), (rat(3, 2), rat(2, 5))):
        game = salesman.with_prior(Belief([mu0, 1 - mu0]))
        expect = (cap - 1) * mu0 / (cap * (1 - mu0) - mu0)
        got = value_mdmb_budget(game, cap)[0]
        if got != expect:
            bad.append((str(cap), str(mu0), str(got)))
    for cap in (rat(1, 2), rat(1)):
        for mu0 in (rat(1, 4), rat(1, 10), rat(2, 5)):
            game = salesman.with_prior(Belief([mu0, 1 - mu0]))
            if value_mdmb_budget(game, cap)[0] != 0:
                bad.append((str(cap), str(mu0)))
    report(2, "budget-capped curve (C-1)mu0/(C(1-mu0)-mu0), zero for C <= 1", bad)


def test_criterion_3_influencer_saddle(influencer):
    bad = []
    structure = compile_pieces(influencer)
    expected = {0: rat(3), 1: rat(3), 2: rat(8, 3)}
    for t, want in expected.items():
        got = concavify_weighted(structure, SubjectivePrior.degenerate(3, t)).value
        if got != want:
            bad.append((f"vertex {t}", str(got)))
    value, cert = value_mdmb(influencer)
    if value != rat(5, 2):
        bad.append(("value", str(value)))
    if not verify_saddle(influencer, cert).ok:
        bad.append("computed certificate rejected")
    tau = PosteriorDistribution(
        [
            (Belief(["1/2", "1/4", "1/4"]), rat(2, 3)),
            (Belief([0, "1/2", "1/2"]), rat(1, 3)),
        ]
    )
    payoffs = interim_payoffs(influencer, tau, max_selection(influencer, tau))
    if payoffs != (rat(3), rat(5, 2), rat(5, 2)):
        bad.append(("directional payoffs", payoffs))
    paper_cert = SaddleCertificate(SubjectivePrior([0, "1/2", "1/2"]), tau, rat(5, 2), payoffs)
    if not verify_saddle(influencer, paper_cert).ok:
        bad.append("published certificate rejected")
    report(3, "three-type vertex envelopes 3,3,8/3; value 5/2; saddle accepted", bad)


def test_criterion_4_no_gain_from_burning(three_actions):
    bad = []
    ct, md = value_ct(three_actions), value_md(three_actions)
    mdmb, _ = value_mdmb(three_actions)
    bp = value_bp(three_actions)
    if not (ct == md == mdmb == rat(1, 4)):
        bad.append(("equal protocol values", str(ct), str(md), str(mdmb)))
    if not (bp == rat(3, 10) and bp > mdmb):
        bad.append(("bp", str(bp)))
    structure = compile_pieces(three_actions)
    grid = GridSpec(1920)  # multiple of the 1/5 and 2/3 boundaries
    oracle_bp = grid_concavify(structure, SubjectivePrior.from_belief(structure.prior), None, grid)
    if oracle_bp != rat(3, 10):
        bad.append(("oracle bp", str(oracle_bp)))
    oracle_vertex_min = min(
        grid_concavify(structure, SubjectivePrior.degenerate(2, t), None, grid) for t in range(2)
    )
    if oracle_vertex_min != rat(1, 4):
        bad.append(("oracle vertex min", str(oracle_vertex_min)))
    if grid_qcav_binary(structure, grid) != rat(1, 4):
        bad.append("oracle qcav")
    report(4, "cheap talk = mediation = burning 1/4 < commitment 3/10, oracle-confirmed", bad)


def test_criterion_5_abstract_pieces(abstract_structure):
    bad = []
    md = value_mdmb_budget_structure(abstract_structure, 0)[0]
    mdmb, _ = value_mdmb_structure(abstract_structure)
    ct = value_ct_structure(abstract_structure)
    if not (md == mdmb == rat(7, 3)):
        bad.append(("md/mdmb", str(md), str(mdmb)))
    if not ct < rat(7, 3):
        bad.append(("ct", str(ct)))
    report(5, "direct-pieces structure: md = mdmb = 7/3, ct strictly below", bad)


def test_criterion_6_mechanism_suite(salesman, influencer):
    bad = []
    for name, game in (("binary", salesman), ("three-type", influencer)):
        value, cert = value_mdmb(game)
        previous = None
        for k in range(1, 9):
            d = rat(1, 2**k)
            mech = construct_optimal_mdmb(game, cert.p_star, d)
            try:
                validate_mechanism(game, mech)  # bayes consistency, x >= 0, rows sum 1
            except ValueError as exc:
                bad.append((name, k, str(exc)))
                continue
            residuals_zero = len(set(net_payoffs(game, mech))) == 1
            if not residuals_zero:
                bad.append((name, k, "unequal net payoffs"))
            if deviation_findings(game, mech):
                bad.append((name, k, "profitable deviation"))
            payoff = sender_payoff(game, mech)
            if payoff > value:
                bad.append((name, k, "payoff above protocol value"))
            if previous is not None and payoff < previous:
                bad.append((name, k, "payoff not monotone as delta shrinks"))
            previous = payoff
            if name == "binary":
                mu0 = rat(1, 4)
                if payoff != (1 - d) * mu0 / (1 - mu0):
                    bad.append((name, k, f"payoff {payoff}"))
    report(6, "constructed mechanisms: exact IC, valid burns, monotone payoffs", bad)


def test_criterion_7_random_game_properties(salesman):
    bad = []
    corpus = game_corpus(200)
    values = []
    for i, game in enumerate(corpus):
        ct = value_ct(game)
        md = value_md(game)
        c1 = value_mdmb_budget(game, 1)[0]
        mdmb, cert = value_mdmb(game)
        bp = value_bp(game)
        values.append((game, ct, md, c1, mdmb, bp, cert))
        if not (ct <= md <= c1 <= mdmb <= bp):
            bad.append((i, "ordering chain"))
        if game.n_types == 2 and value_mdmb_binary(game) != mdmb:
            bad.append((i, "binary shortcut disagrees"))
        if mdmb == bp and not (ct == md == mdmb == bp):
            bad.append((i, "no-burning-gain collapse fails"))
        if mdmb == md and is_generic(game).generic and ct != mdmb:
            bad.append((i, "generic mediation tie should pin cheap talk"))

    for i, (game, *_rest) in enumerate(values[:40]):
        caps = [value_mdmb_budget(game, c)[0] for c in (rat(1, 2), rat(1), rat(2))]
        if not (caps[0] <= caps[1] <= caps[2]):
            bad.append((i, "budget monotonicity"))

    rng = random.Random(CORPUS_SEED + 1)
    split_checked = 0
    for game, *_rest, cert in values:
        if split_checked >= 40:
            break
        split = _random_split(rng, game.prior)
        if split is None:
            continue
        split_checked += 1
        own, _ = value_mdmb(game)
        floor = None
        for t in range(game.n_types):
            total = rat(0)
            for belief, weight in split.atoms:
                if belief[t] != 0:
                    total += weight * belief[t] / game.prior[t] * value_mdmb(game.with_prior(belief))[0]
            floor = total if floor is None else min(floor, total)
        if own < floor:
            bad.append(("split inequality", str(own), str(floor)))

    sampled = 0
    improved = 0
    trials = 0
    for i, (game, ct, md, c1, mdmb, bp, cert) in enumerate(values):
        if sampled >= 12 or ct >= bp or not is_generic(game).generic:
            continue
        sampled += 1
        for _ in range(20):
            prior = random_interior_prior(rng, game.n_types)
            shifted = game.with_prior(prior)
            trials += 1
            md_here = value_md(shifted)
            if md_here < value_mdmb(shifted)[0]:
                improved += 1
            elif md_here < value_bp(shifted):
                # the paper's claim: on a generic game, burning strictly helps
                # mediation wherever commitment is valuable
                bad.append((i, "burning does not improve mediation", str(prior)))
    print(f"burning strictly improves mediation at {improved}/{trials} sampled priors")
    if trials == 0:
        bad.append("no sampled priors")

    for mu0 in (rat(1, 10), rat(1, 4), rat(2, 5), rat(9, 20)):
        game = salesman.with_prior(Belief([mu0, 1 - mu0]))
        if not value_md(game) < value_mdmb(game)[0]:
            bad.append(("strict improvement on the binary family", str(mu0)))

    mech_checked = 0
    for game, *_rest, cert in values:
        if mech_checked >= 40:
            break
        mech_checked += 1
        mech = construct_optimal_mdmb(game, cert.p_star, rat(1, 8))
        if deviation_findings(game, mech):
            bad.append(("deviation audit", mech_checked))

    report(7, "200-game property suite (chain, shortcuts, collapses, splits, audits)", bad)


def _random_split(rng, prior):
    """A Bayes-plausible three-atom split of ``prior``, or None if unlucky."""
    n = len(prior)
    for _ in range(60):
        w1 = rat(rng.randint(1, 4), 12)
        w2 = rat(rng.randint(1, 4), 12)
        w3 = 1 - w1 - w2
        if w3 <= 0:
            continue
        mu1 = random_interior_prior(rng, n)
        mu2 = random_interior_prior(rng, n)
        residual = [
            (prior[t] - w1 * mu1[t] - w2 * mu2[t]) / w3 for t in range(n)
        ]
        if all(v >= 0 for v in residual) and sum(residual, rat(0)) == 1:
            return PosteriorDistribution(
                [(mu1, w1), (mu2, w2), (Belief(residual), w3)]
            )
    return None


def test_criterion_8_oracle_dominance(salesman, three_actions, influencer, abstract_structure):
    bad = []
    audits = {
        "binary-sales": audit_report(salesman, budgets=[2], grid=GridSpec(4096)),
        "binary-hedge": audit_report(three_actions, grid=GridSpec(1920)),
        "three-type": audit_report(influencer, grid=GridSpec(60)),
        "direct": audit_structure(
            abstract_structure, protocol_report_structure(abstract_structure), grid=GridSpec(60)
        ),
    }
    for name, audit in audits.items():
        for row in audit.rows:
            if not row.satisfied:
                bad.append((name, row.protocol, str(row.exact), str(row.lower), str(row.upper)))
    report(8, "exact values sandwiched by grid-oracle bounds within stated slack", bad)
